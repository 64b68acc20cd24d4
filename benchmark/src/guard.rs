//! Two promises the benchmark makes about its own source, held by a test
//! that reads it (`benchmark/check.sh` runs it):
//!
//! * **zero injected latency** — no fixture scripts a delay, so every
//!   millisecond measured is the program's own work;
//! * **stable surface only** — the benchmark calls only entry points the
//!   ROADMAP says survive the wire collapse and the gateway rewrite, and
//!   never picks a wire for the gateway (`benchmark/README.md` lists the
//!   allowlist).
//!
//! The runtime half of the first promise is the assertion on every
//! `ContainerConfig`/`ServerConfig` the benchmark starts a server with.

#[cfg(test)]
mod tests {
    /// Identifiers that inject latency into a fixture.
    const INJECTED_DELAY: [&str; 4] = [
        "query_delay",
        "set_query_latency",
        "injected_latency: Some",
        "with_injected_latency",
    ];

    /// Entry points outside the stable surface: wire selection, per-wire
    /// call forms, per-shape counters.
    const UNSTABLE_SURFACE: [&str; 16] = [
        "with_batching",
        "with_binary",
        "with_streaming",
        "call_batch",
        "call_stream",
        "soap::batch",
        "encode_binary_batch_",
        "decode_binary_batch_",
        "BatchStreamReader",
        "binary_calls",
        "binary_entries",
        "batched_calls",
        "batch_entries",
        "stream_frames",
        "batch_streams",
        "_fallback_calls",
    ];

    #[test]
    fn no_injected_delay_and_no_unstable_entry_point() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut scanned = 0;
        for entry in std::fs::read_dir(&src).expect("read benchmark/src") {
            let path = entry.expect("directory entry").path();
            // This file names the forbidden identifiers in order to forbid them.
            if path.file_name().is_some_and(|n| n == "guard.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source file");
            for (n, line) in text.lines().enumerate() {
                for banned in INJECTED_DELAY.iter().chain(&UNSTABLE_SURFACE) {
                    assert!(
                        !line.contains(banned),
                        "{}:{}: `{banned}` is off limits to the benchmark",
                        path.display(),
                        n + 1
                    );
                }
            }
            scanned += 1;
        }
        assert!(scanned >= 10, "only {scanned} source files scanned");
    }
}
