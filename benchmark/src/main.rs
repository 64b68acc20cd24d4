//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run   --seed N   # untraced suite
//! cargo run --release --manifest-path benchmark/Cargo.toml -- trace --seed N   # traced suite
//! cargo run --release --manifest-path benchmark/Cargo.toml -- aa    --seed N   # suite twice, A/A
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload W --seed N --seconds S --trace 0|1                            # one workload
//! ```

mod alloc;
mod guard;
mod host;
mod layers;
mod measure;
mod metrics;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;
mod wrappers;

use measure::Schedule;
use report::ParsedResult;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  benchmark run   [--seed N] [--seconds S] [--smoke] [--workload W]...   untraced suite, one child process per workload
  benchmark trace [--seed N] [--seconds S] [--smoke] [--workload W]...   traced suite: per-layer metrics, span files
  benchmark aa    [--seed N] [--seconds S] [--workload W]...             untraced suite twice; non-zero exit on a bound breach
  benchmark manifest                                                      print BENCHMARK.json
  benchmark metrics                                                       print README.md's metric tables
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]      one workload; last stdout line is the JSON result";

struct Args {
    command: Option<String>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workloads: Vec::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads.push(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| "--seconds needs a whole number from 1 to 60".to_owned())?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where span files, spill directories and generated file stores go:
/// `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    let dir = PathBuf::from(manifest).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn schedule(args: &Args) -> Schedule {
    if args.smoke {
        Schedule::smoke()
    } else {
        Schedule::full(args.seconds)
    }
}

/// One workload in this process; the JSON result is the last line printed.
fn run_single(args: &Args) -> ExitCode {
    let [workload] = args.workloads[..] else {
        eprintln!("exactly one --workload is needed\n{USAGE}");
        return ExitCode::from(2);
    };
    let out = out_dir();
    let line = if args.trace {
        let traced = layers::run_traced(workload, args.seed, schedule(args), &out);
        layers::print_traced(&traced);
        report::result_line(
            traced.correct,
            traced.attempted,
            traced.failed,
            &traced.metrics(),
        )
    } else {
        let run = measure::run_untraced(workload, args.seed, schedule(args), &out);
        report::print_run(&run, args.smoke);
        report::result_line(
            report::run_is_correct(&run),
            run.window.attempted,
            run.window.failed,
            &report::end_to_end_metrics(&run),
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run each workload in its own child process (a fresh address space, so
/// `peak_rss_mb` and allocator state belong to that workload alone) and
/// collect the result lines.
fn run_suite(args: &Args, trace: bool) -> Result<Vec<(Workload, ParsedResult)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads = if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let mut results = Vec::new();
    for workload in workloads {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if args.smoke {
            command.arg("--smoke");
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (body, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{body}\n");
        if !output.status.success() {
            return Err(format!(
                "{} child exited with {}",
                workload.name(),
                output.status
            ));
        }
        let parsed = report::parse_result_line(last)
            .ok_or_else(|| format!("{} child printed no result line", workload.name()))?;
        results.push((workload, parsed));
    }
    Ok(results)
}

fn print_summary(results: &[(Workload, ParsedResult)]) -> bool {
    println!("== summary ==");
    let mut all_correct = true;
    for (workload, result) in results {
        all_correct &= result.correct;
        println!(
            "  {:<14} {:>7} operations, {} failed, {}",
            workload.name(),
            result.attempted,
            result.failed,
            if result.correct {
                "correct"
            } else {
                "NOT CORRECT"
            }
        );
    }
    all_correct
}

/// A/A: the untraced suite twice on the same code; every workload × metric
/// must agree within its own bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    let first = run_suite(args, false)?;
    let second = run_suite(args, false)?;
    println!(
        "== A/A: second run against first, same code, seed {} ==",
        args.seed
    );
    let mut ok = print_summary(&first) & print_summary(&second);
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for m in &metrics::END_TO_END {
            let (Some(&va), Some(&vb)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                return Err(format!("{}: {} missing", workload.name(), m.name));
            };
            // Positive = the second run is worse.
            let worse = match m.better {
                metrics::Better::Lower => (vb - va) / va,
                metrics::Better::Higher => (va - vb) / va,
            };
            let breach = worse.abs() > m.bound;
            ok &= !breach;
            println!(
                "  {:<14} {:<22} {:>12.4} -> {:>12.4} {:<10} {:>+7.2} %  (bound {:>2.0} %){}",
                workload.name(),
                m.name,
                va,
                vb,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "   BREACH" } else { "" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    host::nproc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = match args.command.as_deref() {
        None => return run_single(&args),
        Some("metrics") => {
            print!("{}", metrics::markdown_tables());
            return ExitCode::SUCCESS;
        }
        Some("manifest") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("run") => run_suite(&args, false).map(|r| print_summary(&r)),
        Some("trace") => run_suite(&args, true).map(|r| print_summary(&r)),
        Some("aa") => run_aa(&args),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
