//! Order statistics and the row checksum the oracle uses.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a hash over more bytes.
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Median of unsorted samples (mean of the two middle ones for even counts).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of ascending `sorted`, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it — a tail
/// estimated from a handful of points is noise, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The nearest-rank percentile with no tail requirement (smoke runs and the
/// ungated p99). `None` only for an empty slice.
pub fn percentile_unchecked(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1])
}

/// An order-independent checksum of a result: row count plus the wrapping
/// sum of per-row FNV-1a hashes. Site answers arrive in completion order and
/// foci in query order, so the comparison against the in-process wrapper
/// must not depend on either; a lost, duplicated or altered row still
/// changes the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSum {
    pub rows: u64,
    pub hash: u64,
}

impl RowSum {
    pub fn add(&mut self, row_hash: u64) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash);
    }

    pub fn add_row(&mut self, row: &str) {
        self.add(fnv1a(row.as_bytes()));
    }

    pub fn merge(&mut self, other: RowSum) {
        self.rows += other.rows;
        self.hash = self.hash.wrapping_add(other.hash);
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a String>) -> RowSum {
        let mut sum = RowSum::default();
        for row in rows {
            sum.add_row(row);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=200).collect();
        // p95 of 200: rank 190, ten samples beyond — just enough.
        assert_eq!(percentile(&sorted, 0.95), Some(190));
        // One sample fewer and the tail is too thin.
        assert_eq!(percentile(&sorted[..199], 0.95), None);
        // p99 of 200 has two samples beyond it.
        assert_eq!(percentile(&sorted, 0.99), None);
        assert_eq!(percentile_unchecked(&sorted, 0.99), Some(198));
        // The median of 21 has exactly ten beyond it; of 20 only ten too.
        let small: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&small, 0.5), Some(11));
        assert_eq!(percentile(&small[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500));
        assert_eq!(percentile(&sorted, 0.95), Some(950));
        assert_eq!(percentile(&sorted, 0.99), Some(990));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn row_sum_ignores_order_but_not_content() {
        let a = vec!["x|1".to_owned(), "y|2".to_owned(), "z|3".to_owned()];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(RowSum::of(&a), RowSum::of(&b));
        b[0] = "z|4".into();
        assert_ne!(RowSum::of(&a), RowSum::of(&b));
        assert_ne!(RowSum::of(&a), RowSum::of(&a[..2]));
        let mut dup = a.clone();
        dup.push(a[0].clone());
        assert_ne!(RowSum::of(&a), RowSum::of(&dup));
    }
}
