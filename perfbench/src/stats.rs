//! Pure helpers behind the reported numbers: percentiles, medians,
//! self-time subtraction, `VmHWM` parsing and the output digest.

/// Samples a percentile must leave beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank: such a tail value is one or
/// two outliers, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = nearest_rank(sorted.len(), q);
    (sorted.len() - 1 - i >= MIN_BEYOND).then(|| sorted[i])
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Whether the nearest-rank position of `q` lies at least [`MIN_BEYOND`]
/// samples from every boundary between cost modes. `mode_counts` gives
/// how many samples fall in each mode, modes ordered from cheap to
/// expensive; the sorted sample is assumed to list the modes in that
/// order, so a rank near a boundary would read either mode depending on
/// noise.
pub fn rank_clear_of_modes(mode_counts: &[usize], q: f64) -> bool {
    let n: usize = mode_counts.iter().sum();
    if n == 0 {
        return false;
    }
    let rank = nearest_rank(n, q);
    let mut boundary = 0usize;
    for &c in &mode_counts[..mode_counts.len().saturating_sub(1)] {
        boundary += c;
        // Ranks boundary-1 and boundary are the last cheap and the first
        // expensive sample.
        let dist = if rank < boundary {
            boundary - 1 - rank
        } else {
            rank - boundary
        };
        if c > 0 && boundary < n && dist < MIN_BEYOND {
            return false;
        }
    }
    true
}

/// A layer's self time: its own wall time minus what its children took,
/// floored at zero (children timed separately can overshoot by noise).
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// Peak resident set (`VmHWM`) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then(|| kb / 1024.0)
}

/// FNV-1a over served outputs and deterministic counters.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Fold an `f64` by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 99 of 100 leaves one sample beyond it.
        assert_eq!(percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ranks_near_a_mode_boundary_are_refused() {
        // 70 cheap then 30 expensive: p50 (rank 49) is 20 clear, p90 (rank
        // 89) is 19 clear, p72 (rank 71) sits two past the boundary.
        assert!(rank_clear_of_modes(&[70, 30], 0.5));
        assert!(rank_clear_of_modes(&[70, 30], 0.9));
        assert!(!rank_clear_of_modes(&[70, 30], 0.72));
        assert!(!rank_clear_of_modes(&[70, 30], 0.65));
        // A single mode has no boundary; empty modes add none.
        assert!(rank_clear_of_modes(&[100], 0.72));
        assert!(rank_clear_of_modes(&[70, 0, 30], 0.5));
        assert!(!rank_clear_of_modes(&[], 0.5));
    }

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        assert!((self_time(10.0, &[2.0, 3.0]) - 5.0).abs() < 1e-12);
        assert_eq!(self_time(1.0, &[0.7, 0.6]), 0.0);
        assert_eq!(self_time(4.0, &[]), 4.0);
    }

    #[test]
    fn vmhwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(20.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t100 MB\n"), None);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.0, b.0);
        let mut c = Digest::default();
        c.f64(0.0);
        let mut d = Digest::default();
        d.f64(-0.0);
        assert_ne!(c.0, d.0);
    }
}
