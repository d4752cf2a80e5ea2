//! Order statistics for the reported metrics, and the process's peak
//! resident set size.

/// Sorts a sample in place (no NaNs: every sample is a measured time).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// The median of an unsorted, non-empty sample (mean of the middle two
/// for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of a sorted sample, or `None`
/// when fewer than ten samples lie beyond it: a tail percentile is only
/// reported when it rests on at least ten observations.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= 10).then(|| sorted[rank - 1])
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Hands freed heap pages back to the kernel and resets the peak
/// resident set size to the current one (Linux `clear_refs`), so that the
/// next [`peak_rss_mb`] measures only what runs in between. Without the
/// trim, pages freed earlier stay resident and every later window would
/// report the largest earlier peak.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` is glibc's own entry point, declared with its
    // C signature; it takes no pointers and accepts any padding.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&xs, 95.0), None);
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        assert_eq!(tail_percentile(&xs, 50.0), Some(50.0));
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\te2e\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\te2e\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
