//! Process-level resource probes.
//!
//! Machine-dependent by nature, so values from here must never land in the
//! deterministic metrics view — report them through `_live`-suffixed gauges
//! (classified as timing by [`crate::is_timing_name`]), which the timing
//! view carries, as `repro --corpus-scale` does with
//! `stream.peak_rss_bytes_live`.

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). `None` where procfs is unavailable (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().unwrap();
        // Any live process has touched at least a page.
        assert!(rss > 4096, "peak RSS {rss} implausibly small");
    }
}
