//! The host stamp every result document carries, and the sizing rule.

/// Largest pool/worker/rank count the harness ever uses.
pub const MAX_P: usize = 4;

/// What the numbers were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical cores available to this process.
    pub nproc: usize,
    /// Pool, worker and rank count of every workload.
    pub p: usize,
    /// SIMD level `spg_gemm::detect_simd_level` reports.
    pub simd: String,
    /// `rustc -V`, or `unknown` when no compiler is on the path.
    pub rustc: String,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
    /// Seed the inputs were generated from.
    pub seed: u64,
}

impl Host {
    /// Stamps this host. `requested_p` overrides `min(nproc, 4)`.
    ///
    /// # Errors
    ///
    /// A requested `P` of zero or above `nproc` is refused: results with
    /// more workers than cores measure oversubscription, not the system.
    pub fn stamp(requested_p: Option<usize>, seed: u64) -> Result<Host, String> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let p = requested_p.unwrap_or(nproc.min(MAX_P));
        if p == 0 || p > nproc {
            return Err(format!("P = {p} refused: this host has {nproc} core(s)"));
        }
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_owned(), |o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Ok(Host {
            nproc,
            p,
            simd: format!("{:?}", spg_gemm::detect_simd_level()),
            rustc,
            loadavg_1m,
            seed,
        })
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_is_refused_not_flagged() {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(Host::stamp(Some(nproc + 1), 0).is_err());
        assert!(Host::stamp(Some(0), 0).is_err());
        let host = Host::stamp(None, 7).unwrap();
        assert_eq!(host.p, nproc.min(MAX_P));
        assert_eq!(host.seed, 7);
        assert!(peak_rss_mb() > 0.0);
    }
}
