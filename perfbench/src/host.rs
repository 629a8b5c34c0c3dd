//! Host noise, read-only from `/proc`: CPU steal and load average.
//!
//! The benchmark shares its machine. Steal time (cycles the hypervisor
//! gave to another guest) and the load average are printed with every
//! run so a disturbed run shows as such instead of passing for a slow
//! program.

/// `/proc/stat` counts in USER_HZ, which the Linux ABI fixes at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of the host counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    steal_ticks: u64,
    /// One-minute load average.
    pub load1: f64,
}

/// Reads the aggregate `cpu` line's steal column and the one-minute load
/// average. A missing or unreadable file reads as zero: host noise is
/// reported, never required.
pub fn sample() -> HostSample {
    let steal_ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu user nice system idle iowait irq softirq steal ...
            s.lines().next().and_then(|l| l.split_whitespace().nth(8)).and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    HostSample { steal_ticks, load1 }
}

/// Host noise over an interval.
#[derive(Debug, Clone, Copy)]
pub struct HostNoise {
    /// CPU seconds stolen from this guest, summed over all CPUs.
    pub steal_s: f64,
    /// Wall seconds the interval lasted.
    pub wall_s: f64,
    /// One-minute load average at the start and at the end.
    pub load_start: f64,
    /// See `load_start`.
    pub load_end: f64,
}

impl HostNoise {
    /// Noise between two samples taken `wall_s` apart.
    pub fn between(start: HostSample, end: HostSample, wall_s: f64) -> Self {
        Self {
            steal_s: end.steal_ticks.saturating_sub(start.steal_ticks) as f64 / TICKS_PER_SECOND,
            wall_s,
            load_start: start.load1,
            load_end: end.load1,
        }
    }

    /// A run is disturbed when more than 5 % of one CPU's time was stolen
    /// or the load average exceeded the CPUs available.
    pub fn disturbed(&self, cpus: usize) -> bool {
        self.steal_s > 0.05 * self.wall_s || self.load_start.max(self.load_end) > cpus as f64
    }

    /// One summary line.
    pub fn line(&self, cpus: usize) -> String {
        format!(
            "host: steal {:.2} s over {:.1} s, load average {:.2} -> {:.2} on {} CPUs{}",
            self.steal_s,
            self.wall_s,
            self.load_start,
            self.load_end,
            cpus,
            if self.disturbed(cpus) { "  DISTURBED" } else { "" }
        )
    }
}
