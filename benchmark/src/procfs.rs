//! What the kernel says about a process: CPU time, waits and peak
//! memory, and about the loopback interface, read from `/proc`. Works the same for the benchmark
//! itself and for the `perseas serve` child it spawns.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on every Linux target this repository builds for).
const TICKS_PER_SECOND: f64 = 100.0;

/// Cumulative counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU seconds of all threads, living and dead.
    pub cpu_s: f64,
    /// Voluntary context switches of the threads alive now: how often
    /// the process blocked (on a socket, a futex, a poll).
    pub waits: u64,
}

impl ProcSample {
    /// Samples process `pid`; `None` if it has gone or `/proc` is absent.
    pub fn of(pid: u32) -> Option<ProcSample> {
        let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        let cpu_s = parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SECOND;
        let mut waits = 0;
        for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                waits += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        Some(ProcSample { cpu_s, waits })
    }

    /// Samples the calling process.
    pub fn of_self() -> ProcSample {
        ProcSample::of(std::process::id()).unwrap_or_default()
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_s: self.cpu_s - earlier.cpu_s,
            waits: self.waits.saturating_sub(earlier.waits),
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in megabytes.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Bytes received on the loopback interface since boot, headers and
/// acknowledgements included (what is sent on `lo` is received on it).
/// System-wide: meaningful as a delta on a box with no other loopback
/// traffic. Zero where `/proc/net/dev` is absent. (`/proc/<pid>/io` would
/// be per process, but `send` and `recv` bypass its counters.)
pub fn loopback_rx_bytes() -> u64 {
    fs::read_to_string("/proc/net/dev").map_or(0, |dev| parse_loopback_rx(&dev))
}

fn parse_loopback_rx(dev: &str) -> u64 {
    dev.lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `utime + stime` out of a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The first number after `key` in a `Key:  value [unit]` listing.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194304 120 0 0 0 7 5 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(12));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse_with_units() {
        let text = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t9\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(2048));
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), Some(9));
        assert_eq!(status_field(text, "VmPeak:"), None);
    }

    #[test]
    fn loopback_line_is_found_with_or_without_padding() {
        let dev = "Inter-|   Receive\n face |bytes packets\n    lo: 9876 12 0\n  eth0: 5 1 0\n";
        assert_eq!(parse_loopback_rx(dev), 9876);
        assert_eq!(parse_loopback_rx("lo:42 1\n"), 42);
        assert_eq!(parse_loopback_rx("eth0: 5\n"), 0);
    }

    #[test]
    fn own_process_is_sampled() {
        let s = ProcSample::of_self();
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        let later = ProcSample::of_self();
        assert!(later.since(&s).cpu_s >= 0.0);
    }
}
