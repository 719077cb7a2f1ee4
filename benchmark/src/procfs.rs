//! Process accounting read from `/proc/self` (Linux only; every reader
//! degrades to `None` elsewhere so the benchmark still runs).

use std::time::Duration;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `sysconf(_SC_CLK_TCK)` is 100 on every Linux
/// ABI the toolchain targets, and std has no way to ask.
const CLK_TCK: u64 = 100;

/// Parses the user + system CPU time out of a `/proc/<pid>/stat` line.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 1000 / CLK_TCK))
}

/// The value of one `Key:   value` line of `/proc/<pid>/status`.
pub fn parse_status<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|line| Some(line.strip_prefix(key)?.strip_prefix(':')?.trim()))
}

/// Parses one `Key:   <n> kB` line out of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    parse_status(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// User + system CPU time of this process so far, all threads.
pub fn cpu_time() -> Option<Duration> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The CPUs the calling thread may run on, as `taskset -c` takes them
/// (`0-1`, `0,2-3`).
pub fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    parse_status(&status, "Cpus_allowed_list").map(str::to_string)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line = "4242 (tecore (e2e) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Some(Duration::from_millis(3000)));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_field_lookup() {
        let status = "Name:\ttecore-e2e\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nThreads:\t4\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(900_000));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status(status, "Threads"), Some("4"));
        assert_eq!(
            parse_status("Cpus_allowed_list:\t0-1\n", "Cpus_allowed_list"),
            Some("0-1")
        );
        assert_eq!(parse_status_kb(status, "Threads"), None, "not a kB field");
    }

    #[test]
    fn live_readers_work_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_time().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
