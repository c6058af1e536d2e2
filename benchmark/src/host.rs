//! Host-side process accounting read from `/proc` (Linux only; on other
//! systems the readers return 0 and the guards that use them stay quiet).

use std::fs;

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has consumed so far.
pub fn cpu_seconds() -> f64 {
    // `utime` and `stime` are fields 14 and 15; the command name in field 2
    // may contain spaces, so count from the closing parenthesis. The unit is
    // USER_HZ ticks, which Linux fixes at 100 per second for user space.
    const USER_HZ: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / USER_HZ
}
