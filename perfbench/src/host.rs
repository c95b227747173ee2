//! Facts about the host and the process, read from `/proc` and `/sys`.

use std::fs;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The last-level cache size in bytes, from the highest cache index of
/// CPU 0 (0 when unknown).
pub fn llc_bytes() -> u64 {
    (0..8)
        .rev()
        .find_map(|index| {
            fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .ok()
        })
        .and_then(|size| {
            let size = size.trim();
            let (digits, scale) = match size.chars().last() {
                Some('K') => (&size[..size.len() - 1], 1u64 << 10),
                Some('M') => (&size[..size.len() - 1], 1 << 20),
                Some('G') => (&size[..size.len() - 1], 1 << 30),
                _ => (size, 1),
            };
            digits.parse::<u64>().ok().map(|n| n * scale)
        })
        .unwrap_or(0)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 * 1024.0 / 1e6)
}

/// CPU time consumed so far by every live thread of the process, in
/// seconds (from each task's `schedstat`, nanosecond resolution).
pub fn process_cpu_secs() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if let Ok(stat) = fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

/// The provenance line every run prints.
pub fn describe(rev: &str) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" llc_mib={:.1} rev={rev}",
        nproc(),
        cpu_model(),
        llc_bytes() as f64 / f64::from(1u32 << 20)
    )
}
