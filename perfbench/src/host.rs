//! Host fingerprint and peak memory.

/// The machine's parallelism: the traced run's pool size, and part of
/// the host fingerprint.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"nproc":…,"cpu":…,"rustc":…,"kernel":…,"pin":…}`, where `nproc` is
/// [`nproc`] read before pinning and `pin` is the CPU the run is pinned
/// to or `"unpinned"`. Wall-clock figures are
/// comparable only between results with the same fingerprint: pinning
/// alone moves paper-grid's throughput by half (see [`pin_to_last_cpu`]).
pub fn fingerprint(nproc: usize, pin: Option<usize>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"kernel\":{},\"pin\":{}}}",
        nproc,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&kernel),
        pin.map_or_else(|| json_str("unpinned"), |c| json_str(&format!("cpu{c}")))
    )
}

/// Pin this process to the last CPU it may run on, so that threads it
/// starts later inherit the mask. Called before any other thread exists.
/// With the caller and the server worker on one CPU, a request's two
/// thread handoffs stay on that CPU: across two vCPUs each handoff wakes
/// a halted vCPU, and on a shared host that wake-up time is most of the
/// run-to-run noise (paper-grid read 2650–2710 runs/s unpinned against
/// 4150–4210 pinned, alternating in one busy minute). Always the same
/// CPU, so that every run on a host measures like with like. Returns the
/// CPU, or why pinning failed (the run then proceeds unpinned).
pub fn pin_to_last_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    // `Cpus_allowed_list:\t0-1` (or `0,2,5-7`): the last number.
    let cpu: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next())
        .and_then(|c| c.parse().ok())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let out = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if out.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset exited with {out}"))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_json() {
        for pin in [None, Some(1)] {
            let f = fingerprint(2, pin);
            let v = serde_json::parse_value_complete(&f).expect("fingerprint parses");
            assert!(v.as_map().is_some());
        }
        assert!(fingerprint(2, Some(1)).starts_with(r#"{"nproc":2,"#));
        assert!(fingerprint(2, Some(1)).ends_with(r#""pin":"cpu1"}"#));
        assert!(fingerprint(2, None).ends_with(r#""pin":"unpinned"}"#));
    }
}
