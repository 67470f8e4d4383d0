//! Process resource readings from procfs: peak resident memory
//! (`VmHWM` in `/proc/self/status`) and user+system CPU time (`utime` +
//! `stime` in `/proc/self/stat`, summed over every thread).

use std::time::{Duration, Instant};

/// Kernel clock ticks per second for the `/proc/self/stat` CPU fields.
/// Linux reports `USER_HZ`, which is 100 on every mainstream
/// architecture; [`self_check`] verifies the assumption on the running
/// kernel instead of trusting it.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Current resident set size of this process, MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_kib("VmRSS:").map(|kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))?;
    let mut fields = line[key.len()..].split_whitespace();
    let value = fields.next().and_then(|v| v.parse::<u64>().ok());
    match (value, fields.next()) {
        (Some(v), Some("kB")) => Ok(v),
        _ => Err(format!("unreadable {key} line: {line:?}")),
    }
}

/// User plus system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // the fixed-position fields start after its closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/stat field {} unreadable", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SEC)
}

/// Verifies that both readings work on this kernel: the peak-memory
/// reading must grow when the process touches fresh memory, and the CPU
/// reading must advance under a busy loop without outrunning the wall
/// clock (which would mean the tick rate is not 100 per second).
///
/// Meaningful only as the first thing a fresh, single-threaded process
/// does: the 4 MiB probe is then freshly mapped memory, and it sits
/// below every workload's own footprint, so it cannot mask a workload's
/// peak.
pub fn self_check() -> Result<(), String> {
    const PROBE_MIB: usize = 4;
    let before = peak_rss_mb()?;
    if rss_mb()? <= 0.0 {
        return Err("VmRSS reads zero".into());
    }
    let mut buf = vec![0u8; PROBE_MIB << 20];
    for page in buf.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&buf);
    let after = peak_rss_mb()?;
    drop(buf);
    if after < before + (PROBE_MIB as f64) * 0.75 {
        return Err(format!(
            "VmHWM did not grow after touching {PROBE_MIB} MiB ({before} -> {after} MiB)"
        ));
    }

    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let mut x = 0u64;
    // Spin until the CPU counter has ticked a few times, or give up.
    while cpu_seconds()? - cpu0 < 0.05 {
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("CPU time did not advance during a 5 s busy loop".into());
        }
    }
    std::hint::black_box(x);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds()? - cpu0;
    // One thread cannot burn more CPU than wall time; allow one tick of
    // rounding on each side of the interval.
    if cpu > wall + 2.0 / TICKS_PER_SEC {
        return Err(format!(
            "CPU time {cpu:.3} s outran wall time {wall:.3} s: clock ticks are not {TICKS_PER_SEC}/s"
        ));
    }
    Ok(())
}
