//! What the numbers depend on outside the program: process CPU time and
//! peak memory from `/proc`, the store root's filesystem, the raw cost of a
//! small synced write, and the commit being measured.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// `/proc/self/stat` reports CPU time in clock ticks; every Linux port
/// Rust's tier-1 targets run on uses 100 Hz for `USER_HZ`, and the standard
/// library has no `sysconf`.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Median microseconds of a 4 KiB `write_all` + `sync_data` on a file in
/// `dir`: the device floor under every durable latency reported.
pub fn fsync_us(dir: &Path) -> std::io::Result<f64> {
    const ROUNDS: usize = 48;
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe.bin");
    let mut file = std::fs::File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    samples.sort_unstable();
    Ok(samples[ROUNDS / 2] as f64 / 1000.0)
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The `env` object every result file starts with.
pub fn describe(store_root: &Path, fsync_us: f64) -> Json {
    Json::obj([
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("arch", Json::str(std::env::consts::ARCH)),
        (
            "erasure_kernel",
            Json::str(format!("{:?}", fab_erasure::active_kernel())),
        ),
        ("store_root", Json::str(store_root.display().to_string())),
        ("store_fs", Json::str(filesystem_type(store_root))),
        ("env.fsync_us", Json::Num(fsync_us)),
        ("git_head", Json::str(git_head())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so utime is non-zero on a fresh test process.
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 30 {
            x = x.wrapping_mul(31).wrapping_add(7);
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert_ne!(filesystem_type(Path::new("/proc")), "unknown");
    }
}
