//! Host fingerprint, the capacity gate, and peak RSS.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fingers_server::Json;

/// What the numbers were measured on; recorded in every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub nproc: usize,
    /// Worker/thread/connection count of every "parallel" measurement:
    /// `min(nproc, 4)`.
    pub p: usize,
    pub cpu_model: String,
    pub sse2: bool,
    pub popcnt: bool,
    pub rustc: String,
    pub git_sha: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        };
        let flags = field("flags").unwrap_or_default();
        let has = |f: &str| flags.split_whitespace().any(|x| x == f);
        Host {
            nproc,
            p: nproc.min(4),
            cpu_model: field("model name").unwrap_or_else(|| "unknown".to_owned()),
            sse2: has("sse2"),
            popcnt: has("popcnt"),
            rustc: command_line("rustc", &["-V"]),
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::U64(self.nproc as u64)),
            ("p", Json::U64(self.p as u64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("sse2", Json::Bool(self.sse2)),
            ("popcnt", Json::Bool(self.popcnt)),
            ("rustc", Json::str(&self.rustc)),
            ("git_sha", Json::str(&self.git_sha)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Host> {
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
        Some(Host {
            nproc: v.get("nproc")?.as_u64()? as usize,
            p: v.get("p")?.as_u64()? as usize,
            cpu_model: s("cpu_model")?,
            sse2: v.get("sse2")?.as_bool()?,
            popcnt: v.get("popcnt")?.as_bool()?,
            rustc: s("rustc")?,
            git_sha: s("git_sha")?,
        })
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of `p` cores the process must be getting before (and after) a
/// P-thread or service measurement for the number to count.
pub const CAPACITY_SHARE: f64 = 0.9;
const PROBE_WINDOW: Duration = Duration::from_millis(15);
const GATE_TIMEOUT: Duration = Duration::from_secs(4);

/// Iterations of a fixed integer loop `threads` spinning threads complete
/// in one probe window, per second.
fn spin_rate(threads: usize) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut x = 0x9E37_79B9u64;
                let mut n = 0u64;
                // ord: the flag publishes nothing; a late read only
                // lengthens the window by one batch.
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..4096 {
                        x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7));
                    }
                    n += 4096;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(PROBE_WINDOW);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// One capacity reading: how many cores' worth of the calibrated
/// single-thread rate `p` spinning threads get right now.
pub fn capacity(p: usize) -> f64 {
    if p <= 1 {
        return 1.0;
    }
    let one = spin_rate(1);
    if one == 0.0 {
        return 0.0;
    }
    spin_rate(p) / one
}

/// Spins until a probe reads at least [`CAPACITY_SHARE`]`·p` (a sleeping
/// vCPU needs about a second of demand to wake after process start), or
/// the timeout passes. Returns the last reading.
pub fn wait_for_capacity(p: usize) -> f64 {
    let start = Instant::now();
    loop {
        let c = capacity(p);
        if c >= CAPACITY_SHARE * p as f64 || start.elapsed() > GATE_TIMEOUT {
            return c;
        }
    }
}

/// Runs `measure` between two capacity probes, up to three times, until
/// both probes pass. Returns the last measurement and whether it is
/// resolved (both of its probes passed).
pub fn gated<T>(p: usize, mut measure: impl FnMut() -> T) -> (T, bool) {
    let need = CAPACITY_SHARE * p as f64;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let before = wait_for_capacity(p);
        let out = measure();
        let after = capacity(p);
        let resolved = before >= need && after >= need;
        if resolved || attempt == 3 {
            return (out, resolved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_through_json() {
        let h = Host::probe();
        assert!(h.nproc >= 1 && h.p >= 1 && h.p <= 4);
        assert_eq!(Host::from_json(&h.to_json()), Some(h));
    }

    #[test]
    fn gate_returns_the_measurement() {
        let mut calls = 0;
        let (v, _) = gated(1, || {
            calls += 1;
            42
        });
        assert_eq!(v, 42);
        assert_eq!(calls, 1, "p = 1 always resolves on the first attempt");
        assert!(peak_rss_mb() > 0.0);
    }
}
