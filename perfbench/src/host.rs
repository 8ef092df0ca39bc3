//! Host context recorded with every result: revision, visible CPUs, a
//! measured parallel capacity, and the process's peak resident memory.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the machine offered while the benchmark ran.
#[derive(Debug, Clone)]
pub struct Host {
    pub revision: String,
    pub nproc: usize,
    /// Time for one thread to spin a fixed amount of work.
    pub spin_one_s: f64,
    /// Time for two threads to spin that amount each, concurrently.
    pub spin_two_s: f64,
}

impl Host {
    pub fn probe() -> Self {
        let spin_one_s = timed(1);
        let spin_two_s = timed(2);
        Self {
            revision: revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            spin_one_s,
            spin_two_s,
        }
    }

    /// Threads' worth of work the machine completes in parallel: 2.0
    /// when two spinning threads take as long as one, 1.0 when they
    /// take twice as long.
    pub fn parallel_capacity(&self) -> f64 {
        2.0 * self.spin_one_s / self.spin_two_s
    }
}

/// A fixed integer workload (an LCG chain the optimizer cannot fold).
fn spin() -> u64 {
    let mut x = black_box(1u64);
    for _ in 0..black_box(400_000_000u64) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    x
}

fn timed(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(spin)).collect();
        for h in handles {
            black_box(h.join().expect("spin thread panicked"));
        }
    });
    start.elapsed().as_secs_f64()
}

/// The commit `HEAD` names, read from the repository metadata in the
/// working directory; `None` outside a git checkout.
fn revision(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
