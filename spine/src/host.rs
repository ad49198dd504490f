//! The host block: what machine produced the numbers, and how fast that
//! machine copies and streams at the `stream` workload's footprint —
//! the references `machine.triad_share` and `serve.bulk_mb_per_s` are
//! shares of.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Elements per array in the bandwidth probes: the `stream` extent.
pub const FOOTPRINT_ELEMS: usize = 4 << 20;

/// Static facts about the host and the build.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub cores: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
    pub rustc: String,
    pub commit: String,
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Size in bytes of cpu0's cache at `level`, from sysfs (`2048K`).
fn cache_bytes(level: u32) -> u64 {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let read = |p: String| std::fs::read_to_string(p).unwrap_or_default();
    (0..8)
        .filter(|i| read(format!("{dir}/index{i}/level")).trim() == level.to_string())
        .filter(|i| read(format!("{dir}/index{i}/type")).trim() != "Instruction")
        .filter_map(|i| {
            let s = read(format!("{dir}/index{i}/size"));
            let s = s.trim();
            let (num, mul) = match s.chars().last()? {
                'K' => (&s[..s.len() - 1], 1 << 10),
                'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            Some(num.parse::<u64>().ok()? * mul)
        })
        .max()
        .unwrap_or(0)
}

impl HostInfo {
    /// Read the host block. Fields the sandbox hides read `unknown`/0.
    pub fn read() -> HostInfo {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_bytes: cache_bytes(2),
            llc_bytes: cache_bytes(3),
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // a benchmark checkout is an export, not a repository
            commit: first_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// `key=value` lines for the report.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("host.cores={}", self.cores),
            format!("host.cpu_model={}", self.cpu_model),
            format!("host.l2_bytes={}", self.l2_bytes),
            format!("host.llc_bytes={}", self.llc_bytes),
            format!(
                "host.array_bytes={} (stream footprint per array)",
                FOOTPRINT_ELEMS * 8
            ),
            format!("host.rustc={}", self.rustc),
            format!("host.commit={}", self.commit),
        ]
    }
}

/// Measured copy and triad bandwidth in GB/s, on one thread and on two.
#[derive(Debug, Clone, Copy)]
pub struct Bandwidth {
    pub memcpy_t1: f64,
    pub memcpy_t2: f64,
    pub triad_t1: f64,
    pub triad_t2: f64,
}

/// Best-of-`reps` seconds of `pass` run on `threads` threads at once,
/// each on its own equal share of the footprint.
fn best_seconds(
    threads: usize,
    reps: usize,
    pass: impl Fn(&mut [f64], &[f64], &[f64]) + Sync,
) -> f64 {
    let n = FOOTPRINT_ELEMS / threads;
    let mut shares: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..threads)
        .map(|_| (vec![0.0; n], vec![1.5; n], vec![2.5; n]))
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (a, b, c) in shares.iter_mut() {
                let pass = &pass;
                s.spawn(move || pass(a, b, c));
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
    }
    black_box(&shares);
    best
}

fn copy_pass(a: &mut [f64], b: &[f64], _c: &[f64]) {
    a.copy_from_slice(black_box(b));
}

fn triad_pass(a: &mut [f64], b: &[f64], c: &[f64]) {
    for ((x, y), z) in a.iter_mut().zip(black_box(b)).zip(c) {
        *x = y + 3.0 * z;
    }
}

impl Bandwidth {
    /// Measure with the usual STREAM byte counts: copy moves 16 bytes
    /// per element, triad 24. The first repetition faults the pages in
    /// and the best of the rest is kept: this is the reference a layer
    /// is compared with, so it is the machine's best, not its median.
    pub fn measure() -> Bandwidth {
        const REPS: usize = 15;
        let gbs = |bytes_per_elem: usize, secs: f64| {
            (FOOTPRINT_ELEMS * bytes_per_elem) as f64 / secs * 1e-9
        };
        Bandwidth {
            memcpy_t1: gbs(16, best_seconds(1, REPS, copy_pass)),
            memcpy_t2: gbs(16, best_seconds(2, REPS, copy_pass)),
            triad_t1: gbs(24, best_seconds(1, REPS, triad_pass)),
            triad_t2: gbs(24, best_seconds(2, REPS, triad_pass)),
        }
    }
}
