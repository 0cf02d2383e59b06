//! Measurement helpers: exact percentiles, process and thread CPU from
//! `/proc`, host facts.

use std::fmt;
use std::path::Path;
use std::time::Duration;

/// One reported metric. `samples` is the count behind a percentile.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} {}", self.name, self.value, self.unit)?;
        if let Some(n) = self.samples {
            write!(f, " (n={n})")?;
        }
        Ok(())
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The `setup_s` metric: the median of `first` (the set-up that was
/// measured) and [`SETUPS`]` - 1` more set-ups by `build`, each dropped
/// once timed. They run after the measured window, so they leave the
/// peak memory of the measured system alone.
pub fn setup_metric<T>(
    first: Duration,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<Metric, String> {
    let mut secs = vec![first.as_secs_f64()];
    for _ in 1..SETUPS {
        let t = std::time::Instant::now();
        let system = build()?;
        secs.push(t.elapsed().as_secs_f64());
        drop(system);
    }
    Ok(Metric::new("setup_s", percentile(&mut secs, 0.5), "s").with_samples(SETUPS))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One timed operation: when it ended, in seconds into the measured
/// window, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_s: f64,
    pub us: f64,
}

/// Equal time slices a window is cut into for [`sliced_metrics`].
pub const SLICES: usize = 10;

/// A group of timed operations: how long the group took, and each
/// operation's latency in µs.
#[derive(Debug, Default)]
pub struct Group {
    pub secs: f64,
    pub latencies_us: Vec<f64>,
}

/// Throughput and latency per group (a time slice, or a block of queries);
/// each metric is the median over the groups, so a short stall of the host
/// moves one group rather than the result.
pub fn group_medians(mut groups: Vec<Group>, ops_per_sample: f64) -> Vec<Metric> {
    groups.retain(|g| !g.latencies_us.is_empty());
    assert!(!groups.is_empty(), "no operation completed");
    let n = groups.iter().map(|g| g.latencies_us.len()).sum();
    let mut rates: Vec<f64> = groups
        .iter()
        .map(|g| g.latencies_us.len() as f64 * ops_per_sample / g.secs)
        .collect();
    let mut median_of = |q: f64| {
        let mut per_group: Vec<f64> = groups
            .iter_mut()
            .map(|g| percentile(&mut g.latencies_us, q))
            .collect();
        percentile(&mut per_group, 0.5)
    };
    vec![
        Metric::new("ops_per_s", percentile(&mut rates, 0.5), "op/s").with_samples(n),
        Metric::new("p50_us", median_of(0.50), "us").with_samples(n),
        Metric::new("p90_us", median_of(0.90), "us").with_samples(n),
        Metric::new("p99_us", median_of(0.99), "us").with_samples(n),
    ]
}

/// [`group_medians`] over a window cut into [`SLICES`] equal time slices.
pub fn sliced_metrics(samples: &[Sample], ops_per_sample: f64, window_s: f64) -> Vec<Metric> {
    let secs = window_s / SLICES as f64;
    let mut slices: Vec<Group> = (0..SLICES)
        .map(|_| Group {
            secs,
            latencies_us: Vec::new(),
        })
        .collect();
    for s in samples {
        let i = (s.end_s / window_s * SLICES as f64) as usize;
        slices[i.min(SLICES - 1)].latencies_us.push(s.us);
    }
    group_medians(slices, ops_per_sample)
}

/// Process CPU time so far, `(user, system)`, from `/proc/self/stat`.
pub fn process_cpu() -> (Duration, Duration) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (USER_HZ = 100 on Linux).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let tick = Duration::from_millis(10);
    (tick * ticks(11) as u32, tick * ticks(12) as u32)
}

/// CPU time of the calling thread so far, from `/proc/thread-self/schedstat`.
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map(Duration::from_nanos)
        .unwrap_or_default()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(user, system)` CPU spent between two [`process_cpu`] readings.
pub fn cpu_between(
    before: (Duration, Duration),
    after: (Duration, Duration),
) -> (Duration, Duration) {
    (
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
    )
}

/// Host CPU ticks so far, `(steal, total)`, from `/proc/stat`: time the
/// hypervisor ran something else on this machine's CPUs.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Online CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Running kernel release.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process-level per-layer metrics of a measured window.
pub fn proc_metrics(cpu: (Duration, Duration), ops: u64) -> Vec<Metric> {
    let total = (cpu.0 + cpu.1).as_secs_f64();
    vec![
        Metric::new("proc.cpu_us_per_op", ratio(total * 1e6, ops as f64), "us"),
        Metric::new("proc.sys_frac", ratio(cpu.1.as_secs_f64(), total), "ratio"),
    ]
}
