//! End-to-end benchmark for edgecache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv|page-read|olap-scan> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! Each run drives one workload from outside through the public APIs,
//! checks every result, and prints host facts, one line per metric, and as
//! its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, taken from a traced window that follows an
//! untraced one of equal length. `perfbench/README.md` lists every metric.

mod kv;
mod layers;
mod olap;
mod pageread;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use stats::Metric;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "op/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics: every workload reports each of them; one that a
/// workload does not measure (its layer is off the path) reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("remote.requests_per_op", "req/op"),
    ("remote.bytes_per_op", "B/op"),
    ("remote.wait_ms_per_op", "ms"),
    ("remote.inflight_mean", "calls"),
    ("store.get_per_op", "calls/op"),
    ("store.get_us_mean", "us"),
    ("store.get_bytes_per_op", "B/op"),
    ("store.put_per_op", "calls/op"),
    ("store.put_us_mean", "us"),
    ("store.delete_per_op", "calls/op"),
    ("core.page_hit_ratio", "ratio"),
    ("core.byte_hit_ratio", "ratio"),
    ("core.evictions_per_op", "pages/op"),
    ("core.coalesced_pages_per_request", "pages/req"),
    ("core.inflight_waits_per_op", "waits/op"),
    ("core.bytes_copied_per_op", "B/op"),
    ("core.slow_path_hits", "count"),
    ("core.self_us_per_op", "us"),
    ("object.us_per_req", "us"),
    ("protocol.us_per_req", "us"),
    ("client.codec_us_per_req", "us"),
    ("socket.us_per_req", "us"),
    ("client.read_calls_per_batch", "calls"),
    ("server.get_hit_ratio", "ratio"),
    ("olap.client_cpu_ms_per_query", "ms"),
    ("olap.rows_scanned_per_query", "rows"),
    ("olap.splits_per_query", "splits"),
    ("olap.modeled_p50_ms", "ms"),
    ("olap.modeled_io_ms_per_query", "ms"),
    ("olap.modeled_cpu_ms_per_query", "ms"),
    ("columnar.footer_hit_ratio", "ratio"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.sys_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures that make the run incorrect (reference errors).
    pub problems: Vec<String>,
    /// Counter identities checked exactly over the measured window.
    pub identities: Vec<Identity>,
    /// Run facts printed before the result (filesystem, cache sizes, ...).
    pub facts: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

/// One counter identity and how often it held.
#[derive(Debug)]
pub struct Identity {
    pub law: &'static str,
    pub checks: u64,
    pub violations: u64,
    /// The first violation, with both sides' values.
    pub example: Option<String>,
}

impl Identity {
    pub fn new(law: &'static str) -> Self {
        Self {
            law,
            checks: 0,
            violations: 0,
            example: None,
        }
    }

    /// Records one check of `lhs == rhs`.
    pub fn check(&mut self, lhs: u64, rhs: u64, context: impl FnOnce() -> String) {
        self.checks += 1;
        if lhs != rhs {
            self.violations += 1;
            if self.example.is_none() {
                self.example = Some(format!("{} ({lhs} != {rhs})", context()));
            }
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(args.seconds);
    match args.workload.as_str() {
        "kv" => kv::run(args.seed, window, args.trace, kv::Fault::None),
        "page-read" => pageread::run(args.seed, window, args.trace, false),
        "olap-scan" => olap::run(args.seed, window, args.trace),
        other => Err(format!(
            "unknown workload {other} (expected kv, page-read or olap-scan)"
        )),
    }
}

/// Injects one wrong kv value and one corrupted remote byte, and checks
/// that the benchmark flags both.
fn selftest() -> ExitCode {
    let window = Duration::from_millis(500);
    let mut ok = true;
    for (name, outcome) in [
        ("kv", kv::run(7, window, false, kv::Fault::WrongValue)),
        ("page-read", pageread::run(7, window, false, true)),
    ] {
        match outcome {
            Ok(o) if o.failed > 0 => {
                println!(
                    "selftest {name}: flagged {} of {} ops",
                    o.failed, o.attempted
                )
            }
            Ok(o) => {
                println!(
                    "selftest {name}: injected fault NOT flagged ({} ops)",
                    o.attempted
                );
                ok = false;
            }
            Err(e) => {
                println!("selftest {name}: run failed: {e}");
                ok = false;
            }
        }
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return selftest(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = stats::host_steal_ticks();
    let outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    let mut off_path = Vec::new();
    for &(name, unit) in wanted {
        let found: Vec<&Metric> = outcome.metrics.iter().filter(|m| m.name == name).collect();
        match found.as_slice() {
            [m] if m.unit == unit && m.value.is_finite() => metrics.push((*m).clone()),
            // Not measured on this workload (its layer is off the path).
            [] if args.trace => {
                metrics.push(Metric::new(name, 0.0, unit));
                off_path.push(name);
            }
            _ => {
                eprintln!("perfbench: metric {name} [{unit}] missing, repeated or not finite");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "host: nproc={} kernel={} rustc=\"{}\" trace={}",
        stats::nproc(),
        stats::kernel(),
        env!("PERFBENCH_RUSTC"),
        u8::from(args.trace)
    );
    println!(
        "run: workload={} seed={} seconds={}",
        args.workload, args.seed, args.seconds
    );
    let steal_after = stats::host_steal_ticks();
    println!(
        "fact: host_steal_frac={} (CPU time the hypervisor gave away during the run)",
        stats::ratio(
            (steal_after.0 - steal_before.0) as f64,
            (steal_after.1 - steal_before.1) as f64
        )
    );
    for (k, v) in &outcome.facts {
        println!("fact: {k}={v}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "metric failed_frac = {failed_frac} ratio ({} of {} ops)",
        outcome.failed, outcome.attempted
    );
    for m in &metrics {
        if off_path.contains(&m.name) {
            println!("metric {m} (not measured on this workload)");
        } else {
            println!("metric {m}");
        }
    }
    for id in &outcome.identities {
        match &id.example {
            None => println!("identity {}: holds ({} checks)", id.law, id.checks),
            Some(e) => println!(
                "identity {}: VIOLATED in {} of {} checks, first: {e}",
                id.law, id.violations, id.checks
            ),
        }
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
