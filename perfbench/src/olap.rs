//! `olap-scan`: one query thread runs `Engine::execute` closed-loop on the
//! TPC-DS-like warehouse, with templates drawn Zipf from the seed.
//!
//! Columnar decode, the engine and `read_multi` coalescing do the work. The
//! four worker caches together hold less than the scanned data, so
//! whole-table templates keep evicting; with one query thread every modeled
//! time and count repeats exactly for a given seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgecache_columnar::Value;
use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::manager::RemoteSource;
use edgecache_metrics::{RegistrySnapshot, Tracer};
use edgecache_olap::{Engine, EngineConfig, QueryPlan, RuntimeStats, WorkerConfig};
use edgecache_workload::tpcds::{TpcdsGen, TpcdsScale};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers::{remote_metrics, write_trace, CoreCounters, LatencyRemote, SpanTotals};
use crate::stats::{self, ratio, Group, Metric};
use crate::{Identity, Outcome};

const FACT_ROWS: u64 = 1_000_000;
const WORKERS: usize = 4;
/// Per-worker cache; four of them hold about a third of the 39 MiB scanned.
const WORKER_CACHE: ByteSize = ByteSize::mib(10);
const PAGE: ByteSize = ByteSize::kib(64);
const TEMPLATES: usize = 99;
const TEMPLATE_ZIPF_S: f64 = 1.0;
const FIRST_BYTE: Duration = Duration::from_micros(200);
const BYTES_PER_SEC: f64 = 2e9;

fn scale() -> TpcdsScale {
    TpcdsScale {
        fact_rows: FACT_ROWS,
        ..TpcdsScale::small()
    }
}

/// Query templates in blocks of [`BLOCK`] that each hold every template
/// exactly as often as Zipf(`TEMPLATE_ZIPF_S`) expects (largest-remainder
/// rounding), in a seeded order. Every seed thus runs the same mix, so the
/// run-to-run spread measures the system rather than the luck of the draw.
struct Stratified {
    block: Vec<usize>,
    next: usize,
    rng: StdRng,
}

const BLOCK: usize = 100;

impl Stratified {
    fn new(seed: u64) -> Self {
        let weights: Vec<f64> = (1..=TEMPLATES)
            .map(|k| 1.0 / (k as f64).powf(TEMPLATE_ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * BLOCK as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..TEMPLATES).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = BLOCK - counts.iter().sum::<usize>();
        for &i in &by_remainder[..short] {
            counts[i] += 1;
        }
        let block = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i + 1, n))
            .collect();
        Self {
            block,
            next: BLOCK,
            rng: StdRng::seed_from_u64(seed ^ 0x0a1a_95ca_7000),
        }
    }

    fn at_block_end(&self) -> bool {
        self.next == BLOCK
    }

    fn next(&mut self) -> usize {
        if self.next == BLOCK {
            for i in (1..BLOCK).rev() {
                let j = self.rng.random_range(0..=i);
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// One warehouse, a cached engine behind the latency wrapper, and an
/// uncached reference engine reading the store directly.
struct System {
    gen: TpcdsGen,
    remote: Arc<LatencyRemote>,
    engine: Engine,
    reference: Engine,
    tracer: Tracer,
}

impl System {
    fn build(seed: u64, tracer: Tracer) -> Result<Self, String> {
        let clock = system_clock();
        let gen = TpcdsGen::new(scale(), seed);
        let (catalog, store) = gen.build_fresh(clock.clone()).map_err(|e| e.to_string())?;
        let store: Arc<dyn RemoteSource + Send + Sync> = store;
        let remote = Arc::new(LatencyRemote::new(
            Arc::clone(&store),
            FIRST_BYTE,
            BYTES_PER_SEC,
            tracer.clone(),
        ));
        let engine = Engine::new(
            Arc::clone(&catalog),
            Arc::clone(&remote) as Arc<dyn RemoteSource + Send + Sync>,
            EngineConfig {
                workers: WORKERS,
                worker: WorkerConfig {
                    cache_capacity: WORKER_CACHE.as_u64(),
                    page_size: PAGE,
                    tracer: tracer.clone(),
                    ..WorkerConfig::default()
                },
                ..EngineConfig::default()
            },
            clock.clone(),
        )
        .map_err(|e| e.to_string())?;
        let reference = Engine::new(
            catalog,
            store,
            EngineConfig {
                workers: WORKERS,
                worker: WorkerConfig {
                    enable_cache: false,
                    enable_metadata_cache: false,
                    ..WorkerConfig::default()
                },
                ..EngineConfig::default()
            },
            clock,
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            gen,
            remote,
            engine,
            reference,
            tracer,
        })
    }

    /// Summed counters of every worker cache.
    fn cache_counters(&self) -> Vec<RegistrySnapshot> {
        self.engine
            .worker_names()
            .iter()
            .filter_map(|w| self.engine.worker(w)?.cache_metrics().map(|m| m.snapshot()))
            .collect()
    }

    fn footer_lookups(&self) -> (u64, u64) {
        self.engine
            .worker_names()
            .iter()
            .filter_map(|w| self.engine.worker(w))
            .map(|w| (w.metadata_cache().hits(), w.metadata_cache().misses()))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

/// What one measured window produced.
struct Window {
    elapsed: Duration,
    /// One group per block of queries.
    blocks: Vec<Group>,
    stats: Vec<RuntimeStats>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    identities: Vec<Identity>,
    client_cpu: Duration,
    cpu: (Duration, Duration),
    core: CoreCounters,
    footer: (u64, u64),
    remote_calls: u64,
    remote_bytes: u64,
}

fn measure(sys: &System, seed: u64, window: Duration) -> Window {
    let mut templates = Stratified::new(seed);
    let plans: Vec<QueryPlan> = (1..=TEMPLATES).map(|q| sys.gen.query(q)).collect();
    let mut first_rows: BTreeMap<usize, (Vec<Vec<Value>>, u64)> = BTreeMap::new();
    let mut w = Window {
        elapsed: Duration::ZERO,
        blocks: Vec::new(),
        stats: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        identities: Vec::new(),
        client_cpu: Duration::ZERO,
        cpu: (Duration::ZERO, Duration::ZERO),
        core: CoreCounters::between(&[], &[]),
        footer: (0, 0),
        remote_calls: 0,
        remote_bytes: 0,
    };
    let core_before = sys.cache_counters();
    let footer_before = sys.footer_lookups();
    let calls_before = (sys.remote.calls.count(), sys.remote.calls.bytes());
    let cpu_before = stats::process_cpu();
    let thread_before = stats::thread_cpu();
    let mut splits = Identity::new("splits == splits_skipped + splits_scheduled");
    let start = Instant::now();
    let mut block = Group::default();
    let mut block_start = start;
    // Whole blocks only: every run measures the same template mix.
    while start.elapsed() < window || !templates.at_block_end() {
        let q = templates.next();
        w.attempted += 1;
        let span = sys.tracer.span("bench.query");
        let t = Instant::now();
        let result = sys.engine.execute(&plans[q - 1]);
        block.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(span);
        if templates.at_block_end() {
            block.secs = block_start.elapsed().as_secs_f64();
            w.blocks.push(std::mem::take(&mut block));
            block_start = Instant::now();
        }
        match result {
            Ok(r) => {
                let s = &r.stats;
                splits.check(
                    s.splits as u64,
                    (s.splits_skipped + s.splits_scheduled) as u64,
                    || format!("q{q}: splits vs splits_skipped + splits_scheduled"),
                );
                let (rows, runs) = first_rows.entry(q).or_insert_with(|| (r.rows.clone(), 0));
                *runs += 1;
                if *rows != r.rows {
                    w.failed += 1;
                }
                w.stats.push(r.stats);
            }
            Err(e) => {
                w.failed += 1;
                if w.failed <= 3 {
                    eprintln!("olap-scan: q{q} failed: {e}");
                }
            }
        }
    }
    w.elapsed = start.elapsed();
    w.identities.push(splits);
    w.client_cpu = stats::thread_cpu().saturating_sub(thread_before);
    w.cpu = stats::cpu_between(cpu_before, stats::process_cpu());
    w.remote_calls = sys.remote.calls.count() - calls_before.0;
    w.remote_bytes = sys.remote.calls.bytes() - calls_before.1;
    w.core = CoreCounters::between(&core_before, &sys.cache_counters());
    w.identities
        .extend(w.core.read_path_identities(w.remote_calls));
    let footer_after = sys.footer_lookups();
    w.footer = (
        footer_after.0 - footer_before.0,
        footer_after.1 - footer_before.1,
    );

    // Untimed: each distinct template's rows against the uncached engine;
    // a mismatch fails every run of that template.
    for (q, (rows, runs)) in &first_rows {
        match sys.reference.execute(&plans[q - 1]) {
            Ok(r) if r.rows == *rows => {}
            Ok(_) => {
                w.failed += runs;
                w.problems
                    .push(format!("q{q}: rows differ from the uncached reference"));
            }
            Err(e) => w.problems.push(format!("q{q}: reference failed: {e}")),
        }
    }
    w
}

pub fn run(seed: u64, window: Duration, trace: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let sys = System::build(seed, Tracer::disabled())?;
    let first_setup = t.elapsed();
    let mut out = Outcome::default();
    out.facts.push((
        "store_fs".into(),
        "memory (each worker's MemoryPageStore)".into(),
    ));
    out.facts.push((
        "olap".into(),
        format!(
            "fact_rows={FACT_ROWS} workers={WORKERS} worker_cache={WORKER_CACHE} page={PAGE} \
             templates={TEMPLATES} zipf_s={TEMPLATE_ZIPF_S} first_byte={FIRST_BYTE:?} \
             bandwidth={BYTES_PER_SEC}B/s query_threads=1"
        ),
    ));

    if !trace {
        let mut w = measure(&sys, seed, window);
        out.problems.append(&mut w.problems);
        out.identities.append(&mut w.identities);
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.facts
            .push(("byte_hit_ratio".into(), byte_hit_ratio(&w.core).to_string()));
        out.metrics
            .extend(stats::group_medians(std::mem::take(&mut w.blocks), 1.0));
        out.metrics
            .push(Metric::new("rss_peak_mib", stats::rss_peak_mib(), "MiB"));
        drop(sys);
        out.metrics.push(stats::setup_metric(first_setup, || {
            System::build(seed, Tracer::disabled())
        })?);
        return Ok(out);
    }

    let half = window / 2;
    let mut untraced = measure(&sys, seed, half);
    drop(sys);
    let tracer = Tracer::enabled(system_clock()).with_concurrent_timing(true);
    let sys = System::build(seed, tracer.clone())?;
    let mut w = measure(&sys, seed, half);
    out.problems.append(&mut untraced.problems);
    out.problems.append(&mut w.problems);
    out.identities.append(&mut untraced.identities);
    out.identities.append(&mut w.identities);
    out.attempted = w.attempted + untraced.attempted;
    out.failed = w.failed + untraced.failed;
    let records = tracer.take_records();
    out.facts
        .push(("trace_file".into(), write_trace("olap-scan", &records)));
    out.facts.push(("spans".into(), records.len().to_string()));
    let spans = SpanTotals::of(&records);
    out.metrics.extend(layer_metrics(&w, &spans));
    let ops = |w: &Window| w.attempted as f64 / w.elapsed.as_secs_f64();
    out.metrics.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ops(&w) / ops(&untraced),
        "ratio",
    ));
    Ok(out)
}

fn byte_hit_ratio(c: &CoreCounters) -> f64 {
    let cache = c.counter("bytes_from_cache") as f64;
    ratio(cache, cache + c.counter("bytes_from_remote") as f64)
}

fn layer_metrics(w: &Window, spans: &SpanTotals) -> Vec<Metric> {
    let q = w.stats.len().max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut modeled: Vec<f64> = w.stats.iter().map(|s| ms(s.wall_time)).collect();
    let core_self_us = spans.total_us("cache.read") + spans.total_us("cache.read_multi")
        - spans.total_us("remote_fetch")
        - spans.total_us("singleflight_wait");
    let mut m = remote_metrics(w.remote_calls, w.remote_bytes, spans, q, w.elapsed);
    m.extend(w.core.metrics(q));
    m.extend([
        Metric::new("core.self_us_per_op", core_self_us / q, "us"),
        Metric::new("olap.client_cpu_ms_per_query", ms(w.client_cpu) / q, "ms"),
        Metric::new(
            "olap.rows_scanned_per_query",
            w.stats.iter().map(|s| s.rows_scanned).sum::<u64>() as f64 / q,
            "rows",
        ),
        Metric::new(
            "olap.splits_per_query",
            w.stats.iter().map(|s| s.splits).sum::<usize>() as f64 / q,
            "splits",
        ),
        Metric::new(
            "olap.modeled_io_ms_per_query",
            w.stats.iter().map(|s| ms(s.input_wall)).sum::<f64>() / q,
            "ms",
        ),
        Metric::new(
            "olap.modeled_cpu_ms_per_query",
            w.stats.iter().map(|s| ms(s.cpu_time)).sum::<f64>() / q,
            "ms",
        ),
        Metric::new(
            "columnar.footer_hit_ratio",
            ratio(w.footer.0 as f64, (w.footer.0 + w.footer.1) as f64),
            "ratio",
        ),
    ]);
    if !modeled.is_empty() {
        let n = modeled.len();
        m.push(
            Metric::new(
                "olap.modeled_p50_ms",
                stats::percentile(&mut modeled, 0.5),
                "ms",
            )
            .with_samples(n),
        );
    }
    m.extend(stats::proc_metrics(w.cpu, w.attempted));
    m
}
