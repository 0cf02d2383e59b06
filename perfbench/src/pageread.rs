//! `page-read`: the paper's deployment shape. Two reader threads call
//! `CacheManager::read` closed-loop on a `LocalPageStore` with 1 MiB pages,
//! reading fragments (55 % under 10 KB, capped at 4 MiB) of Zipf-popular
//! files. The cache holds a quarter of the data, so hits, misses and
//! evictions all happen all the time. The remote sleeps for a fixed
//! first-byte latency plus transfer time and serves zero-copy slices of a
//! seeded pattern, so it costs no CPU and every byte read can be checked.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use edgecache_common::clock::system_clock;
use edgecache_common::error::{Error, Result as EcResult};
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_metrics::Tracer;
use edgecache_pagestore::{CacheScope, LocalPageStore, LocalStoreConfig, PageStore};
use edgecache_workload::{FragmentedReadSampler, ZipfSampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers::{
    remote_metrics, write_trace, CoreCounters, CountingStore, LatencyRemote, SpanTotals,
    StoreCounts,
};
use crate::stats::{self, ratio, Metric, Sample};
use crate::Outcome;

const FILES: usize = 64;
const FILE_LEN: u64 = 16 << 20;
const PAGE: ByteSize = ByteSize::mib(1);
/// A quarter of the data set.
const CAPACITY: u64 = FILES as u64 * FILE_LEN / 4;
const ZIPF_S: f64 = 1.2;
const READERS: usize = 2;
const MAX_READ: u64 = 4 << 20;
const FIRST_BYTE: Duration = Duration::from_micros(200);
const BYTES_PER_SEC: f64 = 2e9;
/// Pattern period: odd, so no two pages of a file hold the same bytes.
const PATTERN_LEN: usize = (8 << 20) + 7;
/// Reads per reader after the cache first fills, before timing starts.
const WARM_EXTRA_READS: u64 = 500;

/// The data lake: file `f` holds the pattern from offset `bases[f]` on.
struct PatternSource {
    /// One period plus a file length, so any read is one contiguous slice.
    bytes: Bytes,
    bases: Vec<usize>,
}

impl PatternSource {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a_1a4e);
        let mut bytes = vec![0u8; PATTERN_LEN + FILE_LEN as usize];
        for chunk in bytes[..PATTERN_LEN].chunks_mut(8) {
            let word: u64 = rng.random();
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        bytes.copy_within(..FILE_LEN as usize, PATTERN_LEN);
        let bases = (0..FILES)
            .map(|_| rng.random_range(0..PATTERN_LEN))
            .collect();
        Self {
            bytes: Bytes::from(bytes),
            bases,
        }
    }

    fn path(f: usize) -> String {
        format!("/lake/events/part-{f:04}")
    }

    /// The bytes `len` at `offset` of file `f` must hold (clamped at EOF).
    fn expected(&self, f: usize, offset: u64, len: u64) -> Bytes {
        let end = offset.saturating_add(len).min(FILE_LEN);
        let start = offset.min(end);
        let base = self.bases[f];
        self.bytes.slice(base + start as usize..base + end as usize)
    }
}

impl RemoteSource for PatternSource {
    fn read(&self, path: &str, offset: u64, len: u64) -> EcResult<Bytes> {
        let f = path
            .strip_prefix("/lake/events/part-")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&f| f < FILES)
            .ok_or_else(|| Error::NotFound(path.to_string()))?;
        Ok(self.expected(f, offset, len))
    }
}

/// A Zipf-popular file, a fragment size, and a uniform offset per read.
struct ReadGen {
    files: ZipfSampler,
    sizes: FragmentedReadSampler,
    rng: StdRng,
}

impl ReadGen {
    fn new(seed: u64) -> Self {
        Self {
            files: ZipfSampler::new(FILES, ZIPF_S, seed),
            sizes: FragmentedReadSampler::new(0.55, 0.37, MAX_READ, seed ^ 0x51e5),
            rng: StdRng::seed_from_u64(seed ^ 0x0ff5e7),
        }
    }

    /// The measured op stream of reader `r`.
    fn for_reader(seed: u64, r: usize) -> Self {
        Self::new(seed.wrapping_mul(0x9e37_79b9) ^ r as u64)
    }

    fn next(&mut self) -> (usize, u64, u64) {
        let f = self.files.sample();
        let len = self.sizes.sample().min(FILE_LEN);
        let offset = self.rng.random_range(0..=FILE_LEN - len);
        (f, offset, len)
    }
}

/// A cache over a fresh store directory, warmed until full.
struct System {
    dir: PathBuf,
    store: Arc<CountingStore<LocalPageStore>>,
    cache: CacheManager,
    remote: Arc<LatencyRemote>,
    files: Vec<SourceFile>,
}

impl System {
    fn build(
        seed: u64,
        pattern: &Arc<PatternSource>,
        tracer: Tracer,
        n: usize,
    ) -> Result<Self, String> {
        let dir = std::path::Path::new(".bench_build")
            .join("perfbench")
            .join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let local = LocalPageStore::open(
            &dir,
            LocalStoreConfig {
                page_size: PAGE.as_u64(),
                ..LocalStoreConfig::default()
            },
        )
        .map_err(|e| format!("open {}: {e}", dir.display()))?
        .with_tracer(tracer.clone());
        let store = Arc::new(CountingStore::new(local, tracer.clone(), 1));
        let cache = CacheManager::builder(CacheConfig::default().with_page_size(PAGE))
            .with_store(Arc::clone(&store) as Arc<dyn PageStore>, CAPACITY)
            .with_clock(system_clock())
            .with_tracer(tracer.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let remote = Arc::new(LatencyRemote::new(
            Arc::clone(pattern) as Arc<dyn RemoteSource + Send + Sync>,
            FIRST_BYTE,
            BYTES_PER_SEC,
            tracer,
        ));
        let files = (0..FILES)
            .map(|f| {
                let scope = CacheScope::partition("lake", "events", &format!("day={}", f % 16));
                SourceFile::new(PatternSource::path(f), 1, FILE_LEN, scope)
            })
            .collect();
        let sys = Self {
            dir,
            store,
            cache,
            remote,
            files,
        };
        sys.warm(seed, pattern)?;
        Ok(sys)
    }

    /// Reads on [`READERS`] threads until the cache is full, then
    /// [`WARM_EXTRA_READS`] more per reader.
    fn warm(&self, seed: u64, pattern: &PatternSource) -> Result<(), String> {
        let full = (CAPACITY as f64 * 0.95) as u64;
        let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..READERS)
                .map(|r| {
                    let mut gen = ReadGen::new(seed ^ 0x3a7e_0000 ^ r as u64);
                    scope.spawn(move || {
                        let mut extra = 0;
                        while extra < WARM_EXTRA_READS {
                            let (f, offset, len) = gen.next();
                            let got = self
                                .cache
                                .read(&self.files[f], offset, len, self.remote.as_ref())
                                .map_err(|e| format!("warm-up read: {e}"))?;
                            if got != pattern.expected(f, offset, len) {
                                return Err("warm-up read returned wrong bytes".into());
                            }
                            if self.cache.stats().bytes >= full {
                                extra += 1;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }
}

impl Drop for System {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one measured window produced.
struct Window {
    elapsed: Duration,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    cpu: (Duration, Duration),
    core: CoreCounters,
    remote: (u64, u64),
    store: StoreCounts,
}

fn measure(
    sys: &System,
    seed: u64,
    pattern: &PatternSource,
    window: Duration,
    tracer: &Tracer,
) -> Window {
    let core_before = sys.cache.metrics().snapshot();
    let remote_before = (sys.remote.calls.count(), sys.remote.calls.bytes());
    let store_before = sys.store.counts();
    let cpu_before = stats::process_cpu();
    let start = Instant::now();
    let per_reader: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let mut gen = ReadGen::for_reader(seed, r);
                scope.spawn(move || {
                    let (mut lat, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                    while start.elapsed() < window {
                        let (f, offset, len) = gen.next();
                        attempted += 1;
                        let span = tracer.span("bench.read");
                        let t = Instant::now();
                        let got = sys
                            .cache
                            .read(&sys.files[f], offset, len, sys.remote.as_ref());
                        lat.push(Sample {
                            end_s: start.elapsed().as_secs_f64(),
                            us: t.elapsed().as_secs_f64() * 1e6,
                        });
                        drop(span);
                        match got {
                            Ok(bytes) if bytes == pattern.expected(f, offset, len) => {}
                            Ok(_) => failed += 1,
                            Err(e) => {
                                failed += 1;
                                eprintln!("page-read: read failed: {e}");
                            }
                        }
                    }
                    (lat, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu = stats::cpu_between(cpu_before, stats::process_cpu());
    let mut w = Window {
        elapsed,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        cpu,
        core: CoreCounters::between(&[core_before], &[sys.cache.metrics().snapshot()]),
        remote: (
            sys.remote.calls.count() - remote_before.0,
            sys.remote.calls.bytes() - remote_before.1,
        ),
        store: sys.store.counts().since(&store_before),
    };
    for (lat, attempted, failed) in per_reader {
        w.samples.extend(lat);
        w.attempted += attempted;
        w.failed += failed;
    }
    w
}

/// Adds a window's operations and identities to the outcome.
fn account(w: &Window, out: &mut Outcome) {
    out.identities
        .extend(w.core.read_path_identities(w.remote.0));
    out.attempted += w.attempted;
    out.failed += w.failed;
}

pub fn run(seed: u64, window: Duration, trace: bool, corrupt: bool) -> Result<Outcome, String> {
    let pattern = Arc::new(PatternSource::new(seed));
    let t = Instant::now();
    let sys = System::build(seed, &pattern, Tracer::disabled(), 0)?;
    let first_setup = t.elapsed();
    let mut out = Outcome::default();
    out.facts
        .push(("store_fs".into(), stats::filesystem_of(&sys.dir)));
    out.facts.push((
        "page_read".into(),
        format!(
            "files={FILES} file_len={} page={PAGE} capacity={} zipf_s={ZIPF_S} readers={READERS} \
             max_read={} first_byte={FIRST_BYTE:?} bandwidth={BYTES_PER_SEC}B/s loop=closed",
            ByteSize::new(FILE_LEN),
            ByteSize::new(CAPACITY),
            ByteSize::new(MAX_READ)
        ),
    ));
    if corrupt {
        // Corrupt the first byte reader 0 will ask for, and drop its file
        // from the cache so that byte comes from the lake.
        let (f, offset, _) = ReadGen::for_reader(seed, 0).next();
        sys.cache.delete_file(sys.files[f].file_id());
        sys.remote.corrupt_byte(&sys.files[f].path, offset);
    }

    let run_window = if trace { window / 2 } else { window };
    let w = measure(&sys, seed, &pattern, run_window, &Tracer::disabled());
    account(&w, &mut out);
    drop(sys);
    if !trace {
        out.facts
            .push(("page_hit_ratio".into(), page_hit_ratio(&w.core).to_string()));
        out.metrics.extend(stats::sliced_metrics(
            &w.samples,
            1.0,
            w.elapsed.as_secs_f64(),
        ));
        out.metrics
            .push(Metric::new("rss_peak_mib", stats::rss_peak_mib(), "MiB"));
        let mut n = 0;
        out.metrics.push(stats::setup_metric(first_setup, || {
            n += 1;
            System::build(seed, &pattern, Tracer::disabled(), n)
        })?);
        return Ok(out);
    }

    let untraced = w;
    let tracer = Tracer::enabled(system_clock()).with_concurrent_timing(true);
    let sys = System::build(seed, &pattern, tracer.clone(), 1)?;
    tracer.take_records(); // keep only the measured window's spans
    let traced = measure(&sys, seed, &pattern, run_window, &tracer);
    account(&traced, &mut out);
    drop(sys);
    let records = tracer.take_records();
    out.facts
        .push(("trace_file".into(), write_trace("page-read", &records)));
    out.facts.push(("spans".into(), records.len().to_string()));
    out.facts
        .push(("fnv1a64_ms_per_mib".into(), fnv_ms_per_mib().to_string()));
    let spans = SpanTotals::of(&records);
    out.metrics.extend(layer_metrics(&traced, &spans));
    let ops = |w: &Window| w.attempted as f64 / w.elapsed.as_secs_f64();
    out.metrics.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ops(&traced) / ops(&untraced),
        "ratio",
    ));
    Ok(out)
}

fn page_hit_ratio(c: &CoreCounters) -> f64 {
    let hits = c.counter("hits") as f64;
    ratio(hits, hits + c.counter("misses") as f64)
}

/// Time of the page store's checksum over 1 MiB, the median of 16.
fn fnv_ms_per_mib() -> f64 {
    let page = vec![0x5au8; 1 << 20];
    let mut ms: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(edgecache_common::hash::fnv1a64(std::hint::black_box(&page)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::percentile(&mut ms, 0.5)
}

fn layer_metrics(w: &Window, spans: &SpanTotals) -> Vec<Metric> {
    let ops = w.attempted.max(1) as f64;
    let store_us =
        spans.total_us("store.get") + spans.total_us("store.put") + spans.total_us("store.delete");
    let core_self_us = spans.total_us("cache.read")
        - spans.total_us("remote_fetch")
        - spans.total_us("singleflight_wait")
        - store_us;
    let mut m = remote_metrics(w.remote.0, w.remote.1, spans, ops, w.elapsed);
    m.extend(w.store.metrics(spans, ops));
    m.extend(w.core.metrics(ops));
    m.push(Metric::new("core.self_us_per_op", core_self_us / ops, "us"));
    m.extend(stats::proc_metrics(w.cpu, w.attempted));
    m
}
