//! The benchmark's instruments at layer boundaries: a latency wrapper for
//! the remote (data lake), which counts every call, and a decorator for the
//! page store, which counts calls only when traced. With an enabled tracer
//! both also record spans of their calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use edgecache_common::error::Result;
use edgecache_core::manager::RemoteSource;
use edgecache_metrics::trace::SpanRecord;
use edgecache_metrics::{RegistrySnapshot, SnapshotDiff, Span, Tracer};
use edgecache_pagestore::{PageId, PageStore};

use crate::stats::{ratio, Metric};
use crate::Identity;

/// Call counters, `Relaxed`: statistics only, read after the threads that
/// update them have been joined or quiesced.
#[derive(Debug, Default)]
pub struct Calls {
    count: AtomicU64,
    bytes: AtomicU64,
}

impl Calls {
    fn add(&self, bytes: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A remote that costs a fixed first-byte latency plus transfer time at a
/// fixed bandwidth, spent sleeping, so the remote itself uses no CPU.
pub struct LatencyRemote {
    inner: Arc<dyn RemoteSource + Send + Sync>,
    first_byte: Duration,
    bytes_per_sec: f64,
    tracer: Tracer,
    pub calls: Calls,
    /// Self-test hook: one byte of the lake, `(path, offset)`, that every
    /// response covering it returns flipped.
    corrupt: OnceLock<(String, u64)>,
}

impl LatencyRemote {
    pub fn new(
        inner: Arc<dyn RemoteSource + Send + Sync>,
        first_byte: Duration,
        bytes_per_sec: f64,
        tracer: Tracer,
    ) -> Self {
        Self {
            inner,
            first_byte,
            bytes_per_sec,
            tracer,
            calls: Calls::default(),
            corrupt: OnceLock::new(),
        }
    }

    /// Self-test fault: from now on the byte at `offset` of `path` reads
    /// back flipped.
    pub fn corrupt_byte(&self, path: &str, offset: u64) {
        self.corrupt
            .set((path.to_string(), offset))
            .expect("one corrupted byte per run");
    }
}

impl RemoteSource for LatencyRemote {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let _span = self.tracer.span("remote.read");
        let body = self.inner.read(path, offset, len)?;
        let transfer = Duration::from_secs_f64(body.len() as f64 / self.bytes_per_sec);
        std::thread::sleep(self.first_byte + transfer);
        self.calls.add(body.len() as u64);
        match self.corrupt.get() {
            Some((p, at)) if p == path && (offset..offset + body.len() as u64).contains(at) => {
                let mut bad = body.to_vec();
                bad[(at - offset) as usize] ^= 0x5a;
                Ok(Bytes::from(bad))
            }
            _ => Ok(body),
        }
    }
}

/// Page-store decorator passed to `CacheManagerBuilder::with_store`. It
/// does nothing untraced, so untraced runs measure the store alone.
pub struct CountingStore<S> {
    inner: S,
    tracer: Tracer,
    /// Records a span for one call in `span_every` (the mean of the
    /// sample stands for all calls).
    span_every: u64,
    calls: AtomicU64,
    gets: Calls,
    puts: Calls,
    deletes: Calls,
}

impl<S: PageStore> CountingStore<S> {
    pub fn new(inner: S, tracer: Tracer, span_every: u64) -> Self {
        Self {
            inner,
            tracer,
            span_every,
            calls: AtomicU64::new(0),
            gets: Calls::default(),
            puts: Calls::default(),
            deletes: Calls::default(),
        }
    }

    /// Starts the span of one call in `span_every`; none untraced.
    fn span(&self, name: &'static str) -> Option<Span> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.span_every)
            .then(|| self.tracer.span(name))
    }

    /// Counts one call of `bytes` in `calls`; nothing untraced.
    fn count(&self, calls: &Calls, bytes: u64) {
        if self.tracer.is_enabled() {
            calls.add(bytes);
        }
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            gets: self.gets.count(),
            get_bytes: self.gets.bytes(),
            puts: self.puts.count(),
            deletes: self.deletes.count(),
        }
    }
}

/// Page-store calls counted by [`CountingStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    pub gets: u64,
    pub get_bytes: u64,
    pub puts: u64,
    pub deletes: u64,
}

impl StoreCounts {
    /// The calls made since `before`.
    pub fn since(&self, before: &StoreCounts) -> StoreCounts {
        StoreCounts {
            gets: self.gets - before.gets,
            get_bytes: self.get_bytes - before.get_bytes,
            puts: self.puts - before.puts,
            deletes: self.deletes - before.deletes,
        }
    }

    /// The page-store metrics of a window of `ops` operations.
    pub fn metrics(&self, spans: &SpanTotals, ops: f64) -> Vec<Metric> {
        vec![
            Metric::new("store.get_per_op", self.gets as f64 / ops, "calls/op"),
            Metric::new("store.get_us_mean", spans.mean_us("store.get"), "us"),
            Metric::new(
                "store.get_bytes_per_op",
                self.get_bytes as f64 / ops,
                "B/op",
            ),
            Metric::new("store.put_per_op", self.puts as f64 / ops, "calls/op"),
            Metric::new("store.put_us_mean", spans.mean_us("store.put"), "us"),
            Metric::new("store.delete_per_op", self.deletes as f64 / ops, "calls/op"),
        ]
    }
}

/// Counter deltas of one window, summed over one or more registries (the
/// worker caches of an engine).
pub struct CoreCounters(Vec<SnapshotDiff>);

impl CoreCounters {
    pub fn between(before: &[RegistrySnapshot], after: &[RegistrySnapshot]) -> Self {
        assert_eq!(before.len(), after.len(), "one snapshot per registry");
        Self(
            before
                .iter()
                .zip(after)
                .map(|(b, a)| SnapshotDiff::between(b, a))
                .collect(),
        )
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.iter().map(|d| d.counter(name)).sum()
    }

    /// The core metrics of a window of `ops` operations.
    pub fn metrics(&self, ops: f64) -> Vec<Metric> {
        let hits = self.counter("hits") as f64;
        let from_cache = self.counter("bytes_from_cache") as f64;
        let evictions: u64 = self
            .0
            .iter()
            .map(|d| d.counter_prefix_sum("evictions."))
            .sum();
        vec![
            Metric::new(
                "core.page_hit_ratio",
                ratio(hits, hits + self.counter("misses") as f64),
                "ratio",
            ),
            Metric::new(
                "core.byte_hit_ratio",
                ratio(
                    from_cache,
                    from_cache + self.counter("bytes_from_remote") as f64,
                ),
                "ratio",
            ),
            Metric::new("core.evictions_per_op", evictions as f64 / ops, "pages/op"),
            Metric::new(
                "core.coalesced_pages_per_request",
                ratio(
                    self.counter("fetch.coalesced_pages") as f64,
                    self.counter("remote_requests") as f64,
                ),
                "pages/req",
            ),
            Metric::new(
                "core.inflight_waits_per_op",
                self.counter("fetch.inflight_waits") as f64 / ops,
                "waits/op",
            ),
            Metric::new(
                "core.bytes_copied_per_op",
                self.counter("bytes_copied") as f64 / ops,
                "B/op",
            ),
            Metric::new(
                "core.slow_path_hits",
                self.counter("hits.slow_path") as f64,
                "count",
            ),
        ]
    }

    /// The counter identities of the read path, checked over this window
    /// against the remote wrapper's `remote_calls`.
    pub fn read_path_identities(&self, remote_calls: u64) -> Vec<Identity> {
        let mut remote = Identity::new("remote calls == core remote_requests");
        remote.check(remote_calls, self.counter("remote_requests"), || {
            "window".into()
        });
        let mut reads = Identity::new("page_reads == hits + misses + fallbacks.timeout");
        reads.check(
            self.counter("page_reads"),
            self.counter("hits") + self.counter("misses") + self.counter("fallbacks.timeout"),
            || "window".into(),
        );
        vec![remote, reads]
    }
}

/// The remote metrics of a window of `ops` operations lasting `elapsed`.
pub fn remote_metrics(
    calls: u64,
    bytes: u64,
    spans: &SpanTotals,
    ops: f64,
    elapsed: Duration,
) -> Vec<Metric> {
    let wait_us = spans.total_us("remote.read");
    vec![
        Metric::new("remote.requests_per_op", calls as f64 / ops, "req/op"),
        Metric::new("remote.bytes_per_op", bytes as f64 / ops, "B/op"),
        Metric::new("remote.wait_ms_per_op", wait_us / 1e3 / ops, "ms"),
        Metric::new(
            "remote.inflight_mean",
            wait_us / 1e6 / elapsed.as_secs_f64(),
            "calls",
        ),
    ]
}

impl<S: PageStore> PageStore for CountingStore<S> {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        let _span = self.span("store.put");
        self.count(&self.puts, data.len() as u64);
        self.inner.put(id, data)
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let _span = self.span("store.get");
        let out = self.inner.get(id, offset, len)?;
        self.count(&self.gets, out.len() as u64);
        Ok(out)
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let _span = self.span("store.delete");
        self.count(&self.deletes, 0);
        self.inner.delete(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }

    fn bytes_used(&self) -> u64 {
        self.inner.bytes_used()
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        self.inner.recover()
    }
}

/// Count and total duration of the recorded spans, by name.
#[derive(Debug, Default)]
pub struct SpanTotals(BTreeMap<&'static str, (u64, Duration)>);

impl SpanTotals {
    pub fn of(records: &[SpanRecord]) -> Self {
        let mut totals = BTreeMap::new();
        for r in records {
            let e: &mut (u64, Duration) = totals.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.duration();
        }
        Self(totals)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |e| e.0)
    }

    /// Total time in spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1.as_secs_f64() * 1e6)
    }

    /// Mean duration of spans named `name`, in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::stats::ratio(self.total_us(name), self.count(name) as f64)
    }
}

/// Writes the recorded spans as Chrome trace-event JSON under the build
/// directory, so a run's spans can be inspected after it ends.
pub fn write_trace(workload: &str, records: &[SpanRecord]) -> String {
    let dir = std::path::Path::new(".bench_build").join("perfbench");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, edgecache_metrics::trace::chrome_trace_json(records)));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written ({e})"),
    }
}
