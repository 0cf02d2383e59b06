//! The cache manager (§4.1, Figure 3): read-through page caching with
//! admission control, quota enforcement, eviction, and failure handling.
//!
//! The manager ties the components together. A file-level read is split into
//! page-level operations; each page is served from the local page store on a
//! hit, or fetched read-through from the [`RemoteSource`] on a miss (subject
//! to the admission policy). Misses run through a classify → fetch → publish
//! pipeline: runs of adjacent missing pages coalesce into single ranged
//! remote reads issued concurrently, and a per-page single-flight latch
//! guarantees N concurrent readers of one cold page cost one remote request.
//! Failure handling follows §8:
//!
//! * **Read hang** — local reads optionally run on an I/O pool with a
//!   deadline (10 s in production); on timeout the manager falls back to the
//!   remote source without failing the request.
//! * **Corruption** — a checksum failure evicts the page early and refetches.
//! * **`No space left on device`** — a `NoSpace` from the store triggers
//!   early eviction (before the configured capacity is reached) and a retry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, SendError, Sender};
use edgecache_common::clock::{system_clock, SharedClock};
use edgecache_common::error::{Error, Result};
use edgecache_common::ByteSize;
use edgecache_metrics::trace::{Span, SpanId, Tracer};
use edgecache_metrics::{Counter, Histogram, MetricRegistry};
use edgecache_pagestore::{CacheScope, FileId, MemTierStore, PageId, PageInfo, PageStore};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::accessq::AccessQueue;
use crate::admission::{AdmissionPolicy, AdmitAll};
use crate::allocator::Allocator;
use crate::config::CacheConfig;
use crate::eviction::{build_policy, EvictionPolicy};
use crate::index::IndexManager;
use crate::ledger::{ScopeEvent, ScopeEventSink};
use crate::quota::{QuotaManager, QuotaViolation};

/// Number of page-lock stripes (power of two).
const LOCK_STRIPES: usize = 1024;

/// Number of single-flight table shards (power of two): misses on different
/// pages land on different shards and never contend on one global mutex.
const INFLIGHT_SHARDS: usize = 64;

/// How many times serving one hit follows its page to a new directory
/// after concurrent tier moves, before leaving it to the repair round.
const TIER_MOVE_FOLLOWS: usize = 4;

/// Capacity of each directory's access-event ring. Sized so batches between
/// two policy-lock acquisitions (one per put/evict) rarely overflow; a full
/// ring drops events (counted by `policy.events_dropped`) rather than stall
/// the hit path.
const ACCESS_EVENT_BUFFER: usize = 4096;

/// The remote data source the cache reads through on a miss.
///
/// Implementations in this workspace: the simulated HDFS client and the
/// S3-like object store (`edgecache-storage`).
pub trait RemoteSource: Sync {
    /// Reads `len` bytes at `offset` of `path`. Short reads at end-of-file
    /// return the available prefix.
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes>;

    /// Reads several `(offset, len)` ranges of `path` in one call, returning
    /// one buffer per range (short at end-of-file, like [`Self::read`]).
    ///
    /// The cache passes one range per *coalesced run* of adjacent missing
    /// pages, so each range should be served as a single remote request.
    /// Implementations able to batch further (vectored I/O, HTTP
    /// multi-range, pipelined RPCs) can override the default, which issues
    /// one [`Self::read`] per range.
    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        ranges
            .iter()
            .map(|&(offset, len)| self.read(path, offset, len))
            .collect()
    }
}

impl<T: RemoteSource + ?Sized> RemoteSource for &T {
    fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        (**self).read(path, offset, len)
    }

    fn read_ranges(&self, path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
        (**self).read_ranges(path, ranges)
    }
}

/// Latch for a page fetch in progress. The owning reader publishes the full
/// page (or an error — [`Error`] is not `Clone`, so failures travel as text)
/// exactly once; concurrent readers of the same cold page block here instead
/// of issuing duplicate remote reads.
#[derive(Default)]
struct InflightFetch {
    state: Mutex<Option<std::result::Result<Bytes, String>>>,
    done: Condvar,
}

impl InflightFetch {
    /// Publishes the outcome and wakes every waiter.
    fn publish(&self, outcome: std::result::Result<Bytes, String>) {
        *self.state.lock() = Some(outcome);
        self.done.notify_all();
    }

    /// Blocks until the owner publishes, then returns the full page.
    fn wait(&self) -> std::result::Result<Bytes, String> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                Some(Ok(bytes)) => return Ok(bytes.clone()),
                Some(Err(msg)) => return Err(msg.clone()),
                None => self.done.wait(&mut state),
            }
        }
    }
}

/// How one requested page will be served, decided during classification.
enum PageClass {
    /// Present in the index, in directory `dir` at `size` bytes: read from
    /// the local store after the lock drops.
    Hit { dir: usize, size: u64 },
    /// Missing and admitted, with this reader elected to fetch it.
    Owner { latch: Arc<InflightFetch> },
    /// Missing, but another reader is already fetching it.
    Waiter { latch: Arc<InflightFetch> },
    /// Remote-read the exact requested range only, caching nothing: a miss
    /// admission rejected, or a hit whose store read timed out (§8).
    Bypass,
}

/// One distinct page of a read, with the union of the sub-ranges its
/// fragments request.
struct PagePlan {
    id: PageId,
    /// Absolute offset of the page in the file.
    page_start: u64,
    /// Full (EOF-clamped) page length.
    page_len: u64,
    /// Requested sub-range within the page.
    within_off: u64,
    within_len: u64,
    class: PageClass,
    /// Remote request slot serving this page (owners and bypasses).
    slot: Option<usize>,
    /// Byte offset of this page inside its slot's response.
    off_in_slot: u64,
    /// The requested sub-range's bytes, once a stage has produced them. A
    /// plan without a chunk is still pending: the next fetch round serves
    /// it.
    chunk: Option<Bytes>,
}

impl PagePlan {
    /// The requested sub-range of `page`, the page's full bytes.
    fn cut(&self, page: &Bytes) -> Bytes {
        let a = (self.within_off as usize).min(page.len());
        let b = ((self.within_off + self.within_len) as usize).min(page.len());
        page.slice(a..b)
    }
}

/// Every remote request one read issued, across its fetch rounds: slot `i`
/// asked for `ranges[i]` and got `results[i]`. Slots never repeat within a
/// read, so assembly can hand out zero-copy slices of whole coalesced runs.
#[derive(Default)]
struct Fetches {
    ranges: Vec<(u64, u64)>,
    results: Vec<Result<Bytes>>,
}

/// Releases owned in-flight latches when a read unwinds before publishing
/// (panic or early error), so waiters are not stranded.
struct LatchCleanup<'a> {
    cache: &'a CacheManager,
    file: &'a SourceFile,
    pending: Vec<(usize, PageId, Arc<InflightFetch>)>,
}

impl Drop for LatchCleanup<'_> {
    fn drop(&mut self) {
        for (_, id, latch) in self.pending.drain(..) {
            self.cache.finish_fetch(
                self.file,
                id,
                &latch,
                &Err("fetch abandoned".into()),
                SpanId::NONE,
            );
        }
    }
}

/// Identity and shape of a remote file being read through the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Remote path (also the admission key).
    pub path: String,
    /// Version token: modification time, HDFS generation stamp, etag. A new
    /// version yields a new [`FileId`], invalidating stale cache entries
    /// (§6.1.1) and giving snapshot isolation under append (§6.2.3).
    pub version: u64,
    /// Total length in bytes.
    pub length: u64,
    /// Scope in the schema/table/partition hierarchy.
    pub scope: CacheScope,
}

impl SourceFile {
    /// Creates a source-file descriptor.
    pub fn new(path: impl Into<String>, version: u64, length: u64, scope: CacheScope) -> Self {
        Self {
            path: path.into(),
            version,
            length,
            scope,
        }
    }

    /// The stable cache identity of this file+version.
    pub fn file_id(&self) -> FileId {
        FileId::from_path_version(&self.path, self.version)
    }

    /// Clamps the fragment `(offset, len)` to EOF as `(start, end)`; empty
    /// (`start == end`) when it is zero-length or lies past EOF.
    fn clamp(&self, offset: u64, len: u64) -> (u64, u64) {
        let end = offset.saturating_add(len).min(self.length);
        (offset, end.max(offset))
    }
}

/// A snapshot of headline cache statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    pub pages: usize,
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    /// `hits / (hits + misses)`, or 0 with no traffic.
    pub hit_rate: f64,
}

/// Maps a file path to the cache scope it should be quota-accounted under.
type ScopeResolver = Box<dyn Fn(&str) -> CacheScope + Send + Sync>;

/// One directory's eviction policy plus the lock-free buffer of access
/// events feeding it.
///
/// Hits call [`PolicyCell::record_access`] — a ring push, no mutex. Every
/// path that locks the policy goes through [`PolicyCell::lock`], which
/// drains the buffer first, so the policy observes all accesses recorded
/// before the acquisition (in arrival order) before it chooses victims or
/// registers inserts/removes. Recency is therefore *batch-granular*: exact
/// FIFO between drain points, with drains at every insert and eviction.
struct PolicyCell {
    policy: Mutex<Box<dyn EvictionPolicy>>,
    events: AccessQueue,
}

impl PolicyCell {
    fn new(policy: Box<dyn EvictionPolicy>) -> Self {
        Self {
            policy: Mutex::new(policy),
            events: AccessQueue::new(ACCESS_EVENT_BUFFER),
        }
    }

    /// Records a hit without touching the policy mutex. Returns `false`
    /// when the ring was full and the event was dropped (lost recency only
    /// — membership is maintained by inserts/removes, never by accesses).
    fn record_access(&self, id: PageId) -> bool {
        self.events.push(id)
    }

    /// Locks the policy, first replaying buffered access events.
    fn lock(&self) -> MutexGuard<'_, Box<dyn EvictionPolicy>> {
        let mut guard = self.policy.lock();
        while let Some(id) = self.events.pop() {
            guard.on_access(id);
        }
        guard
    }

    /// Buffered events not yet applied to the policy.
    fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Metric handles the per-page serve path increments, resolved once at
/// construction. The registry's name lookup takes a `RwLock<BTreeMap>` —
/// fine once per snapshot or error, wrong once (or more) per page read.
/// Cold paths (error breakdowns, eviction causes, recovery, lifecycle)
/// still go through the registry by name.
struct HotMetrics {
    hits: Arc<Counter>,
    /// Hits classified under the stripe lock (the double-check after an
    /// optimistic probe missed). A pure-hit steady state must keep this at
    /// zero — the hotpath benchmark asserts exactly that to prove hits
    /// acquire no lock beyond the shard read lock.
    hits_slow_path: Arc<Counter>,
    misses: Arc<Counter>,
    page_reads: Arc<Counter>,
    vectored_reads: Arc<Counter>,
    vectored_fragments: Arc<Histogram>,
    puts: Arc<Counter>,
    bytes_written: Arc<Counter>,
    bytes_requested: Arc<Counter>,
    bytes_copied: Arc<Counter>,
    bytes_from_cache: Arc<Counter>,
    bytes_from_remote: Arc<Counter>,
    remote_requests: Arc<Counter>,
    inflight_waits: Arc<Counter>,
    admission_rejected: Arc<Counter>,
    fallbacks_timeout: Arc<Counter>,
    coalesced_pages: Arc<Counter>,
    /// Access events dropped because a policy ring was full.
    policy_events_dropped: Arc<Counter>,
    fetch_batch_bytes: Arc<Histogram>,
    /// Memory-tier flow counters. The three-tier conservation oracle
    /// balances entries (`mem.publishes + mem.promotions`) against exits
    /// (`mem.demotions + mem.evictions + mem.replaced`) and current
    /// residency — every frame that leaves the tier is counted somewhere.
    mem_hits: Arc<Counter>,
    mem_publishes: Arc<Counter>,
    mem_promotions: Arc<Counter>,
    mem_demotions: Arc<Counter>,
    mem_replaced: Arc<Counter>,
    mem_evictions: Arc<Counter>,
    mem_bytes_promoted: Arc<Counter>,
    mem_bytes_demoted: Arc<Counter>,
}

impl HotMetrics {
    fn new(m: &MetricRegistry) -> Self {
        Self {
            hits: m.counter("hits"),
            hits_slow_path: m.counter("hits.slow_path"),
            misses: m.counter("misses"),
            page_reads: m.counter("page_reads"),
            vectored_reads: m.counter("vectored_reads"),
            vectored_fragments: m.histogram("vectored.fragments"),
            puts: m.counter("puts"),
            bytes_written: m.counter("bytes_written"),
            bytes_requested: m.counter("bytes_requested"),
            bytes_copied: m.counter("bytes_copied"),
            bytes_from_cache: m.counter("bytes_from_cache"),
            bytes_from_remote: m.counter("bytes_from_remote"),
            remote_requests: m.counter("remote_requests"),
            inflight_waits: m.counter("fetch.inflight_waits"),
            admission_rejected: m.counter("admission_rejected"),
            fallbacks_timeout: m.counter("fallbacks.timeout"),
            coalesced_pages: m.counter("fetch.coalesced_pages"),
            policy_events_dropped: m.counter("policy.events_dropped"),
            fetch_batch_bytes: m.histogram("fetch.batch_bytes"),
            mem_hits: m.counter("mem.hits"),
            mem_publishes: m.counter("mem.publishes"),
            mem_promotions: m.counter("mem.promotions"),
            mem_demotions: m.counter("mem.demotions"),
            mem_replaced: m.counter("mem.replaced"),
            mem_evictions: m.counter("mem.evictions"),
            mem_bytes_promoted: m.counter("mem.bytes_promoted"),
            mem_bytes_demoted: m.counter("mem.bytes_demoted"),
        }
    }
}

/// Builder for [`CacheManager`].
pub struct CacheManagerBuilder {
    config: CacheConfig,
    stores: Vec<Arc<dyn PageStore>>,
    capacities: Vec<u64>,
    admission: Arc<dyn AdmissionPolicy>,
    quota: QuotaManager,
    clock: SharedClock,
    metrics: Option<MetricRegistry>,
    recover: bool,
    scope_resolver: Option<ScopeResolver>,
    tracer: Tracer,
}

impl CacheManagerBuilder {
    /// Adds a cache directory: a page store with a byte capacity.
    pub fn with_store(mut self, store: Arc<dyn PageStore>, capacity: u64) -> Self {
        self.stores.push(store);
        self.capacities.push(capacity);
        self
    }

    /// Sets the admission policy (default: admit everything).
    pub fn with_admission(mut self, policy: Arc<dyn AdmissionPolicy>) -> Self {
        self.admission = policy;
        self
    }

    /// Sets a quota for a scope.
    pub fn with_quota(self, scope: CacheScope, quota: ByteSize) -> Self {
        self.quota.set_quota(scope, quota);
        self
    }

    /// Uses the given clock (simulations pass a `SimClock`).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Uses the given metric registry (e.g. one shared per node).
    pub fn with_metrics(mut self, metrics: MetricRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a span tracer to the read path (default: disabled, which
    /// costs nothing). Drive it from the same clock passed to
    /// [`Self::with_clock`] so stage timestamps share the read's timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Rebuilds the in-memory index from the page stores on startup (§4.3's
    /// cache recovery). Recovered pages get their scope from the resolver
    /// set via [`Self::with_scope_resolver`], or [`CacheScope::Global`].
    pub fn with_recovery(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Maps recovered page paths back to scopes during recovery.
    pub fn with_scope_resolver(
        mut self,
        resolver: impl Fn(&str) -> CacheScope + Send + Sync + 'static,
    ) -> Self {
        self.scope_resolver = Some(Box::new(resolver));
        self
    }

    /// Builds the manager.
    pub fn build(self) -> Result<CacheManager> {
        if self.stores.is_empty() {
            return Err(Error::InvalidArgument(
                "cache manager needs at least one store".into(),
            ));
        }
        // Mount the DRAM tier as one extra directory *after* the SSD
        // stores: the same index, ledger, quota, and policy machinery then
        // covers it for free. The allocator is built from the SSD
        // capacities only, so `pick` never places a page in memory —
        // memory placement is explicit (publish, promote, demote).
        let mut stores = self.stores;
        let mem_store = if self.config.memory_capacity > 0 {
            let store = Arc::new(MemTierStore::new());
            stores.push(Arc::clone(&store) as Arc<dyn PageStore>);
            Some(store)
        } else {
            None
        };
        let mem_dir = mem_store.as_ref().map(|_| stores.len() - 1);
        let dirs = stores.len();
        let index = IndexManager::new(dirs);
        let metrics = self.metrics.unwrap_or_else(|| MetricRegistry::new("cache"));
        // Lifecycle sink: every partition enter/exit the ledger observes is
        // counted as a metric, and exits hand the admission policy its slot
        // back — no exit path (capacity, quota, TTL, corruption, purge,
        // delete, clear) can leak a `maxCachedPartitions` slot.
        index.ledger().subscribe(Arc::new(LifecycleSink {
            metrics: metrics.clone(),
            admission: Arc::clone(&self.admission),
        }));
        let policies: Vec<PolicyCell> = (0..dirs)
            .map(|_| PolicyCell::new(build_policy(self.config.eviction)))
            .collect();
        let io_pool = if self.config.enforce_read_timeout {
            Some(IoPool::new(self.config.io_threads.max(1)))
        } else {
            None
        };
        // A persistent pool for stage-2 remote fetches: sized above the
        // per-read cap so several reader threads can fetch at their full
        // `max_concurrent_fetches` simultaneously. Spawning threads per
        // read would cost more than a small remote round trip.
        let fetch_pool = if self.config.max_concurrent_fetches > 1 {
            Some(IoPool::new(
                (self.config.max_concurrent_fetches * 4).min(64),
            ))
        } else {
            None
        };
        let hot = HotMetrics::new(&metrics);
        let manager = CacheManager {
            allocator: Allocator::new(self.capacities),
            stores,
            mem_store,
            mem_dir,
            mem_capacity: AtomicU64::new(self.config.memory_capacity),
            index,
            policies,
            quota: self.quota,
            admission: self.admission,
            metrics,
            hot,
            clock: self.clock,
            page_locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            inflight: (0..INFLIGHT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            io_pool,
            fetch_pool,
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
            tracer: self.tracer,
            config: self.config,
        };
        if self.recover {
            manager.recover()?;
        }
        Ok(manager)
    }
}

/// The ledger sink the builder installs: partition lifecycle transitions
/// become metrics, and exits release admission slots. Runs under the index
/// locks, so it only touches its own leaf state (counters, admission map).
struct LifecycleSink {
    metrics: MetricRegistry,
    admission: Arc<dyn AdmissionPolicy>,
}

impl ScopeEventSink for LifecycleSink {
    fn on_scope_event(&self, event: &ScopeEvent) {
        match event {
            ScopeEvent::Enter(scope) => {
                if matches!(scope, CacheScope::Partition { .. }) {
                    self.metrics.counter("ledger.enters").inc();
                }
                self.admission.on_scope_enter(scope);
            }
            ScopeEvent::Exit(scope) => {
                if matches!(scope, CacheScope::Partition { .. }) {
                    self.metrics.counter("ledger.exits").inc();
                }
                self.admission.on_scope_exit(scope);
            }
        }
    }
}

/// The local cache: the embeddable, page-oriented, SSD-backed cache of §4.
pub struct CacheManager {
    config: CacheConfig,
    stores: Vec<Arc<dyn PageStore>>,
    /// The DRAM tier, when mounted: also present in `stores` as the last
    /// directory (`mem_dir`), kept typed here for pin/verify operations.
    mem_store: Option<Arc<MemTierStore>>,
    /// Index directory of the DRAM tier. Always the *last* directory; the
    /// allocator only knows the SSD directories, so its `pick` never lands
    /// here — tier placement is explicit (publish/promote/demote).
    mem_dir: Option<usize>,
    /// Runtime-adjustable DRAM-tier capacity (`set_memory_capacity`).
    /// Relaxed everywhere: a capacity is a target the next placement or
    /// pressure pass observes, not a synchronization point.
    mem_capacity: AtomicU64,
    allocator: Allocator,
    index: IndexManager,
    policies: Vec<PolicyCell>,
    quota: QuotaManager,
    admission: Arc<dyn AdmissionPolicy>,
    metrics: MetricRegistry,
    /// Pre-resolved handles for per-page-read metric updates.
    hot: HotMetrics,
    clock: SharedClock,
    page_locks: Vec<Mutex<()>>,
    /// Single-flight table: pages currently being fetched from the remote,
    /// sharded by page hash so misses on different pages never contend.
    /// A shard is locked strictly *after* a stripe lock, never before, and
    /// never together with another shard (except the read-only sweep of
    /// [`Self::inflight_fetches`], which holds no stripe lock).
    inflight: Vec<Mutex<HashMap<PageId, Arc<InflightFetch>>>>,
    io_pool: Option<IoPool>,
    /// Workers for concurrent stage-2 remote fetches (absent when
    /// `max_concurrent_fetches` is 1: fetches then run inline).
    fetch_pool: Option<IoPool>,
    rng_state: AtomicU64,
    tracer: Tracer,
}

impl CacheManager {
    /// Starts building a manager with the given configuration.
    pub fn builder(config: CacheConfig) -> CacheManagerBuilder {
        CacheManagerBuilder {
            config,
            stores: Vec::new(),
            capacities: Vec::new(),
            admission: Arc::new(AdmitAll),
            quota: QuotaManager::new(),
            clock: system_clock(),
            metrics: None,
            recover: false,
            scope_resolver: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The manager's metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The manager's span tracer (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.config.page_size.as_u64()
    }

    /// The quota manager (quotas may be adjusted at runtime).
    pub fn quota(&self) -> &QuotaManager {
        &self.quota
    }

    /// The index manager (read-only introspection).
    pub fn index(&self) -> &IndexManager {
        &self.index
    }

    /// The configuration the manager was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of per-page single-flight latches currently registered.
    /// An idle cache must report 0 — a leaked latch would strand every
    /// future reader of that page (the torture harness asserts this after
    /// every operation).
    pub fn inflight_fetches(&self) -> usize {
        self.inflight.iter().map(|s| s.lock().len()).sum()
    }

    /// Per-directory `(bytes_used_by_store, bytes_indexed, capacity)` —
    /// the accounting triple the harness cross-checks after every op.
    pub fn dir_usage(&self) -> Vec<(u64, u64, u64)> {
        (0..self.stores.len())
            .map(|dir| {
                // The DRAM tier is not an allocator directory; its capacity
                // is the runtime-adjustable memory budget.
                let capacity = if Some(dir) == self.mem_dir {
                    self.memory_capacity()
                } else {
                    self.allocator.capacity(dir)
                };
                (
                    self.stores[dir].bytes_used(),
                    self.index.bytes_of_dir(dir),
                    capacity,
                )
            })
            .collect()
    }

    /// Headline statistics.
    pub fn stats(&self) -> CacheStats {
        let hits = self.hot.hits.get();
        let misses = self.hot.misses.get();
        let total = hits + misses;
        CacheStats {
            pages: self.index.len(),
            bytes: self.index.total_bytes(),
            hits,
            misses,
            hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        }
    }

    fn now_ms(&self) -> u64 {
        self.clock.now_millis()
    }

    fn stripe(&self, id: PageId) -> &Mutex<()> {
        &self.page_locks[(id.stable_hash() as usize) & (LOCK_STRIPES - 1)]
    }

    fn inflight_shard(&self, id: PageId) -> &Mutex<HashMap<PageId, Arc<InflightFetch>>> {
        &self.inflight[(id.stable_hash() as usize) & (INFLIGHT_SHARDS - 1)]
    }

    /// Access events buffered across all directories but not yet applied to
    /// their eviction policies (introspection for tests and oracles).
    #[doc(hidden)]
    pub fn pending_access_events(&self) -> usize {
        self.policies.iter().map(PolicyCell::pending_events).sum()
    }

    /// Oracle used by the simulation harness: after draining buffered
    /// access events, every eviction policy must track exactly as many
    /// pages as the index holds in its directory. Deferred (batch-granular)
    /// recency may lag; *membership* may not drift — a policy entry without
    /// an index entry could surface as a victim no eviction confirms, and
    /// the reverse would shelter a page from eviction forever.
    #[doc(hidden)]
    pub fn check_policy_coherence(&self) -> std::result::Result<(), String> {
        for (dir, cell) in self.policies.iter().enumerate() {
            let tracked = cell.lock().len();
            let indexed = self.index.pages_of_dir(dir).len();
            if tracked != indexed {
                return Err(format!(
                    "dir {dir}: policy tracks {tracked} pages, index holds {indexed}"
                ));
            }
        }
        Ok(())
    }

    fn next_rand(&self) -> u64 {
        // Xorshift over an atomic state: statistically fine for victim
        // sampling, and keeps the manager lock-free here. The CAS loop makes
        // the read-modify-write atomic (a plain load/store pair would let
        // concurrent callers draw the same value), and zero — xorshift's
        // absorbing state — is never stored.
        fn step(mut x: u64) -> u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            if x == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                x
            }
        }
        let prev = self
            .rng_state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)))
            .unwrap_or(0);
        step(prev).wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Reads `len` bytes at `offset` from `file`, serving cached pages
    /// locally and fetching missing pages read-through from `source`.
    ///
    /// This is a one-fragment [`Self::read_multi`]: both run the same
    /// pipeline under their own trace names (`cache.read` / `classify`
    /// here), and only `read_multi` counts vectored batches. Per read:
    ///
    /// 1. **Classify** — each page is classified under its stripe lock
    ///    (held briefly, never across I/O) as a local hit, an in-flight
    ///    fetch to join, a miss this reader owns, or an admission bypass.
    /// 2. **Fetch** — owned misses are coalesced into runs of adjacent
    ///    pages, one ranged [`RemoteSource::read_ranges`] request per run,
    ///    executed concurrently up to
    ///    [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches).
    /// 3. **Publish** — fetched pages are cached (re-taking the stripe lock
    ///    just for the insert) and released through per-page single-flight
    ///    latches, so N concurrent readers of one cold page produce exactly
    ///    one remote request.
    /// 4. **Serve** — hits are read from the local store. A hit that
    ///    degrades (§8: evicted, lost, corrupt, unreadable, or hung) is
    ///    repaired by one more fetch round, where it rejoins single-flight
    ///    like any other miss.
    pub fn read(
        &self,
        file: &SourceFile,
        offset: u64,
        len: u64,
        source: &dyn RemoteSource,
    ) -> Result<Bytes> {
        let fragment = [(offset, len)];
        let (root, plans, fetches) =
            self.read_pipeline(file, &fragment, source, ("cache.read", "classify"))?;
        let _assemble_span = self.tracer.child(root.id(), "assemble");
        let (start, end) = file.clamp(offset, len);
        Ok(self.assemble(&plans, &fetches, start, end))
    }

    /// Reads several `(offset, len)` fragments of `file` in one vectored
    /// operation, returning one buffer per fragment (each EOF-clamped like
    /// [`Self::read`]).
    ///
    /// Fragmented columnar scans — the paper's dominant workload (§5) — ask
    /// for many small ranges of one file at once: the projected column
    /// chunks of a row group. This entry point runs the classify → fetch →
    /// publish pipeline once over the union of all fragments:
    ///
    /// * every *distinct* page is classified exactly once, even when
    ///   fragments overlap, repeat, or arrive out of order (duplicates
    ///   share the page's chunk);
    /// * runs of file-adjacent owned pages coalesce **across fragment
    ///   boundaries** into single ranged remote requests, dispatched
    ///   concurrently on the persistent fetch pool;
    /// * per-page single-flight latches make concurrent readers (vectored
    ///   or not) interleave safely;
    /// * a fragment covered by one page chunk or one coalesced run is
    ///   returned as a zero-copy slice; only fragments spanning several
    ///   sources are stitched (counted in `bytes_copied`).
    ///
    /// Failures are all-or-nothing: the first error fails the whole call,
    /// after every owned latch has been published or released.
    pub fn read_multi(
        &self,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
    ) -> Result<Vec<Bytes>> {
        if fragments.is_empty() {
            return Ok(Vec::new());
        }
        self.hot.vectored_reads.inc();
        self.hot.vectored_fragments.record(fragments.len() as u64);
        let (root, plans, fetches) = self.read_pipeline(
            file,
            fragments,
            source,
            ("cache.read_multi", "vectored_classify"),
        )?;
        let _assemble_span = self.tracer.child(root.id(), "assemble");
        Ok(fragments
            .iter()
            .map(|&(offset, len)| {
                let (start, end) = file.clamp(offset, len);
                self.assemble(&plans, &fetches, start, end)
            })
            .collect())
    }

    /// The read pipeline behind [`Self::read`] and [`Self::read_multi`],
    /// up to assembly. `names` are the root and classify span names.
    /// Returns the still-open root span (the caller's assembly stage is its
    /// last child), one plan per distinct page in ascending order, each
    /// holding its chunk, and every remote response.
    fn read_pipeline(
        &self,
        file: &SourceFile,
        fragments: &[(u64, u64)],
        source: &dyn RemoteSource,
        names: (&'static str, &'static str),
    ) -> Result<(Span, Vec<PagePlan>, Fetches)> {
        let ps = self.page_size();
        let mut root = self.tracer.span(names.0);
        root.annotate("path", &file.path);
        root.annotate("fragments", fragments.len());

        // Stage 0: plan fragments — clamp each to EOF and plan every
        // distinct page touched, with the union of its requested
        // page-relative sub-ranges. Pure bookkeeping: no locks, no I/O. The
        // union may over-read the gap between two fragments landing on the
        // same page; it never crosses a page.
        let mut plan_frag_span = self.tracer.child(root.id(), "plan_fragments");
        let mut requested = 0u64;
        let mut touched = 0u64;
        for &(offset, len) in fragments {
            let (start, end) = file.clamp(offset, len);
            if start < end {
                requested += end - start;
                touched += (end - 1) / ps - start / ps + 1;
            }
        }
        self.hot.bytes_requested.add(requested);
        let file_id = file.file_id();
        let mut plans = Vec::with_capacity(touched as usize);
        for &(offset, len) in fragments {
            let (start, end) = file.clamp(offset, len);
            if start >= end {
                continue;
            }
            for idx in start / ps..=(end - 1) / ps {
                let page_start = idx * ps;
                let within_off = start.max(page_start) - page_start;
                plans.push(PagePlan {
                    id: PageId::new(file_id, idx),
                    page_start,
                    page_len: ps.min(file.length - page_start),
                    within_off,
                    within_len: end.min(page_start + ps) - page_start - within_off,
                    // Placeholder: stage 1 classifies every plan.
                    class: PageClass::Bypass,
                    slot: None,
                    off_in_slot: 0,
                    chunk: None,
                });
            }
        }
        // One fragment's pages are already ascending and distinct.
        if fragments.len() > 1 {
            plans.sort_unstable_by_key(|p| p.id.index);
            plans.dedup_by(|dup, kept| {
                if dup.id != kept.id {
                    return false;
                }
                let end = (kept.within_off + kept.within_len).max(dup.within_off + dup.within_len);
                kept.within_off = kept.within_off.min(dup.within_off);
                kept.within_len = end - kept.within_off;
                true
            });
        }
        if plan_frag_span.is_recording() {
            plan_frag_span.annotate("bytes", requested);
            plan_frag_span.annotate("pages", plans.len());
        }
        plan_frag_span.finish();

        // Stage 1: classify — once per distinct page, so a page shared by
        // two fragments never waits on its own latch.
        let mut classify_span = self.tracer.child(root.id(), names.1);
        let now = self.now_ms();
        for plan in plans.iter_mut() {
            plan.class = self.classify_page(file, plan.id, now, classify_span.id());
        }
        if classify_span.is_recording() {
            let count = |f: fn(&PageClass) -> bool| plans.iter().filter(|p| f(&p.class)).count();
            classify_span.annotate("hits", count(|c| matches!(c, PageClass::Hit { .. })));
            classify_span.annotate("waiters", count(|c| matches!(c, PageClass::Waiter { .. })));
            classify_span.annotate("owned", count(|c| matches!(c, PageClass::Owner { .. })));
            classify_span.annotate("bypass", count(|c| matches!(c, PageClass::Bypass)));
        }
        classify_span.finish();
        // Every page this read touches, hit or miss — the conservation
        // anchor: page_reads == hits + misses + fallbacks.timeout.
        self.hot.page_reads.add(plans.len() as u64);

        // Stages 2–4: fetch, publish and collect the misses.
        let mut fetches = Fetches::default();
        let fetched = self.fetch_round(file, &mut plans, source, &mut fetches, root.id());

        // Stage 5: serve hits from the local store (I/O outside the locks),
        // even when the fetch failed: every classified page then counts as
        // a hit, a miss, or a timeout, and a read that misses part of an
        // object still balances the page-read identity.
        let serve_span = self.tracer.child(root.id(), "serve");
        for plan in plans.iter_mut() {
            if let PageClass::Hit { dir, size } = plan.class {
                self.serve_hit(plan, dir, size, serve_span.id());
            }
        }
        serve_span.finish();
        fetched?;

        // Stage 6: repair. Hits that degraded while being served have no
        // chunk. A timed-out read already became an exact-range bypass; the
        // rest are re-classified as misses — never as hits, so no page is
        // read from the local store twice in one call — and one more fetch
        // round serves them all, through the same single-flight latches.
        let pending = plans.iter().filter(|p| p.chunk.is_none()).count();
        if pending > 0 {
            let mut fallback_span = self.tracer.child(root.id(), "remote_fallback");
            fallback_span.annotate("pages", pending);
            for plan in plans.iter_mut().filter(|p| p.chunk.is_none()) {
                if matches!(plan.class, PageClass::Hit { .. }) {
                    let _guard = self.stripe(plan.id).lock();
                    plan.class = self.classify_miss(file, plan.id, now, fallback_span.id());
                }
            }
            self.fetch_round(file, &mut plans, source, &mut fetches, fallback_span.id())?;
        }
        Ok((root, plans, fetches))
    }

    /// Stages 2–4 over every plan that has no chunk yet: plan and
    /// execute the remote fetches, publish owned pages, then collect the
    /// pages concurrent readers fetched for us and the exact-range slots.
    /// This is the only place the cache reads from the remote, and owned
    /// pages are published (and their admission slots released) nowhere
    /// else. New slots are appended to `fetches`.
    fn fetch_round(
        &self,
        file: &SourceFile,
        plans: &mut [PagePlan],
        source: &dyn RemoteSource,
        fetches: &mut Fetches,
        parent: SpanId,
    ) -> Result<()> {
        // Owned latches must be released even if this read errors or
        // panics, or waiters would block forever.
        let mut cleanup = LatchCleanup {
            cache: self,
            file,
            pending: Vec::new(),
        };
        for (pos, plan) in plans.iter().enumerate() {
            if let (PageClass::Owner { latch }, None) = (&plan.class, &plan.chunk) {
                cleanup.pending.push((pos, plan.id, Arc::clone(latch)));
            }
        }

        // Stage 2: coalesce owned misses into runs and fetch them (plus any
        // exact-range slots) concurrently.
        let first = fetches.ranges.len();
        let mut plan_span = self.tracer.child(parent, "plan_fetches");
        self.plan_fetches(plans, &mut fetches.ranges);
        plan_span.annotate("ranges", fetches.ranges.len() - first);
        plan_span.finish();
        let mut fetch_span = self.tracer.child(parent, "remote_fetch");
        let fetched = self.execute_fetches(file, &fetches.ranges[first..], source, fetch_span.id());
        if fetch_span.is_recording() {
            fetch_span.annotate("ranges", fetched.len());
            fetch_span.annotate(
                "bytes",
                fetched
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|b| b.len() as u64)
                    .sum::<u64>(),
            );
        }
        fetch_span.finish();
        fetches.results.extend(fetched);

        // [`Error`] is not `Clone`: keep the first failure for the caller,
        // leaving a stringified copy in the slot for latch publication.
        let first_error = fetches.results[first..].iter_mut().find_map(|slot| {
            let msg = slot.as_ref().err()?.to_string();
            std::mem::replace(slot, Err(Error::Other(msg))).err()
        });

        // Stage 3: publish owned pages — cache them and release the latches
        // before any waiting below, so two readers that own pages of each
        // other's requests cannot deadlock.
        let publish_span = self.tracer.child(parent, "publish");
        // Publish in ascending page order (pending was built ascending, so
        // pop from a reversed list): insertion order is what recency-based
        // eviction policies see.
        cleanup.pending.reverse();
        while let Some(&(pos, id, ref latch)) = cleanup.pending.last() {
            let latch = Arc::clone(latch);
            let plan = &plans[pos];
            let slot = plan.slot.expect("owner pages are planned a fetch slot");
            let outcome = match &fetches.results[slot] {
                Ok(bytes) => {
                    let a = (plan.off_in_slot as usize).min(bytes.len());
                    let b = ((plan.off_in_slot + plan.page_len) as usize).min(bytes.len());
                    Ok(bytes.slice(a..b))
                }
                Err(e) => Err(e.to_string()),
            };
            self.finish_fetch(file, id, &latch, &outcome, publish_span.id());
            if let Ok(page) = outcome {
                plans[pos].chunk = Some(plans[pos].cut(&page));
            }
            cleanup.pending.pop();
        }
        publish_span.finish();
        if let Some(e) = first_error {
            return Err(e);
        }

        // Stage 4: collect pages concurrent readers fetched for us, and the
        // exact-range slots (those already hold exactly the requested
        // ranges).
        let collect_span = self.tracer.child(parent, "collect");
        for plan in plans.iter_mut().filter(|p| p.chunk.is_none()) {
            match &plan.class {
                PageClass::Waiter { latch } => {
                    let mut wait_span = self.tracer.child(collect_span.id(), "singleflight_wait");
                    wait_span.annotate("page", plan.id);
                    let page = latch.wait().map_err(|msg| {
                        Error::Other(format!(
                            "concurrent fetch of page {} failed: {msg}",
                            plan.id
                        ))
                    })?;
                    wait_span.finish();
                    plan.chunk = Some(plan.cut(&page));
                }
                PageClass::Bypass => {
                    let slot = plan.slot.expect("bypass pages are planned a fetch slot");
                    if let Ok(bytes) = &fetches.results[slot] {
                        plan.chunk = Some(bytes.clone());
                    }
                }
                _ => {}
            }
        }
        collect_span.finish();
        Ok(())
    }

    /// Stage 7 for one clamped fragment `start..end`: a fragment inside one
    /// page chunk, or inside one coalesced owner run, is a zero-copy slice;
    /// anything else is stitched from its pages' chunks (counted in
    /// `bytes_copied`).
    fn assemble(&self, plans: &[PagePlan], fetches: &Fetches, start: u64, end: u64) -> Bytes {
        if start >= end {
            return Bytes::new();
        }
        let ps = self.page_size();
        // The fragment's pages are consecutive in the sorted plan list.
        let first = plans.partition_point(|p| p.id.index < start / ps);
        let pages = &plans[first..=first + ((end - 1) / ps - start / ps) as usize];
        let chunk = |plan: &PagePlan| {
            plan.chunk
                .as_ref()
                .expect("every classified page produced a chunk")
                .clone()
        };
        if let [plan] = pages {
            let rel = (start - (plan.page_start + plan.within_off)) as usize;
            return chunk(plan).slice(rel..rel + (end - start) as usize);
        }
        // Whole fragment inside one coalesced owner run: one slice of the
        // ranged response.
        let run_slot = pages[0].slot;
        let one_run = pages
            .iter()
            .all(|p| matches!(p.class, PageClass::Owner { .. }) && p.slot == run_slot);
        if let (true, Some(slot)) = (one_run, run_slot) {
            if let Ok(bytes) = &fetches.results[slot] {
                let base = fetches.ranges[slot].0;
                let a = ((start - base) as usize).min(bytes.len());
                let b = ((end - base) as usize).min(bytes.len());
                return bytes.slice(a..b);
            }
        }
        self.hot.bytes_copied.add(end - start);
        let mut buf = BytesMut::with_capacity((end - start) as usize);
        for plan in pages {
            let a = start.max(plan.page_start);
            let b = end.min(plan.page_start + plan.page_len);
            let base = plan.page_start + plan.within_off;
            buf.extend_from_slice(&chunk(plan)[(a - base) as usize..(b - base) as usize]);
        }
        buf.freeze()
    }

    /// Stage 1 for one page, with no I/O while a lock is held.
    ///
    /// The hit path is lock-free in the write sense: an optimistic
    /// [`IndexManager::touch`] classifies a resident page under its index
    /// shard's *read* lock, records recency in per-entry atomics, and
    /// pushes the policy access event into the lock-free ring — no stripe
    /// mutex, no policy mutex, no aggregates lock. Recording the access at
    /// classify (not serve) time keeps the old guarantee: stage 3 of this
    /// very read drains the ring before choosing eviction victims, so it
    /// cannot evict a page we are about to serve. Safety of the optimism:
    /// if the page is evicted between classify and serve, the store read
    /// fails and the page is repaired like any degraded hit.
    ///
    /// Only misses take the stripe lock, re-check the index (a concurrent
    /// publisher may have landed the page), and classify the miss.
    fn classify_page(&self, file: &SourceFile, id: PageId, now: u64, parent: SpanId) -> PageClass {
        if let Some((dir, size)) = self.index.touch(&id, now) {
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, size };
        }
        let _guard = self.stripe(id).lock();
        if let Some((dir, size)) = self.index.touch(&id, now) {
            // Double-check hit: published between the optimistic probe and
            // the lock. Counted separately — a pure-hit workload must never
            // land here (the hotpath benchmark asserts it stays 0).
            self.hot.hits_slow_path.inc();
            if !self.policies[dir].record_access(id) {
                self.hot.policy_events_dropped.inc();
            }
            return PageClass::Hit { dir, size };
        }
        self.classify_miss(file, id, now, parent)
    }

    /// The miss half of [`Self::classify_page`], also used to re-classify a
    /// degraded hit. The caller holds the page's stripe lock. Lock order
    /// everywhere is stripe lock → in-flight shard, so a concurrent
    /// publisher (which inserts the page and removes the in-flight entry
    /// under the same stripe lock) is seen either entirely before or
    /// entirely after: a classifier finds the in-flight entry or the cached
    /// page, never neither.
    fn classify_miss(&self, file: &SourceFile, id: PageId, now: u64, parent: SpanId) -> PageClass {
        self.hot.misses.inc();
        let mut inflight = self.inflight_shard(id).lock();
        if let Some(latch) = inflight.get(&id) {
            // Join the in-flight fetch regardless of admission:
            // the owner is caching this page anyway.
            self.hot.inflight_waits.inc();
            return PageClass::Waiter {
                latch: Arc::clone(latch),
            };
        }
        let mut admission_span = self.tracer.child(parent, "admission");
        let admitted = self.admission.admit(&file.path, &file.scope, now);
        admission_span.annotate("page", id);
        admission_span.annotate("admitted", admitted);
        admission_span.finish();
        if admitted {
            let latch = Arc::new(InflightFetch::default());
            inflight.insert(id, Arc::clone(&latch));
            PageClass::Owner { latch }
        } else {
            // Non-cache read path (Figure 3): read exactly what was asked.
            self.hot.admission_rejected.inc();
            PageClass::Bypass
        }
    }

    /// Stage 2 planning: assigns every pending owner and bypass page a
    /// remote request slot, appended to `fetches`. Runs of *file-adjacent*
    /// owned pages coalesce into one ranged request each (when enabled); a
    /// bypass always gets its own exact-range slot. The page-vs-request
    /// delta of owner runs is the read amplification the §7 page-size
    /// trade-off discusses.
    ///
    /// Plans are in ascending page order, so any other page between two
    /// owners (a gap between fragments, a hit, a waiter, a bypass) keeps
    /// them in separate runs — coalescing never bridges bytes nobody asked
    /// for.
    fn plan_fetches(&self, plans: &mut [PagePlan], fetches: &mut Vec<(u64, u64)>) {
        // The open owner run: its slot and page count.
        let mut run: Option<(usize, u64)> = None;
        for plan in plans.iter_mut().filter(|p| p.chunk.is_none()) {
            match (&plan.class, &mut run) {
                (PageClass::Owner { .. }, Some((slot, pages)))
                    if self.config.coalesce_fetches
                        && plan.page_start == fetches[*slot].0 + fetches[*slot].1 =>
                {
                    plan.slot = Some(*slot);
                    plan.off_in_slot = fetches[*slot].1;
                    fetches[*slot].1 += plan.page_len;
                    *pages += 1;
                }
                (PageClass::Owner { .. }, _) => {
                    self.close_run(fetches, run);
                    run = Some((fetches.len(), 1));
                    plan.slot = Some(fetches.len());
                    fetches.push((plan.page_start, plan.page_len));
                }
                (PageClass::Bypass, _) => {
                    plan.slot = Some(fetches.len());
                    fetches.push((plan.page_start + plan.within_off, plan.within_len));
                }
                _ => {}
            }
        }
        self.close_run(fetches, run);
    }

    /// Records the metrics of a completed owner run.
    fn close_run(&self, fetches: &[(u64, u64)], run: Option<(usize, u64)>) {
        if let Some((slot, pages)) = run {
            self.hot.fetch_batch_bytes.record(fetches[slot].1);
            self.hot.coalesced_pages.add(pages - 1);
        }
    }

    /// Stage 2 execution: issues the planned remote requests with at most
    /// [`max_concurrent_fetches`](CacheConfig::max_concurrent_fetches)
    /// workers, each batching a contiguous share of the slots into one
    /// [`RemoteSource::read_ranges`] call. Returns one result per slot.
    fn execute_fetches(
        &self,
        file: &SourceFile,
        fetches: &[(u64, u64)],
        source: &dyn RemoteSource,
        parent: SpanId,
    ) -> Vec<Result<Bytes>> {
        if fetches.is_empty() {
            return Vec::new();
        }
        let workers = self.config.max_concurrent_fetches.max(1).min(fetches.len());
        self.metrics.gauge("fetch.parallelism").set(workers as i64);
        let path = file.path.as_str();
        // Per-thread timestamps of concurrent chunks are only deterministic
        // when the tracer explicitly allows them (see the trace module's
        // determinism contract); otherwise every chunk reports the issuing
        // thread's fetch window.
        let per_thread = self.tracer.concurrent_timing();
        let now = || self.tracer.now_nanos().unwrap_or(0);
        let window_start = now();
        // Slot count, fetch outcome, and timing interval of one worker chunk.
        type FetchedChunk = (usize, Result<Vec<Bytes>>, (u64, u64));
        let chunk_results: Vec<FetchedChunk> = match &self.fetch_pool {
            Some(pool) if workers > 1 => {
                // Contiguous chunks, sized as evenly as possible; each runs
                // as one `read_ranges` call on the persistent fetch pool.
                let base = fetches.len() / workers;
                let extra = fetches.len() % workers;
                let mut bounds = Vec::with_capacity(workers);
                let mut start = 0;
                for w in 0..workers {
                    let size = base + usize::from(w < extra);
                    bounds.push((start, start + size));
                    start += size;
                }
                type ChunkSlot = Mutex<Option<(Result<Vec<Bytes>>, (u64, u64))>>;
                let results: Vec<ChunkSlot> = bounds.iter().map(|_| Mutex::new(None)).collect();
                let now = &now;
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = bounds
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, b))| {
                        let slot = &results[i];
                        Box::new(move || {
                            let t0 = if per_thread { now() } else { 0 };
                            let result = source.read_ranges(path, &fetches[a..b]);
                            let t1 = if per_thread { now() } else { 0 };
                            *slot.lock() = Some((result, (t0, t1)));
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run_scoped(jobs);
                let window = (window_start, now());
                bounds
                    .iter()
                    .zip(results)
                    .map(|(&(a, b), slot)| {
                        let (result, interval) = slot.into_inner().unwrap_or_else(|| {
                            (Err(Error::Other("fetch worker panicked".into())), (0, 0))
                        });
                        (b - a, result, if per_thread { interval } else { window })
                    })
                    .collect()
            }
            _ => {
                let result = source.read_ranges(path, fetches);
                vec![(fetches.len(), result, (window_start, now()))]
            }
        };
        // Flatten chunk responses into per-slot results; a failed chunk
        // fails each of its slots.
        let mut out: Vec<Result<Bytes>> = Vec::with_capacity(fetches.len());
        let mut slot_intervals: Vec<(u64, u64)> = Vec::new();
        for (want, result, interval) in chunk_results {
            for _ in 0..want {
                slot_intervals.push(interval);
            }
            match result {
                Ok(buffers) if buffers.len() == want => {
                    for bytes in buffers {
                        self.hot.remote_requests.inc();
                        self.hot.bytes_from_remote.add(bytes.len() as u64);
                        // Ranges are pre-clamped to the file length, so an
                        // honest remote returns exactly the bytes asked for.
                        // A short buffer must fail the slot here — cached
                        // truncated, it would be served as wrong data.
                        let expected = fetches[out.len()].1;
                        if bytes.len() as u64 != expected {
                            out.push(Err(Error::Decode(format!(
                                "remote returned {} bytes for a {expected}-byte range",
                                bytes.len()
                            ))));
                        } else {
                            out.push(Ok(bytes));
                        }
                    }
                }
                Ok(buffers) => {
                    for _ in 0..want {
                        out.push(Err(Error::Other(format!(
                            "read_ranges returned {} buffers for {want} ranges",
                            buffers.len()
                        ))));
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    out.push(Err(e));
                    for _ in 1..want {
                        out.push(Err(Error::Other(msg.clone())));
                    }
                }
            }
        }
        if self.tracer.is_enabled() {
            // One child span per coalesced range, timed by the chunk (the
            // `read_ranges` call on the wire) that carried it.
            for (slot, &(off, len)) in fetches.iter().enumerate() {
                let (t0, t1) = slot_intervals[slot];
                let status = match &out[slot] {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.kind().to_string(),
                };
                self.tracer.record_interval(
                    parent,
                    "fetch_range",
                    t0,
                    t1,
                    vec![
                        ("offset", off.to_string()),
                        ("len", len.to_string()),
                        ("status", status),
                    ],
                );
            }
        }
        out
    }

    /// Stage 3 for one owned page: caches the fetched page (re-taking its
    /// stripe lock just for the insert), removes the in-flight entry while
    /// that lock is still held (see [`Self::classify_miss`] for why), then
    /// releases the latch.
    fn finish_fetch(
        &self,
        file: &SourceFile,
        id: PageId,
        latch: &InflightFetch,
        outcome: &std::result::Result<Bytes, String>,
        parent: SpanId,
    ) {
        if let Ok(page) = outcome {
            // Make room in the DRAM tier before taking the stripe lock:
            // demotion locks the victim's stripe, and stripe locks never
            // nest.
            self.ensure_mem_room(page.len() as u64, parent);
        }
        {
            let _guard = self.stripe(id).lock();
            let mut cached = false;
            if let Ok(page) = outcome {
                match self.put_page_locked(file, id, page, parent) {
                    Ok(()) => cached = true,
                    Err(e) => {
                        // Caching failed (quota, space, store error): the
                        // read and its waiters are still served from the
                        // fetched bytes.
                        self.metrics.record_error("put", e.kind());
                    }
                }
            }
            if !cached {
                // Admission granted this owner a slot at classify time but
                // no page landed; return the slot if the scope stayed empty.
                self.release_admission_if_vacant(&file.scope);
            }
            self.inflight_shard(id).lock().remove(&id);
        }
        latch.publish(outcome.clone());
    }

    /// Stage 5 for one hit: reads the page from the local store, without
    /// the stripe lock, into `plan.chunk`. A degraded hit gets its §8
    /// bookkeeping and is left without a chunk for the repair round: a read
    /// that timed out keeps the cached page and becomes an exact-range
    /// bypass; a page evicted since classification, lost, corrupt, or
    /// unreadable leaves the cache and is refetched.
    fn serve_hit(&self, plan: &mut PagePlan, mut dir: usize, size: u64, parent: SpanId) {
        let id = plan.id;
        // Concurrent tier moves may relocate the page after classification:
        // a `NotFound` follows it to the directory that holds it now, a few
        // times at most, before the page is left for the repair round.
        for _ in 0..TIER_MOVE_FOLLOWS {
            let mem_hit = Some(dir) == self.mem_dir;
            // Three-tier promotion: an SSD hit moves the page up into
            // memory, which needs the whole page — read it once and serve
            // the requested slice from the same buffer (no second I/O, no
            // extra copy).
            let promote = !mem_hit && self.mem_dir.is_some() && size <= self.memory_capacity();
            let (read_off, read_len) = if promote {
                (0, size)
            } else {
                (plan.within_off, plan.within_len)
            };
            let mut read_span = self
                .tracer
                .child(parent, if mem_hit { "mem_read" } else { "ssd_read" });
            read_span.annotate("page", id);
            let got = self.store_get(dir, id, read_off, read_len);
            if read_span.is_recording() {
                match &got {
                    Ok(bytes) => read_span.annotate("bytes", bytes.len()),
                    Err(e) => read_span.annotate("status", e.kind()),
                }
            }
            read_span.finish();
            match got {
                Ok(bytes) => {
                    // The policy access was recorded at classification time.
                    self.hot.hits.inc();
                    if mem_hit {
                        self.hot.mem_hits.inc();
                    }
                    let served = if promote {
                        self.promote_to_mem(id, dir, size, &bytes, parent);
                        plan.cut(&bytes)
                    } else {
                        bytes
                    };
                    self.hot.bytes_from_cache.add(served.len() as u64);
                    plan.chunk = Some(served);
                }
                Err(Error::Timeout { .. }) => {
                    // §8 "File read hanging": fall back to the remote,
                    // keeping the cached page for future reads.
                    self.metrics.record_error("get", "timeout");
                    self.hot.fallbacks_timeout.inc();
                    plan.class = PageClass::Bypass;
                }
                Err(e @ Error::Corrupted(_)) => {
                    // §8 "Corrupted files": evict early and refetch.
                    self.metrics.record_error("get", e.kind());
                    self.evict_page(&id, "corrupt");
                }
                Err(Error::NotFound(_)) => {
                    // Moved: read it where it is now. Gone: dropped, so the
                    // repair round refetches it.
                    if let Some(cur) = self.locate_or_drop(&id) {
                        dir = cur;
                        continue;
                    }
                }
                Err(e) => {
                    self.metrics.record_error("get", e.kind());
                    self.evict_page(&id, "error");
                }
            }
            return;
        }
    }

    /// Local store read, with the configured deadline when enforced.
    fn store_get(&self, dir: usize, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let store = &self.stores[dir];
        if Some(dir) == self.mem_dir {
            // DRAM cannot hang like a failing disk: slice the frame inline
            // (zero-copy) instead of paying an io-pool dispatch + deadline.
            return store.get(id, offset, len);
        }
        match &self.io_pool {
            None => store.get(id, offset, len),
            Some(pool) => {
                let store = Arc::clone(store);
                pool.run_with_deadline(self.config.read_timeout, move || store.get(id, offset, len))
            }
        }
    }

    /// Explicitly caches one page (used by block-level integrations like the
    /// HDFS local cache, which load whole blocks rather than reading
    /// through).
    pub fn put_page(&self, file: &SourceFile, page_index: u64, data: &[u8]) -> Result<()> {
        let id = PageId::new(file.file_id(), page_index);
        // Room first, stripe second (stripe locks never nest; see
        // `finish_fetch`).
        self.ensure_mem_room(data.len() as u64, SpanId::NONE);
        let _guard = self.stripe(id).lock();
        self.put_page_locked(file, id, data, SpanId::NONE)
    }

    /// Whether a page is cached.
    pub fn contains(&self, file: &SourceFile, page_index: u64) -> bool {
        self.index
            .contains(&PageId::new(file.file_id(), page_index))
    }

    /// Inner put: caller holds the page's stripe lock. Eviction work done
    /// to make room is recorded as an `eviction` child span of `parent`
    /// (only when evictions happen).
    fn put_page_locked(
        &self,
        file: &SourceFile,
        id: PageId,
        data: &[u8],
        parent: SpanId,
    ) -> Result<()> {
        let size = data.len() as u64;
        // Every page must fit an SSD directory even when it lands in memory
        // first: a frame that could never be demoted would turn memory
        // pressure into forced (remote-backed) eviction.
        let Some(ssd_dir) = self.allocator.pick(id.file, size) else {
            return Err(Error::InvalidArgument(format!(
                "page of {size} bytes exceeds every cache directory"
            )));
        };
        // Mem-first placement: publishes land in the DRAM tier when it is
        // mounted and has room (the caller made room via `ensure_mem_room`
        // before taking the stripe lock; if a concurrent publisher stole
        // that room, fall back to SSD rather than demoting here — demotion
        // takes the victim's stripe lock, and stripe locks do not nest).
        let dir = match self.mem_dir {
            Some(mem)
                if size <= self.memory_capacity()
                    && self.index.bytes_of_dir(mem) + size <= self.memory_capacity() =>
            {
                mem
            }
            _ => ssd_dir,
        };
        let mut evict_span: Option<Span> = None;
        let mut evicted = 0u64;

        // Hierarchical quota verification (§5.2), most detailed level first.
        // One put can violate several scopes at once (its partition and its
        // table, say): resolve every violation in turn, failing only when a
        // violated scope has nothing left to evict (no forward progress —
        // the page alone exceeds the quota).
        let mut quota_rounds = 0u64;
        while let Some(v) = self
            .quota
            .first_violation(&file.scope, size, |s| self.index.bytes_of_scope(s))
        {
            evict_span.get_or_insert_with(|| self.tracer.child(parent, "eviction"));
            quota_rounds += 1;
            let freed = self.evict_for_quota(&v, size);
            evicted += freed;
            if freed == 0 {
                finish_eviction_span(evict_span, evicted, quota_rounds);
                return Err(Error::QuotaExceeded(format!(
                    "scope {} cannot admit {size} bytes",
                    v.scope()
                )));
            }
        }

        // Capacity eviction within the target directory. A memory target
        // already fits (checked above), so this loop only runs for SSD
        // placement — the DRAM tier makes room by *demotion*, never by the
        // eviction this loop performs.
        if Some(dir) != self.mem_dir {
            let capacity = self.allocator.capacity(dir);
            while self.index.bytes_of_dir(dir) + size > capacity {
                evict_span.get_or_insert_with(|| self.tracer.child(parent, "eviction"));
                let victim = self.policies[dir].lock().victim();
                let Some(victim) = victim else {
                    finish_eviction_span(evict_span, evicted, quota_rounds);
                    return Err(Error::NoSpace);
                };
                if self.evict_page(&victim, "capacity").is_none() {
                    // The policy offered a page the index no longer holds (a
                    // racing eviction through another path). Retire the stale
                    // entry, or this loop would redraw the same victim forever.
                    self.policies[dir].lock().on_remove(victim);
                }
                evicted += 1;
            }
        }
        finish_eviction_span(evict_span, evicted, quota_rounds);

        match self.stores[dir].put(id, data) {
            Ok(()) => {}
            Err(Error::NoSpace) => {
                // §8 "Insufficient disk capacity": the device filled up
                // before our configured capacity — evict early and retry.
                self.metrics.record_error("put", "no_space");
                self.evict_some(dir, size.max(1));
                self.stores[dir].put(id, data)?;
            }
            Err(e) => return Err(e),
        }

        let info = PageInfo::new(id, size, file.scope.clone(), dir, self.now_ms());
        if let Some(old) = self.index.insert(info) {
            // Refresh of an existing page: retire the old copy's policy
            // entry, and delete its stored bytes when the allocator placed
            // the new copy in a different directory (capacity fallback on a
            // size change) — otherwise they stay stranded in the old store.
            self.policies[old.dir].lock().on_remove(id);
            if old.dir != dir {
                if let Err(e) = self.stores[old.dir].delete(id) {
                    self.metrics.record_error("delete", e.kind());
                }
            }
            if Some(old.dir) == self.mem_dir {
                // The refresh displaced a memory-resident copy — a counted
                // memory-tier exit even when the new copy also lands there.
                self.hot.mem_replaced.inc();
            }
        }
        self.policies[dir].lock().on_insert(id);
        self.hot.puts.inc();
        self.hot.bytes_written.add(size);
        if Some(dir) == self.mem_dir {
            self.hot.mem_publishes.inc();
        }
        Ok(())
    }

    /// Evicts up to `want_bytes` from directory `dir` (early eviction on
    /// device pressure).
    fn evict_some(&self, dir: usize, want_bytes: u64) {
        let mut freed = 0u64;
        while freed < want_bytes {
            let victim = self.policies[dir].lock().victim();
            let Some(victim) = victim else { return };
            match self.evict_page(&victim, "no_space") {
                Some(info) => freed += info.size,
                None => {
                    // Stale policy entry (see the capacity loop): retire it
                    // so the next draw makes progress.
                    self.policies[dir].lock().on_remove(victim);
                    freed += 1;
                }
            }
        }
    }

    /// Applies the §5.2 strategy for a quota violation. Victims come from
    /// *one* sorted snapshot of the scope taken up front — the index returns
    /// hash order, and sorting once makes every victim a pure function of
    /// the cache contents (deterministic simulation replays the same
    /// evictions for the same seed) without the per-victim re-list/re-sort
    /// that made large-partition eviction storms O(n² log n). Returns the
    /// number of pages evicted.
    fn evict_for_quota(&self, violation: &QuotaViolation, needed: u64) -> u64 {
        let scope = violation.scope().clone();
        let Some(quota) = self.quota.quota_of(&scope).map(|q| q.as_u64()) else {
            return 0;
        };
        let target = quota.saturating_sub(needed);
        let mut pages = self.index.pages_of_scope(&scope);
        pages.sort_unstable();
        let mut freed = 0u64;
        match violation {
            QuotaViolation::Partition(_) => {
                // Partition-level eviction: remove that partition's pages in
                // ascending id order until the scope fits.
                let mut victims = pages.into_iter();
                while self.index.bytes_of_scope(&scope) > target {
                    let Some(victim) = victims.next() else { break };
                    if self.evict_page(&victim, "quota").is_some() {
                        freed += 1;
                    }
                }
            }
            QuotaViolation::SharedScope(_) => {
                // Table-level sharing: random eviction across partitions, so
                // one greedy partition cannot starve its siblings. Draws pick
                // from the snapshot (removal keeps it sorted, so the draw
                // stays a deterministic function of contents + rng state).
                while self.index.bytes_of_scope(&scope) > target && !pages.is_empty() {
                    let pick = (self.next_rand() % pages.len() as u64) as usize;
                    let victim = pages.remove(pick);
                    if self.evict_page(&victim, "quota").is_some() {
                        freed += 1;
                    }
                }
            }
        }
        freed
    }

    /// Removes a page from the index, its policy, and its store. Returns the
    /// page's info if it was present.
    fn evict_page(&self, id: &PageId, cause: &str) -> Option<PageInfo> {
        let info = self.index.remove(id)?;
        self.policies[info.dir].lock().on_remove(*id);
        if let Err(e) = self.stores[info.dir].delete(*id) {
            self.metrics.record_error("delete", e.kind());
        }
        self.metrics.counter(&format!("evictions.{cause}")).inc();
        if Some(info.dir) == self.mem_dir {
            // A counted memory-tier exit: the conservation oracle balances
            // these against publishes and promotions.
            self.hot.mem_evictions.inc();
        }
        Some(info)
    }

    /// After a store read found no page: returns the directory whose store
    /// holds it now, or drops it from the index and policy when its bytes
    /// are gone (evicted, or lost under the cache). Checked under the
    /// page's stripe lock, which tier moves hold: a concurrent move explains
    /// a transient `NotFound` without any data having been lost, and
    /// dropping the entry then would strand the moved copy in its new
    /// store. Callers hold no stripe lock.
    fn locate_or_drop(&self, id: &PageId) -> Option<usize> {
        let _guard = self.stripe(*id).lock();
        let info = self.index.get(id)?;
        if self.stores[info.dir].contains(*id) {
            return Some(info.dir);
        }
        self.index.remove(id);
        self.policies[info.dir].lock().on_remove(*id);
        if Some(info.dir) == self.mem_dir {
            self.hot.mem_evictions.inc();
        }
        None
    }

    /// Index directory of the DRAM tier, when one is mounted.
    pub fn memory_dir(&self) -> Option<usize> {
        self.mem_dir
    }

    /// The DRAM tier store, when one is mounted (frame introspection,
    /// pin/unpin, corruption hooks for tests).
    pub fn memory_tier(&self) -> Option<&Arc<MemTierStore>> {
        self.mem_store.as_ref()
    }

    /// Current DRAM-tier byte capacity (zero when no tier is mounted).
    pub fn memory_capacity(&self) -> u64 {
        self.mem_capacity.load(Ordering::Relaxed)
    }

    /// Pins a memory-resident page against demotion and pressure eviction.
    /// Returns `false` when no tier is mounted or the page is not resident
    /// in memory. Pins nest; balance each with [`Self::unpin_page`].
    pub fn pin_page(&self, file: &SourceFile, page_index: u64) -> bool {
        let id = PageId::new(file.file_id(), page_index);
        self.mem_store.as_ref().is_some_and(|s| s.pin(id))
    }

    /// Releases one pin taken by [`Self::pin_page`].
    pub fn unpin_page(&self, file: &SourceFile, page_index: u64) -> bool {
        let id = PageId::new(file.file_id(), page_index);
        self.mem_store.as_ref().is_some_and(|s| s.unpin(id))
    }

    /// Adjusts the DRAM tier's byte capacity at runtime (no-op without a
    /// mounted tier). Shrinking demotes resident frames to SSD until the
    /// tier fits; a frame whose demotion fails (every SSD directory refuses
    /// the bytes) is evicted outright — a counted, remote-backed exit,
    /// never a silent drop. Pinned frames stay resident: pins outrank
    /// pressure, so a capacity smaller than the pinned set is honoured only
    /// once those pins release.
    pub fn set_memory_capacity(&self, bytes: u64) {
        let Some(mem) = self.mem_dir else { return };
        self.mem_capacity.store(bytes, Ordering::Relaxed);
        // First pass: demote down to the new capacity.
        self.ensure_mem_room(0, SpanId::NONE);
        // Fallback pass: demotion could not free enough (SSD full beyond
        // eviction, or pinned frames in the victim stream) — evict what
        // remains unpinned so the over-capacity invariant holds.
        let mut pinned_skips = 0usize;
        while self.index.bytes_of_dir(mem) > bytes {
            let victim = self.policies[mem].lock().victim();
            let Some(victim) = victim else { return };
            match self.pressure_evict(&victim) {
                DemoteOutcome::Freed | DemoteOutcome::Stale => pinned_skips = 0,
                DemoteOutcome::Pinned => {
                    pinned_skips += 1;
                    if pinned_skips >= self.policies[mem].lock().len() {
                        return; // everything left is pinned
                    }
                }
                DemoteOutcome::Failed => return,
            }
        }
    }

    /// One pressure pass over a memory victim, under its stripe lock:
    /// evicts it outright (cause `mem_pressure`) unless pinned. The stripe
    /// lock is what makes the policy bookkeeping safe against a concurrent
    /// promotion of the same page (see `demote_page`).
    fn pressure_evict(&self, id: &PageId) -> DemoteOutcome {
        let Some(mem) = self.mem_dir else {
            return DemoteOutcome::Failed;
        };
        let _guard = self.stripe(*id).lock();
        let Some(info) = self.index.get(id) else {
            // Raced another exit: retire the stale policy entry here, where
            // no re-insert of this page can be mid-flight.
            self.policies[mem].lock().on_remove(*id);
            return DemoteOutcome::Stale;
        };
        if info.dir != mem {
            self.policies[mem].lock().on_remove(*id);
            return DemoteOutcome::Stale;
        }
        if self.mem_store.as_ref().is_some_and(|s| s.is_pinned(*id)) {
            // Recycle to most-recently-used so the scan moves on.
            let mut guard = self.policies[mem].lock();
            guard.on_remove(*id);
            guard.on_insert(*id);
            return DemoteOutcome::Pinned;
        }
        self.evict_page(id, "mem_pressure");
        DemoteOutcome::Freed
    }

    /// Demotes memory-tier victims until `size` more bytes fit under the
    /// tier's capacity. Must be called while holding **no** stripe lock:
    /// demotion takes the victim's stripe, and stripe locks never nest.
    /// Stops early when nothing more can be freed (all pinned, or SSD
    /// refuses the bytes) — callers then fall back to SSD placement.
    fn ensure_mem_room(&self, size: u64, parent: SpanId) {
        let Some(mem) = self.mem_dir else { return };
        let capacity = self.memory_capacity();
        if size > capacity {
            return; // can never fit; the publish path falls back to SSD
        }
        let mut pinned_skips = 0usize;
        while self.index.bytes_of_dir(mem) + size > capacity {
            let victim = self.policies[mem].lock().victim();
            let Some(victim) = victim else { return };
            // `demote_page` retires stale entries and recycles pinned ones
            // itself, under the victim's stripe lock — doing it here would
            // race a concurrent promotion re-inserting the same page.
            match self.demote_page(&victim, parent) {
                DemoteOutcome::Freed | DemoteOutcome::Stale => {
                    pinned_skips = 0;
                }
                DemoteOutcome::Pinned => {
                    // Give up once a full lap found only pinned frames.
                    pinned_skips += 1;
                    if pinned_skips >= self.policies[mem].lock().len() {
                        return;
                    }
                }
                DemoteOutcome::Failed => return,
            }
        }
    }

    /// Moves one memory-resident page down to SSD — the "demotion, not
    /// eviction" half of the three-tier contract: under pressure a frame's
    /// bytes stay in the hierarchy, one level down. Takes the victim's
    /// stripe lock (callers hold none). A frame that fails its tier-exit
    /// checksum is evicted instead (counted): corrupt DRAM bytes must not
    /// land on SSD wearing a fresh trailer.
    fn demote_page(&self, id: &PageId, parent: SpanId) -> DemoteOutcome {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return DemoteOutcome::Failed;
        };
        let _guard = self.stripe(*id).lock();
        let Some(info) = self.index.get(id) else {
            // Raced another exit: retire the stale policy entry while the
            // stripe is held — a concurrent promotion of this page (which
            // re-inserts the policy entry) also needs this stripe, so the
            // retirement can never clobber a fresh insert.
            self.policies[mem].lock().on_remove(*id);
            return DemoteOutcome::Stale;
        };
        if info.dir != mem {
            self.policies[mem].lock().on_remove(*id);
            return DemoteOutcome::Stale;
        }
        if mem_store.is_pinned(*id) {
            // Recycle to most-recently-used (same stripe-held reasoning) so
            // the pressure scan moves on to the next victim.
            let mut guard = self.policies[mem].lock();
            guard.on_remove(*id);
            guard.on_insert(*id);
            return DemoteOutcome::Pinned;
        }
        let data = match mem_store.verified_full(*id) {
            Ok(data) => data,
            Err(e) => {
                // Checksum mismatch (or the frame vanished): a counted exit
                // through eviction — capacity is restored either way.
                self.metrics.record_error("demote", e.kind());
                self.evict_page(id, "corrupt");
                return DemoteOutcome::Freed;
            }
        };
        let Some(dir) = self.allocator.pick(id.file, info.size) else {
            return DemoteOutcome::Failed;
        };
        let mut span = self.tracer.child(parent, "demote");
        span.annotate("page", *id);
        // Make room on the target SSD directory — the same capacity loop a
        // put runs. SSD victims evicted here hold no stripe lock of their
        // own, so no second stripe is ever taken.
        let capacity = self.allocator.capacity(dir);
        while self.index.bytes_of_dir(dir) + info.size > capacity {
            let victim = self.policies[dir].lock().victim();
            let Some(victim) = victim else {
                span.annotate("status", "no_victim");
                span.finish();
                return DemoteOutcome::Failed;
            };
            if self.evict_page(&victim, "capacity").is_none() {
                self.policies[dir].lock().on_remove(victim);
            }
        }
        match self.stores[dir].put(*id, &data) {
            Ok(()) => {}
            Err(Error::NoSpace) => {
                self.metrics.record_error("put", "no_space");
                self.evict_some(dir, info.size.max(1));
                if let Err(e) = self.stores[dir].put(*id, &data) {
                    self.metrics.record_error("demote", e.kind());
                    span.annotate("status", e.kind());
                    span.finish();
                    return DemoteOutcome::Failed;
                }
            }
            Err(e) => {
                self.metrics.record_error("demote", e.kind());
                span.annotate("status", e.kind());
                span.finish();
                return DemoteOutcome::Failed;
            }
        }
        // Keep `created_ms`: a page's TTL clock does not reset on a tier
        // move — only genuinely new bytes restart the privacy countdown.
        let new_info = PageInfo::new(*id, info.size, info.scope.clone(), dir, info.created_ms);
        if let Some(old) = self.index.insert(new_info) {
            self.policies[old.dir].lock().on_remove(*id);
        }
        self.policies[dir].lock().on_insert(*id);
        if let Err(e) = mem_store.delete(*id) {
            self.metrics.record_error("delete", e.kind());
        }
        self.hot.mem_demotions.inc();
        self.hot.mem_bytes_demoted.add(info.size);
        span.annotate("to_dir", dir);
        span.finish();
        DemoteOutcome::Freed
    }

    /// Moves a just-served SSD-resident page up into the DRAM tier (the
    /// mirror of [`Self::demote_page`]). `data` is the page's freshly read
    /// full payload; the caller holds no stripe lock. Best-effort: any
    /// conflict (raced refresh, no room after demotion) leaves the page
    /// where it is.
    fn promote_to_mem(&self, id: PageId, dir: usize, size: u64, data: &Bytes, parent: SpanId) {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return;
        };
        if data.len() as u64 != size {
            return; // short read: never promote a partial page
        }
        self.ensure_mem_room(size, parent);
        if self.index.bytes_of_dir(mem) + size > self.memory_capacity() {
            return; // could not make room (pinned frames, demotion failure)
        }
        let _guard = self.stripe(id).lock();
        // Re-check under the stripe: a concurrent refresh, eviction, or
        // another promotion may have changed the page since it was served.
        let Some(cur) = self.index.get(&id) else {
            return;
        };
        if cur.dir != dir || cur.size != size {
            return;
        }
        let mut span = self.tracer.child(parent, "promote");
        span.annotate("page", id);
        if let Err(e) = mem_store.put(id, data) {
            self.metrics.record_error("promote", e.kind());
            span.annotate("status", e.kind());
            span.finish();
            return;
        }
        // Keep `created_ms` (see demote_page): TTL survives tier moves.
        let new_info = PageInfo::new(id, cur.size, cur.scope.clone(), mem, cur.created_ms);
        if let Some(old) = self.index.insert(new_info) {
            self.policies[old.dir].lock().on_remove(id);
            // Exclusive hierarchy: the SSD copy moves up, it is not
            // mirrored — delete the lower copy.
            if let Err(e) = self.stores[old.dir].delete(id) {
                self.metrics.record_error("delete", e.kind());
            }
        }
        self.policies[mem].lock().on_insert(id);
        self.hot.mem_promotions.inc();
        self.hot.mem_bytes_promoted.add(size);
        span.annotate("from_dir", dir);
        span.finish();
    }

    /// Reclaims an admission slot consumed by a failed insert: `admit()` is
    /// charged at classify time, so when the page never lands and its
    /// partition holds no pages, the ledger emits no exit event and the slot
    /// would leak. Harmless if a concurrent insert races us — the partition
    /// simply re-admits on its next access.
    fn release_admission_if_vacant(&self, scope: &CacheScope) {
        if matches!(scope, CacheScope::Partition { .. })
            && self.index.ledger().usage(scope).pages == 0
        {
            self.admission.on_scope_exit(scope);
        }
    }

    /// Deletes every cached page of a file (e.g. on HDFS block delete,
    /// §6.2.3). Returns the number of pages removed.
    pub fn delete_file(&self, file: FileId) -> usize {
        let pages = self.index.pages_of_file(file);
        let mut n = 0;
        for id in pages {
            if self.evict_page(&id, "delete").is_some() {
                n += 1;
            }
        }
        n
    }

    /// Deletes every cached page within a scope — the §4.4 bulk operation
    /// ("delete all pages belonging to a certain outdated partition").
    /// Returns the number of pages removed.
    pub fn delete_scope(&self, scope: &CacheScope) -> usize {
        let pages = self.index.pages_of_scope(scope);
        let mut n = 0;
        for id in pages {
            if self.evict_page(&id, "delete").is_some() {
                n += 1;
            }
        }
        n
    }

    /// Evicts pages older than the configured TTL (§4.1's "periodic
    /// background job evicts expired data"). Returns the number evicted.
    pub fn evict_expired(&self) -> usize {
        let Some(ttl) = self.config.ttl else { return 0 };
        let cutoff = self.now_ms().saturating_sub(ttl.as_millis() as u64);
        let expired = self.index.pages_created_before(cutoff);
        let mut n = 0;
        for id in expired {
            if self.evict_page(&id, "ttl").is_some() {
                n += 1;
            }
        }
        n
    }

    /// Rebuilds the index from the stores (cold-start recovery, §4.3).
    fn recover(&self) -> Result<()> {
        for (dir, store) in self.stores.iter().enumerate() {
            // Stores scan directories in filesystem order; sort so recovered
            // pages enter the index and eviction policies in one canonical
            // order (restart determinism for the simulation harness).
            let mut pages = store.recover()?;
            pages.sort_unstable_by_key(|&(id, _)| id);
            for (id, size) in pages {
                // Scope information is not persisted per page; recovered
                // pages are tracked globally (quotas re-apply as new traffic
                // re-tags pages).
                let info = PageInfo::new(id, size, CacheScope::Global, dir, self.now_ms());
                self.index.insert(info);
                self.policies[dir].lock().on_insert(id);
                self.metrics.counter("recovered_pages").inc();
            }
        }
        Ok(())
    }

    /// Wipes the entire cache (used by integrations whose invalidation state
    /// was lost, e.g. a DataNode restart, §6.2.3). Returns pages removed.
    pub fn clear(&self) -> usize {
        self.delete_scope(&CacheScope::Global)
    }

    /// Starts the §4.1 periodic background job that evicts expired data:
    /// a thread calling [`Self::evict_expired`] every `interval`. The job
    /// stops when the returned handle is dropped. No-op thread if no TTL is
    /// configured.
    pub fn start_ttl_janitor(self: &Arc<Self>, interval: Duration) -> TtlJanitor {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let cache = Arc::clone(self);
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("edgecache-ttl-janitor".into())
            .spawn(move || {
                let (flag, wake) = &*signal;
                let mut stopped = flag.lock();
                while !*stopped {
                    // A timed condvar wait instead of a plain sleep: drop
                    // can interrupt it immediately, so the janitor thread is
                    // always joinable without waiting out an interval.
                    if !wake.wait_for(&mut stopped, interval).timed_out() {
                        continue; // Woken: re-check the flag.
                    }
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    cache.evict_expired();
                    stopped = flag.lock();
                }
            })
            .expect("spawn ttl janitor");
        TtlJanitor {
            stop,
            thread: Some(thread),
        }
    }
}

/// What became of one attempted demotion (memory → SSD tier move).
enum DemoteOutcome {
    /// The frame left the memory tier through a counted exit: demoted to
    /// SSD, or — for a corrupt frame — evicted.
    Freed,
    /// The policy's victim is no longer memory-resident (racing eviction or
    /// move): retire the stale entry and redraw.
    Stale,
    /// The frame is pinned; pressure must look elsewhere.
    Pinned,
    /// No SSD directory would take the bytes; stop demoting.
    Failed,
}

/// Finishes a lazily created `eviction` span, annotating how many pages were
/// evicted to make room and how many quota-violation rounds were resolved.
/// No-op when no eviction happened.
fn finish_eviction_span(span: Option<Span>, evicted: u64, quota_rounds: u64) {
    if let Some(mut s) = span {
        s.annotate("evicted", evicted);
        s.annotate("quota_rounds", quota_rounds);
        s.finish();
    }
}

/// Handle for the TTL background job; dropping it stops **and joins** the
/// thread. Joining (rather than detaching) matters to embedders that start
/// and stop caches repeatedly in one process — a network server restarting
/// its `CacheManager`, a test loop — where every detached janitor would be
/// a leaked thread still holding an `Arc<CacheManager>`.
pub struct TtlJanitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for TtlJanitor {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock() = true;
        wake.notify_all();
        if let Some(t) = self.thread.take() {
            // The janitor wakes immediately off the condvar (it is never in
            // a plain sleep), so the join is prompt even mid-interval.
            let _ = t.join();
        }
    }
}

/// A tiny I/O pool that runs closures with a deadline, implementing the §8
/// read-hang fallback without blocking request threads indefinitely.
struct IoPool {
    /// `Some` for the pool's whole life; taken (closing the channel) by
    /// `Drop` so the workers' `recv` loops end and the joins below return.
    sender: Option<Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IoPool {
    fn new(threads: usize) -> Self {
        let (sender, receiver) = unbounded::<Box<dyn FnOnce() + Send>>();
        let workers = (0..threads)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("edgecache-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn io worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    fn sender(&self) -> &Sender<Box<dyn FnOnce() + Send>> {
        self.sender.as_ref().expect("io pool alive")
    }

    /// Runs a batch of borrowed jobs on the pool and blocks until every one
    /// has finished (or unwound). The barrier is what makes lending stack
    /// borrows to pool workers sound: no job can outlive this call.
    fn run_scoped(&self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        let pending = Arc::new((Mutex::new(jobs.len()), Condvar::new()));
        for job in jobs {
            // SAFETY: both sides of the transmute are the same fat pointer;
            // only the lifetime bound is erased. The wait loop below does
            // not return until this job has run to completion, so every
            // borrow it captures strictly outlives its execution.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let pending = Arc::clone(&pending);
            let wrapped: Box<dyn FnOnce() + Send> = Box::new(move || {
                // A panicking remote must not kill the pool worker or
                // strand the barrier; the caller sees the missing result.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                let (count, done) = &*pending;
                *count.lock() -= 1;
                done.notify_all();
                if let Err(payload) = outcome {
                    drop(payload);
                }
            });
            if let Err(SendError(job)) = self.sender().send(wrapped) {
                // Pool shut down: run the job inline.
                job();
            }
        }
        let (count, done) = &*pending;
        let mut left = count.lock();
        while *left > 0 {
            done.wait(&mut left);
        }
    }

    /// Runs `f` on the pool; errors with [`Error::Timeout`] if no result
    /// arrives within `deadline`. The abandoned job finishes in the
    /// background (its result is discarded), mirroring a hung `read_file`.
    fn run_with_deadline<T: Send + 'static>(
        &self,
        deadline: Duration,
        f: impl FnOnce() -> Result<T> + Send + 'static,
    ) -> Result<T> {
        let (tx, rx) = bounded(1);
        self.sender()
            .send(Box::new(move || {
                let _ = tx.send(f());
            }))
            .map_err(|_| Error::Other("io pool shut down".into()))?;
        match rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(Error::Timeout {
                op: "read_file",
                waited_ms: deadline.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Other("io worker dropped result".into()))
            }
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Close the channel so every worker's `recv` loop ends, then join.
        // Detaching here would leak `io_threads + max_concurrent_fetches`
        // threads per dropped `CacheManager` — fatal for embedders that
        // restart caches in-process (the network server's start/stop path).
        // In-flight jobs run to completion before their worker exits, so a
        // drop during I/O waits for that I/O rather than abandoning it.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{
        FilterRule, FilterRuleAdmission, FilterRuleSet, SlidingWindowAdmission,
    };
    use crate::config::EvictionPolicyKind;
    use edgecache_pagestore::{FaultPlan, FaultyStore, MemoryPageStore};
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashMap;

    /// A scripted remote: serves deterministic bytes and counts reads.
    struct ScriptedRemote {
        reads: PlMutex<Vec<(String, u64, u64)>>,
        files: PlMutex<HashMap<String, Vec<u8>>>,
    }

    impl ScriptedRemote {
        fn new() -> Self {
            Self {
                reads: PlMutex::new(Vec::new()),
                files: PlMutex::new(HashMap::new()),
            }
        }

        fn with_file(self, path: &str, data: Vec<u8>) -> Self {
            self.files.lock().insert(path.to_string(), data);
            self
        }

        fn read_count(&self) -> usize {
            self.reads.lock().len()
        }

        /// The `(offset, len)` of every read so far, sorted: the request
        /// multiset, independent of the order concurrent fetches ran in.
        fn requested_ranges(&self) -> Vec<(u64, u64)> {
            let mut ranges: Vec<(u64, u64)> =
                self.reads.lock().iter().map(|(_, o, l)| (*o, *l)).collect();
            ranges.sort_unstable();
            ranges
        }

        fn bytes_served(&self) -> u64 {
            self.reads.lock().iter().map(|(_, _, l)| l).sum()
        }
    }

    impl RemoteSource for ScriptedRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            let files = self.files.lock();
            let data = files
                .get(path)
                .ok_or_else(|| Error::NotFound(path.to_string()))?;
            let start = (offset as usize).min(data.len());
            let end = ((offset + len) as usize).min(data.len());
            self.reads
                .lock()
                .push((path.to_string(), offset, (end - start) as u64));
            Ok(Bytes::copy_from_slice(&data[start..end]))
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn small_cache(page_size: u64, capacity: u64) -> CacheManager {
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(page_size)))
            .with_store(Arc::new(MemoryPageStore::new()), capacity)
            .build()
            .unwrap()
    }

    fn file(path: &str, len: u64) -> SourceFile {
        SourceFile::new(path, 1, len, CacheScope::partition("s", "t", "p"))
    }

    #[test]
    fn read_through_then_hit() {
        let cache = small_cache(1024, 1 << 20);
        let data = pattern(4000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 4000);

        let got = cache.read(&f, 100, 500, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[100..600]);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let got = cache.read(&f, 100, 500, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[100..600]);
        assert_eq!(cache.stats().hits, 1);
        // Only the first read touched the remote, at page granularity.
        assert_eq!(remote.read_count(), 1);
        assert_eq!(remote.bytes_served(), 1024);
    }

    #[test]
    fn multi_page_read_spans_pages() {
        let cache = small_cache(1000, 1 << 20);
        let data = pattern(5000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 5000);

        let got = cache.read(&f, 500, 3000, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[500..3500]);
        // Pages 0..=3 were all missing and adjacent: one coalesced request.
        assert_eq!(remote.read_count(), 1);
        assert_eq!(remote.bytes_served(), 4000);
        assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 3);
        // Second read of the same span is all hits.
        cache.read(&f, 500, 3000, &remote).unwrap();
        assert_eq!(remote.read_count(), 1);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn read_past_eof_is_clamped() {
        let cache = small_cache(1024, 1 << 20);
        let data = pattern(100);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 100);
        let got = cache.read(&f, 50, 500, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[50..]);
        assert!(cache.read(&f, 200, 10, &remote).unwrap().is_empty());
        assert!(cache.read(&f, 0, 0, &remote).unwrap().is_empty());
    }

    #[test]
    fn version_change_invalidates() {
        let cache = small_cache(1024, 1 << 20);
        let remote = ScriptedRemote::new().with_file("/f", pattern(100));
        let v1 = SourceFile::new("/f", 1, 100, CacheScope::Global);
        let v2 = SourceFile::new("/f", 2, 100, CacheScope::Global);
        cache.read(&v1, 0, 100, &remote).unwrap();
        cache.read(&v2, 0, 100, &remote).unwrap();
        // Different versions are distinct cache entries.
        assert_eq!(remote.read_count(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capacity_eviction_lru() {
        // Capacity of 3 pages; touch 4 distinct pages.
        let cache = small_cache(100, 300);
        let remote = ScriptedRemote::new().with_file("/f", pattern(400));
        let f = file("/f", 400);
        for page in 0..4u64 {
            cache.read(&f, page * 100, 100, &remote).unwrap();
        }
        assert_eq!(cache.index().len(), 3);
        assert_eq!(cache.metrics().counter("evictions.capacity").get(), 1);
        // Page 0 was least recently used → evicted → re-reading it misses.
        cache.read(&f, 0, 100, &remote).unwrap();
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn eviction_respects_policy_kind() {
        // FIFO with capacity 2 pages: access page 0 repeatedly, it still
        // goes first.
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_eviction(EvictionPolicyKind::Fifo),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 200)
        .build()
        .unwrap();
        let remote = ScriptedRemote::new().with_file("/f", pattern(300));
        let f = file("/f", 300);
        cache.read(&f, 0, 100, &remote).unwrap();
        cache.read(&f, 100, 100, &remote).unwrap();
        cache.read(&f, 0, 100, &remote).unwrap(); // Hit; FIFO unaffected.
        cache.read(&f, 200, 100, &remote).unwrap(); // Evicts page 0.
        assert!(!cache.contains(&f, 0));
        assert!(cache.contains(&f, 1));
        assert!(cache.contains(&f, 2));
    }

    #[test]
    fn admission_rejection_reads_exact_range() {
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_admission(Arc::new(SlidingWindowAdmission::per_minute(10, 3)))
                .build()
                .unwrap();
        let remote = ScriptedRemote::new().with_file("/f", pattern(2048));
        let f = file("/f", 2048);
        // First two accesses are not admitted: remote serves only 10 bytes.
        cache.read(&f, 0, 10, &remote).unwrap();
        assert_eq!(remote.bytes_served(), 10);
        cache.read(&f, 0, 10, &remote).unwrap();
        assert_eq!(remote.bytes_served(), 20);
        assert_eq!(cache.metrics().counter("admission_rejected").get(), 2);
        // Third access crosses the threshold: full page cached.
        cache.read(&f, 0, 10, &remote).unwrap();
        assert_eq!(remote.bytes_served(), 20 + 1024);
        assert!(cache.contains(&f, 0));
    }

    #[test]
    fn quota_partition_eviction() {
        let scope = CacheScope::partition("s", "t", "p");
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_quota(scope.clone(), ByteSize::new(250))
                .build()
                .unwrap();
        let remote = ScriptedRemote::new().with_file("/f", pattern(1000));
        let f = file("/f", 1000);
        for page in 0..5u64 {
            cache.read(&f, page * 100, 100, &remote).unwrap();
        }
        // Quota allows 2 pages (250 bytes); eviction kept usage compliant.
        assert!(cache.index().bytes_of_scope(&scope) <= 250);
        assert!(cache.metrics().counter("evictions.quota").get() >= 3);
    }

    #[test]
    fn quota_table_random_eviction_spreads() {
        let table = CacheScope::table("s", "t");
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_quota(table.clone(), ByteSize::new(500))
                .build()
                .unwrap();
        // Two partitions, ten pages each: table quota forces eviction across
        // partitions.
        for (i, part) in ["p1", "p2"].iter().enumerate() {
            let remote = ScriptedRemote::new().with_file(&format!("/f{i}"), pattern(1000));
            let f = SourceFile::new(
                format!("/f{i}"),
                1,
                1000,
                CacheScope::partition("s", "t", part),
            );
            for page in 0..10u64 {
                cache.read(&f, page * 100, 100, &remote).unwrap();
            }
        }
        assert!(cache.index().bytes_of_scope(&table) <= 500);
        cache.index().check_consistency().unwrap();
    }

    /// A `maxCachedPartitions` cap on table `t`, with everything else
    /// admitted freely.
    fn partition_cap(table: &str, max: usize) -> Arc<FilterRuleAdmission> {
        Arc::new(FilterRuleAdmission::new(FilterRuleSet {
            rules: vec![FilterRule {
                schema: "*".into(),
                table: table.into(),
                max_cached_partitions: Some(max),
            }],
            default_admit: true,
        }))
    }

    fn part_file(path: &str, len: u64, partition: &str) -> SourceFile {
        SourceFile::new(path, 1, len, CacheScope::partition("s", "t", partition))
    }

    #[test]
    fn multi_scope_quota_violations_resolved_in_one_put() {
        // One put violates its partition quota AND leaves the table quota
        // violated after the partition round; both must be resolved instead
        // of returning QuotaExceeded after the first.
        let part = CacheScope::partition("s", "t", "p");
        let table = CacheScope::table("s", "t");
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_quota(part.clone(), ByteSize::new(200))
                .with_quota(table.clone(), ByteSize::new(250))
                .build()
                .unwrap();
        let fq = SourceFile::new("/q", 1, 1000, CacheScope::partition("s", "t", "q"));
        let fp = SourceFile::new("/p", 1, 1000, part.clone());
        cache.put_page(&fq, 0, &pattern(60)).unwrap(); // t = 60
        cache.put_page(&fp, 0, &pattern(95)).unwrap(); // p = 95, t = 155
        cache.put_page(&fp, 1, &pattern(95)).unwrap(); // p = 190, t = 250
                                                       // Partition round evicts down to 100 (frees 95), after which the
                                                       // table still sits at 255 with the new page — a second round.
        cache.put_page(&fp, 2, &pattern(100)).unwrap();
        assert!(cache.index().bytes_of_scope(&part) <= 200);
        assert!(cache.index().bytes_of_scope(&table) <= 250);
        assert!(cache.metrics().counter("evictions.quota").get() >= 2);
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn refresh_keeps_one_policy_entry() {
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(1024))
                .with_eviction(EvictionPolicyKind::Fifo),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .build()
        .unwrap();
        let f = file("/f", 4000);
        cache.put_page(&f, 0, &pattern(100)).unwrap();
        cache.put_page(&f, 0, &pattern(120)).unwrap();
        assert_eq!(cache.index().len(), 1);
        assert_eq!(cache.index().total_bytes(), 120);
        // The refresh must retire the old policy entry before re-inserting,
        // or the FIFO queue holds the page twice.
        assert_eq!(cache.policies[0].lock().len(), 1);
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn refresh_into_other_dir_deletes_stale_copy() {
        let store0 = Arc::new(MemoryPageStore::new());
        let store1 = Arc::new(MemoryPageStore::new());
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::clone(&store0) as Arc<dyn PageStore>, 200)
                .with_store(Arc::clone(&store1) as Arc<dyn PageStore>, 10_000)
                .build()
                .unwrap();
        // A file whose affinity directory is the small dir 0.
        let f = (0..100)
            .map(|i| file(&format!("/f{i}"), 1000))
            .find(|f| cache.allocator.affinity_dir(f.file_id()) == 0)
            .expect("some file maps to dir 0");
        let id = PageId::new(f.file_id(), 0);
        cache.put_page(&f, 0, &pattern(100)).unwrap();
        assert_eq!(cache.index().get(&id).unwrap().dir, 0);
        // The refreshed copy no longer fits dir 0: the allocator falls back
        // to dir 1, and the dir-0 residency must be cleaned up with it.
        cache.put_page(&f, 0, &pattern(500)).unwrap();
        assert_eq!(cache.index().get(&id).unwrap().dir, 1);
        assert!(
            store0.get(id, 0, 1).is_err(),
            "old copy must not stay stranded in dir 0"
        );
        assert_eq!(cache.policies[0].lock().len(), 0);
        assert_eq!(cache.policies[1].lock().len(), 1);
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn churn_readmits_partitions_after_purge() {
        // The acceptance-criteria churn scenario: fill the table to its
        // partition cap, purge those partitions, then insert fresh ones —
        // the fresh partitions must be admitted (slots were leaked on main).
        let admission = partition_cap("t", 2);
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_admission(admission.clone())
                .build()
                .unwrap();
        for (i, part) in ["p1", "p2"].iter().enumerate() {
            let remote = ScriptedRemote::new().with_file(&format!("/f{i}"), pattern(100));
            let f = part_file(&format!("/f{i}"), 100, part);
            cache.read(&f, 0, 100, &remote).unwrap();
            assert!(cache.contains(&f, 0));
        }
        // Cap reached: a third partition is bypassed.
        let remote3 = ScriptedRemote::new().with_file("/f3", pattern(100));
        let f3 = part_file("/f3", 100, "p3");
        cache.read(&f3, 0, 100, &remote3).unwrap();
        assert!(!cache.contains(&f3, 0));
        // Purge p1 and p2: their residency drops to zero, the ledger fires
        // exits, and both admission slots come back.
        cache.delete_scope(&CacheScope::partition("s", "t", "p1"));
        cache.delete_scope(&CacheScope::partition("s", "t", "p2"));
        for (i, part) in ["p3", "p4"].iter().enumerate() {
            let path = format!("/g{i}");
            let remote = ScriptedRemote::new().with_file(&path, pattern(100));
            let f = part_file(&path, 100, part);
            cache.read(&f, 0, 100, &remote).unwrap();
            assert!(cache.contains(&f, 0), "fresh partition {part} rejected");
        }
        let snapshot = admission.admitted_snapshot();
        let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
        assert_eq!(admitted.len(), 2);
        assert!(admitted.contains("p3") && admitted.contains("p4"));
    }

    #[test]
    fn capacity_eviction_releases_admission_slot() {
        let admission = partition_cap("t", 1);
        // Room for exactly one page: caching anything else evicts.
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 100)
                .with_admission(admission)
                .build()
                .unwrap();
        let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
        cache
            .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
            .unwrap();
        // An uncapped table's page evicts p1's only page: the slot frees.
        let ru = ScriptedRemote::new().with_file("/u", pattern(100));
        let fu = SourceFile::new("/u", 1, 100, CacheScope::partition("s", "u", "q"));
        cache.read(&fu, 0, 100, &ru).unwrap();
        let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
        let f2 = part_file("/f2", 100, "p2");
        cache.read(&f2, 0, 100, &r2).unwrap();
        assert!(cache.contains(&f2, 0), "capacity eviction leaked the slot");
    }

    #[test]
    fn quota_eviction_releases_admission_slot() {
        let admission = partition_cap("t", 2);
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_admission(admission.clone())
                .with_quota(CacheScope::table("s", "t"), ByteSize::new(100))
                .build()
                .unwrap();
        let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
        cache
            .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
            .unwrap();
        // p2's page violates the table quota and evicts p1's only page.
        let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
        cache
            .read(&part_file("/f2", 100, "p2"), 0, 100, &r2)
            .unwrap();
        // p1's slot came back, so a third partition fits under the cap of 2.
        let r3 = ScriptedRemote::new().with_file("/f3", pattern(100));
        let f3 = part_file("/f3", 100, "p3");
        cache.read(&f3, 0, 100, &r3).unwrap();
        assert!(cache.contains(&f3, 0), "quota eviction leaked the slot");
        let snapshot = admission.admitted_snapshot();
        let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
        assert!(!admitted.contains("p1"));
    }

    #[test]
    fn ttl_expiry_releases_admission_slot() {
        let clock = Arc::new(edgecache_common::SimClock::new());
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_ttl(Duration::from_secs(60)),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_admission(partition_cap("t", 1))
        .with_clock(clock.clone())
        .build()
        .unwrap();
        let r1 = ScriptedRemote::new().with_file("/f1", pattern(100));
        cache
            .read(&part_file("/f1", 100, "p1"), 0, 100, &r1)
            .unwrap();
        clock.advance(Duration::from_secs(70));
        assert_eq!(cache.evict_expired(), 1);
        let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
        let f2 = part_file("/f2", 100, "p2");
        cache.read(&f2, 0, 100, &r2).unwrap();
        assert!(cache.contains(&f2, 0), "TTL expiry leaked the slot");
    }

    #[test]
    fn corruption_eviction_cycles_the_ledger() {
        let plan = FaultPlan::none();
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let admission = partition_cap("t", 1);
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(store, 1 << 20)
                .with_admission(admission.clone())
                .build()
                .unwrap();
        let data = pattern(100);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = part_file("/f", 100, "p1");
        cache.read(&f, 0, 100, &remote).unwrap();
        plan.corrupt_page(PageId::new(f.file_id(), 0));
        // Corruption eviction empties p1 (exit, slot released), then the
        // refetch re-admits it (enter): the ledger sees the full cycle.
        let got = cache.read(&f, 0, 100, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(cache.metrics().counter("ledger.enters").get(), 2);
        assert_eq!(cache.metrics().counter("ledger.exits").get(), 1);
        let snapshot = admission.admitted_snapshot();
        let admitted = snapshot.get(&("s".to_string(), "t".to_string())).unwrap();
        assert_eq!(admitted.len(), 1);
        assert!(admitted.contains("p1"));
    }

    #[test]
    fn failed_fetch_releases_vacant_admission() {
        let admission = partition_cap("t", 1);
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_admission(admission)
                .build()
                .unwrap();
        // p1 is admitted at classify time, but its remote read fails: no
        // page lands, so the slot must be handed back.
        let empty = ScriptedRemote::new();
        assert!(cache
            .read(&part_file("/f1", 100, "p1"), 0, 100, &empty)
            .is_err());
        let r2 = ScriptedRemote::new().with_file("/f2", pattern(100));
        let f2 = part_file("/f2", 100, "p2");
        cache.read(&f2, 0, 100, &r2).unwrap();
        assert!(cache.contains(&f2, 0), "failed fetch leaked the slot");
    }

    #[test]
    fn ledger_counts_partition_lifecycle() {
        let cache = small_cache(100, 1 << 20);
        let remote = ScriptedRemote::new().with_file("/f", pattern(200));
        let f = file("/f", 200);
        cache.read(&f, 0, 200, &remote).unwrap();
        assert_eq!(cache.metrics().counter("ledger.enters").get(), 1);
        assert_eq!(cache.metrics().counter("ledger.exits").get(), 0);
        assert_eq!(cache.index().ledger().live_partitions().len(), 1);
        cache.delete_file(f.file_id());
        assert_eq!(cache.metrics().counter("ledger.exits").get(), 1);
        assert!(cache.index().ledger().live_partitions().is_empty());
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn corrupted_page_is_evicted_and_refetched() {
        let plan = FaultPlan::none();
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(store, 1 << 20)
                .build()
                .unwrap();
        let data = pattern(100);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 100);
        cache.read(&f, 0, 100, &remote).unwrap();
        plan.corrupt_page(PageId::new(f.file_id(), 0));
        // The read still succeeds (early evict + refetch) and the page is
        // re-cached cleanly.
        let got = cache.read(&f, 0, 100, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
        let got = cache.read(&f, 0, 100, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn device_enospc_triggers_early_eviction() {
        let plan = FaultPlan::none();
        // Device truly holds 250 bytes although the cache believes 1000.
        plan.set_device_capacity(250);
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(store, 1000)
                .build()
                .unwrap();
        let remote = ScriptedRemote::new().with_file("/f", pattern(500));
        let f = file("/f", 500);
        for page in 0..5u64 {
            cache.read(&f, page * 100, 100, &remote).unwrap();
        }
        // All reads succeeded; early eviction kept the device within bounds.
        assert!(cache.index().total_bytes() <= 250);
        assert!(cache.metrics().counter("evictions.no_space").get() >= 1);
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn read_timeout_falls_back_to_remote() {
        let plan = FaultPlan::none();
        plan.set_read_hang(Duration::from_millis(200), 1);
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_read_timeout(Duration::from_millis(20)),
        )
        .with_store(store, 1 << 20)
        .build()
        .unwrap();
        let data = pattern(100);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 100);
        cache.read(&f, 0, 100, &remote).unwrap(); // Miss: cached.
        let got = cache.read(&f, 0, 100, &remote).unwrap(); // Hit hangs → remote.
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(cache.metrics().counter("fallbacks.timeout").get(), 1);
        // The page is still cached (fallback does not evict).
        assert!(cache.contains(&f, 0));
    }

    #[test]
    fn ttl_evicts_expired_pages() {
        let clock = Arc::new(edgecache_common::SimClock::new());
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_ttl(Duration::from_secs(60)),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .with_clock(clock.clone())
        .build()
        .unwrap();
        let remote = ScriptedRemote::new().with_file("/f", pattern(200));
        let f = file("/f", 200);
        cache.read(&f, 0, 100, &remote).unwrap();
        clock.advance(Duration::from_secs(30));
        cache.read(&f, 100, 100, &remote).unwrap();
        clock.advance(Duration::from_secs(40)); // Page 0 is now 70 s old.
        assert_eq!(cache.evict_expired(), 1);
        assert!(!cache.contains(&f, 0));
        assert!(cache.contains(&f, 1));
        assert_eq!(cache.metrics().counter("evictions.ttl").get(), 1);
    }

    #[test]
    fn ttl_janitor_evicts_in_background() {
        let cache = Arc::new(
            CacheManager::builder(
                CacheConfig::default()
                    .with_page_size(ByteSize::new(100))
                    .with_ttl(Duration::from_millis(30)),
            )
            .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
            .build()
            .unwrap(),
        );
        let remote = ScriptedRemote::new().with_file("/f", pattern(100));
        cache.read(&file("/f", 100), 0, 100, &remote).unwrap();
        let _janitor = cache.start_ttl_janitor(Duration::from_millis(10));
        // The page expires after 30 ms; the janitor should reap it shortly.
        // The eviction leaves the index before it is counted, so wait for
        // both.
        let reaped =
            || cache.index().is_empty() && cache.metrics().counter("evictions.ttl").get() >= 1;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !reaped() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(cache.index().len(), 0, "janitor reaped the expired page");
        assert!(cache.metrics().counter("evictions.ttl").get() >= 1);
    }

    #[test]
    fn delete_scope_bulk_removes_partition() {
        let cache = small_cache(100, 1 << 20);
        let remote = ScriptedRemote::new()
            .with_file("/a", pattern(300))
            .with_file("/b", pattern(300));
        let fa = SourceFile::new("/a", 1, 300, CacheScope::partition("s", "t", "2024-01-01"));
        let fb = SourceFile::new("/b", 1, 300, CacheScope::partition("s", "t", "2024-01-02"));
        cache.read(&fa, 0, 300, &remote).unwrap();
        cache.read(&fb, 0, 300, &remote).unwrap();
        assert_eq!(cache.index().len(), 6);
        let removed = cache.delete_scope(&CacheScope::partition("s", "t", "2024-01-01"));
        assert_eq!(removed, 3);
        assert_eq!(cache.index().len(), 3);
        assert!(!cache.contains(&fa, 0));
        assert!(cache.contains(&fb, 0));
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn delete_file_removes_all_its_pages() {
        let cache = small_cache(100, 1 << 20);
        let remote = ScriptedRemote::new().with_file("/a", pattern(250));
        let f = file("/a", 250);
        cache.read(&f, 0, 250, &remote).unwrap();
        assert_eq!(cache.delete_file(f.file_id()), 3);
        assert_eq!(cache.index().len(), 0);
    }

    #[test]
    fn recovery_restores_hits() {
        let dir =
            std::env::temp_dir().join(format!("edgecache-mgr-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = pattern(300);
        {
            let store = Arc::new(
                edgecache_pagestore::LocalPageStore::open(
                    &dir,
                    edgecache_pagestore::LocalStoreConfig {
                        page_size: 100,
                        ..Default::default()
                    },
                )
                .unwrap(),
            );
            let cache =
                CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                    .with_store(store, 1 << 20)
                    .build()
                    .unwrap();
            let remote = ScriptedRemote::new().with_file("/a", data.clone());
            cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
        }
        // New process: recover from disk.
        let store = Arc::new(
            edgecache_pagestore::LocalPageStore::open(
                &dir,
                edgecache_pagestore::LocalStoreConfig {
                    page_size: 100,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(store, 1 << 20)
                .with_recovery()
                .build()
                .unwrap();
        assert_eq!(cache.metrics().counter("recovered_pages").get(), 3);
        let remote = ScriptedRemote::new().with_file("/a", data.clone());
        let got = cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(remote.read_count(), 0, "everything served from recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_wipes_everything() {
        let cache = small_cache(100, 1 << 20);
        let remote = ScriptedRemote::new().with_file("/a", pattern(300));
        cache.read(&file("/a", 300), 0, 300, &remote).unwrap();
        assert_eq!(cache.clear(), 3);
        assert!(cache.index().is_empty());
    }

    #[test]
    fn builder_without_store_fails() {
        assert!(CacheManager::builder(CacheConfig::default())
            .build()
            .is_err());
    }

    #[test]
    fn multiple_directories_spread_files() {
        let cache =
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(100)))
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .build()
                .unwrap();
        let remote = ScriptedRemote::new();
        for i in 0..30 {
            let path = format!("/file-{i}");
            remote.files.lock().insert(path.clone(), pattern(100));
            let f = SourceFile::new(path, 1, 100, CacheScope::Global);
            cache.read(&f, 0, 100, &remote).unwrap();
        }
        let dirs_used = (0..3)
            .filter(|&d| cache.index().bytes_of_dir(d) > 0)
            .count();
        assert!(dirs_used >= 2, "files should spread over directories");
        cache.index().check_consistency().unwrap();
    }

    #[test]
    fn concurrent_reads_are_consistent() {
        let cache = Arc::new(small_cache(256, 1 << 20));
        let data = pattern(4096);
        let remote = Arc::new(ScriptedRemote::new().with_file("/f", data.clone()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            let data = data.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let off = (t * 131 + i * 67) % 4000;
                    let len = 96.min(4096 - off);
                    let f = file("/f", 4096);
                    let got = cache.read(&f, off, len, remote.as_ref()).unwrap();
                    assert_eq!(got.as_ref(), &data[off as usize..(off + len) as usize]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        cache.index().check_consistency().unwrap();
        // Each request touches one or two pages (reads may straddle a page
        // boundary), so page-level accesses land in [400, 800].
        let stats = cache.stats();
        assert!((400..=800).contains(&(stats.hits + stats.misses)));
    }

    /// A remote that blocks every fetch on a gate until released, counting
    /// requests. Lets a test hold a fetch in flight while other readers pile
    /// up behind the single-flight latch.
    struct GatedRemote {
        data: Vec<u8>,
        gate: PlMutex<bool>,
        opened: Condvar,
        requests: AtomicU64,
    }

    impl GatedRemote {
        fn new(data: Vec<u8>) -> Self {
            Self {
                data,
                gate: PlMutex::new(false),
                opened: Condvar::new(),
                requests: AtomicU64::new(0),
            }
        }

        fn open_gate(&self) {
            *self.gate.lock() = true;
            self.opened.notify_all();
        }

        fn serve(&self, offset: u64, len: u64) -> Bytes {
            let start = (offset as usize).min(self.data.len());
            let end = ((offset + len) as usize).min(self.data.len());
            Bytes::copy_from_slice(&self.data[start..end])
        }
    }

    impl RemoteSource for GatedRemote {
        fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
            self.read_ranges(path, &[(offset, len)])
                .map(|mut v| v.pop().unwrap())
        }

        fn read_ranges(&self, _path: &str, ranges: &[(u64, u64)]) -> Result<Vec<Bytes>> {
            // Relaxed: the test reads this only after thread::join, which
            // already synchronizes-with everything the workers did.
            self.requests.fetch_add(1, Ordering::Relaxed);
            let mut open = self.gate.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
            Ok(ranges.iter().map(|&(o, l)| self.serve(o, l)).collect())
        }
    }

    #[test]
    fn single_flight_dedups_concurrent_misses() {
        let cache = Arc::new(small_cache(1024, 1 << 20));
        let data = pattern(1024);
        let remote = Arc::new(GatedRemote::new(data.clone()));

        let mut handles = Vec::new();
        for _ in 0..32 {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            handles.push(std::thread::spawn(move || {
                cache
                    .read(&file("/f", 1024), 0, 1024, remote.as_ref())
                    .unwrap()
            }));
        }

        // One thread owns the (gated) fetch; the other 31 must register as
        // in-flight waiters before we let the fetch complete.
        let waits = cache.metrics().counter("fetch.inflight_waits");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while waits.get() < 31 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(waits.get(), 31, "31 readers joined the in-flight fetch");
        remote.open_gate();

        for h in handles {
            assert_eq!(h.join().unwrap().as_ref(), &data[..]);
        }
        // Exactly one remote request despite 32 concurrent cold readers.
        assert_eq!(remote.requests.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 32, "waiters count as misses");
        assert_eq!(cache.metrics().counter("remote_requests").get(), 1);
    }

    #[test]
    fn hit_hammer_32_threads_loses_no_counts() {
        const THREADS: usize = 32;
        const ITERS: usize = 2_000;
        const PAGE: u64 = 1024;
        const PAGES: usize = 8;

        let cache = Arc::new(small_cache(PAGE, 1 << 20));
        let data = pattern((PAGES as u64 * PAGE) as usize);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", PAGES as u64 * PAGE);

        // Warm every page, then freeze the remote out of the picture: the
        // hammer phase below must be served entirely from cache.
        cache.read(&f, 0, PAGES as u64 * PAGE, &remote).unwrap();
        let warm_hits = cache.stats().hits;
        let warm_misses = cache.stats().misses;
        let warm_bytes = cache.metrics().counter("bytes_from_cache").get();
        let warm_reads = remote.read_count();

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let data = data.clone();
                std::thread::spawn(move || {
                    let remote = NeverRemote;
                    for i in 0..ITERS {
                        let page = (t * 7 + i) % PAGES;
                        let off = page as u64 * PAGE;
                        let got = cache.read(&file("/f", PAGES as u64 * PAGE), off, PAGE, &remote);
                        assert_eq!(
                            got.unwrap().as_ref(),
                            &data[off as usize..(off + PAGE) as usize]
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Every access was a fast-path hit and every one was counted: the
        // Relaxed per-entry counters and the striped hot counters lose
        // nothing under contention.
        let total = (THREADS * ITERS) as u64;
        assert_eq!(cache.stats().hits - warm_hits, total, "no lost hit counts");
        assert_eq!(
            cache.metrics().counter("hits.slow_path").get(),
            0,
            "pure-hit load never fell back to the stripe-locked path"
        );
        assert_eq!(
            cache.stats().misses,
            warm_misses,
            "hammer phase produced no misses"
        );
        assert_eq!(remote.read_count(), warm_reads, "remote untouched");
        // Byte conservation: each iteration served exactly one page from
        // cache, so bytes_from_cache advanced by threads * iters * page.
        assert_eq!(
            cache.metrics().counter("bytes_from_cache").get() - warm_bytes,
            total * PAGE,
            "bytes served from cache match bytes requested"
        );
        cache.index().check_consistency().unwrap();
        cache.check_policy_coherence().unwrap();
    }

    /// A remote that panics if contacted — used to prove a phase is pure-hit.
    struct NeverRemote;
    impl RemoteSource for NeverRemote {
        fn read(&self, path: &str, _offset: u64, _len: u64) -> Result<Bytes> {
            panic!("remote contacted during pure-hit phase: {path}");
        }
    }

    #[test]
    fn remote_requests_count_runs_not_pages() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Pre-seed pages 2 and 6, splitting the miss span into three runs:
        // pages [0,1], [3,4,5], [7,8,9].
        cache.read(&f, 200, 100, &remote).unwrap();
        cache.read(&f, 600, 100, &remote).unwrap();
        remote.reads.lock().clear();

        let got = cache.read(&f, 0, 1000, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert_eq!(
            remote.read_count(),
            3,
            "one request per run of missing pages"
        );
        // The fetch pool issues the runs concurrently, so only the set of
        // requests is a contract, not their order.
        assert_eq!(
            remote.requested_ranges(),
            vec![(0, 200), (300, 300), (700, 300)]
        );
        // 2 + 3 + 3 pages fetched by 3 requests: 5 pages saved.
        assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 5);
    }

    #[test]
    fn publishes_land_in_ascending_page_order() {
        // Four pages fill the cache exactly; LRU evicts in insertion order.
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_eviction(EvictionPolicyKind::Lru),
        )
        .with_store(Arc::new(MemoryPageStore::new()), 400)
        .build()
        .unwrap();
        let data = pattern(1100);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1100);

        // Four separate runs, fetched concurrently in whatever order the
        // pool finishes them, must still be published in page order.
        let frags = [(600u64, 100u64), (0, 100), (400, 100), (200, 100)];
        cache.read_multi(&f, &frags, &remote).unwrap();
        // Each further page squeezes out the oldest publish.
        for (next, victim) in [(8u64, 0u64), (9, 2), (10, 4)] {
            cache.read(&f, next * 100, 100, &remote).unwrap();
            assert!(!cache.contains(&f, victim), "page {victim} evicted first");
            assert!(cache.contains(&f, 6), "page 6 was published last");
        }
    }

    #[test]
    fn corrupted_hit_repair_joins_single_flight() {
        let plan = FaultPlan::none();
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache = Arc::new(
            CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                .with_store(store, 1 << 20)
                .build()
                .unwrap(),
        );
        let data = pattern(1024);
        let f = file("/f", 1024);
        let origin = ScriptedRemote::new().with_file("/f", data.clone());
        cache.read(&f, 0, 1024, &origin).unwrap();
        plan.corrupt_page(PageId::new(f.file_id(), 0));

        let remote = Arc::new(GatedRemote::new(data.clone()));
        let reader = || {
            let cache = Arc::clone(&cache);
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || {
                cache
                    .read(&file("/f", 1024), 0, 1024, remote.as_ref())
                    .unwrap()
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // The first reader's hit fails its checksum; its repair fetch owns a
        // single-flight latch and blocks at the gate.
        let first = reader();
        while cache.inflight_fetches() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(cache.inflight_fetches(), 1, "the repair fetch is in flight");
        // A second reader of the page joins that fetch instead of issuing
        // its own.
        let waits = cache.metrics().counter("fetch.inflight_waits");
        let second = reader();
        while waits.get() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(waits.get(), 1, "the second reader joined the repair");
        remote.open_gate();

        assert_eq!(first.join().unwrap().as_ref(), &data[..]);
        assert_eq!(second.join().unwrap().as_ref(), &data[..]);
        assert_eq!(
            remote.requests.load(Ordering::Relaxed),
            1,
            "one remote request"
        );
        assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
        assert_eq!(cache.inflight_fetches(), 0);
    }

    #[test]
    fn single_run_read_avoids_copies() {
        let cache = small_cache(100, 1 << 20);
        let data = pattern(1000);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 1000);

        // Cold read of one coalesced run: served by slicing the ranged
        // response, no reassembly copy.
        let got = cache.read(&f, 150, 500, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[150..650]);
        assert_eq!(cache.metrics().counter("bytes_copied").get(), 0);

        // A warm multi-page read assembles from per-page store reads.
        let got = cache.read(&f, 150, 500, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[150..650]);
        assert_eq!(cache.metrics().counter("bytes_copied").get(), 500);
    }

    #[test]
    fn timeout_fallback_in_multi_page_read() {
        let plan = FaultPlan::none();
        let store = Arc::new(FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan)));
        let cache = CacheManager::builder(
            CacheConfig::default()
                .with_page_size(ByteSize::new(100))
                .with_read_timeout(Duration::from_millis(20)),
        )
        .with_store(store, 1 << 20)
        .build()
        .unwrap();
        let data = pattern(400);
        let remote = ScriptedRemote::new().with_file("/f", data.clone());
        let f = file("/f", 400);
        cache.read(&f, 0, 400, &remote).unwrap(); // All four pages cached.

        // The next local read hangs, wedging the deadline pool; §8 fallback
        // must keep serving correct bytes from the remote for every page the
        // stalled device cannot deliver in time.
        plan.set_read_hang(Duration::from_millis(200), 1);
        let got = cache.read(&f, 0, 400, &remote).unwrap();
        assert_eq!(got.as_ref(), &data[..]);
        assert!(cache.metrics().counter("fallbacks.timeout").get() >= 1);
        // Fallback does not evict: every page is still cached.
        for page in 0..4 {
            assert!(cache.contains(&f, page));
        }
    }

    mod vectored {
        use super::*;
        use edgecache_metrics::{assert_conserved, ConservationLaw, SnapshotDiff};

        /// The epoch conservation laws of a fresh cache (mirrors the
        /// simtest oracle — duplicated here because simtest depends on
        /// this crate).
        pub(super) fn laws(clean: bool) -> Vec<ConservationLaw> {
            let mut laws = vec![
                ConservationLaw::at_most(
                    "single-flight bounds remote requests",
                    &["remote_requests"],
                    &["misses", "fallbacks.timeout"],
                ),
                ConservationLaw::at_most("every put came from a miss", &["puts"], &["misses"]),
                ConservationLaw::at_most(
                    "assembled bytes are bounded by requested bytes",
                    &["bytes_copied"],
                    &["bytes_requested"],
                ),
                ConservationLaw::at_most("hits are classified reads", &["hits"], &["page_reads"]),
            ];
            if clean {
                laws.push(ConservationLaw::equal(
                    "page reads balance",
                    &["hits", "misses", "fallbacks.timeout"],
                    &["page_reads"],
                ));
            }
            laws
        }

        fn conserved(cache: &CacheManager, clean: bool) {
            let diff = SnapshotDiff::from_start(&cache.metrics().snapshot());
            assert_conserved(&diff, &laws(clean)).unwrap();
        }

        #[test]
        fn coalesces_across_fragment_boundaries() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(1000);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 1000);

            // Three fragments whose pages tile 0..=5 without a hole: one
            // coalesced wire request despite the fragment gaps within pages.
            let frags = [(0u64, 150u64), (250, 150), (450, 150)];
            let got = cache.read_multi(&f, &frags, &remote).unwrap();
            for (i, &(off, len)) in frags.iter().enumerate() {
                assert_eq!(got[i].as_ref(), &data[off as usize..(off + len) as usize]);
            }
            assert_eq!(remote.read_count(), 1, "one request for the whole batch");
            assert_eq!(
                remote.reads.lock()[0],
                ("/f".to_string(), 0, 600),
                "pages 0..=5 fetched as one run"
            );
            assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 5);
            conserved(&cache, true);
        }

        #[test]
        fn gaps_between_fragments_split_runs() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(1000);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 1000);

            // Pages 0 and 3: the gap must not be fetched or bridged.
            let got = cache
                .read_multi(&f, &[(0, 100), (300, 100)], &remote)
                .unwrap();
            assert_eq!(got[0].as_ref(), &data[0..100]);
            assert_eq!(got[1].as_ref(), &data[300..400]);
            assert_eq!(remote.requested_ranges(), vec![(0, 100), (300, 100)]);
            assert_eq!(cache.metrics().counter("fetch.coalesced_pages").get(), 0);
            conserved(&cache, true);
        }

        #[test]
        fn overlapping_fragments_classify_each_page_once() {
            let cache = small_cache(1000, 1 << 20);
            let data = pattern(1000);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 1000);

            // All three fragments share page 0. The page must be classified
            // once — a second classification would enqueue the batch as a
            // waiter on its own latch and deadlock.
            let frags = [(100u64, 200u64), (0, 200), (150, 50)];
            let got = cache.read_multi(&f, &frags, &remote).unwrap();
            for (i, &(off, len)) in frags.iter().enumerate() {
                assert_eq!(got[i].as_ref(), &data[off as usize..(off + len) as usize]);
            }
            assert_eq!(remote.read_count(), 1);
            assert_eq!(cache.stats().misses, 1);
            assert_eq!(cache.metrics().counter("page_reads").get(), 1);
            conserved(&cache, true);
        }

        #[test]
        fn cold_fragments_in_one_run_are_zero_copy() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(1000);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 1000);

            // Cold: both fragments are slices of the single coalesced run.
            let got = cache
                .read_multi(&f, &[(0, 300), (300, 300)], &remote)
                .unwrap();
            assert_eq!(got[0].as_ref(), &data[0..300]);
            assert_eq!(got[1].as_ref(), &data[300..600]);
            assert_eq!(cache.metrics().counter("bytes_copied").get(), 0);

            // Warm: each multi-page fragment stitches per-page store reads.
            let got = cache
                .read_multi(&f, &[(0, 300), (300, 300)], &remote)
                .unwrap();
            assert_eq!(got[0].as_ref(), &data[0..300]);
            assert_eq!(got[1].as_ref(), &data[300..600]);
            assert_eq!(cache.metrics().counter("bytes_copied").get(), 600);
            conserved(&cache, true);
        }

        #[test]
        fn mixed_hits_and_misses_serve_correct_bytes() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(1000);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 1000);

            // Warm pages 2 and 6, then batch-read fragments straddling them.
            cache.read(&f, 200, 100, &remote).unwrap();
            cache.read(&f, 600, 100, &remote).unwrap();
            remote.reads.lock().clear();

            let frags = [(150u64, 300u64), (550, 300)];
            let got = cache.read_multi(&f, &frags, &remote).unwrap();
            assert_eq!(got[0].as_ref(), &data[150..450]);
            assert_eq!(got[1].as_ref(), &data[550..850]);
            // Misses: pages 1, 3, 4 and 5, 7, 8 → runs [1], [3,4,5], [7,8],
            // requested concurrently (in no particular order).
            assert_eq!(
                remote.requested_ranges(),
                vec![(100, 100), (300, 300), (700, 200)]
            );
            assert_eq!(cache.stats().hits, 2);
            conserved(&cache, true);
        }

        #[test]
        fn degenerate_and_eof_fragments_resolve_empty() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(250);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 250);
            let got = cache
                .read_multi(&f, &[(0, 0), (240, 100), (500, 10), (100, 50)], &remote)
                .unwrap();
            assert!(got[0].is_empty());
            assert_eq!(got[1].as_ref(), &data[240..250], "clamped at EOF");
            assert!(got[2].is_empty(), "fragment past EOF");
            assert_eq!(got[3].as_ref(), &data[100..150]);
            assert!(cache.read_multi(&f, &[], &remote).unwrap().is_empty());
            conserved(&cache, true);
        }

        /// A remote that fails every range at or beyond a cutoff offset.
        pub(super) struct HalfBrokenRemote {
            pub(super) inner: ScriptedRemote,
            pub(super) fail_from: u64,
        }

        impl RemoteSource for HalfBrokenRemote {
            fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
                if offset >= self.fail_from {
                    return Err(Error::Other(format!("injected failure at {offset}")));
                }
                self.inner.read(path, offset, len)
            }
        }

        #[test]
        fn mid_batch_error_fails_whole_read_and_releases_latches() {
            let cache = small_cache(100, 1 << 20);
            let data = pattern(1000);
            let remote = HalfBrokenRemote {
                inner: ScriptedRemote::new().with_file("/f", data.clone()),
                fail_from: 500,
            };
            let f = file("/f", 1000);

            // Second run fails: the whole batch errors, but every owned
            // latch must still be published or released.
            let err = cache.read_multi(&f, &[(0, 100), (600, 100)], &remote);
            assert!(err.is_err());
            assert_eq!(cache.inflight_fetches(), 0, "no latch leaked");

            // The failed epoch is lossy but still conserved.
            conserved(&cache, false);

            // The surviving run was published; a working remote completes
            // the rest.
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let got = cache
                .read_multi(&f, &[(0, 100), (600, 100)], &remote)
                .unwrap();
            assert_eq!(got[0].as_ref(), &data[0..100]);
            assert_eq!(got[1].as_ref(), &data[600..700]);
            assert_eq!(
                remote.read_count(),
                1,
                "page 0 was cached before the failure"
            );
        }

        #[test]
        fn vectored_read_joins_inflight_singleflight() {
            let cache = Arc::new(small_cache(1024, 1 << 20));
            let data = pattern(2048);
            let remote = Arc::new(GatedRemote::new(data.clone()));

            // One plain reader owns the gated fetch of page 0...
            let owner = {
                let cache = Arc::clone(&cache);
                let remote = Arc::clone(&remote);
                std::thread::spawn(move || {
                    cache
                        .read(&file("/f", 2048), 0, 1024, remote.as_ref())
                        .unwrap()
                })
            };
            let waits = cache.metrics().counter("fetch.inflight_waits");
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while cache.inflight_fetches() == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }

            // ...then a vectored reader needs pages 0 and 1: it must join
            // the in-flight fetch for page 0 and own only page 1.
            let vectored = {
                let cache = Arc::clone(&cache);
                let remote = Arc::clone(&remote);
                std::thread::spawn(move || {
                    cache
                        .read_multi(
                            &file("/f", 2048),
                            &[(0, 1024), (1024, 1024)],
                            remote.as_ref(),
                        )
                        .unwrap()
                })
            };
            while waits.get() < 1 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(waits.get(), 1, "vectored reader joined the fetch");
            remote.open_gate();

            assert_eq!(owner.join().unwrap().as_ref(), &data[..1024]);
            let got = vectored.join().unwrap();
            assert_eq!(got[0].as_ref(), &data[..1024]);
            assert_eq!(got[1].as_ref(), &data[1024..]);
            assert_eq!(cache.inflight_fetches(), 0);
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        fn cache_with(page_size: u64, parallel: bool) -> CacheManager {
            let mut config = CacheConfig::default().with_page_size(ByteSize::new(page_size));
            if !parallel {
                config = config
                    .with_coalesce_fetches(false)
                    .with_max_concurrent_fetches(1);
            }
            CacheManager::builder(config)
                .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                .build()
                .unwrap()
        }

        proptest! {
            /// The parallel coalesced pipeline and the sequential
            /// single-fetch baseline return byte-identical results for any
            /// read sequence, and both match the source of truth.
            #[test]
            fn parallel_reads_match_sequential(
                page_size in 64u64..=512,
                file_len in 1usize..6000,
                reads in proptest::collection::vec((0u64..6000, 0u64..3000), 1..8),
            ) {
                let data = pattern(file_len);
                let parallel = cache_with(page_size, true);
                let sequential = cache_with(page_size, false);
                for &(offset, len) in &reads {
                    let remote_p =
                        ScriptedRemote::new().with_file("/f", data.clone());
                    let remote_s =
                        ScriptedRemote::new().with_file("/f", data.clone());
                    let f = file("/f", file_len as u64);
                    let got_p = parallel.read(&f, offset, len, &remote_p).unwrap();
                    let got_s = sequential.read(&f, offset, len, &remote_s).unwrap();
                    let start = (offset as usize).min(file_len);
                    let end = ((offset + len) as usize).min(file_len);
                    prop_assert_eq!(got_p.as_ref(), &data[start..end]);
                    prop_assert_eq!(got_p.as_ref(), got_s.as_ref());
                }
                parallel.index().check_consistency().unwrap();
                sequential.index().check_consistency().unwrap();
            }

            /// One vectored `read_multi` over an arbitrary fragment list —
            /// overlapping, adjacent, out-of-order, EOF-straddling — returns
            /// byte-identical results to a sequential `read` loop, and both
            /// caches satisfy the epoch conservation laws.
            #[test]
            fn read_multi_matches_sequential_read_loop(
                page_size in 64u64..=512,
                file_len in 1usize..6000,
                frags in proptest::collection::vec((0u64..6000, 0u64..1500), 1..10),
            ) {
                let data = pattern(file_len);
                let vectored = cache_with(page_size, true);
                let sequential = cache_with(page_size, true);
                let remote_v = ScriptedRemote::new().with_file("/f", data.clone());
                let remote_s = ScriptedRemote::new().with_file("/f", data.clone());
                let f = file("/f", file_len as u64);
                let got_v = vectored.read_multi(&f, &frags, &remote_v).unwrap();
                prop_assert_eq!(got_v.len(), frags.len());
                for (i, &(offset, len)) in frags.iter().enumerate() {
                    let got_s = sequential.read(&f, offset, len, &remote_s).unwrap();
                    let start = (offset as usize).min(file_len);
                    let end = (offset.saturating_add(len) as usize).min(file_len).max(start);
                    prop_assert_eq!(got_v[i].as_ref(), &data[start..end], "fragment {}", i);
                    prop_assert_eq!(got_v[i].as_ref(), got_s.as_ref(), "fragment {}", i);
                }
                // The vectored batch must never cost more wire requests than
                // the sequential loop.
                prop_assert!(remote_v.read_count() <= remote_s.read_count());
                for cache in [&vectored, &sequential] {
                    cache.index().check_consistency().unwrap();
                    let diff = edgecache_metrics::SnapshotDiff::from_start(
                        &cache.metrics().snapshot(),
                    );
                    edgecache_metrics::assert_conserved(&diff, &super::vectored::laws(true))
                        .unwrap();
                }
            }

            /// Mid-batch remote failures: whatever subset of ranges a remote
            /// rejects, `read_multi` fails all-or-nothing, leaks no latch,
            /// stays conserved, and a subsequent clean batch returns the
            /// ground truth.
            #[test]
            fn read_multi_survives_mid_batch_remote_errors(
                page_size in 64u64..=512,
                file_len in 1usize..4000,
                frags in proptest::collection::vec((0u64..4000, 1u64..1200), 1..8),
                fail_from in 0u64..4000,
            ) {
                let data = pattern(file_len);
                let cache = cache_with(page_size, true);
                let broken = super::vectored::HalfBrokenRemote {
                    inner: ScriptedRemote::new().with_file("/f", data.clone()),
                    fail_from,
                };
                let f = file("/f", file_len as u64);
                let first = cache.read_multi(&f, &frags, &broken);
                prop_assert_eq!(cache.inflight_fetches(), 0, "no leaked latch");
                cache.index().check_consistency().unwrap();
                let diff = edgecache_metrics::SnapshotDiff::from_start(
                    &cache.metrics().snapshot(),
                );
                edgecache_metrics::assert_conserved(
                    &diff,
                    &super::vectored::laws(first.is_ok()),
                ).unwrap();

                let clean = ScriptedRemote::new().with_file("/f", data.clone());
                let got = cache.read_multi(&f, &frags, &clean).unwrap();
                for (i, &(offset, len)) in frags.iter().enumerate() {
                    let start = (offset as usize).min(file_len);
                    let end = (offset.saturating_add(len) as usize).min(file_len).max(start);
                    prop_assert_eq!(got[i].as_ref(), &data[start..end], "fragment {}", i);
                }
            }
        }
    }

    mod tracing {
        use super::*;
        use edgecache_common::SimClock;
        use edgecache_metrics::trace::chrome_trace_json;
        use std::time::Duration;

        /// A remote that charges deterministic virtual latency on a
        /// [`SimClock`] before serving bytes.
        struct VirtualLatencyRemote {
            inner: ScriptedRemote,
            clock: Arc<SimClock>,
            latency: Duration,
        }

        impl RemoteSource for VirtualLatencyRemote {
            fn read(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
                self.clock.advance(self.latency);
                self.inner.read(path, offset, len)
            }
        }

        /// Runs one miss + one hit under a tracer and returns the records
        /// plus the Chrome export for determinism comparison.
        fn traced_run() -> (Vec<edgecache_metrics::SpanRecord>, String) {
            let clock = Arc::new(SimClock::new());
            let shared: SharedClock = Arc::new(SimClock::clone(&clock));
            let tracer = Tracer::enabled(Arc::clone(&shared));
            let cache =
                CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                    .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                    .with_clock(shared)
                    .with_tracer(tracer)
                    .build()
                    .unwrap();
            let data = pattern(8192);
            let remote = VirtualLatencyRemote {
                inner: ScriptedRemote::new().with_file("/f", data.clone()),
                clock,
                latency: Duration::from_micros(250),
            };
            let f = file("/f", 8192);
            assert_eq!(cache.read(&f, 0, 4096, &remote).unwrap(), &data[..4096]);
            assert_eq!(cache.read(&f, 0, 4096, &remote).unwrap(), &data[..4096]);
            let records = cache.tracer().take_records();
            let json = chrome_trace_json(&records);
            (records, json)
        }

        #[test]
        fn stage_durations_sum_to_root_latency() {
            let (records, _) = traced_run();
            let roots: Vec<_> = records
                .iter()
                .filter(|r| r.parent == SpanId::NONE.raw())
                .collect();
            assert_eq!(roots.len(), 2, "one root span per cache.read call");
            for root in &roots {
                assert_eq!(root.name, "cache.read");
                let stage_sum: u64 = records
                    .iter()
                    .filter(|r| r.parent == root.id)
                    .map(|r| r.duration().as_nanos() as u64)
                    .sum();
                let total = root.duration().as_nanos() as u64;
                // Under SimClock time only advances inside stages, so the
                // per-stage breakdown accounts for the whole read.
                assert_eq!(stage_sum, total, "stages partition {}", root.name);
            }
            // The miss read charged remote latency; the hit read was free.
            let miss_total = roots[0].duration();
            assert!(miss_total >= Duration::from_micros(250), "{miss_total:?}");
            assert_eq!(roots[1].duration(), Duration::ZERO);
        }

        #[test]
        fn miss_and_hit_produce_expected_span_kinds() {
            let (records, _) = traced_run();
            let names: Vec<&str> = records.iter().map(|r| r.name).collect();
            for stage in [
                "cache.read",
                "classify",
                "plan_fetches",
                "remote_fetch",
                "fetch_range",
                "publish",
                "serve",
                "ssd_read",
                "assemble",
            ] {
                assert!(names.contains(&stage), "missing span kind {stage}");
            }
            // The coalesced miss fetched one 4 KiB range.
            let fetch = records.iter().find(|r| r.name == "fetch_range").unwrap();
            assert!(fetch.args.iter().any(|(k, v)| *k == "len" && v == "4096"));
        }

        /// Runs one cold + one warm vectored batch under a tracer.
        fn traced_multi_run() -> (Vec<edgecache_metrics::SpanRecord>, String) {
            let clock = Arc::new(SimClock::new());
            let shared: SharedClock = Arc::new(SimClock::clone(&clock));
            let tracer = Tracer::enabled(Arc::clone(&shared));
            let cache =
                CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
                    .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
                    .with_clock(shared)
                    .with_tracer(tracer)
                    .build()
                    .unwrap();
            let data = pattern(8192);
            let remote = VirtualLatencyRemote {
                inner: ScriptedRemote::new().with_file("/f", data.clone()),
                clock,
                latency: Duration::from_micros(250),
            };
            let f = file("/f", 8192);
            // Fragments on pages {0,1} and {4,5}: two coalesced runs.
            let frags = [(0u64, 2048u64), (4096, 2048)];
            for _ in 0..2 {
                let got = cache.read_multi(&f, &frags, &remote).unwrap();
                assert_eq!(got[0], &data[..2048]);
                assert_eq!(got[1], &data[4096..6144]);
            }
            let records = cache.tracer().take_records();
            let json = chrome_trace_json(&records);
            (records, json)
        }

        #[test]
        fn vectored_stages_partition_root_latency() {
            let (records, _) = traced_multi_run();
            let roots: Vec<_> = records
                .iter()
                .filter(|r| r.parent == SpanId::NONE.raw())
                .collect();
            assert_eq!(roots.len(), 2, "one root span per read_multi call");
            for root in &roots {
                assert_eq!(root.name, "cache.read_multi");
                let stage_sum: u64 = records
                    .iter()
                    .filter(|r| r.parent == root.id)
                    .map(|r| r.duration().as_nanos() as u64)
                    .sum();
                let total = root.duration().as_nanos() as u64;
                // Under SimClock time only advances inside stages, so the
                // new vectored stages must still partition the root exactly.
                assert_eq!(stage_sum, total, "stages partition {}", root.name);
            }
            let names: Vec<&str> = records.iter().map(|r| r.name).collect();
            for stage in [
                "cache.read_multi",
                "plan_fragments",
                "vectored_classify",
                "plan_fetches",
                "remote_fetch",
                "fetch_range",
                "publish",
                "serve",
                "ssd_read",
                "collect",
                "assemble",
            ] {
                assert!(names.contains(&stage), "missing span kind {stage}");
            }
            // The cold batch fetched two coalesced runs.
            let cold_fetches = records
                .iter()
                .filter(|r| r.name == "fetch_range" && r.parent != SpanId::NONE.raw())
                .count();
            assert_eq!(cold_fetches, 2);
        }

        #[test]
        fn vectored_trace_export_is_deterministic() {
            let (_, first) = traced_multi_run();
            let (_, second) = traced_multi_run();
            assert_eq!(first, second);
        }

        #[test]
        fn trace_export_is_deterministic_across_runs() {
            let (_, first) = traced_run();
            let (_, second) = traced_run();
            assert_eq!(first, second);
            assert!(first.contains("\"traceEvents\""));
        }

        #[test]
        fn disabled_tracer_records_nothing() {
            let cache = small_cache(1024, 1 << 20);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data);
            let f = file("/f", 4096);
            cache.read(&f, 0, 4096, &remote).unwrap();
            assert!(!cache.tracer().is_enabled());
            assert!(cache.tracer().take_records().is_empty());
        }
    }

    mod mem_tier {
        use super::*;

        /// A three-level cache: DRAM tier of `mem_cap` bytes above one SSD
        /// directory of `ssd_cap` bytes.
        fn tiered_cache(page_size: u64, ssd_cap: u64, mem_cap: u64) -> CacheManager {
            CacheManager::builder(
                CacheConfig::default()
                    .with_page_size(ByteSize::new(page_size))
                    .with_memory_tier(ByteSize::new(mem_cap)),
            )
            .with_store(Arc::new(MemoryPageStore::new()), ssd_cap)
            .build()
            .unwrap()
        }

        fn mem_resident_pages(cache: &CacheManager) -> u64 {
            cache
                .index()
                .pages_of_dir(cache.memory_dir().unwrap())
                .len() as u64
        }

        /// The memory-tier conservation law: entries (publishes + promotions)
        /// minus counted exits (demotions + evictions + replaced) equals the
        /// pages currently resident — no frame ever leaves silently.
        fn assert_mem_balance(cache: &CacheManager) {
            let m = cache.metrics();
            let entries = m.counter("mem.publishes").get() + m.counter("mem.promotions").get();
            let exits = m.counter("mem.demotions").get()
                + m.counter("mem.evictions").get()
                + m.counter("mem.replaced").get();
            assert_eq!(
                entries - exits,
                mem_resident_pages(cache),
                "memory-tier conservation: every exit must be counted"
            );
        }

        #[test]
        fn publishes_land_in_memory_and_hits_serve_from_it() {
            let cache = tiered_cache(1024, 1 << 20, 8 * 1024);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 4096);

            cache.read(&f, 0, 4096, &remote).unwrap();
            let mem = cache.memory_dir().unwrap();
            assert_eq!(
                cache.index().pages_of_dir(mem).len(),
                4,
                "publishes land in memory"
            );
            assert_eq!(cache.metrics().counter("mem.publishes").get(), 4);
            assert_eq!(cache.memory_tier().unwrap().len(), 4);

            let got = cache.read(&f, 100, 500, &NeverRemote).unwrap();
            assert_eq!(got.as_ref(), &data[100..600]);
            assert_eq!(cache.metrics().counter("mem.hits").get(), 1);
            assert_eq!(cache.metrics().counter("hits.slow_path").get(), 0);
            assert_mem_balance(&cache);
        }

        #[test]
        fn pressure_demotes_to_ssd_instead_of_dropping() {
            // Memory holds 2 pages, the working set is 4: publishing the
            // later pages must push the earlier ones *down*, not out.
            let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 4096);

            cache.read(&f, 0, 4096, &remote).unwrap();
            assert_eq!(cache.stats().pages, 4, "no page left the hierarchy");
            assert_eq!(cache.metrics().counter("mem.demotions").get(), 2);
            assert_eq!(cache.metrics().counter("mem.evictions").get(), 0);
            assert_eq!(mem_resident_pages(&cache), 2);
            assert_mem_balance(&cache);

            // Re-reading a demoted page is a *cache* hit (SSD), not a
            // remote refetch.
            let reads_before = remote.read_count();
            let got = cache.read(&f, 0, 1024, &remote).unwrap();
            assert_eq!(got.as_ref(), &data[..1024]);
            assert_eq!(remote.read_count(), reads_before, "served locally");
            cache.index().check_consistency().unwrap();
            cache.check_policy_coherence().unwrap();
        }

        #[test]
        fn ssd_hit_promotes_the_page_into_memory() {
            let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 4096);

            // Fill: pages 0 and 1 get demoted to SSD by pages 2 and 3.
            cache.read(&f, 0, 4096, &remote).unwrap();
            let mem = cache.memory_dir().unwrap();
            let id0 = PageId::new(f.file_id(), 0);
            assert_ne!(cache.index().get(&id0).unwrap().dir, mem);

            // An SSD hit moves the page back up (exclusive move: the SSD
            // copy is deleted, something else is demoted to make room).
            let got = cache.read(&f, 0, 1024, &NeverRemote).unwrap();
            assert_eq!(got.as_ref(), &data[..1024]);
            assert_eq!(cache.index().get(&id0).unwrap().dir, mem, "promoted");
            assert_eq!(cache.metrics().counter("mem.promotions").get(), 1);
            assert_eq!(cache.stats().pages, 4, "promotion moves, never copies");
            assert_mem_balance(&cache);
            cache.index().check_consistency().unwrap();
        }

        #[test]
        fn promotion_preserves_ttl_epoch() {
            let cache = tiered_cache(1024, 1 << 20, 2 * 1024);
            let remote = ScriptedRemote::new().with_file("/f", pattern(4096));
            let f = file("/f", 4096);
            cache.read(&f, 0, 4096, &remote).unwrap();
            let id0 = PageId::new(f.file_id(), 0);
            let before = cache.index().get(&id0).unwrap().created_ms;
            cache.read(&f, 0, 1024, &NeverRemote).unwrap(); // promote
            let after = cache.index().get(&id0).unwrap().created_ms;
            assert_eq!(before, after, "a tier move must not reset the TTL clock");
        }

        #[test]
        fn pinned_frames_survive_pressure_until_unpinned() {
            let cache = tiered_cache(1024, 1 << 20, 4 * 1024);
            let remote = ScriptedRemote::new().with_file("/f", pattern(4096));
            let f = file("/f", 4096);
            cache.read(&f, 0, 4096, &remote).unwrap();
            let mem = cache.memory_dir().unwrap();
            assert!(cache.pin_page(&f, 1), "page 1 is memory-resident");

            // Shrink to one page: everything unpinned demotes, the pinned
            // frame stays (pins outrank pressure).
            cache.set_memory_capacity(1024);
            let id1 = PageId::new(f.file_id(), 1);
            assert_eq!(
                cache.index().get(&id1).unwrap().dir,
                mem,
                "pinned frame stays"
            );
            assert_eq!(mem_resident_pages(&cache), 1);
            assert_eq!(cache.stats().pages, 4, "demotion kept every byte");
            assert_mem_balance(&cache);

            assert!(cache.unpin_page(&f, 1));
            assert_eq!(cache.memory_tier().unwrap().pinned_count(), 0);
            cache.set_memory_capacity(0);
            assert_ne!(
                cache.index().get(&id1).unwrap().dir,
                mem,
                "demoted once unpinned"
            );
            assert_eq!(cache.stats().pages, 4);
            assert_mem_balance(&cache);
            cache.index().check_consistency().unwrap();
            cache.check_policy_coherence().unwrap();
        }

        #[test]
        fn corrupt_frame_is_evicted_not_demoted() {
            // A frame whose DRAM bytes fail the tier-exit checksum must not
            // land on SSD wearing a fresh trailer: it exits via (counted)
            // eviction and the next read refetches from remote.
            let cache = tiered_cache(1024, 1 << 20, 4 * 1024);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 4096);
            cache.read(&f, 0, 4096, &remote).unwrap();
            let id0 = PageId::new(f.file_id(), 0);
            assert!(cache.memory_tier().unwrap().corrupt_frame(id0));

            cache.set_memory_capacity(0); // force every frame out
            assert!(cache.index().get(&id0).is_none(), "corrupt frame evicted");
            assert_eq!(cache.stats().pages, 3, "healthy frames were demoted");
            assert_eq!(cache.metrics().counter("evictions.corrupt").get(), 1);
            assert_mem_balance(&cache);

            let reads_before = remote.read_count();
            let got = cache.read(&f, 0, 1024, &remote).unwrap();
            assert_eq!(got.as_ref(), &data[..1024], "refetched clean bytes");
            assert!(remote.read_count() > reads_before);
        }

        #[test]
        fn oversized_pages_fall_back_to_ssd() {
            // Pages bigger than the memory budget go straight to SSD; the
            // hierarchy still serves them as hits.
            let cache = tiered_cache(2048, 1 << 20, 1024);
            let data = pattern(4096);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", 4096);
            cache.read(&f, 0, 4096, &remote).unwrap();
            assert_eq!(mem_resident_pages(&cache), 0);
            assert_eq!(cache.metrics().counter("mem.publishes").get(), 0);
            let reads = remote.read_count();
            cache.read(&f, 0, 4096, &remote).unwrap();
            assert_eq!(remote.read_count(), reads, "hits served from SSD");
            assert_mem_balance(&cache);
        }

        #[test]
        fn dir_usage_reports_the_memory_budget_as_capacity() {
            let cache = tiered_cache(1024, 1 << 20, 4 * 1024);
            let usage = cache.dir_usage();
            assert_eq!(usage.len(), 2);
            assert_eq!(usage[1].2, 4 * 1024, "mem dir capacity is the budget");
            cache.set_memory_capacity(2048);
            assert_eq!(
                cache.dir_usage()[1].2,
                2048,
                "budget tracks runtime changes"
            );
        }

        #[test]
        fn mem_hit_hammer_32_threads_stays_on_the_fast_path() {
            // Satellite of the PR 6 lock-free hit path: memory hits must
            // also take zero write locks, lose no counts, and never fall
            // back to the stripe-locked slow path.
            const THREADS: usize = 32;
            const ITERS: usize = 2_000;
            const PAGE: u64 = 1024;
            const PAGES: usize = 8;

            let cache = Arc::new(tiered_cache(PAGE, 1 << 20, PAGES as u64 * PAGE));
            let data = pattern((PAGES as u64 * PAGE) as usize);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", PAGES as u64 * PAGE);

            cache.read(&f, 0, PAGES as u64 * PAGE, &remote).unwrap();
            assert_eq!(mem_resident_pages(&cache), PAGES as u64, "all resident");
            let warm_hits = cache.stats().hits;
            let warm_bytes = cache.metrics().counter("bytes_from_cache").get();

            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let data = data.clone();
                    std::thread::spawn(move || {
                        for i in 0..ITERS {
                            let page = (t * 7 + i) % PAGES;
                            let off = page as u64 * PAGE;
                            let got = cache.read(
                                &file("/f", PAGES as u64 * PAGE),
                                off,
                                PAGE,
                                &NeverRemote,
                            );
                            assert_eq!(
                                got.unwrap().as_ref(),
                                &data[off as usize..(off + PAGE) as usize]
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            let total = (THREADS * ITERS) as u64;
            assert_eq!(cache.stats().hits - warm_hits, total, "no lost hit counts");
            assert_eq!(
                cache.metrics().counter("mem.hits").get(),
                total,
                "every hammer access was a memory hit"
            );
            assert_eq!(
                cache.metrics().counter("hits.slow_path").get(),
                0,
                "memory hits never fall back to the stripe-locked path"
            );
            assert_eq!(
                cache.metrics().counter("bytes_from_cache").get() - warm_bytes,
                total * PAGE,
                "byte conservation under contention"
            );
            assert_eq!(cache.memory_tier().unwrap().pinned_count(), 0);
            assert_mem_balance(&cache);
            cache.index().check_consistency().unwrap();
            cache.check_policy_coherence().unwrap();
        }

        #[test]
        fn concurrent_promote_demote_churn_conserves_bytes() {
            // Working set twice the memory budget: every reader keeps
            // promoting SSD hits while its siblings' promotions demote them
            // back, and a pin thread pins/unpins frames mid-flight. The
            // books must balance when the dust settles.
            const THREADS: usize = 8;
            const ITERS: usize = 400;
            const PAGE: u64 = 1024;
            const PAGES: usize = 16;

            let cache = Arc::new(tiered_cache(PAGE, 1 << 20, 8 * PAGE));
            let data = pattern((PAGES as u64 * PAGE) as usize);
            let remote = ScriptedRemote::new().with_file("/f", data.clone());
            let f = file("/f", PAGES as u64 * PAGE);
            cache.read(&f, 0, PAGES as u64 * PAGE, &remote).unwrap();

            let mut handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let data = data.clone();
                    std::thread::spawn(move || {
                        // Deterministic per-thread stride: all pages covered,
                        // different interleavings across threads.
                        for i in 0..ITERS {
                            let page = (t * 5 + i * 3) % PAGES;
                            let off = page as u64 * PAGE;
                            let got = cache.read(
                                &file("/f", PAGES as u64 * PAGE),
                                off,
                                PAGE,
                                &NeverRemote,
                            );
                            assert_eq!(
                                got.unwrap().as_ref(),
                                &data[off as usize..(off + PAGE) as usize]
                            );
                        }
                    })
                })
                .collect();
            handles.push({
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    // Balanced pin/unpin churn racing the demotion scans.
                    for i in 0..ITERS {
                        let page = (i * 7) as u64 % PAGES as u64;
                        let f = file("/f", PAGES as u64 * PAGE);
                        if cache.pin_page(&f, page) {
                            cache.unpin_page(&f, page);
                        }
                    }
                })
            });
            for h in handles {
                h.join().unwrap();
            }

            assert_eq!(
                cache.stats().pages,
                PAGES as u64 as usize,
                "no byte left the hierarchy"
            );
            assert_eq!(
                cache.metrics().counter("mem.evictions").get(),
                0,
                "pressure only ever demoted"
            );
            assert_eq!(
                cache.memory_tier().unwrap().pinned_count(),
                0,
                "pins balanced"
            );
            assert_mem_balance(&cache);
            cache.index().check_consistency().unwrap();
            cache.check_policy_coherence().unwrap();
            // Store bytes and indexed bytes agree per directory once the
            // churn stops (the harness-grade drift check).
            for (store_bytes, indexed_bytes, _) in cache.dir_usage() {
                assert_eq!(store_bytes, indexed_bytes, "store/index drift");
            }
        }
    }
}
