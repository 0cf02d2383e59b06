//! Pins the heap allocations a 4 KiB cache hit makes.
//!
//! A counting global allocator keeps a per-thread tally, so the count is
//! exact and independent of other test threads. A hit through `read`
//! allocates only its page plan; a one-fragment `read_multi` adds its
//! result vector. Neither may grow with the page's scope: a partition
//! scope carries three `String`s, and the hit path must never clone them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::Result;
use edgecache_common::ByteSize;
use edgecache_core::manager::{CacheManager, RemoteSource, SourceFile};
use edgecache_core::CacheConfig;
use edgecache_pagestore::{CacheScope, MemoryPageStore};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` needs. Counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

const PAGE: u64 = 4096;

/// Serves a fixed pattern; only the warm-up read may reach it.
struct Origin;

impl RemoteSource for Origin {
    fn read(&self, _path: &str, _offset: u64, len: u64) -> Result<Bytes> {
        Ok(Bytes::from(vec![7u8; len as usize]))
    }
}

/// A cache holding page 0 of a file under `scope`.
fn warm(scope: CacheScope) -> (CacheManager, SourceFile) {
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(PAGE)))
        .with_store(Arc::new(MemoryPageStore::new()), 1 << 20)
        .build()
        .unwrap();
    let file = SourceFile::new("/lake/t/p/part-0", 1, 4 * PAGE, scope);
    cache.read(&file, 0, PAGE, &Origin).unwrap();
    // One hit through each entry point first, so lazily created state is
    // not charged to the measured hit.
    cache.read(&file, 0, PAGE, &Origin).unwrap();
    cache.read_multi(&file, &[(0, PAGE)], &Origin).unwrap();
    (cache, file)
}

fn scopes() -> [CacheScope; 2] {
    [CacheScope::Global, CacheScope::partition("s", "t", "p")]
}

#[test]
fn read_hit_allocates_once() {
    for scope in scopes() {
        let (cache, file) = warm(scope.clone());
        let hits = cache.stats().hits;
        let n = allocs_during(|| cache.read(&file, 0, PAGE, &Origin).unwrap());
        assert_eq!(cache.stats().hits, hits + 1, "measured a hit");
        assert!(n <= 1, "read hit under {scope:?} made {n} allocations");
    }
}

#[test]
fn one_fragment_read_multi_hit_allocates_twice() {
    for scope in scopes() {
        let (cache, file) = warm(scope.clone());
        let hits = cache.stats().hits;
        let n = allocs_during(|| cache.read_multi(&file, &[(0, PAGE)], &Origin).unwrap());
        assert_eq!(cache.stats().hits, hits + 1, "measured a hit");
        assert!(
            n <= 2,
            "read_multi hit under {scope:?} made {n} allocations"
        );
    }
}
