//! `kv`: the memcached protocol over loopback TCP against an in-process
//! `serve`, on a `MemoryPageStore` cache that holds the whole working set.
//!
//! Two connections run closed-loop; each sends a batch of [`DEPTH`]
//! pipelined requests (Zipf keys, 90 % get / 10 % set) and waits for every
//! reply, as an OLAP worker's multi-get does. The protocol, reactor, socket
//! and object layers do most of the work; the remote, columnar and olap
//! layers do none. Every `get` is checked byte for byte.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::CacheManager;
use edgecache_metrics::{server_laws, RegistrySnapshot, SnapshotDiff, Tracer};
use edgecache_pagestore::{MemoryPageStore, PageStore};
use edgecache_server::protocol::{encode_end, encode_value, Parsed};
use edgecache_server::{
    serve, Command, ObjectStore, ParserLimits, RequestParser, ServerConfig, ServerHandle,
    SetOutcome,
};
use edgecache_workload::kv::{fill_value, KeyMix, KeyMixConfig, KvOp};

use crate::layers::{write_trace, CoreCounters, CountingStore, SpanTotals, StoreCounts};
use crate::stats::{self, ratio, Metric, Sample};
use crate::{Identity, Outcome};

const KEYS: usize = 20_000;
const VALUE_LEN: usize = 1024;
const NAMESPACES: usize = 4;
const ZIPF_S: f64 = 1.0;
const SET_RATIO: f64 = 0.1;
const CONNS: usize = 2;
/// Requests per pipelined batch.
const DEPTH: usize = 16;
const PAGE: ByteSize = ByteSize::kib(64);
/// Far above the ~20 MiB working set: nothing is evicted.
const CAPACITY: ByteSize = ByteSize::mib(256);
/// The traced run samples its spans, one batch in [`BATCH_SPAN_EVERY`] and
/// one page-store call in [`STORE_SPAN_EVERY`], to keep them in memory.
const BATCH_SPAN_EVERY: usize = 8;
const STORE_SPAN_EVERY: u64 = 16;
/// Ops replayed in-process for the object and protocol layer timings.
const REPLAY_OPS: usize = 200_000;

/// Self-test fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Stores wrong bytes, before timing starts, under the key of the first
    /// `get` connection 0 sends.
    WrongValue,
}

fn mix_config(seed: u64) -> KeyMixConfig {
    KeyMixConfig {
        keys: KEYS,
        zipf_s: ZIPF_S,
        namespaces: NAMESPACES,
        set_ratio: SET_RATIO,
        delete_ratio: 0.0,
        value_len: VALUE_LEN,
        seed,
    }
}

/// The op stream of connection `conn`.
fn conn_mix(seed: u64, conn: usize) -> KeyMix {
    KeyMix::new(mix_config(
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(conn as u64),
    ))
}

/// The deterministic value of every key, built once per run.
fn values(seed: u64) -> HashMap<String, Bytes> {
    KeyMix::new(mix_config(seed))
        .all_keys()
        .map(|k| {
            let v = Bytes::from(fill_value(&k, VALUE_LEN));
            (k, v)
        })
        .collect()
}

fn new_cache(
    tracer: Tracer,
) -> Result<(Arc<CacheManager>, Arc<CountingStore<MemoryPageStore>>), String> {
    let store = Arc::new(CountingStore::new(
        MemoryPageStore::new(),
        tracer,
        STORE_SPAN_EVERY,
    ));
    let cache = CacheManager::builder(CacheConfig::default().with_page_size(PAGE))
        .with_store(Arc::clone(&store) as Arc<dyn PageStore>, CAPACITY.as_u64())
        .with_clock(system_clock())
        .build()
        .map_err(|e| e.to_string())?;
    Ok((Arc::new(cache), store))
}

/// A warmed server over a fresh cache.
struct System {
    cache: Arc<CacheManager>,
    store: Arc<CountingStore<MemoryPageStore>>,
    server: ServerHandle,
    /// Registry snapshot from before the first connection opened: the
    /// server laws are checked from here to after shutdown.
    before: RegistrySnapshot,
}

impl System {
    fn build(values: &HashMap<String, Bytes>, tracer: Tracer) -> Result<Self, String> {
        let (cache, store) = new_cache(tracer)?;
        let server = serve(
            Arc::clone(&cache),
            system_clock(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let before = cache.metrics().snapshot();
        let mut keys: Vec<&String> = values.keys().collect();
        keys.sort();
        let sets: Vec<(&str, &[u8])> = keys.iter().map(|k| (k.as_str(), &values[*k][..])).collect();
        set_all(&server.local_addr().to_string(), &sets)?;
        Ok(Self {
            cache,
            store,
            server,
            before,
        })
    }

    /// Shuts the server down and checks the server laws over its life.
    fn finish(self) -> Identity {
        let Self {
            cache,
            server,
            before,
            ..
        } = self;
        server.shutdown();
        let diff = SnapshotDiff::between(&before, &cache.metrics().snapshot());
        let mut laws = Identity::new("server_laws() over the server's life");
        for law in server_laws() {
            laws.checks += 1;
            if let Some(violation) = law.check(&diff) {
                laws.violations += 1;
                laws.example.get_or_insert(violation);
            }
        }
        laws
    }
}

/// Sets every `(key, value)` over one connection, 64 per pipelined batch.
fn set_all(addr: &str, sets: &[(&str, &[u8])]) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    for chunk in sets.chunks(64) {
        let mut wire = Vec::new();
        for (key, value) in chunk {
            Command::Set {
                key: key.to_string(),
                flags: 0,
                exptime: 0,
                noreply: false,
                data: Bytes::copy_from_slice(value),
            }
            .encode(&mut wire);
        }
        stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        let mut replies = vec![0u8; chunk.len() * 8];
        stream
            .read_exact(&mut replies)
            .map_err(|e| format!("read: {e}"))?;
        if replies.chunks(8).any(|r| r != b"STORED\r\n") {
            return Err("a warm-up set was not stored".into());
        }
    }
    Ok(())
}

/// The request a client sends for `op`.
fn command(op: &KvOp, values: &HashMap<String, Bytes>) -> Command {
    match op {
        KvOp::Get { key } => Command::Get {
            keys: vec![key.clone()],
            with_cas: false,
        },
        KvOp::Set { key, .. } => Command::Set {
            key: key.clone(),
            flags: 0,
            exptime: 0,
            noreply: false,
            data: values[key].clone(),
        },
        KvOp::Delete { .. } => unreachable!("the mix has no deletes"),
    }
}

/// Outcome of one reply, checked against the request it answers.
enum Checked {
    Hit,
    Miss,
    Stored,
    Wrong,
}

/// Parses one reply from `buf[*pos..]`, checking it against `op`; `None`
/// if the reply is not complete yet. Gets are single-key.
fn next_reply(
    buf: &[u8],
    pos: &mut usize,
    op: &KvOp,
    values: &HashMap<String, Bytes>,
) -> Option<Checked> {
    let rest = &buf[*pos..];
    let eol = rest.windows(2).position(|w| w == b"\r\n")?;
    let line = &rest[..eol];
    let header = line
        .strip_prefix(b"VALUE ")
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| {
            Some((
                h.split(' ').next()?,
                h.rsplit(' ').next()?.parse::<usize>().ok()?,
            ))
        });
    if let Some((key, len)) = header {
        let data_start = eol + 2;
        let end = data_start + len + 2 + 5; // data, CRLF, "END\r\n"
        if rest.len() < end {
            return None;
        }
        *pos += end;
        let ok = matches!(op, KvOp::Get { key: want } if want == key)
            && values
                .get(key)
                .is_some_and(|v| v[..] == rest[data_start..data_start + len])
            && &rest[data_start + len..end] == b"\r\nEND\r\n";
        return Some(if ok { Checked::Hit } else { Checked::Wrong });
    }
    *pos += eol + 2;
    Some(match (line, op) {
        (b"END", KvOp::Get { .. }) => Checked::Miss,
        (b"STORED", KvOp::Set { .. }) => Checked::Stored,
        _ => Checked::Wrong,
    })
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    batches: Vec<Sample>,
    requests: u64,
    wrong: u64,
    misses: u64,
    read_calls: u64,
    codec_nanos: u64,
    error: Option<String>,
}

fn run_conn(
    addr: &str,
    mut mix: KeyMix,
    values: &HashMap<String, Bytes>,
    window: Duration,
    tracer: &Tracer,
) -> ConnResult {
    let mut r = ConnResult::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            r.error = Some(format!("connect: {e}"));
            return r;
        }
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut wire = Vec::with_capacity(DEPTH * (VALUE_LEN + 64));
    let mut rx = Vec::with_capacity(DEPTH * (VALUE_LEN + 64));
    let mut chunk = vec![0u8; 64 * 1024];
    let mut ops = Vec::with_capacity(DEPTH);
    let untraced = Tracer::disabled();
    let start = Instant::now();
    while start.elapsed() < window {
        let tracer = if r.batches.len() % BATCH_SPAN_EVERY == 0 {
            tracer
        } else {
            &untraced
        };
        let batch_span = tracer.span("bench.batch");
        let t = Instant::now();
        let encode_span = tracer.child(batch_span.id(), "client.encode");
        wire.clear();
        ops.clear();
        for _ in 0..DEPTH {
            let op = mix.next_op();
            command(&op, values).encode(&mut wire);
            ops.push(op);
        }
        drop(encode_span);
        let encoded = t.elapsed();
        if let Err(e) = stream.write_all(&wire) {
            r.error = Some(format!("write: {e}"));
            return r;
        }
        rx.clear();
        let (mut pos, mut got, mut decode) = (0usize, 0usize, Duration::ZERO);
        while got < DEPTH {
            let d = Instant::now();
            let reply = next_reply(&rx, &mut pos, &ops[got], values);
            decode += d.elapsed();
            match reply {
                Some(Checked::Hit | Checked::Stored) => got += 1,
                Some(Checked::Miss) => {
                    r.misses += 1;
                    got += 1;
                }
                Some(Checked::Wrong) => {
                    r.wrong += 1;
                    got += 1;
                }
                None => match stream.read(&mut chunk) {
                    Ok(0) => {
                        r.error = Some("server closed the connection".into());
                        return r;
                    }
                    Ok(n) => {
                        r.read_calls += 1;
                        rx.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) => {
                        r.error = Some(format!("read: {e}"));
                        return r;
                    }
                },
            }
        }
        r.batches.push(Sample {
            end_s: start.elapsed().as_secs_f64(),
            us: t.elapsed().as_secs_f64() * 1e6,
        });
        r.requests += DEPTH as u64;
        r.codec_nanos += (encoded + decode).as_nanos() as u64;
        if let Some(now) = tracer.now_nanos() {
            let nanos = decode.as_nanos() as u64;
            tracer.record_interval(
                batch_span.id(),
                "client.decode",
                now - nanos,
                now,
                Vec::new(),
            );
        }
    }
    r
}

/// What one measured window produced.
struct Window {
    elapsed: Duration,
    batches: Vec<Sample>,
    requests: u64,
    wrong: u64,
    misses: u64,
    read_calls: u64,
    codec_nanos: u64,
    errors: Vec<String>,
    cpu: (Duration, Duration),
    core: CoreCounters,
    store: StoreCounts,
}

fn measure(
    sys: &System,
    seed: u64,
    values: &HashMap<String, Bytes>,
    window: Duration,
    tracer: &Tracer,
) -> Window {
    let addr = sys.server.local_addr().to_string();
    let core_before = sys.cache.metrics().snapshot();
    let store_before = sys.store.counts();
    let cpu_before = stats::process_cpu();
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = addr.as_str();
                let mix = conn_mix(seed, c);
                scope.spawn(move || run_conn(addr, mix, values, window, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu = stats::cpu_between(cpu_before, stats::process_cpu());
    let mut w = Window {
        elapsed,
        batches: Vec::new(),
        requests: 0,
        wrong: 0,
        misses: 0,
        read_calls: 0,
        codec_nanos: 0,
        errors: Vec::new(),
        cpu,
        core: CoreCounters::between(&[core_before], &[sys.cache.metrics().snapshot()]),
        store: sys.store.counts().since(&store_before),
    };
    for r in results {
        w.batches.extend(r.batches);
        w.requests += r.requests;
        w.wrong += r.wrong;
        w.misses += r.misses;
        w.read_calls += r.read_calls;
        w.codec_nanos += r.codec_nanos;
        w.errors.extend(r.error);
    }
    w
}

/// Stores one wrong value (self-test only): under the key of the first
/// `get` of connection 0, so the first batch reads it back.
fn inject_wrong_value(sys: &System, seed: u64) -> Result<(), String> {
    let mut mix = conn_mix(seed, 0);
    let key = std::iter::repeat_with(|| mix.next_op())
        .find_map(|op| match op {
            KvOp::Get { key } => Some(key),
            _ => None,
        })
        .expect("the op stream has gets");
    let wrong = vec![0xa5u8; VALUE_LEN];
    set_all(
        &sys.server.local_addr().to_string(),
        &[(key.as_str(), &wrong[..])],
    )
}

pub fn run(seed: u64, window: Duration, trace: bool, fault: Fault) -> Result<Outcome, String> {
    let values = values(seed);
    let mut out = Outcome::default();
    let t = Instant::now();
    let sys = System::build(&values, Tracer::disabled())?;
    let first_setup = t.elapsed();
    if fault == Fault::WrongValue {
        inject_wrong_value(&sys, seed)?;
    }
    out.facts
        .push(("store_fs".into(), "memory (MemoryPageStore)".into()));
    out.facts.push((
        "kv".into(),
        format!(
            "keys={KEYS} value_len={VALUE_LEN} namespaces={NAMESPACES} zipf_s={ZIPF_S} \
             set_ratio={SET_RATIO} conns={CONNS} depth={DEPTH} page={PAGE} capacity={CAPACITY} \
             store=MemoryPageStore loop=closed"
        ),
    ));

    let run_window = if trace { window / 2 } else { window };
    let w = measure(&sys, seed, &values, run_window, &Tracer::disabled());
    out.identities.push(sys.finish());
    account(&mut out, &w);
    if !trace {
        out.metrics.extend(stats::sliced_metrics(
            &w.batches,
            DEPTH as f64,
            w.elapsed.as_secs_f64(),
        ));
        out.metrics
            .push(Metric::new("rss_peak_mib", stats::rss_peak_mib(), "MiB"));
        out.metrics.push(stats::setup_metric(first_setup, || {
            System::build(&values, Tracer::disabled())
        })?);
        return Ok(out);
    }

    let untraced = w;
    let tracer = Tracer::enabled(system_clock()).with_concurrent_timing(true);
    let sys = System::build(&values, tracer.clone())?;
    tracer.take_records(); // keep only the measured window's spans
    let traced = measure(&sys, seed, &values, run_window, &tracer);
    let laws = sys.finish();
    out.identities.push(laws);
    account(&mut out, &traced);
    let records = tracer.take_records();
    out.facts
        .push(("trace_file".into(), write_trace("kv", &records)));
    out.facts.push(("spans".into(), records.len().to_string()));
    let spans = SpanTotals::of(&records);
    let object_us = replay_object(seed, &values)?;
    let protocol_us = replay_protocol(seed, &values);
    out.metrics
        .extend(layer_metrics(&traced, &spans, object_us, protocol_us));
    let ops = |w: &Window| w.requests as f64 / w.elapsed.as_secs_f64();
    out.metrics.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ops(&traced) / ops(&untraced),
        "ratio",
    ));
    Ok(out)
}

/// Adds a window's requests and failures to the outcome.
fn account(out: &mut Outcome, w: &Window) {
    out.attempted += w.requests;
    out.failed += w.wrong;
    out.problems.extend(w.errors.iter().cloned());
    out.facts.push((
        "get_misses".into(),
        format!("{} (a get racing a set of its key may miss)", w.misses),
    ));
}

/// The first [`REPLAY_OPS`] ops of connection 0, replayed single-threaded
/// on an in-process `ObjectStore` over a fresh, warmed cache: µs per op.
fn replay_object(seed: u64, values: &HashMap<String, Bytes>) -> Result<f64, String> {
    let (cache, _store) = new_cache(Tracer::disabled())?;
    let objects = ObjectStore::new(cache, system_clock());
    for (k, v) in values {
        if objects.set(k, 0, 0, v) != SetOutcome::Stored {
            return Err(format!("replay warm-up set of {k} not stored"));
        }
    }
    let mut mix = conn_mix(seed, 0);
    let ops: Vec<KvOp> = (0..REPLAY_OPS).map(|_| mix.next_op()).collect();
    let t = Instant::now();
    for op in &ops {
        match op {
            KvOp::Get { key } => {
                std::hint::black_box(objects.get(key));
            }
            KvOp::Set { key, .. } => {
                std::hint::black_box(objects.set(key, 0, 0, &values[key]));
            }
            KvOp::Delete { .. } => unreachable!("the mix has no deletes"),
        }
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / REPLAY_OPS as f64)
}

/// The same ops as request bytes, parsed with `RequestParser` in
/// [`DEPTH`]-request segments, with every reply encoded: µs per op.
fn replay_protocol(seed: u64, values: &HashMap<String, Bytes>) -> f64 {
    let mut mix = conn_mix(seed, 0);
    let segments: Vec<Vec<u8>> = (0..REPLAY_OPS / DEPTH)
        .map(|_| {
            let mut wire = Vec::new();
            for _ in 0..DEPTH {
                command(&mix.next_op(), values).encode(&mut wire);
            }
            wire
        })
        .collect();
    let mut parser = RequestParser::new(ParserLimits::default());
    let mut out = Vec::with_capacity(DEPTH * (VALUE_LEN + 64));
    let mut parsed = 0usize;
    let t = Instant::now();
    for segment in &segments {
        parser.feed(segment);
        out.clear();
        while let Some(p) = parser.next() {
            parsed += 1;
            match p {
                Parsed::Cmd(Command::Get { keys, .. }) => {
                    for k in &keys {
                        encode_value(&mut out, k, 0, &values[k], None);
                    }
                    encode_end(&mut out);
                }
                Parsed::Cmd(_) => out.extend_from_slice(b"STORED\r\n"),
                Parsed::Bad(_) => {}
            }
        }
        std::hint::black_box(&out);
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(
        parsed,
        segments.len() * DEPTH,
        "every replayed request parses"
    );
    us / parsed as f64
}

fn layer_metrics(w: &Window, spans: &SpanTotals, object_us: f64, protocol_us: f64) -> Vec<Metric> {
    let req = w.requests.max(1) as f64;
    let batches = w.batches.len().max(1) as f64;
    let per_req_us = w.batches.iter().map(|b| b.us).sum::<f64>() / batches / DEPTH as f64;
    let codec_us = w.codec_nanos as f64 / 1e3 / req;
    let mut m = w.store.metrics(spans, req);
    m.extend(w.core.metrics(req));
    m.extend([
        Metric::new("object.us_per_req", object_us, "us"),
        Metric::new("protocol.us_per_req", protocol_us, "us"),
        Metric::new("client.codec_us_per_req", codec_us, "us"),
        Metric::new(
            "socket.us_per_req",
            per_req_us - object_us - protocol_us - codec_us,
            "us",
        ),
        Metric::new(
            "client.read_calls_per_batch",
            w.read_calls as f64 / batches,
            "calls",
        ),
        Metric::new(
            "server.get_hit_ratio",
            ratio(
                w.core.counter("server.get_hits") as f64,
                w.core.counter("server.get_keys") as f64,
            ),
            "ratio",
        ),
    ]);
    m.extend(stats::proc_metrics(w.cpu, w.requests));
    m
}
