//! Closed-loop load generator for the memcached front-end.
//!
//! N client connections drive Zipf-skewed KV traffic (reusing
//! `edgecache-workload`'s key distributions) against a server, serially or
//! pipelined, and verify the protocol contract as they go:
//!
//! * every request gets exactly one response, in order (`responses ==
//!   requests` is checked per connection — a dropped or reordered reply
//!   fails the run);
//! * `get` hits are compared byte-for-byte against the deterministic
//!   value every `set` of that key must have written;
//! * connection resets and short reads are counted and fail the run.
//!
//! The same driver serves three callers: the `loadgen` binary (manual runs
//! and the CI smoke job), the server e2e tests, and the `server` bench
//! experiment's per-cell measurement loop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use edgecache_metrics::Histogram;
use edgecache_workload::kv::{fill_value, KeyMix, KeyMixConfig, KvOp};

use crate::protocol::Command;

/// Load-run options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:11211`.
    pub addr: String,
    /// Concurrent client connections.
    pub conns: usize,
    /// Requests in flight per connection (1 = serial request/response).
    pub pipeline_depth: usize,
    /// Requests each connection issues.
    pub requests_per_conn: usize,
    /// Key/op distribution (each connection derives its own seed).
    pub mix: KeyMixConfig,
    /// Verify `get` hit payloads byte-for-byte.
    pub verify_values: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:11211".to_string(),
            conns: 4,
            pipeline_depth: 16,
            requests_per_conn: 10_000,
            mix: KeyMixConfig::default(),
            verify_values: true,
        }
    }
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    pub requests: u64,
    pub responses: u64,
    pub hits: u64,
    pub misses: u64,
    pub stored: u64,
    pub not_stored: u64,
    pub deleted: u64,
    pub errors: u64,
    /// Connection-level failures: resets, short reads, connect errors.
    pub resets: u64,
    /// `get` payloads that did not match the deterministic expectation.
    pub value_mismatches: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Client round trips: batches written before waiting for their
    /// replies. Deterministic — `ceil(requests_per_conn / pipeline_depth)`
    /// per connection.
    pub round_trips: u64,
    pub elapsed: Duration,
    pub p50_us: u64,
    pub p99_us: u64,
}

impl LoadgenReport {
    /// Requests per second over the whole run.
    pub fn req_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The protocol contract the CI smoke job asserts: every request
    /// answered, no transport failures, no corrupted values.
    pub fn conserved(&self) -> Result<(), String> {
        if self.responses != self.requests {
            return Err(format!(
                "response conservation violated: {} responses for {} requests",
                self.responses, self.requests
            ));
        }
        if self.resets > 0 {
            return Err(format!("{} connection resets", self.resets));
        }
        if self.value_mismatches > 0 {
            return Err(format!("{} corrupted get payloads", self.value_mismatches));
        }
        Ok(())
    }
}

/// One decoded response frame, as much as the client cares about it.
#[derive(Debug, PartialEq, Eq)]
enum Reply {
    /// `END` after zero or more values; carries (key, data) pairs.
    GetResult(Vec<(String, Vec<u8>)>),
    Stored,
    NotStored,
    Deleted,
    NotFound,
    /// ERROR / CLIENT_ERROR / SERVER_ERROR / other terminal line.
    Error(String),
    Other,
}

/// Client-side incremental response decoder (the mirror of the server's
/// request parser; also exercised by the e2e tests).
#[derive(Debug, Default)]
struct ReplyReader {
    buf: Vec<u8>,
    consumed: usize,
    /// Values of the in-progress get response.
    values: Vec<(String, Vec<u8>)>,
    /// Bytes of data block pending for the current VALUE line.
    pending_value: Option<(String, usize)>,
}

impl ReplyReader {
    fn feed(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && (self.consumed >= 4096 || self.consumed == self.buf.len()) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn next(&mut self) -> Option<Reply> {
        loop {
            if let Some((key, len)) = self.pending_value.take() {
                if self.buf.len() - self.consumed < len + 2 {
                    self.pending_value = Some((key, len));
                    return None;
                }
                let start = self.consumed;
                let data = self.buf[start..start + len].to_vec();
                self.consumed = start + len + 2; // data + \r\n
                self.values.push((key, data));
                continue;
            }
            let start = self.consumed;
            let rel = self.buf[start..].iter().position(|&b| b == b'\n')?;
            let end = start + rel;
            self.consumed = end + 1;
            let line = if end > start && self.buf[end - 1] == b'\r' {
                &self.buf[start..end - 1]
            } else {
                &self.buf[start..end]
            };
            let text = String::from_utf8_lossy(line).to_string();
            if let Some(rest) = text.strip_prefix("VALUE ") {
                let mut toks = rest.split(' ');
                let key = toks.next().unwrap_or("").to_string();
                let _flags = toks.next();
                let len: usize = toks.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                self.pending_value = Some((key, len));
                continue;
            }
            if text.starts_with("STAT ") {
                continue; // swallowed into the terminating END
            }
            return Some(match text.as_str() {
                "END" => Reply::GetResult(std::mem::take(&mut self.values)),
                "STORED" => Reply::Stored,
                "NOT_STORED" => Reply::NotStored,
                "DELETED" => Reply::Deleted,
                "NOT_FOUND" => Reply::NotFound,
                t if t.starts_with("ERROR")
                    || t.starts_with("CLIENT_ERROR")
                    || t.starts_with("SERVER_ERROR") =>
                {
                    Reply::Error(t.to_string())
                }
                _ => Reply::Other, // VERSION, OK, ...
            });
        }
    }
}

/// Runs one connection's share of the load; returns its partial report.
fn run_conn(
    opts: &LoadgenOptions,
    conn_id: usize,
    latency: &Histogram,
) -> Result<LoadgenReport, String> {
    let mut report = LoadgenReport::default();
    let mut stream = TcpStream::connect(&opts.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut mix = KeyMix::new(KeyMixConfig {
        seed: opts.mix.seed.wrapping_add(conn_id as u64 * 0x9e37),
        ..opts.mix.clone()
    });
    let mut reader = ReplyReader::default();
    let mut rx_buf = vec![0u8; 64 * 1024];
    let depth = opts.pipeline_depth.max(1);
    let mut issued = 0usize;

    while issued < opts.requests_per_conn {
        let batch = depth.min(opts.requests_per_conn - issued);
        let mut wire = Vec::with_capacity(batch * 64);
        let mut expected: Vec<KvOp> = Vec::with_capacity(batch);
        for _ in 0..batch {
            let op = mix.next_op();
            let cmd = match &op {
                KvOp::Get { key } => Command::Get {
                    keys: vec![key.clone()],
                    with_cas: false,
                },
                KvOp::Set { key, value_len } => Command::Set {
                    key: key.clone(),
                    flags: 0,
                    exptime: 0,
                    noreply: false,
                    data: bytes::Bytes::from(fill_value(key, *value_len)),
                },
                KvOp::Delete { key } => Command::Delete {
                    key: key.clone(),
                    noreply: false,
                },
            };
            cmd.encode(&mut wire);
            expected.push(op);
        }
        let batch_start = Instant::now();
        stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        report.bytes_sent += wire.len() as u64;
        report.requests += batch as u64;
        report.round_trips += 1;
        issued += batch;

        // Collect exactly `batch` replies, in order.
        let mut got = 0usize;
        while got < batch {
            match reader.next() {
                Some(reply) => {
                    report.responses += 1;
                    match (&reply, &expected[got]) {
                        (Reply::GetResult(values), KvOp::Get { key }) => {
                            if values.is_empty() {
                                report.misses += 1;
                            } else {
                                report.hits += 1;
                                if opts.verify_values {
                                    for (k, data) in values {
                                        if k != key || data != &fill_value(key, opts.mix.value_len)
                                        {
                                            report.value_mismatches += 1;
                                        }
                                    }
                                }
                            }
                        }
                        (Reply::Stored, _) => report.stored += 1,
                        (Reply::NotStored, _) => report.not_stored += 1,
                        (Reply::Deleted, _) => report.deleted += 1,
                        (Reply::NotFound, _) => {}
                        (Reply::Error(e), _) => {
                            report.errors += 1;
                            if report.errors <= 3 {
                                eprintln!("loadgen: server error: {e}");
                            }
                        }
                        _ => {}
                    }
                    got += 1;
                }
                None => {
                    let n = stream.read(&mut rx_buf).map_err(|e| format!("read: {e}"))?;
                    if n == 0 {
                        report.resets += 1;
                        return Ok(report);
                    }
                    report.bytes_received += n as u64;
                    reader.feed(&rx_buf[..n]);
                }
            }
        }
        let us = batch_start.elapsed().as_micros() as u64;
        // Attribute the batch latency to each request in it (the standard
        // closed-loop pipelining convention).
        latency.record_n(us, batch as u64);
    }
    Ok(report)
}

/// Runs the full load: `opts.conns` threads, each issuing
/// `opts.requests_per_conn` requests.
pub fn run(opts: &LoadgenOptions) -> LoadgenReport {
    let latency = Arc::new(Histogram::new());
    let start = Instant::now();
    let partials: Vec<Result<LoadgenReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.conns)
            .map(|c| {
                let latency = Arc::clone(&latency);
                let opts = opts.clone();
                scope.spawn(move || run_conn(&opts, c, &latency))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    let mut total = LoadgenReport::default();
    for partial in partials {
        match partial {
            Ok(p) => {
                total.requests += p.requests;
                total.responses += p.responses;
                total.hits += p.hits;
                total.misses += p.misses;
                total.stored += p.stored;
                total.not_stored += p.not_stored;
                total.deleted += p.deleted;
                total.errors += p.errors;
                total.resets += p.resets;
                total.value_mismatches += p.value_mismatches;
                total.bytes_sent += p.bytes_sent;
                total.bytes_received += p.bytes_received;
                total.round_trips += p.round_trips;
            }
            Err(e) => {
                eprintln!("loadgen: connection failed: {e}");
                total.resets += 1;
            }
        }
    }
    total.elapsed = start.elapsed();
    total.p50_us = latency.quantile(0.50).unwrap_or(0);
    total.p99_us = latency.quantile(0.99).unwrap_or(0);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_reader_decodes_split_frames() {
        let wire = b"VALUE k 0 3\r\nabc\r\nEND\r\nSTORED\r\nNOT_FOUND\r\nSERVER_ERROR boom\r\n";
        for split in 0..wire.len() {
            let mut r = ReplyReader::default();
            r.feed(&wire[..split]);
            let mut got = Vec::new();
            while let Some(x) = r.next() {
                got.push(x);
            }
            r.feed(&wire[split..]);
            while let Some(x) = r.next() {
                got.push(x);
            }
            assert_eq!(got.len(), 4, "split at {split}");
            assert_eq!(
                got[0],
                Reply::GetResult(vec![("k".to_string(), b"abc".to_vec())])
            );
            assert_eq!(got[1], Reply::Stored);
            assert_eq!(got[2], Reply::NotFound);
            assert!(matches!(&got[3], Reply::Error(e) if e.contains("boom")));
        }
    }

    #[test]
    fn reply_reader_swallows_stats_into_end() {
        let mut r = ReplyReader::default();
        r.feed(b"STAT a 1\r\nSTAT b 2\r\nEND\r\n");
        assert_eq!(r.next(), Some(Reply::GetResult(vec![])));
        assert_eq!(r.next(), None);
    }
}
