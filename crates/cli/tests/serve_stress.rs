//! Concurrent stress test for the serve daemon: N writer threads ingest
//! while M client threads hammer the query protocol over TCP.
//!
//! Invariants checked under contention:
//!
//! * per-user estimates are **monotone non-decreasing** across reads
//!   (the concurrent counters only accumulate; a dip would mean a torn
//!   read);
//! * every reply parses and every estimate is finite — no NaN, no torn
//!   float state leaking through the wire;
//! * the drained final state matches an offline single-threaded run of
//!   the same sharded configuration within the documented drift bound
//!   (5% relative or an absolute slack of 10 — writer interleaving
//!   perturbs the shared-array fill order, not the counters' meaning).

use freesketch::snapshot::AnySketch;
use freesketch::{ConcurrentEstimator, ShardedFreeBS};
use freesketch_cli::serve::{spawn, ServeConfig};
use graphstream::{CycleSource, Edge};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: u64 = 48;
const MEMORY_BITS: usize = 1 << 20;
const SEED: u64 = 42;
const WRITERS: usize = 4;
const QUERY_THREADS: usize = 3;
const DRIFT_REL: f64 = 0.05;
const DRIFT_ABS: f64 = 10.0;

/// Deterministic fixture: user `u` has `(u + 1) * 25` distinct items,
/// rounds interleaved so every writer chunk mixes users.
fn fixture() -> Vec<Edge> {
    let mut edges = Vec::new();
    let max_card = USERS * 25;
    for round in 0..max_card {
        for u in 0..USERS {
            if round < (u + 1) * 25 {
                edges.push(Edge::new(u, round));
            }
        }
    }
    edges
}

fn sharded() -> ShardedFreeBS {
    ShardedFreeBS::new(MEMORY_BITS, WRITERS.next_power_of_two(), SEED)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        assert!(reply.ends_with('\n'), "unterminated reply `{reply}`");
        reply.trim_end().to_string()
    }

    fn estimate(&mut self, user: u64) -> f64 {
        let reply = self.request(&format!("ESTIMATE #{user:x}"));
        let rest = reply.strip_prefix("OK ").unwrap_or_else(|| {
            panic!("ESTIMATE replied `{reply}`");
        });
        let est: f64 = rest.parse().expect("estimate is a float");
        assert!(est.is_finite() && est >= 0.0, "torn estimate {est}");
        est
    }

    fn stats_edges(&mut self) -> u64 {
        let reply = self.request("STATS");
        assert!(reply.starts_with("OK "), "{reply}");
        reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("edges="))
            .expect("edges= in STATS")
            .parse()
            .expect("edges is an integer")
    }
}

#[test]
fn concurrent_queries_see_monotone_untorn_estimates() {
    let edges = fixture();
    let total = edges.len() as u64;

    // Offline baseline: same sharded configuration, one thread, in order.
    let offline = sharded();
    let pairs: Vec<(u64, u64)> = edges.iter().map(|e| e.pair()).collect();
    for block in pairs.chunks(128) {
        offline.ingest_batch(block);
    }

    let handle = spawn(
        AnySketch::ShardedFreeBS(sharded()),
        Box::new(CycleSource::new(edges, 1)),
        ServeConfig {
            writers: WRITERS,
            chunk: 512,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");
    let addr = handle.addr();

    // M query threads loop the protocol until ingest drains; each tracks
    // its own per-user floor, so any torn or regressing read trips it.
    let done = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..QUERY_THREADS {
        let done = Arc::clone(&done);
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let probes: Vec<u64> = (0..USERS)
                .filter(|u| u % QUERY_THREADS as u64 == t as u64)
                .collect();
            let mut floor = vec![0.0f64; probes.len()];
            let mut rounds = 0u64;
            // ORDERING: Acquire pairs with the main thread's Release
            // store ending the measurement loop.
            while !done.load(Ordering::Acquire) {
                for (i, &u) in probes.iter().enumerate() {
                    let est = c.estimate(u);
                    assert!(
                        est >= floor[i],
                        "user {u} estimate regressed: {est} < {}",
                        floor[i]
                    );
                    floor[i] = est;
                }
                // Interleave the heavier read-only verbs.
                let topk = c.request("TOPK 5");
                assert!(topk.starts_with("OK "), "{topk}");
                let _ = c.stats_edges();
                rounds += 1;
            }
            rounds
        }));
    }

    // Wait for the writers to drain the fixture.
    let mut main = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    while main.stats_edges() < total {
        assert!(Instant::now() < deadline, "ingest never finished");
        std::thread::sleep(Duration::from_millis(20));
    }

    // ORDERING: Release pairs with the query threads' Acquire loop test.
    done.store(true, Ordering::Release);
    let rounds: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("query thread"))
        .sum();
    assert!(rounds > 0, "query threads never completed a round");

    // Drained state matches the offline run within the drift bound.
    for u in 0..USERS {
        let served = main.estimate(u);
        let expect = offline.estimate(u);
        let tol = expect.abs() * DRIFT_REL + DRIFT_ABS;
        assert!(
            (served - expect).abs() <= tol,
            "user {u}: served {served} vs offline {expect} (tol {tol})"
        );
    }

    assert!(main.request("SHUTDOWN").starts_with("OK draining"));
    let report = handle.join().expect("join");
    assert_eq!(report.edges, total);
    assert!(!report.writer_panicked);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
}
