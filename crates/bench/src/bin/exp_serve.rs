//! Serve-path benchmark: query latency under sustained ingest load.
//!
//! Spawns the serve daemon in-process (the same `freesketch_cli::serve`
//! entry the `serve` subcommand uses) with writer threads cycling a
//! synthetic edge stream indefinitely, then runs several TCP client
//! threads that time `ESTIMATE`/`TOPK`/`STATS` request–reply round trips
//! while the writers are live. Reports the sustained ingest rate (from
//! `STATS edges=` deltas over the measurement window — the honest number,
//! counted while queries contend for the shard locks) and the client-side
//! p50/p99 per-verb latency.
//!
//! ```text
//! cargo run -p freesketch-bench --release --bin exp_serve [--quick] \
//!     [--json] [--out PATH] [--writers N] [--clients M] [--seconds S]
//! ```
//!
//! `--json` writes the machine-readable `BENCH_serve.json` (override with
//! `--out`). Like every BENCH artifact, it embeds the host context the
//! numbers were measured under.

use freesketch::snapshot::AnySketch;
use freesketch::ShardedFreeBS;
use freesketch_cli::serve::{spawn, ServeConfig};
use graphstream::{CycleSource, Edge};
use metrics::{Summary, Table};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MEMORY_BITS: usize = 1 << 22;
const SEED: u64 = 42;
const USERS: u64 = 4096;

/// Latency samples for one protocol verb, measured by one client.
struct VerbSamples {
    verb: &'static str,
    micros: Summary,
}

/// One TCP client: line-oriented request/reply with per-call timing.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).ok();
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one request line and waits for the reply; returns the
    /// round-trip time in microseconds.
    fn timed(&mut self, line: &str, reply: &mut String) -> f64 {
        let start = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
        reply.clear();
        self.reader.read_line(reply).expect("read reply");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        assert!(reply.starts_with("OK "), "daemon replied `{reply}`");
        micros
    }

    fn stats_edges(&mut self) -> u64 {
        let mut reply = String::new();
        self.timed("STATS", &mut reply);
        reply
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("edges="))
            .expect("edges= in STATS")
            .parse()
            .expect("edges is an integer")
    }
}

/// Cycles ESTIMATE/TOPK/STATS until the deadline, recording per-verb
/// round-trip times. The ESTIMATE user id sweeps the keyspace so shard
/// access is spread like a real query mix.
fn client_loop(addr: SocketAddr, deadline: Instant, id: usize) -> Vec<VerbSamples> {
    let mut c = Client::connect(addr);
    let mut estimate = Summary::new();
    let mut topk = Summary::new();
    let mut stats = Summary::new();
    let mut reply = String::new();
    let mut user = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % USERS;
    while Instant::now() < deadline {
        for _ in 0..8 {
            estimate.push(c.timed(&format!("ESTIMATE #{user:x}"), &mut reply));
            user = (user + 1) % USERS;
        }
        topk.push(c.timed("TOPK 10", &mut reply));
        stats.push(c.timed("STATS", &mut reply));
    }
    vec![
        VerbSamples {
            verb: "ESTIMATE",
            micros: estimate,
        },
        VerbSamples {
            verb: "TOPK",
            micros: topk,
        },
        VerbSamples {
            verb: "STATS",
            micros: stats,
        },
    ]
}

/// Heavy-tailed fixture the writers cycle forever: `USERS` users, user
/// `u` owns `1 + (u % 97)` distinct items, rounds interleaved.
fn fixture() -> Vec<Edge> {
    let mut edges = Vec::new();
    for round in 0..97u64 {
        for u in 0..USERS {
            if round <= u % 97 {
                edges.push(Edge::new(u, round));
            }
        }
    }
    edges
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// Same host-context block every BENCH artifact embeds.
fn host_context_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "  \"host\": {{\"available_parallelism\": {}, \"git_commit\": \"{commit}\"}},\n",
        available_cores()
    )
}

/// Per-verb aggregate across all clients.
struct VerbResult {
    verb: &'static str,
    count: usize,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

fn render_json(
    writers: usize,
    clients: usize,
    seconds: f64,
    ingest_edges_per_s: f64,
    verbs: &[VerbResult],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"exp_serve\",\n  \"writers\": {writers},\n  \"clients\": {clients},\n  \"window_seconds\": {seconds:.3},\n"
    ));
    s.push_str(&host_context_json());
    s.push_str(&format!(
        "  \"ingest_edges_per_s\": {ingest_edges_per_s:.1},\n"
    ));
    // Top-level p50/p99 are the ESTIMATE verb — the latency number that
    // matters for point queries; the per-verb breakdown follows.
    let est = verbs
        .iter()
        .find(|v| v.verb == "ESTIMATE")
        .expect("ESTIMATE samples");
    s.push_str(&format!(
        "  \"query_p50_us\": {:.1},\n  \"query_p99_us\": {:.1},\n",
        est.p50_us, est.p99_us
    ));
    s.push_str("  \"verbs\": [\n");
    for (i, v) in verbs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"verb\": \"{}\", \"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}}}{}\n",
            v.verb,
            v.count,
            v.p50_us,
            v.p99_us,
            v.mean_us,
            if i + 1 < verbs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let mut out_path = "BENCH_serve.json".to_string();
    let mut writers = 2usize;
    let mut clients = 3usize;
    let mut seconds: f64 = if quick { 2.0 } else { 8.0 };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    out_path.clone_from(v);
                    i += 1;
                }
            }
            "--writers" => {
                if let Some(v) = args.get(i + 1) {
                    writers = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad --writers value `{v}`");
                        std::process::exit(2);
                    });
                    i += 1;
                }
            }
            "--clients" => {
                if let Some(v) = args.get(i + 1) {
                    clients = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad --clients value `{v}`");
                        std::process::exit(2);
                    });
                    i += 1;
                }
            }
            "--seconds" => {
                if let Some(v) = args.get(i + 1) {
                    seconds = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad --seconds value `{v}`");
                        std::process::exit(2);
                    });
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }

    let edges = fixture();
    println!(
        "Serve under load: {} writers cycling {} edges, {} query clients, {seconds:.1}s window",
        writers,
        edges.len(),
        clients
    );

    // Enough passes that ingest outlives any realistic window; SHUTDOWN
    // interrupts the cycle when the measurement is done.
    let source = Box::new(CycleSource::new(edges, u64::MAX));
    let shards = writers.next_power_of_two();
    let handle = spawn(
        AnySketch::ShardedFreeBS(ShardedFreeBS::new(MEMORY_BITS, shards, SEED)),
        source,
        ServeConfig {
            writers,
            chunk: 1 << 14,
            batch: 1024,
            ..ServeConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = handle.addr();

    // Warm up: let the writers touch the whole keyspace once before the
    // timed window so first-touch allocation is off the clock.
    let mut probe = Client::connect(addr);
    while probe.stats_edges() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let edges_before = probe.stats_edges();
    let window_start = Instant::now();
    let deadline = window_start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<VerbSamples>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| s.spawn(move || client_loop(addr, deadline, id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = window_start.elapsed().as_secs_f64();
    let edges_after = probe.stats_edges();
    let ingest_edges_per_s = (edges_after - edges_before) as f64 / window;

    let mut reply = String::new();
    probe.timed("SHUTDOWN", &mut reply);
    assert!(reply.starts_with("OK draining"), "{reply}");
    let report = handle.join().expect("daemon drained");
    assert!(!report.writer_panicked, "writer panicked during bench");

    // Merge per-client samples per verb.
    let mut verbs: Vec<VerbResult> = Vec::new();
    for verb in ["ESTIMATE", "TOPK", "STATS"] {
        let mut merged = Summary::new();
        for client in &per_client {
            if let Some(v) = client.iter().find(|v| v.verb == verb) {
                merged.merge(&v.micros);
            }
        }
        assert!(merged.count() > 0, "no {verb} samples in the window");
        verbs.push(VerbResult {
            verb,
            count: merged.count(),
            p50_us: merged.quantile(0.5),
            p99_us: merged.quantile(0.99),
            mean_us: merged.mean(),
        });
    }

    let mut table = Table::new(["verb", "count", "p50 us", "p99 us", "mean us"]);
    for v in &verbs {
        table.row(vec![
            v.verb.to_string(),
            v.count.to_string(),
            format!("{:.1}", v.p50_us),
            format!("{:.1}", v.p99_us),
            format!("{:.1}", v.mean_us),
        ]);
    }
    println!(
        "\nsustained ingest while querying: {ingest_edges_per_s:.2e} edges/s ({} edges in {window:.2}s)",
        edges_after - edges_before
    );
    print!("{}", table.render());
    println!(
        "drained: {} edges ingested, {} queries served",
        report.edges, report.queries
    );

    if json {
        let body = render_json(writers, clients, window, ingest_edges_per_s, &verbs);
        std::fs::write(&out_path, body).expect("write JSON results");
        println!("\nwrote {out_path}");
    }
}
