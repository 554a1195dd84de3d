//! End-to-end test of the serve daemon across the crate seams: spawn on
//! an ephemeral port, ingest a fixture through the writer pipeline, run
//! the whole query protocol over real TCP, shut down, and verify the
//! final checkpoint restores to **bit-identical** sketch state against an
//! offline run of the same configuration.
//!
//! One writer over one shard replays the stream in a deterministic
//! order, so the comparison is exact bytes, not a drift bound (the
//! multi-writer drift case lives in `crates/cli/tests/serve_stress.rs`).
//! The one shard hashes with the daemon's seed, so the checkpoint also
//! holds the scalar FreeBS's state at that seed.

use freesketch::snapshot::{load_with_fallback, save_snapshot, AnySketch};
use freesketch::{CardinalityEstimator, FreeBS, ShardedFreeBS};
use freesketch_cli::protocol::ConfidenceLevel;
use freesketch_cli::serve::{spawn, ServeConfig};
use graphstream::snapshot::{find_section, read_sections};
use graphstream::{CycleSource, Edge};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const MEMORY_BITS: usize = 1 << 16;
const SEED: u64 = 42;
const CHUNK: usize = 512;
const BATCH: usize = 128;

/// 7 users with distinct cardinalities; `user 0` has 1200 items.
fn fixture() -> Vec<Edge> {
    let mut edges = Vec::new();
    for round in 0..1200u64 {
        for u in 0..7u64 {
            if round < 1200 - u * 150 {
                edges.push(Edge::new(u, round));
            }
        }
    }
    edges
}

fn sketch() -> AnySketch {
    AnySketch::ShardedFreeBS(ShardedFreeBS::new(MEMORY_BITS, 1, SEED))
}

/// The single daemon writer's stream order, chunk off the source, fed
/// through `ingest_batch` in `BATCH`-edge slices: a lone writer credits
/// every growth at its own `q`, so where the daemon cuts its slices does
/// not move a byte.
fn offline_run(edges: &[Edge]) -> AnySketch {
    let sketch = sketch();
    {
        let est = sketch.as_concurrent().expect("sharded kind");
        for chunk in edges.chunks(CHUNK) {
            let pairs: Vec<(u64, u64)> = chunk.iter().map(|e| e.pair()).collect();
            for block in pairs.chunks(BATCH) {
                est.ingest_batch(block);
            }
        }
    }
    sketch
}

fn snapshot_bytes(sketch: &AnySketch, edges: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_snapshot(&mut bytes, sketch, edges).expect("serialize");
    bytes
}

/// The snapshot of a scalar FreeBS at the daemon's seed and budget, fed
/// the fixture edge by edge.
fn scalar_bytes(edges: &[Edge]) -> Vec<u8> {
    let mut scalar = FreeBS::new(MEMORY_BITS, SEED);
    for e in edges {
        let (user, item) = e.pair();
        scalar.process(user, item);
    }
    snapshot_bytes(&AnySketch::FreeBS(scalar), edges.len() as u64)
}

/// The `CONF`, `ARRY` and `CNTR` payloads of a snapshot.
fn sections(bytes: &[u8]) -> [Vec<u8>; 3] {
    let sections = read_sections(&mut &bytes[..]).expect("sections");
    [b"CONF", b"ARRY", b"CNTR"].map(|tag| find_section(&sections, tag).expect("section").to_vec())
}

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("freesketch-e2e-{}-{tag}", std::process::id()));
    p
}

#[test]
fn serve_round_trip_restores_bit_identical_state() {
    let edges = fixture();
    let total = edges.len() as u64;
    let offline = offline_run(&edges);
    let scalar = scalar_bytes(&edges);

    let snap = temp_path("final.fsnp");
    std::fs::remove_file(&snap).ok();
    let handle = spawn(
        sketch(),
        Box::new(CycleSource::new(edges, 1)),
        ServeConfig {
            writers: 1,
            chunk: CHUNK,
            checkpoint: Some(snap.clone()),
            checkpoint_every: 1_000_000,
            ..ServeConfig::default()
        },
    )
    .expect("spawn on an ephemeral port");
    let addr = handle.addr();
    assert_eq!(addr.ip().to_string(), "127.0.0.1");
    assert_ne!(addr.port(), 0, "ephemeral port resolved");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut request = |line: &str| -> String {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    };

    // Wait until the writer drains the fixture.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = request("STATS");
        assert!(stats.starts_with("OK "), "{stats}");
        if stats.contains(&format!("edges={total} ")) {
            assert!(stats.contains("kind=sharded-freebs"), "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "ingest never finished: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // ESTIMATE agrees exactly with the offline run (same order, 1 shard).
    for u in 0..7u64 {
        let reply = request(&format!("ESTIMATE #{u:x}"));
        let est: f64 = reply
            .strip_prefix("OK ")
            .expect("OK reply")
            .parse()
            .expect("float");
        let want = offline.estimate(u);
        assert!(
            (est - want).abs() < 0.0005,
            "user {u}: served {est} vs offline {want}"
        );
    }

    // TOPK returns the heaviest users in offline order.
    let topk = request("TOPK 3");
    let ids: Vec<&str> = topk.split_whitespace().skip(2).collect();
    assert_eq!(ids.len(), 3, "{topk}");
    assert!(ids[0].starts_with("#0000000000000000:"), "{topk}");
    assert!(ids[1].starts_with("#0000000000000001:"), "{topk}");

    // CONFIDENCE brackets the estimate, and it is the library's interval
    // for the offline state, formatted as the daemon formats it.
    let conf = request("CONFIDENCE #0 95");
    let nums: Vec<f64> = conf
        .split_whitespace()
        .skip(1)
        .take(3)
        .map(|t| t.parse().expect("float"))
        .collect();
    assert_eq!(nums.len(), 3, "{conf}");
    assert!(nums[1] <= nums[0] && nums[0] <= nums[2], "{conf}");
    let z = ConfidenceLevel::P95.z();
    let ci = offline.confidence(0, z);
    assert_eq!(
        conf,
        format!(
            "OK {:.3} {:.3} {:.3} z={z:.4}",
            ci.estimate, ci.lower, ci.upper
        )
    );

    // Malformed input inside a healthy session: typed error, session lives.
    assert!(request("TOPK nope").starts_with("ERR bad-arg"));
    assert!(request("STATS").starts_with("OK "));

    // SNAPSHOT <path> quiesces and writes the same state the offline run
    // holds — bit-identical container bytes at the same edge offset.
    let live_snap = temp_path("live.fsnp");
    std::fs::remove_file(&live_snap).ok();
    let reply = request(&format!("SNAPSHOT {}", live_snap.display()));
    assert!(reply.starts_with("OK snapshot"), "{reply}");
    let live_bytes = std::fs::read(&live_snap).expect("snapshot written");
    assert_eq!(
        live_bytes,
        snapshot_bytes(&offline, total),
        "live SNAPSHOT bytes differ from the offline state"
    );

    assert!(request("SHUTDOWN").starts_with("OK draining"));
    let report = handle.join().expect("drained");
    assert_eq!(report.edges, total);
    assert!(report.checkpointed);
    assert!(!report.writer_panicked);
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // The final checkpoint restores to bit-identical store state: the
    // re-serialized restored sketch equals the offline serialization.
    let (restored, edges_recorded, used_fallback) = load_with_fallback(&snap)
        .expect("checkpoint readable")
        .expect("checkpoint present");
    assert!(!used_fallback);
    assert_eq!(edges_recorded, total);
    assert_eq!(
        snapshot_bytes(&restored, total),
        snapshot_bytes(&offline, total),
        "restored state differs from the offline run"
    );

    // The final checkpoint holds the scalar FreeBS's `ARRY` and `CNTR`
    // bytes and, after the router seed and shard count, its `CONF` engine
    // record.
    let [conf, arry, cntr] = sections(&std::fs::read(&snap).expect("final checkpoint"));
    let [scalar_conf, scalar_arry, scalar_cntr] = sections(&scalar);
    assert_eq!(arry, scalar_arry, "ARRY differs from the scalar sketch's");
    assert_eq!(cntr, scalar_cntr, "CNTR differs from the scalar sketch's");
    assert_eq!(
        conf[16..],
        scalar_conf[..],
        "CONF engine record differs from the scalar sketch's"
    );

    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(format!("{}.prev", snap.display())).ok();
    std::fs::remove_file(&live_snap).ok();
}
