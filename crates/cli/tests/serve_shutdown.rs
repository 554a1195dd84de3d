//! Shutdown-path tests for the serve daemon: a `SHUTDOWN` mid-ingest and
//! a writer-thread panic must both drain in-flight batches and publish
//! the final checkpoint atomically (`.part` staging → rename — never a
//! truncated snapshot at the target path).

use freesketch::snapshot::{load_with_fallback, AnySketch};
use freesketch::{CardinalityEstimator, ShardedFreeBS};
use freesketch_cli::serve::{spawn, ServeConfig};
use graphstream::{CycleSource, Edge, EdgeSource, EdgeStreamError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn fixture(n: u64) -> Vec<Edge> {
    (0..n)
        .map(|i| Edge::new(i % 31, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

fn sketch() -> AnySketch {
    AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 18, 2, 42))
}

fn temp_snap(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "freesketch-serve-{}-{tag}.fsnp",
        std::process::id()
    ));
    p
}

fn cleanup(snap: &Path) {
    for suffix in ["", ".prev", ".part"] {
        let mut s = snap.as_os_str().to_os_string();
        s.push(suffix);
        std::fs::remove_file(s).ok();
    }
}

/// Restores the published snapshot and checks it is complete and
/// checksum-clean (no fallback needed, no staging residue).
fn assert_clean_checkpoint(snap: &Path, want_edges: u64) {
    let mut part = snap.as_os_str().to_os_string();
    part.push(".part");
    assert!(
        !Path::new(&part).exists(),
        "staging file survived the rename"
    );
    let (restored, edges, used_fallback) = load_with_fallback(snap)
        .expect("snapshot readable")
        .expect("snapshot present");
    assert!(!used_fallback, "published snapshot failed validation");
    assert_eq!(edges, want_edges, "checkpoint offset vs drained offset");
    assert_eq!(restored.kind(), "sharded-freebs");
    assert!(restored.total_estimate().is_finite());
}

#[test]
fn shutdown_mid_ingest_drains_and_checkpoints_atomically() {
    let snap = temp_snap("shutdown");
    cleanup(&snap);
    // 200 passes over the fixture: ingest far outlives the SHUTDOWN sent
    // right after connect, so the drain interrupts live writers. A small
    // interval forces periodic checkpoints (and a rotation) first.
    let src = Box::new(CycleSource::new(fixture(20_000), 200));
    let handle = spawn(
        sketch(),
        src,
        ServeConfig {
            writers: 2,
            chunk: 1024,
            checkpoint: Some(snap.clone()),
            checkpoint_every: 50_000,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"SHUTDOWN\n").expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    assert!(reply.starts_with("OK draining"), "{reply}");

    let report = handle.join().expect("join");
    assert!(!report.writer_panicked);
    assert!(report.checkpointed, "final checkpoint missing");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.edges < 20_000 * 200,
        "shutdown did not interrupt ingest"
    );
    assert_clean_checkpoint(&snap, report.edges);
    cleanup(&snap);
}

/// A source that delivers a prefix of the stream, then panics inside the
/// writer thread — the harsher cousin of an I/O error.
struct PanickingSource {
    inner: CycleSource,
    chunks_left: u32,
}

impl EdgeSource for PanickingSource {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        assert!(self.chunks_left > 0, "injected stream failure");
        self.chunks_left -= 1;
        self.inner.next_chunk(buf, max)
    }
}

#[test]
fn writer_panic_still_drains_and_checkpoints() {
    let snap = temp_snap("panic");
    cleanup(&snap);
    let src = Box::new(PanickingSource {
        inner: CycleSource::new(fixture(20_000), 200),
        chunks_left: 8,
    });
    let handle = spawn(
        sketch(),
        src,
        ServeConfig {
            writers: 2,
            chunk: 1024,
            checkpoint: Some(snap.clone()),
            checkpoint_every: 1_000_000,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");

    let report = handle.join().expect("daemon thread survives writer panic");
    assert!(report.writer_panicked, "panic not reported");
    assert!(report.checkpointed, "no final checkpoint after panic");
    // The 8 delivered chunks were fully applied before the panic tripped
    // the drain: in-flight batches are never dropped.
    assert_eq!(report.edges, 8 * 1024);
    assert_clean_checkpoint(&snap, report.edges);
    cleanup(&snap);
}

#[test]
fn source_error_is_reported_not_fatal() {
    struct FailingSource;
    impl EdgeSource for FailingSource {
        fn next_chunk(&mut self, _: &mut Vec<Edge>, _: usize) -> Result<usize, EdgeStreamError> {
            Err(EdgeStreamError::Io(std::io::Error::other("disk gone")))
        }
    }
    let handle = spawn(
        sketch(),
        Box::new(FailingSource),
        ServeConfig {
            writers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");
    // The daemon keeps serving queries after the stream dies: wait until
    // STATS counts the error (a writer has pulled from the source), then
    // shut it down programmatically and check the error surfaced in the
    // report.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        writer.write_all(b"STATS\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("OK "), "{reply}");
        if !reply.contains(" errors=0 ") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stream error never surfaced: {reply}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(!report.writer_panicked);
    assert_eq!(report.edges, 0);
    assert!(
        report.errors.iter().any(|e| e.contains("disk gone")),
        "{:?}",
        report.errors
    );
}
