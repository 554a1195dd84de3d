//! The anytime-estimate daemon: concurrent ingest + a line-protocol query
//! surface over TCP.
//!
//! This is the paper's *anytime* property made operational — writer
//! threads drive an [`EdgeSource`] through the sharded concurrent ingest
//! pipeline (`&self`, one writer per shard at a time, per-shard counter
//! maps) while thread-per-connection handlers answer the
//! [`protocol`](crate::protocol) queries against the very same sketch.
//! No snapshot copy, no stop-the-world: queries read the live state.
//!
//! Consistency machinery, in order of strength:
//!
//! * **Live queries** (`ESTIMATE`, `TOPK`, `STATS`, `CONFIDENCE`) read
//!   the concurrent stores directly. Per-user estimates are monotone
//!   non-decreasing (counters only accumulate) and never torn (each
//!   counter read locks its shard). `STATS` reads the engines' running
//!   totals and, at one shard, the shard's user count: O(P) work, no
//!   scan of the users. With more shards its `users=` merges every
//!   shard's users (see [`protocol`](crate::protocol)).
//! * **`SNAPSHOT` / periodic checkpoints** quiesce ingest only while
//!   they copy the state out. A writer reads each chunk under the `gate`
//!   RwLock, shared, and holds it until `edges_applied`, which grows batch
//!   by batch, counts the whole chunk.
//!   A snapshot takes the `source` lock, so no new chunk is read, then the
//!   gate exclusively, which waits out the chunks in flight. So every
//!   image holds exactly the first `edges` edges of the stream that it
//!   records — the invariant `Checkpointer` and a resume rely on.
//!   Encoding, checksumming, writing and fsync run after both are
//!   released, one snapshot at a time under the `ckpt` mutex (lock order:
//!   `ckpt`, `source`, `gate`).
//! * **Shutdown** (the `SHUTDOWN` verb, [`ServerHandle::shutdown`], or a
//!   writer-thread panic) drains: writers finish their in-flight chunk
//!   and exit, then the final checkpoint is published through
//!   [`graphstream::replace_file`] (staged `.part` → fsync → rename →
//!   directory fsync) before [`ServerHandle::join`] returns. A truncated
//!   snapshot is never visible at the target path.

use crate::commands::crash_after_env;
use crate::protocol::{parse_request, LineReader, LineStatus, ProtocolError, Request};
use freesketch::ingest::{DEFAULT_BATCH, DEFAULT_CHUNK};
use freesketch::snapshot::{AnySketch, Checkpointer, SnapshotImage};
use freesketch::CardinalityEstimator;
use graphstream::{Edge, EdgeSource};
use parking_lot::{Mutex, RwLock};
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection handler blocks in `read` before re-checking the
/// shutdown flag — the bound on how late an idle connection notices a
/// drain.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the accept loop waits before retrying a failed `accept` (out
/// of file descriptors, say).
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// How long a drain request waits to connect to its own listener, the
/// wake-up of the accept loop blocked in `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Daemon configuration (the CLI's `serve` subcommand maps its flags
/// here; tests construct it directly).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` picks an ephemeral port (read it back
    /// from [`ServerHandle::addr`]).
    pub port: u16,
    /// Writer (ingest) threads pulling chunks from the shared source.
    pub writers: usize,
    /// Edges pulled from the source per writer chunk.
    pub chunk: usize,
    /// Stream offset already applied to the sketch (a restored
    /// checkpoint's edge count; 0 for a fresh sketch).
    pub base_edges: u64,
    /// Checkpoint snapshot path; `None` disables checkpointing (both
    /// periodic and final).
    pub checkpoint: Option<PathBuf>,
    /// Edges between periodic checkpoints.
    pub checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 0,
            writers: 1,
            chunk: DEFAULT_CHUNK,
            base_edges: 0,
            checkpoint: None,
            checkpoint_every: 1_000_000,
        }
    }
}

/// Why the daemon could not start or finish.
#[derive(Debug)]
pub enum ServeError {
    /// The sketch kind has no shared (`&self`) ingest path — serve needs
    /// a sharded kind. Carries the offending kind string.
    NotConcurrent(&'static str),
    /// Binding the listener failed (a port conflict lands here).
    Io(std::io::Error),
    /// The daemon thread itself died; the report is lost.
    Died,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotConcurrent(kind) => write!(
                f,
                "serve needs a sharded sketch kind for concurrent ingest, got `{kind}`"
            ),
            Self::Io(e) => write!(f, "cannot serve: {e}"),
            Self::Died => write!(f, "daemon thread died"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// What the daemon did, returned by [`ServerHandle::join`] after a drain.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Absolute stream offset at shutdown (base + edges ingested).
    pub edges: u64,
    /// Protocol requests answered (including error replies).
    pub queries: u64,
    /// Whether a writer thread panicked (the daemon still drained and
    /// checkpointed what was applied).
    pub writer_panicked: bool,
    /// Whether the final checkpoint was published.
    pub checkpointed: bool,
    /// Stream/checkpoint/accept errors recorded along the way.
    pub errors: Vec<String>,
}

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or send the
/// `SHUTDOWN` verb) for a drained exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    main: JoinHandle<ServeReport>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port of `port: 0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the same drain the `SHUTDOWN` verb does.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the daemon to drain and returns its report.
    ///
    /// # Errors
    /// [`ServeError::Died`] if the daemon thread panicked.
    pub fn join(self) -> Result<ServeReport, ServeError> {
        self.main.join().map_err(|_| ServeError::Died)
    }
}

/// Everything the writer, connection and acceptor threads share.
struct Shared {
    /// The live sketch; a sharded kind, so ingest is `&self`.
    sketch: AnySketch,
    /// Ingest gate: writers hold it shared from reading a chunk to
    /// counting it applied; snapshot/checkpoint paths take it exclusively
    /// (see [`quiesced`]) to stop at a stream prefix.
    gate: RwLock<()>,
    /// The one edge source all writers pull chunks from.
    source: Mutex<SourceSlot>,
    /// Rotating checkpoint writer (`None` when checkpointing is off).
    /// Every snapshot write — checkpoints and `SNAPSHOT` alike — holds
    /// this lock, so two writes never race on one staging file.
    ckpt: Mutex<Option<Checkpointer>>,
    /// Errors worth surfacing in `STATS`/the final report (bounded).
    errors: Mutex<Vec<String>>,
    /// Absolute stream offset applied (starts at `base_edges`).
    edges_applied: AtomicU64,
    /// Protocol requests answered.
    served_queries: AtomicU64,
    /// Drain requested (verb, handle, writer panic, checkpoint failure).
    shutdown_flag: AtomicBool,
    /// The listener's address: a drain request connects to it to wake the
    /// accept loop.
    addr: SocketAddr,
    /// Writer-thread count (reported by `STATS`).
    writers: usize,
    start: Instant,
}

struct SourceSlot {
    src: Box<dyn EdgeSource + Send>,
    done: bool,
}

/// Most recorded errors kept; later ones are dropped (the first failures
/// are the diagnostic ones).
const MAX_ERRORS: usize = 64;

impl Shared {
    fn begin_shutdown(&self) {
        // ORDERING: Release publishes everything that happened before the
        // drain request (applied chunks, recorded errors) to the writers,
        // connection handlers and acceptor, whose Acquire loads of this
        // flag pick it up.
        self.shutdown_flag.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a connection wakes it to see
        // the flag. A refused one means the loop has already stopped.
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }

    fn shutting_down(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in
        // begin_shutdown / the writer panic guard.
        self.shutdown_flag.load(Ordering::Acquire)
    }

    fn record_error(&self, msg: String) {
        let mut errs = self.errors.lock();
        if errs.len() < MAX_ERRORS {
            errs.push(msg);
        }
    }
}

/// Notices a writer-thread panic on unwind and converts it into a drain
/// request, so in-flight work elsewhere completes and the final
/// checkpoint still gets published. The report learns of the panic from
/// the writer's join.
struct PanicGuard<'a> {
    shared: &'a Shared,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.begin_shutdown();
        }
    }
}

/// Starts the daemon: binds `127.0.0.1:<port>`, spawns the writer
/// threads and the accept loop, and returns immediately with a handle.
///
/// The sketch must be a sharded kind ([`AnySketch::as_concurrent`]).
///
/// # Errors
/// [`ServeError::NotConcurrent`] for scalar sketch kinds;
/// [`ServeError::Io`] when the port cannot be bound (already in use,
/// privileged, …).
pub fn spawn(
    sketch: AnySketch,
    source: Box<dyn EdgeSource + Send>,
    config: ServeConfig,
) -> Result<ServerHandle, ServeError> {
    if sketch.as_concurrent().is_none() {
        return Err(ServeError::NotConcurrent(sketch.kind()));
    }
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;

    let ckpt = config.checkpoint.as_ref().map(|path| {
        Checkpointer::new(path.clone(), config.checkpoint_every)
            .starting_from(config.base_edges)
            .with_crash_after(crash_after_env())
    });
    let shared = Arc::new(Shared {
        sketch,
        gate: RwLock::new(()),
        source: Mutex::new(SourceSlot {
            src: source,
            done: false,
        }),
        ckpt: Mutex::new(ckpt),
        errors: Mutex::new(Vec::new()),
        edges_applied: AtomicU64::new(config.base_edges),
        served_queries: AtomicU64::new(0),
        shutdown_flag: AtomicBool::new(false),
        addr,
        writers: config.writers.max(1),
        start: Instant::now(),
    });
    let daemon_shared = Arc::clone(&shared);
    let main = std::thread::Builder::new()
        .name("fs-serve-accept".to_string())
        .spawn(move || run_daemon(&daemon_shared, &listener, &config))?;
    Ok(ServerHandle { addr, shared, main })
}

/// The accept loop plus the shutdown/drain sequence; runs on the daemon
/// thread and produces the final report.
fn run_daemon(shared: &Arc<Shared>, listener: &TcpListener, config: &ServeConfig) -> ServeReport {
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    for i in 0..config.writers.max(1) {
        let s = Arc::clone(shared);
        let chunk = config.chunk.max(1);
        match std::thread::Builder::new()
            .name(format!("fs-serve-writer-{i}"))
            .spawn(move || writer_loop(&s, chunk))
        {
            Ok(h) => writers.push(h),
            Err(e) => shared.record_error(format!("cannot spawn writer {i}: {e}")),
        }
    }

    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            // The drain request's wake-up (or a client arriving with it).
            Ok(_) if shared.shutting_down() => break,
            Ok((stream, _peer)) => {
                let s = Arc::clone(shared);
                match std::thread::Builder::new()
                    .name("fs-serve-conn".to_string())
                    .spawn(move || connection_loop(&s, stream))
                {
                    Ok(h) => conns.push(h),
                    Err(e) => shared.record_error(format!("cannot spawn connection: {e}")),
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(e) => {
                shared.record_error(format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_RETRY);
            }
        }
    }

    // Drain: writers finish (at most) one in-flight chunk each and exit.
    let mut writer_panicked = false;
    for h in writers {
        writer_panicked |= h.join().is_err();
    }

    // Final checkpoint at the drained offset. Checkpointer stages to
    // `.part`, fsyncs, rotates the previous snapshot to `.prev`, renames
    // and fsyncs the directory — a crash mid-write never leaves a
    // truncated snapshot at the target path.
    let mut checkpointed = false;
    {
        let mut slot = shared.ckpt.lock();
        if let Some(ckpt) = slot.as_mut() {
            let image = quiesced(shared, |edges| {
                SnapshotImage::capture(&shared.sketch, edges)
            });
            match ckpt.publish(image) {
                Ok(()) => checkpointed = true,
                Err(e) => shared.record_error(format!("final checkpoint failed: {e}")),
            }
        }
    }

    for h in conns {
        let _ = h.join();
    }

    // ORDERING: relaxed-ok — all mutator threads are joined; these loads
    // are quiescent reads for the report.
    let edges = shared.edges_applied.load(Ordering::Relaxed);
    let queries = shared.served_queries.load(Ordering::Relaxed);
    let errors = std::mem::take(&mut *shared.errors.lock());
    ServeReport {
        edges,
        queries,
        writer_panicked,
        checkpointed,
        errors,
    }
}

/// One writer thread: pull a chunk from the shared source and apply it
/// through the concurrent ingest pipeline, both under the shared gate,
/// then checkpoint if one is due; repeat until the source is dry or a
/// drain is requested.
fn writer_loop(shared: &Arc<Shared>, chunk: usize) {
    let _guard = PanicGuard { shared };
    let Some(est) = shared.sketch.as_concurrent() else {
        // spawn() rejects scalar kinds before any writer starts.
        return;
    };
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(chunk);
    while !shared.shutting_down() {
        {
            // The gate covers the chunk from its read to its count, so a
            // snapshot never holds a chunk read after one still unapplied.
            let mut slot = shared.source.lock();
            let _ingesting = shared.gate.read();
            let read = if slot.done {
                Ok(0)
            } else {
                slot.src.next_chunk(&mut buf, chunk)
            };
            let n = read.unwrap_or_else(|e| {
                shared.record_error(format!("stream error: {e}"));
                0
            });
            slot.done |= n == 0;
            drop(slot);
            if n == 0 {
                // Source exhausted (or failed): this writer is done;
                // queries keep being served until a drain is requested.
                return;
            }
            pairs.clear();
            pairs.extend(buf.iter().map(|e| e.pair()));
            // Counted per batch, so STATS shows progress within a chunk.
            for batch in pairs.chunks(DEFAULT_BATCH) {
                est.ingest_batch(batch);
                // ORDERING: relaxed-ok — bumped inside the gate's read
                // section; the consistency-critical readers (snapshot,
                // checkpoint, final report) hold the gate exclusively, so
                // the lock handoff orders this write before their loads.
                // Un-gated STATS reads are advisory progress values.
                shared
                    .edges_applied
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
        }
        maybe_periodic_checkpoint(shared);
    }
}

/// Writes a periodic checkpoint when [`Checkpointer::due`] says so: the
/// `ckpt` mutex → [`quiesced`] for the copy only (the one nesting order
/// every snapshot path uses). Without `--checkpoint` there is no
/// checkpointer, and a writer only tries the mutex. A checkpoint failure
/// requests a drain — a daemon that cannot persist must not pretend it
/// can.
fn maybe_periodic_checkpoint(shared: &Shared) {
    // Another writer already checkpointing: skip, it covers our edges.
    let Some(mut slot) = shared.ckpt.try_lock() else {
        return;
    };
    let Some(ckpt) = slot.as_mut() else {
        return;
    };
    // ORDERING: relaxed-ok — the count only grows and this writer's own
    // bump is visible to it, so a stale read only defers the checkpoint to
    // a later chunk; the image records the count read with ingest quiesced.
    if !ckpt.due(shared.edges_applied.load(Ordering::Relaxed)) {
        return;
    }
    let image = quiesced(shared, |edges| {
        SnapshotImage::capture(&shared.sketch, edges)
    });
    if let Err(e) = ckpt.publish(image) {
        shared.record_error(format!("checkpoint failed: {e}"));
        shared.begin_shutdown();
    }
}

/// Runs `f` on the edge count of the stream prefix that ingest is stopped
/// at. The `source` lock stops writers from reading a new chunk, and the
/// gate's write lock waits out the chunks already read. The source comes
/// first because a writer takes the gate again as soon as it releases it,
/// so a snapshot waiting on the gate alone can wait out many chunks.
fn quiesced<T>(shared: &Shared, f: impl FnOnce(u64) -> T) -> T {
    let _no_reads = shared.source.lock();
    let _quiet = shared.gate.write();
    // ORDERING: relaxed-ok — read with the gate held exclusively: every
    // writer bumped the counter inside a read section, so the lock handoff
    // orders those writes before this load.
    f(shared.edges_applied.load(Ordering::Relaxed))
}

/// One connection: read request lines, answer each with one reply line.
/// I/O errors end the connection silently (the peer is gone); protocol
/// errors are answered in-band.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    let _ = serve_connection(shared, stream);
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    // The read timeout bounds how long an idle connection can delay a
    // drain; LineReader keeps partial lines across timeouts.
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = LineReader::new(BufReader::new(stream), crate::protocol::MAX_LINE_BYTES);
    let mut line: Vec<u8> = Vec::with_capacity(256);
    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        let status = match reader.next_line(&mut line) {
            Ok(s) => s,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return Ok(()),
        };
        let (reply, drain) = match status {
            LineStatus::Eof => return Ok(()),
            LineStatus::TooLong => (ProtocolError::LineTooLong.to_string(), false),
            LineStatus::Line => match parse_request(&line) {
                Ok(req) => respond(shared, &req),
                Err(e) => (e.to_string(), false),
            },
        };
        // ORDERING: relaxed-ok — advisory served-request counter; exact
        // only at quiescence, where thread join provides the
        // happens-before edge.
        shared.served_queries.fetch_add(1, Ordering::Relaxed);
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if drain {
            return Ok(());
        }
    }
}

/// Answers one request. The `bool` is "close this connection and drain".
fn respond(shared: &Shared, req: &Request) -> (String, bool) {
    match req {
        Request::Estimate { user } => (format!("OK {:.3}", shared.sketch.estimate(*user)), false),
        Request::TopK { n } => {
            let users = crate::commands::rank_users(&shared.sketch, *n);
            let mut s = format!("OK {}", users.len());
            for (u, e) in &users {
                let _ = write!(s, " #{u:016x}:{e:.3}");
            }
            (s, false)
        }
        Request::Confidence { user, level } => {
            let ci = shared.sketch.confidence(*user, level.z());
            (
                format!(
                    "OK {:.3} {:.3} {:.3} z={:.4}",
                    ci.estimate,
                    ci.lower,
                    ci.upper,
                    level.z()
                ),
                false,
            )
        }
        Request::Stats => {
            // ORDERING: relaxed-ok — advisory progress values for
            // monitoring; chunk-consistent reads go through SNAPSHOT.
            let edges = shared.edges_applied.load(Ordering::Relaxed);
            // ORDERING: relaxed-ok — same advisory read as above.
            let queries = shared.served_queries.load(Ordering::Relaxed);
            let users = shared.sketch.user_count();
            let errors = shared.errors.lock().len();
            (
                format!(
                    "OK edges={edges} queries={queries} users={users} total={:.3} q={:.6} \
                     memory_bits={} kind={} writers={} errors={errors} uptime_ms={}",
                    shared.sketch.total_estimate(),
                    shared.sketch.sampling_q(),
                    shared.sketch.memory_bits(),
                    shared.sketch.kind(),
                    shared.writers,
                    shared.start.elapsed().as_millis()
                ),
                false,
            )
        }
        Request::Snapshot { path } => {
            // One snapshot write at a time (two SNAPSHOTs to one path
            // would share its staging file); lock order ckpt, source, gate.
            let _writing = shared.ckpt.lock();
            let image = quiesced(shared, |edges| {
                SnapshotImage::capture(&shared.sketch, edges)
            });
            let edges = image.edges();
            match image.write_file(Path::new(path)) {
                Ok(()) => (format!("OK snapshot {path} edges={edges}"), false),
                Err(e) => (format!("ERR io {e}"), false),
            }
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            // ORDERING: relaxed-ok — advisory progress value in the
            // goodbye line; the authoritative count is in the report.
            let edges = shared.edges_applied.load(Ordering::Relaxed);
            (format!("OK draining edges={edges}"), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::CycleSource;
    use std::io::{BufRead, Read};

    fn edges(n: u64) -> Vec<Edge> {
        // A few heavy users plus a long tail, deterministic.
        (0..n)
            .map(|i| Edge::new(i % 7, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    fn sharded(shards: usize) -> AnySketch {
        AnySketch::ShardedFreeBS(freesketch::ShardedFreeBS::new(1 << 16, shards, 42))
    }

    fn send_lines(addr: SocketAddr, lines: &str) -> Vec<String> {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(lines.as_bytes()).expect("send");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read replies");
        out.lines().map(str::to_string).collect()
    }

    #[test]
    fn spawn_rejects_scalar_kinds() {
        let sketch = AnySketch::FreeBS(freesketch::FreeBS::new(1 << 10, 1));
        let src = Box::new(CycleSource::new(Vec::new(), 0));
        let Err(ServeError::NotConcurrent(kind)) = spawn(sketch, src, ServeConfig::default())
        else {
            panic!("scalar kind must be rejected");
        };
        assert_eq!(kind, "freebs");
    }

    #[test]
    fn spawn_rejects_taken_port() {
        let taken = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let port = taken.local_addr().expect("addr").port();
        let src = Box::new(CycleSource::new(Vec::new(), 0));
        let cfg = ServeConfig {
            port,
            ..ServeConfig::default()
        };
        let Err(ServeError::Io(e)) = spawn(sharded(2), src, cfg) else {
            panic!("port conflict must surface as an Io error");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn serves_queries_and_drains_on_shutdown_verb() {
        let es = edges(5000);
        let src = Box::new(CycleSource::new(es, 1));
        let handle = spawn(
            sharded(2),
            src,
            ServeConfig {
                writers: 2,
                chunk: 256,
                ..ServeConfig::default()
            },
        )
        .expect("spawn");
        let addr = handle.addr();

        // Wait for ingest to finish (source is finite).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let replies = send_lines(addr, "STATS\n");
            assert_eq!(replies.len(), 1);
            assert!(replies[0].starts_with("OK edges="), "{}", replies[0]);
            if replies[0].contains("edges=5000") {
                break;
            }
            assert!(Instant::now() < deadline, "ingest never finished");
            std::thread::sleep(Duration::from_millis(20));
        }

        let replies = send_lines(
            addr,
            "ESTIMATE #0000000000000001\nTOPK 3\nCONFIDENCE #0000000000000001 95\nNOPE\nSHUTDOWN\n",
        );
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert!(replies[0].starts_with("OK "), "{}", replies[0]);
        let est: f64 = replies[0][3..].parse().expect("estimate float");
        assert!(est > 0.0 && est.is_finite());
        assert!(replies[1].starts_with("OK 3 #"), "{}", replies[1]);
        assert!(replies[2].starts_with("OK "), "{}", replies[2]);
        assert!(
            replies[3].starts_with("ERR unknown-command"),
            "{}",
            replies[3]
        );
        assert!(replies[4].starts_with("OK draining"), "{}", replies[4]);

        let report = handle.join().expect("join");
        assert_eq!(report.edges, 5000);
        // At least one STATS poll plus the five-line batch above.
        assert!(report.queries >= 6, "queries {}", report.queries);
        assert!(!report.writer_panicked);
        assert!(!report.checkpointed, "no checkpoint configured");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn concurrent_snapshots_to_one_path_all_succeed() {
        let src = Box::new(CycleSource::new(edges(200_000), 1));
        let handle = spawn(
            sharded(2),
            src,
            ServeConfig {
                writers: 2,
                chunk: 512,
                ..ServeConfig::default()
            },
        )
        .expect("spawn");
        let addr = handle.addr();
        let path =
            std::env::temp_dir().join(format!("freesketch-serve-snap-{}.fsnp", std::process::id()));
        let lines = format!("SNAPSHOT {}\n", path.display()).repeat(3);
        // Both clients connect, then send together, so their SNAPSHOTs
        // overlap while ingest runs.
        let start = std::sync::Barrier::new(2);
        let replies: Vec<String> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut conn = TcpStream::connect(addr).expect("connect");
                        start.wait();
                        conn.write_all(lines.as_bytes()).expect("send");
                        conn.shutdown(std::net::Shutdown::Write)
                            .expect("half-close");
                        let mut out = String::new();
                        conn.read_to_string(&mut out).expect("read replies");
                        out.lines().map(str::to_string).collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect()
        });
        assert_eq!(replies.len(), 6, "{replies:?}");
        for r in &replies {
            assert!(r.starts_with("OK snapshot"), "{r}");
        }
        let file = std::fs::File::open(&path).expect("snapshot written");
        let (sketch, _) = freesketch::load_snapshot(&mut std::io::BufReader::new(file))
            .expect("the last write left a loadable snapshot");
        assert_eq!(sketch.kind(), "sharded-freebs");
        assert!(!std::path::Path::new(&format!("{}.part", path.display())).exists());
        handle.shutdown();
        handle.join().expect("join");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn connection_read_timeout_does_not_drop_partial_lines() {
        // Trickle a request in two writes with a pause longer than the
        // daemon's read poll: the reply must still be for the full line.
        let src = Box::new(CycleSource::new(edges(100), 1));
        let handle = spawn(sharded(1), src, ServeConfig::default()).expect("spawn");
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(b"STA").expect("half 1");
        std::thread::sleep(READ_POLL + Duration::from_millis(80));
        s.write_all(b"TS\n").expect("half 2");
        let mut reader = std::io::BufReader::new(s.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("OK edges="), "{reply}");
        handle.shutdown();
        handle.join().expect("join");
    }
}
