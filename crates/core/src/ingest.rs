//! Streaming ingest drivers: feed any [`EdgeSource`] to an estimator
//! chunk-at-a-time.
//!
//! These are the batch entry points file-backed replay goes through: the
//! trace never exists in memory as a whole, so multi-GB traces stream in
//! O(chunk) peak memory. `batch` is the edges handed to the batch path per
//! call, `0` forcing the per-edge path; the batch path credits every growth
//! at its own `q`, so the scalar engines end bit-identical whatever
//! `batch` and `chunk` are, and the CLI passes [`DEFAULT_BATCH`].
//!
//! Each entry point that reads a source is one call to `drive`, the one
//! loop that applies chunks read from a source. It reads a chunk and
//! prepares it into a unit: the chunk's pairs and, when the estimator
//! splits its block pipeline ([`CardinalityEstimator::block_hasher`]),
//! their slots and ranks. The caller's closure then applies the unit and
//! runs its per-chunk step (checkpointing, in
//! [`crate::AnySketch::ingest_stream`]).
//!
//! With a block hasher and a first chunk that came back full, a stage
//! thread owns the source and prepares chunk k+1 while the calling thread
//! applies chunk k. Two units (pairs, slots, ranks: 24–26 B per edge
//! each) and the stage thread's decode buffer (16 B per edge) are
//! resident, about 64–68 B per chunk edge. Otherwise (the sharded
//! estimators, the per-edge path, a stream of at most one chunk) the
//! calling thread reads and applies each chunk in turn, with one unit of
//! pairs and the decode buffer: 32 B per chunk edge.

use crate::concurrent::ConcurrentEstimator;
use crate::engine::BlockHasher;
use crate::CardinalityEstimator;
use graphstream::{Edge, EdgeSource, EdgeStreamError, SnapshotError};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Default edges per reader chunk: 64k edges. On the one-thread path that
/// is 4–4.5 MB resident (two prepared units plus the decode buffer),
/// large enough to amortize I/O, the hand-off between the two stages and
/// the batch pipeline.
pub const DEFAULT_CHUNK: usize = 1 << 16;

/// Edges handed to the batch path per call by the CLI and `serve`.
pub const DEFAULT_BATCH: usize = 8192;

/// Prepared chunk units in flight between the stage thread and the
/// caller: one being applied, one being prepared.
const UNITS: usize = 2;

/// Drives `src` to exhaustion through an exclusive estimator. With a
/// [`BlockHasher`] and `batch > 0` it decodes and hashes the next chunk on
/// a stage thread while this thread applies the current one (see the
/// module docs). The result is bit-identical to applying the chunks one
/// after another with [`ingest_slice`].
///
/// Returns the number of edges processed.
///
/// # Errors
/// Stops at the first source error (I/O, corrupt binary input, malformed
/// text line); edges of earlier chunks have already been applied.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn stream_into(
    est: &mut dyn CardinalityEstimator,
    src: &mut (dyn EdgeSource + Send),
    chunk: usize,
    batch: usize,
) -> Result<u64, EdgeStreamError> {
    let hasher = if batch == 0 { None } else { est.block_hasher() };
    drive(src, chunk, hasher, |unit, _| {
        unit.apply_into(est, batch);
        Ok(())
    })
}

/// Drives `src` to exhaustion through a concurrent estimator with
/// `threads` ingest threads per chunk (see [`ingest_parallel`]). The next
/// chunk is read only after the previous one is fully applied, so peak
/// memory stays O(chunk).
///
/// # Errors
/// Stops at the first source error; earlier chunks have been applied.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn stream_into_parallel(
    est: &dyn ConcurrentEstimator,
    src: &mut (dyn EdgeSource + Send),
    chunk: usize,
    batch: usize,
    threads: usize,
) -> Result<u64, EdgeStreamError> {
    drive(src, chunk, None, |unit, _| {
        ingest_parallel(est, unit.pairs(), batch, threads);
        Ok(())
    })
}

/// The one chunk loop behind every streaming entry point: reads `src` to
/// exhaustion in `chunk`-edge reads, prepares each chunk into a [`Unit`]
/// (hashed when `hasher` is set) and runs `step` on it with the edges
/// read so far, this one included. `step` applies the unit and does any
/// per-chunk work, on this thread, between two applies.
///
/// The first chunk is read here (an empty stream allocates only the
/// decode buffer). Only with a `hasher` and a full first chunk does a
/// stage thread take over the reading (see [`pipelined`]); otherwise each
/// chunk is read and applied in turn. A source error on chunk k+1 surfaces
/// after chunk k is stepped; a `step` error stops and joins the stage
/// thread before it is returned; a stage-thread panic resumes on this
/// thread.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub(crate) fn drive<E>(
    src: &mut (dyn EdgeSource + Send),
    chunk: usize,
    hasher: Option<BlockHasher>,
    mut step: impl FnMut(&Unit, u64) -> Result<(), E>,
) -> Result<u64, E>
where
    E: From<EdgeStreamError>,
{
    let chunk = chunk.max(1);
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    if src.next_chunk(&mut buf, chunk)? == 0 {
        return Ok(0);
    }
    let mut unit = Unit::new(chunk, hasher);
    unit.prepare(&buf);
    if hasher.is_some() && buf.len() == chunk {
        return pipelined(src, chunk, buf, unit, step);
    }
    let mut total = 0u64;
    loop {
        total += unit.pairs.len() as u64;
        step(&unit, total)?;
        if src.next_chunk(&mut buf, chunk)? == 0 {
            return Ok(total);
        }
        unit.prepare(&buf);
    }
}

/// The steady state of [`drive`] once its first chunk came back full:
/// `first` is stepped while a scoped stage thread prepares the next chunk
/// into the second unit, and the two units swap until the source ends.
fn pipelined<E>(
    src: &mut (dyn EdgeSource + Send),
    chunk: usize,
    buf: Vec<Edge>,
    first: Unit,
    step: impl FnMut(&Unit, u64) -> Result<(), E>,
) -> Result<u64, E>
where
    E: From<EdgeStreamError>,
{
    // Each channel holds at most the UNITS units that exist, so no send
    // ever blocks; a side that stops drops its ends, which wakes the other.
    let (ready_tx, ready_rx) = sync_channel(UNITS);
    let (free_tx, free_rx) = sync_channel(UNITS);
    let hasher = first.hasher;
    std::thread::scope(|s| {
        let stage = s.spawn(move || {
            let unit = Unit::new(chunk, hasher);
            prepare_ahead(src, buf, chunk, unit, &free_rx, &ready_tx);
        });
        let result = step_ready(first, step, &free_tx, &ready_rx);
        drop((free_tx, ready_rx));
        match stage.join() {
            Ok(()) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The calling thread's side of [`pipelined`]: steps each unit, hands it
/// back to the stage and takes the next one.
fn step_ready<E>(
    mut unit: Unit,
    mut step: impl FnMut(&Unit, u64) -> Result<(), E>,
    free: &SyncSender<Unit>,
    ready: &Receiver<Result<Unit, EdgeStreamError>>,
) -> Result<u64, E>
where
    E: From<EdgeStreamError>,
{
    let mut total = 0u64;
    loop {
        total += unit.pairs.len() as u64;
        step(&unit, total)?;
        // After the end of the stream the stage is gone and the unit is
        // dropped.
        let _ = free.send(unit);
        match ready.recv() {
            Ok(Ok(next)) if next.pairs.is_empty() => return Ok(total),
            Ok(Ok(next)) => unit = next,
            Ok(Err(e)) => return Err(E::from(e)),
            // The stage thread panicked; the caller's join resumes it.
            Err(_) => return Ok(total),
        }
    }
}

/// The stage thread of [`pipelined`]: reads the next chunk into the
/// decode buffer, prepares it into a unit and hands it over, until the
/// source ends or fails (both are sent, the end as an empty unit) or the
/// caller stops taking units.
fn prepare_ahead(
    src: &mut (dyn EdgeSource + Send),
    mut buf: Vec<Edge>,
    chunk: usize,
    mut unit: Unit,
    free: &Receiver<Unit>,
    ready: &SyncSender<Result<Unit, EdgeStreamError>>,
) {
    loop {
        let msg = src.next_chunk(&mut buf, chunk).map(|_| {
            unit.prepare(&buf);
            unit
        });
        let last = !matches!(&msg, Ok(u) if !u.pairs.is_empty());
        if ready.send(msg).is_err() || last {
            return;
        }
        match free.recv() {
            Ok(next) => unit = next,
            Err(_) => return,
        }
    }
}

/// One prepared chunk: its pairs and, when the estimator has a
/// [`BlockHasher`], their slots (and ranks for register stores). The
/// buffers are sized once per stream and reused.
pub(crate) struct Unit {
    pairs: Vec<(u64, u64)>,
    slots: Vec<usize>,
    ranks: Vec<u16>,
    hasher: Option<BlockHasher>,
}

impl Unit {
    fn new(chunk: usize, hasher: Option<BlockHasher>) -> Self {
        let hashed = hasher.map_or(0, |_| chunk);
        let ranked = hasher.filter(BlockHasher::ranked).map_or(0, |_| chunk);
        Self {
            pairs: Vec::with_capacity(chunk),
            slots: Vec::with_capacity(hashed),
            ranks: Vec::with_capacity(ranked),
            hasher,
        }
    }

    /// The chunk's `(user, item)` pairs, in stream order.
    pub(crate) fn pairs(&self) -> &[(u64, u64)] {
        &self.pairs
    }

    /// The pure half: decoded edges to pairs, pairs to slots and ranks.
    fn prepare(&mut self, edges: &[Edge]) {
        self.pairs.clear();
        self.pairs.extend(edges.iter().map(|e| e.pair()));
        if let Some(h) = self.hasher {
            let n = self.pairs.len();
            self.slots.resize(n, 0);
            if h.ranked() {
                self.ranks.resize(n, 0);
            }
            h.hash(&self.pairs, &mut self.slots, &mut self.ranks);
        }
    }

    /// The stateful half, with the cuts [`ingest_slice`] makes: `batch`-edge
    /// slices (the engine cuts each into `INGEST_BLOCK` blocks), or per-edge
    /// `process` when `batch` is 0.
    pub(crate) fn apply_into<T: CardinalityEstimator + ?Sized>(&self, est: &mut T, batch: usize) {
        if batch == 0 {
            for &(user, item) in &self.pairs {
                est.process(user, item);
            }
        } else if self.hasher.is_some() {
            let mut lo = 0;
            for slice in self.pairs.chunks(batch) {
                let hi = lo + slice.len();
                let ranks = self.ranks.get(lo..hi).unwrap_or(&[]);
                est.apply_hashed(slice, &self.slots[lo..hi], ranks);
                lo = hi;
            }
        } else {
            for slice in self.pairs.chunks(batch) {
                est.process_batch(slice);
            }
        }
    }
}

/// Feeds one in-memory slice through the chosen path on the calling
/// thread, reusing the caller's pair buffer across chunks. Applied chunk
/// by chunk it is the serial reference [`stream_into`] is bit-identical
/// to; callers that interleave their own bookkeeping between slices
/// (`track`'s per-interval rows) use it directly.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn ingest_slice(
    est: &mut dyn CardinalityEstimator,
    edges: &[Edge],
    pairs: &mut Vec<(u64, u64)>,
    batch: usize,
) {
    if batch == 0 {
        for e in edges {
            est.process(e.user, e.item);
        }
    } else {
        pairs.clear();
        pairs.extend(edges.iter().map(|e| e.pair()));
        for slice in pairs.chunks(batch) {
            est.process_batch(slice);
        }
    }
}

/// Applies one in-memory chunk of pairs through the `&self` ingest path
/// on `threads` threads: the pairs are split into `threads` contiguous
/// parts, and each part is fed by [`ingest_pairs`] on its own scoped
/// thread. Every thread is joined before this returns, so the estimator
/// is quiescent afterwards — the point checkpointing relies on.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn ingest_parallel(
    est: &dyn ConcurrentEstimator,
    pairs: &[(u64, u64)],
    batch: usize,
    threads: usize,
) {
    let part_len = pairs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in pairs.chunks(part_len) {
            s.spawn(move || ingest_pairs(est, part, batch));
        }
    });
}

/// Feeds bare pairs to a concurrent estimator on the calling thread:
/// `ingest_batch` over `batch`-edge slices, or per-edge `ingest` when
/// `batch` is 0.
// HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
pub fn ingest_pairs(est: &dyn ConcurrentEstimator, pairs: &[(u64, u64)], batch: usize) {
    if batch == 0 {
        for &(user, item) in pairs {
            est.ingest(user, item);
        }
    } else {
        for slice in pairs.chunks(batch) {
            est.ingest_batch(slice);
        }
    }
}

/// Reads and discards up to `n` edges from `src` (in `chunk`-sized reads),
/// returning how many were skipped — fewer than `n` only when the source
/// ends early. Restoring from a checkpoint uses this to fast-forward the
/// stream to the recorded offset before resuming ingest.
///
/// # Errors
/// Stops at the first source error.
pub fn skip_edges(src: &mut dyn EdgeSource, n: u64, chunk: usize) -> Result<u64, EdgeStreamError> {
    let chunk = chunk.max(1);
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    let mut skipped = 0u64;
    while skipped < n {
        let want = usize::try_from((n - skipped).min(chunk as u64)).unwrap_or(chunk);
        let got = src.next_chunk(&mut buf, want)?;
        if got == 0 {
            break;
        }
        skipped += got as u64;
    }
    Ok(skipped)
}

/// Error of a checkpointed ingest drive: either the edge stream failed
/// (I/O, corrupt trace) or writing a checkpoint snapshot did.
#[derive(Debug)]
pub enum IngestError {
    /// The edge source failed.
    Stream(EdgeStreamError),
    /// Writing (or rotating) a checkpoint snapshot failed.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Stream(e) => write!(f, "edge stream: {e}"),
            Self::Snapshot(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(e) => Some(e),
            Self::Snapshot(e) => Some(e),
        }
    }
}

impl From<EdgeStreamError> for IngestError {
    fn from(e: EdgeStreamError) -> Self {
        Self::Stream(e)
    }
}

impl From<SnapshotError> for IngestError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{QTracker, SketchEngine};
    use crate::{AnySketch, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS};
    use bitpack::SlotStore;
    use graphstream::SliceSource;

    fn test_edges(n: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 37, hashkit::splitmix64(i) >> 24))
            .collect()
    }

    /// The serial reference: `ingest_slice` applied chunk by chunk.
    fn serial<E: CardinalityEstimator>(
        mut est: E,
        edges: &[Edge],
        chunk: usize,
        batch: usize,
    ) -> E {
        let mut pairs = Vec::new();
        for c in edges.chunks(chunk) {
            ingest_slice(&mut est, c, &mut pairs, batch);
        }
        est
    }

    fn estimates(est: &dyn CardinalityEstimator) -> Vec<(u64, f64)> {
        let mut v = Vec::new();
        est.for_each_estimate(&mut |u, e| v.push((u, e)));
        v.sort_by_key(|&(u, _)| u);
        v
    }

    /// A source that fails on its `fail_at`-th chunk (1-based).
    struct FailsAt<'a> {
        inner: SliceSource<'a>,
        calls: usize,
        fail_at: usize,
    }

    impl EdgeSource for FailsAt<'_> {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<Edge>,
            max: usize,
        ) -> Result<usize, EdgeStreamError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(EdgeStreamError::Io(std::io::Error::other("disk gone")));
            }
            self.inner.next_chunk(buf, max)
        }
    }

    /// `stream_into` against per-edge `process` over the whole stream and
    /// against the serial loop over the same chunks: store words, every
    /// estimate and the total.
    fn assert_streamed_matches_per_edge<S, Q>(
        fresh: impl Fn() -> SketchEngine<S, Q>,
        edges: &[Edge],
        chunk: usize,
        batch: usize,
    ) where
        S: SlotStore + PartialEq,
        Q: QTracker<S>,
    {
        let per_edge = serial(fresh(), edges, edges.len(), 0);
        let reference = serial(fresh(), edges, chunk, batch);
        let mut streamed = fresh();
        let mut src = SliceSource::new(edges);
        let total = stream_into(&mut streamed, &mut src, chunk, batch).expect("clean source");
        let what = format!("{} chunk {chunk} batch {batch}", streamed.name());
        assert_eq!(total, edges.len() as u64, "{what}");
        for other in [&per_edge, &reference] {
            assert!(other.store() == streamed.store(), "{what}: store diverged");
            assert_eq!(estimates(other), estimates(&streamed), "{what}");
            assert_eq!(other.total_estimate(), streamed.total_estimate(), "{what}");
        }
    }

    #[test]
    fn streamed_ingest_is_bit_identical_to_direct_batch() {
        // Chunks and batches restart the block pipeline at their cuts; with
        // every growth credited at its own q, no cut moves an estimate.
        let edges = test_edges(30_000);
        let cuts = [
            (1, 64),
            (100, 512),
            (777, 100),
            (1000, 8192),
            (1 << 16, 8192),
            (777, 0),
        ];
        for (chunk, batch) in cuts {
            assert_streamed_matches_per_edge(|| FreeBS::new(1 << 15, 3), &edges, chunk, batch);
            assert_streamed_matches_per_edge(|| FreeRS::new(1 << 12, 3), &edges, chunk, batch);
        }
    }

    #[test]
    fn a_failing_chunk_leaves_the_earlier_chunks_applied() {
        let edges = test_edges(10_000);
        for (chunk, batch) in [(1000usize, 512usize), (1, 64), (1000, 0)] {
            for fail_at in [2usize, 3, 7] {
                let failing = || FailsAt {
                    inner: SliceSource::new(&edges),
                    calls: 0,
                    fail_at,
                };
                let what = format!("chunk {chunk} batch {batch} fail_at {fail_at}");
                let applied = &edges[..chunk * (fail_at - 1)];

                // A scalar engine, pipelined whenever it hashes: the step
                // runs after every chunk before the failing one.
                let mut est = FreeRS::new(1 << 12, 5);
                let hasher = if batch == 0 { None } else { est.block_hasher() };
                let mut stepped = Vec::new();
                let err = drive(&mut failing(), chunk, hasher, |unit, n| {
                    unit.apply_into(&mut est, batch);
                    stepped.push(n);
                    Ok::<(), EdgeStreamError>(())
                })
                .expect_err("must fail");
                assert!(err.to_string().contains("disk gone"), "{err}");
                let want: Vec<u64> = (1..fail_at as u64).map(|k| k * chunk as u64).collect();
                assert_eq!(stepped, want, "{what}");
                let reference = serial(FreeRS::new(1 << 12, 5), applied, chunk, batch);
                assert!(reference.store() == est.store(), "{what}");
                assert_eq!(estimates(&reference), estimates(&est), "{what}");
                assert_eq!(reference.total_estimate(), est.total_estimate());

                // A sharded sketch has no block hasher, so `ingest_stream`
                // reads and applies on this thread; at one ingest thread it
                // matches the same chunks applied one by one.
                let fresh = || AnySketch::from(ShardedFreeRS::new(1 << 12, 4, 5));
                let mut sharded = fresh();
                let err = sharded
                    .ingest_stream(&mut failing(), chunk, 1, None, 0)
                    .expect_err("must fail");
                assert!(err.to_string().contains("disk gone"), "{err}");
                let mut reference = fresh();
                let mut pairs = Vec::new();
                for c in applied.chunks(chunk) {
                    reference.apply_chunk(c, &mut pairs, 1);
                }
                assert_eq!(estimates(&reference), estimates(&sharded), "{what}");
                assert_eq!(reference.total_estimate(), sharded.total_estimate());
            }
        }
    }

    #[test]
    #[should_panic(expected = "stage source panicked")]
    fn a_stage_thread_panic_resumes_on_the_caller() {
        struct PanicsSecond(usize);
        impl EdgeSource for PanicsSecond {
            fn next_chunk(
                &mut self,
                buf: &mut Vec<Edge>,
                max: usize,
            ) -> Result<usize, EdgeStreamError> {
                self.0 += 1;
                assert!(self.0 < 2, "stage source panicked");
                buf.clear();
                buf.extend((0..max as u64).map(|i| Edge::new(i, i)));
                Ok(max)
            }
        }
        let mut est = FreeBS::new(1 << 12, 1);
        let _ = stream_into(&mut est, &mut PanicsSecond(0), 64, 64);
    }

    #[test]
    fn parallel_stream_matches_sequential_within_noise() {
        let edges = test_edges(40_000);
        let seq = ShardedFreeBS::new(1 << 16, 4, 9);
        for e in &edges {
            seq.ingest(e.user, e.item);
        }
        let par = ShardedFreeBS::new(1 << 16, 4, 9);
        let mut src = SliceSource::new(&edges);
        let total = stream_into_parallel(&par, &mut src, 5000, 512, 3).expect("clean source");
        assert_eq!(total, edges.len() as u64);
        let (a, b) = (seq.total_estimate(), par.total_estimate());
        assert!((a / b - 1.0).abs() < 0.02, "total {a} vs {b}");
    }

    #[test]
    fn source_errors_propagate() {
        struct Failing;
        impl EdgeSource for Failing {
            fn next_chunk(
                &mut self,
                _buf: &mut Vec<Edge>,
                _max: usize,
            ) -> Result<usize, EdgeStreamError> {
                Err(EdgeStreamError::Io(std::io::Error::other("disk gone")))
            }
        }
        let mut est = FreeBS::new(1 << 12, 1);
        let err = stream_into(&mut est, &mut Failing, 64, 64).expect_err("must fail");
        assert!(err.to_string().contains("disk gone"));
    }
}
