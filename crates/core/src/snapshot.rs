//! Crash-safe sketch lifecycle: checksummed snapshots, incremental
//! checkpointing, and restore-with-fallback.
//!
//! A snapshot is a [`graphstream::snapshot`] FSNP container (version 5)
//! with four typed sections, each independently CRC-protected so
//! corruption is localized to a named section. Every field is a
//! little-endian `u64` (`f64` fields as their bits):
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `META` | sketch kind (1 FreeBS, 2 FreeRS, 3/4 their sharded forms), stream offset |
//! | `CONF` | scalar: one engine record; sharded: router seed, `P`, then one engine record per shard |
//! | `ARRY` | per store: word count, then the store's raw words          |
//! | `CNTR` | per engine: user count `n`, then `n` (user, estimate) pairs in ascending user order |
//!
//! An engine record is the hasher seed, `M`, the slot width, the running
//! total `n̂(t)` and the `q` state, whether the engine is a scalar sketch
//! or a shard. The total is recorded rather than re-summed from `CNTR`:
//! the loader re-inserts users in ascending order, so a sum over the
//! rebuilt counter map would add them in another order and could differ
//! in its last bits. The `q` state is what cannot be rebuilt from the
//! words: FreeRS's incremental `Z`, whether the engine is a scalar sketch
//! or a shard; nothing for FreeBS, whose zero count is recounted. A
//! shard's store keeps the scalar store's word layout, and the one shard
//! of a one-shard sketch hashes with the scalar seed, so a lone writer's
//! one-shard sketch writes the scalar sketch's `ARRY` and `CNTR` bytes and,
//! after its router seed and `P`, its engine record.
//!
//! [`AnySketch`] erases the four estimator configurations the CLI can
//! build (FreeBS, FreeRS and their sharded variants) behind one
//! save/load/merge surface; [`SnapshotImage`] splits a save into a copy
//! that needs the sketch quiescent and a write that does not;
//! [`Checkpointer`] writes snapshots atomically (temp file + rename) every
//! `N` ingested edges while keeping the last good one as a `.prev`
//! fallback; [`load_with_fallback`] restores from the newest snapshot that
//! still checksums.
//!
//! Every failure on the load path is a typed [`SnapshotError`] — corrupt
//! or truncated bytes must never panic, never allocate what a count
//! merely claims, and never produce a silently-wrong estimator.

use crate::concurrent::{
    ConcurrentEngine, ConcurrentEstimator, SharedF64, SharedQTracker, SharedZ, SharedZeroQ,
};
use crate::confidence::{anytime_ci, EstimateWithCi};
use crate::engine::{IncrementalZ, QTracker, SketchEngine, ZeroQ};
use crate::ingest::{drive, ingest_parallel, ingest_slice, IngestError, DEFAULT_BATCH};
use crate::{CardinalityEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS, ShardedSketch};
use bitpack::{ConcurrentSlotStore, SlotStore, WordStore};
use graphstream::snapshot::{find_section, read_sections, write_sections, Section};
use graphstream::{replace_file, Edge, EdgeSource, SnapshotError};
use hashkit::{CounterMap, EdgeHasher, ShardedCounterMap};
use std::fs;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Section tag: sketch kind and stream offset.
const TAG_META: [u8; 4] = *b"META";
/// Section tag: configuration (seeds, geometry, `q` state, totals).
const TAG_CONF: [u8; 4] = *b"CONF";
/// Section tag: the shared bit/register array(s).
const TAG_ARRY: [u8; 4] = *b"ARRY";
/// Section tag: the per-user counter map(s).
const TAG_CNTR: [u8; 4] = *b"CNTR";

/// `META` kind codes.
const KIND_FREEBS: u64 = 1;
const KIND_FREERS: u64 = 2;
const KIND_SHARDED_FREEBS: u64 = 3;
const KIND_SHARDED_FREERS: u64 = 4;

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        detail: detail.into(),
    }
}

/// Dispatches one expression over every [`AnySketch`] variant.
macro_rules! dispatch {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnySketch::FreeBS($e) => $body,
            AnySketch::FreeRS($e) => $body,
            AnySketch::ShardedFreeBS($e) => $body,
            AnySketch::ShardedFreeRS($e) => $body,
        }
    };
}

/// The estimator configurations a snapshot can hold, behind one
/// save/load/merge/ingest surface. The variant is recorded in the `META`
/// section as a kind string ([`AnySketch::kind`]), and a snapshot only
/// restores into the same kind.
#[derive(Debug)]
pub enum AnySketch {
    /// Sequential FreeBS (`SketchEngine<BitArray, ZeroQ>`).
    FreeBS(FreeBS),
    /// Sequential FreeRS (`SketchEngine<PackedArray, IncrementalZ>`).
    FreeRS(FreeRS),
    /// Sharded concurrent FreeBS.
    ShardedFreeBS(ShardedFreeBS),
    /// Sharded concurrent FreeRS.
    ShardedFreeRS(ShardedFreeRS),
}

impl From<FreeBS> for AnySketch {
    fn from(e: FreeBS) -> Self {
        Self::FreeBS(e)
    }
}

impl From<FreeRS> for AnySketch {
    fn from(e: FreeRS) -> Self {
        Self::FreeRS(e)
    }
}

impl From<ShardedFreeBS> for AnySketch {
    fn from(s: ShardedFreeBS) -> Self {
        Self::ShardedFreeBS(s)
    }
}

impl From<ShardedFreeRS> for AnySketch {
    fn from(s: ShardedFreeRS) -> Self {
        Self::ShardedFreeRS(s)
    }
}

impl AnySketch {
    /// The kind string recorded in the `META` section.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::FreeBS(_) => "freebs",
            Self::FreeRS(_) => "freers",
            Self::ShardedFreeBS(_) => "sharded-freebs",
            Self::ShardedFreeRS(_) => "sharded-freers",
        }
    }

    fn kind_code(&self) -> u64 {
        match self {
            Self::FreeBS(_) => KIND_FREEBS,
            Self::FreeRS(_) => KIND_FREERS,
            Self::ShardedFreeBS(_) => KIND_SHARDED_FREEBS,
            Self::ShardedFreeRS(_) => KIND_SHARDED_FREERS,
        }
    }

    /// Semantic validation of a freshly loaded sketch, beyond the
    /// per-section CRCs: store invariants (lengths, stray bits, register
    /// geometry), every counter finite and non-negative, and the sampling
    /// probability inside `[0, 1]`. A snapshot whose bytes checksum but
    /// whose state is inconsistent is reported here instead of surfacing
    /// later as a panic or a silently-wrong estimate.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        match self {
            Self::FreeBS(e) => e.store().validate().map_err(malformed)?,
            Self::FreeRS(e) => e.store().validate().map_err(malformed)?,
            // Atomic stores have no sequential validator; a loaded one was
            // checked word by word as it was rebuilt.
            Self::ShardedFreeBS(_) | Self::ShardedFreeRS(_) => {}
        }
        let mut bad: Option<(u64, f64)> = None;
        self.for_each_estimate(&mut |user, est| {
            if !(est.is_finite() && est >= 0.0) && bad.is_none() {
                bad = Some((user, est));
            }
        });
        if let Some((user, est)) = bad {
            return Err(malformed(format!("user {user} has invalid estimate {est}")));
        }
        let total = self.total_estimate();
        if !(total.is_finite() && total >= 0.0) {
            return Err(malformed(format!("invalid total estimate {total}")));
        }
        let q = dispatch!(self, e => e.q());
        if !(q.is_finite() && (0.0..=1.0 + 1e-6).contains(&q)) {
            return Err(malformed(format!(
                "sampling probability {q} outside [0, 1]"
            )));
        }
        Ok(())
    }

    /// Unions another sketch into this one (counters add, arrays OR/max).
    /// See [`crate::engine::SketchEngine::merge`] for the
    /// disjoint-partition semantics.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] when the kinds, seeds, or
    /// geometries differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), SnapshotError> {
        match (self, other) {
            (Self::FreeBS(a), Self::FreeBS(b)) => a.merge(b),
            (Self::FreeRS(a), Self::FreeRS(b)) => a.merge(b),
            (Self::ShardedFreeBS(a), Self::ShardedFreeBS(b)) => a.merge(b),
            (Self::ShardedFreeRS(a), Self::ShardedFreeRS(b)) => a.merge(b),
            (a, b) => Err(SnapshotError::ConfigMismatch {
                detail: format!("cannot merge kind {:?} into {:?}", b.kind(), a.kind()),
            }),
        }
    }

    /// Applies one in-memory chunk: scalar kinds run the sequential block
    /// pipeline ([`ingest_slice`]), sharded kinds split the chunk over
    /// `threads` ingest threads ([`ingest_parallel`], joined before
    /// returning, so the sketch is quiescent afterwards — the property
    /// checkpointing relies on). `pairs` is a scratch buffer the caller
    /// reuses across chunks.
    pub fn apply_chunk(&mut self, buf: &[Edge], pairs: &mut Vec<(u64, u64)>, threads: usize) {
        match self.as_concurrent() {
            Some(s) => {
                pairs.clear();
                pairs.extend(buf.iter().map(|e| e.pair()));
                ingest_parallel(s, pairs, DEFAULT_BATCH, threads);
            }
            None => ingest_slice(self, buf, pairs, DEFAULT_BATCH),
        }
    }

    /// The shared-ingest (`&self`) view of the sharded kinds — the seam
    /// the serving layer's writer threads ingest through while query
    /// threads read estimates concurrently. Scalar kinds need `&mut`
    /// exclusive access and return `None`.
    #[must_use]
    pub fn as_concurrent(&self) -> Option<&dyn ConcurrentEstimator> {
        match self {
            Self::FreeBS(_) | Self::FreeRS(_) => None,
            Self::ShardedFreeBS(s) => Some(s),
            Self::ShardedFreeRS(s) => Some(s),
        }
    }

    /// The current sampling probability `q(t)` anytime confidence
    /// intervals are built on: for the sharded kinds the minimum across
    /// shards, which keeps the intervals conservative.
    #[must_use]
    pub fn sampling_q(&self) -> f64 {
        match self {
            Self::FreeBS(e) => e.q(),
            Self::FreeRS(e) => e.q(),
            Self::ShardedFreeBS(s) => min_shard_q(s),
            Self::ShardedFreeRS(s) => min_shard_q(s),
        }
    }

    /// `user`'s estimate with its anytime confidence interval at normal
    /// quantile `z` ([`anytime_ci`]), priced at [`AnySketch::sampling_q`].
    /// `serve`'s `CONFIDENCE` verb answers through this.
    #[must_use]
    pub fn confidence(&self, user: u64, z: f64) -> EstimateWithCi {
        anytime_ci(self.estimate(user), self.sampling_q(), z)
    }

    /// Number of distinct users tracked: O(1) for the scalar kinds and a
    /// one-shard sketch, a merged scan for more shards.
    #[must_use]
    pub fn user_count(&self) -> usize {
        dispatch!(self, e => e.user_count())
    }

    /// Drives `src` to exhaustion through the chunk loop that every
    /// streaming entry point of [`crate::ingest`] shares. Scalar kinds
    /// decode and hash the next chunk on a stage thread while this thread
    /// applies the current one, as [`crate::ingest::stream_into`] does;
    /// sharded kinds have no block hasher, so each chunk is read and then
    /// split over `threads` ingest threads ([`ingest_parallel`]). With a
    /// checkpointer, it checkpoints at chunk boundaries (the quiescent
    /// points) once at least its interval's worth of new edges has
    /// accumulated, plus a final checkpoint at stream end. `base_edges` is
    /// the stream offset already applied to this sketch (non-zero when
    /// resuming from a restored checkpoint), so recorded offsets are
    /// absolute.
    ///
    /// Returns the number of edges ingested by *this* call.
    ///
    /// # Errors
    /// Stops at the first stream or checkpoint-write error; the sketch
    /// keeps every chunk applied so far, and the newest on-disk
    /// checkpoint stays consistent (a torn write only ever affects the
    /// temp file).
    pub fn ingest_stream(
        &mut self,
        src: &mut (dyn EdgeSource + Send),
        chunk: usize,
        threads: usize,
        mut ckpt: Option<&mut Checkpointer>,
        base_edges: u64,
    ) -> Result<u64, IngestError> {
        let ingested = drive(src, chunk, self.block_hasher(), |unit, n| {
            match self.as_concurrent() {
                Some(s) => ingest_parallel(s, unit.pairs(), DEFAULT_BATCH, threads),
                None => unit.apply_into(self, DEFAULT_BATCH),
            }
            if let Some(ckpt) = ckpt.as_deref_mut() {
                ckpt.maybe_checkpoint(self, base_edges + n)?;
            }
            Ok::<(), IngestError>(())
        })?;
        if let Some(ckpt) = ckpt {
            ckpt.checkpoint_now(self, base_edges + ingested)?;
        }
        Ok(ingested)
    }
}

/// The smallest per-shard sampling probability.
fn min_shard_q<S: ConcurrentSlotStore, Q: SharedQTracker<S>>(sketch: &ShardedSketch<S, Q>) -> f64 {
    sketch
        .shards()
        .iter()
        .map(ConcurrentEngine::q)
        .fold(f64::INFINITY, f64::min)
}

impl CardinalityEstimator for AnySketch {
    #[inline]
    fn process(&mut self, user: u64, item: u64) {
        dispatch!(self, e => e.process(user, item));
    }

    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        dispatch!(self, e => e.process_batch(edges));
    }

    fn block_hasher(&self) -> Option<crate::BlockHasher> {
        dispatch!(self, e => e.block_hasher())
    }

    fn apply_hashed(&mut self, edges: &[(u64, u64)], slots: &[usize], ranks: &[u16]) {
        dispatch!(self, e => e.apply_hashed(edges, slots, ranks));
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        dispatch!(self, e => e.estimate(user))
    }

    fn total_estimate(&self) -> f64 {
        dispatch!(self, e => e.total_estimate())
    }

    fn memory_bits(&self) -> usize {
        dispatch!(self, e => e.memory_bits())
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        dispatch!(self, e => CardinalityEstimator::for_each_estimate(e, f));
    }

    fn name(&self) -> &'static str {
        dispatch!(self, e => CardinalityEstimator::name(e))
    }
}

/// A sketch's state copied out for one snapshot: `META`, `CONF` and
/// `ARRY` already encoded, the counters gathered but not yet sorted.
/// [`SnapshotImage::capture`] is the only step that needs a quiescent
/// sketch — the serving layer holds its ingest gate for the copy alone
/// and sorts, encodes, checksums and writes after releasing it.
#[derive(Debug)]
pub struct SnapshotImage {
    edges: u64,
    meta: Vec<u8>,
    conf: Vec<u8>,
    arry: Vec<u8>,
    counters: Vec<Vec<(u64, f64)>>,
}

impl SnapshotImage {
    /// Copies `sketch`'s state, recording that `edges` stream edges
    /// produced it. Exact when no ingest runs concurrently.
    #[must_use]
    pub fn capture(sketch: &AnySketch, edges: u64) -> Self {
        let mut image = Self {
            edges,
            meta: Vec::with_capacity(16),
            conf: Vec::new(),
            arry: Vec::new(),
            counters: Vec::new(),
        };
        put(&mut image.meta, sketch.kind_code());
        put(&mut image.meta, edges);
        match sketch {
            AnySketch::FreeBS(e) => image.scalar(e),
            AnySketch::FreeRS(e) => image.scalar(e),
            AnySketch::ShardedFreeBS(s) => image.sharded(s),
            AnySketch::ShardedFreeRS(s) => image.sharded(s),
        }
        image
    }

    fn scalar<S, Q>(&mut self, engine: &SketchEngine<S, Q>)
    where
        S: SlotStore + WordStore,
        Q: QTracker<S> + TrackerState,
    {
        let (store, hasher, q, estimates, total) = engine.parts();
        let pairs = counter_pairs(estimates.len(), |f| estimates.for_each(f));
        self.engine(store, (store.len(), store.width()), hasher, total, q, pairs);
    }

    fn sharded<S, Q>(&mut self, sketch: &ShardedSketch<S, Q>)
    where
        S: ConcurrentSlotStore + WordStore,
        Q: SharedQTracker<S> + TrackerState,
    {
        put(&mut self.conf, sketch.router().seed());
        put(&mut self.conf, sketch.shards().len() as u64);
        for shard in sketch.shards() {
            let (store, hasher, q, counters, total) = shard.parts();
            let pairs = counter_pairs(counters.len(), |f| counters.for_each(f));
            self.engine(store, (store.len(), store.width()), hasher, total, q, pairs);
        }
    }

    /// One engine, scalar or shard: its `CONF` record (hasher seed, `M`,
    /// width, running total, `q` state), its store's words and its
    /// counters. [`take_engine`] reads it back.
    fn engine<S: WordStore>(
        &mut self,
        store: &S,
        (len, width): (usize, u8),
        hasher: &EdgeHasher,
        total: f64,
        q: &impl TrackerState,
        pairs: Vec<(u64, f64)>,
    ) {
        put(&mut self.conf, hasher.seed());
        put(&mut self.conf, len as u64);
        put(&mut self.conf, u64::from(width));
        put(&mut self.conf, total.to_bits());
        q.put(&mut self.conf);
        put_words(&mut self.arry, store);
        self.counters.push(pairs);
    }

    /// The stream offset this image records.
    #[must_use]
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Sorts and encodes the counters and writes the container to `w`.
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn write(self, w: &mut dyn Write) -> Result<(), SnapshotError> {
        let len = self.counters.iter().map(|c| 8 + 16 * c.len()).sum();
        let mut cntr = Vec::with_capacity(len);
        for mut pairs in self.counters {
            pairs.sort_unstable_by_key(|&(user, _)| user);
            put(&mut cntr, pairs.len() as u64);
            for (user, est) in pairs {
                put(&mut cntr, user);
                put(&mut cntr, est.to_bits());
            }
        }
        write_sections(
            w,
            &[
                (TAG_META, &self.meta),
                (TAG_CONF, &self.conf),
                (TAG_ARRY, &self.arry),
                (TAG_CNTR, &cntr),
            ],
        )
    }

    /// Writes the image to `path` through [`graphstream::replace_file`]:
    /// staged at `{path}.part`, fsynced, renamed over `path`, and the
    /// directory fsynced, so a crash at any byte offset leaves either the
    /// old file or the new one under `path`, never a torn snapshot.
    ///
    /// # Errors
    /// I/O errors; on error the staging file is removed.
    pub fn write_file(self, path: &Path) -> Result<(), SnapshotError> {
        replace_file(path, None, |w| self.write(w))
    }
}

/// The `users` pairs that `for_each` visits, unsorted.
fn counter_pairs(users: usize, for_each: impl FnOnce(&mut dyn FnMut(u64, f64))) -> Vec<(u64, f64)> {
    let mut pairs = Vec::with_capacity(users);
    for_each(&mut |user, est| pairs.push((user, est)));
    pairs
}

fn put(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_words<S: WordStore>(arry: &mut Vec<u8>, store: &S) {
    let n = store.word_count();
    arry.reserve(8 * (n + 1));
    put(arry, n as u64);
    for i in 0..n {
        put(arry, store.word(i));
    }
}

/// A cursor over one section's fixed little-endian fields. Reading past
/// the end, a count the remaining bytes cannot hold, and bytes left over
/// are all [`SnapshotError::Malformed`] naming the section.
struct Fields<'a> {
    tag: [u8; 4],
    bytes: &'a [u8],
}

impl<'a> Fields<'a> {
    fn of(sections: &'a [Section], tag: [u8; 4]) -> Result<Self, SnapshotError> {
        Ok(Self {
            tag,
            bytes: find_section(sections, &tag)?,
        })
    }

    fn malformed(&self, what: std::fmt::Arguments<'_>) -> SnapshotError {
        malformed(format!("{} {what}", String::from_utf8_lossy(&self.tag)))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let Some((head, rest)) = self.bytes.split_first_chunk::<8>() else {
            return Err(self.malformed(format_args!("section ends mid-field")));
        };
        self.bytes = rest;
        Ok(u64::from_le_bytes(*head))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        self.u64().map(f64::from_bits)
    }

    /// A count of `size`-byte records, checked against the bytes left
    /// before anything is allocated for it.
    fn count(&mut self, size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let room = self.bytes.len() / size;
        if n > room as u64 {
            return Err(self.malformed(format_args!(
                "count {n} disagrees with the section length ({} bytes left)",
                self.bytes.len()
            )));
        }
        Ok(n as usize)
    }

    fn words(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.count(8)?;
        let (head, rest) = self.bytes.split_at(8 * n);
        self.bytes = rest;
        Ok(head
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                u64::from_le_bytes(b)
            })
            .collect())
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(self.malformed(format_args!(
                "section has {} trailing bytes",
                self.bytes.len()
            )))
        }
    }
}

/// The `q` tracker state `CONF` carries: what the tracker cannot rebuild
/// from the store.
trait TrackerState: Sized {
    fn put(&self, conf: &mut Vec<u8>);
    fn take(conf: &mut Fields<'_>) -> Result<Self, SnapshotError>;
}

impl TrackerState for ZeroQ {
    fn put(&self, _conf: &mut Vec<u8>) {}

    fn take(_conf: &mut Fields<'_>) -> Result<Self, SnapshotError> {
        Ok(Self)
    }
}

impl TrackerState for SharedZeroQ {
    fn put(&self, _conf: &mut Vec<u8>) {}

    fn take(_conf: &mut Fields<'_>) -> Result<Self, SnapshotError> {
        Ok(Self)
    }
}

impl TrackerState for IncrementalZ {
    fn put(&self, conf: &mut Vec<u8>) {
        put(conf, self.z.to_bits());
    }

    fn take(conf: &mut Fields<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            z: take_sum(conf, "register sum Z")?,
        })
    }
}

impl TrackerState for SharedZ {
    fn put(&self, conf: &mut Vec<u8>) {
        // Captured at quiescence: the caller holds the ingest gate or owns
        // the sketch.
        put(conf, self.z.get().to_bits());
    }

    fn take(conf: &mut Fields<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            z: SharedF64::new(take_sum(conf, "register sum Z")?),
        })
    }
}

/// A sum of non-negative terms (a running total, or `Z`, whose `q = Z/M`
/// [`AnySketch::validate`] then bounds by 1): finite and non-negative.
fn take_sum(conf: &mut Fields<'_>, what: &str) -> Result<f64, SnapshotError> {
    let v = conf.f64()?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(malformed(format!(
            "{what} = {v} is not a finite non-negative value"
        )))
    }
}

/// Reads one engine written by [`SnapshotImage::engine`]: its `CONF`
/// record, its store from `ARRY`, and its counters from `CNTR`, each
/// handed to `add`. Returns the hasher, store, running total and tracker.
fn take_engine<S: WordStore, Q: TrackerState>(
    conf: &mut Fields<'_>,
    arry: &mut Fields<'_>,
    cntr: &mut Fields<'_>,
    add: &mut dyn FnMut(u64, f64),
) -> Result<(EdgeHasher, S, f64, Q), SnapshotError> {
    let hasher = EdgeHasher::from_mixed_seed(conf.u64()?);
    let len = conf.u64()?;
    let width = conf.u64()?;
    let len =
        usize::try_from(len).map_err(|_| malformed(format!("array length {len} overflows")))?;
    let width =
        u8::try_from(width).map_err(|_| malformed(format!("slot width {width} out of range")))?;
    let store = S::from_words(len, width, arry.words()?).map_err(malformed)?;
    let total = take_sum(conf, "running total")?;
    let q = Q::take(conf)?;
    take_counters(cntr, add)?;
    Ok((hasher, store, total, q))
}

/// One engine's counters: `add` sees each pair of a list that must be
/// ascending by user, without duplicates, every estimate finite and
/// non-negative.
fn take_counters(
    cntr: &mut Fields<'_>,
    add: &mut dyn FnMut(u64, f64),
) -> Result<(), SnapshotError> {
    let n = cntr.count(16)?;
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let user = cntr.u64()?;
        let est = cntr.f64()?;
        if let Some(p) = prev.filter(|&p| user <= p) {
            return Err(malformed(format!(
                "CNTR users out of order: {user} after {p}"
            )));
        }
        if !(est.is_finite() && est >= 0.0) {
            return Err(malformed(format!("user {user} has invalid estimate {est}")));
        }
        add(user, est);
        prev = Some(user);
    }
    Ok(())
}

fn take_scalar<S, Q>(
    conf: &mut Fields<'_>,
    arry: &mut Fields<'_>,
    cntr: &mut Fields<'_>,
) -> Result<SketchEngine<S, Q>, SnapshotError>
where
    S: SlotStore + WordStore,
    Q: QTracker<S> + TrackerState,
{
    let mut estimates = CounterMap::new();
    let (hasher, store, total, q) =
        take_engine(conf, arry, cntr, &mut |user, est| estimates.add(user, est))?;
    Ok(SketchEngine::from_parts(store, hasher, q, estimates, total))
}

fn take_sharded<S, Q>(
    conf: &mut Fields<'_>,
    arry: &mut Fields<'_>,
    cntr: &mut Fields<'_>,
) -> Result<ShardedSketch<S, Q>, SnapshotError>
where
    S: ConcurrentSlotStore + WordStore,
    Q: SharedQTracker<S> + TrackerState,
{
    let router = EdgeHasher::from_mixed_seed(conf.u64()?);
    // Each shard takes at least four CONF fields (seed, length, width,
    // total).
    let p = conf.count(32)?;
    if p == 0 || !p.is_power_of_two() {
        return Err(malformed(format!(
            "shard count {p} must be a non-zero power of two"
        )));
    }
    let mut engines = Vec::with_capacity(p);
    for _ in 0..p {
        let counters = ShardedCounterMap::default();
        let (hasher, store, total, q) =
            take_engine(conf, arry, cntr, &mut |user, est| counters.add(user, est))?;
        engines.push(ConcurrentEngine::from_parts(
            store, hasher, q, counters, total,
        ));
    }
    Ok(ShardedSketch::from_parts(engines, router))
}

/// Writes `sketch` as an FSNP snapshot recording that `edges` stream
/// edges produced it ([`SnapshotImage::capture`] then
/// [`SnapshotImage::write`]).
///
/// # Errors
/// I/O errors from `w`.
pub fn save_snapshot(
    w: &mut dyn Write,
    sketch: &AnySketch,
    edges: u64,
) -> Result<(), SnapshotError> {
    SnapshotImage::capture(sketch, edges).write(w)
}

/// Reads an FSNP snapshot back into a sketch and the stream offset it was
/// taken at. The result has passed [`AnySketch::validate`].
///
/// # Errors
/// Any [`SnapshotError`]: bad magic, version skew (version 1 to 3 files
/// included), truncation, CRC mismatch, missing section, or a payload
/// that checksums but decodes to an inconsistent sketch. Never panics on
/// corrupt input.
pub fn load_snapshot(r: &mut dyn Read) -> Result<(AnySketch, u64), SnapshotError> {
    let sections = read_sections(r)?;
    let mut meta = Fields::of(&sections, TAG_META)?;
    let kind = meta.u64()?;
    let edges = meta.u64()?;
    meta.finish()?;
    let mut conf = Fields::of(&sections, TAG_CONF)?;
    let mut arry = Fields::of(&sections, TAG_ARRY)?;
    let mut cntr = Fields::of(&sections, TAG_CNTR)?;
    let (c, a, n) = (&mut conf, &mut arry, &mut cntr);
    let sketch = match kind {
        KIND_FREEBS => AnySketch::FreeBS(take_scalar(c, a, n)?),
        KIND_FREERS => AnySketch::FreeRS(take_scalar(c, a, n)?),
        KIND_SHARDED_FREEBS => AnySketch::ShardedFreeBS(take_sharded(c, a, n)?),
        KIND_SHARDED_FREERS => AnySketch::ShardedFreeRS(take_sharded(c, a, n)?),
        other => return Err(malformed(format!("unknown sketch kind {other}"))),
    };
    conf.finish()?;
    arry.finish()?;
    cntr.finish()?;
    sketch.validate()?;
    Ok((sketch, edges))
}

/// The sibling path checkpoint rotation keeps the previous good snapshot
/// at: `{path}.prev`.
#[must_use]
pub fn fallback_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

/// Periodic atomic checkpoint writer with last-good rotation.
///
/// Every interval's worth of edges, the sketch is staged to
/// `{path}.part`, the current good checkpoint (if any) is rotated to
/// `{path}.prev`, and the staged file is renamed to `path`. Both renames
/// are atomic, so at every instant at least one of `path` / `{path}.prev`
/// holds a complete, checksummed snapshot — the invariant
/// [`load_with_fallback`] recovers through.
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    every: u64,
    last_at: u64,
    written: u64,
    crash_after: Option<u64>,
}

impl Checkpointer {
    /// Checkpoints to `path` every `every` ingested edges (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
            last_at: 0,
            written: 0,
            crash_after: None,
        }
    }

    /// Marks `edges` as already durably checkpointed (the offset restored
    /// from), so the next checkpoint fires one full interval later.
    #[must_use]
    pub fn starting_from(mut self, edges: u64) -> Self {
        self.last_at = edges;
        self
    }

    /// Fault-injection knob: the `n`-th checkpoint write (0-based) fails
    /// with a simulated crash *before* touching any file, as an abrupt
    /// process kill would. The CLI wires this to
    /// `FREESKETCH_CRASH_AFTER_CHECKPOINTS` for the crash/restore smoke
    /// test.
    #[must_use]
    pub fn with_crash_after(mut self, n: Option<u64>) -> Self {
        self.crash_after = n;
        self
    }

    /// The checkpoint path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checkpoints written so far by this instance.
    #[must_use]
    pub fn checkpoints_written(&self) -> u64 {
        self.written
    }

    /// Whether at least one interval of edges has passed since the last
    /// checkpoint.
    #[must_use]
    pub fn due(&self, edges: u64) -> bool {
        edges.saturating_sub(self.last_at) >= self.every
    }

    /// Writes a checkpoint if it is [`Checkpointer::due`]; returns whether
    /// it did.
    ///
    /// # Errors
    /// See [`Checkpointer::publish`].
    pub fn maybe_checkpoint(
        &mut self,
        sketch: &AnySketch,
        edges: u64,
    ) -> Result<bool, SnapshotError> {
        if !self.due(edges) {
            return Ok(false);
        }
        self.checkpoint_now(sketch, edges)?;
        Ok(true)
    }

    /// Writes a checkpoint unconditionally.
    ///
    /// # Errors
    /// See [`Checkpointer::publish`].
    pub fn checkpoint_now(&mut self, sketch: &AnySketch, edges: u64) -> Result<(), SnapshotError> {
        self.publish(SnapshotImage::capture(sketch, edges))
    }

    /// Writes a captured image as the next checkpoint through
    /// [`graphstream::replace_file`], rotating the current one to
    /// [`fallback_path`] — the write half of
    /// [`Checkpointer::checkpoint_now`], for callers that capture under a
    /// lock and write after releasing it.
    ///
    /// # Errors
    /// I/O errors; the previously completed checkpoint files are never
    /// left torn, and the staging file is removed.
    pub fn publish(&mut self, image: SnapshotImage) -> Result<(), SnapshotError> {
        if self.crash_after == Some(self.written) {
            return Err(SnapshotError::Io(std::io::Error::other(format!(
                "simulated crash before checkpoint {} (fault injection)",
                self.written
            ))));
        }
        let edges = image.edges();
        replace_file(&self.path, Some(&fallback_path(&self.path)), |w| {
            image.write(w)
        })?;
        self.written += 1;
        self.last_at = edges;
        Ok(())
    }
}

/// Restores from `path`, falling back to [`fallback_path`] when the
/// newest snapshot is corrupt or mid-rotation (present but torn, or
/// already rotated away by a crash between the two renames).
///
/// Returns `Ok(None)` when neither file exists (a cold start),
/// `Ok(Some((sketch, edges, used_fallback)))` otherwise.
///
/// # Errors
/// The *primary* snapshot's error when both files exist but neither
/// loads, or the fallback's error when the primary is absent and the
/// fallback is corrupt.
pub fn load_with_fallback(path: &Path) -> Result<Option<(AnySketch, u64, bool)>, SnapshotError> {
    let prev = fallback_path(path);
    match try_load(path) {
        Ok(Some((sketch, edges))) => Ok(Some((sketch, edges, false))),
        Ok(None) => match try_load(&prev)? {
            Some((sketch, edges)) => Ok(Some((sketch, edges, true))),
            None => Ok(None),
        },
        Err(primary_err) => match try_load(&prev) {
            Ok(Some((sketch, edges))) => Ok(Some((sketch, edges, true))),
            _ => Err(primary_err),
        },
    }
}

fn try_load(path: &Path) -> Result<Option<(AnySketch, u64)>, SnapshotError> {
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut r = BufReader::new(file);
    load_snapshot(&mut r).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::SliceSource;

    fn edges(n: u64, salt: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new(i % 23, hashkit::splitmix64(i ^ salt) >> 20))
            .collect()
    }

    fn ingest(sketch: &mut AnySketch, es: &[Edge]) {
        // One ingest thread: bit-identity assertions need a deterministic
        // edge order even for the sharded kinds.
        let mut pairs = Vec::new();
        sketch.apply_chunk(es, &mut pairs, 1);
    }

    fn snapshot_bytes(sketch: &AnySketch, offset: u64) -> Vec<u8> {
        let mut out = Vec::new();
        save_snapshot(&mut out, sketch, offset).expect("in-memory write");
        out
    }

    fn all_kinds() -> Vec<AnySketch> {
        vec![
            AnySketch::FreeBS(FreeBS::new(1 << 12, 7)),
            AnySketch::FreeRS(FreeRS::new(1 << 10, 7)),
            AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 12, 4, 7)),
            AnySketch::ShardedFreeRS(ShardedFreeRS::new(1 << 10, 4, 7)),
        ]
    }

    #[test]
    fn every_kind_round_trips_bit_identically() {
        for mut sketch in all_kinds() {
            let es = edges(4_000, 1);
            ingest(&mut sketch, &es);
            let bytes = snapshot_bytes(&sketch, 4_000);
            let (restored, offset) =
                load_snapshot(&mut bytes.as_slice()).expect("clean round trip");
            assert_eq!(offset, 4_000);
            assert_eq!(restored.kind(), sketch.kind());
            for u in 0..23u64 {
                assert_eq!(
                    restored.estimate(u),
                    sketch.estimate(u),
                    "{} user {u}",
                    sketch.kind()
                );
            }
            assert_eq!(restored.total_estimate(), sketch.total_estimate());
            // And the restored sketch keeps ingesting identically to the
            // original: q-tracker state survived exactly.
            let mut restored = restored;
            let more = edges(1_000, 2);
            ingest(&mut sketch, &more);
            ingest(&mut restored, &more);
            for u in 0..23u64 {
                assert_eq!(
                    restored.estimate(u),
                    sketch.estimate(u),
                    "{} diverged after resume, user {u}",
                    sketch.kind()
                );
            }
        }
    }

    #[test]
    fn sharded_totals_survive_save_and_load_bit_for_bit() {
        // 20,000 users put about 300 in each of a shard's 64 counter maps,
        // so many share a home slot; the loader re-inserts them in
        // ascending order, which moves colliding users to other slots. A
        // total re-summed from the rebuilt maps would add them in another
        // order, so only a recorded total survives bit for bit.
        let es: Vec<Edge> = (0..100_000u64)
            .map(|i| {
                let h = hashkit::splitmix64(i);
                Edge::new(h % 20_000, h >> 24)
            })
            .collect();
        for p in [1usize, 2, 4] {
            for mut sketch in [
                AnySketch::from(ShardedFreeBS::new(1 << 20, p, 5)),
                AnySketch::from(ShardedFreeRS::new(1 << 18, p, 5)),
            ] {
                ingest(&mut sketch, &es);
                let bytes = snapshot_bytes(&sketch, es.len() as u64);
                let (restored, _) = load_snapshot(&mut bytes.as_slice()).expect("round trip");
                assert_eq!(
                    restored.total_estimate().to_bits(),
                    sketch.total_estimate().to_bits(),
                    "{} P = {p}",
                    sketch.kind()
                );
            }
        }
    }

    #[test]
    fn sampling_q_is_the_smallest_shard_q() {
        let pairs: Vec<(u64, u64)> = edges(4_000, 1).iter().map(|e| e.pair()).collect();
        for p in [1usize, 4] {
            let sharded = ShardedFreeBS::new(1 << 12, p, 7);
            sharded.process_batch(&pairs);
            let min = sharded
                .shards()
                .iter()
                .map(ConcurrentEngine::q)
                .fold(f64::INFINITY, f64::min);
            let mean = sharded.q();
            let sketch = AnySketch::from(sharded);
            assert_eq!(sketch.sampling_q(), min, "P = {p}");
            assert!(min <= mean, "P = {p}: min {min} above mean {mean}");
            if p == 1 {
                assert_eq!(min, mean);
            }
        }
    }

    #[test]
    fn kind_mismatch_is_config_error() {
        let mut bs = AnySketch::FreeBS(FreeBS::new(1 << 10, 1));
        let rs = AnySketch::FreeRS(FreeRS::new(1 << 10, 1));
        let err = bs.merge(&rs).expect_err("kind mismatch");
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn seed_and_geometry_mismatches_are_config_errors() {
        let mut a = AnySketch::FreeBS(FreeBS::new(1 << 10, 1));
        let b = AnySketch::FreeBS(FreeBS::new(1 << 10, 2));
        assert!(matches!(
            a.merge(&b),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        let c = AnySketch::FreeBS(FreeBS::new(1 << 11, 1));
        assert!(matches!(
            a.merge(&c),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        let sa = ShardedFreeBS::new(1 << 12, 4, 3);
        let sb = ShardedFreeBS::new(1 << 12, 8, 3);
        assert!(matches!(
            sa.merge(&sb),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpointer_rotates_and_recovers_from_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let mut sketch = AnySketch::FreeBS(FreeBS::new(1 << 12, 9));
        let mut ckpt = Checkpointer::new(&path, 1);
        ingest(&mut sketch, &edges(1_000, 3));
        ckpt.checkpoint_now(&sketch, 1_000)
            .expect("first checkpoint");
        ingest(&mut sketch, &edges(1_000, 4));
        ckpt.checkpoint_now(&sketch, 2_000)
            .expect("second checkpoint");
        assert_eq!(ckpt.checkpoints_written(), 2);
        assert!(
            fallback_path(&path).exists(),
            "rotation must keep last good"
        );

        // Newest intact → restore it.
        let (_, offset, used_fallback) = load_with_fallback(&path)
            .expect("restore")
            .expect("checkpoint exists");
        assert_eq!((offset, used_fallback), (2_000, false));

        // Corrupt the newest (flip one payload byte) → typed fallback.
        let mut bytes = fs::read(&path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite corrupted");
        let (restored, offset, used_fallback) = load_with_fallback(&path)
            .expect("fallback restore")
            .expect("fallback exists");
        assert_eq!((offset, used_fallback), (1_000, true));
        restored.validate().expect("fallback is consistent");

        // Both corrupt → the primary's typed error, never a panic.
        fs::write(fallback_path(&path), b"FSNPgarbage").expect("corrupt prev");
        let err = load_with_fallback(&path).expect_err("both corrupt");
        assert!(!err.to_string().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_ingest_writes_at_interval_and_eof() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let es = edges(10_000, 5);
        let mut sketch = AnySketch::FreeRS(FreeRS::new(1 << 10, 3));
        let mut ckpt = Checkpointer::new(&path, 4_000);
        let mut src = SliceSource::new(&es);
        let n = sketch
            .ingest_stream(&mut src, 1_000, 1, Some(&mut ckpt), 0)
            .expect("clean ingest");
        assert_eq!(n, 10_000);
        // Interval checkpoints at 4k and 8k, plus the final one at EOF.
        assert_eq!(ckpt.checkpoints_written(), 3);
        let (_, offset, _) = load_with_fallback(&path)
            .expect("restore")
            .expect("checkpoint exists");
        assert_eq!(offset, 10_000);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulated_crash_is_an_io_error_and_keeps_last_good() {
        let dir = std::env::temp_dir().join(format!(
            "freesketch-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sketch.fsnp");
        let es = edges(10_000, 6);
        let mut sketch = AnySketch::FreeBS(FreeBS::new(1 << 12, 3));
        let mut ckpt = Checkpointer::new(&path, 3_000).with_crash_after(Some(1));
        let mut src = SliceSource::new(&es);
        let err = sketch
            .ingest_stream(&mut src, 1_000, 1, Some(&mut ckpt), 0)
            .expect_err("fault injection fires");
        assert!(err.to_string().contains("simulated crash"), "{err}");
        // Exactly one checkpoint (at 3k edges) landed before the crash and
        // it restores cleanly.
        let (restored, offset, used_fallback) = load_with_fallback(&path)
            .expect("restore after crash")
            .expect("one checkpoint survived");
        assert_eq!((offset, used_fallback), (3_000, false));
        restored.validate().expect("consistent");
        fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites one section's payload and re-checksums the container, so
    /// only the typed parse can object to the edit.
    fn with_section(bytes: &[u8], tag: [u8; 4], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut sections = read_sections(&mut &bytes[..]).expect("sections");
        let (_, payload) = sections
            .iter_mut()
            .find(|(t, _)| *t == tag)
            .expect("section present");
        edit(payload);
        let refs: Vec<([u8; 4], &[u8])> =
            sections.iter().map(|(t, p)| (*t, p.as_slice())).collect();
        let mut out = Vec::new();
        write_sections(&mut out, &refs).expect("rewrite");
        out
    }

    fn set_u64(payload: &mut [u8], field: usize, v: u64) {
        payload[8 * field..8 * field + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn malformed_detail(bytes: &[u8]) -> String {
        match load_snapshot(&mut &bytes[..]) {
            Err(SnapshotError::Malformed { detail }) => detail,
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
    }

    fn freebs_bytes(m: usize) -> Vec<u8> {
        let mut sketch = AnySketch::FreeBS(FreeBS::new(m, 3));
        ingest(&mut sketch, &edges(300, 9));
        snapshot_bytes(&sketch, 300)
    }

    #[test]
    fn version_one_files_are_rejected() {
        let mut bytes = freebs_bytes(1 << 8);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = load_snapshot(&mut bytes.as_slice()).expect_err("v1");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found: 1 }),
            "{err}"
        );
    }

    #[test]
    fn version_two_files_are_rejected() {
        let mut bytes = freebs_bytes(1 << 8);
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let err = load_snapshot(&mut bytes.as_slice()).expect_err("v2");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found: 2 }),
            "{err}"
        );
    }

    #[test]
    fn version_three_files_are_rejected() {
        let mut bytes = freebs_bytes(1 << 8);
        bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
        let err = load_snapshot(&mut bytes.as_slice()).expect_err("v3");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found: 3 }),
            "{err}"
        );
    }

    #[test]
    fn version_four_files_are_rejected() {
        let mut bytes = freebs_bytes(1 << 8);
        bytes[4..6].copy_from_slice(&4u16.to_le_bytes());
        let err = load_snapshot(&mut bytes.as_slice()).expect_err("v4");
        assert!(
            matches!(err, SnapshotError::UnsupportedVersion { found: 4 }),
            "{err}"
        );
    }

    #[test]
    fn unknown_kind_is_malformed() {
        let bytes = with_section(&freebs_bytes(1 << 8), TAG_META, |m| set_u64(m, 0, 9));
        assert!(malformed_detail(&bytes).contains("unknown sketch kind 9"));
    }

    #[test]
    fn counter_counts_that_disagree_with_the_section_are_malformed() {
        let bytes = freebs_bytes(1 << 8);
        for n in [u64::MAX, 1 << 40, 24] {
            let bad = with_section(&bytes, TAG_CNTR, |c| set_u64(c, 0, n));
            let detail = malformed_detail(&bad);
            assert!(
                detail.contains("count") || detail.contains("trailing"),
                "{n}: {detail}"
            );
        }
    }

    #[test]
    fn unsorted_or_duplicate_users_are_malformed() {
        let bytes = freebs_bytes(1 << 8);
        // Pairs start after the count: user i at field 1 + 2i.
        let swapped = with_section(&bytes, TAG_CNTR, |c| {
            let (a, b) = (c[8..16].to_vec(), c[24..32].to_vec());
            c[8..16].copy_from_slice(&b);
            c[24..32].copy_from_slice(&a);
        });
        assert!(malformed_detail(&swapped).contains("out of order"));
        let duplicate = with_section(&bytes, TAG_CNTR, |c| {
            let first = c[8..16].to_vec();
            c[24..32].copy_from_slice(&first);
        });
        assert!(malformed_detail(&duplicate).contains("out of order"));
    }

    #[test]
    fn non_finite_or_negative_counters_are_malformed() {
        let bytes = freebs_bytes(1 << 8);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let edited = with_section(&bytes, TAG_CNTR, |c| set_u64(c, 2, bad.to_bits()));
            assert!(
                malformed_detail(&edited).contains("invalid estimate"),
                "{bad}"
            );
        }
    }

    #[test]
    fn non_finite_or_negative_totals_are_malformed() {
        // The running total is CONF field 3 of a scalar sketch (seed, M,
        // width, total) and field 5 of a sharded one (router seed, P, then
        // shard 0's record).
        let mut sharded = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 12, 2, 3));
        ingest(&mut sharded, &edges(300, 9));
        for (bytes, field) in [
            (freebs_bytes(1 << 8), 3),
            (snapshot_bytes(&sharded, 300), 5),
        ] {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let edited = with_section(&bytes, TAG_CONF, |c| set_u64(c, field, bad.to_bits()));
                assert!(
                    malformed_detail(&edited).contains("running total"),
                    "field {field}: {bad}"
                );
            }
        }
    }

    #[test]
    fn array_word_counts_must_match_the_geometry() {
        // 256 bits are four words; claim three (and drop one), or five.
        let bytes = freebs_bytes(1 << 8);
        let short = with_section(&bytes, TAG_ARRY, |a| {
            set_u64(a, 0, 3);
            a.truncate(a.len() - 8);
        });
        assert!(malformed_detail(&short).contains("expected 4"));
        let long = with_section(&bytes, TAG_ARRY, |a| set_u64(a, 0, 5));
        assert!(malformed_detail(&long).contains("count 5"));
        let huge = with_section(&bytes, TAG_ARRY, |a| set_u64(a, 0, u64::MAX));
        assert!(malformed_detail(&huge).contains("count"));
        // A width a bit array cannot have.
        let wide = with_section(&bytes, TAG_CONF, |c| set_u64(c, 2, 5));
        assert!(malformed_detail(&wide).contains("width"));
    }

    #[test]
    fn stray_bits_past_the_array_length_are_malformed() {
        // 100 bits in two words: bit 104 lies past the end.
        let bytes = freebs_bytes(100);
        let edited = with_section(&bytes, TAG_ARRY, |a| {
            let w = u64::from_le_bytes(a[16..24].try_into().expect("word")) | 1 << 40;
            set_u64(a, 2, w);
        });
        assert!(malformed_detail(&edited).contains("stray"));
        let mut sketch = AnySketch::ShardedFreeRS(ShardedFreeRS::new(100, 2, 4));
        ingest(&mut sketch, &edges(200, 3));
        // Shard 0 holds 50 five-bit registers, 250 bits, in four words: its
        // last word's top six bits lie past the end.
        let bytes = snapshot_bytes(&sketch, 200);
        let edited = with_section(&bytes, TAG_ARRY, |a| {
            assert_eq!(u64::from_le_bytes(a[..8].try_into().expect("count")), 4);
            let w = u64::from_le_bytes(a[32..40].try_into().expect("word")) | 1 << 60;
            set_u64(a, 4, w);
        });
        assert!(malformed_detail(&edited).contains("stray"));
    }

    #[test]
    fn shard_counts_must_be_non_zero_powers_of_two() {
        let mut sketch = AnySketch::ShardedFreeBS(ShardedFreeBS::new(1 << 12, 4, 7));
        ingest(&mut sketch, &edges(500, 1));
        let bytes = snapshot_bytes(&sketch, 500);
        for p in [0u64, 3] {
            let edited = with_section(&bytes, TAG_CONF, |c| set_u64(c, 1, p));
            assert!(
                malformed_detail(&edited).contains("power of two"),
                "P = {p}"
            );
        }
        let huge = with_section(&bytes, TAG_CONF, |c| set_u64(c, 1, 1 << 62));
        assert!(malformed_detail(&huge).contains("count"));
    }

    #[test]
    fn bad_register_sums_and_trailing_bytes_are_malformed() {
        let mut sketch = AnySketch::FreeRS(FreeRS::new(1 << 10, 2));
        ingest(&mut sketch, &edges(500, 4));
        let bytes = snapshot_bytes(&sketch, 500);
        // FreeRS CONF: seed, M, width, total, Z.
        for z in [f64::NAN, -1.0, 1e9] {
            let edited = with_section(&bytes, TAG_CONF, |c| set_u64(c, 4, z.to_bits()));
            let detail = malformed_detail(&edited);
            assert!(
                detail.contains('Z') || detail.contains("sampling"),
                "{z}: {detail}"
            );
        }
        for tag in [TAG_META, TAG_CONF, TAG_ARRY, TAG_CNTR] {
            let edited = with_section(&bytes, tag, |p| p.push(0));
            assert!(malformed_detail(&edited).contains("trailing"));
        }
    }
}
