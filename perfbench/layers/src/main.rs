//! `perfbench-layers` — the benchmark's traced per-layer run.
//!
//! ```text
//! perfbench-layers --trace T.fedge --method freebs|freers --threads N \
//!     --memory BITS --seed S --top K --seconds SECS --spans OUT.jsonl
//! ```
//!
//! Times calls into each crate's public functions on one benchmark trace,
//! from outside the crates (no code under test is instrumented):
//!
//! * `graphstream` — `EdgeSource::next_chunk` decoding the `fedge` file;
//! * `hashkit` — `EdgeHasher::slots_many`/`hash_many`, `CounterMap::add`
//!   and `ShardedCounterMap::add` replaying the credits of the edges that
//!   grew the array;
//! * `bitpack` — `SlotStore::update_many` on `BitArray`/`PackedArray` and
//!   `ConcurrentSlotStore::update_block` on the atomic array, with the
//!   slots computed beforehand;
//! * `core` — the composed `process_batch`, `ShardedSketch::route`,
//!   `ConcurrentEstimator::ingest_batch` at 1 and 2 threads, the
//!   `stream_into` drivers, the query scans, point `estimate` and
//!   `save_snapshot`;
//! * `cli` — `commands::run` in process and `protocol::parse_request`.
//!
//! The composed run is repeated with spans (run → chunk → `next_chunk` /
//! `process_batch` or per-thread `ingest_batch` → report) recorded in
//! memory and written to `--spans` at the end; its time against the
//! untraced `stream_into` is the tracing overhead. Stages repeat until
//! `--seconds` have passed (at most five times) and report their median.
//! The last line of standard output is `{"metrics": …, "report": […],
//! "checks": […]}`.

#![forbid(unsafe_code)]

use bitpack::{
    AtomicBitArray, AtomicPackedArray, BitArray, ConcurrentSlotStore, PackedArray, SlotStore,
};
use freesketch::concurrent::SharedQTracker;
use freesketch::ingest::{ingest_slice, stream_into, stream_into_parallel};
use freesketch::snapshot::{save_snapshot, AnySketch};
use freesketch::{
    CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS,
    ShardedSketch,
};
use graphstream::{Edge, EdgeSource, FedgeReader};
use hashkit::{geometric_rank, reduce64, splitmix64, CounterMap, EdgeHasher, ShardedCounterMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;

/// Edges per reader chunk: the CLI's `--chunk` default.
const CHUNK: usize = 1 << 16;
/// Edges per `process_batch`/`ingest_batch` call: the CLI's `--batch`.
const BATCH: usize = 8192;
/// The engines' block: slots are hashed and stores updated this many at
/// a time, as the batch pipeline does.
const BLOCK: usize = 512;
/// FreeRS register width, and the CLI's bits-per-register divisor.
const WIDTH: u8 = 5;
/// Most repetitions of the stage set, whatever `--seconds` allows.
const MAX_REPS: usize = 5;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Clone, Copy, PartialEq)]
enum Method {
    FreeBS,
    FreeRS,
}

struct Args {
    trace: String,
    method: Method,
    threads: usize,
    memory: usize,
    seed: u64,
    top: usize,
    seconds: f64,
    spans: String,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Res<String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        Ok(argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone())
    };
    Ok(Args {
        trace: get("--trace")?,
        method: match get("--method")?.as_str() {
            "freebs" => Method::FreeBS,
            "freers" => Method::FreeRS,
            other => return Err(format!("bad --method {other}").into()),
        },
        threads: get("--threads")?.parse()?,
        memory: get("--memory")?.parse()?,
        seed: get("--seed")?.parse()?,
        top: get("--top")?.parse()?,
        seconds: get("--seconds")?.parse()?,
        spans: get("--spans")?,
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn open(path: &str) -> Res<FedgeReader<BufReader<std::fs::File>>> {
    Ok(FedgeReader::new(BufReader::new(std::fs::File::open(
        path,
    )?))?)
}

/// The same scalar estimator `freesketch estimate` builds at 1 thread.
fn scalar(method: Method, memory: usize, seed: u64) -> Box<dyn CardinalityEstimator> {
    match method {
        Method::FreeBS => Box::new(FreeBS::new(memory.max(64), seed)),
        Method::FreeRS => Box::new(FreeRS::new((memory / WIDTH as usize).max(64), seed)),
    }
}

/// The same sharded sketch the CLI builds for `--threads` > 1 and `serve`.
fn sharded(method: Method, memory: usize, shards: usize, seed: u64) -> AnySketch {
    match method {
        Method::FreeBS => {
            AnySketch::ShardedFreeBS(ShardedFreeBS::new(memory.max(64 * shards), shards, seed))
        }
        Method::FreeRS => AnySketch::ShardedFreeRS(ShardedFreeRS::new(
            (memory / WIDTH as usize).max(64 * shards),
            shards,
            seed,
        )),
    }
}

fn concurrent(sketch: &AnySketch) -> &dyn ConcurrentEstimator {
    sketch
        .as_concurrent()
        .expect("sharded kinds ingest concurrently")
}

// ------------------------------------------------------------------ spans

/// One recorded span; times are nanoseconds from the start of the run.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span recorder, written out once the run ends.
struct Spans {
    t0: Instant,
    items: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            items: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.items.push(Span {
            name,
            start: t,
            end: t,
            parent,
        });
        self.items.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.items[id].end = self.now();
    }

    fn record(&mut self, name: &'static str, start: u64, end: u64, parent: usize) {
        self.items.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
        });
    }

    fn total(&self, name: &str) -> u64 {
        self.items
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name: duration minus the part of it that the
    /// span's children cover (children of one span may overlap when they
    /// ran on different threads, so their union is taken).
    fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.items.len()];
        for s in &self.items {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, kids) in self.items.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let own = (s.end - s.start).saturating_sub(covered);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(e) => e.1 += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    fn write(&self, path: &str, run: &str) -> Res<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.items.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": \"{run}\"}}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()?;
        Ok(())
    }
}

// ----------------------------------------------------------------- stages

/// One pass of the isolated stages over the whole trace, in reader-sized
/// windows; each field is seconds of that stage.
struct StagePass {
    slots_many: f64,
    hash_many: f64,
    update_many: f64,
    packed_update_many: f64,
    update_block: f64,
}

/// Decodes the trace file chunk by chunk, timing only `next_chunk`; the
/// edges are kept in `pairs` when it is given.
fn decode(path: &str, mut pairs: Option<&mut Vec<(u64, u64)>>) -> Res<f64> {
    let mut src = open(path)?;
    let mut buf: Vec<Edge> = Vec::with_capacity(CHUNK);
    let mut t = 0.0;
    loop {
        let s = Instant::now();
        let n = src.next_chunk(&mut buf, CHUNK)?;
        t += secs(s);
        if n == 0 {
            return Ok(t);
        }
        if let Some(p) = pairs.as_deref_mut() {
            p.extend(buf.iter().map(|e| e.pair()));
        }
    }
}

/// Hash and store stages, each timed on its own over slots computed
/// beforehand; also returns the users of the edges that grew the
/// workload's store, in stream order (the counter stage replays them).
fn stage_pass(
    pairs: &[(u64, u64)],
    method: Method,
    memory: usize,
    seed: u64,
) -> (StagePass, Vec<u64>) {
    let m_bits = memory.max(64);
    let m_regs = (memory / WIDTH as usize).max(64);
    let hasher = EdgeHasher::new(seed);
    let mut bits = BitArray::new(m_bits);
    let mut regs = PackedArray::new(m_regs, WIDTH);
    let atomic_bits = AtomicBitArray::new(if method == Method::FreeBS { m_bits } else { 64 });
    let atomic_regs =
        AtomicPackedArray::new(if method == Method::FreeRS { m_regs } else { 64 }, WIDTH);
    let mut slots_bs = vec![0usize; CHUNK];
    let mut hashes = vec![0u64; CHUNK];
    let mut slots_rs = vec![0usize; CHUNK];
    let mut values = vec![0u16; CHUNK];
    let ones = vec![1u16; CHUNK];
    let mut grew = vec![false; CHUNK];
    let mut old = vec![0u16; CHUNK];
    let mut grown = Vec::new();
    let mut p = StagePass {
        slots_many: 0.0,
        hash_many: 0.0,
        update_many: 0.0,
        packed_update_many: 0.0,
        update_block: 0.0,
    };
    for window in pairs.chunks(CHUNK) {
        let k = window.len();
        let t = Instant::now();
        for (b, out) in window.chunks(BLOCK).zip(slots_bs[..k].chunks_mut(BLOCK)) {
            hasher.slots_many(b, m_bits, out);
        }
        p.slots_many += secs(t);
        let t = Instant::now();
        for (b, out) in window.chunks(BLOCK).zip(hashes[..k].chunks_mut(BLOCK)) {
            hasher.hash_many(b, out);
        }
        p.hash_many += secs(t);
        for i in 0..k {
            slots_rs[i] = reduce64(hashes[i], m_regs);
            values[i] = u16::from(geometric_rank(splitmix64(hashes[i])).saturated(WIDTH));
        }

        let t = Instant::now();
        for i in (0..k).step_by(BLOCK) {
            let j = (i + BLOCK).min(k);
            bits.update_many(
                &slots_bs[i..j],
                &ones[i..j],
                &mut grew[i..j],
                &mut old[i..j],
            );
        }
        p.update_many += secs(t);
        if method == Method::FreeBS {
            grown.extend((0..k).filter(|&i| grew[i]).map(|i| window[i].0));
        }

        let t = Instant::now();
        for i in (0..k).step_by(BLOCK) {
            let j = (i + BLOCK).min(k);
            regs.update_many(
                &slots_rs[i..j],
                &values[i..j],
                &mut grew[i..j],
                &mut old[i..j],
            );
        }
        p.packed_update_many += secs(t);
        if method == Method::FreeRS {
            grown.extend((0..k).filter(|&i| grew[i]).map(|i| window[i].0));
        }

        let t = Instant::now();
        for i in (0..k).step_by(BLOCK) {
            let j = (i + BLOCK).min(k);
            match method {
                Method::FreeBS => atomic_bits.update_block(
                    &slots_bs[i..j],
                    &ones[i..j],
                    &mut grew[i..j],
                    &mut old[i..j],
                ),
                Method::FreeRS => atomic_regs.update_block(
                    &slots_rs[i..j],
                    &values[i..j],
                    &mut grew[i..j],
                    &mut old[i..j],
                ),
            }
        }
        p.update_block += secs(t);
    }
    (p, grown)
}

/// `CounterMap::add` and `ShardedCounterMap::add` at 1 and 2 threads,
/// replaying the grown users' credits: seconds for each, and the number
/// of users the map ends with.
fn credit_pass(grown: &[u64]) -> (f64, f64, f64, usize) {
    let t = Instant::now();
    let mut map = CounterMap::new();
    for &u in grown {
        map.add(u, 1.0);
    }
    let single = secs(t);
    let users = map.len();

    let t = Instant::now();
    let sharded = ShardedCounterMap::default();
    for &u in grown {
        sharded.add(u, 1.0);
    }
    let sharded_1t = secs(t);

    let t = Instant::now();
    let sharded = ShardedCounterMap::default();
    std::thread::scope(|s| {
        for half in grown.chunks(grown.len().div_ceil(2).max(1)) {
            let map = &sharded;
            s.spawn(move || {
                for &u in half {
                    map.add(u, 1.0);
                }
            });
        }
    });
    let sharded_2t = secs(t);
    (single, sharded_1t, sharded_2t, users)
}

/// The composed scalar engine on in-memory pairs: seconds and final `q`.
fn process_batch_pass(
    pairs: &[(u64, u64)],
    method: Method,
    memory: usize,
    seed: u64,
) -> (f64, f64) {
    fn run<S: SlotStore, Q: freesketch::QTracker<S>>(
        mut est: freesketch::SketchEngine<S, Q>,
        pairs: &[(u64, u64)],
    ) -> (f64, f64) {
        let t = Instant::now();
        for slice in pairs.chunks(BATCH) {
            est.process_batch(slice);
        }
        (secs(t), est.q())
    }
    match method {
        Method::FreeBS => run(FreeBS::new(memory.max(64), seed), pairs),
        Method::FreeRS => run(FreeRS::new((memory / WIDTH as usize).max(64), seed), pairs),
    }
}

/// `ShardedSketch::route` over every pair: seconds and the skew of the
/// busiest shard (its edge count over the mean).
fn route_pass(sketch: &AnySketch, pairs: &[(u64, u64)]) -> (f64, f64) {
    fn run<S: ConcurrentSlotStore, Q: SharedQTracker<S>>(
        s: &ShardedSketch<S, Q>,
        pairs: &[(u64, u64)],
    ) -> (f64, f64) {
        let mut counts = vec![0u64; s.shards().len()];
        let t = Instant::now();
        for &(u, i) in pairs {
            counts[s.route(u, i)] += 1;
        }
        let dt = secs(t);
        let mean = pairs.len() as f64 / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        (dt, max / mean.max(1.0))
    }
    match sketch {
        AnySketch::ShardedFreeBS(s) => run(s, pairs),
        AnySketch::ShardedFreeRS(s) => run(s, pairs),
        _ => (f64::NAN, f64::NAN),
    }
}

/// `ingest_batch` over in-memory pairs with `threads` threads per chunk
/// (the `stream_into_parallel` shape): wall seconds and the share of
/// thread-time spent waiting at the per-chunk join.
fn ingest_pass(est: &dyn ConcurrentEstimator, pairs: &[(u64, u64)], threads: usize) -> (f64, f64) {
    let t = Instant::now();
    let mut wait = 0.0;
    let mut busy = 0.0;
    for chunk in pairs.chunks(CHUNK) {
        let part_len = chunk.len().div_ceil(threads).max(1);
        let start = Instant::now();
        let ends: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = chunk
                .chunks(part_len)
                .map(|part| {
                    s.spawn(move || {
                        for slice in part.chunks(BATCH) {
                            est.ingest_batch(slice);
                        }
                        secs(start)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        let joined = secs(start);
        wait += ends.iter().map(|e| joined - e).sum::<f64>();
        busy += joined * ends.len() as f64;
    }
    (secs(t), wait / busy.max(1e-12))
}

/// The composed run with spans: the CLI's own drive (chunks from the file
/// source into the workload's estimator), then the report's ranking.
/// Returns (edges, ingest seconds excluding the report).
fn traced_run(args: &Args, spans: &mut Spans) -> Res<(u64, f64)> {
    let mut src = open(&args.trace)?;
    let mut buf: Vec<Edge> = Vec::with_capacity(CHUNK);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(CHUNK);
    let root = spans.open("run", None);
    let t = Instant::now();
    let mut total = 0u64;
    let mut ranked: Vec<(u64, f64)> = Vec::new();
    if args.threads <= 1 {
        let mut est = scalar(args.method, args.memory, args.seed);
        loop {
            let chunk = spans.open("chunk", Some(root));
            let s = spans.open("next_chunk", Some(chunk));
            let n = src.next_chunk(&mut buf, CHUNK)?;
            spans.close(s);
            if n == 0 {
                spans.close(chunk);
                break;
            }
            let s = spans.open("process_batch", Some(chunk));
            ingest_slice(est.as_mut(), &buf, &mut pairs, BATCH);
            spans.close(s);
            spans.close(chunk);
            total += n as u64;
        }
        let ingest = secs(t);
        let r = spans.open("report", Some(root));
        est.for_each_estimate(&mut |u, e| ranked.push((u, e)));
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(args.top);
        black_box(&ranked);
        spans.close(r);
        spans.close(root);
        return Ok((total, ingest));
    }
    let shards = args.threads.next_power_of_two();
    let sketch = sharded(args.method, args.memory, shards, args.seed);
    let est = concurrent(&sketch);
    loop {
        let chunk = spans.open("chunk", Some(root));
        let s = spans.open("next_chunk", Some(chunk));
        let n = src.next_chunk(&mut buf, CHUNK)?;
        spans.close(s);
        if n == 0 {
            spans.close(chunk);
            break;
        }
        pairs.clear();
        pairs.extend(buf.iter().map(|e| e.pair()));
        let part_len = n.div_ceil(args.threads).max(1);
        let t0 = spans.t0;
        let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
            let hs: Vec<_> = pairs
                .chunks(part_len)
                .map(|part| {
                    s.spawn(move || {
                        let a = t0.elapsed().as_nanos() as u64;
                        for slice in part.chunks(BATCH) {
                            est.ingest_batch(slice);
                        }
                        (a, t0.elapsed().as_nanos() as u64)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        for (a, b) in per_thread {
            spans.record("ingest_batch", a, b, chunk);
        }
        spans.close(chunk);
        total += n as u64;
    }
    let ingest = secs(t);
    let r = spans.open("report", Some(root));
    sketch.for_each_estimate(&mut |u, e| ranked.push((u, e)));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.truncate(args.top);
    black_box(&ranked);
    spans.close(r);
    spans.close(root);
    Ok((total, ingest))
}

/// The untraced composed drive through the core's own `stream_into`
/// (`stream_into_parallel` above 1 thread): (edges, seconds).
fn stream_into_pass(args: &Args) -> Res<(u64, f64)> {
    let mut src = open(&args.trace)?;
    if args.threads <= 1 {
        let mut est = scalar(args.method, args.memory, args.seed);
        let t = Instant::now();
        let n = stream_into(est.as_mut(), &mut src, CHUNK, BATCH)?;
        return Ok((n, secs(t)));
    }
    let sketch = sharded(
        args.method,
        args.memory,
        args.threads.next_power_of_two(),
        args.seed,
    );
    let t = Instant::now();
    let n = stream_into_parallel(concurrent(&sketch), &mut src, CHUNK, BATCH, args.threads)?;
    Ok((n, secs(t)))
}

/// `freesketch estimate` in process through `freesketch_cli::run`:
/// (printed edge count, seconds).
fn cli_run_pass(args: &Args) -> Res<(u64, f64)> {
    let method = match args.method {
        Method::FreeBS => "freebs",
        Method::FreeRS => "freers",
    };
    let argv = [
        "estimate".to_string(),
        args.trace.clone(),
        "--method".into(),
        method.into(),
        "--threads".into(),
        args.threads.to_string(),
        "--memory".into(),
        args.memory.to_string(),
        "--seed".into(),
        args.seed.to_string(),
        "--top".into(),
        args.top.to_string(),
    ];
    let cli = freesketch_cli::Cli::parse(&argv)?;
    let mut out = Vec::new();
    let t = Instant::now();
    freesketch_cli::run(&cli, &mut out)?;
    let dt = secs(t);
    let text = String::from_utf8_lossy(&out);
    let edges = text
        .split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
    Ok((edges, dt))
}

/// Query-side layers on the sketch `serve` would hold after ingesting
/// the whole trace.
struct QueryLayers {
    scan_ms: f64,
    merged_ms: f64,
    estimate_ns: f64,
    snapshot_ms: f64,
    snapshot_bytes: usize,
    parse_ns: f64,
    users: usize,
}

fn query_pass(args: &Args, pairs: &[(u64, u64)]) -> Res<QueryLayers> {
    let sketch = sharded(
        args.method,
        args.memory,
        args.threads.next_power_of_two(),
        args.seed,
    );
    for slice in pairs.chunks(BATCH) {
        concurrent(&sketch).ingest_batch(slice);
    }

    let t = Instant::now();
    let mut users = 0usize;
    sketch.for_each_estimate(&mut |_, _| users += 1);
    let scan_ms = secs(t) * 1e3;

    let t = Instant::now();
    let merged = match &sketch {
        AnySketch::ShardedFreeBS(s) => s.merged_estimates().len(),
        AnySketch::ShardedFreeRS(s) => s.merged_estimates().len(),
        _ => 0,
    };
    let merged_ms = secs(t) * 1e3;
    black_box(merged);

    let step = (pairs.len() / 100_000).max(1);
    let sample: Vec<u64> = pairs.iter().step_by(step).map(|p| p.0).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for &u in &sample {
        acc += sketch.estimate(u);
    }
    black_box(acc);
    let estimate_ns = secs(t) * 1e9 / sample.len().max(1) as f64;

    let mut bytes = Vec::new();
    let t = Instant::now();
    save_snapshot(&mut bytes, &sketch, pairs.len() as u64)?;
    let snapshot_ms = secs(t) * 1e3;

    let mut lines: Vec<String> = sample
        .iter()
        .take(1000)
        .map(|u| format!("ESTIMATE #{u:016x}"))
        .collect();
    lines.push("TOPK 10".into());
    lines.push("STATS".into());
    let rounds = 100;
    let t = Instant::now();
    for _ in 0..rounds {
        for l in &lines {
            black_box(freesketch_cli::protocol::parse_request(l.as_bytes()).is_ok());
        }
    }
    let parse_ns = secs(t) * 1e9 / (rounds * lines.len()) as f64;

    Ok(QueryLayers {
        scan_ms,
        merged_ms,
        estimate_ns,
        snapshot_ms,
        snapshot_bytes: bytes.len(),
        parse_ns,
        users,
    })
}

// ------------------------------------------------------------------- main

#[derive(Default)]
struct Reps {
    decode: Vec<f64>,
    slots_many: Vec<f64>,
    hash_many: Vec<f64>,
    update_many: Vec<f64>,
    packed_update_many: Vec<f64>,
    update_block: Vec<f64>,
    countermap: Vec<f64>,
    sharded_1t: Vec<f64>,
    sharded_2t: Vec<f64>,
    process_batch: Vec<f64>,
    route: Vec<f64>,
    ingest_1t: Vec<f64>,
    ingest_2t: Vec<f64>,
    join_wait: Vec<f64>,
    stream_into: Vec<f64>,
    traced: Vec<f64>,
    cli_run: Vec<f64>,
}

fn run(args: &Args) -> Res<String> {
    let start = Instant::now();
    let mut reps = Reps::default();
    let mut checks: Vec<(bool, String)> = Vec::new();
    let mut spans = Spans::new();
    let mut pairs = Vec::new();
    decode(&args.trace, Some(&mut pairs))?;
    let n = pairs.len();
    let nf = n as f64;
    let mut grown_len = 0usize;
    let mut users = 0usize;
    let mut q_final = f64::NAN;
    let mut skew = f64::NAN;
    let shards = args.threads.next_power_of_two().max(2);

    while reps.decode.is_empty() || (reps.decode.len() < MAX_REPS && secs(start) < args.seconds) {
        reps.decode.push(decode(&args.trace, None)?);
        let (p, grown) = stage_pass(&pairs, args.method, args.memory, args.seed);
        reps.slots_many.push(p.slots_many);
        reps.hash_many.push(p.hash_many);
        reps.update_many.push(p.update_many);
        reps.packed_update_many.push(p.packed_update_many);
        reps.update_block.push(p.update_block);
        let (c, s1, s2, u) = credit_pass(&grown);
        reps.countermap.push(c);
        reps.sharded_1t.push(s1);
        reps.sharded_2t.push(s2);
        grown_len = grown.len();
        users = u;
        drop(grown);

        let (dt, q) = process_batch_pass(&pairs, args.method, args.memory, args.seed);
        reps.process_batch.push(dt);
        q_final = q;

        let sketch = sharded(args.method, args.memory, shards, args.seed);
        let (dt, sk) = route_pass(&sketch, &pairs);
        reps.route.push(dt);
        skew = sk;
        let (dt, _) = ingest_pass(concurrent(&sketch), &pairs, 1);
        reps.ingest_1t.push(dt);
        let sketch = sharded(args.method, args.memory, shards, args.seed);
        let (dt, wait) = ingest_pass(concurrent(&sketch), &pairs, 2);
        reps.ingest_2t.push(dt);
        reps.join_wait.push(wait);

        let (edges, dt) = stream_into_pass(args)?;
        checks.push((
            edges == n as u64,
            format!("stream_into edges {edges} != {n}"),
        ));
        reps.stream_into.push(dt);
        spans = Spans::new();
        let (edges, dt) = traced_run(args, &mut spans)?;
        checks.push((
            edges == n as u64,
            format!("traced run edges {edges} != {n}"),
        ));
        reps.traced.push(dt);
        let (edges, dt) = cli_run_pass(args)?;
        checks.push((
            edges == n as u64,
            format!("commands::run edges {edges} != {n}"),
        ));
        reps.cli_run.push(dt);
    }
    let q = query_pass(args, &pairs)?;
    let run_id = std::path::Path::new(&args.spans)
        .file_stem()
        .map_or("layers".into(), |s| s.to_string_lossy().into_owned());
    spans.write(&args.spans, &run_id)?;

    let per_edge = |v: &[f64]| median(v) * 1e9 / nf;
    let next_chunk = per_edge(&reps.decode);
    let (hash, store) = match args.method {
        Method::FreeBS => (per_edge(&reps.slots_many), per_edge(&reps.update_many)),
        Method::FreeRS => (
            per_edge(&reps.hash_many),
            per_edge(&reps.packed_update_many),
        ),
    };
    let countermap_add_ns = median(&reps.countermap) * 1e9 / grown_len.max(1) as f64;
    let credit = median(&reps.countermap) * 1e9 / nf;
    let process_batch = per_edge(&reps.process_batch);
    let composed = per_edge(&reps.stream_into);
    let layer_sum = next_chunk + hash + store + credit;
    let run_span = spans.total("run") as f64;
    let overhead = median(&reps.traced) / median(&reps.stream_into);
    let report_gap_ms = (median(&reps.cli_run) - median(&reps.stream_into)) * 1e3;

    let metrics: Vec<(&str, f64, &str)> = vec![
        ("graphstream.next_chunk_ns_per_edge", next_chunk, "ns"),
        (
            "graphstream.next_chunk_share",
            spans.total("next_chunk") as f64 / run_span.max(1.0),
            "ratio",
        ),
        (
            "hashkit.slots_many_ns_per_edge",
            per_edge(&reps.slots_many),
            "ns",
        ),
        (
            "hashkit.hash_many_ns_per_edge",
            per_edge(&reps.hash_many),
            "ns",
        ),
        ("hashkit.countermap_add_ns", countermap_add_ns, "ns"),
        ("hashkit.countermap_adds", grown_len as f64, "count"),
        ("hashkit.countermap_users", users as f64, "count"),
        (
            "hashkit.sharded_add_ns",
            median(&reps.sharded_1t) * 1e9 / grown_len.max(1) as f64,
            "ns",
        ),
        (
            "hashkit.sharded_add_2t_ns",
            median(&reps.sharded_2t) * 1e9 / grown_len.max(1) as f64,
            "ns",
        ),
        (
            "bitpack.update_many_ns_per_edge",
            per_edge(&reps.update_many),
            "ns",
        ),
        (
            "bitpack.packed_update_many_ns_per_edge",
            per_edge(&reps.packed_update_many),
            "ns",
        ),
        (
            "bitpack.update_block_ns_per_edge",
            per_edge(&reps.update_block),
            "ns",
        ),
        ("bitpack.grow_ratio", grown_len as f64 / nf, "ratio"),
        ("core.process_batch_ns_per_edge", process_batch, "ns"),
        (
            "core.engine_glue_ns_per_edge",
            process_batch - (hash + store + credit),
            "ns",
        ),
        ("core.route_ns_per_edge", per_edge(&reps.route), "ns"),
        ("core.shard_skew", skew, "ratio"),
        (
            "core.ingest_batch_ns_per_edge",
            per_edge(&reps.ingest_1t),
            "ns",
        ),
        (
            "core.ingest_batch_2t_ns_per_edge",
            per_edge(&reps.ingest_2t),
            "ns",
        ),
        (
            "core.parallel_speedup",
            median(&reps.ingest_1t) / median(&reps.ingest_2t),
            "ratio",
        ),
        ("core.join_wait_share", median(&reps.join_wait), "ratio"),
        ("core.stream_into_ns_per_edge", composed, "ns"),
        ("core.q_final", q_final, "ratio"),
        ("core.scan_ms", q.scan_ms, "ms"),
        ("core.merged_estimates_ms", q.merged_ms, "ms"),
        ("core.estimate_ns", q.estimate_ns, "ns"),
        ("core.snapshot_save_ms", q.snapshot_ms, "ms"),
        ("core.snapshot_bytes", q.snapshot_bytes as f64, "bytes"),
        ("cli.report_gap_ms", report_gap_ms, "ms"),
        ("cli.parse_request_ns", q.parse_ns, "ns"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.layer_sum_ns_per_edge", layer_sum, "ns"),
        ("trace.layer_sum_gap", composed - layer_sum, "ns"),
    ];

    let mut report = vec![
        format!(
            "{} edges, {} repetitions, {} users in the serve sketch",
            n,
            reps.decode.len(),
            q.users
        ),
        format!(
            "sum of layers {layer_sum:.2} ns/edge (next_chunk {next_chunk:.2} + hash {hash:.2} \
             + store {store:.2} + credit {credit:.2}) vs composed stream_into {composed:.2} \
             ns/edge: gap {:.2} ns/edge",
            composed - layer_sum
        ),
        format!(
            "composed process_batch {process_batch:.2} ns/edge = hash + store + credit {:.2} \
             + engine glue {:.2}",
            hash + store + credit,
            process_batch - (hash + store + credit)
        ),
        format!(
            "tracing overhead: traced drive {:.1} ms vs untraced stream_into {:.1} ms \
             (ratio {overhead:.3})",
            median(&reps.traced) * 1e3,
            median(&reps.stream_into) * 1e3
        ),
    ];
    let mut line = String::from("self time (last traced run):");
    for (name, ns) in spans.self_times() {
        let _ = write!(line, " {name} {:.1} ms", ns as f64 / 1e6);
    }
    report.push(line);

    let mut json = String::from("{\"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}, \"report\": [");
    for (i, r) in report.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{}\"", r.replace('"', "'"));
    }
    json.push_str("], \"checks\": [");
    for (i, (ok, what)) in checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}[{ok}, \"{what}\"]");
    }
    json.push_str("]}");
    Ok(json)
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(1);
        }
    }
}
