//! The reproduction harness behind the `repro` binary.
//!
//! [`rows`] is a fixed table: one [`Row`] per paper result or ablation.
//! [`run`] measures every row the same way. It generates each stream, feeds
//! it edge by edge (`process`) to every estimator of the roster, and at each
//! checkpoint records, per estimator:
//!
//! * the `RseBins::new(2)` series: users, RSE and mean estimate per bin,
//!   plus the Theorem 1/2 RSE `sqrt(bound)/n` for FreeBS and FreeRS, with
//!   the bound taken at the checkpoint's count of distinct pairs, and the
//!   series' users-weighted mean RSE;
//! * FNR and FPR against the exact spreader set, when the row sets Δ;
//! * for FreeRS, the `Z` drift that `z_drift` reads: the incremental
//!   `Z` against the exact register sum, over the whole stream so far.
//!
//! [`write_repro`] renders the results as one JSON document with one
//! record per line; `repro` prints it, and the repository checks it in as
//! `REPRO.json`.

#![forbid(unsafe_code)]

use freesketch::{
    detect_spreaders, theory, CardinalityEstimator, Cse, FreeBS, FreeRS, JointLpc, PerUserHllpp,
    PerUserLpc, VHll,
};
use graphstream::{DatasetProfile, Edge, GroundTruth, PROFILES};
use metrics::{ccdf, CcdfPoint, DetectionOutcome, RseBin, RseBins};
use std::fmt::Display;
use std::io::{self, Write};
use std::time::Instant;

/// The relative spreader threshold Δ of §V-F (Fig. 6, Table II).
const DELTA: f64 = 5e-5;

/// The stream a row feeds its estimators.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// A Table I profile at its default scale, with the shared budget
    /// `M = profile.scaled_memory_bits(scale)`.
    Profile(&'static DatasetProfile),
    /// One user (id 1) with `items` distinct items, each seen once, against
    /// a shared budget of `memory_bits`.
    OneUser {
        /// Distinct items of the user.
        items: u64,
        /// The shared budget `M`.
        memory_bits: usize,
    },
}

/// An estimator and its parameters, built from a budget of `M` bits under
/// §V-B's equal-memory rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// FreeBS over `M` bits.
    FreeBS,
    /// FreeRS over `M / width` registers of `width` bits.
    FreeRS {
        /// Register width `w`.
        width: u8,
    },
    /// CSE over `M` bits, `m` bits per virtual sketch.
    Cse {
        /// Virtual-sketch size.
        m: usize,
    },
    /// vHLL over `M / 5` five-bit registers, `m` per virtual sketch.
    VHll {
        /// Virtual-sketch size.
        m: usize,
    },
    /// Per-user LPC with `M / users` bits each (at least 8).
    Lpc,
    /// Per-user HLL++ with `M / (6·users)` six-bit registers each, rounded
    /// down to a power of two (precision 4 to 14).
    Hllpp,
    /// JointLPC over `M` bits in rows of `m`, `k` rows per user.
    JointLpc {
        /// Row size.
        m: usize,
        /// Rows per user.
        k: usize,
    },
}

/// One roster entry: a method given `M / memory_div` bits.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The estimator.
    pub method: Method,
    /// Divisor of the stream's budget `M`.
    pub memory_div: usize,
}

/// One row of the reproduction table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable identifier, quoted by the README.
    pub id: String,
    /// The streams, each measured on its own.
    pub streams: Vec<Stream>,
    /// The estimators every stream is fed to.
    pub roster: Vec<Entry>,
    /// Hash seed of every estimator.
    pub seed: u64,
    /// Checkpoints as ascending fractions of the stream.
    pub checkpoints: Vec<f64>,
    /// The spreader threshold Δ, if the row detects spreaders.
    pub delta: Option<f64>,
}

/// The reproduction table, in the order `repro` runs it.
#[must_use]
pub fn rows() -> Vec<Row> {
    use Method::{Cse, FreeBS, FreeRS, Hllpp, JointLpc, Lpc, VHll};
    const FREERS: Method = FreeRS { width: 5 };
    let [_, chicago, _, flickr, orkut, livejournal] = &PROFILES;
    let sizes = [64, 256, 1024, 4096];

    let mut rows = vec![Row {
        id: "datasets".into(),
        streams: PROFILES.iter().map(Stream::Profile).collect(),
        roster: Vec::new(),
        seed: 0,
        checkpoints: Vec::new(),
        delta: None,
    }];
    for p in &PROFILES {
        // Fig. 6 follows sanjose over 20 time slices.
        let slices = if p.name == "sanjose" { 20 } else { 1 };
        let six = [
            FreeBS,
            FREERS,
            Cse { m: 1024 },
            VHll { m: 1024 },
            Lpc,
            Hllpp,
        ];
        rows.push(Row {
            checkpoints: (1..=slices)
                .map(|k| f64::from(k) / f64::from(slices))
                .collect(),
            delta: Some(DELTA),
            ..row(&format!("profile/{}", p.name), Stream::Profile(p), &six, 11)
        });
    }
    let a1: Vec<Method> = [FreeBS, FREERS]
        .into_iter()
        .chain(sizes.map(|m| Cse { m }))
        .chain(sizes.map(|m| VHll { m }))
        .collect();
    let a2: Vec<Method> = [FreeBS]
        .into_iter()
        .chain([4, 5, 6, 8].map(|width| FreeRS { width }))
        .collect();
    let a3 = [4, 2, 1]
        .into_iter()
        .flat_map(|memory_div| {
            [FreeBS, FREERS, Cse { m: 1024 }, VHll { m: 1024 }, Hllpp]
                .map(|method| Entry { method, memory_div })
        })
        .collect();
    let one_user = Stream::OneUser {
        items: 51_200,
        memory_bits: 1 << 16,
    };
    let lineage = [
        JointLpc { m: 4096, k: 2 },
        JointLpc { m: 4096, k: 3 },
        Cse { m: 1024 },
        FreeBS,
    ];
    rows.extend([
        row("a1-m", Stream::Profile(flickr), &a1, 3),
        row("a2-width", Stream::Profile(orkut), &a2, 5),
        Row {
            roster: a3,
            ..row("a3-memory", Stream::Profile(chicago), &[], 19)
        },
        Row {
            // 100·2^k items for k = 0..=9.
            checkpoints: (0..10).map(|k| f64::from(100 << k) / 51_200.0).collect(),
            ..row("a4-range", one_user, &[FreeBS, FREERS, Cse { m: 256 }], 1)
        },
        row("lineage", Stream::Profile(livejournal), &lineage, 9),
    ]);
    rows
}

/// A row over one stream, every method at the full budget, with one
/// checkpoint at the end and no Δ.
fn row(id: &str, stream: Stream, methods: &[Method], seed: u64) -> Row {
    Row {
        id: id.to_string(),
        streams: vec![stream],
        roster: methods
            .iter()
            .map(|&method| Entry {
                method,
                memory_div: 1,
            })
            .collect(),
        seed,
        checkpoints: vec![1.0],
        delta: None,
    }
}

impl Method {
    /// The estimator's name, as its `CardinalityEstimator::name` gives it.
    fn name(self) -> &'static str {
        match self {
            Self::FreeBS => "FreeBS",
            Self::FreeRS { .. } => "FreeRS",
            Self::Cse { .. } => "CSE",
            Self::VHll { .. } => "vHLL",
            Self::Lpc => "LPC",
            Self::Hllpp => "HLL++",
            Self::JointLpc { .. } => "JointLPC",
        }
    }

    fn build(self, m_bits: usize, users: usize, seed: u64) -> Sketch {
        let boxed: Box<dyn CardinalityEstimator> = match self {
            Self::FreeRS { width } => {
                let regs = m_bits / usize::from(width);
                return Sketch::FreeRS(FreeRS::with_width(regs, width, seed));
            }
            Self::FreeBS => Box::new(FreeBS::new(m_bits, seed)),
            Self::Cse { m } => Box::new(Cse::new(m_bits, m, seed)),
            Self::VHll { m } => Box::new(VHll::new(m_bits / 5, m, seed)),
            Self::Lpc => Box::new(PerUserLpc::new((m_bits / users).max(8), seed)),
            Self::Hllpp => {
                let regs = (m_bits / (6 * users)).max(16);
                Box::new(PerUserHllpp::new(regs.ilog2().clamp(4, 14) as u8, seed))
            }
            Self::JointLpc { m, k } => Box::new(JointLpc::new(m_bits, m, k, seed)),
        };
        Sketch::Other(boxed)
    }

    /// Theorem 1/2's variance bound for a user of cardinality `n_s` after
    /// `n` distinct pairs, for the two methods that have one.
    fn variance_bound(self, n_s: f64, n: f64, m_bits: usize) -> Option<f64> {
        match self {
            Self::FreeBS => Some(theory::freebs_variance_bound(n_s, n, m_bits as f64)),
            Self::FreeRS { width } => {
                let regs = (m_bits / usize::from(width)) as f64;
                Some(theory::freers_variance_bound(n_s, n, regs))
            }
            _ => None,
        }
    }

    /// The estimation range of §IV-C, for the methods `core::theory` gives
    /// one for.
    fn range(self, m_bits: usize) -> Option<f64> {
        match self {
            Self::FreeBS => Some(theory::freebs_range(m_bits as f64)),
            Self::Cse { m } => Some(theory::cse_range(m as f64)),
            _ => None,
        }
    }
}

/// A built estimator. FreeRS stays concrete so its `Z` drift can be read.
enum Sketch {
    FreeRS(FreeRS),
    Other(Box<dyn CardinalityEstimator>),
}

impl Sketch {
    fn get(&self) -> &dyn CardinalityEstimator {
        match self {
            Self::FreeRS(f) => f,
            Self::Other(b) => b.as_ref(),
        }
    }

    fn process(&mut self, edges: &[Edge]) {
        let est: &mut dyn CardinalityEstimator = match self {
            Self::FreeRS(f) => f,
            Self::Other(b) => b.as_mut(),
        };
        for e in edges {
            est.process(e.user, e.item);
        }
    }

    fn z_drift(&self) -> Option<f64> {
        match self {
            Self::FreeRS(f) => Some(f.z_drift()),
            Self::Other(_) => None,
        }
    }
}

/// What a stream is, measured once over all of it (Table I, Fig. 2).
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// The profile name, or `one-user`.
    pub name: &'static str,
    /// The profile's scale divisor; `None` for the one-user stream.
    pub scale: Option<u64>,
    /// The shared budget `M` the roster divides.
    pub memory_bits: usize,
    /// Stream length, duplicates included.
    pub edges: usize,
    /// Distinct users.
    pub users: usize,
    /// The largest user cardinality.
    pub max_cardinality: u64,
    /// Distinct user–item pairs.
    pub total_cardinality: u64,
    /// Table I's users, max and total cardinality, divided by the scale.
    pub paper: Option<[u64; 3]>,
    /// The CCDF of user cardinalities at about four points per decade,
    /// ending at the largest cardinality.
    pub ccdf: Vec<CcdfPoint>,
}

/// One estimator's record at one checkpoint.
#[derive(Debug, Clone)]
pub struct EstimateResult {
    /// The roster entry measured.
    pub method: Method,
    /// The budget it was given.
    pub memory_bits: usize,
    /// `RseBins::mean_rse`: the users-weighted mean of the bins' RSE.
    pub mean_rse: f64,
    /// `RseBins::new(2)`'s series, each bin with its Theorem 1/2 RSE.
    pub bins: Vec<(RseBin, Option<f64>)>,
    /// Detected users, FNR and FPR, when the row sets Δ.
    pub detection: Option<(usize, f64, f64)>,
    /// FreeRS's absolute `Z` drift, accumulated since the stream began.
    pub z_drift: Option<f64>,
}

/// The truth and every estimator's record at one checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The checkpoint as a fraction of the stream.
    pub at: f64,
    /// Edges fed so far.
    pub edges: usize,
    /// Distinct users so far.
    pub users: usize,
    /// Distinct pairs so far.
    pub distinct: u64,
    /// Exact spreaders at `Δ·distinct`, when the row sets Δ.
    pub spreaders: Option<usize>,
    /// One record per roster entry, in roster order.
    pub estimates: Vec<EstimateResult>,
}

/// One stream of a row, measured.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The stream over all of its edges.
    pub summary: StreamSummary,
    /// One record per checkpoint of the row.
    pub checkpoints: Vec<Checkpoint>,
}

/// A generated stream with what its roster needs.
struct Input {
    edges: Vec<Edge>,
    /// The configured user count the per-user baselines divide `M` by.
    users: usize,
    summary: StreamSummary,
}

impl Stream {
    fn generate(self, scale_div: u64) -> Input {
        let (name, scale, memory_bits, users, edges, paper) = match self {
            Self::Profile(p) => {
                let scale = p.default_scale * scale_div;
                let stream = p.scaled(scale).generate();
                let paper = [p.users, p.max_cardinality, p.total_cardinality].map(|x| x / scale);
                let m_bits = p.scaled_memory_bits(scale);
                let users = stream.config().users;
                (
                    p.name,
                    Some(scale),
                    m_bits,
                    users,
                    stream.edges().to_vec(),
                    Some(paper),
                )
            }
            Self::OneUser { items, memory_bits } => {
                let edges = (0..items).map(|d| Edge::new(1, d)).collect();
                ("one-user", None, memory_bits, 1, edges, None)
            }
        };
        let mut truth = GroundTruth::new();
        for &e in &edges {
            truth.observe(e);
        }
        let cards: Vec<u64> = truth.iter().map(|(_, n)| n).collect();
        let summary = StreamSummary {
            name,
            scale,
            memory_bits,
            edges: edges.len(),
            users: truth.user_count(),
            max_cardinality: truth.max_cardinality(),
            total_cardinality: truth.total_cardinality(),
            paper,
            ccdf: quarter_decades(&ccdf(&cards)),
        };
        Input {
            edges,
            users,
            summary,
        }
    }

    /// The stream's definition at scale divisor 1, as JSON.
    fn describe(self) -> String {
        match self {
            Self::Profile(p) => Obj::new()
                .str("profile", p.name)
                .field("scale", p.default_scale)
                .field("memory_bits", p.scaled_memory_bits(p.default_scale))
                .end(),
            Self::OneUser { items, memory_bits } => Obj::new()
                .field("one_user_items", items)
                .field("memory_bits", memory_bits)
                .end(),
        }
    }
}

/// Keeps the first point, then each point at least a quarter decade past
/// the last one kept, and the tail point.
fn quarter_decades(curve: &[CcdfPoint]) -> Vec<CcdfPoint> {
    let mut kept: Vec<CcdfPoint> = Vec::new();
    let mut next = 1.0f64;
    for &pt in curve {
        if pt.value as f64 >= next {
            kept.push(pt);
            next = pt.value as f64 * 10f64.powf(0.25);
        }
    }
    if let Some(&last) = curve.last() {
        if kept.last() != Some(&last) {
            kept.push(last);
        }
    }
    kept
}

/// Measures every stream of `row`. Profiles run at `scale_div` times their
/// default scale; the one-user stream is the same at every divisor.
///
/// # Panics
/// Panics if `scale_div == 0` or a roster entry's geometry does not fit
/// its budget.
#[must_use]
pub fn run(row: &Row, scale_div: u64) -> Vec<StreamResult> {
    row.streams
        .iter()
        .map(|&stream| run_stream(row, stream.generate(scale_div)))
        .collect()
}

fn run_stream(row: &Row, input: Input) -> StreamResult {
    let m_bits = input.summary.memory_bits;
    let budgets: Vec<usize> = row.roster.iter().map(|e| m_bits / e.memory_div).collect();
    let mut sketches: Vec<Sketch> = row
        .roster
        .iter()
        .zip(&budgets)
        .map(|(e, &bits)| e.method.build(bits, input.users, row.seed))
        .collect();
    let mut truth = GroundTruth::new();
    let mut done = 0;
    let mut checkpoints = Vec::with_capacity(row.checkpoints.len());
    for &at in &row.checkpoints {
        let end = (input.edges.len() as f64 * at).round() as usize;
        let segment = &input.edges[done..end];
        done = end;
        for &e in segment {
            truth.observe(e);
        }
        let n = truth.total_cardinality();
        let spreaders = row
            .delta
            .map(|delta| truth.spreaders(((delta * n as f64).ceil() as u64).max(1)));
        let estimates = row
            .roster
            .iter()
            .zip(&mut sketches)
            .zip(&budgets)
            .map(|((entry, sketch), &bits)| {
                sketch.process(segment);
                let est = sketch.get();
                let mut bins = RseBins::new(2);
                for (user, actual) in truth.iter() {
                    bins.record(actual, est.estimate(user));
                }
                let theorem_rse = |b: &RseBin| {
                    let bound = entry.method.variance_bound(b.cardinality, n as f64, bits)?;
                    Some(bound.sqrt() / b.cardinality)
                };
                let detection = row.delta.zip(spreaders.as_ref()).map(|(delta, actual)| {
                    let report = detect_spreaders(est, delta);
                    let users = truth.user_count() as u64;
                    let outcome = DetectionOutcome::compare(actual, &report.detected, users);
                    (report.detected.len(), outcome.fnr(), outcome.fpr())
                });
                EstimateResult {
                    method: entry.method,
                    memory_bits: bits,
                    mean_rse: bins.mean_rse(),
                    bins: bins
                        .series()
                        .into_iter()
                        .map(|b| (b, theorem_rse(&b)))
                        .collect(),
                    detection,
                    z_drift: sketch.z_drift(),
                }
            })
            .collect();
        checkpoints.push(Checkpoint {
            at,
            edges: end,
            users: truth.user_count(),
            distinct: n,
            spreaders: spreaders.map(|s| s.len()),
            estimates,
        });
    }
    StreamResult {
        summary: input.summary,
        checkpoints,
    }
}

/// The row's definition as a JSON record: its id, streams, seed,
/// checkpoints, Δ and roster. It does not depend on the scale divisor.
#[must_use]
pub fn header(row: &Row) -> String {
    let streams: Vec<String> = row.streams.iter().map(|s| s.describe()).collect();
    let roster: Vec<String> = row
        .roster
        .iter()
        .map(|e| {
            method_fields(Obj::new(), e.method)
                .field("memory_div", e.memory_div)
                .end()
        })
        .collect();
    let checkpoints: Vec<String> = row.checkpoints.iter().map(|&x| num(x)).collect();
    Obj::new()
        .str("kind", "row")
        .str("row", &row.id)
        .field("streams", list(&streams))
        .field("seed", row.seed)
        .field("checkpoints", list(&checkpoints))
        .field("delta", row.delta.map_or_else(|| "null".into(), num))
        .field("roster", list(&roster))
        .end()
}

/// The JSON records of one measured row: its header, then per stream a
/// summary record, and per checkpoint a truth record followed by one
/// record per estimator.
fn records(row: &Row, results: &[StreamResult]) -> Vec<String> {
    let mut out = vec![header(row)];
    for r in results {
        let s = &r.summary;
        let tag = |kind: &str| {
            Obj::new()
                .str("kind", kind)
                .str("row", &row.id)
                .str("stream", s.name)
        };
        let mut summary = tag("stream");
        if let Some(scale) = s.scale {
            summary = summary.field("scale", scale);
        }
        summary = summary
            .field("memory_bits", s.memory_bits)
            .field("edges", s.edges)
            .field("users", s.users)
            .field("max_cardinality", s.max_cardinality)
            .field("total_cardinality", s.total_cardinality);
        if let Some([users, max, total]) = s.paper {
            summary = summary
                .field("paper_users", users)
                .field("paper_max_cardinality", max)
                .field("paper_total_cardinality", total);
        }
        let ccdf: Vec<String> = s
            .ccdf
            .iter()
            .map(|p| format!("[{}, {}]", p.value, num(p.fraction)))
            .collect();
        out.push(summary.field("ccdf", list(&ccdf)).end());
        for c in &r.checkpoints {
            let at = |kind| tag(kind).field("at", num(c.at));
            let mut truth = at("checkpoint")
                .field("edges", c.edges)
                .field("users", c.users)
                .field("distinct", c.distinct);
            if let Some(spreaders) = c.spreaders {
                truth = truth.field("spreaders", spreaders);
            }
            out.push(truth.end());
            for e in &c.estimates {
                out.push(estimate_record(at("estimate"), e));
            }
        }
    }
    out
}

fn estimate_record(obj: Obj, e: &EstimateResult) -> String {
    let mut obj = method_fields(obj, e.method)
        .field("memory_bits", e.memory_bits)
        .field("mean_rse", num(e.mean_rse));
    if let Some(range) = e.method.range(e.memory_bits) {
        obj = obj.field("range", num(range));
    }
    if let Some((detected, fnr, fpr)) = e.detection {
        obj = obj
            .field("detected", detected)
            .field("fnr", num(fnr))
            .field("fpr", num(fpr));
    }
    if let Some(drift) = e.z_drift {
        obj = obj.field("z_drift", num(drift));
    }
    let bins: Vec<String> = e
        .bins
        .iter()
        .map(|(b, theorem)| {
            let bin = Obj::new()
                .field("n", num(b.cardinality))
                .field("users", b.count)
                .field("rse", num(b.rse))
                .field("mean", num(b.mean_estimate));
            match theorem {
                Some(t) => bin.field("theorem_rse", num(*t)),
                None => bin,
            }
            .end()
        })
        .collect();
    obj.field("bins", list(&bins)).end()
}

fn method_fields(obj: Obj, method: Method) -> Obj {
    let obj = obj.str("method", method.name());
    match method {
        Method::FreeRS { width } => obj.field("width", width),
        Method::Cse { m } | Method::VHll { m } => obj.field("m", m),
        Method::JointLpc { m, k } => obj.field("m", m).field("k", k),
        Method::FreeBS | Method::Lpc | Method::Hllpp => obj,
    }
}

/// Runs `rows` at `scale_div` and writes one JSON document, one record
/// per line, flushing after each row. Each row's wall time goes to stderr.
///
/// # Errors
/// Returns the first write error.
pub fn write_repro(rows: &[Row], scale_div: u64, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{{\"records\": [")?;
    let mut sep = "";
    for row in rows {
        let start = Instant::now();
        for record in records(row, &run(row, scale_div)) {
            write!(out, "{sep}{record}")?;
            sep = ",\n";
        }
        out.flush()?;
        eprintln!("{}: {:.1} s", row.id, start.elapsed().as_secs_f64());
    }
    writeln!(out, "\n]}}")
}

/// A JSON number with six significant digits, or `null` if not finite.
fn num(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    // Round through scientific notation, then print the shortest decimal
    // that reads back as the rounded value; the fallback cannot happen.
    let rounded: f64 = format!("{x:.5e}").parse().unwrap_or(x);
    format!("{rounded}")
}

fn list(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// A one-line JSON object, built field by field. Keys and string values
/// are identifiers written here, so nothing needs escaping.
struct Obj(String);

impl Obj {
    fn new() -> Self {
        Self("{".into())
    }

    fn field(mut self, key: &str, value: impl Display) -> Self {
        let sep = if self.0.len() > 1 { ", " } else { "" };
        self.0 += &format!("{sep}\"{key}\": {value}");
        self
    }

    fn str(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }

    fn end(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_keeps_six_significant_digits() {
        assert_eq!(num(0.012_345_678), "0.0123457");
        assert_eq!(num(1.0), "1");
        assert_eq!(num(5e-5), "0.00005");
        assert_eq!(num(204_312_345.6), "204312000");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn quarter_decades_keep_the_tail_once() {
        let curve = ccdf(&[1, 1, 2, 3, 10, 11, 100]);
        let values: Vec<u64> = quarter_decades(&curve).iter().map(|p| p.value).collect();
        assert_eq!(values, [1, 2, 10, 100]);
    }

    /// Every roster entry builds the estimator it names, and a shared
    /// array uses between half and all of its budget (§V-B).
    #[test]
    fn roster_builds_the_named_estimators_within_budget() {
        let m_bits = 1 << 16;
        for row in rows() {
            for e in &row.roster {
                let sketch = e.method.build(m_bits, 100, row.seed);
                let est = sketch.get();
                assert_eq!(est.name(), e.method.name(), "row {}", row.id);
                if !matches!(e.method, Method::Lpc | Method::Hllpp) {
                    let bits = est.memory_bits();
                    assert!(
                        bits <= m_bits && bits >= m_bits / 2,
                        "{}: {bits}",
                        est.name()
                    );
                }
            }
        }
    }
}
