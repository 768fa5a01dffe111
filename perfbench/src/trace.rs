//! Tracing from outside the program: spans recorded around calls into each
//! layer's public functions and traits, kept in memory and written out at
//! the end of a traced run.
//!
//! Nothing inside the workspace crates is instrumented. The solver is
//! wrapped in [`TracedSolver`], which wraps the [`SubsetProblem`] it
//! receives in a pass-through [`TracedProblem`] timing every `evaluate`.
//! Which evaluations hit the session arena, and how a miss splits into
//! `cluster`, `qef` and `pcsa` time, is then recovered by replaying the
//! recorded subsets (see [`replay`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mube_cluster::{match_sources_deferring_spans, schema_quality, AttrSimilarity, MatchStats};
use mube_core::{EvalArena, Mube, ProblemSpec};
use mube_opt::{LpProblem, SolveResult, Solver, Subset, SubsetProblem};
use mube_qef::{Aggregation, CharacteristicQef, Qef};
use mube_schema::{AttrId, SourceId, SourceSelection};

use crate::harness::{Ledger, Outcome};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.iterate` or `opt.solve`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Protocol request id, for `serve` spans.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// One `SubsetProblem::evaluate` call made by a traced solve.
#[derive(Debug, Clone)]
pub struct EvalRec {
    /// The evaluated subset's packed words.
    pub words: Vec<u64>,
    /// Time inside `evaluate`, ns.
    pub ns: u64,
}

/// One traced `Solver::solve` call and the evaluations it made.
#[derive(Debug, Clone, Default)]
pub struct SolveRec {
    /// Span index of the solve.
    pub span: usize,
    /// Evaluations in call order.
    pub evals: Vec<EvalRec>,
    /// `SolveResult::iterations`.
    pub iterations: u64,
    /// `SolveResult::evaluations`.
    pub evaluations: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    solves: Vec<SolveRec>,
}

/// In-memory span store. Spans nest through an open-span stack, so the
/// harness, the traced solver and the traced problem share one parent
/// chain; every traced call runs on the thread that drives the session.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("recorder lock poisoned by a panicking span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&self, name: &'static str, request: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        let id = inner.spans.len() - 1;
        inner.stack.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        while let Some(open) = inner.stack.pop() {
            inner.spans[open].end_ns = end_ns;
            if open == id {
                break;
            }
        }
    }

    /// Records a completed span with explicit bounds and no parent. Client
    /// threads use this: their spans nest by request id, not by the
    /// open-span stack of the thread driving in-process sessions.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: Option<u64>) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = None;
        self.lock().spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Number of traced solves recorded so far.
    pub fn solve_count(&self) -> usize {
        self.lock().solves.len()
    }

    /// Traced solve `index`, if recorded.
    pub fn solve(&self, index: usize) -> Option<SolveRec> {
        self.lock().solves.get(index).cloned()
    }

    fn push_eval(&self, solve: usize, rec: EvalRec) {
        self.lock().solves[solve].evals.push(rec);
    }

    /// Writes the spans as JSON lines (evaluation spans summarized per
    /// solve) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let inner = self.lock();
        let mut per_solve: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
        for solve in &inner.solves {
            let ns = solve.evals.iter().map(|e| e.ns).sum();
            per_solve.insert(solve.span, (solve.evals.len(), ns));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in inner.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.name, span.start_ns, span.end_ns
            )?;
            if let Some(parent) = span.parent {
                write!(out, ",\"parent\":{parent}")?;
            }
            if let Some(request) = span.request {
                write!(out, ",\"request\":{request}")?;
            }
            if let Some((evals, ns)) = per_solve.get(&id) {
                write!(out, ",\"evaluate_calls\":{evals},\"evaluate_ns\":{ns}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// A pass-through solver that records an `opt.solve` span per solve and
/// hands the inner solver a [`TracedProblem`].
pub struct TracedSolver {
    inner: Box<dyn Solver>,
    rec: Arc<Recorder>,
}

impl TracedSolver {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Solver>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Solver for TracedSolver {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        let span = self.rec.begin("opt.solve", None);
        let solve = {
            let mut inner = self.rec.lock();
            inner.solves.push(SolveRec {
                span,
                ..SolveRec::default()
            });
            inner.solves.len() - 1
        };
        let traced = TracedProblem {
            inner: problem,
            rec: &self.rec,
            solve,
        };
        let result = self.inner.solve(&traced, seed);
        self.rec.end(span);
        let mut inner = self.rec.lock();
        inner.solves[solve].iterations = result.iterations;
        inner.solves[solve].evaluations = result.evaluations;
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        let warm = self.inner.with_warm_start(items)?;
        Some(Box::new(TracedSolver::new(warm, Arc::clone(&self.rec))))
    }
}

/// A pass-through problem timing every `evaluate`; every other method
/// forwards unchanged.
struct TracedProblem<'a> {
    inner: &'a dyn SubsetProblem,
    rec: &'a Recorder,
    solve: usize,
}

impl SubsetProblem for TracedProblem<'_> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.inner.max_selected()
    }

    fn pinned(&self) -> &[usize] {
        self.inner.pinned()
    }

    fn evaluate(&self, subset: &Subset) -> f64 {
        let start = Instant::now();
        let value = self.inner.evaluate(subset);
        let ns = start.elapsed().as_nanos() as u64;
        self.rec.push_eval(
            self.solve,
            EvalRec {
                words: subset.words().to_vec(),
                ns,
            },
        );
        value
    }

    fn is_structurally_feasible(&self, subset: &Subset) -> bool {
        self.inner.is_structurally_feasible(subset)
    }

    fn component_bound(&self, decided_in: &Subset, decided_out: &Subset) -> Option<f64> {
        self.inner.component_bound(decided_in, decided_out)
    }

    fn lp_relaxation(&self, decided_in: &Subset, decided_out: &Subset) -> Option<(LpProblem, f64)> {
        self.inner.lp_relaxation(decided_in, decided_out)
    }

    fn cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

/// Counts (and samples) similarity lookups; forwards the class structure so
/// `Match(S)` takes exactly the path it takes on the bare store.
struct CountingSim<'a> {
    inner: &'a dyn AttrSimilarity,
    lookups: Cell<u64>,
    sample: RefCell<Vec<(AttrId, AttrId)>>,
}

/// Lookup pairs kept for the per-lookup timing.
const LOOKUP_SAMPLE: usize = 200_000;

impl AttrSimilarity for CountingSim<'_> {
    fn similarity(&self, a: AttrId, b: AttrId) -> f64 {
        self.lookups.set(self.lookups.get() + 1);
        let mut sample = self.sample.borrow_mut();
        if sample.len() < LOOKUP_SAMPLE {
            sample.push((a, b));
        }
        self.inner.similarity(a, b)
    }

    fn class_of(&self, attr: AttrId) -> Option<u32> {
        self.inner.class_of(attr)
    }

    fn neighbors_of_class(&self, class: u32) -> Option<&[u32]> {
        self.inner.neighbors_of_class(class)
    }
}

/// One traced iterate call: the spec it solved and its solve record.
#[derive(Debug)]
pub struct TracedIterate {
    /// Spec in force for the solve.
    pub spec: ProblemSpec,
    /// The recorded solve (absent when the spec was refused before any
    /// solve began).
    pub solve: Option<SolveRec>,
}

/// What the replay recovered for a sequence of traced solves.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Evaluations recorded.
    pub evaluations: u64,
    /// Evaluations served whole from the arena.
    pub hits: u64,
    /// Time inside those hits, ms.
    pub hit_ms: f64,
    /// Evaluations that ran `Match(S)`.
    pub match_calls: u64,
    /// Time inside evaluations that ran `Match(S)`, ms.
    pub miss_ms: f64,
    /// Evaluations that did neither (infeasible short cut), and their time.
    pub other: u64,
    /// Time of the `other` evaluations, ms.
    pub other_ms: f64,
    /// Arena reuse counters of the shadow objectives.
    pub reused: u64,
    /// Reused entries recombined under new weights.
    pub recombined: u64,
    /// Entries invalidated by spec edits.
    pub invalidated: u64,
    /// Replayed `match_sources_deferring_spans` time minus F1, ms.
    pub match_self_ms: f64,
    /// Replayed `schema_quality` time, ms.
    pub f1_ms: f64,
    /// Replayed `Qef::evaluate` time per QEF name (includes unions), ms.
    pub qef_ms: BTreeMap<String, f64>,
    /// QEF evaluations replayed.
    pub qef_evals: u64,
    /// Replayed `QefContext::union_estimate` calls and their time.
    pub unions: u64,
    /// Time of the replayed unions, ms.
    pub union_ms: f64,
    /// Replayed Match work counters.
    pub match_stats: MatchStats,
    /// Similarity lookups made by the replayed Match calls.
    pub lookups: u64,
    /// Mean time of one lookup on the bare store, ns.
    pub lookup_ns: f64,
    /// `SolveResult::evaluations` summed over the traced solves.
    pub solver_evaluations: u64,
    /// `SolveResult::iterations` summed over the traced solves.
    pub solver_iterations: u64,
}

impl Attribution {
    /// Time inside every recorded `evaluate`, ms.
    pub fn eval_ms(&self) -> f64 {
        self.hit_ms + self.miss_ms + self.other_ms
    }

    /// Adds another replay's counts and times (lookup time is averaged,
    /// weighted by lookups).
    pub fn merge(&mut self, other: &Attribution) {
        let lookups = self.lookups + other.lookups;
        if lookups > 0 {
            self.lookup_ns = (self.lookup_ns * self.lookups as f64
                + other.lookup_ns * other.lookups as f64)
                / lookups as f64;
        }
        self.lookups = lookups;
        self.evaluations += other.evaluations;
        self.hits += other.hits;
        self.hit_ms += other.hit_ms;
        self.match_calls += other.match_calls;
        self.miss_ms += other.miss_ms;
        self.other += other.other;
        self.other_ms += other.other_ms;
        self.reused += other.reused;
        self.recombined += other.recombined;
        self.invalidated += other.invalidated;
        self.match_self_ms += other.match_self_ms;
        self.f1_ms += other.f1_ms;
        for (name, ms) in &other.qef_ms {
            *self.qef_ms.entry(name.clone()).or_default() += ms;
        }
        self.qef_evals += other.qef_evals;
        self.unions += other.unions;
        self.union_ms += other.union_ms;
        self.match_stats.absorb(&other.match_stats);
        self.solver_evaluations += other.solver_evaluations;
        self.solver_iterations += other.solver_iterations;
    }
}

/// QEFs that read a PCSA union estimate (one each per evaluation).
const UNION_QEFS: [&str; 2] = ["coverage", "redundancy"];

fn subset_of(words: &[u64], n: usize) -> Subset {
    let ids = words.iter().enumerate().flat_map(|(w, &bits)| {
        (0..64)
            .filter(move |b| bits >> b & 1 == 1)
            .map(move |b| w * 64 + b)
    });
    Subset::from_indices(n, ids)
}

/// Classifies every recorded evaluation as an arena hit, a `Match` miss or
/// a short cut by replaying the solves, in order, against a shadow arena
/// that sees the same prepares and evaluations as the session's; then
/// replays every miss through `Match`, F1, the QEFs and the PCSA unions to
/// split its time.
pub fn replay(engine: &Mube, iterates: &[TracedIterate]) -> Result<Attribution, String> {
    let n = engine.universe().len();
    let shadow = Arc::new(EvalArena::new());
    let mut att = Attribution::default();
    // (spec index, subset, needs QEFs)
    let mut misses: Vec<(usize, Subset, bool)> = Vec::new();
    for (k, it) in iterates.iter().enumerate() {
        let Some(solve) = &it.solve else { continue };
        att.solver_evaluations += solve.evaluations;
        att.solver_iterations += solve.iterations;
        let objective = engine
            .objective_in(&it.spec, &shadow)
            .map_err(|e| format!("shadow objective refused a traced spec: {e}"))?;
        att.invalidated += objective.invalidated();
        for eval in &solve.evals {
            let subset = subset_of(&eval.words, n);
            let (hits, calls, reused) = (
                objective.cache_hits(),
                objective.match_calls(),
                objective.reused(),
            );
            black_box(objective.evaluate(&subset));
            let ms = eval.ns as f64 / 1e6;
            att.evaluations += 1;
            if objective.cache_hits() > hits {
                att.hits += 1;
                att.hit_ms += ms;
            } else if objective.match_calls() > calls {
                att.match_calls += 1;
                att.miss_ms += ms;
                // A stale entry (Match parts stripped by an edit) reuses its
                // components; only a fresh miss evaluates the QEFs.
                let fresh = objective.reused() == reused;
                misses.push((k, subset, fresh));
            } else {
                att.other += 1;
                att.other_ms += ms;
            }
        }
        att.reused += objective.reused();
        att.recombined += objective.recombined();
    }

    let universe = engine.universe();
    let sim = engine.similarity();
    let ctx = engine.context();
    let counting = CountingSim {
        inner: sim,
        lookups: Cell::new(0),
        sample: RefCell::new(Vec::new()),
    };
    let mut match_ms = 0.0;
    for (k, subset, fresh) in &misses {
        let spec = &iterates[*k].spec;
        let ids: Vec<SourceId> = subset.iter().map(|i| SourceId(i as u32)).collect();
        let start = Instant::now();
        let outcome = match_sources_deferring_spans(
            universe,
            &ids,
            &spec.constraints,
            &spec.match_config,
            sim,
        );
        match_ms += start.elapsed().as_secs_f64() * 1e3;
        if let Some(outcome) = &outcome {
            let start = Instant::now();
            black_box(schema_quality(&outcome.schema, sim));
            att.f1_ms += start.elapsed().as_secs_f64() * 1e3;
            att.match_stats.absorb(&outcome.stats);
        }
        black_box(match_sources_deferring_spans(
            universe,
            &ids,
            &spec.constraints,
            &spec.match_config,
            &counting,
        ));
        if !*fresh {
            continue;
        }
        let selection = SourceSelection::from_ids(n, ids.iter().copied());
        for (name, _) in spec.weights.iter() {
            if name == "matching" {
                continue;
            }
            let characteristic;
            let qef: &dyn Qef = match engine.snapshot().qefs().iter().find(|q| q.name() == name) {
                Some(q) => q.as_ref(),
                None => {
                    characteristic = CharacteristicQef::new(name, Aggregation::WeightedSum);
                    &characteristic
                }
            };
            let start = Instant::now();
            black_box(qef.evaluate(&selection, ctx));
            *att.qef_ms.entry(name.to_owned()).or_default() += start.elapsed().as_secs_f64() * 1e3;
            att.qef_evals += 1;
            if UNION_QEFS.contains(&name) {
                let start = Instant::now();
                black_box(ctx.union_estimate(&selection));
                att.union_ms += start.elapsed().as_secs_f64() * 1e3;
                att.unions += 1;
            }
        }
    }
    att.match_self_ms = (match_ms - att.f1_ms).max(0.0);
    att.lookups = counting.lookups.get();
    let sample = counting.sample.into_inner();
    if !sample.is_empty() {
        let reps = (1_000_000 / sample.len()).max(1);
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            for &(a, b) in &sample {
                acc += sim.similarity(black_box(a), black_box(b));
            }
        }
        black_box(acc);
        att.lookup_ns = start.elapsed().as_nanos() as f64 / (reps * sample.len()) as f64;
    }
    // The replay runs each layer cold and alone; when that sums to more
    // than the in-situ miss time, scale it down so the split never claims
    // more than the misses took.
    let qef_total: f64 = att.qef_ms.values().sum();
    let replayed = att.match_self_ms + att.f1_ms + qef_total;
    if replayed > att.miss_ms && replayed > 0.0 {
        let scale = att.miss_ms / replayed;
        att.match_self_ms *= scale;
        att.f1_ms *= scale;
        att.union_ms *= scale;
        for v in att.qef_ms.values_mut() {
            *v *= scale;
        }
    }
    Ok(att)
}

/// `serve` layer metrics with their units (zero where nothing is served).
pub const SERVE_LAYERS: [(&str, &str); 5] = [
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.solve_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.bytes_out", "bytes"),
];

/// QEFs with a `qef.<name>_ms` metric.
pub const QEF_NAMES: [&str; 4] = ["cardinality", "coverage", "redundancy", "mttf"];

/// The per-layer metrics from `similarity.lookups_per_match` through
/// `opt.evaluations`, per completed iteration (`per_iter` of them).
pub fn push_layers(out: &mut Outcome, att: &Attribution, times: &LayerTimes, per_iter: f64) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.layer(
        "similarity.lookups_per_match",
        ratio(att.lookups as f64, att.match_calls as f64),
        "count",
    );
    out.layer("similarity.lookup_ns", att.lookup_ns, "ns");
    out.layer("pcsa.unions", att.unions as f64 / per_iter, "count");
    out.layer("pcsa.union_ms", att.union_ms / per_iter, "ms");
    out.layer(
        "cluster.match_calls",
        att.match_calls as f64 / per_iter,
        "count",
    );
    out.layer("cluster.match_ms", att.match_self_ms / per_iter, "ms");
    out.layer("cluster.f1_ms", att.f1_ms / per_iter, "ms");
    out.layer(
        "cluster.linkage_evals",
        att.match_stats.linkage_evals as f64 / per_iter,
        "count",
    );
    out.layer(
        "cluster.lw_updates",
        att.match_stats.lw_updates as f64 / per_iter,
        "count",
    );
    out.layer(
        "cluster.stale_pop_ratio",
        ratio(
            att.match_stats.stale_pops as f64,
            att.match_stats.heap_pushes as f64,
        ),
        "ratio",
    );
    out.layer("qef.evals", att.qef_evals as f64 / per_iter, "count");
    for name in QEF_NAMES {
        let ms = att.qef_ms.get(name).copied().unwrap_or(0.0);
        out.layer(&format!("qef.{name}_ms"), ms / per_iter, "ms");
    }
    out.layer(
        "core.evaluations",
        att.evaluations as f64 / per_iter,
        "count",
    );
    out.layer("core.cache_hits", att.hits as f64 / per_iter, "count");
    out.layer(
        "core.hit_ratio",
        ratio(att.hits as f64, att.evaluations as f64),
        "ratio",
    );
    out.layer("core.reused", att.reused as f64 / per_iter, "count");
    out.layer("core.recombined", att.recombined as f64 / per_iter, "count");
    out.layer(
        "core.invalidated",
        att.invalidated as f64 / per_iter,
        "count",
    );
    out.layer(
        "core.hit_eval_us",
        ratio(att.hit_ms * 1e3, att.hits as f64),
        "us",
    );
    out.layer("core.eval_ms", att.eval_ms() / per_iter, "ms");
    out.layer(
        "core.prepare_finish_ms",
        (times.iterate_ms - times.solve_ms) / per_iter,
        "ms",
    );
    out.layer("opt.solve_ms", times.solve_ms / per_iter, "ms");
    out.layer(
        "opt.self_ms",
        (times.solve_ms - att.eval_ms()) / per_iter,
        "ms",
    );
    out.layer(
        "opt.iterations",
        att.solver_iterations as f64 / per_iter,
        "count",
    );
    out.layer(
        "opt.evaluations",
        att.solver_evaluations as f64 / per_iter,
        "count",
    );
}

/// Span totals of a traced run, ms.
pub struct LayerTimes {
    /// Edits, inspects and diffs on the session.
    pub session_ops_ms: f64,
    /// `Session::iterate` calls.
    pub iterate_ms: f64,
    /// `Solver::solve` calls.
    pub solve_ms: f64,
    /// Served runs: parse, render and residual (transport + queue), ms.
    pub serve: Option<[f64; 3]>,
}

impl LayerTimes {
    /// Splits `wall_ms` into per-layer self times; what no layer covers is
    /// the harness's own time.
    pub fn ledger(&self, att: &Attribution, wall_ms: f64) -> Ledger {
        let qef_total: f64 = att.qef_ms.values().sum();
        let miss_layers = att.match_self_ms + att.f1_ms + qef_total;
        let mut self_ms = vec![
            ("core.session_ops", self.session_ops_ms),
            ("core.prepare_finish", self.iterate_ms - self.solve_ms),
            ("core.evaluate", att.eval_ms() - miss_layers),
            ("opt.solve", self.solve_ms - att.eval_ms()),
            ("cluster.match", att.match_self_ms),
            ("cluster.f1", att.f1_ms),
            ("qef.evaluate", qef_total - att.union_ms),
            ("pcsa.union", att.union_ms),
        ];
        if let Some([parse, render, residual]) = self.serve {
            self_ms.push(("serve.parse", parse));
            self_ms.push(("serve.render", render));
            self_ms.push(("serve.residual", residual));
        }
        let covered: f64 = self_ms.iter().map(|(_, v)| v).sum();
        Ledger {
            wall_ms,
            self_ms,
            unattributed_ms: wall_ms - covered,
        }
    }
}

/// Total duration of the spans named `name`, ms.
pub fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Checks the traced problem saw exactly the evaluations the solvers
/// counted, so the trace measured the whole search.
pub fn check_evaluations(out: &mut Outcome, att: &Attribution) {
    out.check(att.evaluations == att.solver_evaluations, || {
        format!(
            "traced problem saw {} evaluations, solvers counted {}",
            att.evaluations, att.solver_evaluations
        )
    });
}
