//! Pieces every workload shares: the run configuration, the result shape,
//! operation and check accounting, the cancel trigger, and the scripted
//! session driver.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mube_core::{CancelToken, Mube, MubeError, ProblemSpec, Session, Solution};
use mube_opt::{LpProblem, SolveResult, Solver, Subset, SubsetProblem};
use mube_schema::SourceId;

use crate::script::{self, Step, ITERATIONS, PROBE_THETAS, SCRIPT};
use crate::trace::{Recorder, TracedIterate};

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub smoke: bool,
    /// Flip one quality bit in every replay comparison (self-test only).
    pub inject_fault: bool,
    /// Where the traced run writes its spans.
    pub trace_path: Option<std::path::PathBuf>,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Self times of the traced run, which add up to its wall time.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the traced phase, ms.
    pub wall_ms: f64,
    /// Self time per layer, ms.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Wall time no layer covers (harness), ms.
    pub unattributed_ms: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// End-to-end metrics (always measured untraced).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The traced run's self-time ledger.
    pub ledger: Option<Ledger>,
    /// Free-form facts for the human-readable report.
    pub notes: Vec<(String, String)>,
    /// First few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Appends an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Appends a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Appends a report note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Counts one successful operation or check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Counts one check.
    pub fn check(&mut self, passed: bool, message: impl FnOnce() -> String) {
        if passed {
            self.ok();
        } else {
            self.fail(message());
        }
    }

    /// Folds a session's operation counts in.
    pub fn absorb(&mut self, run: &SessionRun) {
        self.absorb_counts(run.attempted, &run.errors);
    }

    /// Folds in `attempted` operations of which `errors` failed.
    pub fn absorb_counts(&mut self, attempted: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += errors.len() as u64;
        for e in errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// What a completed iteration must reproduce: selection, exact quality
/// bits, and the mediated schema.
pub type Fingerprint = (Vec<SourceId>, u64, String);

/// The fingerprint of a solution.
pub fn fingerprint(solution: &Solution) -> Fingerprint {
    (
        solution.selected.clone(),
        solution.overall_quality.to_bits(),
        solution.schema.to_string(),
    )
}

/// Compares a replay against the reference, one check per iteration. With
/// `inject_fault` the replay's first quality bit is flipped first, so the
/// self-test can see a wrong answer counted.
pub fn compare_replay(
    out: &mut Outcome,
    what: &str,
    reference: &[Fingerprint],
    replay: &[Fingerprint],
    inject_fault: bool,
) {
    out.check(reference.len() == replay.len(), || {
        format!(
            "{what}: {} iterations, reference has {}",
            replay.len(),
            reference.len()
        )
    });
    for (i, (want, got)) in reference.iter().zip(replay).enumerate() {
        let mut got = got.clone();
        if inject_fault && i == 0 {
            got.1 ^= 1;
        }
        out.check(*want == got, || {
            format!("{what}: iteration {} differs from the reference", i + 1)
        });
    }
}

/// Fires a session's cancel token from inside the search, right after a
/// set number of evaluations of an armed solve: the benchmark's user
/// pressing cancel at a fixed point of the search, so the latency that
/// follows (the rest of the solver's step, then result assembly) is the
/// same work on every run instead of depending on where a timer lands.
pub struct Trigger {
    token: CancelToken,
    /// Evaluation that fires the cancel; 0 while disarmed.
    after: AtomicU64,
    seen: AtomicU64,
    fired: Mutex<Option<Instant>>,
}

impl Trigger {
    fn new(token: CancelToken) -> Arc<Self> {
        Arc::new(Self {
            token,
            after: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            fired: Mutex::new(None),
        })
    }

    fn fired(&self) -> std::sync::MutexGuard<'_, Option<Instant>> {
        self.fired
            .lock()
            .expect("trigger lock poisoned by a panicking solve")
    }

    /// Arms the trigger for the next solve.
    fn arm(&self, after: u64) {
        self.seen.store(0, Ordering::Relaxed);
        *self.fired() = None;
        self.after.store(after, Ordering::Relaxed);
    }

    /// Disarms it; returns when it fired, if it did.
    fn disarm(&self) -> Option<Instant> {
        self.after.store(0, Ordering::Relaxed);
        self.fired().take()
    }
}

/// Evaluations between the cancel points of successive probes.
const PROBE_STAGGER: u64 = 5;

/// Pass-through solver handing its inner solver a [`TriggerProblem`].
struct TriggerSolver {
    inner: Box<dyn Solver>,
    trigger: Arc<Trigger>,
}

impl Solver for TriggerSolver {
    fn solve(&self, problem: &dyn SubsetProblem, seed: u64) -> SolveResult {
        let problem = TriggerProblem {
            inner: problem,
            trigger: &self.trigger,
        };
        self.inner.solve(&problem, seed)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn with_warm_start(&self, items: &[usize]) -> Option<Box<dyn Solver>> {
        Some(Box::new(TriggerSolver {
            inner: self.inner.with_warm_start(items)?,
            trigger: Arc::clone(&self.trigger),
        }))
    }
}

/// Pass-through problem: every method forwards unchanged; `evaluate`
/// also counts, and fires the armed trigger. Disarmed, it costs one
/// relaxed load per evaluation.
struct TriggerProblem<'a> {
    inner: &'a dyn SubsetProblem,
    trigger: &'a Trigger,
}

impl SubsetProblem for TriggerProblem<'_> {
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
        let value = self.inner.evaluate(subset);
        let after = self.trigger.after.load(Ordering::Relaxed);
        if after > 0 && self.trigger.seen.fetch_add(1, Ordering::Relaxed) + 1 == after {
            self.trigger.token.cancel();
            *self.trigger.fired() = Some(Instant::now());
        }
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

/// One completed scripted iteration.
#[derive(Debug, Clone)]
pub struct Iter {
    /// `None` for the cold first solve; otherwise whether the preceding
    /// edit was weights-only.
    pub reweigh: Option<bool>,
    /// `Session::iterate` latency, ms.
    pub ms: f64,
    /// Spec in force for the solve.
    pub spec: ProblemSpec,
    /// The solution.
    pub solution: Solution,
}

/// One scripted session's record.
#[derive(Debug, Default)]
pub struct SessionRun {
    /// Completed scripted iterations, in order.
    pub iters: Vec<Iter>,
    /// Latency of each non-solve operation (edit, inspect, diff), ms.
    pub req_ms: Vec<f64>,
    /// Cancel-to-return latency of each probe the cancel interrupted, ms,
    /// with the probe's index.
    pub cancel_ms: Vec<(usize, f64)>,
    /// Probes that completed before their cancel fired.
    pub cancel_missed: u64,
    /// Incumbents of interrupted probes, for the audit.
    pub cancelled: Vec<(ProblemSpec, Solution)>,
    /// Session wall time, ms.
    pub wall_ms: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations.
    pub errors: Vec<String>,
    /// Traced iterate calls (traced sessions only).
    pub traced: Vec<TracedIterate>,
}

impl SessionRun {
    /// Fingerprints of the completed scripted iterations.
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        self.iters
            .iter()
            .map(|it| fingerprint(&it.solution))
            .collect()
    }
}

/// How to drive one scripted session.
#[derive(Clone)]
pub struct Plan<'a> {
    /// Engine the session runs on.
    pub engine: &'a Mube,
    /// Spec of the first iteration.
    pub spec: ProblemSpec,
    /// Session seed.
    pub seed: u64,
    /// Base importances the weight nudges perturb.
    pub weights: &'a [(&'a str, f64)],
    /// Evaluations into the first cancel probe's solve at which its cancel
    /// fires (later probes stagger from it); `None` skips the probes.
    pub probes: Option<u64>,
    /// Span recorder, for traced sessions.
    pub rec: Option<&'a Arc<Recorder>>,
}

/// Runs `Session::iterate` under an optional `core.iterate` span and, when
/// traced, notes the spec and solve for the replay.
fn traced_iterate(
    session: &mut Session,
    rec: Option<&Arc<Recorder>>,
    traced: &mut Vec<(ProblemSpec, Option<usize>)>,
) -> (Result<Solution, MubeError>, f64) {
    let before = rec.map(|r| (r.solve_count(), session.spec().clone()));
    let span = rec.map(|r| r.begin("core.iterate", None));
    let start = Instant::now();
    let result = session.iterate().cloned();
    let ms = ms_since(start);
    if let (Some(r), Some(span), Some((count, spec))) = (rec, span, before) {
        r.end(span);
        // A spec refused before the search leaves no solve behind.
        traced.push((spec, (r.solve_count() > count).then_some(count)));
    }
    (result, ms)
}

/// Times one non-solve operation into `req_ms` (and a span when traced).
fn timed_req<T>(
    run: &mut SessionRun,
    rec: Option<&Arc<Recorder>>,
    name: &'static str,
    op: impl FnOnce() -> T,
) -> T {
    let span = rec.map(|r| r.begin(name, None));
    let start = Instant::now();
    let value = black_box(op());
    run.req_ms.push(ms_since(start));
    if let (Some(r), Some(span)) = (rec, span) {
        r.end(span);
    }
    run.attempted += 1;
    value
}

/// Drives one scripted session: the cold solve; for each [`SCRIPT`] step
/// an edit, a solve, an inspect and a diff; then the cancel probes. Stops
/// at the first failed operation.
pub fn run_session(plan: Plan<'_>, solver: Box<dyn Solver>) -> SessionRun {
    let rec = plan.rec;
    let started = Instant::now();
    let session_span = rec.map(|r| r.begin("core.session", None));
    let mut run = SessionRun::default();
    let mut traced: Vec<(ProblemSpec, Option<usize>)> = Vec::new();
    let session = Session::new(plan.engine, plan.spec).with_seed(plan.seed);
    let trigger = Trigger::new(session.cancel_handle());
    let solver: Box<dyn Solver> = match plan.probes {
        Some(_) => Box::new(TriggerSolver {
            inner: solver,
            trigger: Arc::clone(&trigger),
        }),
        None => solver,
    };
    let mut session = session.with_solver(solver);

    let steps = std::iter::once(None).chain(SCRIPT.iter().copied().map(Some));
    for step in steps {
        if let Some(step) = step {
            let applied = timed_req(&mut run, rec, "core.edit", || {
                script::apply(&mut session, step, plan.weights)
            });
            if let Err(e) = applied {
                run.errors.push(format!("edit {step:?} refused: {e}"));
                return finish_session(run, started, session_span, rec, traced);
            }
        }
        run.attempted += 1;
        let (result, ms) = traced_iterate(&mut session, rec, &mut traced);
        match result {
            Ok(solution) if !solution.stats.cancelled => run.iters.push(Iter {
                reweigh: step.map(Step::reweighs),
                ms,
                spec: session.spec().clone(),
                solution,
            }),
            Ok(_) => {
                run.errors
                    .push("scripted solve reported a cancel nobody sent".to_owned());
                return finish_session(run, started, session_span, rec, traced);
            }
            Err(e) => {
                run.errors
                    .push(format!("iteration {} failed: {e}", run.iters.len() + 1));
                return finish_session(run, started, session_span, rec, traced);
            }
        }
        if step.is_some() {
            timed_req(&mut run, rec, "core.inspect", || {
                session.latest().map(|s| s.to_string())
            });
            timed_req(&mut run, rec, "core.diff", || {
                session.diff_latest().map(|d| d.to_string())
            });
        }
    }
    debug_assert_eq!(run.iters.len(), ITERATIONS);

    if let Some(after) = plan.probes {
        for (i, theta) in PROBE_THETAS.into_iter().enumerate() {
            let applied = timed_req(&mut run, rec, "core.edit", || {
                script::apply(&mut session, Step::Theta(theta), plan.weights)
            });
            if let Err(e) = applied {
                run.errors.push(format!("probe edit refused: {e}"));
                break;
            }
            run.attempted += 1;
            // Successive probes fire a few evaluations later each, so the
            // cancels land at different points of the solver's steps.
            trigger.arm(after + PROBE_STAGGER * i as u64);
            let (result, _) = traced_iterate(&mut session, rec, &mut traced);
            let returned = Instant::now();
            let latency = trigger
                .disarm()
                .map(|fired| returned.saturating_duration_since(fired).as_secs_f64() * 1e3);
            match (result, latency) {
                (Ok(solution), Some(latency)) if solution.stats.cancelled => {
                    run.cancel_ms.push((i, latency));
                    run.cancelled.push((session.spec().clone(), solution));
                }
                (Err(MubeError::Cancelled), Some(latency)) => run.cancel_ms.push((i, latency)),
                (Ok(_), _) => run.cancel_missed += 1,
                (Err(e), _) => {
                    run.errors.push(format!("cancel probe failed: {e}"));
                    break;
                }
            }
        }
    }
    finish_session(run, started, session_span, rec, traced)
}

fn finish_session(
    mut run: SessionRun,
    started: Instant,
    span: Option<usize>,
    rec: Option<&Arc<Recorder>>,
    traced: Vec<(ProblemSpec, Option<usize>)>,
) -> SessionRun {
    run.wall_ms = ms_since(started);
    if let (Some(r), Some(span)) = (rec, span) {
        r.end(span);
        run.traced = traced
            .into_iter()
            .map(|(spec, index)| TracedIterate {
                spec,
                solve: index.and_then(|i| r.solve(i)),
            })
            .collect();
    }
    run
}
