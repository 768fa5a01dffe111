//! The in-process workloads: `iterate-paper` and `iterate-sparse`.
//!
//! One thread drives scripted [`Session`](mube_core::Session)s back to back
//! over one engine until the timed phase ends; a second thread fires the
//! cancel probes. Every session of a run uses the same seed, so every
//! session must reproduce the first bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::SparseOptions;
use mube_core::{MatrixSimilarity, Mube, MubeBuilder, MubeError, ProblemSpec, SimBackend};
use mube_datagen::{PoolConfig, ScaleConfig, UniverseConfig};
use mube_opt::{Solver, TabuSearch};
use mube_pcsa::PcsaSketch;
use mube_qef::Weights;
use mube_schema::Universe;
use mube_similarity::NgramJaccard;

use crate::calib::{self, Probe, SETUP_PASSES};
use crate::harness::{
    compare_replay, ms_since, peak_rss_mib, run_session, Config, Outcome, Plan, SessionRun,
};
use crate::script::ITERATIONS;
use crate::stats::{mean, median, quantile, tail};
use crate::trace::{
    check_evaluations, push_layers, replay, span_ms, Attribution, LayerTimes, Recorder,
    TracedSolver, SERVE_LAYERS,
};

/// Which universe a workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniverseKind {
    /// §7.1 paper universe at reduced tuple scale, with PCSA sketches.
    Paper,
    /// `ScaleConfig::blocking_stress` universe, schema only.
    Scale,
}

/// A workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Universe generator.
    pub kind: UniverseKind,
    /// Sources generated.
    pub sources: usize,
    /// Source budget `m`.
    pub max_sources: usize,
    /// Base importances (normalized before use).
    pub weights: &'static [(&'static str, f64)],
    /// Similarity backend.
    pub backend: SimBackend,
    /// Evaluations into a probe solve at which its cancel fires.
    pub cancel_after: u64,
}

/// Evaluations into a cancel probe's solve at which the cancel fires: a few
/// tabu steps in, well before the interactive budget ends.
const CANCEL_AFTER: u64 = 60;

/// Largest source of an `iterate-sparse` universe, in attributes.
/// `blocking_stress` draws sizes up to 40 from a heavy tail, and `Match`
/// cost follows the sizes of the sources a search lands on: one
/// universe's iterations took up to 7x another's, so a run's medians
/// depended on which universes its seed drew. Capped at 10, the name
/// distribution that stresses blocking (near duplicates, typos, noise)
/// is unchanged.
const SCALE_MAX_ATTRS: usize = 10;

/// The paper's default weights (§7.1).
pub const PAPER_WEIGHTS: &[(&str, f64)] = &[
    ("matching", 0.25),
    ("cardinality", 0.25),
    ("coverage", 0.2),
    ("redundancy", 0.15),
    ("mttf", 0.15),
];

/// Weights for sketch-less universes: coverage and redundancy read PCSA
/// sketches, so without them they would be constant zeros.
pub const SCHEMA_ONLY_WEIGHTS: &[(&str, f64)] =
    &[("matching", 0.5), ("cardinality", 0.3), ("mttf", 0.2)];

/// `iterate-paper`: a few hundred paper sources, the Auto backend (which
/// routes to dense) and the paper's tabu search at its interactive budget
/// (`TabuSearch::quick`).
pub fn paper_shape(smoke: bool) -> Shape {
    Shape {
        kind: UniverseKind::Paper,
        sources: if smoke { 40 } else { 300 },
        max_sources: 8,
        weights: PAPER_WEIGHTS,
        backend: SimBackend::default(),
        cancel_after: CANCEL_AFTER,
    }
}

/// `iterate-sparse`: a blocking-stress universe on the lossless sparse
/// backend. The solver is the same interactive tabu budget as
/// `iterate-paper`: greedy selection stops wherever the objective stops
/// improving, so its latency varied several-fold between generated
/// universes (and an empty first schema left nothing to pin), which no
/// bound could gate.
pub fn sparse_shape(smoke: bool) -> Shape {
    Shape {
        kind: UniverseKind::Scale,
        sources: if smoke { 150 } else { 1200 },
        max_sources: 8,
        weights: SCHEMA_ONLY_WEIGHTS,
        backend: SimBackend::Sparse(SparseOptions::default()),
        cancel_after: CANCEL_AFTER,
    }
}

/// The solver of both `iterate-*` workloads: the paper's tabu search at
/// its interactive budget.
pub fn solver() -> Box<dyn Solver> {
    Box::new(TabuSearch::quick())
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The universe.
    pub universe: Arc<Universe>,
    /// Per-source PCSA sketches, when the generator makes data.
    pub sketches: Option<Vec<Option<PcsaSketch>>>,
}

/// Generates the inputs of `kind` at `sources` from `seed`.
pub fn generate(kind: UniverseKind, sources: usize, seed: u64) -> Inputs {
    match kind {
        UniverseKind::Paper => {
            // Reduced tuple scale: pools and cardinalities 100x below the
            // paper's, every schema-side parameter unchanged.
            let mut config = UniverseConfig::paper(sources, seed);
            config.pool = PoolConfig {
                general: 20_000,
                specialty: 20_000,
                specialty_fraction: 0.10,
            };
            config.min_cardinality = 100;
            config.max_cardinality = 10_000;
            let generated = config.generate();
            Inputs {
                universe: Arc::new(generated.universe),
                sketches: Some(generated.sketches),
            }
        }
        UniverseKind::Scale => {
            let mut config = ScaleConfig::blocking_stress(sources, seed);
            config.max_attrs = SCALE_MAX_ATTRS;
            Inputs {
                universe: Arc::new(config.generate().universe),
                sketches: None,
            }
        }
    }
}

/// The snapshot build `setup_s` times: similarity store plus sketch
/// context, through the public builder.
pub fn build(inputs: &Inputs, backend: &SimBackend) -> Result<Mube, MubeError> {
    let mut builder = MubeBuilder::from_arc(Arc::clone(&inputs.universe));
    if let Some(sketches) = &inputs.sketches {
        builder = builder.sketches(sketches.clone());
    }
    builder.sim_backend(backend.clone()).try_build()
}

/// The first iteration's spec.
pub fn base_spec(max_sources: usize, weights: &[(&str, f64)]) -> Result<ProblemSpec, String> {
    Ok(ProblemSpec::new(max_sources)
        .with_weights(Weights::normalized(crate::script::base_importances(
            weights,
        ))?)
        .with_theta(0.75))
}

/// Builds the engine at least `min_reps` times and until `budget` of
/// builds has passed (at most [`MAX_SETUP_REPS`]); returns the last engine
/// and the median build time in seconds.
pub fn timed_setup(
    min_reps: usize,
    budget: Duration,
    mut build_once: impl FnMut() -> Result<Mube, String>,
) -> Result<(Mube, f64, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut engine = None;
    let started = Instant::now();
    while times.len() < min_reps.max(1)
        || (started.elapsed() < budget && times.len() < MAX_SETUP_REPS)
    {
        let start = Instant::now();
        let built = build_once()?;
        times.push(start.elapsed().as_secs_f64());
        // The previous engine drops outside the timed region.
        engine = Some(built);
    }
    let engine = engine.expect("at least one build ran");
    Ok((engine, median(&times), times))
}

/// Upper bound on set-up repetitions per run.
pub const MAX_SETUP_REPS: usize = 100;

/// Minimum set-up repetitions per run (the report takes their median).
pub fn setup_reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// Set-up time a run spends on repetitions beyond the minimum, shared
/// evenly by its universes.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Universes each run generates from its seed. Sessions rotate over them,
/// so one run's figures average over several inputs instead of resting on
/// a single draw of the generator.
pub fn universes(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        32
    }
}

/// Universes whose reference session the traced phase replays.
const TRACED_UNIVERSES: usize = 4;

/// Universes whose reference session is replayed on the dense store.
const DENSE_REPLAYS: usize = 2;

/// The seed of universe `u` of a run.
pub fn universe_seed(seed: u64, u: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(u as u64)
}

/// One generated universe with its engine.
struct Slot {
    seed: u64,
    inputs: Inputs,
    engine: Mube,
}

/// Runs `iterate-paper` or `iterate-sparse`.
pub fn run(cfg: &Config, shape: &Shape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut slots = Vec::new();
    let mut setup = SetupTimes::default();
    let mut setup_runs = 0;
    let universes = universes(cfg.smoke);
    let probe = Probe::new();
    for u in 0..universes {
        let seed = universe_seed(cfg.seed, u);
        let inputs = generate(shape.kind, shape.sources, seed);
        setup
            .probe_ms
            .extend((0..SETUP_PASSES).map(|_| probe.run()));
        let budget = SETUP_BUDGET / universes as u32;
        let (engine, median_s, times) = timed_setup(setup_reps(cfg.smoke), budget, || {
            build(&inputs, &shape.backend).map_err(|e| e.to_string())
        })?;
        setup.median_s.push(median_s);
        setup
            .fastest_s
            .push(times.iter().copied().fold(f64::INFINITY, f64::min));
        setup_runs += times.len();
        slots.push(Slot {
            seed,
            inputs,
            engine,
        });
    }
    out.note("universes", slots.len());
    out.note("sources", slots[0].inputs.universe.len());
    out.note("attributes", slots[0].inputs.universe.total_attrs());
    out.note("setup_runs", setup_runs);
    out.note(
        "backend",
        format!("{:?}", slots[0].engine.similarity().backend_kind()),
    );
    let spec = base_spec(shape.max_sources, shape.weights)?;
    let rec = Recorder::new();
    let plans: Vec<Plan> = slots
        .iter()
        .map(|slot| Plan {
            engine: &slot.engine,
            spec: spec.clone(),
            seed: slot.seed,
            weights: shape.weights,
            probes: Some(shape.cancel_after),
            rec: None,
        })
        .collect();

    // Timed phase: whole sessions, rotating over the universes, until the
    // time is up and every universe has run at least twice (the repeat is
    // checked against the first run bit for bit).
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let mut sessions: Vec<SessionRun> = Vec::new();
    let mut probe_ms = Vec::new();
    loop {
        probe_ms.push(probe.run());
        let plan = plans[sessions.len() % plans.len()].clone();
        let run = run_session(plan, solver());
        let failed = !run.errors.is_empty();
        sessions.push(run);
        if failed || (Instant::now() >= deadline && sessions.len() >= 2 * plans.len()) {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    for run in &sessions {
        out.absorb(run);
    }

    // Output checks, outside the timed region. Session `i` ran universe
    // `i % U`; sessions `0..U` are each universe's reference.
    let u = plans.len().min(sessions.len());
    let references: Vec<_> = sessions[..u].iter().map(SessionRun::fingerprints).collect();
    for (i, reference) in references.iter().enumerate() {
        out.check(reference.len() == ITERATIONS, || {
            format!(
                "universe {i}: first session completed {} of {ITERATIONS} iterations",
                reference.len()
            )
        });
    }
    for (i, run) in sessions.iter().enumerate().skip(u) {
        compare_replay(
            &mut out,
            &format!("session {} (universe {})", i + 1, i % u),
            &references[i % u],
            &run.fingerprints(),
            cfg.inject_fault,
        );
    }
    for (i, run) in sessions.iter().enumerate() {
        let engine = &slots[i % u].engine;
        let audited = if i < u { &run.iters[..] } else { &[] };
        for it in audited {
            let report = engine.audit(&it.spec, &it.solution);
            out.check(report.is_clean(), || format!("audit: {report:?}"));
        }
        for (spec, solution) in &run.cancelled {
            let report = engine.audit(spec, solution);
            out.check(report.is_clean(), || {
                format!("audit of a cancelled incumbent: {report:?}")
            });
        }
    }
    if shape.kind == UniverseKind::Scale {
        // The lossless sparse store must read exactly like the dense one:
        // the same script on a dense engine gives the same quality bits.
        for (i, slot) in slots.iter().enumerate().take(u.min(DENSE_REPLAYS)) {
            let dense = build(&slot.inputs, &SimBackend::Dense).map_err(|e| e.to_string())?;
            let replayed = run_session(
                Plan {
                    engine: &dense,
                    probes: None,
                    ..plans[i].clone()
                },
                solver(),
            );
            out.absorb(&replayed);
            let bits = |fps: &[crate::harness::Fingerprint]| -> Vec<_> {
                fps.iter()
                    .map(|(_, q, _)| (Vec::new(), *q, String::new()))
                    .collect()
            };
            compare_replay(
                &mut out,
                &format!("dense replay of universe {i}"),
                &bits(&references[i]),
                &bits(&replayed.fingerprints()),
                cfg.inject_fault,
            );
        }
    }

    session_metrics(&mut out, &setup, &sessions, &probe_ms, wall_s, rss);
    if cfg.trace {
        let traced = Traced {
            shape,
            slots: &slots,
            plans: &plans,
            rec: &rec,
        };
        traced.run(cfg, &sessions, &references, &mut out)?;
    }
    Ok(out)
}

/// A run's set-up times, per universe, and the probe passes timed
/// alongside them.
#[derive(Debug, Default)]
struct SetupTimes {
    /// Median build, s.
    median_s: Vec<f64>,
    /// Fastest build, s.
    fastest_s: Vec<f64>,
    /// Probe passes, ms.
    probe_ms: Vec<f64>,
}

/// The fastest repeat of each deterministic step of a run: `samples`
/// pairs a step's key — (universe, position in the session, …) — with one
/// repeat's latency.
pub fn fastest_per_step<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> BTreeMap<K, f64> {
    let mut best: BTreeMap<K, f64> = BTreeMap::new();
    for (key, ms) in samples {
        best.entry(key).and_modify(|b| *b = b.min(ms)).or_insert(ms);
    }
    best
}

/// The end-to-end metrics of the timed phase.
///
/// Sessions rotate over the universes and every repeat of a session does
/// the same work bit for bit (the repeat check proves it), so each
/// latency metric is taken over steps, not over raw samples: a step's
/// latency is its fastest repeat, which is its cost with bursts of
/// interference from the rest of the host taken out. Medians and tails
/// are then over the steps of every universe, and every time is scaled
/// by the run's host-speed probe (see `calib`).
///
/// `setup_s` is the run's whole set-up: every universe's median snapshot
/// build, summed, and scaled by the probe passes timed next to the
/// builds. `first_solution_s` is one user's offline unit: a universe's
/// build plus its cold first iteration, both at their fastest repeat,
/// averaged over the universes.
fn session_metrics(
    out: &mut Outcome,
    setup: &SetupTimes,
    sessions: &[SessionRun],
    probe_ms: &[f64],
    wall_s: f64,
    rss: f64,
) {
    let universes = setup.median_s.len();
    let steps = fastest_per_step(sessions.iter().enumerate().flat_map(|(i, s)| {
        s.iters
            .iter()
            .enumerate()
            .map(move |(k, it)| ((i % universes, k, it.reweigh), it.ms))
    }));
    let of_kind = |keep: fn(Option<bool>) -> bool| -> Vec<f64> {
        steps
            .iter()
            .filter(|((_, _, reweigh), _)| keep(*reweigh))
            .map(|(_, ms)| *ms)
            .collect()
    };
    let first = of_kind(|r| r.is_none());
    let later = of_kind(|r| r.is_some());
    let reweigh = of_kind(|r| r == Some(true));
    let reconstrain = of_kind(|r| r == Some(false));
    let req: Vec<f64> = fastest_per_step(sessions.iter().enumerate().flat_map(|(i, s)| {
        s.req_ms
            .iter()
            .enumerate()
            .map(move |(k, ms)| ((i % universes, k), *ms))
    }))
    .into_values()
    .collect();
    let cancel: Vec<f64> = fastest_per_step(sessions.iter().enumerate().flat_map(|(i, s)| {
        s.cancel_ms
            .iter()
            .map(move |(probe, ms)| ((i % universes, *probe), *ms))
    }))
    .into_values()
    .collect();
    let completed = sessions.iter().map(|s| s.iters.len()).sum::<usize>();
    // Deterministic per seed: every universe's reference session.
    let quality: Vec<f64> = sessions[..universes.min(sessions.len())]
        .iter()
        .flat_map(|s| s.iters.iter().map(|i| i.solution.overall_quality))
        .collect();
    let (iter_pct, iter_tail) = tail(&later);
    let (req_pct, req_tail) = tail(&req);

    let first_solution: Vec<f64> = setup
        .fastest_s
        .iter()
        .zip(&first)
        .map(|(build_s, first_ms)| build_s + first_ms / 1e3)
        .collect();
    // A session of every step at its fastest repeat, as iterations/s.
    let session_s = steps.values().sum::<f64>() / 1e3;

    // Every time is scaled to the reference host by the probe times of
    // the timed phase (see `calib`), `setup_s` by those taken during set-up;
    // the report keeps the raw figures.
    let scale = calib::scale(probe_ms);
    let setup_scale = calib::scale(&setup.probe_ms);
    let setup_total: f64 = setup.median_s.iter().sum();
    out.note("raw setup_s", setup_total);
    out.e2e("setup_s", setup_total * setup_scale, "s");
    let time = |out: &mut Outcome, name: &str, raw: f64, unit: &'static str| {
        out.note(&format!("raw {name}"), raw);
        out.e2e(name, raw * scale, unit);
    };
    time(out, "first_solution_s", mean(&first_solution), "s");
    time(out, "iter_p50_ms", median(&later), "ms");
    time(out, "iter_p90_ms", iter_tail, "ms");
    time(out, "reweigh_p50_ms", median(&reweigh), "ms");
    time(out, "reconstrain_p50_ms", median(&reconstrain), "ms");
    out.note("raw iters_per_s", steps.len() as f64 / session_s);
    out.e2e(
        "iters_per_s",
        steps.len() as f64 / (session_s * scale),
        "1/s",
    );
    out.e2e("quality_mean", mean(&quality), "score");
    out.e2e(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out.e2e("peak_rss_mib", rss, "MiB");
    time(out, "req_p50_ms", median(&req), "ms");
    time(out, "req_p90_ms", req_tail, "ms");
    time(out, "cancel_p50_ms", median(&cancel), "ms");

    out.note("sessions", sessions.len());
    out.note("probe_q25_ms", quantile(probe_ms, 0.25));
    out.note("host_scale", scale);
    out.note("setup_host_scale", setup_scale);
    out.note("timed_wall_s", wall_s);
    out.note("iterations_completed", completed);
    out.note("iterations_per_wall_s", completed as f64 / wall_s);
    out.note("iter_steps", later.len());
    out.note("iter_p90_is_percentile", iter_pct);
    out.note("reweigh_steps", reweigh.len());
    out.note("reconstrain_steps", reconstrain.len());
    out.note("req_steps", req.len());
    out.note("req_p90_is_percentile", req_pct);
    out.note("cancel_steps", cancel.len());
    out.note(
        "cancel_missed",
        sessions.iter().map(|s| s.cancel_missed).sum::<u64>(),
    );
}

/// Median wall time of building just the similarity store, ms.
pub fn similarity_build_ms(universe: &Universe, backend: &SimBackend) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let sim = MatrixSimilarity::with_backend(universe, &NgramJaccard::default(), backend)
            .map_err(|e| e.to_string())?;
        times.push(ms_since(start));
        drop(sim);
    }
    Ok(median(&times))
}

/// The traced phase of an `iterate-*` run.
struct Traced<'a> {
    shape: &'a Shape,
    slots: &'a [Slot],
    plans: &'a [Plan<'a>],
    rec: &'a Arc<Recorder>,
}

impl Traced<'_> {
    /// Replays each universe's reference session with every layer boundary
    /// timed, checks the replays reproduce the untraced run bit for bit,
    /// and derives the per-layer metrics and the self-time ledger.
    fn run(
        &self,
        cfg: &Config,
        sessions: &[SessionRun],
        references: &[Vec<crate::harness::Fingerprint>],
        out: &mut Outcome,
    ) -> Result<(), String> {
        let u = references.len().min(TRACED_UNIVERSES);
        let mut att = Attribution::default();
        let mut traced_wall = 0.0;
        for (i, (slot, plan)) in self.slots.iter().zip(self.plans).take(u).enumerate() {
            let solver = TracedSolver::new(solver(), Arc::clone(self.rec));
            let plan = Plan {
                rec: Some(self.rec),
                ..plan.clone()
            };
            let run = run_session(plan, Box::new(solver));
            out.absorb(&run);
            compare_replay(
                out,
                &format!("traced session of universe {i}"),
                &references[i],
                &run.fingerprints(),
                cfg.inject_fault,
            );
            traced_wall += run.wall_ms;
            let slot_att = replay(&slot.engine, &run.traced)?;
            check_evaluations(out, &slot_att);
            att.merge(&slot_att);
        }
        let untraced_wall: f64 = sessions[..u].iter().map(|r| r.wall_ms).sum();

        let spans = self.rec.spans();
        let times = LayerTimes {
            session_ops_ms: span_ms(&spans, "core.edit")
                + span_ms(&spans, "core.inspect")
                + span_ms(&spans, "core.diff"),
            iterate_ms: span_ms(&spans, "core.iterate"),
            solve_ms: span_ms(&spans, "opt.solve"),
            serve: None,
        };
        let mut audit_ms = Vec::new();
        let mut build_ms = Vec::new();
        let mut kept = 0u64;
        for (slot, run) in self.slots.iter().zip(sessions).take(u) {
            for it in &run.iters {
                let start = Instant::now();
                std::hint::black_box(slot.engine.audit(&it.spec, &it.solution));
                audit_ms.push(ms_since(start));
            }
            build_ms.push(similarity_build_ms(
                &slot.inputs.universe,
                &self.shape.backend,
            )?);
            kept += slot
                .engine
                .similarity()
                .sparse_stats()
                .map_or(0, |s| s.kept_pairs);
        }

        let ledger = times.ledger(&att, traced_wall);
        out.layer("similarity.build_ms", median(&build_ms), "ms");
        out.layer("similarity.kept_pairs", kept as f64 / u as f64, "count");
        push_layers(out, &att, &times, (u * ITERATIONS) as f64);
        out.layer("audit.ms", mean(&audit_ms), "ms");
        for (name, unit) in SERVE_LAYERS {
            out.layer(name, 0.0, unit);
        }
        out.layer("trace.overhead", traced_wall / untraced_wall, "ratio");
        out.layer(
            "trace.unattributed",
            ledger.unattributed_ms / ledger.wall_ms,
            "frac",
        );
        out.note("traced_sessions", u);
        out.ledger = Some(ledger);
        if let Some(path) = &cfg.trace_path {
            self.rec
                .write(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            out.note("trace_file", path.display());
        }
        Ok(())
    }
}
