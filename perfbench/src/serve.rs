//! The `serve-loopback` workload: the `mubed --tcp` code path under two
//! closed-loop protocol clients.
//!
//! Each generated universe gets an engine and a 127.0.0.1 listener; every
//! accepted connection is served by `serve_connection` over a
//! `SessionHost` (one host per connection, so a finished user's session
//! and its arena are freed when the connection closes). Two client threads
//! each hold one connection at a time and run one scripted session per
//! connection, waiting for every reply: create-session, then per script
//! step an edit, a solve, an inspect and a diff, then the cancel probes.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mube_core::{Mube, SimBackend};
use mube_schema::{AttrId, SourceId, Universe};
use mube_serve::json::obj;
use mube_serve::proto::render_solution;
use mube_serve::{parse_request, serve_connection, solver_by_name, Json, SessionHost};

use crate::calib::{self, Probe, SETUP_PASSES};
use crate::harness::{
    compare_replay, ms_since, peak_rss_mib, run_session, Config, Fingerprint, Iter, Outcome, Plan,
    SessionRun,
};
use crate::iterate::{
    base_spec, build, generate, similarity_build_ms, timed_setup, universe_seed, UniverseKind,
    PAPER_WEIGHTS, SETUP_BUDGET,
};
use crate::script::{self, nudged, pick_ga, pick_pin, Step, PROBE_THETAS, SCRIPT};
use crate::stats::{mean, median, tail};
use crate::trace::{
    check_evaluations, push_layers, replay, span_ms, Attribution, LayerTimes, Recorder,
    TracedSolver,
};

/// Protocol clients, each a closed loop over one connection at a time.
const CLIENTS: usize = 2;
/// Sources per served universe: small, so protocol and transport costs
/// show next to the solve.
fn sources(smoke: bool) -> usize {
    if smoke {
        30
    } else {
        60
    }
}
/// Universes each run generates from its seed; connections rotate over
/// them.
fn universes(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        8
    }
}
/// Source budget `m`.
const MAX_SOURCES: usize = 8;
/// The solver sessions request, by protocol name.
const SOLVER: &str = "greedy";
/// Delay from sending a probe's `solve` to sending its `cancel`.
const CANCEL_OFFSET: Duration = Duration::from_micros(500);

/// One served universe: inputs, engine and listener.
struct Served {
    universe: Arc<Universe>,
    engine: Mube,
    addr: SocketAddr,
}

/// A listener thread per universe; each accepted connection is served on
/// its own thread by a fresh `SessionHost` over the universe's engine.
struct Listeners {
    stop: Arc<AtomicBool>,
    addrs: Vec<SocketAddr>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

impl Listeners {
    fn start(engines: &[Mube]) -> Result<(Self, Vec<f64>), String> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::new();
        let mut threads = Vec::new();
        let mut ready_s = Vec::new();
        for engine in engines {
            let start = Instant::now();
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding a listener: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let engine = engine.clone();
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &engine, &stop)
            }));
            ready_s.push(start.elapsed().as_secs_f64());
            addrs.push(addr);
        }
        Ok((
            Self {
                stop,
                addrs,
                threads,
            },
            ready_s,
        ))
    }

    /// Stops accepting, waits for every connection to finish, and reports
    /// the first listener error.
    fn finish(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        for addr in &self.addrs {
            // Wakes the blocked accept; it sees the flag and returns.
            let _ = TcpStream::connect(addr);
        }
        let mut first_error = Ok(());
        for thread in self.threads {
            let result = thread
                .join()
                .map_err(|_| "listener thread panicked".to_owned())
                .and_then(|r| r);
            if first_error.is_ok() {
                first_error = result;
            }
        }
        first_error
    }
}

/// The `mubed --tcp` accept loop, with a host per connection.
fn accept_loop(listener: &TcpListener, engine: &Mube, stop: &AtomicBool) -> Result<(), String> {
    let mut connections: Vec<JoinHandle<std::io::Result<()>>> = Vec::new();
    let mut result = Ok(());
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                result = Err(format!("accept failed: {e}"));
                break;
            }
        };
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning a connection: {e}"))?;
        let host = Arc::new(SessionHost::new(engine.clone()));
        connections.push(std::thread::spawn(move || {
            let served = serve_connection(&host, BufReader::new(reader), stream);
            host.shutdown();
            served
        }));
        connections.retain(|c| !c.is_finished());
    }
    for connection in connections {
        match connection.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => result = result.and(Err(format!("connection failed: {e}"))),
            Err(_) => result = result.and(Err("connection thread panicked".to_owned())),
        }
    }
    result
}

/// One scripted session as a client saw it.
#[derive(Debug, Default)]
struct Cycle {
    universe: usize,
    seed: u64,
    /// Scripted solves: (`None` for the first, else whether the edit was
    /// weights-only; round trip ms; `quality_bits`).
    solves: Vec<(Option<bool>, f64, u64)>,
    /// Round trips of create-session, edits, inspects and diffs, ms.
    req_ms: Vec<f64>,
    cancel_ms: Vec<f64>,
    cancel_missed: u64,
    attempted: u64,
    errors: Vec<String>,
    /// Wall time of create-session plus the scripted rounds, ms.
    script_ms: f64,
    /// Request lines sent (traced cycles only).
    lines: Vec<String>,
    /// Solve and inspect replies that carried a rendered solution.
    renders: u64,
    bytes_in: u64,
}

/// One protocol connection, as a client drives it.
struct Conn<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    rec: Option<&'a Recorder>,
}

impl<'a> Conn<'a> {
    /// Connects; request ids start after `id_base`, so ids are unique
    /// across every connection of a run.
    fn open(addr: SocketAddr, id_base: u64, rec: Option<&'a Recorder>) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer,
            reader,
            next_id: id_base + 1,
            rec,
        })
    }

    /// Sends one request (members besides `id`); returns its id and when it
    /// was sent.
    fn send(
        &mut self,
        cycle: &mut Cycle,
        members: Vec<(&'static str, Json)>,
    ) -> Result<(u64, Instant), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![("id", Json::Num(id as f64))];
        all.extend(members);
        let line = obj(all).render();
        let sent = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        if self.rec.is_some() {
            cycle.lines.push(line);
        }
        cycle.attempted += 1;
        Ok((id, sent))
    }

    /// Reads one response line.
    fn recv(&mut self, cycle: &mut Cycle) -> Result<(Json, Instant), String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receiving: {e}"))?;
        let at = Instant::now();
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        cycle.bytes_in += n as u64;
        let reply = Json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        Ok((reply, at))
    }

    /// One closed-loop round trip; a reply with `"ok": false` is an error.
    fn call(
        &mut self,
        cycle: &mut Cycle,
        members: Vec<(&'static str, Json)>,
    ) -> Result<(Json, f64), String> {
        let (id, sent) = self.send(cycle, members)?;
        let (reply, at) = self.recv(cycle)?;
        if let Some(rec) = self.rec {
            rec.record("serve.request", sent, at, Some(id));
        }
        if reply.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(format!("reply to request {id} carries another id"));
        }
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            let error = reply.get("error").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("request {id} refused: {error}"));
        }
        Ok((
            reply,
            at.saturating_duration_since(sent).as_secs_f64() * 1e3,
        ))
    }
}

/// Name lookups a client needs to turn rendered solutions back into ids.
struct Names<'u> {
    universe: &'u Universe,
    by_name: BTreeMap<&'u str, SourceId>,
}

impl<'u> Names<'u> {
    fn new(universe: &'u Universe) -> Self {
        let by_name = universe
            .sources()
            .iter()
            .map(|s| (s.name(), s.id()))
            .collect();
        Self { universe, by_name }
    }

    /// Resolves a rendered `"source.attr"` (source names may hold dots) the
    /// way the host resolves GA members: first attribute of that name.
    fn attr(&self, rendered: &str) -> Option<AttrId> {
        let mut best: Option<(SourceId, &str)> = None;
        for (i, _) in rendered.match_indices('.') {
            if let Some(&id) = self.by_name.get(&rendered[..i]) {
                best = Some((id, &rendered[i + 1..]));
            }
        }
        let (id, attr) = best?;
        let index = self
            .universe
            .source(id)?
            .attributes()
            .iter()
            .position(|a| a == attr)?;
        Some(AttrId::new(id, index as u32))
    }

    fn source_name(&self, id: SourceId) -> String {
        self.universe.expect_source(id).name().to_owned()
    }

    fn attr_name(&self, attr: AttrId) -> String {
        self.universe.attr_name(attr).unwrap_or("?").to_owned()
    }
}

/// The GAs of a rendered solution as attribute ids.
fn rendered_gas(names: &Names<'_>, solution: &Json) -> Result<Vec<Vec<AttrId>>, String> {
    let schema = solution
        .get("schema")
        .and_then(Json::as_arr)
        .ok_or("solution without a schema")?;
    schema
        .iter()
        .map(|ga| {
            ga.as_arr()
                .ok_or("GA is not an array")?
                .iter()
                .map(|a| {
                    a.as_str()
                        .and_then(|s| names.attr(s))
                        .ok_or_else(|| format!("unresolvable GA member {a:?}"))
                })
                .collect()
        })
        .collect()
}

fn quality_bits(solution: &Json) -> Result<u64, String> {
    let hex = solution
        .get("quality_bits")
        .and_then(Json::as_str)
        .ok_or("solution without quality_bits")?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad quality_bits: {e}"))
}

fn weights_json(pairs: Vec<(String, f64)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(n, w)| (n, Json::Num(w))).collect())
}

/// The edit-constraints members for `step`, chosen from the latest served
/// solution exactly as `script::apply` chooses in process.
fn edit_members(
    names: &Names<'_>,
    step: Step,
    latest: &Json,
    pinned: &mut BTreeSet<SourceId>,
    constrained: &mut BTreeSet<AttrId>,
) -> Result<Vec<(&'static str, Json)>, String> {
    Ok(match step {
        Step::Weights(v) => vec![("weights", weights_json(nudged(PAPER_WEIGHTS, v)))],
        Step::Pin(v) => {
            let gas = rendered_gas(names, latest)?;
            let spanned: Vec<SourceId> = gas
                .iter()
                .flatten()
                .map(|a| a.source)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let id = pick_pin(&spanned, pinned, v).ok_or("no source left to pin")?;
            pinned.insert(id);
            vec![(
                "require_source",
                Json::Arr(vec![Json::Str(names.source_name(id))]),
            )]
        }
        Step::AdoptGa => {
            let gas = rendered_gas(names, latest)?;
            let ga = pick_ga(&gas, constrained).ok_or("no GA to adopt")?;
            constrained.extend(ga.iter().copied());
            let members = ga
                .iter()
                .map(|&a| {
                    obj([
                        ("source", Json::Str(names.source_name(a.source))),
                        ("attr", Json::Str(names.attr_name(a))),
                    ])
                })
                .collect();
            vec![("adopt_ga", Json::Arr(vec![Json::Arr(members)]))]
        }
        Step::Theta(theta) => vec![("theta", Json::Num(theta))],
    })
}

/// Runs one scripted session over a fresh connection.
fn run_cycle(
    served: &Served,
    index: usize,
    seed: u64,
    id_base: u64,
    probes: bool,
    rec: Option<&Recorder>,
) -> Cycle {
    let mut cycle = Cycle {
        universe: index,
        seed,
        ..Cycle::default()
    };
    if let Err(e) = drive_cycle(served, &mut cycle, id_base, probes, rec) {
        cycle.errors.push(e);
    }
    cycle
}

fn drive_cycle(
    served: &Served,
    cycle: &mut Cycle,
    id_base: u64,
    probes: bool,
    rec: Option<&Recorder>,
) -> Result<(), String> {
    let names = Names::new(&served.universe);
    let started = Instant::now();
    let mut conn = Conn::open(served.addr, id_base, rec)?;
    let (created, ms) = conn.call(
        cycle,
        vec![
            ("cmd", Json::Str("create-session".to_owned())),
            ("max_sources", Json::Num(MAX_SOURCES as f64)),
            ("theta", Json::Num(0.75)),
            ("seed", Json::Num(cycle.seed as f64)),
            ("solver", Json::Str(SOLVER.to_owned())),
            (
                "weights",
                weights_json(script::base_importances(PAPER_WEIGHTS)),
            ),
        ],
    )?;
    cycle.req_ms.push(ms);
    let session = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("create-session reply without a session id")?;
    let cmd = |name: &str| -> Vec<(&'static str, Json)> {
        vec![
            ("cmd", Json::Str(name.to_owned())),
            ("session", Json::Num(session as f64)),
        ]
    };
    let mut pinned = BTreeSet::new();
    let mut constrained = BTreeSet::new();
    let mut latest = Json::Null;
    let steps = std::iter::once(None).chain(SCRIPT.iter().copied().map(Some));
    for step in steps {
        if let Some(step) = step {
            let mut members = cmd("edit-constraints");
            members.extend(edit_members(
                &names,
                step,
                &latest,
                &mut pinned,
                &mut constrained,
            )?);
            let (_, ms) = conn.call(cycle, members)?;
            cycle.req_ms.push(ms);
        }
        let (reply, ms) = conn.call(cycle, cmd("solve"))?;
        let solution = reply
            .get("solution")
            .ok_or("solve reply without a solution")?;
        cycle
            .solves
            .push((step.map(Step::reweighs), ms, quality_bits(solution)?));
        cycle.renders += 1;
        latest = solution.clone();
        if step.is_some() {
            let (_, ms) = conn.call(cycle, cmd("inspect"))?;
            cycle.req_ms.push(ms);
            cycle.renders += 1;
            let (_, ms) = conn.call(cycle, cmd("diff"))?;
            cycle.req_ms.push(ms);
        }
    }
    cycle.script_ms = ms_since(started);
    if let Some(r) = rec {
        r.record("serve.cycle", started, Instant::now(), Some(id_base));
    }
    if probes {
        for theta in PROBE_THETAS {
            let mut members = cmd("edit-constraints");
            members.push(("theta", Json::Num(theta)));
            let (_, ms) = conn.call(cycle, members)?;
            cycle.req_ms.push(ms);
            let (solve_id, _) = conn.send(cycle, cmd("solve"))?;
            std::thread::sleep(CANCEL_OFFSET);
            let (cancel_id, cancel_sent) = conn.send(cycle, cmd("cancel"))?;
            let mut solve_reply = None;
            for _ in 0..2 {
                let (reply, at) = conn.recv(cycle)?;
                match reply.get("id").and_then(Json::as_u64) {
                    Some(id) if id == solve_id => solve_reply = Some((reply, at)),
                    Some(id) if id == cancel_id => {
                        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                            return Err("cancel refused".to_owned());
                        }
                    }
                    _ => return Err("probe reply with an unknown id".to_owned()),
                }
            }
            let (reply, at) = solve_reply.ok_or("no reply to the probe's solve")?;
            let latency = at.saturating_duration_since(cancel_sent).as_secs_f64() * 1e3;
            let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
            let cancelled = reply
                .get("solution")
                .and_then(|s| s.get("cancelled"))
                .and_then(Json::as_bool);
            match (ok, cancelled) {
                (true, Some(true)) => cycle.cancel_ms.push(latency),
                (true, _) => cycle.cancel_missed += 1,
                // A solve cancelled before its first feasible incumbent.
                (false, _) => {
                    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
                    if !error.contains("cancelled") {
                        return Err(format!("probe solve failed: {error}"));
                    }
                    cycle.cancel_ms.push(latency);
                }
            }
        }
    }
    // Closing our side ends the server's read loop; wait for it to finish
    // writing and hang up.
    conn.writer
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| e.to_string())?;
    let mut rest = String::new();
    while conn
        .reader
        .read_line(&mut rest)
        .map_err(|e| e.to_string())?
        > 0
    {
        rest.clear();
    }
    Ok(())
}

/// The universe and session seed client `client` uses in its `n`-th cycle.
fn assignment(client: usize, n: usize, universes: usize, seed: u64) -> (usize, u64) {
    let u = (client + CLIENTS * n) % universes;
    (u, universe_seed(seed, u) + client as u64)
}

/// Runs the clients concurrently; each stops after `cycles` cycles or at
/// `deadline` once it has visited every universe.
fn run_clients(
    served: &[Served],
    seed: u64,
    deadline: Option<Instant>,
    cycles: usize,
    probes: bool,
    rec: Option<&Recorder>,
) -> Result<Vec<Vec<Cycle>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let visits_all = served.len().div_ceil(CLIENTS);
                    loop {
                        let (u, session_seed) = assignment(client, done.len(), served.len(), seed);
                        let id_base =
                            (client as u64 + 1) * 1_000_000_000 + done.len() as u64 * 1_000;
                        let cycle = run_cycle(&served[u], u, session_seed, id_base, probes, rec);
                        let failed = !cycle.errors.is_empty();
                        done.push(cycle);
                        let timed_out = deadline.is_none_or(|d| Instant::now() >= d)
                            && done.len() >= visits_all;
                        if failed || done.len() >= cycles || timed_out {
                            return done;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
            .collect()
    })
}

/// The in-process replay of one served script.
fn replay_session(
    served: &Served,
    session_seed: u64,
    rec: Option<&Arc<Recorder>>,
) -> Result<SessionRun, String> {
    let spec = base_spec(MAX_SOURCES, PAPER_WEIGHTS)?;
    let solver = solver_by_name(SOLVER)?;
    let solver: Box<dyn mube_opt::Solver> = match rec {
        Some(rec) => Box::new(TracedSolver::new(solver, Arc::clone(rec))),
        None => solver,
    };
    Ok(run_session(
        Plan {
            engine: &served.engine,
            spec,
            seed: session_seed,
            weights: PAPER_WEIGHTS,
            probes: None,
            rec,
        },
        solver,
    ))
}

fn served_bits(cycle: &Cycle) -> Vec<Fingerprint> {
    cycle
        .solves
        .iter()
        .map(|&(_, _, bits)| (Vec::new(), bits, String::new()))
        .collect()
}

fn replay_bits(run: &SessionRun) -> Vec<Fingerprint> {
    run.iters
        .iter()
        .map(|it| {
            (
                Vec::new(),
                it.solution.overall_quality.to_bits(),
                String::new(),
            )
        })
        .collect()
}

/// `setup_s` — the run's whole set-up: every universe's median snapshot
/// build plus its listener start, summed, and scaled to the reference
/// host by the probe passes `probe_ms` timed alongside (see `calib`) —
/// and `first_solution_s`: one universe's mean set-up plus `first_ms`,
/// the median first `solve` round trip, the offline unit of a single
/// user. The round trips sit on the delayed-ACK timer, not the CPU, so
/// nothing else is scaled.
fn push_setup(out: &mut Outcome, setup_each: &[f64], probe_ms: &[f64], first_ms: f64) {
    let total: f64 = setup_each.iter().sum();
    let scale = calib::scale(probe_ms);
    out.note("raw setup_s", total);
    out.note("setup_host_scale", scale);
    out.e2e("setup_s", total * scale, "s");
    out.e2e("first_solution_s", mean(setup_each) + first_ms / 1e3, "s");
}

/// Runs `serve-loopback`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs = Vec::new();
    let mut engines = Vec::new();
    let mut build_s = Vec::new();
    let mut setup_runs = 0;
    let probe = Probe::new();
    let mut probe_ms = Vec::new();
    for u in 0..universes(cfg.smoke) {
        let generated = generate(
            UniverseKind::Paper,
            sources(cfg.smoke),
            universe_seed(cfg.seed, u),
        );
        probe_ms.extend((0..SETUP_PASSES).map(|_| probe.run()));
        let (engine, median_s, times) = timed_setup(
            crate::iterate::setup_reps(cfg.smoke),
            SETUP_BUDGET / universes(cfg.smoke) as u32,
            || build(&generated, &SimBackend::default()).map_err(|e| e.to_string()),
        )?;
        build_s.push(median_s);
        setup_runs += times.len();
        engines.push(engine);
        inputs.push(generated);
    }
    let (listeners, ready_s) = Listeners::start(&engines)?;
    let setup_each: Vec<f64> = build_s.iter().zip(&ready_s).map(|(b, r)| b + r).collect();
    let served: Vec<Served> = inputs
        .iter()
        .zip(engines)
        .zip(&listeners.addrs)
        .map(|((generated, engine), addr)| Served {
            universe: Arc::clone(&generated.universe),
            engine,
            addr: *addr,
        })
        .collect();
    out.note("universes", served.len());
    out.note("sources", sources(cfg.smoke));
    out.note("setup_runs", setup_runs);

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let clients = run_clients(&served, cfg.seed, Some(deadline), usize::MAX, true, None)?;
    let wall_s = started.elapsed().as_secs_f64();
    let rss = peak_rss_mib();

    let cycles: Vec<&Cycle> = clients.iter().flatten().collect();
    for cycle in &cycles {
        out.absorb_counts(cycle.attempted, &cycle.errors);
    }

    // Output checks: each served script against its in-process replay.
    let mut replays: BTreeMap<(usize, u64), SessionRun> = BTreeMap::new();
    for cycle in &cycles {
        let run = match replays.entry((cycle.universe, cycle.seed)) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                let run = replay_session(&served[cycle.universe], cycle.seed, None)?;
                out.absorb(&run);
                for it in &run.iters {
                    let report = served[cycle.universe].engine.audit(&it.spec, &it.solution);
                    out.check(report.is_clean(), || format!("audit: {report:?}"));
                }
                slot.insert(run)
            }
        };
        compare_replay(
            &mut out,
            &format!("served session on universe {}", cycle.universe),
            &replay_bits(run),
            &served_bits(cycle),
            cfg.inject_fault,
        );
    }

    let all = || cycles.iter().flat_map(|c| c.solves.iter());
    let first: Vec<f64> = cycles
        .iter()
        .filter_map(|c| c.solves.first())
        .map(|s| s.1)
        .collect();
    let later: Vec<f64> = all().filter(|s| s.0.is_some()).map(|s| s.1).collect();
    let reweigh: Vec<f64> = all().filter(|s| s.0 == Some(true)).map(|s| s.1).collect();
    let reconstrain: Vec<f64> = all().filter(|s| s.0 == Some(false)).map(|s| s.1).collect();
    let req: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.req_ms.iter().copied())
        .collect();
    let cancel: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.cancel_ms.iter().copied())
        .collect();
    let quality: Vec<f64> = replays
        .values()
        .flat_map(|r| r.iters.iter().map(|i| i.solution.overall_quality))
        .collect();
    let (iter_pct, iter_tail) = tail(&later);
    let (req_pct, req_tail) = tail(&req);
    push_setup(&mut out, &setup_each, &probe_ms, median(&first));
    out.e2e("iter_p50_ms", median(&later), "ms");
    out.e2e("iter_p90_ms", iter_tail, "ms");
    out.e2e("reweigh_p50_ms", median(&reweigh), "ms");
    out.e2e("reconstrain_p50_ms", median(&reconstrain), "ms");
    out.e2e("iters_per_s", all().count() as f64 / wall_s, "1/s");
    out.e2e("quality_mean", mean(&quality), "score");
    out.e2e(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out.e2e("peak_rss_mib", rss, "MiB");
    out.e2e("req_p50_ms", median(&req), "ms");
    out.e2e("req_p90_ms", req_tail, "ms");
    out.e2e("cancel_p50_ms", median(&cancel), "ms");
    out.note("cycles", cycles.len());
    out.note("timed_wall_s", wall_s);
    out.note("iter_samples", later.len());
    out.note("iter_p90_is_percentile", iter_pct);
    out.note("reweigh_samples", reweigh.len());
    out.note("reconstrain_samples", reconstrain.len());
    out.note("req_samples", req.len());
    out.note("req_p90_is_percentile", req_pct);
    out.note("cancel_samples", cancel.len());
    out.note(
        "cancel_missed",
        cycles.iter().map(|c| c.cancel_missed).sum::<u64>(),
    );

    if cfg.trace {
        traced_phase(cfg, &served, &clients, &mut out)?;
    }
    listeners.finish()?;
    Ok(out)
}

/// Replays each client's first cycles with request spans recorded, then
/// splits their time into parse, in-process solve layers, render and the
/// residual (transport plus queue wait).
fn traced_phase(
    cfg: &Config,
    served: &[Served],
    untraced: &[Vec<Cycle>],
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new();
    let per_client = served.len().div_ceil(CLIENTS);
    let clients = run_clients(served, cfg.seed, None, per_client, false, Some(&rec))?;
    let cycles: Vec<&Cycle> = clients.iter().flatten().collect();
    let traced_ms: f64 = cycles.iter().map(|c| c.script_ms).sum();
    let untraced_ms: f64 = untraced
        .iter()
        .flat_map(|c| c.iter().take(per_client))
        .map(|c| c.script_ms)
        .sum();

    // In-process replays of the traced scripts, themselves traced.
    let inner = Recorder::new();
    let mut att = Attribution::default();
    let mut solutions: Vec<(usize, Iter)> = Vec::new();
    for cycle in &cycles {
        out.absorb_counts(cycle.attempted, &cycle.errors);
        let run = replay_session(&served[cycle.universe], cycle.seed, Some(&inner))?;
        out.absorb(&run);
        compare_replay(
            out,
            &format!("traced served session on universe {}", cycle.universe),
            &replay_bits(&run),
            &served_bits(cycle),
            cfg.inject_fault,
        );
        let cycle_att = replay(&served[cycle.universe].engine, &run.traced)?;
        check_evaluations(out, &cycle_att);
        att.merge(&cycle_att);
        solutions.extend(run.iters.into_iter().map(|it| (cycle.universe, it)));
    }
    let spans = inner.spans();
    let iterate_ms = span_ms(&spans, "core.iterate");

    let lines: Vec<&String> = cycles.iter().flat_map(|c| c.lines.iter()).collect();
    let start = Instant::now();
    for line in &lines {
        std::hint::black_box(parse_request(line).map_err(|e| format!("replayed request: {e}"))?);
    }
    let parse_us = start.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    let start = Instant::now();
    for (u, it) in &solutions {
        std::hint::black_box(render_solution(&served[*u].universe, &it.solution).render());
    }
    let render_us = start.elapsed().as_secs_f64() * 1e6 / solutions.len().max(1) as f64;
    let start = Instant::now();
    for (u, it) in &solutions {
        std::hint::black_box(served[*u].engine.audit(&it.spec, &it.solution));
    }
    let audit_ms = ms_since(start) / solutions.len().max(1) as f64;
    let mut build_ms = Vec::new();
    for s in served {
        build_ms.push(similarity_build_ms(&s.universe, &SimBackend::default())?);
    }

    let requests = lines.len() as f64;
    let renders: u64 = cycles.iter().map(|c| c.renders).sum();
    let latency_ms = span_ms(&rec.spans(), "serve.request");
    let parse_ms = parse_us * requests / 1e3;
    let render_ms = render_us * renders as f64 / 1e3;
    let residual_ms = latency_ms - parse_ms - render_ms - iterate_ms;
    let per_iter = (solutions.len() as f64).max(1.0);
    let bytes: u64 = cycles.iter().map(|c| c.bytes_in).sum();

    let times = LayerTimes {
        session_ops_ms: 0.0,
        iterate_ms,
        solve_ms: span_ms(&spans, "opt.solve"),
        serve: Some([parse_ms, render_ms, residual_ms]),
    };
    let ledger = times.ledger(&att, traced_ms);
    out.layer("similarity.build_ms", median(&build_ms), "ms");
    out.layer("similarity.kept_pairs", 0.0, "count");
    push_layers(out, &att, &times, per_iter);
    out.layer("audit.ms", audit_ms, "ms");
    out.layer("serve.parse_us", parse_us, "us");
    out.layer("serve.render_us", render_us, "us");
    out.layer("serve.solve_ms", iterate_ms / per_iter, "ms");
    out.layer("serve.residual_ms", residual_ms / requests.max(1.0), "ms");
    out.layer("serve.bytes_out", bytes as f64 / per_iter, "bytes");
    out.layer("trace.overhead", traced_ms / untraced_ms, "ratio");
    out.layer(
        "trace.unattributed",
        ledger.unattributed_ms / ledger.wall_ms,
        "frac",
    );
    out.note("traced_cycles", cycles.len());
    out.ledger = Some(ledger);
    if let Some(path) = &cfg.trace_path {
        rec.write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note("trace_file", path.display());
    }
    Ok(())
}
