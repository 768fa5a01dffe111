//! The µBE benchmark: one user iteration, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload iterate-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for what each stresses and why):
//! `iterate-paper`, `iterate-sparse`, `serve-loopback`. With `--trace 0`
//! the result line carries the end-to-end metrics; with `--trace 1` a
//! traced phase follows the timed one and the result line carries the
//! per-layer metrics instead. Earlier stdout lines are a human-readable
//! report (environment block, sample counts, failures); the last line is
//! the JSON result.

// Reading the wall clock is this crate's job; the workspace's clippy.toml
// bans `Instant::now` only to keep clocks out of solver decisions.
#![allow(clippy::disallowed_methods)]

mod calib;
mod harness;
mod iterate;
mod script;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Config, Metric, Outcome};

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "iterate-paper",
        "paper universe, dense store: Match, QEFs with PCSA unions and the arena do the work; similarity reads are O(1)",
    ),
    (
        "iterate-sparse",
        "blocking-stress universe on the lossless sparse store: CSR binary-search lookups dominate Match and F1; PCSA does no work",
    ),
    (
        "serve-loopback",
        "two closed-loop clients of the mubed TCP path over small universes: parse, queue, transport and render show",
    ),
];

/// Runs one workload.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "iterate-paper" => iterate::run(cfg, &iterate::paper_shape(cfg.smoke)),
        "iterate-sparse" => iterate::run(cfg, &iterate::sparse_shape(cfg.smoke)),
        "serve-loopback" => serve::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (want one of {})",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// Threads the host offers.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown (not a git checkout)".to_owned()
    } else {
        commit.to_owned()
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

/// Renders `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit Rust's shortest round-trip
/// form has; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The result line: correctness, operation counts and the metrics.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace { &outcome.layers } else { &outcome.e2e };
    let correct = outcome.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(metrics)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    let batch_threads = std::env::var("MUBE_BATCH_THREADS").ok();
    if let Some(t) = batch_threads
        .as_deref()
        .and_then(|t| t.parse::<usize>().ok())
    {
        if t > threads {
            eprintln!("perfbench: MUBE_BATCH_THREADS={t} exceeds the host's {threads} threads");
            return ExitCode::from(2);
        }
    }
    let Some(why) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, w)| *w)
    else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        inject_fault: false,
        trace_path: args.trace.then(|| {
            PathBuf::from(target)
                .join("perfbench")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
        }),
    };

    println!("# perfbench {} (why: {why})", args.workload);
    println!(
        "# env: nproc={threads} profile={} commit={} rustc=\"{}\" seed={} seconds={} trace={} \
         MUBE_BATCH_THREADS={} solver_batch_threads=1",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
        rustc_version(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        batch_threads.as_deref().unwrap_or("unset"),
    );
    let outcome = match run_workload(&args.workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (key, value) in &outcome.notes {
        println!("# {key}: {value}");
    }
    println!(
        "# fail_frac: {} ({} of {} operations and checks)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        println!("# failure: {e}");
    }
    for m in outcome.e2e.iter().chain(&outcome.layers) {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(ledger) = &outcome.ledger {
        println!("# ledger: traced wall {:.3} ms", ledger.wall_ms);
        for (layer, ms) in &ledger.self_ms {
            println!("#   {layer:<22} {ms:>12.3} ms");
        }
        println!(
            "#   {:<22} {:>12.3} ms",
            "unattributed", ledger.unattributed_ms
        );
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
