//! The scripted user: one fixed edit script, shared by every workload and
//! by the in-process replays that check them.
//!
//! A session runs one cold solve, then one solve after each edit of
//! [`SCRIPT`]. Weights-only edits recombine cached component vectors (the
//! arena path); pins, GA adoption and θ changes re-run `Match(S)` on
//! whatever they invalidate. After the script the session runs
//! [`PROBE_THETAS`].len() cancel probes: a θ edit, a solve, and a cancel at
//! a fixed offset, so cancellation is measured on real Match work without
//! perturbing the scripted history.

use std::collections::BTreeSet;

use mube_core::{MubeError, Session, Solution};
use mube_qef::Weights;
use mube_schema::{AttrId, GlobalAttribute, SourceId};

/// One user-feedback edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Nudge the weights (variant selects the nudge).
    Weights(usize),
    /// Pin one source of the latest solution (variant selects which).
    Pin(usize),
    /// Adopt the latest schema's smallest multi-source GA as a constraint.
    AdoptGa,
    /// Set the matching threshold θ.
    Theta(f64),
}

impl Step {
    /// Whether the solve after this edit takes the weights-only path.
    pub fn reweighs(self) -> bool {
        matches!(self, Step::Weights(_))
    }
}

/// Edits applied before iterations 2..=[`ITERATIONS`].
pub const SCRIPT: [Step; 11] = [
    Step::Weights(0),
    Step::Pin(0),
    Step::Weights(1),
    Step::AdoptGa,
    Step::Weights(2),
    Step::Theta(0.7),
    Step::Weights(3),
    Step::Pin(1),
    Step::Weights(4),
    Step::Theta(0.65),
    Step::Weights(5),
];

/// Completed iterations per scripted session.
pub const ITERATIONS: usize = SCRIPT.len() + 1;

/// θ of each cancel probe. Each lowers θ below the script's last value, so
/// the probe solve re-runs `Match(S)` and stays feasible.
pub const PROBE_THETAS: [f64; 6] = [0.64, 0.63, 0.62, 0.61, 0.6, 0.59];

/// Multipliers the weight nudges apply, rotated by the variant.
const NUDGES: [f64; 5] = [1.10, 0.92, 1.0, 1.05, 0.95];

/// The raw importances of nudge `variant` around `base`, sorted by name.
/// Every consumer normalizes them with `Weights::normalized` in that order,
/// as the protocol host does with a JSON object's members, so in-process
/// and served sessions hold bit-identical weights.
pub fn nudged(base: &[(&str, f64)], variant: usize) -> Vec<(String, f64)> {
    let mut raw: Vec<(String, f64)> = base
        .iter()
        .enumerate()
        .map(|(i, (name, w))| ((*name).to_owned(), w * NUDGES[(i + variant) % NUDGES.len()]))
        .collect();
    raw.sort_by(|a, b| a.0.cmp(&b.0));
    raw
}

/// The base importances, sorted by name (see [`nudged`]).
pub fn base_importances(base: &[(&str, f64)]) -> Vec<(String, f64)> {
    let mut raw: Vec<(String, f64)> = base.iter().map(|(n, w)| ((*n).to_owned(), *w)).collect();
    raw.sort_by(|a, b| a.0.cmp(&b.0));
    raw
}

/// The source a [`Step::Pin`] pins: the `variant`-th not yet pinned source
/// (cyclically) among those the latest schema spans — pinning a source no
/// GA covers would make the problem infeasible.
pub fn pick_pin(
    selected: &[SourceId],
    pinned: &BTreeSet<SourceId>,
    variant: usize,
) -> Option<SourceId> {
    let free: Vec<SourceId> = selected
        .iter()
        .copied()
        .filter(|s| !pinned.contains(s))
        .collect();
    (!free.is_empty()).then(|| free[(2 * variant + 1) % free.len()])
}

/// The GA a [`Step::AdoptGa`] adopts: the smallest GA of the latest schema
/// with at least two attributes and no attribute already constrained
/// (first on ties, in schema order).
pub fn pick_ga(gas: &[Vec<AttrId>], constrained: &BTreeSet<AttrId>) -> Option<Vec<AttrId>> {
    gas.iter()
        .filter(|ga| ga.len() >= 2 && ga.iter().all(|a| !constrained.contains(a)))
        .min_by_key(|ga| ga.len())
        .cloned()
}

/// The GAs of a solution's schema as attribute lists, in schema order.
pub fn gas_of(solution: &Solution) -> Vec<Vec<AttrId>> {
    solution
        .schema
        .gas()
        .iter()
        .map(|ga| ga.attrs().collect())
        .collect()
}

/// Applies `step` to an in-process session, choosing pins and GAs from its
/// latest solution exactly as a protocol client would.
pub fn apply(session: &mut Session, step: Step, base: &[(&str, f64)]) -> Result<(), String> {
    let latest = session
        .latest()
        .ok_or("edit before the first completed iteration")?;
    match step {
        Step::Weights(v) => {
            let weights = Weights::normalized(nudged(base, v))?;
            session.set_weights(weights);
        }
        Step::Pin(v) => {
            let pinned = session.spec().constraints.sources().clone();
            let spanned: Vec<SourceId> = latest.schema.covered_sources().into_iter().collect();
            let id = pick_pin(&spanned, &pinned, v).ok_or("no source left to pin")?;
            session.require_source(id);
        }
        Step::AdoptGa => {
            let constrained = session.spec().constraints.constrained_attrs();
            let attrs = pick_ga(&gas_of(latest), &constrained).ok_or("no GA to adopt")?;
            let ga = GlobalAttribute::new(attrs).map_err(|e| e.to_string())?;
            session.adopt_ga(ga);
        }
        Step::Theta(theta) => {
            session
                .set_theta(theta)
                .map_err(|e: MubeError| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nudges_normalize_to_distinct_weights() {
        let base = [("a", 0.5), ("b", 0.3), ("c", 0.2)];
        for v in 0..6 {
            assert!(Weights::normalized(nudged(&base, v)).is_ok());
        }
        assert_ne!(nudged(&base, 0), nudged(&base, 1));
    }

    #[test]
    fn pins_skip_pinned_sources() {
        let selected = [SourceId(3), SourceId(5), SourceId(9)];
        let pinned: BTreeSet<SourceId> = [SourceId(5)].into_iter().collect();
        assert_eq!(pick_pin(&selected, &pinned, 0), Some(SourceId(9)));
        assert_eq!(pick_pin(&selected, &pinned, 1), Some(SourceId(9)));
        assert_eq!(pick_pin(&[SourceId(5)], &pinned, 0), None);
    }
}
