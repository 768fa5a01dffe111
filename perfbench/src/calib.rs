//! The host-speed probe: a fixed kernel, independent of the program, that
//! the `iterate-*` workloads time between sessions to put their times on
//! one scale.
//!
//! On a shared host the same work runs at different speeds from one
//! minute to the next. On the 2-vCPU virtual machine this benchmark was
//! tuned on, eight 20-second runs of one seed spread 15–25 % on the
//! `iterate-*` latencies (the slowest run 25–50 % behind the fastest),
//! while a multiply chain stayed within 2 %. What slowed with the engine
//! was latency-bound work on small, scattered data: a pointer chase
//! through a table that fits the per-core cache, ordered-map inserts and
//! lookups, and churn of small heap allocations — the work `Match(S)`,
//! the arena and the QEFs are made of. Streaming, binary-search and pure
//! arithmetic kernels barely moved. The probe does those three things,
//! plus a chase through a table far larger than the per-core cache — a
//! run rotates over tens of universes, so a session starts with its
//! engine's data out of that cache — on fixed inputs it builds once. It
//! calls nothing in the workspace crates, so a change to the program never
//! moves it; only the host does.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// Slots of the pointer-chase table (128 KiB of `u32`).
const CHASE_SLOTS: usize = 1 << 15;
/// Hops per chase.
const CHASE_HOPS: usize = 25_000;
/// Slots of the far pointer-chase table (16 MiB of `u32`).
const FAR_SLOTS: usize = 1 << 22;
/// Hops per far chase. Each pass resumes where the last one stopped, so
/// the warm-up pass does not bring the timed pass's slots into cache.
const FAR_HOPS: usize = 4_000;
/// Keys inserted into, then looked up in, the ordered map.
const KEYS: usize = 4_000;
/// Small allocations per churn.
const ALLOCATIONS: usize = 10_000;
/// Allocations the churn keeps alive at once.
const LIVE: usize = 64;

/// The lower quartile of the probe's times on the reference host — the
/// virtual machine the benchmark was tuned on, in its fast state — in ms.
/// Scaled times read in milliseconds of that host.
pub const REFERENCE_MS: f64 = 1.8;

/// Probe passes timed next to each universe's set-up, for `setup_s`.
pub const SETUP_PASSES: usize = 4;

/// The factor that puts times measured alongside the probe times
/// `probe_ms` on the reference host: `REFERENCE_MS` over their lower
/// quartile.
pub fn scale(probe_ms: &[f64]) -> f64 {
    REFERENCE_MS / quantile(probe_ms, 0.25)
}

/// The probe's fixed inputs.
pub struct Probe {
    chase: Vec<u32>,
    far: Vec<u32>,
    far_at: Cell<u32>,
    keys: Vec<u64>,
}

/// xorshift64, for the fixed inputs.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Builds the fixed inputs (the same on every run).
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        // Sattolo's shuffle: one cycle through every slot.
        let mut cycle = |slots: usize| {
            let mut table: Vec<u32> = (0..slots as u32).collect();
            for i in (1..slots).rev() {
                let j = (xorshift(&mut x) % i as u64) as usize;
                table.swap(i, j);
            }
            table
        };
        let chase = cycle(CHASE_SLOTS);
        let far = cycle(FAR_SLOTS);
        let keys = (0..2 * KEYS).map(|_| xorshift(&mut x) % 100_000).collect();
        Self {
            chase,
            far,
            far_at: Cell::new(0),
            keys,
        }
    }

    /// One pass of the kernel.
    fn kernel(&self) -> u64 {
        let mut p = 0u32;
        for _ in 0..CHASE_HOPS {
            p = self.chase[p as usize];
        }
        let mut f = self.far_at.get();
        for _ in 0..FAR_HOPS {
            f = self.far[f as usize];
        }
        self.far_at.set(f);
        let (inserted, probed) = self.keys.split_at(KEYS);
        let mut map = BTreeMap::new();
        for (i, key) in inserted.iter().enumerate() {
            map.insert(*key, i);
        }
        let hits = probed.iter().filter(|k| map.contains_key(k)).count();
        let mut live: Vec<Vec<u32>> = Vec::with_capacity(LIVE);
        for (i, key) in self.keys.iter().cycle().take(ALLOCATIONS).enumerate() {
            let allocation: Vec<u32> = (0..8 + (*key % 56) as u32).collect();
            if live.len() == LIVE {
                live.swap_remove(i % LIVE);
            }
            live.push(allocation);
        }
        u64::from(p) ^ hits as u64 ^ live.len() as u64
    }

    /// Runs the kernel twice — the first pass refills the caches the
    /// engine just used — and returns the second pass's wall time in ms.
    pub fn run(&self) -> f64 {
        black_box(self.kernel());
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed().as_secs_f64() * 1e3
    }
}
