//! Host-speed calibration.
//!
//! The benchmark shares a few vCPUs of a host with other tenants, and
//! their load changes how fast the whole machine runs: on a 2-vCPU VM
//! the same sweep took from 0.9 s to 1.6 s within minutes, in phases of
//! 5 to 20 seconds, with almost no steal time. No statistic over a run
//! removes a phase that lasts the whole run.
//!
//! So every timed unit of work (a sweep, a round of requests, a set-up)
//! is bracketed by runs of a fixed calibration kernel, and its times are
//! scaled by `REFERENCE_S` over the mean of the two bracketing kernel
//! times. A timing metric therefore reads in seconds on a host on which
//! the kernel takes `REFERENCE_S`. The kernel uses only `std` and calls
//! none of the repository's code, so no change to the program moves it;
//! it does what the synthesis flow does most (walks a few MB of index
//! arrays in random order, hashes into a map, sorts) and slows with it.
//! `perfbench/README.md` gives the measured run-to-run spreads with and
//! without the scaling.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::Rng;
use crate::Outcome;

/// The kernel's time on the reference host (the 2-vCPU VM above, in a
/// typical phase).
pub const REFERENCE_S: f64 = 0.045;

/// The kernel: about 45 ms of random-order index walks, map updates and
/// a sort over 4 MB of fresh allocations. Fixed inputs, so every run
/// does the same work.
fn kernel() -> u64 {
    let n = 1 << 20;
    let mut rng = Rng::new(42);
    let mut next: Vec<u32> = (0..n as u32).collect();
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..n).rev() {
        let j = rng.below(i);
        next.swap(i, j);
    }
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..n {
        at = next[at as usize];
        acc = acc.wrapping_add(at as u64);
    }
    let mut map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..100_000 {
        let k = rng.next_u64() % 50_000;
        *map.entry(k).or_insert(0) += acc & 7;
        acc = acc.rotate_left(5) ^ k;
    }
    let mut v: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    acc ^ v[v.len() / 2] ^ map.len() as u64
}

fn kernel_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The kernel times of one run, in order.
pub struct Host {
    times: Vec<f64>,
}

impl Host {
    /// Calibrates once, before the first unit of work.
    pub fn new() -> Host {
        Host {
            times: vec![kernel_s()],
        }
    }

    /// Calibrates after a unit of work and returns the factor that
    /// scales that unit's times to the reference host.
    pub fn factor(&mut self) -> f64 {
        let before = *self.times.last().expect("calibrated at creation");
        let after = kernel_s();
        self.times.push(after);
        REFERENCE_S / ((before + after) / 2.0)
    }

    /// Keeps the kernel times for the run's provenance.
    pub fn record(self, out: &mut Outcome) {
        out.kernel_s.extend(self.times);
    }
}
