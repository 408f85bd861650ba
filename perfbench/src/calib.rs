//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by up to 2x
//! over minutes as other tenants come and go: one `fleet_sharded` run
//! rate moved from 4.1M to 7.0M events/s within half an hour, with
//! almost no steal time reported. A fixed loop that shares no code with
//! the repository moved by the same factor (its time per fleet run
//! stayed within 2% while both halved), and dividing by it cut the
//! run-to-run spread of `fleet_sharded`'s `events_per_s` from 2.6% to
//! 1.1% over five seeds. So the benchmark times that loop before each
//! pass and divides the run's host times by its median slowdown against
//! [`REFERENCE_NS`]: reported times are seconds of a host on which the
//! loop takes exactly that long. A change to the repository's code
//! cannot move the loop, so it shows in full.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The loop's time on a quiet host.
pub const REFERENCE_NS: f64 = 10_000_000.0;

/// 4 MiB of table, beyond the per-core caches, like the simulator's
/// working set.
const WORDS: usize = 1 << 19;
const STEPS: usize = 4_000_000;

/// Random-walk updates over the table: integer arithmetic, a multiply
/// chain and cache misses.
fn kernel(table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % table.len();
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The loop's table and the times taken so far. The loop runs on the
/// calling thread only: timed on two fresh threads it read twice its
/// time whenever the scheduler started both on one CPU.
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// The table, allocated once so that sampling never faults pages in.
    pub fn new() -> Self {
        Calibration { table: vec![1; WORDS], samples: Vec::new() }
    }

    /// Heap bytes the table holds for the whole run.
    pub fn bytes(&self) -> usize {
        WORDS * std::mem::size_of::<u64>()
    }

    /// Times the loop `times` times.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let t = Instant::now();
            black_box(kernel(&mut self.table));
            self.samples.push(t.elapsed().as_nanos() as f64);
        }
    }

    /// The run's slowdown against the reference host (1.0 = as fast).
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_NS
    }

    /// Median loop time in ms, and the number of samples.
    pub fn summary(&self) -> (f64, usize) {
        (median(&self.samples) / 1e6, self.samples.len())
    }
}
