//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, checked with proptest.

use proptest::prelude::*;
use std::collections::HashMap;
use tpv::services::kv::{KvStore, StoredValue};
use tpv::sim::dist::{Exponential, GeneralizedPareto, Sampler};
use tpv::sim::{EventQueue, FifoResource, LatencyHistogram, SimDuration, SimRng, SimTime};
use tpv::stats::ci::{nonparametric_ci_ranks, nonparametric_median_ci};
use tpv::stats::desc;
use tpv::stats::normality::shapiro_wilk;

/// The eager KV store the lazy preload replaced: every preloaded key is
/// sampled up front, in key order, and inserted into one hash map.
struct EagerKv {
    map: HashMap<u64, StoredValue>,
    hits: u64,
    misses: u64,
}

impl EagerKv {
    fn preloaded(keys: u64, rng: &mut SimRng) -> Self {
        let value_size = GeneralizedPareto::new(0.0, 214.476, 0.348238);
        let mut kv = EagerKv { map: HashMap::new(), hits: 0, misses: 0 };
        for key in 0..keys {
            let size = value_size.sample(rng).clamp(1.0, 1_000_000.0) as u32;
            kv.set(key, size);
        }
        kv
    }

    fn get(&mut self, key: u64) -> Option<StoredValue> {
        let found = self.map.get(&key).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn set(&mut self, key: u64, size: u32) -> Option<StoredValue> {
        let version = self.map.get(&key).map_or(0, |v| v.version + 1);
        self.map.insert(key, StoredValue { size, version })
    }

    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lazily preloaded KV store is observably the eager one: the
    /// same results for every GET and SET (sizes and versions), the same
    /// `len` and hit ratio, and the same RNG stream position afterwards,
    /// over random traffic to keys inside and outside the preload range.
    #[test]
    fn lazy_kv_preload_matches_eager_preload(
        seed in 0u64..1_000_000,
        keys in 0u64..300,
        ops in prop::collection::vec((0u8..4, 0u64..400, 1u32..5_000), 0..200),
    ) {
        let mut lazy_rng = SimRng::seed_from_u64(seed);
        let mut eager_rng = SimRng::seed_from_u64(seed);
        let mut lazy = KvStore::preloaded(keys, &mut lazy_rng);
        let mut eager = EagerKv::preloaded(keys, &mut eager_rng);
        prop_assert_eq!(lazy_rng.next_u64(), eager_rng.next_u64(), "preload consumed a different stride");
        prop_assert_eq!(lazy.len(), eager.map.len());
        for (i, &(op, key, size)) in ops.iter().enumerate() {
            if op == 0 {
                prop_assert_eq!(lazy.set(key, size), eager.set(key, size), "op {} SET {}", i, key);
            } else {
                prop_assert_eq!(lazy.get(key), eager.get(key), "op {} GET {}", i, key);
            }
            prop_assert_eq!(lazy.len(), eager.map.len(), "len after op {}", i);
        }
        prop_assert_eq!(lazy.hit_ratio().to_bits(), eager.hit_ratio().to_bits());
    }

    /// The histogram's percentile never undershoots the exact quantile and
    /// overshoots by at most the bucket's relative error.
    #[test]
    fn histogram_percentile_brackets_exact_quantile(
        values in prop::collection::vec(1_000u64..1_000_000_000, 10..400),
        p in 1.0f64..100.0,
    ) {
        let mut h = LatencyHistogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            h.record(SimDuration::from_ns(v));
        }
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
        let exact = sorted[rank] as f64;
        let got = h.percentile(p).as_ns() as f64;
        prop_assert!(got >= exact * 0.999, "p{p}: {got} < exact {exact}");
        prop_assert!(got <= exact * 1.017 + 1.0, "p{p}: {got} >> exact {exact}");
    }

    /// Event queues pop in non-decreasing time order for arbitrary inputs.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..10_000_000, 1..500)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// FIFO resources never travel back in time and conserve busy time.
    #[test]
    fn fifo_resource_conserves_busy_time(
        jobs in prop::collection::vec((0u64..50_000, 1u64..20_000), 1..300),
    ) {
        let mut r = FifoResource::new();
        let mut t = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        let mut last_end = SimTime::ZERO;
        for (gap, work) in jobs {
            t += SimDuration::from_ns(gap);
            let g = r.offer(t, SimDuration::from_ns(work));
            total += SimDuration::from_ns(work);
            prop_assert!(g.end >= last_end);
            prop_assert!(g.start >= t);
            last_end = g.end;
        }
        prop_assert_eq!(r.busy_time(), total);
    }

    /// The paper's Eq. (1)/(2) CI ranks are always valid indices with the
    /// median rank between them.
    #[test]
    fn nonparametric_ci_ranks_bracket_the_median(n in 6usize..5000) {
        if let Some((lo, hi)) = nonparametric_ci_ranks(n, 0.95) {
            prop_assert!(lo >= 1 && hi <= n && lo < hi, "ranks ({lo},{hi}) invalid for n={n}");
            let med_rank = (n + 1) as f64 / 2.0;
            prop_assert!((lo as f64) <= med_rank && med_rank <= hi as f64);
        }
    }

    /// The median always lies inside its own non-parametric CI.
    #[test]
    fn median_is_inside_its_ci(xs in prop::collection::vec(-1e6f64..1e6, 6..200)) {
        if let Some(ci) = nonparametric_median_ci(&xs, 0.95) {
            prop_assert!(ci.low <= ci.mid && ci.mid <= ci.high);
            prop_assert!(ci.contains(desc::median(&xs)));
        }
    }

    /// Shapiro-Wilk is invariant under affine transforms and returns a
    /// valid (W, p) pair for arbitrary non-degenerate samples.
    #[test]
    fn shapiro_wilk_is_affine_invariant(
        seed in 0u64..1_000,
        n in 10usize..200,
        scale in 0.001f64..1e6,
        shift in -1e6f64..1e6,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let d = Exponential::with_mean(10.0);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
        let a = shapiro_wilk(&xs).unwrap();
        let b = shapiro_wilk(&ys).unwrap();
        prop_assert!((0.0..=1.0).contains(&a.w));
        prop_assert!((0.0..=1.0).contains(&a.p_value));
        prop_assert!((a.w - b.w).abs() < 1e-7, "W not affine-invariant: {} vs {}", a.w, b.w);
    }

    /// RNG forks with distinct labels produce distinct streams;
    /// identical labels produce identical streams.
    #[test]
    fn rng_forks_are_stable_and_distinct(seed in 0u64..10_000, a in 0u64..1000, b in 0u64..1000) {
        let r = SimRng::seed_from_u64(seed);
        let mut fa = r.fork(a);
        let mut fa2 = r.fork(a);
        prop_assert_eq!(fa.next_u64(), fa2.next_u64());
        if a != b {
            let mut fb = r.fork(b);
            let mut fa3 = r.fork(a);
            prop_assert_ne!(fa3.next_u64(), fb.next_u64());
        }
    }

    /// Duration scaling is monotone in the factor.
    #[test]
    fn duration_scaling_is_monotone(ns in 0u64..1_000_000_000, f1 in 0.0f64..10.0, f2 in 0.0f64..10.0) {
        let d = SimDuration::from_ns(ns);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(d.scale(lo) <= d.scale(hi));
    }
}
