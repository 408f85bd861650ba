//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv_sweep|hdsearch_sweep|fleet_sharded|mitigation_control> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` times untraced passes over the workload for `--seconds`
//! and reports the end-to-end metrics. `--trace 1` alternates untraced
//! and traced passes, runs the layer probes, and reports the per-layer
//! metrics. Either way every pass's simulated results and work counters
//! are digested and must match the reference pass bit for bit; a
//! mismatch or a panic counts the affected operations as failed. All
//! timings are host time. The last line of standard output is one JSON
//! object; `BENCHMARK.json` at the repository root names the metrics
//! and `perfbench/LAYERS.md` says what each one measures.

mod calib;
mod heap;
mod observe;
mod probes;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calibration;

use observe::{DELIVER, OTHER, SEND};
use stats::{median, quantile};
use workloads::{ops_per_pass, run_pass, Pass, Workload, NAMES};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Shard or job workers for parallel passes: the benchmark host has two
/// cores.
const WORKERS: usize = 2;
/// Fewest timed passes per invocation, so medians have something to
/// take the middle of.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Counts operations and compares every pass against the reference.
struct Checker {
    reference: Option<Vec<u64>>,
    ops_per_pass: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// Runs one pass, catching a panic as the failure of all its
    /// operations, and checks its digests.
    fn pass(&mut self, what: &str, run: impl FnOnce() -> Pass) -> Option<Pass> {
        self.attempted += self.ops_per_pass;
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(pass) => {
                let digests = pass.digests();
                match &self.reference {
                    None => self.reference = Some(digests),
                    Some(reference) => self.compare(what, reference.clone(), &digests),
                }
                Some(pass)
            }
            Err(_) => {
                self.failed += self.ops_per_pass;
                self.notes.push(format!("FAILED {what}: the pass panicked"));
                None
            }
        }
    }

    fn compare(&mut self, what: &str, reference: Vec<u64>, digests: &[u64]) {
        let differing = reference.iter().zip(digests).filter(|(a, b)| a != b).count()
            + reference.len().abs_diff(digests.len());
        if differing > 0 {
            self.failed += differing as u64;
            self.notes
                .push(format!("MISMATCH {what}: {differing} operations differ from the reference pass"));
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Passes until the next one would overrun the budget (at least
/// `MIN_PASSES`, panicked ones included).
fn timed_passes(
    checker: &mut Checker,
    budget: Duration,
    mut one: impl FnMut(&mut Checker) -> Option<Pass>,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    for attempt in 1.. {
        let t = Instant::now();
        passes.extend(one(checker));
        if attempt >= MIN_PASSES && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    passes
}

fn end_to_end(
    w: &Workload,
    args: &Args,
    checker: &mut Checker,
    cal: &mut Calibration,
) -> (Metrics, Vec<Pass>) {
    // The reference pass fixes the expected digests: serial on the
    // fleets, so every timed 2-worker pass is also a serial-vs-parallel
    // check. An untimed 2-worker pass then warms caches and the workers'
    // allocator arenas.
    if !matches!(w, Workload::Sweep(_)) {
        checker.pass("serial reference pass", || run_pass::<false>(w, 1));
    }
    checker.pass("warm-up pass", || run_pass::<false>(w, WORKERS));
    let mut peak_heap_mb = Vec::new();
    let passes = timed_passes(checker, Duration::from_secs(args.seconds), |c| {
        cal.sample(3);
        heap::reset_peak();
        let pass = c.pass("timed pass", || run_pass::<false>(w, WORKERS));
        peak_heap_mb.push((heap::peak_bytes() - cal.bytes()) as f64 / (1024.0 * 1024.0));
        pass
    });
    let events_per_s: Vec<f64> =
        passes.iter().map(|p| p.events() as f64 / secs(p.observed_wall_ns)).collect();
    let setup_s: Vec<f64> = passes.iter().map(|p| secs(p.setup_ns())).collect();
    // Per-pass quantiles, then the median over passes: one noisy pass
    // cannot own the tail. (A fleet pass is a single operation.)
    let ops: Vec<Vec<f64>> = passes.iter().map(Pass::op_ms).collect();
    let job_ms = |q: f64| median(&ops.iter().map(|o| quantile(o, q)).collect::<Vec<_>>());
    println!("timed passes: {}, operations per pass: {}", passes.len(), ops.first().map_or(0, Vec::len));
    let per_pass: Vec<String> = events_per_s.iter().map(|v| format!("{:.3e}", v)).collect();
    println!("events_per_s per pass: {}", per_pass.join(" "));
    let metrics = vec![
        ("events_per_s", median(&events_per_s), "1/s"),
        ("setup_s", median(&setup_s), "s"),
        ("job_ms_p50", job_ms(0.5), "ms"),
        ("job_ms_p90", job_ms(0.9), "ms"),
        ("peak_heap_mb", median(&peak_heap_mb), "MB"),
    ];
    (metrics, passes)
}

/// Host-time parts of one traced pass, in ns.
struct Accounting {
    setup: u64,
    dispatch: [u64; 3],
    count: [u64; 3],
    epilogue: u64,
    merge: u64,
    windows: u64,
    decide: u64,
    wall: u64,
}

impl Accounting {
    fn of(pass: &Pass) -> Self {
        let mut a = Accounting {
            setup: pass.setup_ns(),
            dispatch: [0; 3],
            count: [0; 3],
            epilogue: 0,
            merge: 0,
            windows: 0,
            decide: 0,
            wall: pass.wall_ns,
        };
        for run in &pass.runs {
            a.epilogue += run.epilogue_ns();
            a.merge += run.merge_ns;
            for part in &run.parts {
                for k in [SEND, DELIVER, OTHER] {
                    a.dispatch[k] += part.ns[k];
                    a.count[k] += part.count[k];
                }
            }
        }
        for c in &pass.controlled {
            a.windows += c.windows_ns.iter().sum::<u64>();
            a.decide += c.decide_ns.iter().sum::<u64>();
        }
        a
    }

    fn dispatch_ns(&self) -> u64 {
        self.dispatch.iter().sum()
    }

    fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    fn accounted(&self) -> u64 {
        self.setup + self.dispatch_ns() + self.epilogue + self.merge + self.windows + self.decide
    }

    fn per_event(&self, k: usize) -> f64 {
        self.dispatch[k] as f64 / self.count[k].max(1) as f64
    }
}

fn per_layer(
    w: &Workload,
    args: &Args,
    checker: &mut Checker,
    cal: &mut Calibration,
) -> (Metrics, Vec<Pass>) {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut parallel = Vec::new();
    parallel.extend(checker.pass("reference pass (2 workers)", || run_pass::<false>(w, WORKERS)));
    // Traced passes run serially, so the parts of a pass add up to its
    // wall time; each is paired with an untraced serial pass for the
    // tracing overhead and an untraced 2-worker pass for the speed-up.
    let (mut serial, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed() < budget.mul_f64(0.75) {
        cal.sample(3);
        serial.extend(checker.pass("untraced serial pass", || run_pass::<false>(w, 1)));
        traced.extend(checker.pass("traced serial pass", || run_pass::<true>(w, 1)));
        parallel.extend(checker.pass("untraced 2-worker pass", || run_pass::<false>(w, WORKERS)));
        if checker.failed > 0 {
            break;
        }
    }
    if traced.is_empty() {
        return (Vec::new(), parallel);
    }
    let acct: Vec<Accounting> = traced.iter().map(Accounting::of).collect();
    let med = |f: &dyn Fn(&Accounting) -> f64| median(&acct.iter().map(f).collect::<Vec<_>>());
    let all_runs = || traced.iter().flat_map(|p| p.runs.iter());
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    let busy: Vec<f64> = parallel
        .iter()
        .map(|p| {
            let busy: u64 = p.runs.iter().flat_map(|r| r.parts.iter()).map(|part| part.busy_ns()).sum();
            busy as f64 / (WORKERS as f64 * p.observed_wall_ns as f64)
        })
        .collect();

    // Queue occupancy implied by the traced run, for the queue probe.
    let runs: Vec<_> = all_runs().collect();
    let weight: f64 = runs.iter().map(|r| r.events as f64).sum::<f64>().max(1.0);
    let occupancy = runs.iter().map(|r| r.events as f64 * r.occupancy).sum::<f64>() / weight;
    let spacing = runs.iter().map(|r| r.events as f64 * r.spacing_ns).sum::<f64>() / weight;
    println!("queue probe: occupancy {occupancy:.0} events, spacing {spacing:.1} ns (Little's law on the traced pass)");
    cal.sample(3);
    let probed = probes::run_all(occupancy.round() as usize, spacing.round() as u64);
    let probe = |name: &str| probed.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1);

    // Reconcile the probes against the traced dispatch time: every event
    // is scheduled and popped once; every send is one request, which
    // takes one slab slot, one network round trip, one send and one
    // receive on the generator, one inter-arrival draw and one service
    // request. (Core grants and sampler draws happen inside those calls.)
    let a0 = &acct[0];
    let service_ns = if args.workload == "hdsearch_sweep" {
        probe("services.request_ns.hdsearch")
    } else {
        probe("services.admit_ns.memcached")
    };
    let per_request = probe("sim.slab_ns_per_op")
        + probe("net.link_ns")
        + probe("loadgen.plan_send_ns")
        + probe("loadgen.receive_ns")
        + probe("loadgen.next_gap_ns")
        + service_ns;
    let modeled = a0.events() as f64 * probe("sim.queue_ns_per_op") + a0.count[SEND] as f64 * per_request;
    let dispatch_per_event = med(&|a| a.dispatch_ns() as f64 / a.events().max(1) as f64);
    let reconcile = modeled / (dispatch_per_event * a0.events().max(1) as f64);

    let mut metrics: Metrics = vec![
        (
            "runtime.setup_ms",
            median(&all_runs().map(|r| r.setup_ns() as f64 / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        ("runtime.dispatch_ns_per_event", dispatch_per_event, "ns"),
        ("runtime.send_ns", med(&|a| a.per_event(SEND)), "ns"),
        ("runtime.deliver_ns", med(&|a| a.per_event(DELIVER)), "ns"),
        ("runtime.other_ns", med(&|a| a.per_event(OTHER)), "ns"),
        ("runtime.events.send", a0.count[SEND] as f64, "count"),
        ("runtime.events.deliver", a0.count[DELIVER] as f64, "count"),
        ("runtime.events.other", a0.count[OTHER] as f64, "count"),
        (
            "runtime.epilogue_ms",
            median(&all_runs().map(|r| r.epilogue_ns() as f64 / 1e6).collect::<Vec<_>>()),
            "ms",
        ),
        ("runtime.runs", traced[0].runs.len() as f64, "count"),
        ("pool.speedup", wall(&serial) / wall(&parallel), "x"),
        ("pool.busy_frac", median(&busy), "ratio"),
    ];
    metrics.extend(probed.iter().copied());
    metrics.extend([
        ("layers.reconcile_ratio", reconcile, "ratio"),
        ("trace.coverage", med(&|a| a.accounted() as f64 / a.wall as f64), "ratio"),
        ("trace.overhead_frac", wall(&traced) / wall(&serial) - 1.0, "ratio"),
    ]);
    print_accounting(&acct);
    (metrics, parallel.into_iter().chain(serial).chain(traced).collect())
}

fn print_accounting(acct: &[Accounting]) {
    let a = &acct[0];
    let ms = |ns: u64| ns as f64 / 1e6;
    println!("traced pass (first of {}), host time by layer boundary:", acct.len());
    println!("  set-up            {:>10.2} ms", ms(a.setup));
    for (name, k) in [("send", SEND), ("deliver", DELIVER), ("other", OTHER)] {
        println!(
            "  dispatch {name:<8} {:>10.2} ms  ({} events, {:.1} ns/event)",
            ms(a.dispatch[k]),
            a.count[k],
            a.per_event(k)
        );
    }
    println!("  epilogue          {:>10.2} ms", ms(a.epilogue));
    if a.merge > 0 {
        println!("  merge             {:>10.2} ms", ms(a.merge));
    }
    if a.windows > 0 {
        println!("  control windows   {:>10.2} ms  (decide {:.3} ms)", ms(a.windows), ms(a.decide));
    }
    println!(
        "  accounted         {:>10.2} ms of {:.2} ms pass wall ({:.1}%)",
        ms(a.accounted()),
        ms(a.wall),
        100.0 * a.accounted() as f64 / a.wall as f64
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::build(&args.workload, args.seed, args.tiny) else {
        eprintln!("perfbench: unknown workload {:?} (known: {})", args.workload, NAMES.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {} workers {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut checker = Checker {
        reference: None,
        ops_per_pass: ops_per_pass(&w) as u64,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    // Sweeps: the JobPlan replay must reproduce `Experiment::run_with`.
    let experiment = catch_unwind(AssertUnwindSafe(|| w.experiment_digests(WORKERS))).unwrap_or_else(|_| {
        checker.attempted += checker.ops_per_pass;
        checker.failed += checker.ops_per_pass;
        checker.notes.push("FAILED Experiment::run_with panicked".into());
        None
    });
    let mut cal = Calibration::new();
    let (metrics, passes) = if args.trace {
        per_layer(&w, &args, &mut checker, &mut cal)
    } else {
        end_to_end(&w, &args, &mut checker, &mut cal)
    };
    if let (Some(expected), Some(first)) = (experiment, passes.first()) {
        let replayed: Vec<u64> = first.runs.iter().map(|r| r.result_digest).collect();
        checker.compare("JobPlan replay vs Experiment::run_with", expected, &replayed);
    }

    if let Some(first) = passes.first() {
        println!(
            "result digest: {:016x} over {} operations per pass",
            workloads::digest(&first.digests()),
            checker.ops_per_pass
        );
        let p99: Vec<f64> =
            first.runs.iter().map(|r| r.p99_us).chain(first.controlled.iter().map(|c| c.p99_us)).collect();
        println!(
            "simulated p99 (median over the pass's runs and controlled runs): {:.1} us — simulated, not a host metric; \
             the model is checked only against the paper's shape bands (tests/paper_shapes.rs), so no error figure is given",
            median(&p99)
        );
    }
    for note in &checker.notes {
        println!("{note}");
    }
    // Host times are reported in seconds of the reference host (see
    // `calib`); the raw reading is printed beside each.
    let slowdown = cal.slowdown();
    let (cal_ms, samples) = cal.summary();
    println!(
        "host speed: calibration loop {cal_ms:.3} ms (median of {samples}, reference {} ms), so host times \
         are divided by {slowdown:.4}",
        calib::REFERENCE_NS / 1e6
    );
    let mut correct = checker.failed == 0 && !passes.is_empty() && !metrics.is_empty() && slowdown > 0.0;
    let mut fields = Vec::with_capacity(metrics.len());
    for &(name, raw, unit) in &metrics {
        let value = match unit {
            "s" | "ms" | "us" | "ns" => raw / slowdown,
            "1/s" => raw * slowdown,
            _ => raw,
        };
        correct &= value.is_finite();
        println!("{name:<32} {value:>18.6} {unit:<6} (raw {raw:.6})");
        fields.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value)));
    }
    println!(
        "checks: {} of {} operations failed (failed_frac {:.4})",
        checker.failed,
        checker.attempted,
        checker.failed as f64 / checker.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted.max(1),
        checker.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
