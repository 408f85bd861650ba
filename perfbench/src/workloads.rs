//! The four workloads and one pass over each.
//!
//! A workload is a fixed set of simulation jobs generated from the seed.
//! One *pass* runs every job once on a pool of `workers` threads — the
//! engine's job pool for the sweeps, the runtime's shard pool for the
//! fleets — and the pool is closed-loop: a worker starts the next job
//! when it frees. Inside each simulated run, load stays open-loop at the
//! stated QPS.

use std::time::Instant;

use tpv_core::collect::{NullCollector, PerNodeCollector};
use tpv_core::control::{ControlResult, ControlSpec, Controller, HedgeRequests};
use tpv_core::engine::{fingerprint, Engine, JobPlan};
use tpv_core::experiment::{Benchmark, Experiment};
use tpv_core::runtime::{run_collected, run_sharded_collected, RunResult, RunSpec};
use tpv_core::scenarios::{hdsearch_smt_study, memcached_smt_study, HDSEARCH_QPS, MEMCACHED_QPS};
use tpv_core::topology::{uniform_fleet, ClientNode, NodeDynamics, ShardResult, ShardSpec, TopologySpec};
use tpv_hw::MachineConfig;
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{SimDuration, SimRng};

use crate::observe::{Marked, Observed, Part};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["kv_sweep", "hdsearch_sweep", "fleet_sharded", "mitigation_control"];

/// FNV-1a over a value's debug form: the digest of simulated results.
/// `f64` debug output is the shortest exact round-trip form, so equal
/// digests mean bit-identical results.
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A Fig. 2 / Fig. 4 grid as `Experiment` builds it, replayed job by job.
pub struct Sweep {
    benchmark: Benchmark,
    /// `(client, server, qps)` in `Experiment`'s cell order.
    cells: Vec<(MachineConfig, MachineConfig, f64)>,
    duration: SimDuration,
    plan: JobPlan,
    experiment: Experiment,
}

impl Sweep {
    /// The grid `study` builds, replayed on `benchmark`'s service.
    fn new(
        study: fn(&[f64], usize, SimDuration, u64) -> Experiment,
        benchmark: Benchmark,
        qps: &[f64],
        runs: usize,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let clients = [MachineConfig::low_power(), MachineConfig::high_performance()];
        let servers = [MachineConfig::server_baseline(), MachineConfig::server_baseline().with_smt(true)];
        let mut cells = Vec::new();
        for client in clients {
            for server in servers {
                for &q in qps {
                    cells.push((client, server, q));
                }
            }
        }
        let fingerprints: Vec<u64> =
            cells.iter().map(|cell| fingerprint(&cell_spec(&benchmark, cell, duration))).collect();
        let plan = JobPlan::new(seed, &fingerprints, runs);
        Sweep { benchmark, cells, duration, plan, experiment: study(qps, runs, duration, seed) }
    }

    fn spec(&self, c: usize) -> RunSpec<'_> {
        cell_spec(&self.benchmark, &self.cells[c], self.duration)
    }
}

/// The spec `Experiment` binds to a cell.
fn cell_spec<'a>(
    benchmark: &'a Benchmark,
    (client, server, qps): &'a (MachineConfig, MachineConfig, f64),
    duration: SimDuration,
) -> RunSpec<'a> {
    RunSpec {
        service: &benchmark.service,
        server,
        client,
        generator: &benchmark.generator,
        link: &benchmark.link,
        qps: *qps,
        duration,
        warmup: duration / 10,
    }
}

/// The `fleet_256` shape: one sharded fleet run.
pub struct Fleet {
    service: ServiceConfig,
    server: MachineConfig,
    shards: ShardSpec,
    nodes: Vec<ClientNode>,
    duration: SimDuration,
    seed: u64,
}

impl Fleet {
    fn topology(&self) -> TopologySpec<'_> {
        TopologySpec {
            shards: Some(&self.shards),
            service: &self.service,
            server: &self.server,
            nodes: &self.nodes,
            duration: self.duration,
            warmup: self.duration / 10,
            cohorts: &[],
        }
    }
}

/// The `ext_mitigation` fleet under `HedgeRequests`, plus its
/// uncontrolled whole-horizon baseline run.
pub struct Control {
    spec: ControlSpec,
    policy: HedgeRequests,
    seeds: Vec<u64>,
}

impl Control {
    /// The baseline: the same fleet, dynamics and tier as one plain
    /// sharded run over the whole horizon.
    fn baseline(&self) -> TopologySpec<'_> {
        TopologySpec {
            shards: Some(&self.spec.shards),
            service: &self.spec.service,
            server: &self.spec.shards.machines[0],
            nodes: &self.spec.nodes,
            duration: self.spec.horizon(),
            warmup: self.spec.warmup,
            cohorts: &[],
        }
    }
}

/// A workload's generated inputs.
pub enum Workload {
    /// `kv_sweep` or `hdsearch_sweep`.
    Sweep(Sweep),
    /// `fleet_sharded`.
    Fleet(Fleet),
    /// `mitigation_control`.
    Control(Control),
}

/// Memcached as the `fleet_256` perf scenario configures it (10K keys).
fn small_memcached() -> ServiceConfig {
    ServiceConfig::new(ServiceKind::Memcached(KvConfig { preload_keys: 10_000, ..KvConfig::default() }))
}

/// The `ext_mitigation` control spec over `horizon`.
fn mitigation_spec(horizon: SimDuration) -> ControlSpec {
    const FLEET: usize = 16;
    const WINDOWS: usize = 6;
    let window = SimDuration::from_ns(horizon.as_ns() / WINDOWS as u64);
    let horizon = window * WINDOWS as u64;
    let gen = GeneratorSpec::mutilate().with_connections(160 / FLEET as u32);
    let rate = PhasedRate::diurnal(horizon, WINDOWS, 0.5);
    let nodes = (0..FLEET)
        .map(|i| {
            let (label, machine) = if i % 4 == 3 {
                (format!("bad{i}"), MachineConfig::low_power())
            } else {
                (format!("agent{i}"), MachineConfig::high_performance())
            };
            ClientNode::new(label, machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
                .with_dynamics(NodeDynamics::new(rate.schedule().clone()).with_rate_plan(rate.clone()))
        })
        .collect();
    ControlSpec {
        service: Benchmark::memcached().service,
        shards: ShardSpec::uniform(MachineConfig::server_baseline(), 4),
        nodes,
        window,
        windows: WINDOWS,
        warmup: SimDuration::from_ns(window.as_ns() / 5),
    }
}

impl Workload {
    /// Generates workload `name`'s inputs from `seed`; `tiny` shrinks
    /// every run for the self-check and the layer probes. `None` for an
    /// unknown name.
    pub fn build(name: &str, seed: u64, tiny: bool) -> Option<Workload> {
        // Every seed the program sees derives from the benchmark seed.
        let mut seeds = SimRng::seed_from_u64(seed);
        Some(match name {
            "kv_sweep" => {
                let (runs, ms) = if tiny { (1, 5) } else { (4, 100) };
                let (duration, seed) = (SimDuration::from_ms(ms), seeds.next_u64());
                Workload::Sweep(Sweep::new(
                    memcached_smt_study,
                    Benchmark::memcached(),
                    &MEMCACHED_QPS,
                    runs,
                    duration,
                    seed,
                ))
            }
            "hdsearch_sweep" => {
                let (runs, ms) = if tiny { (1, 40) } else { (5, 300) };
                let (duration, seed) = (SimDuration::from_ms(ms), seeds.next_u64());
                Workload::Sweep(Sweep::new(
                    hdsearch_smt_study,
                    Benchmark::hdsearch(),
                    &HDSEARCH_QPS,
                    runs,
                    duration,
                    seed,
                ))
            }
            "fleet_sharded" => {
                let server = MachineConfig::server_baseline();
                Workload::Fleet(Fleet {
                    service: small_memcached(),
                    server,
                    shards: ShardSpec::uniform(server, 16),
                    nodes: uniform_fleet(
                        "agent",
                        MachineConfig::high_performance(),
                        GeneratorSpec::mutilate().with_connections(512),
                        LinkConfig::cloudlab_lan(),
                        25_600_000.0,
                        256,
                    ),
                    duration: SimDuration::from_ms(if tiny { 4 } else { 60 }),
                    seed: seeds.next_u64(),
                })
            }
            "mitigation_control" => {
                let (runs, horizon) = if tiny { (1, 30) } else { (3, 120) };
                Workload::Control(Control {
                    spec: mitigation_spec(SimDuration::from_ms(horizon)),
                    policy: HedgeRequests {
                        threshold: SimDuration::from_us(150),
                        deadline: SimDuration::from_us(120),
                    },
                    seeds: (0..runs).map(|_| seeds.next_u64()).collect(),
                })
            }
            _ => return None,
        })
    }

    /// Runs `Experiment::run_with` on the sweep's own experiment and
    /// returns its per-job digests in `(cell, run)` order — the
    /// reference a `JobPlan` replay must reproduce. `None` for fleets.
    pub fn experiment_digests(&self, workers: usize) -> Option<Vec<u64>> {
        let Workload::Sweep(s) = self else { return None };
        let results = s.experiment.run_with(&Engine::with_workers(workers));
        Some(results.cells().iter().flat_map(|c| c.samples.iter().map(digest)).collect())
    }
}

/// One simulation run as the collector saw it.
pub struct RunObs {
    /// Run call entry and return.
    pub entry: Instant,
    /// See `entry`.
    pub ret: Instant,
    /// Every partition, in shard order.
    pub parts: Vec<Part>,
    /// Host ns inside `merge`.
    pub merge_ns: u64,
    /// Exact dispatched events.
    pub events: u64,
    /// Simulated aggregate p99, µs.
    pub p99_us: f64,
    /// Events-weighted mean event-queue occupancy and event spacing
    /// (ns) over the partitions, estimated with Little's law from the
    /// simulated results.
    pub occupancy: f64,
    /// See `occupancy`.
    pub spacing_ns: f64,
    /// Digest of the aggregate result alone.
    pub result_digest: u64,
    /// Digest of every simulated result and work counter.
    pub digest: u64,
}

impl RunObs {
    fn new<C, const SPANS: bool>(
        entry: Instant,
        ret: Instant,
        collector: Observed<C, SPANS>,
        result: &RunResult,
        shards: Option<&[ShardResult]>,
        per_part: impl Fn(usize) -> (u32, f64),
    ) -> (RunObs, C) {
        let (inner, parts, merge_ns) = collector.into_parts();
        let events: u64 = parts.iter().map(|p| p.events).sum();
        let (mut occ, mut spacing) = (0.0, 0.0);
        for (i, p) in parts.iter().enumerate() {
            let r = shards.map_or(result, |s| &s[i].result);
            let (conns, qps) = per_part(i);
            let inflight = r.achieved_qps * r.avg.as_secs();
            occ += p.events as f64 * (conns as f64 + inflight);
            if qps > 0.0 {
                spacing += p.events as f64 * 1e9 / qps;
            }
        }
        let w = (events as f64).max(1.0);
        let obs = RunObs {
            entry,
            ret,
            parts,
            merge_ns,
            events,
            p99_us: result.p99_us(),
            occupancy: occ / w,
            spacing_ns: spacing / w,
            result_digest: digest(result),
            digest: digest(&(result, shards, events)),
        };
        (obs, inner)
    }

    /// Host ns of the run's set-up: entry to the first partition's
    /// collector, plus each partition's creation to its first event.
    pub fn setup_ns(&self) -> u64 {
        let first_made = self.parts.iter().map(|p| p.created).min().unwrap_or(self.entry);
        let pre = first_made.saturating_duration_since(self.entry).as_nanos() as u64;
        pre + self.parts.iter().map(Part::setup_ns).sum::<u64>()
    }

    /// Host ns of the run's epilogue: the per-node epilogues plus the
    /// final stretch from the last `on_node_done` to the return, less
    /// the merges inside it.
    pub fn epilogue_ns(&self) -> u64 {
        let last_done = self.parts.iter().filter_map(|p| p.done.map(|d| d.1)).max().unwrap_or(self.ret);
        let tail = self.ret.saturating_duration_since(last_done).as_nanos() as u64;
        self.parts.iter().map(Part::epilogue_ns).sum::<u64>() + tail.saturating_sub(self.merge_ns)
    }

    /// Host ns from entry to return.
    pub fn wall_ns(&self) -> u64 {
        self.ret.saturating_duration_since(self.entry).as_nanos() as u64
    }
}

/// One controlled run as the marked policy saw it.
pub struct ControlObs {
    /// Host ns per window, and per `decide` call.
    pub windows_ns: Vec<u64>,
    /// See `windows_ns`.
    pub decide_ns: Vec<u64>,
    /// Hedge legs fired over the run (simulated).
    pub hedges: u64,
    /// Per-window digests.
    pub window_digests: Vec<u64>,
    /// Worst window's simulated pooled p99, µs.
    pub p99_us: f64,
}

/// Everything one pass produced.
pub struct Pass {
    /// Host ns of the whole pass.
    pub wall_ns: u64,
    /// Host ns of the stretch of the pass whose runs the collector
    /// observed (the whole pass, except on `mitigation_control`, whose
    /// controller builds its runs internally).
    pub observed_wall_ns: u64,
    /// Observed simulation runs, in job order.
    pub runs: Vec<RunObs>,
    /// Controlled runs.
    pub controlled: Vec<ControlObs>,
}

impl Pass {
    /// Digests of every operation, in a fixed order: observed runs, then
    /// control windows.
    pub fn digests(&self) -> Vec<u64> {
        let runs = self.runs.iter().map(|r| r.digest);
        runs.chain(self.controlled.iter().flat_map(|c| c.window_digests.iter().copied())).collect()
    }

    /// Host ms of each primary operation: a sweep job, a fleet run, or
    /// a control window.
    pub fn op_ms(&self) -> Vec<f64> {
        if self.controlled.is_empty() {
            self.runs.iter().map(|r| r.wall_ns() as f64 / 1e6).collect()
        } else {
            self.controlled.iter().flat_map(|c| c.windows_ns.iter().map(|&ns| ns as f64 / 1e6)).collect()
        }
    }

    /// Events dispatched by the observed runs.
    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Summed set-up host ns of the observed runs.
    pub fn setup_ns(&self) -> u64 {
        self.runs.iter().map(RunObs::setup_ns).sum()
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs one pass of `w` on `workers` threads; `SPANS` selects the traced
/// collector.
pub fn run_pass<const SPANS: bool>(w: &Workload, workers: usize) -> Pass {
    let start = Instant::now();
    match w {
        Workload::Sweep(s) => {
            // `run_once`'s exact topology, with the observing collector in
            // place of `NullCollector`.
            let jobs = Engine::with_workers(workers).execute_jobs(&s.plan, |job| {
                let spec = s.spec(job.cell);
                let nodes = [spec.client_node()];
                let topo = TopologySpec {
                    shards: None,
                    service: spec.service,
                    server: spec.server,
                    nodes: &nodes,
                    duration: spec.duration,
                    warmup: spec.warmup,
                    cohorts: &[],
                };
                let entry = Instant::now();
                let mut c = Observed::<NullCollector, SPANS>::new(NullCollector);
                let result = run_collected(&topo, job.seed, &mut c);
                (entry, Instant::now(), c, result)
            });
            let wall_ns = ns_since(start);
            let runs = jobs
                .into_iter()
                .map(|(cell, _, (entry, ret, c, result))| {
                    let spec = s.spec(cell);
                    let conns = spec.generator.connections.max(1);
                    RunObs::new(entry, ret, c, &result, None, |_| (conns, spec.qps)).0
                })
                .collect();
            Pass { wall_ns, observed_wall_ns: wall_ns, runs, controlled: Vec::new() }
        }
        Workload::Fleet(f) => {
            let topo = f.topology();
            let n = f.nodes.len();
            let entry = Instant::now();
            let (result, shards, c) = run_sharded_collected(&topo, f.seed, workers, |_, _| {
                Observed::<PerNodeCollector, SPANS>::new(PerNodeCollector::new(n))
            });
            let ret = Instant::now();
            let wall_ns = ns_since(start);
            let run = sharded_obs(entry, ret, c, &result, &shards, &f.nodes);
            Pass { wall_ns, observed_wall_ns: wall_ns, runs: vec![run], controlled: Vec::new() }
        }
        Workload::Control(ctl) => {
            let marked = Marked::new(&ctl.policy);
            let mut controlled = Vec::with_capacity(ctl.seeds.len());
            let mut results: Vec<ControlResult> = Vec::with_capacity(ctl.seeds.len());
            for &seed in &ctl.seeds {
                let entry = Instant::now();
                let result = Controller::new(&ctl.spec, &marked).run(seed, workers);
                let (windows_ns, decide_ns) = marked.take_windows(entry, Instant::now());
                controlled.push(ControlObs {
                    windows_ns,
                    decide_ns,
                    hedges: result.total_hedges(),
                    window_digests: Vec::new(),
                    p99_us: result.worst_window_p99(0).as_us(),
                });
                results.push(result);
            }
            let observed_start = Instant::now();
            let topo = ctl.baseline();
            let n = ctl.spec.nodes.len();
            let mut baselines = Vec::with_capacity(ctl.seeds.len());
            for &seed in &ctl.seeds {
                let entry = Instant::now();
                let (result, shards, c) = run_sharded_collected(&topo, seed, workers, |_, _| {
                    Observed::<PerNodeCollector, SPANS>::new(PerNodeCollector::new(n))
                });
                baselines.push((entry, Instant::now(), c, result, shards));
            }
            let wall_ns = ns_since(start);
            let observed_wall_ns = ns_since(observed_start);
            for (obs, result) in controlled.iter_mut().zip(&results) {
                obs.window_digests = result
                    .windows
                    .iter()
                    .map(|win| {
                        let decided: Vec<_> =
                            result.decisions.iter().filter(|d| d.window == win.window).collect();
                        digest(&(win, decided))
                    })
                    .collect();
            }
            let runs = baselines
                .into_iter()
                .map(|(entry, ret, c, result, shards)| {
                    sharded_obs(entry, ret, c, &result, &shards, &ctl.spec.nodes)
                })
                .collect();
            Pass { wall_ns, observed_wall_ns, runs, controlled }
        }
    }
}

fn sharded_obs<const SPANS: bool>(
    entry: Instant,
    ret: Instant,
    c: Observed<PerNodeCollector, SPANS>,
    result: &RunResult,
    shards: &[ShardResult],
    nodes: &[ClientNode],
) -> RunObs {
    let per_part = |i: usize| {
        let members = shards[i].nodes.iter().map(|&n| &nodes[n]);
        members.fold((0, 0.0), |(c, q), node| (c + node.generator.connections.max(1), q + node.qps))
    };
    let (mut obs, per_node) = RunObs::new(entry, ret, c, result, Some(shards), per_part);
    obs.digest = digest(&(obs.digest, per_node.into_results()));
    obs
}

/// Operations per pass: observed runs plus control windows.
pub fn ops_per_pass(w: &Workload) -> usize {
    match w {
        Workload::Sweep(s) => s.plan.jobs().len(),
        Workload::Fleet(_) => 1,
        Workload::Control(c) => c.seeds.len() * (1 + c.spec.windows),
    }
}
