//! Golden pins of `run_once` outputs across every spec shape the study
//! registry exercises (service kinds × client configs × server scenarios
//! × generator taxonomies).
//!
//! The 1×1 rows pin the single node under the same content-addressed
//! stream layout as every fleet node: its streams fork from the global
//! master under its content key. Floats are pinned via `f64::to_bits`,
//! durations via nanoseconds, so there is no tolerance to hide behind.
//!
//! To regenerate after an *intentional* semantic change (see the
//! golden-regeneration policy in ARCHITECTURE.md):
//! `cargo test --release --test golden_runtime -- --ignored --nocapture print_goldens`
//! and paste the printed rows over the affected tables.

use tpv_core::control::{
    AdmissionThrottle, ControlSpec, Controller, DoNothing, HedgeRequests, MitigationPolicy, RemediateNode,
    RerouteHotShard,
};
use tpv_core::runtime::{run_fleet, run_once, RunResult, RunSpec};
use tpv_core::topology::{ClientNode, CohortSpec, NodeDynamics, ShardPolicy, ShardSpec, TopologySpec};
use tpv_hw::{CStatePolicy, MachineConfig};
use tpv_loadgen::{GeneratorSpec, LoopMode, PointOfMeasurement, TimingMode};
use tpv_net::LinkConfig;
use tpv_services::hdsearch::HdSearchConfig;
use tpv_services::kv::KvConfig;
use tpv_services::socialnet::SocialConfig;
use tpv_services::synthetic::SyntheticConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

/// One pinned case: a name, the seed, and the bit-exact observation.
struct Golden {
    name: &'static str,
    seed: u64,
    /// `[avg, p50, p99, max, std_dev, samples, achieved_bits, target_bits,
    ///   late_bits, slip, w0, w1, w2, w3, energy_bits, truncated]`
    /// (durations in ns, floats as `f64::to_bits`).
    row: [u64; 16],
}

/// The spec shapes under pin, matching the registry studies: every
/// service kind, both Table II clients, all three server scenarios, both
/// timing modes, open and closed loops, and a non-default measurement
/// point. Each returns owned parts; the caller borrows them into a
/// `RunSpec`.
struct Parts {
    service: ServiceConfig,
    client: MachineConfig,
    server: MachineConfig,
    generator: GeneratorSpec,
    link: LinkConfig,
    qps: f64,
}

fn cases() -> Vec<(&'static str, Parts)> {
    let kv = || ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    vec![
        (
            "memcached-lp-base",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
        ),
        (
            "memcached-hp-base",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
        ),
        (
            "memcached-hp-smton",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline().with_smt(true),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 300_000.0,
            },
        ),
        (
            "memcached-lp-c1eon",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline().with_cstates(CStatePolicy::UpToC1E),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 50_000.0,
            },
        ),
        (
            "hdsearch-hp-base",
            Parts {
                service: ServiceConfig::new(ServiceKind::HdSearch(HdSearchConfig {
                    dataset_size: 1024,
                    profile_queries: 32,
                    ..HdSearchConfig::default()
                })),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::microsuite_client(),
                link: LinkConfig::cloudlab_lan(),
                qps: 1_000.0,
            },
        ),
        (
            // The shape the repository benchmark runs (4096 vectors,
            // 256 profile queries): pins the full-size index build.
            "hdsearch-hp-default",
            Parts {
                service: ServiceConfig::new(ServiceKind::HdSearch(HdSearchConfig::default())),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::microsuite_client(),
                link: LinkConfig::cloudlab_lan(),
                qps: 1_000.0,
            },
        ),
        (
            "socialnet-lp-base",
            Parts {
                service: ServiceConfig::new(ServiceKind::SocialNetwork(SocialConfig {
                    users: 500,
                    ..SocialConfig::default()
                })),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::wrk2(),
                link: LinkConfig::cloudlab_lan(),
                qps: 300.0,
            },
        ),
        (
            "synthetic-hp-100us",
            Parts {
                service: ServiceConfig::new(ServiceKind::Synthetic(SyntheticConfig::with_delay(
                    SimDuration::from_us(100),
                ))),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::synthetic_client(),
                link: LinkConfig::cloudlab_lan(),
                qps: 10_000.0,
            },
        ),
        (
            "memcached-hp-closed",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate().closed_loop(SimDuration::from_us(100)),
                link: LinkConfig::cloudlab_lan(),
                qps: 50_000.0,
            },
        ),
        (
            "memcached-lp-busywait-kernel",
            Parts {
                service: kv(),
                client: MachineConfig::low_power(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate()
                    .with_timing(TimingMode::BusyWait)
                    .with_pom(PointOfMeasurement::Kernel),
                link: LinkConfig::ideal(),
                qps: 100_000.0,
            },
        ),
    ]
}

/// The bit-exact 16-field projection every golden table pins — one
/// definition, so the suites cannot silently pin different projections
/// of a future `RunResult` field.
fn golden_row(r: &RunResult) -> [u64; 16] {
    [
        r.avg.as_ns(),
        r.p50.as_ns(),
        r.p99.as_ns(),
        r.max.as_ns(),
        r.std_dev.as_ns(),
        r.samples,
        r.achieved_qps.to_bits(),
        r.target_qps.to_bits(),
        r.late_send_fraction.to_bits(),
        r.mean_send_slip.as_ns(),
        r.client_wakes[0],
        r.client_wakes[1],
        r.client_wakes[2],
        r.client_wakes[3],
        r.client_energy_core_secs.to_bits(),
        r.truncated_inflight,
    ]
}

fn observe(parts: &Parts, seed: u64) -> [u64; 16] {
    let spec = RunSpec {
        service: &parts.service,
        server: &parts.server,
        client: &parts.client,
        generator: &parts.generator,
        link: &parts.link,
        qps: parts.qps,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
    };
    let r: RunResult = run_once(&spec, seed);
    golden_row(&r)
}

/// One pinned phased case: aggregate row in `GOLDEN` format plus
/// per-phase `(samples, p99 ns)` pairs — a boundary drift in either the
/// regime bucketing or the dynamic kernel itself trips the pin.
struct PhasedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    phases: &'static [[u64; 2]],
}

/// The phased spec shapes under pin: a mid-run machine decay and a
/// stepped load, both 1-node topologies through the same kernel as the
/// static pins.
fn phased_cases() -> Vec<(&'static str, Parts, NodeDynamics)> {
    let kv = || ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let boundary = PhaseSchedule::new(vec![SimTime::from_ms(30)]);
    vec![
        (
            "memcached-decay-flip",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
            NodeDynamics::new(boundary.clone())
                .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
        ),
        (
            "memcached-stepped-load",
            Parts {
                service: kv(),
                client: MachineConfig::high_performance(),
                server: MachineConfig::server_baseline(),
                generator: GeneratorSpec::mutilate(),
                link: LinkConfig::cloudlab_lan(),
                qps: 100_000.0,
            },
            NodeDynamics::new(boundary).with_rates(vec![0.5, 2.0]),
        ),
    ]
}

fn observe_phased(parts: &Parts, dynamics: &NodeDynamics, seed: u64) -> ([u64; 16], Vec<[u64; 2]>) {
    let spec = RunSpec {
        service: &parts.service,
        server: &parts.server,
        client: &parts.client,
        generator: &parts.generator,
        link: &parts.link,
        qps: parts.qps,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
    };
    let nodes = [spec.client_node().with_dynamics(dynamics.clone())];
    let topo = TopologySpec {
        shards: None,
        service: &parts.service,
        server: &parts.server,
        nodes: &nodes,
        duration: spec.duration,
        warmup: spec.warmup,
        cohorts: &[],
    };
    let phased = run_fleet(&topo, seed, 1).expect("valid phased golden topology");
    let row = golden_row(&phased.aggregate);
    let phases = phased.phases.iter().map(|p| [p.samples, p.p99.as_ns()]).collect();
    (row, phases)
}

/// One pinned sharded case: aggregate row in `GOLDEN` format plus
/// per-shard `(samples, p99 ns)` pairs — a drift in the shard
/// partitioning, the per-shard RNG streams or the canonical merge trips
/// the pin. Observed through the *parallel* kernel, so the pin also
/// guards thread-count independence against the serial suite.
struct ShardedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    shards: &'static [[u64; 2]],
}

/// The sharded spec shapes under pin: a mixed HP/LP fleet over four
/// uniform backends, with the uniform round-robin and the skewed
/// hot-shard assignment.
fn sharded_cases() -> Vec<(&'static str, ShardSpec, Vec<ClientNode>)> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..8)
        .map(|i| {
            let machine =
                if i % 4 == 3 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            ClientNode::new(format!("agent{i}"), machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
        })
        .collect();
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
    vec![
        ("memcached-sharded-rr", tier.clone(), nodes.clone()),
        ("memcached-sharded-hot", tier.with_policy(ShardPolicy::HotShard { hot: 0, share: 0.5 }), nodes),
    ]
}

fn observe_sharded(shards: &ShardSpec, nodes: &[ClientNode], seed: u64) -> ([u64; 16], Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: Some(shards),
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts: &[],
    };
    // Three workers over four shards: the parallel path with an uneven
    // split, the strictest schedule to stay bit-identical under.
    let sharded = run_fleet(&topo, seed, 3).expect("valid topology");
    let row = golden_row(&sharded.aggregate);
    let shards_out = sharded.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
    (row, shards_out)
}

/// One pinned phased×sharded case: aggregate row in `GOLDEN` format
/// plus per-shard and per-phase `(samples, p99 ns)` pairs — a drift in
/// the shard partitioning, the dynamic kernel, or the canonical
/// `(shard_key, shard_index)` per-phase merge order trips the pin.
/// Observed through the *parallel* path, and re-checked at 1/2/3/4/8
/// workers by the pin test.
struct PhasedShardedGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    shards: &'static [[u64; 2]],
    phases: &'static [[u64; 2]],
}

/// The phased×sharded spec shapes under pin: the sharded golden fleet
/// with mid-run dynamics layered on — even nodes decay HP -> LP at the
/// boundary, odd nodes step their offered rate — over the uniform and
/// hot-shard tiers.
fn phased_sharded_cases() -> Vec<(&'static str, ShardSpec, Vec<ClientNode>)> {
    let boundary = PhaseSchedule::new(vec![SimTime::from_ms(30)]);
    let dynamic =
        |nodes: Vec<ClientNode>| -> Vec<ClientNode> {
            nodes
                .into_iter()
                .enumerate()
                .map(|(i, node)| {
                    if i % 2 == 0 {
                        node.with_dynamics(NodeDynamics::new(boundary.clone()).with_machines(vec![
                            MachineConfig::high_performance(),
                            MachineConfig::low_power(),
                        ]))
                    } else {
                        node.with_dynamics(NodeDynamics::new(boundary.clone()).with_rates(vec![0.8, 1.6]))
                    }
                })
                .collect()
        };
    sharded_cases()
        .into_iter()
        .map(|(name, shards, nodes)| {
            let renamed = match name {
                "memcached-sharded-rr" => "memcached-phased-sharded-rr",
                _ => "memcached-phased-sharded-hot",
            };
            (renamed, shards, dynamic(nodes))
        })
        .collect()
}

fn observe_phased_sharded(
    shards: &ShardSpec,
    nodes: &[ClientNode],
    seed: u64,
    workers: usize,
) -> ([u64; 16], Vec<[u64; 2]>, Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards: Some(shards),
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts: &[],
    };
    let run = run_fleet(&topo, seed, workers).expect("valid phased sharded golden topology");
    let row = golden_row(&run.aggregate);
    let per_shard = run.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
    let per_phase = run.phases.iter().map(|p| [p.samples, p.p99.as_ns()]).collect();
    (row, per_shard, per_phase)
}

/// One pinned cohorted case: aggregate row in `GOLDEN` format plus
/// per-cohort `(samples, p99 ns)` pairs — a drift in the cohort
/// lowering, the pooled arrival superposition or the per-cohort
/// canonical merge trips the pin. Observed through the parallel
/// `run_fleet` entry point.
struct CohortGolden {
    name: &'static str,
    seed: u64,
    row: [u64; 16],
    cohorts: &'static [[u64; 2]],
}

/// One pinned cohorted shape: name, optional shard tier, explicit
/// nodes, cohorts.
type CohortCase = (&'static str, Option<ShardSpec>, Vec<ClientNode>, Vec<CohortSpec>);

/// The cohorted spec shapes under pin: an LP and an HP cohort with
/// tracked representatives next to an explicit node (unsharded), and
/// the same cohorts spread over a four-shard tier.
fn cohort_cases() -> Vec<CohortCase> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let link = LinkConfig::cloudlab_lan();
    let lp = ClientNode::new("lp-class", MachineConfig::low_power(), gen, link, 200.0);
    let hp = ClientNode::new("hp-class", MachineConfig::high_performance(), gen, link, 300.0);
    let cohorts = vec![CohortSpec::new(lp, 60).with_tracked(2), CohortSpec::new(hp, 40).with_tracked(1)];
    let solo = vec![ClientNode::new("solo", MachineConfig::high_performance(), gen, link, 20_000.0)];
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
    vec![
        ("memcached-cohort-mixed", None, solo, cohorts.clone()),
        ("memcached-cohort-sharded", Some(tier), Vec::new(), cohorts),
    ]
}

fn observe_cohort(
    shards: Option<&ShardSpec>,
    nodes: &[ClientNode],
    cohorts: &[CohortSpec],
    seed: u64,
) -> ([u64; 16], Vec<[u64; 2]>) {
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    let topo = TopologySpec {
        shards,
        service: &service,
        server: &server,
        nodes,
        duration: SimDuration::from_ms(60),
        warmup: SimDuration::from_ms(6),
        cohorts,
    };
    let run = run_fleet(&topo, seed, 3).expect("valid topology");
    let row = golden_row(&run.aggregate);
    let per_cohort = run.cohorts.iter().map(|c| [c.result.samples, c.result.p99.as_ns()]).collect();
    (row, per_cohort)
}

/// One pinned controlled run: per-window `(samples, p99 ns)` pairs plus
/// the decision and hedge counts — a drift in the windowed observer, a
/// policy's decision function, the mitigation rewrites or the hedge
/// leg's RNG stream trips the pin. Checked at 1/2/3/4/8 workers: a
/// controller decision is a pure function of canonical-order windowed
/// stats, so the schedule cannot leak into a single bit.
struct ControlGolden {
    name: &'static str,
    seed: u64,
    windows: &'static [[u64; 2]],
    decisions: u64,
    hedges: u64,
}

/// The controlled fleet under pin: the sharded golden fleet's shape (two
/// low-power stragglers in an otherwise high-performance fleet, uniform
/// round-robin over four backends — which parks both LP nodes on shard
/// 3), run as three 20 ms control windows.
fn control_spec() -> ControlSpec {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    let nodes: Vec<ClientNode> = (0..8)
        .map(|i| {
            let machine =
                if i % 4 == 3 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            ClientNode::new(format!("agent{i}"), machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
        })
        .collect();
    ControlSpec {
        service: ServiceConfig::new(ServiceKind::Memcached(KvConfig::default())),
        shards: ShardSpec::uniform(MachineConfig::server_baseline(), 4),
        nodes,
        window: SimDuration::from_ms(20),
        windows: 3,
        warmup: SimDuration::from_ms(4),
    }
}

/// Every shipped policy, parameterized to trip on the LP stragglers
/// (whose windowed p99 sits far above the 150 µs threshold) and nothing
/// else.
fn control_policies() -> Vec<Box<dyn MitigationPolicy>> {
    let threshold = SimDuration::from_us(150);
    vec![
        Box::new(DoNothing),
        Box::new(HedgeRequests { threshold, deadline: SimDuration::from_us(120) }),
        Box::new(RerouteHotShard { min_ratio: 1.5, max_moves: 2 }),
        Box::new(RemediateNode { threshold, config: MachineConfig::high_performance() }),
        Box::new(AdmissionThrottle { threshold, factor: 0.5, floor: 0.2 }),
    ]
}

fn observe_control(policy: &dyn MitigationPolicy, seed: u64, workers: usize) -> (Vec<[u64; 2]>, u64, u64) {
    let spec = control_spec();
    let result = Controller::new(&spec, policy).run(seed, workers);
    let windows = result.windows.iter().map(|w| [w.aggregate.samples, w.aggregate.p99.as_ns()]).collect();
    (windows, result.decisions.len() as u64, result.total_hedges())
}

/// Regeneration helper (not part of the suite): prints `GOLDEN`,
/// `GOLDEN_PHASED`, `GOLDEN_SHARDED`, `GOLDEN_COHORT` and
/// `GOLDEN_CONTROL` rows.
#[test]
#[ignore = "regeneration helper; run with --ignored --nocapture"]
fn print_goldens() {
    for (name, parts) in cases() {
        for seed in [2024u64, 7] {
            let row = observe(&parts, seed);
            println!("    Golden {{ name: \"{name}\", seed: {seed}, row: {row:?} }},");
        }
    }
    println!();
    for (name, parts, dynamics) in phased_cases() {
        for seed in [2024u64, 7] {
            let (row, phases) = observe_phased(&parts, &dynamics, seed);
            println!(
                "    PhasedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, phases: &{phases:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes) in sharded_cases() {
        for seed in [2024u64, 7] {
            let (row, per_shard) = observe_sharded(&shards, &nodes, seed);
            println!(
                "    ShardedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, shards: &{per_shard:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes, cohorts) in cohort_cases() {
        for seed in [2024u64, 7] {
            let (row, per_cohort) = observe_cohort(shards.as_ref(), &nodes, &cohorts, seed);
            println!(
                "    CohortGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, cohorts: &{per_cohort:?} }},"
            );
        }
    }
    println!();
    for (name, shards, nodes) in phased_sharded_cases() {
        for seed in [2024u64, 7] {
            let (row, per_shard, per_phase) = observe_phased_sharded(&shards, &nodes, seed, 3);
            println!(
                "    PhasedShardedGolden {{ name: \"{name}\", seed: {seed}, row: {row:?}, shards: &{per_shard:?}, phases: &{per_phase:?} }},"
            );
        }
    }
    println!();
    for policy in control_policies() {
        for seed in [2024u64, 7] {
            let (windows, decisions, hedges) = observe_control(policy.as_ref(), seed, 3);
            println!(
                "    ControlGolden {{ name: \"{}\", seed: {seed}, windows: &{windows:?}, decisions: {decisions}, hedges: {hedges} }},",
                policy.name()
            );
        }
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { name: "memcached-lp-base", seed: 2024, row: [83896, 80895, 219135, 295799, 24315, 5394, 4681600725386759737, 4681608360884174848, 4606995541292015207, 50080, 1559, 4279, 3887, 225, 4610526515430965511, 0] },
    Golden { name: "memcached-lp-base", seed: 7, row: [76551, 72703, 204799, 340705, 23179, 5367, 4681566365648391737, 4681608360884174848, 4606998933290190786, 45288, 1474, 4259, 4197, 234, 4610017864550489794, 0] },
    Golden { name: "memcached-hp-base", seed: 2024, row: [51032, 50175, 79871, 216167, 8683, 5458, 4681682170692520922, 4681608360884174848, 4569629281553454080, 3526, 12100, 0, 0, 0, 4612641442145390990, 0] },
    Golden { name: "memcached-hp-base", seed: 7, row: [51215, 50175, 81919, 193933, 8231, 5464, 4681689806189936033, 4681608360884174848, 4566996901348283002, 3491, 12143, 0, 0, 0, 4612641779251082099, 0] },
    Golden { name: "memcached-hp-smton", seed: 2024, row: [53473, 51199, 108543, 303102, 12718, 16262, 4688917298255504877, 4688897573220515840, 4575163825835889353, 3537, 34666, 0, 0, 0, 4612743658756362751, 0] },
    Golden { name: "memcached-hp-smton", seed: 7, row: [53445, 51199, 111615, 207371, 11434, 15895, 4688800538774198803, 4688897573220515840, 4575829734237773414, 3548, 33930, 0, 0, 0, 4612740313786552514, 0] },
    Golden { name: "memcached-lp-c1eon", seed: 2024, row: [89569, 82943, 233471, 306372, 32866, 2722, 4677160754904515167, 4677104761256804352, 4607086038263244888, 63873, 428, 1828, 2857, 282, 4608699925484828623, 0] },
    Golden { name: "memcached-lp-c1eon", seed: 7, row: [98394, 87039, 245759, 303528, 40215, 2670, 4677028406282653241, 4677104761256804352, 4607070344938956453, 68444, 293, 1543, 3043, 439, 4608656994823877780, 0] },
    Golden { name: "hdsearch-hp-base", seed: 2024, row: [332288, 335871, 395536, 395536, 19062, 63, 4652845869709306539, 4652007308841189376, 0, 2000, 73, 0, 0, 0, 4597820191779451546, 0] },
    Golden { name: "hdsearch-hp-base", seed: 7, row: [325803, 331775, 465893, 465893, 40199, 66, 4653090205626590094, 4652007308841189376, 0, 2000, 72, 0, 0, 0, 4597830349089964726, 0] },
    Golden { name: "hdsearch-hp-default", seed: 2024, row: [816625, 778239, 1347146, 1347146, 139397, 63, 4652845869709306539, 4652007308841189376, 0, 2000, 73, 0, 0, 0, 4597827681157545471, 0] },
    Golden { name: "hdsearch-hp-default", seed: 7, row: [795500, 770047, 1396083, 1396083, 152477, 66, 4653090205626590094, 4652007308841189376, 0, 2000, 72, 0, 0, 0, 4597846704398400281, 0] },
    Golden { name: "socialnet-lp-base", seed: 2024, row: [2201190, 1343487, 7885338, 7885338, 1870834, 31, 4648260824776174858, 4643985272004935680, 4607182418800017408, 131496, 0, 0, 25, 32, 4587351565560927482, 0] },
    Golden { name: "socialnet-lp-base", seed: 7, row: [3178233, 2097151, 8436451, 8436451, 2372438, 19, 4644897459429460954, 4643985272004935680, 4607182418800017408, 116663, 1, 5, 22, 22, 4588735692402035674, 0] },
    Golden { name: "synthetic-hp-100us", seed: 2024, row: [161553, 151551, 311295, 408410, 32801, 578, 4667110037669708990, 4666723172467343360, 0, 3489, 1320, 0, 0, 0, 4612593350715727094, 0] },
    Golden { name: "synthetic-hp-100us", seed: 7, row: [158095, 151551, 260095, 325271, 25472, 551, 4666835159762764990, 4666723172467343360, 0, 3501, 1275, 0, 0, 0, 4612592480442386900, 0] },
    Golden { name: "memcached-hp-closed", seed: 2024, row: [122818, 119807, 241663, 2511940, 58968, 38165, 4694318227902013743, 4677104761256804352, 4578147533131872363, 3585, 77208, 0, 0, 0, 4612943365484274340, 0] },
    Golden { name: "memcached-hp-closed", seed: 7, row: [120438, 118783, 221183, 956283, 34963, 38579, 4694384084067219077, 4677104761256804352, 4577971696733342568, 3581, 78046, 0, 0, 0, 4612947368240838952, 0] },
    Golden { name: "memcached-lp-busywait-kernel", seed: 2024, row: [43334, 42495, 63999, 250743, 6853, 5492, 4681725438511206552, 4681608360884174848, 0, 2000, 192, 1398, 3146, 521, 4608580870346745329, 0] },
    Golden { name: "memcached-lp-busywait-kernel", seed: 7, row: [43324, 42495, 62463, 220143, 6277, 5465, 4681691078772838552, 4681608360884174848, 0, 2000, 276, 1538, 2963, 402, 4608860503776123015, 0] },
];

#[rustfmt::skip]
const GOLDEN_PHASED: &[PhasedGolden] = &[
    PhasedGolden { name: "memcached-decay-flip", seed: 2024, row: [71287, 75775, 200703, 268708, 25353, 5361, 4681558730150976626, 4681608360884174848, 4602322703271590982, 27503, 6778, 2111, 1851, 94, 4611865278210859963, 0], phases: &[[2399, 82943], [2962, 212991]] },
    PhasedGolden { name: "memcached-decay-flip", seed: 7, row: [74506, 78847, 221183, 345351, 30613, 5436, 4681654173868665515, 4681608360884174848, 4602429271605289355, 29572, 6650, 1815, 2236, 170, 4611866314193360316, 0], phases: &[[2400, 74751], [3036, 235519]] },
    PhasedGolden { name: "memcached-stepped-load", seed: 2024, row: [51610, 50175, 93183, 195679, 9298, 6782, 4683367070455455441, 4683821311287012011, 4571147343237030896, 3510, 13982, 0, 0, 0, 4612650330181651391, 0], phases: &[[1213, 74751], [5569, 98303]] },
    PhasedGolden { name: "memcached-stepped-load", seed: 7, row: [51299, 50175, 76799, 222032, 7122, 6643, 4683190181432005367, 4683821311287012011, 4571913752806760288, 3531, 13677, 0, 0, 0, 4612649332580290732, 0], phases: &[[1187, 67583], [5456, 77823]] },
];

#[rustfmt::skip]
const GOLDEN_SHARDED: &[ShardedGolden] = &[
    ShardedGolden { name: "memcached-sharded-rr", seed: 2024, row: [63632, 52735, 219135, 309922, 29829, 8541, 4684674578123150677, 4684737570976825344, 4598062300206520783, 20139, 14529, 1201, 2499, 386, 4625057673236040905, 0], shards: &[[2122, 69631], [2132, 68607], [2152, 70655], [2135, 241663]] },
    ShardedGolden { name: "memcached-sharded-rr", seed: 7, row: [61124, 52223, 210943, 275905, 26373, 8575, 4684696212032493492, 4684737570976825344, 4598135755496799562, 18319, 14538, 1334, 2475, 305, 4625038709249750079, 0], shards: &[[2126, 66559], [2120, 68607], [2172, 71679], [2157, 237567]] },
    ShardedGolden { name: "memcached-sharded-hot", seed: 2024, row: [64096, 52735, 221183, 343783, 31147, 8540, 4684673941831699418, 4684737570976825344, 4598028424404894093, 20093, 14550, 1161, 2479, 408, 4625059539192180168, 0], shards: &[[4242, 227327], [2206, 227327], [1036, 66559], [1056, 68607]] },
    ShardedGolden { name: "memcached-sharded-hot", seed: 7, row: [61601, 52735, 217087, 364560, 27905, 8575, 4684696212032493492, 4684737570976825344, 4598143272458414201, 18360, 14546, 1299, 2474, 322, 4625050384009145271, 0], shards: &[[4325, 192511], [2135, 241663], [1022, 67583], [1093, 66559]] },
];

#[rustfmt::skip]
const GOLDEN_PHASED_SHARDED: &[PhasedShardedGolden] = &[
    PhasedShardedGolden { name: "memcached-phased-sharded-rr", seed: 2024, row: [76787, 77823, 233471, 295859, 34778, 9744, 4685440036739015566, 4685409494749355122, 4602571210295980229, 34900, 11774, 3132, 4608, 530, 4621980925655107064, 0], shards: &[[2279, 233471], [2676, 67583], [2183, 225279], [2606, 243711]], phases: &[[3539, 225279], [6205, 235519]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-rr", seed: 7, row: [73447, 70655, 223231, 291616, 33458, 9711, 4685419039121124011, 4685409494749355122, 4602658467752752939, 33948, 11205, 3204, 4983, 605, 4621852327839773336, 0], shards: &[[2199, 231423], [2667, 68607], [2176, 231423], [2669, 227327]], phases: &[[3503, 204799], [6208, 229375]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-hot", seed: 2024, row: [77193, 77823, 233471, 321333, 35501, 9740, 4685437491573210529, 4685409494749355122, 4602572891684678145, 35283, 11761, 3111, 4620, 550, 4621992193155901981, 0], shards: &[[4975, 231423], [2381, 247807], [1323, 67583], [1061, 235519]], phases: &[[3540, 221183], [6200, 239615]] },
    PhasedShardedGolden { name: "memcached-phased-sharded-hot", seed: 7, row: [73273, 70655, 225279, 363400, 33219, 9712, 4685419675412575270, 4685409494749355122, 4602673731317673419, 34553, 11217, 3150, 4993, 620, 4621838445655178980, 0], shards: &[[4921, 229375], [2367, 225279], [1327, 74751], [1097, 215039]], phases: &[[3504, 202751], [6208, 229375]] },
];

#[rustfmt::skip]
const GOLDEN_COHORT: &[CohortGolden] = &[
    CohortGolden { name: "memcached-cohort-mixed", seed: 2024, row: [67685, 52735, 235519, 275991, 36382, 2377, 4676282672701777389, 4676280127535972352, 4598770916124369142, 25913, 3895, 320, 839, 210, 4620745502977932053, 0], cohorts: &[[663, 245759], [641, 74751]] },
    CohortGolden { name: "memcached-cohort-mixed", seed: 7, row: [68412, 52735, 231423, 259127, 37878, 2410, 4676366663173343611, 4676280127535972352, 4598656444265960809, 26213, 3942, 278, 827, 264, 4620770333808242528, 0], cohorts: &[[659, 243711], [663, 61951]] },
    CohortGolden { name: "memcached-cohort-sharded", seed: 2024, row: [82660, 78847, 239615, 278986, 43606, 1304, 4672367006375370449, 4672326283722489856, 4602772707261717850, 44761, 1485, 328, 830, 217, 4618105956209793357, 0], cohorts: &[[663, 243711], [641, 69631]] },
    CohortGolden { name: "memcached-cohort-sharded", seed: 7, row: [86268, 77823, 247807, 456004, 50216, 1321, 4672453542012741708, 4672326283722489856, 4602687784533550768, 44229, 1542, 272, 826, 269, 4618142311024528556, 0], cohorts: &[[658, 253951], [663, 80895]] },
];

#[rustfmt::skip]
const GOLDEN_CONTROL: &[ControlGolden] = &[
    ControlGolden { name: "do_nothing", seed: 2024, windows: &[[2534, 219135], [3287, 219135], [3318, 212991]], decisions: 0, hedges: 0 },
    ControlGolden { name: "do_nothing", seed: 7, windows: &[[2544, 184319], [3263, 210943], [3279, 215039]], decisions: 0, hedges: 0 },
    ControlGolden { name: "hedge_requests", seed: 2024, windows: &[[2534, 219135], [3287, 169983], [3318, 167935]], decisions: 2, hedges: 175 },
    ControlGolden { name: "hedge_requests", seed: 7, windows: &[[2544, 184319], [3263, 169983], [3279, 167935]], decisions: 2, hedges: 182 },
    ControlGolden { name: "reroute_hot_shard", seed: 2024, windows: &[[2534, 219135], [3287, 215039], [3318, 217087]], decisions: 4, hedges: 0 },
    ControlGolden { name: "reroute_hot_shard", seed: 7, windows: &[[2544, 184319], [3263, 212991], [3279, 219135]], decisions: 4, hedges: 0 },
    ControlGolden { name: "remediate_node", seed: 2024, windows: &[[2534, 219135], [3340, 69631], [3360, 72703]], decisions: 2, hedges: 0 },
    ControlGolden { name: "remediate_node", seed: 7, windows: &[[2544, 184319], [3217, 66559], [3257, 72703]], decisions: 2, hedges: 0 },
    ControlGolden { name: "admission_throttle", seed: 2024, windows: &[[2534, 219135], [2928, 204799], [2690, 206847]], decisions: 4, hedges: 0 },
    ControlGolden { name: "admission_throttle", seed: 7, windows: &[[2544, 184319], [2817, 217087], [2687, 210943]], decisions: 4, hedges: 0 },
];

/// Every controller-enabled run must be bit-identical across worker
/// counts — the decision loop sees only canonical-order windowed stats,
/// so parallelism is presentation, not physics. The pins also audit the
/// decision and hedge accounting of every shipped policy.
#[test]
fn controlled_runs_match_their_pins() {
    assert!(!GOLDEN_CONTROL.is_empty(), "control golden table must be populated");
    let policies = control_policies();
    for g in GOLDEN_CONTROL {
        let policy = policies
            .iter()
            .find(|p| p.name() == g.name)
            .unwrap_or_else(|| panic!("unknown control golden policy {}", g.name));
        for workers in [1usize, 2, 3, 4, 8] {
            let (windows, decisions, hedges) = observe_control(policy.as_ref(), g.seed, workers);
            assert_eq!(
                windows, g.windows,
                "{} seed {}: windowed stats drifted from the pin at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                decisions, g.decisions,
                "{} seed {}: decision count drifted at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                hedges, g.hedges,
                "{} seed {}: hedge count drifted at {workers} workers",
                g.name, g.seed
            );
        }
    }
    // The pins themselves encode the mitigation findings: the baseline
    // never acts or hedges, every other policy acts on the straggler
    // signal, only the hedging policy fires hedges, and the two
    // tail-repairing policies beat the baseline's post-decision tail.
    let worst_after = |g: &&ControlGolden| g.windows.iter().skip(1).map(|w| w[1]).max().unwrap();
    for seed in [2024u64, 7] {
        let by_name = |n: &str| {
            GOLDEN_CONTROL
                .iter()
                .find(|g| g.name == n && g.seed == seed)
                .unwrap_or_else(|| panic!("missing control pin {n} seed {seed}"))
        };
        let base = by_name("do_nothing");
        assert_eq!(base.decisions, 0, "the baseline must not act");
        assert_eq!(base.hedges, 0, "the baseline must not hedge");
        for g in GOLDEN_CONTROL.iter().filter(|g| g.seed == seed && g.name != "do_nothing") {
            assert!(g.decisions > 0, "{}: the straggler signal must trigger the policy", g.name);
            assert_eq!(g.hedges > 0, g.name == "hedge_requests", "{}: hedge accounting", g.name);
        }
        for n in ["hedge_requests", "remediate_node"] {
            assert!(
                worst_after(&by_name(n)) < worst_after(&base),
                "{n} seed {seed}: post-decision pooled tail must beat the do-nothing baseline"
            );
        }
    }
}

/// A cohort of `population: 1` must be bit-identical to the equivalent
/// explicit `ClientNode` — the cohort layer's central invariant (the
/// analogue of the shard layer's K=1 rule), checked against the same
/// `GOLDEN` rows the static kernel is pinned by, through the parallel
/// `run_fleet` entry point. Open-loop shapes exercise the *pooled*
/// lowering (a pool of one), the closed-loop shape the tracked lowering.
#[test]
fn population_one_cohort_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let spec = RunSpec {
            service: &parts.service,
            server: &parts.server,
            client: &parts.client,
            generator: &parts.generator,
            link: &parts.link,
            qps: parts.qps,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
        };
        // Closed loops cannot pool (they pace by think time), so their
        // single member rides the tracked path instead.
        let tracked = if parts.generator.loop_mode == LoopMode::Open { 0 } else { 1 };
        let cohorts = [CohortSpec::new(spec.client_node(), 1).with_tracked(tracked)];
        let topo = TopologySpec {
            shards: None,
            service: &parts.service,
            server: &parts.server,
            nodes: &[],
            duration: spec.duration,
            warmup: spec.warmup,
            cohorts: &cohorts,
        };
        let run = run_fleet(&topo, g.seed, 2).expect("valid topology");
        let row = golden_row(&run.aggregate);
        assert_eq!(
            row, g.row,
            "{} seed {}: a population-1 cohort drifted from the static pin",
            g.name, g.seed
        );
        // The cohort rollup of a one-member fleet is that member.
        assert_eq!(run.cohorts.len(), 1);
        assert_eq!(
            golden_row(&run.cohorts[0].result),
            g.row,
            "{} seed {}: cohort rollup drifted",
            g.name,
            g.seed
        );
    }
}

#[test]
fn cohorted_runs_match_their_pins() {
    assert!(!GOLDEN_COHORT.is_empty(), "cohort golden table must be populated");
    let by_name = cohort_cases();
    for g in GOLDEN_COHORT {
        let (_, shards, nodes, cohorts) = by_name
            .iter()
            .find(|(n, _, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown cohort golden case {}", g.name));
        let (row, per_cohort) = observe_cohort(shards.as_ref(), nodes, cohorts, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(per_cohort, g.cohorts, "{} seed {} per-cohort stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the paper's finding at cohort
    // granularity: the low-power class posts the worse tail.
    for g in GOLDEN_COHORT {
        assert!(g.cohorts[0][1] > g.cohorts[1][1], "{}: LP cohort tail must exceed HP's", g.name);
    }
}

/// A one-shard tier must reproduce the static `run_once` pins bit for
/// bit — the shard layer's central invariant (K=1 is the degenerate
/// case), checked against the same `GOLDEN` rows the static kernel is
/// pinned by, through the *parallel* entry point.
#[test]
fn one_shard_tier_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let spec = RunSpec {
            service: &parts.service,
            server: &parts.server,
            client: &parts.client,
            generator: &parts.generator,
            link: &parts.link,
            qps: parts.qps,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
        };
        let nodes = [spec.client_node()];
        let one = ShardSpec::uniform(parts.server, 1);
        let topo = TopologySpec {
            shards: Some(&one),
            service: &parts.service,
            server: &parts.server,
            nodes: &nodes,
            duration: spec.duration,
            warmup: spec.warmup,
            cohorts: &[],
        };
        let sharded = run_fleet(&topo, g.seed, 4).expect("valid topology");
        let row = golden_row(&sharded.aggregate);
        assert_eq!(row, g.row, "{} seed {}: a one-shard tier drifted from the static pin", g.name, g.seed);
    }
}

#[test]
fn sharded_runs_match_their_pins() {
    assert!(!GOLDEN_SHARDED.is_empty(), "sharded golden table must be populated");
    let by_name = sharded_cases();
    for g in GOLDEN_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown sharded golden case {}", g.name));
        let (row, per_shard) = observe_sharded(shards, nodes, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(per_shard, g.shards, "{} seed {} per-shard stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the findings: under the hot-shard
    // assignment, shard 0 serves half the fleet (sample plurality) and
    // its tail dwarfs the clean cold shards' — while a cold shard that
    // drew an LP client can still post a comparable tail, the paper's
    // client-side skew at shard granularity.
    let hot =
        GOLDEN_SHARDED.iter().find(|g| g.name == "memcached-sharded-hot").expect("hot-shard pin present");
    assert!(hot.shards.iter().skip(1).all(|s| s[0] < hot.shards[0][0]), "hot pin must show the load skew");
    let best_cold = hot.shards.iter().skip(1).map(|s| s[1]).min().expect("cold shards present");
    assert!(hot.shards[0][1] > 2 * best_cold, "hot-shard tail must dwarf the clean cold shards");
}

/// A single-phase schedule over a K-shard tier must be bit-identical to
/// the static sharded kernel — the phased×sharded unification's central
/// invariant, checked by re-running every `GOLDEN_SHARDED` row through
/// the phased path (a static topology's merged schedule is the single
/// all-covering phase).
#[test]
fn single_phase_schedule_over_a_sharded_tier_reproduces_the_sharded_goldens() {
    let by_name = sharded_cases();
    let service = ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()));
    let server = MachineConfig::server_baseline();
    for g in GOLDEN_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown sharded golden case {}", g.name));
        let topo = TopologySpec {
            shards: Some(shards),
            service: &service,
            server: &server,
            nodes,
            duration: SimDuration::from_ms(60),
            warmup: SimDuration::from_ms(6),
            cohorts: &[],
        };
        let run = run_fleet(&topo, g.seed, 3).expect("valid phased sharded topology");
        assert_eq!(
            golden_row(&run.aggregate),
            g.row,
            "{} seed {}: the phased path drifted from the static sharded pin",
            g.name,
            g.seed
        );
        let per_shard: Vec<[u64; 2]> =
            run.shards.iter().map(|s| [s.result.samples, s.result.p99.as_ns()]).collect();
        assert_eq!(per_shard, g.shards, "{} seed {}: per-shard stats drifted", g.name, g.seed);
        assert_eq!(run.phases.len(), 1, "a static topology merges to a single phase");
        assert_eq!(run.phases[0].samples, g.row[5], "the single phase pools every sample");
    }
}

#[test]
fn phased_sharded_runs_match_their_pins() {
    assert!(!GOLDEN_PHASED_SHARDED.is_empty(), "phased sharded golden table must be populated");
    let by_name = phased_sharded_cases();
    for g in GOLDEN_PHASED_SHARDED {
        let (_, shards, nodes) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown phased sharded golden case {}", g.name));
        // The pin holds at every worker count: the canonical per-phase
        // merge order makes the schedule presentation, not physics.
        for workers in [1usize, 2, 3, 4, 8] {
            let (row, per_shard, per_phase) = observe_phased_sharded(shards, nodes, g.seed, workers);
            assert_eq!(
                row, g.row,
                "{} seed {}: aggregate drifted from the pin at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                per_shard, g.shards,
                "{} seed {}: per-shard stats drifted at {workers} workers",
                g.name, g.seed
            );
            assert_eq!(
                per_phase, g.phases,
                "{} seed {}: per-phase stats drifted at {workers} workers",
                g.name, g.seed
            );
        }
    }
    // The pins themselves encode the finding: half the fleet decays to
    // LP at the boundary, so the second phase's pooled tail exceeds the
    // first's in every pinned shape.
    for g in GOLDEN_PHASED_SHARDED {
        assert!(g.phases[1][1] > g.phases[0][1], "{}: decayed phase tail must exceed the first's", g.name);
    }
}

/// A trivial all-covering phase schedule must reproduce the static
/// `run_once` pins bit for bit — the phase layer's central invariant,
/// checked against the same `GOLDEN` rows the static kernel is pinned
/// by.
#[test]
fn single_phase_schedule_reproduces_the_static_goldens() {
    let by_name = cases();
    for g in GOLDEN.iter().take(4) {
        let (_, parts) = by_name.iter().find(|(n, _)| *n == g.name).unwrap();
        let trivial = NodeDynamics::new(PhaseSchedule::single())
            .with_machines(vec![parts.client])
            .with_rates(vec![1.0])
            .with_links(vec![parts.link]);
        let (row, phases) = observe_phased(parts, &trivial, g.seed);
        assert_eq!(
            row, g.row,
            "{} seed {}: a single-phase schedule drifted from the static pin",
            g.name, g.seed
        );
        assert_eq!(phases.len(), 1, "one phase covers the whole window");
        assert_eq!(phases[0][0], g.row[5], "the single phase pools every sample");
    }
}

#[test]
fn phased_runs_match_their_pins() {
    assert!(!GOLDEN_PHASED.is_empty(), "phased golden table must be populated");
    let by_name = phased_cases();
    for g in GOLDEN_PHASED {
        let (_, parts, dynamics) = by_name
            .iter()
            .find(|(n, _, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown phased golden case {}", g.name));
        let (row, phases) = observe_phased(parts, dynamics, g.seed);
        assert_eq!(row, g.row, "{} seed {} aggregate drifted from the pin", g.name, g.seed);
        assert_eq!(phases, g.phases, "{} seed {} per-phase stats drifted", g.name, g.seed);
    }
    // The pins themselves encode the finding: the decayed second phase
    // carries a far worse p99, the surged second phase far more samples.
    let decay = &GOLDEN_PHASED[0];
    assert!(decay.phases[1][1] > 2 * decay.phases[0][1], "decay pin must show a regime change");
    let stepped = &GOLDEN_PHASED[2];
    assert!(stepped.phases[1][0] > 3 * stepped.phases[0][0], "stepped pin must show the load step");
}

/// `run_once`, the 1×1 topology, reproduces the static pins.
#[test]
fn one_by_one_topology_matches_pre_refactor_run_once() {
    assert!(!GOLDEN.is_empty(), "golden table must be populated");
    let by_name = cases();
    for g in GOLDEN {
        let (_, parts) = by_name
            .iter()
            .find(|(n, _)| *n == g.name)
            .unwrap_or_else(|| panic!("unknown golden case {}", g.name));
        let row = observe(parts, g.seed);
        assert_eq!(row, g.row, "{} seed {}: the 1×1 topology drifted from the static pin", g.name, g.seed);
    }
}
