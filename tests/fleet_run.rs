//! The contract of the one fleet entry point, `run_fleet`: every view of
//! a run comes from one kernel pass, the views agree with the collectors
//! they are built from, and a malformed spec comes back as a typed
//! `TopologyError` instead of a panic.

use tpv_core::collect::PhaseCollector;
use tpv_core::runtime::{run_fleet, run_sharded_collected};
use tpv_core::topology::{
    ClientNode, CohortSpec, NodeDynamics, ShardPolicy, ShardSpec, TopologyError, TopologySpec,
};
use tpv_hw::{DynamicMachine, MachineConfig};
use tpv_loadgen::{GeneratorSpec, PhasedRate};
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::{PhaseSchedule, SimDuration, SimTime};

fn kv_service() -> ServiceConfig {
    ServiceConfig::without_interference(ServiceKind::Memcached(KvConfig {
        preload_keys: 1_000,
        ..KvConfig::default()
    }))
}

fn node(label: &str, machine: MachineConfig, qps: f64) -> ClientNode {
    ClientNode::new(
        label,
        machine,
        GeneratorSpec::mutilate().with_connections(20),
        LinkConfig::cloudlab_lan(),
        qps,
    )
}

fn topo<'a>(
    service: &'a ServiceConfig,
    server: &'a MachineConfig,
    nodes: &'a [ClientNode],
    shards: Option<&'a ShardSpec>,
) -> TopologySpec<'a> {
    TopologySpec {
        shards,
        service,
        server,
        nodes,
        duration: SimDuration::from_ms(30),
        warmup: SimDuration::from_ms(3),
        cohorts: &[],
    }
}

/// A static topology has one all-covering phase. It is the same
/// histogram over the same window as the aggregate, so it must equal a
/// `PhaseCollector` fed through the sharded kernel and repeat the
/// aggregate's latency stats bit for bit.
#[test]
fn static_single_phase_equals_its_collector_and_the_aggregate() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let nodes: Vec<ClientNode> = (0..6)
        .map(|i| {
            let machine =
                if i % 3 == 0 { MachineConfig::low_power() } else { MachineConfig::high_performance() };
            node(&format!("n{i}"), machine, 8_000.0 + 1_000.0 * i as f64)
        })
        .collect();
    let shards = ShardSpec::uniform(server, 3);
    for spec in [topo(&service, &server, &nodes, None), topo(&service, &server, &nodes, Some(&shards))] {
        let run = run_fleet(&spec, 41, 2).expect("valid topology");
        assert_eq!(run.phases.len(), 1, "a static topology has one all-covering phase");
        let window = (SimTime::ZERO + spec.warmup, SimTime::ZERO + spec.duration);
        let (_, _, collector) = run_sharded_collected(&spec, 41, 2, |shard, key| {
            PhaseCollector::for_partition(spec.merged_schedule(), window.0, window.1, key, shard)
        });
        assert_eq!(run.phases, collector.into_stats(), "the single phase must equal its collector");
        let (phase, agg) = (&run.phases[0], &run.aggregate);
        assert_eq!((phase.start, phase.end), window);
        assert_eq!(phase.samples, agg.samples);
        assert_eq!(phase.avg, agg.avg);
        assert_eq!(phase.p50, agg.p50);
        assert_eq!(phase.p99, agg.p99);
        assert_eq!(phase.max, agg.max);
        assert_eq!(phase.achieved_qps.to_bits(), agg.achieved_qps.to_bits());
        assert!(run.cohorts.is_empty(), "a cohort-free topology has no cohort rollups");
        assert_eq!(run.shards.len(), spec.shard_count());
    }
}

/// Worker count is presentation on the richest shape: cohorts, phases
/// and four shards at once.
#[test]
fn cohorted_phased_sharded_runs_are_worker_invariant() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let boundary = SimTime::from_ms(15);
    let nodes = [
        node("decay", MachineConfig::high_performance(), 10_000.0).with_dynamics(
            NodeDynamics::new(PhaseSchedule::new(vec![boundary]))
                .with_machines(vec![MachineConfig::high_performance(), MachineConfig::low_power()]),
        ),
        node("step", MachineConfig::high_performance(), 12_000.0)
            .with_dynamics(NodeDynamics::new(PhaseSchedule::new(vec![boundary])).with_rates(vec![0.5, 1.5])),
        node("plain", MachineConfig::low_power(), 9_000.0),
    ];
    let cohorts = [
        CohortSpec::new(node("lp-pool", MachineConfig::low_power(), 1_000.0), 20).with_tracked(2),
        CohortSpec::new(node("hp-pool", MachineConfig::high_performance(), 1_500.0), 12).with_tracked(1),
    ];
    let shards = ShardSpec::uniform(server, 4);
    let spec = TopologySpec { cohorts: &cohorts, ..topo(&service, &server, &nodes, Some(&shards)) };
    let serial = run_fleet(&spec, 8, 1).expect("valid topology");
    let wide = run_fleet(&spec, 8, 8).expect("valid topology");
    assert_eq!(serial, wide, "8 workers drifted from serial execution");
    assert_eq!(serial.phases.len(), 2);
    assert_eq!(serial.shards.len(), 4);
    assert_eq!(serial.cohorts.len(), 2);
    assert!(serial.cohort("lp-pool").is_some_and(|c| c.result.samples > 0));
    assert!(serial.worst_cohort_p99() >= serial.best_cohort_p99());
    assert!(serial.worst_shard_p99() >= serial.best_shard_p99());
    let pooled: u64 = serial.phases.iter().map(|p| p.samples).sum();
    assert_eq!(pooled, serial.aggregate.samples, "phase buckets must partition the window");
}

/// Every malformed spec that `TopologySpec::validate` used to panic on
/// comes back from `run_fleet` as its typed `TopologyError`.
#[test]
fn malformed_specs_are_typed_errors() {
    let service = kv_service();
    let server = MachineConfig::server_baseline();
    let hp = MachineConfig::high_performance();
    let two_phases = || PhaseSchedule::new(vec![SimTime::from_ms(10)]);
    let dynamic =
        |label: &str, dynamics: NodeDynamics| vec![node(label, hp, 5_000.0).with_dynamics(dynamics)];
    let one = vec![node("a", hp, 5_000.0)];
    let two = vec![node("a", hp, 5_000.0), node("b", MachineConfig::low_power(), 5_000.0)];
    let tier = |policy: ShardPolicy| ShardSpec::uniform(server, 2).with_policy(policy);
    let cases: Vec<(Vec<ClientNode>, Option<ShardSpec>, TopologyError)> = vec![
        (
            dynamic(
                "m",
                NodeDynamics {
                    machine: Some(DynamicMachine::new(PhaseSchedule::single(), vec![hp])),
                    ..NodeDynamics::new(two_phases())
                },
            ),
            None,
            TopologyError::PlanScheduleMismatch { label: "m".into(), plan: "machine" },
        ),
        (
            dynamic(
                "r",
                NodeDynamics {
                    rate: Some(PhasedRate::new(PhaseSchedule::single(), vec![1.0])),
                    ..NodeDynamics::new(two_phases())
                },
            ),
            None,
            TopologyError::PlanScheduleMismatch { label: "r".into(), plan: "rate" },
        ),
        (
            dynamic(
                "l",
                NodeDynamics {
                    links: Some(vec![LinkConfig::cloudlab_lan()]),
                    ..NodeDynamics::new(two_phases())
                },
            ),
            None,
            TopologyError::LinkCountMismatch { label: "l".into(), links: 1, phases: 2 },
        ),
        (
            one.clone(),
            Some(ShardSpec { machines: Vec::new(), policy: ShardPolicy::RoundRobin }),
            TopologyError::EmptyShardTier,
        ),
        (
            one.clone(),
            Some(tier(ShardPolicy::HotShard { hot: 2, share: 0.5 })),
            TopologyError::HotShardOutOfRange { hot: 2, shards: 2 },
        ),
        (
            one.clone(),
            Some(tier(ShardPolicy::HotShard { hot: 0, share: 0.0 })),
            TopologyError::BadHotShare { share: 0.0 },
        ),
        (
            one.clone(),
            Some(tier(ShardPolicy::HotShard { hot: 0, share: 1.5 })),
            TopologyError::BadHotShare { share: 1.5 },
        ),
        (
            one.clone(),
            Some(tier(ShardPolicy::HotShard { hot: 0, share: f64::INFINITY })),
            TopologyError::BadHotShare { share: f64::INFINITY },
        ),
        (
            two.clone(),
            Some(tier(ShardPolicy::Explicit(vec![0]))),
            TopologyError::AssignmentLength { assigned: 1, nodes: 2 },
        ),
        (
            two.clone(),
            Some(tier(ShardPolicy::Explicit(vec![1, 3]))),
            TopologyError::AssignmentOutOfRange { node: 1, shard: 3, shards: 2 },
        ),
    ];
    for (nodes, shards, expected) in &cases {
        let err = run_fleet(&topo(&service, &server, nodes, shards.as_ref()), 1, 2).unwrap_err();
        assert_eq!(&err, expected);
        assert!(!err.to_string().is_empty());
    }
    let err = TopologyError::LinkCountMismatch { label: "l".into(), links: 1, phases: 2 };
    assert!(err.to_string().contains("one link per phase"));
    // NaN never equals itself, so the NaN share is matched by shape.
    let nan = tier(ShardPolicy::HotShard { hot: 0, share: f64::NAN });
    let err = run_fleet(&topo(&service, &server, &one, Some(&nan)), 1, 2).unwrap_err();
    assert!(matches!(err, TopologyError::BadHotShare { share } if share.is_nan()));
}
