//! Conformance suite for the closed-loop controller (`tpv_core::control`)
//! and the hedge seam it drives.
//!
//! The contracts under test:
//!
//! * **Permutation invariance** — permuting the fleet declaration (with a
//!   consistently permuted explicit assignment) changes nothing: window
//!   aggregates, per-shard tails, decisions and hedge counts are all
//!   bit-identical, because policies see label-sorted observations and
//!   every node's randomness is content-addressed.
//! * **Hedge accounting** — a hedge leg dispatches no kernel events
//!   (`EventCountCollector` is hedge-invariant), fires only for measured
//!   requests, never perturbs non-hedged nodes, and caps the hedged
//!   nodes' tails.
//! * **No-op policies** — a policy whose thresholds are never met is
//!   bit-identical to the do-nothing baseline.
//!
//! Worker-count bit-identity (1/2/3/4/8) is pinned by `GOLDEN_CONTROL`
//! in `golden_runtime.rs`.

use tpv_core::collect::EventCountCollector;
use tpv_core::control::{
    AdmissionThrottle, ControlResult, ControlSpec, Controller, DoNothing, HedgePlan, HedgeRequests,
    HedgeSpec, MitigationPolicy, RemediateNode, RerouteHotShard,
};
use tpv_core::runtime::run_sharded_collected_hedged;
use tpv_core::topology::{ClientNode, ShardPolicy, ShardSpec, TopologySpec};
use tpv_core::WindowedObserver;
use tpv_hw::MachineConfig;
use tpv_loadgen::GeneratorSpec;
use tpv_net::LinkConfig;
use tpv_services::kv::KvConfig;
use tpv_services::{ServiceConfig, ServiceKind};
use tpv_sim::SimDuration;

fn kv() -> ServiceConfig {
    ServiceConfig::new(ServiceKind::Memcached(KvConfig::default()))
}

/// An 8-node fleet with two low-power stragglers (labels `bad3`,
/// `bad7`), mirroring the golden controlled fleet's shape.
fn fleet() -> Vec<ClientNode> {
    let gen = GeneratorSpec::mutilate().with_connections(20);
    (0..8)
        .map(|i| {
            let (label, machine) = if i % 4 == 3 {
                (format!("bad{i}"), MachineConfig::low_power())
            } else {
                (format!("agent{i}"), MachineConfig::high_performance())
            };
            ClientNode::new(label, machine, gen, LinkConfig::cloudlab_lan(), 20_000.0)
        })
        .collect()
}

fn spec_with(nodes: Vec<ClientNode>, policy: ShardPolicy) -> ControlSpec {
    ControlSpec {
        service: kv(),
        shards: ShardSpec::uniform(MachineConfig::server_baseline(), 4).with_policy(policy),
        nodes,
        window: SimDuration::from_ms(20),
        windows: 3,
        warmup: SimDuration::from_ms(4),
    }
}

/// The bit-exact projection the invariance tests compare: per-window
/// aggregate rows (floats as bits), per-window shard tails, the decision
/// log rendered through labels, and the hedge count.
#[allow(clippy::type_complexity)]
fn project(r: &ControlResult) -> (Vec<[u64; 5]>, Vec<Vec<[u64; 2]>>, Vec<String>, u64) {
    let windows = r
        .windows
        .iter()
        .map(|w| {
            [
                w.aggregate.samples,
                w.aggregate.p99.as_ns(),
                w.aggregate.avg.as_ns(),
                w.aggregate.achieved_qps.to_bits(),
                w.aggregate.client_energy_core_secs.to_bits(),
            ]
        })
        .collect();
    let shards =
        r.windows.iter().map(|w| w.shards.iter().map(|s| [s.samples, s.p99.as_ns()]).collect()).collect();
    let decisions = r.decisions.iter().map(|d| format!("{}:{:?}", d.window, d.action)).collect();
    (windows, shards, decisions, r.total_hedges())
}

/// Permuting the fleet declaration (with the explicit assignment
/// permuted consistently) must not change one bit of a controlled run —
/// for every shipped policy.
#[test]
fn controlled_runs_are_declaration_order_invariant() {
    let threshold = SimDuration::from_us(150);
    let policies: Vec<Box<dyn MitigationPolicy>> = vec![
        Box::new(DoNothing),
        Box::new(HedgeRequests { threshold, deadline: SimDuration::from_us(120) }),
        Box::new(RerouteHotShard { min_ratio: 1.5, max_moves: 2 }),
        Box::new(RemediateNode { threshold, config: MachineConfig::high_performance() }),
        Box::new(AdmissionThrottle { threshold, factor: 0.5, floor: 0.2 }),
    ];
    let nodes = fleet();
    // Forward: round-robin as an explicit assignment. Reversed: the same
    // node→shard map, permuted consistently with the declaration.
    let forward = spec_with(nodes.clone(), ShardPolicy::Explicit((0..8).map(|i| i % 4).collect()));
    let reversed_nodes: Vec<ClientNode> = nodes.into_iter().rev().collect();
    let reversed = spec_with(reversed_nodes, ShardPolicy::Explicit((0..8).rev().map(|i| i % 4).collect()));
    for policy in &policies {
        let a = Controller::new(&forward, policy.as_ref()).run(2024, 3);
        let b = Controller::new(&reversed, policy.as_ref()).run(2024, 3);
        assert_eq!(
            project(&a),
            project(&b),
            "policy {}: fleet declaration order leaked into the controlled run",
            policy.name()
        );
    }
}

/// The hedge seam's accounting contract, checked against the raw kernel
/// entry point: hedging dispatches no events, fires at least once under
/// a straggler deadline, improves the pooled tail, and leaves every
/// non-hedged node's windowed stats untouched.
#[test]
fn hedging_changes_no_event_counts_and_only_hedged_nodes() {
    let service = kv();
    let nodes = fleet();
    let tier = ShardSpec::uniform(MachineConfig::server_baseline(), 4);
    let topo = TopologySpec {
        shards: Some(&tier),
        service: &service,
        server: &MachineConfig::server_baseline(),
        nodes: &nodes,
        duration: SimDuration::from_ms(40),
        warmup: SimDuration::from_ms(5),
        cohorts: &[],
    };
    let mut plan = HedgePlan::new();
    for label in ["bad3", "bad7"] {
        plan.set(
            label,
            HedgeSpec { deadline: SimDuration::from_us(120), backend: MachineConfig::server_baseline() },
        );
    }
    let n = nodes.len();
    let run = |hedge: Option<&HedgePlan>| {
        run_sharded_collected_hedged(&topo, 2024, 3, hedge, |shard, key| {
            (EventCountCollector::new(), WindowedObserver::for_partition(n, key, shard))
        })
    };
    let (plain, _, (plain_events, plain_obs)) = run(None);
    let (hedged, _, (hedged_events, hedged_obs)) = run(Some(&plan));

    // A hedge never dispatches extra kernel events: the duplicate leg is
    // analytic, so `EventCountCollector` cannot double-count.
    assert_eq!(plain_events.events(), hedged_events.events(), "hedging must not add kernel events");
    // Same requests measured either way; only their latencies improve.
    assert_eq!(plain.samples, hedged.samples);
    assert!(
        hedged.p99 < plain.p99,
        "hedging stragglers must cap the pooled tail ({:?} vs {:?})",
        hedged.p99,
        plain.p99
    );

    let measured = topo.duration - topo.warmup;
    let (plain_nodes, _) = plain_obs.into_windows(measured);
    let (hedged_nodes, _) = hedged_obs.into_windows(measured);
    let mut fired = 0;
    for (p, h) in plain_nodes.iter().zip(&hedged_nodes) {
        if nodes[p.node].label.starts_with("bad") {
            fired += h.hedges;
            assert!(h.p99 < p.p99, "{}: a hedged straggler's tail must improve", nodes[p.node].label);
        } else {
            assert_eq!(p, h, "{}: hedging must not perturb a non-hedged node", nodes[p.node].label);
            assert_eq!(h.hedges, 0, "{}: non-hedged nodes cannot fire hedges", nodes[p.node].label);
        }
    }
    assert!(fired > 0, "the 120 µs deadline must fire against ~210 µs straggler tails");

    // A one-node fleet hedges exactly like a fleet node: the lone
    // straggler on an unsharded server honours the plan too.
    let solo = [nodes[3].clone()];
    let solo_topo = TopologySpec { shards: None, nodes: &solo, ..topo };
    let run_solo = |hedge: Option<&HedgePlan>| {
        run_sharded_collected_hedged(&solo_topo, 2024, 1, hedge, |_, _| EventCountCollector::new())
    };
    let (plain, _, plain_events) = run_solo(None);
    let (hedged, _, hedged_events) = run_solo(Some(&plan));
    assert_eq!(
        plain_events.events(),
        hedged_events.events(),
        "a lone node's hedge must not add kernel events"
    );
    assert_eq!(plain.samples, hedged.samples);
    assert!(
        hedged.p99 < plain.p99,
        "hedging a lone straggler must cap its tail ({:?} vs {:?})",
        hedged.p99,
        plain.p99
    );
}

/// A policy whose thresholds are never met must leave the run
/// bit-identical to the do-nothing baseline: unmet mitigation is not
/// merely similar, it is the absence of mitigation.
#[test]
fn unmet_thresholds_reproduce_the_baseline_bit_for_bit() {
    let spec = spec_with(fleet(), ShardPolicy::RoundRobin);
    // Far above any tail this fleet produces (~220 µs stragglers).
    let unreachable = SimDuration::from_ms(50);
    let policies: Vec<Box<dyn MitigationPolicy>> = vec![
        Box::new(HedgeRequests { threshold: unreachable, deadline: SimDuration::from_us(120) }),
        Box::new(RerouteHotShard { min_ratio: 1e9, max_moves: 2 }),
        Box::new(RemediateNode { threshold: unreachable, config: MachineConfig::high_performance() }),
        Box::new(AdmissionThrottle { threshold: unreachable, factor: 0.5, floor: 0.2 }),
    ];
    let baseline = Controller::new(&spec, &DoNothing).run(7, 2);
    for policy in &policies {
        let run = Controller::new(&spec, policy.as_ref()).run(7, 2);
        assert!(run.decisions.is_empty(), "policy {}: thresholds unmet, yet it acted", policy.name());
        assert_eq!(
            project(&run),
            project(&baseline),
            "policy {}: an idle controller must be the baseline",
            policy.name()
        );
    }
}

/// The spread helpers answer the study's question directly: remediation
/// collapses the post-decision pooled spread toward 1 while the baseline
/// keeps reporting the straggler tail in every window.
#[test]
fn remediation_reduces_the_post_decision_spread() {
    let spec = spec_with(fleet(), ShardPolicy::RoundRobin);
    let baseline = Controller::new(&spec, &DoNothing).run(2024, 3);
    let remediated = Controller::new(
        &spec,
        &RemediateNode { threshold: SimDuration::from_us(150), config: MachineConfig::high_performance() },
    )
    .run(2024, 3);
    assert!(
        remediated.worst_window_p99(1) < baseline.worst_window_p99(1),
        "remediation must beat the baseline's post-decision tail"
    );
    // Both runs saw the same pre-decision window 0; only the mitigated
    // windows diverge.
    assert_eq!(baseline.windows[0].aggregate, remediated.windows[0].aggregate);
}
