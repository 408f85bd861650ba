//! Layer probes: direct timed calls into each layer's public functions.
//!
//! Every probe runs a fixed number of calls per round and reports the
//! median round, so the work per sample never depends on how fast the
//! machine is (auto-scaled iteration counts were the main source of
//! run-to-run variance in the microbench designs this follows). Inputs
//! come from fixed seeds; only the event-queue occupancy comes from the
//! workload's traced pass.

use std::hint::black_box;
use std::time::Instant;

use tpv_core::experiment::Benchmark;
use tpv_hw::{CoreResource, MachineConfig};
use tpv_loadgen::{ArrivalProcess, ClientSide, GapBuffer, GeneratorSpec};
use tpv_net::{Connection, Link, LinkConfig};
use tpv_services::request::StageOutcome;
use tpv_services::{RequestDescriptor, ServiceConfig, ServiceInstance};
use tpv_sim::dist::{Exponential, GeneralizedPareto, Gev, LogNormal, Normal, Pareto, Sampler, Zipf};
use tpv_sim::{EventQueue, HotColdSlab, SimDuration, SimRng, SimTime};

use crate::stats::median;
use crate::workloads::{run_pass, Workload};

const SEED: u64 = 0x7E57_0001;
const ROUNDS: usize = 7;

/// Median host ns per call over `ROUNDS` rounds of `calls` calls each,
/// after one untimed warm-up round.
fn per_call_ns(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(ROUNDS);
    for round in 0..=ROUNDS {
        let t = Instant::now();
        for i in 0..calls {
            call(i);
        }
        if round > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    median(&samples)
}

/// Exponential gaps with the given mean, drawn before timing so the
/// probes time the layer, not the draw.
fn gaps(mean: SimDuration, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
    let exp = Exponential::with_mean(mean.as_ns() as f64);
    (0..n).map(|_| SimDuration::from_ns(exp.sample(rng) as u64)).collect()
}

/// Every probe's result, by metric name.
pub type Probed = Vec<(&'static str, f64, &'static str)>;

/// Runs every probe. `occupancy` and `spacing_ns` set the event queue's
/// steady-state size and event spacing.
pub fn run_all(occupancy: usize, spacing_ns: u64) -> Probed {
    let mut out: Probed = Vec::new();
    let mut rng = SimRng::seed_from_u64(SEED);
    let hp = MachineConfig::high_performance();
    let lp = MachineConfig::low_power();

    // sim: calendar queue at the traced run's occupancy — every pop is
    // replaced by one schedule, one mean occupancy-span ahead.
    let occupancy = occupancy.max(1);
    let spacing = SimDuration::from_ns(spacing_ns.max(1));
    let ahead = gaps(spacing * occupancy as u64, 1 << 16, &mut rng);
    let mut queue: EventQueue<u32> = EventQueue::with_spacing(4 * occupancy, spacing);
    for i in 0..occupancy {
        queue.schedule(SimTime::ZERO + spacing.scale(rng.next_f64() * occupancy as f64), i as u32);
    }
    let mut batch = Vec::with_capacity(64);
    let mut cursor = 0usize;
    let queue_ns = per_call_ns(100_000, |_| {
        if batch.is_empty() {
            queue.pop_batch(&mut batch);
            batch.reverse();
        }
        let (now, e) = batch.pop().expect("the queue never drains");
        queue.schedule(now + ahead[cursor & 0xFFFF], e);
        cursor += 1;
    });
    out.push(("sim.queue_ns_per_op", queue_ns, "ns"));

    // sim: in-flight slab churn at the same occupancy — insert the new
    // request, retire the oldest.
    let mut slab: HotColdSlab<[u64; 2], [u64; 6]> = HotColdSlab::with_capacity(2 * occupancy);
    let mut live: std::collections::VecDeque<u32> =
        (0..occupancy).map(|i| slab.insert([i as u64; 2], [0; 6])).collect();
    let slab_ns = per_call_ns(200_000, |i| {
        live.push_back(slab.insert([i as u64, 1], [i as u64; 6]));
        let old = live.pop_front().expect("slab holds the occupancy");
        black_box(slab.remove(old));
    });
    out.push(("sim.slab_ns_per_op", slab_ns, "ns"));

    // sim: one draw from each production sampler family.
    let samplers: [Box<dyn Sampler>; 7] = [
        Box::new(Exponential::with_mean(10.0)),
        Box::new(Normal::new(10.0, 2.0)),
        Box::new(LogNormal::new(2.0, 0.5)),
        Box::new(Pareto::new(1.0, 1.5)),
        Box::new(GeneralizedPareto::new(0.0, 1.0, 0.2)),
        Box::new(Gev::new(0.0, 1.0, 0.3)),
        Box::new(Zipf::new(100_000, 0.99)),
    ];
    let draw_ns = per_call_ns(50_000, |i| {
        black_box(samplers[i % 7].sample(&mut rng));
    });
    out.push(("sim.sampler_ns_per_draw", draw_ns, "ns"));

    // hw: one core grant per request at a 50K/s rate, so the low-power
    // configuration's C-state wake path is taken.
    let req_gaps = gaps(SimDuration::from_us(20), 1 << 14, &mut rng);
    for (name, machine) in [("hw.acquire_ns.lp", lp), ("hw.acquire_ns.hp", hp)] {
        let env = machine.draw_environment(&mut SimRng::seed_from_u64(SEED));
        let mut core = CoreResource::new(&machine, &env);
        let mut now = SimTime::ZERO;
        let ns = per_call_ns(100_000, |i| {
            now += req_gaps[i & 0x3FFF];
            black_box(core.acquire(now, SimDuration::from_us(2), &mut rng));
        });
        out.push((name, ns, "ns"));
    }

    // net: one request's network path — two link transits, both
    // connection deliveries and NIC coalescing.
    let link = Link::new(&LinkConfig::cloudlab_lan(), &mut rng);
    let mut conn = Connection::new(0);
    let mut now = SimTime::ZERO;
    let link_ns = per_call_ns(100_000, |i| {
        now += req_gaps[i & 0x3FFF];
        let at_server = conn.deliver_to_server(now + link.one_way(&mut rng));
        let back = conn.deliver_to_client(at_server + SimDuration::from_us(5) + link.one_way(&mut rng));
        black_box(link.coalesce(back));
    });
    out.push(("net.link_ns", link_ns, "ns"));

    // loadgen: the generator's send and receive paths, and the batched
    // inter-arrival draw.
    let gen = GeneratorSpec::mutilate();
    let env = hp.draw_environment(&mut SimRng::seed_from_u64(SEED));
    let conns = gen.connections.max(1) as usize;
    let mut client = ClientSide::new(gen, &hp, &env);
    let mut due = SimTime::ZERO;
    let send_ns = per_call_ns(1 << 14, |i| {
        due += req_gaps[i & 0x3FFF];
        black_box(client.plan_send(i % conns, due, &mut rng));
    });
    out.push(("loadgen.plan_send_ns", send_ns, "ns"));
    let mut client = ClientSide::new(gen, &hp, &env);
    let mut nic = SimTime::ZERO;
    let receive_ns = per_call_ns(1 << 14, |i| {
        nic += req_gaps[i & 0x3FFF];
        black_box(client.receive(i % conns, nic, &mut rng));
    });
    out.push(("loadgen.receive_ns", receive_ns, "ns"));
    let arrivals = ArrivalProcess::new(gen.arrival, SimDuration::from_us(20));
    let mut buf = GapBuffer::new();
    let gap_ns = per_call_ns(200_000, |_| {
        black_box(buf.next_gap(&arrivals, &mut rng));
    });
    out.push(("loadgen.next_gap_ns", gap_ns, "ns"));

    // services: one memcached request (descriptor + admit) at 200K/s,
    // and one HDSearch request through every stage at 1500/s.
    let server = MachineConfig::server_baseline();
    let horizon = SimDuration::from_secs(10);
    let memcached = Benchmark::memcached().service;
    let hdsearch = Benchmark::hdsearch().service;
    let new_instance = |config: &ServiceConfig, seed: u64| {
        let mut r = SimRng::seed_from_u64(seed);
        let env = server.draw_environment(&mut r);
        ServiceInstance::new(config, &server, &env, horizon, &mut r)
    };
    let mut svc = new_instance(&memcached, SEED);
    let mut now = SimTime::ZERO;
    let admit_ns = per_call_ns(50_000, |i| {
        now += SimDuration::from_us(5);
        let desc = svc.next_descriptor(&mut rng);
        black_box(svc.admit(i % 160, &desc, now, &mut rng));
    });
    out.push(("services.admit_ns.memcached", admit_ns, "ns"));
    let mut svc = new_instance(&hdsearch, SEED);
    let mut now = SimTime::ZERO;
    let request_ns = per_call_ns(2_000, |i| {
        now += SimDuration::from_us(667);
        let desc: RequestDescriptor = svc.next_descriptor(&mut rng);
        let mut outcome = svc.admit(i % 16, &desc, now, &mut rng);
        while let StageOutcome::Continue { at, stage, ctx } = outcome {
            outcome = svc.resume(i % 16, &desc, stage, ctx, at, &mut rng);
        }
        black_box(outcome);
    });
    out.push(("services.request_ns.hdsearch", request_ns, "ns"));
    for (name, config, builds) in
        [("services.new_ms.memcached", &memcached, 5), ("services.new_ms.hdsearch", &hdsearch, 3)]
    {
        let ms = per_call_ns(builds, |i| {
            black_box(new_instance(config, SEED + i as u64));
        }) / 1e6;
        out.push((name, ms, "ms"));
    }

    // collect and control: the self-check's tiny fleet and controlled
    // workloads, run serially — the merges of a 16-shard, 256-node run,
    // and the windows and decisions of a controlled run.
    let ns_in = |ns: &[u64], unit: f64| median(&ns.iter().map(|&v| v as f64 / unit).collect::<Vec<_>>());
    let fleet = Workload::build("fleet_sharded", SEED, true).expect("a known workload");
    let merge_us: Vec<f64> = (0..3)
        .map(|_| {
            let run = &run_pass::<false>(&fleet, 1).runs[0];
            run.merge_ns as f64 / 1e3 / (run.parts.len() - 1) as f64
        })
        .collect();
    out.push(("collect.merge_us", median(&merge_us), "us"));
    let control = Workload::build("mitigation_control", SEED, true).expect("a known workload");
    let pass = run_pass::<false>(&control, 1);
    let controlled = &pass.controlled[0];
    out.push(("control.window_ms", ns_in(&controlled.windows_ns, 1e6), "ms"));
    out.push(("control.decide_us", ns_in(&controlled.decide_ns, 1e3), "us"));
    out.push(("control.hedges", controlled.hedges as f64, "count"));
    out
}
