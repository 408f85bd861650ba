//! HDSearch: image-similarity search via locality-sensitive hashing.
//!
//! §IV-B: *"HDSearch is an image similarity search service … It returns
//! images from a large dataset whose feature vectors are near to the
//! query's feature vector. It uses Locality-Sensitive Hash (LSH) tables to
//! traverse the search space … structured as a three-tier service"*
//! (client → midtier → bucket servers).
//!
//! The index here is real: random-hyperplane LSH over a synthetic
//! clustered feature-vector dataset, with actual buckets, candidate
//! retrieval and distance ranking ([`LshIndex`]). Per-request *timing* is
//! driven by the index's true per-query candidate counts, sampled from a
//! profile measured against the index at startup — so the service-time
//! distribution is grounded in the real data structure while the
//! simulation stays cheap per request.
//!
//! Building the index and its profile is the service's whole set-up cost,
//! so the index is laid out for that build: one flat dataset array,
//! hyperplanes stored transposed so one pass over a vector advances every
//! plane's dot product together, one sorted CSR (compressed sparse row)
//! bucket array per table, and a dense bitset for a query's candidate
//! union. The layout changes no bit of any signature, bucket or
//! candidate set; [`LshIndex`] says why.

use tpv_hw::{MachineConfig, RunEnvironment};
use tpv_net::StackCosts;
use tpv_sim::dist::{Normal, Sampler};
use tpv_sim::{SimDuration, SimRng, SimTime};

use crate::interference::InterferenceProfile;
use crate::request::{RequestDescriptor, ServiceCompletion, StageCtx, StageOutcome};
use crate::worker_pool::WorkerPool;

/// Most hyperplanes a table may have: a signature is one bit per plane
/// in a `u64`.
const MAX_PLANES: usize = 63;

/// One LSH table: transposed hyperplanes plus CSR buckets.
#[derive(Debug)]
struct LshTable {
    planes: usize,
    /// Hyperplane coordinates, `[dim][planes]`: entry `d * planes + p` is
    /// coordinate `d` of plane `p`.
    planes_t: Vec<f32>,
    /// The distinct signatures, ascending.
    sigs: Vec<u64>,
    /// `ids[starts[i]..starts[i + 1]]` is the bucket of `sigs[i]`.
    starts: Vec<u32>,
    /// Every indexed id once, grouped by bucket, ascending within one.
    ids: Vec<u32>,
}

impl LshTable {
    /// Draws `planes` random unit hyperplanes and buckets every row of
    /// `data` by its signature. Hashing draws nothing.
    fn build(data: &[f32], dim: usize, planes: usize, rng: &mut SimRng) -> Self {
        let mut planes_t = vec![0.0; dim * planes];
        let mut plane = vec![0.0f32; dim];
        for p in 0..planes {
            plane.iter_mut().for_each(|x| *x = Normal::standard_sample(rng) as f32);
            let norm = plane.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            for (d, x) in plane.iter().enumerate() {
                planes_t[d * planes + p] = x / norm;
            }
        }
        let mut table = LshTable { planes, planes_t, sigs: Vec::new(), starts: Vec::new(), ids: Vec::new() };
        let mut keyed: Vec<(u64, u32)> =
            data.chunks_exact(dim).enumerate().map(|(id, v)| (table.hash(v), id as u32)).collect();
        keyed.sort_unstable();
        for (at, &(sig, _)) in keyed.iter().enumerate() {
            if table.sigs.last() != Some(&sig) {
                table.sigs.push(sig);
                table.starts.push(at as u32);
            }
        }
        table.starts.push(keyed.len() as u32);
        table.ids = keyed.into_iter().map(|(_, id)| id).collect();
        table
    }

    /// Every plane's dot product with `v` (lanes past `planes` stay
    /// `-0.0`). One accumulator per plane, all advancing together over
    /// `dim`; each starts at `-0.0` and adds its products in `dim` order,
    /// as `Iterator::sum` does.
    fn dots(&self, v: &[f32]) -> [f32; MAX_PLANES] {
        let mut lanes = [-0.0f32; MAX_PLANES];
        let acc = &mut lanes[..self.planes];
        for (&x, row) in v.iter().zip(self.planes_t.chunks_exact(self.planes)) {
            for (a, &w) in acc.iter_mut().zip(row) {
                *a += w * x;
            }
        }
        lanes
    }

    /// The signature of `v`: bit `p` is set when `dot(plane p, v) >= 0`.
    fn hash(&self, v: &[f32]) -> u64 {
        let dots = self.dots(v);
        dots[..self.planes].iter().enumerate().fold(0, |sig, (p, &dot)| sig | (u64::from(dot >= 0.0) << p))
    }

    /// The ids whose signature is `sig`, ascending (empty if none).
    fn bucket(&self, sig: u64) -> &[u32] {
        let i = self.sigs.partition_point(|&s| s < sig);
        if self.sigs.get(i) == Some(&sig) {
            &self.ids[self.starts[i] as usize..self.starts[i + 1] as usize]
        } else {
            &[]
        }
    }
}

/// A multi-table random-hyperplane LSH index over a vector dataset.
///
/// The layout serves the build, which is most of a service instance's
/// set-up, and reproduces bit for bit what a per-plane `.sum()` hash,
/// hash-map buckets and a hash-set candidate union compute:
///
/// * The dataset is one row-major `Vec<f32>`, `len × dim` values.
/// * Each table stores its hyperplanes transposed (`[dim][planes]`) and
///   hashes a vector with one accumulator per plane, all advancing
///   together over `dim`. Each accumulator adds the same products in the
///   same order as `.sum()`, and Rust never fuses a multiply and an add,
///   so every dot product is the same f32. (A sign of zero could not
///   change the signature bit `dot >= 0.0` anyway.)
/// * Each table's buckets are one CSR array: the distinct signatures in
///   ascending order, found by `partition_point`, with each bucket's ids
///   stored contiguously in ascending order.
/// * A query's candidate union over the tables is a dense `len`-bit
///   bitset, read in ascending id order: the same set, already sorted.
#[derive(Debug)]
pub struct LshIndex {
    dim: usize,
    tables: Vec<LshTable>,
    data: Vec<f32>,
    shards: usize,
}

fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Generates a clustered synthetic dataset (images of similar scenes have
/// nearby feature vectors; clusters model that structure): `n` row-major
/// vectors of `dim` values.
pub fn clustered_dataset(n: usize, dim: usize, clusters: usize, rng: &mut SimRng) -> Vec<f32> {
    assert!(clusters > 0, "need at least one cluster");
    let centers: Vec<f32> = (0..clusters * dim).map(|_| Normal::standard_sample(rng) as f32 * 4.0).collect();
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = &centers[(i % clusters) * dim..][..dim];
        data.extend(c.iter().map(|&x| x + Normal::standard_sample(rng) as f32 * 0.6));
    }
    data
}

/// The ids set in a candidate bitset, ascending.
fn set_ids(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                (w * 64) as u32 + bit
            })
        })
    })
}

impl LshIndex {
    /// Builds an index over `data` (row-major vectors of `dim` values)
    /// with `tables` tables of `planes` hyperplanes each, logically
    /// sharded across `shards` bucket servers.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, zero `dim`, a length that is not a
    /// multiple of `dim`, zero tables/planes/shards, or planes > 63.
    pub fn build(
        data: Vec<f32>,
        dim: usize,
        tables: usize,
        planes: usize,
        shards: usize,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!data.is_empty() && dim > 0, "LSH needs data");
        assert_eq!(data.len() % dim, 0, "inconsistent vector dimensionality");
        assert!(tables > 0 && planes > 0 && planes <= MAX_PLANES, "bad LSH shape");
        assert!(shards > 0, "need at least one shard");
        let tables = (0..tables).map(|_| LshTable::build(&data, dim, planes, rng)).collect();
        LshIndex { dim, tables, data, shards }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The indexed vector `id`.
    fn row(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..][..self.dim]
    }

    /// The shard an indexed vector lives on.
    pub fn shard_of(&self, id: u32) -> usize {
        id as usize % self.shards
    }

    /// The union of the query's buckets over every table, as a bitset
    /// (bit `id % 64` of word `id / 64`).
    fn candidate_bits(&self, query: &[f32]) -> Vec<u64> {
        let mut bits = vec![0u64; self.len().div_ceil(64)];
        for table in &self.tables {
            for &id in table.bucket(table.hash(query)) {
                bits[id as usize / 64] |= 1 << (id % 64);
            }
        }
        bits
    }

    /// Retrieves the deduplicated candidate set for a query, ascending.
    pub fn candidates(&self, query: &[f32]) -> Vec<u32> {
        set_ids(&self.candidate_bits(query)).collect()
    }

    /// Full LSH query: candidates, exact distances, top-`k` nearest.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut scored: Vec<(u32, f32)> = self
            .candidates(query)
            .into_iter()
            .map(|id| (id, squared_distance(self.row(id as usize), query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Exact brute-force top-`k` (ground truth for recall tests).
    pub fn brute_force(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut scored: Vec<(u32, f32)> = self
            .data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(id, v)| (id as u32, squared_distance(v, query)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scored.truncate(k);
        scored
    }

    /// Per-shard candidate counts for a query (drives bucket-leg timing).
    pub fn shard_candidate_counts(&self, query: &[f32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.shards];
        for id in set_ids(&self.candidate_bits(query)) {
            counts[self.shard_of(id)] += 1;
        }
        counts
    }
}

/// Configuration of the HDSearch service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdSearchConfig {
    /// Indexed vectors.
    pub dataset_size: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// LSH tables.
    pub tables: usize,
    /// Hyperplanes per table.
    pub planes: usize,
    /// Bucket servers (dataset shards).
    pub shards: usize,
    /// Midtier worker threads.
    pub midtier_workers: usize,
    /// Bucket worker threads (total across shards).
    pub bucket_workers: usize,
    /// Pre-sampled query profiles.
    pub profile_queries: usize,
    /// Internal midtier↔bucket RPC one-way delay.
    pub tier_hop: SimDuration,
}

impl Default for HdSearchConfig {
    fn default() -> Self {
        HdSearchConfig {
            dataset_size: 4096,
            dim: 64,
            tables: 4,
            planes: 8,
            shards: 4,
            midtier_workers: 2,
            bucket_workers: 8,
            profile_queries: 256,
            tier_hop: SimDuration::from_us(12),
        }
    }
}

/// The HDSearch service instance for one run.
#[derive(Debug)]
pub struct HdSearchService {
    index: LshIndex,
    /// Pre-measured query cost profiles: per-shard candidate counts, one
    /// row of `shards` counts per profile query.
    profiles: Vec<u32>,
    midtier: WorkerPool,
    buckets: WorkerPool,
    config: HdSearchConfig,
    stack: StackCosts,
    jitter: Normal,
}

impl HdSearchService {
    /// Builds the dataset, the LSH index, the query profiles and the
    /// worker pools for one run.
    pub fn new(
        config: HdSearchConfig,
        server: &MachineConfig,
        env: &RunEnvironment,
        interference: &InterferenceProfile,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        // Forked, not split: building the dataset leaves the run's stream
        // untouched. The dataset still varies with the run's seed.
        let mut data_rng = rng.fork(0x4453);
        let dim = config.dim;
        let data = clustered_dataset(config.dataset_size, dim, 8, &mut data_rng);
        let index = LshIndex::build(data, dim, config.tables, config.planes, config.shards, &mut data_rng);
        // Measure real per-query candidate counts once. Each query is a
        // one-point `clustered_dataset(1, dim, 1)` draw (a centre, then a
        // point around it), mixed into a real dataset point so queries hit
        // populated buckets; the draws and f32 operations run in that
        // order, in two reused buffers.
        let queries = config.profile_queries.max(1);
        let mut profiles = Vec::with_capacity(queries * config.shards);
        let mut center = vec![0.0f32; dim];
        let mut q = vec![0.0f32; dim];
        for i in 0..queries {
            center.iter_mut().for_each(|c| *c = Normal::standard_sample(&mut data_rng) as f32 * 4.0);
            let anchor = index.row((i * 17) % index.len());
            for ((q, &a), &c) in q.iter_mut().zip(anchor).zip(&center) {
                let base = c + Normal::standard_sample(&mut data_rng) as f32 * 0.6;
                *q = a + 0.15 * base;
            }
            profiles.extend(index.shard_candidate_counts(&q));
        }
        let midtier = WorkerPool::new(server, env, config.midtier_workers, interference, horizon, rng);
        let buckets = WorkerPool::new(server, env, config.bucket_workers, interference, horizon, rng);
        HdSearchService {
            index,
            profiles,
            midtier,
            buckets,
            config,
            stack: StackCosts::tcp_small_rpc(),
            jitter: Normal::new(1.0, 0.05),
        }
    }

    /// Number of pre-measured query profiles.
    fn profile_count(&self) -> usize {
        self.profiles.len() / self.config.shards
    }

    /// Draws the next request descriptor (a query id into the profile set).
    pub fn next_descriptor(&self, rng: &mut SimRng) -> RequestDescriptor {
        RequestDescriptor::Search { query_id: rng.next_index(self.profile_count()) as u32 }
    }

    /// Admits a query arriving at the midtier NIC at `arrival` (stage 0:
    /// parse + LSH hashing).
    ///
    /// Path: midtier parse+hash → fan-out to every shard's bucket worker →
    /// join on the slowest leg → midtier merge → response on the wire.
    /// Stages are returned as [`StageOutcome::Continue`] so the simulation
    /// feeds each tier's queues in chronological order.
    pub fn admit(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        debug_assert!(
            matches!(desc, RequestDescriptor::Search { .. }),
            "HdSearchService got a non-search request: {desc:?}"
        );
        // Midtier: parse + LSH hashing (tables × planes × dim mults).
        let hash_cost = SimDuration::from_us_f64(
            30.0 + (self.config.tables * self.config.planes * self.config.dim) as f64 * 0.004,
        );
        let mw = self.midtier.worker_for_connection(conn);
        let jitter = self.jitter.sample(rng).max(0.5);
        let mid = self.midtier.execute(mw, arrival, hash_cost.scale(jitter), self.stack.server_softirq, rng);
        StageOutcome::Continue {
            at: mid.end + self.config.tier_hop,
            stage: 1,
            ctx: StageCtx { busy_ns: mid.busy.as_ns(), aux: 0, aux2: 0 },
        }
    }

    /// Resumes a query at a later stage (1 = bucket fan-out, 2 = merge).
    ///
    /// # Panics
    ///
    /// Panics on an unknown stage index or a non-search descriptor.
    pub fn resume(
        &mut self,
        conn: usize,
        desc: &RequestDescriptor,
        stage: u8,
        ctx: StageCtx,
        now: SimTime,
        rng: &mut SimRng,
    ) -> StageOutcome {
        let query_id = match desc {
            RequestDescriptor::Search { query_id } => *query_id as usize % self.profile_count(),
            other => panic!("HdSearchService got a non-search request: {other:?}"),
        };
        match stage {
            1 => {
                // Fan-out: one leg per shard, in parallel on the bucket pool.
                let shards = self.config.shards;
                let profile = &self.profiles[query_id * shards..][..shards];
                let mut busy = SimDuration::from_ns(ctx.busy_ns);
                let mut join = now;
                for (shard, &cands) in profile.iter().enumerate() {
                    // Distance computations dominate: ~1.1 µs per candidate
                    // (64-dim float distance + ranking).
                    let leg_work = SimDuration::from_us_f64(35.0 + cands as f64 * 1.1)
                        .scale(self.jitter.sample(rng).max(0.5));
                    // Shard legs spread over the bucket workers, offset per
                    // connection so different requests' legs interleave.
                    let bw = (shard + conn) % self.buckets.len();
                    let leg = self.buckets.execute(bw, now, leg_work, self.stack.server_softirq, rng);
                    busy += leg.busy;
                    join = join.max(leg.end);
                }
                StageOutcome::Continue {
                    at: join + self.config.tier_hop,
                    stage: 2,
                    ctx: StageCtx { busy_ns: busy.as_ns(), aux: 0, aux2: 0 },
                }
            }
            2 => {
                // Midtier merge of per-shard top-k lists.
                let mw = self.midtier.worker_for_connection(conn);
                let merge_cost = SimDuration::from_us_f64(25.0).scale(self.jitter.sample(rng).max(0.5));
                let merge = self.midtier.execute(mw, now, merge_cost, self.stack.server_softirq, rng);
                StageOutcome::Done(ServiceCompletion {
                    response_wire: merge.end,
                    server_time: SimDuration::from_ns(ctx.busy_ns) + merge.busy,
                })
            }
            other => panic!("HdSearchService has no stage {other}"),
        }
    }

    /// The underlying LSH index (inspection / tests).
    pub fn index(&self) -> &LshIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index(seed: u64) -> (LshIndex, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let data = clustered_dataset(1024, 32, 8, &mut rng);
        let index = LshIndex::build(data, 32, 4, 8, 4, &mut rng);
        (index, rng)
    }

    #[test]
    fn index_build_and_shape() {
        let (index, _) = small_index(1);
        assert_eq!(index.len(), 1024);
        assert_eq!(index.dim(), 32);
        assert!(!index.is_empty());
        assert!(index.shard_of(7) < 4);
    }

    #[test]
    fn identical_vector_is_always_its_own_candidate() {
        let (index, _) = small_index(2);
        for id in [0usize, 100, 500, 1023] {
            let q = index.row(id).to_vec();
            let cands = index.candidates(&q);
            assert!(cands.contains(&(id as u32)), "vector {id} not in its own bucket");
            // And it is the top-ranked result with distance 0.
            let top = index.query(&q, 1);
            assert_eq!(top[0].0, id as u32);
            assert!(top[0].1 < 1e-9);
        }
    }

    #[test]
    fn lsh_recall_beats_random_selection() {
        let (index, mut rng) = small_index(3);
        let mut recall_sum = 0.0;
        let trials = 30;
        for t in 0..trials {
            // Perturb a dataset point slightly: a realistic near-duplicate query.
            let anchor = (t * 31) % index.len();
            let q: Vec<f32> = index
                .row(anchor)
                .iter()
                .map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1)
                .collect();
            let truth: std::collections::HashSet<u32> =
                index.brute_force(&q, 10).into_iter().map(|(id, _)| id).collect();
            let got: std::collections::HashSet<u32> =
                index.query(&q, 10).into_iter().map(|(id, _)| id).collect();
            recall_sum += truth.intersection(&got).count() as f64 / truth.len() as f64;
        }
        let recall = recall_sum / trials as f64;
        assert!(recall > 0.5, "recall@10 = {recall}");
    }

    #[test]
    fn candidates_are_a_small_fraction_of_the_dataset() {
        let (index, mut rng) = small_index(4);
        let mut total = 0usize;
        for t in 0..20 {
            let anchor = (t * 53) % index.len();
            let q: Vec<f32> = index
                .row(anchor)
                .iter()
                .map(|&x| x + Normal::standard_sample(&mut rng) as f32 * 0.1)
                .collect();
            total += index.candidates(&q).len();
        }
        let avg = total as f64 / 20.0;
        assert!(avg < 800.0, "LSH is not pruning: avg candidates {avg}");
        assert!(avg > 10.0, "LSH buckets suspiciously empty: {avg}");
    }

    #[test]
    fn shard_counts_sum_to_candidate_count() {
        let (index, _) = small_index(5);
        let q = index.row(10).to_vec();
        let counts = index.shard_candidate_counts(&q);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, index.candidates(&q).len());
        assert_eq!(counts.len(), 4);
    }

    fn drive(
        svc: &mut HdSearchService,
        conn: usize,
        desc: &RequestDescriptor,
        arrival: SimTime,
        rng: &mut SimRng,
    ) -> ServiceCompletion {
        let mut out = svc.admit(conn, desc, arrival, rng);
        loop {
            match out {
                StageOutcome::Done(done) => return done,
                StageOutcome::Continue { at, stage, ctx } => {
                    out = svc.resume(conn, desc, stage, ctx, at, rng)
                }
            }
        }
    }

    fn service(seed: u64) -> (HdSearchService, SimRng) {
        service_with(
            HdSearchConfig { dataset_size: 1024, profile_queries: 64, ..HdSearchConfig::default() },
            seed,
        )
    }

    fn service_with(cfg: HdSearchConfig, seed: u64) -> (HdSearchService, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let svc = HdSearchService::new(
            cfg,
            &MachineConfig::server_baseline(),
            &RunEnvironment::neutral(),
            &InterferenceProfile::none(),
            SimDuration::from_secs(1),
            &mut rng,
        );
        (svc, rng)
    }

    #[test]
    fn service_latency_is_submillisecond_scale() {
        // The paper's framing: HDSearch has ~10× memcached's latency
        // (hundreds of µs server-side).
        let (mut svc, mut rng) = service(6);
        let mut total = SimDuration::ZERO;
        let n = 50u64;
        for i in 0..n {
            let desc = svc.next_descriptor(&mut rng);
            let arrival = SimTime::from_ms(10 * (i + 1));
            let done = drive(&mut svc, 0, &desc, arrival, &mut rng);
            total += done.response_wire.since(arrival);
        }
        let avg_us = total.as_us() / n as f64;
        assert!((150.0..1500.0).contains(&avg_us), "avg service span {avg_us} µs");
    }

    #[test]
    fn queries_with_more_candidates_take_longer() {
        let (mut svc, mut rng) = service(7);
        // Find the cheapest and dearest profiles.
        let sums: Vec<u32> = svc.profiles.chunks_exact(svc.config.shards).map(|p| p.iter().sum()).collect();
        let (min_id, _) = sums.iter().enumerate().min_by_key(|(_, &s)| s).unwrap();
        let (max_id, max_sum) = sums.iter().enumerate().max_by_key(|(_, &s)| s).unwrap();
        if *max_sum == 0 {
            return; // degenerate draw; nothing to compare
        }
        let cheap = RequestDescriptor::Search { query_id: min_id as u32 };
        let dear = RequestDescriptor::Search { query_id: max_id as u32 };
        let mut cheap_total = SimDuration::ZERO;
        let mut dear_total = SimDuration::ZERO;
        for i in 0..20u64 {
            let t1 = SimTime::from_ms(20 * i + 10);
            cheap_total += drive(&mut svc, 0, &cheap, t1, &mut rng).server_time;
            let t2 = SimTime::from_ms(20 * i + 20);
            dear_total += drive(&mut svc, 0, &dear, t2, &mut rng).server_time;
        }
        assert!(dear_total >= cheap_total, "{dear_total} < {cheap_total}");
    }

    #[test]
    fn fan_out_joins_on_slowest_leg() {
        let (mut svc, mut rng) = service(8);
        let desc = svc.next_descriptor(&mut rng);
        let arrival = SimTime::from_ms(5);
        let done = drive(&mut svc, 0, &desc, arrival, &mut rng);
        // Completion must include at least midtier + hop + leg + hop + merge.
        let floor = SimDuration::from_us(30 + 12 + 35 + 12 + 25);
        assert!(done.response_wire.since(arrival) >= floor);
        // server_time accumulates every leg, so it exceeds the span of a
        // single leg.
        assert!(done.server_time >= SimDuration::from_us(100));
    }

    /// One dot product as the eager index computed it: a serial `.sum()`.
    fn eager_dot(plane: &[f32], v: &[f32]) -> f32 {
        plane.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    fn eager_hash(planes: &[Vec<f32>], v: &[f32]) -> u64 {
        let mut sig = 0u64;
        for (i, plane) in planes.iter().enumerate() {
            if eager_dot(plane, v) >= 0.0 {
                sig |= 1 << i;
            }
        }
        sig
    }

    /// One eager table: hyperplanes as rows, and its buckets.
    type EagerTable = (Vec<Vec<f32>>, crate::fasthash::FxHashMap<u64, Vec<u32>>);

    /// A replay of the eager index build and profile that `LshIndex`
    /// replaced: `Vec<Vec<f32>>` rows, hyperplanes drawn per table,
    /// `FxHashMap` buckets, per-plane `.sum()` hashing and a `HashSet`
    /// candidate union sorted afterwards.
    struct EagerIndex {
        data: Vec<Vec<f32>>,
        tables: Vec<EagerTable>,
        shards: usize,
        queries: Vec<Vec<f32>>,
        profiles: Vec<Vec<u32>>,
    }

    fn eager_clustered_dataset(n: usize, dim: usize, clusters: usize, rng: &mut SimRng) -> Vec<Vec<f32>> {
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| Normal::standard_sample(rng) as f32 * 4.0).collect())
            .collect();
        (0..n)
            .map(|i| {
                centers[i % clusters].iter().map(|&x| x + Normal::standard_sample(rng) as f32 * 0.6).collect()
            })
            .collect()
    }

    impl EagerIndex {
        /// The index and profile `HdSearchService::new` built for `seed`.
        fn replay(cfg: HdSearchConfig, seed: u64) -> Self {
            let mut rng = SimRng::seed_from_u64(seed).fork(0x4453);
            let data = eager_clustered_dataset(cfg.dataset_size, cfg.dim, 8, &mut rng);
            let mut tables = Vec::new();
            for _ in 0..cfg.tables {
                let planes: Vec<Vec<f32>> = (0..cfg.planes)
                    .map(|_| {
                        let mut v: Vec<f32> =
                            (0..cfg.dim).map(|_| Normal::standard_sample(&mut rng) as f32).collect();
                        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                        v.iter_mut().for_each(|x| *x /= norm);
                        v
                    })
                    .collect();
                let mut buckets = crate::fasthash::FxHashMap::<u64, Vec<u32>>::default();
                for (id, v) in data.iter().enumerate() {
                    buckets.entry(eager_hash(&planes, v)).or_default().push(id as u32);
                }
                tables.push((planes, buckets));
            }
            let mut eager =
                EagerIndex { data, tables, shards: cfg.shards, queries: Vec::new(), profiles: Vec::new() };
            for i in 0..cfg.profile_queries.max(1) {
                let base = &eager_clustered_dataset(1, cfg.dim, 1, &mut rng)[0];
                let anchor = (i * 17) % eager.data.len();
                let q: Vec<f32> = eager.data[anchor].iter().zip(base).map(|(a, b)| a + 0.15 * b).collect();
                let mut counts = vec![0u32; eager.shards];
                for id in eager.candidates(&q) {
                    counts[id as usize % eager.shards] += 1;
                }
                eager.queries.push(q);
                eager.profiles.push(counts);
            }
            eager
        }

        fn candidates(&self, query: &[f32]) -> Vec<u32> {
            let mut seen = std::collections::HashSet::new();
            for (planes, buckets) in &self.tables {
                if let Some(bucket) = buckets.get(&eager_hash(planes, query)) {
                    seen.extend(bucket.iter().copied());
                }
            }
            let mut v: Vec<u32> = seen.into_iter().collect();
            v.sort_unstable();
            v
        }
    }

    #[test]
    fn index_matches_a_replay_of_the_eager_build() {
        let cfg = HdSearchConfig::default();
        for seed in 1..=8u64 {
            let (svc, _) = service_with(cfg, seed);
            let (index, eager) = (svc.index(), EagerIndex::replay(cfg, seed));
            let flat: Vec<u32> = eager.data.iter().flatten().map(|x| x.to_bits()).collect();
            let data: Vec<u32> = index.data.iter().map(|x| x.to_bits()).collect();
            assert!(data == flat, "seed {seed}: dataset bits differ");
            assert_eq!(index.tables.len(), eager.tables.len());
            for (t, (table, (planes, buckets))) in index.tables.iter().zip(&eager.tables).enumerate() {
                for (id, v) in eager.data.iter().enumerate() {
                    let dots = table.dots(v);
                    let mut sig = 0u64;
                    for (p, plane) in planes.iter().enumerate() {
                        let dot = eager_dot(plane, v);
                        assert_eq!(
                            dots[p].to_bits(),
                            dot.to_bits(),
                            "seed {seed} table {t} id {id} plane {p}"
                        );
                        sig |= u64::from(dot >= 0.0) << p;
                    }
                    assert_eq!(table.hash(v), sig, "seed {seed} table {t} id {id}: signature");
                }
                assert_eq!(table.sigs.len(), buckets.len(), "seed {seed} table {t}: bucket count");
                for (&sig, ids) in buckets {
                    assert_eq!(table.bucket(sig), ids.as_slice(), "seed {seed} table {t} bucket {sig:#x}");
                }
            }
            for (i, q) in eager.queries.iter().enumerate() {
                assert_eq!(index.candidates(q), eager.candidates(q), "seed {seed} query {i}: candidates");
            }
            assert_eq!(svc.profiles, eager.profiles.concat(), "seed {seed}: profile shard counts");
        }
    }

    /// A vector exactly orthogonal to a hyperplane has dot `±0.0`, and both
    /// signs of zero set the plane's bit (`dot >= 0.0`) in the lane-parallel
    /// hash and in the eager `.sum()` hash alike.
    #[test]
    fn an_orthogonal_vector_sets_the_planes_bit() {
        let mut rng = SimRng::seed_from_u64(11);
        let dim = 8;
        let index = LshIndex::build(clustered_dataset(64, dim, 2, &mut rng), dim, 1, 4, 1, &mut rng);
        let table = &index.tables[0];
        let plane: Vec<f32> = (0..dim).map(|d| table.planes_t[d * table.planes]).collect();
        // Two products that cancel exactly (x·y, then y·(−x)): dot is +0.0.
        let mut cancelling = vec![0.0f32; dim];
        cancelling[0] = plane[1];
        cancelling[1] = -plane[0];
        // Zeros signed against the plane: every product, and the dot, is -0.0.
        let negative_zeros: Vec<f32> =
            plane.iter().map(|w| if w.is_sign_negative() { 0.0 } else { -0.0 }).collect();
        for (v, zero) in [(cancelling, 0.0f32), (negative_zeros, -0.0)] {
            let dot = eager_dot(&plane, &v);
            assert_eq!(dot.to_bits(), zero.to_bits(), "eager dot {dot:?}");
            assert_eq!(table.dots(&v)[0].to_bits(), zero.to_bits(), "lane-parallel dot");
            assert_eq!(table.hash(&v) & 1, 1, "lane-parallel hash leaves the bit clear for {zero:?}");
            assert_eq!(
                eager_hash(std::slice::from_ref(&plane), &v) & 1,
                1,
                "eager hash leaves the bit clear for {zero:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-search request")]
    fn wrong_descriptor_panics() {
        let (mut svc, mut rng) = service(9);
        svc.resume(0, &RequestDescriptor::Synthetic, 1, StageCtx::default(), SimTime::ZERO, &mut rng);
    }
}
