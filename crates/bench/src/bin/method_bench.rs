//! Method-selection microbench: steps/sec of the runtime-adaptive
//! sampler chooser (`MethodPolicy::Adaptive`) against the always-ITS
//! kernel, on a power-law and a uniform-degree graph.
//!
//! Like `cache_bench`, this drives [`StepKernel`] directly with the same
//! per-mode loops the engine uses, so the measurement isolates the
//! expand path. Four policy rows per (graph, algorithm):
//!
//! - **its-rebuild** — ForceIts with `force_rebuild`: the pre-cache
//!   kernel, every row's speedup baseline.
//! - **its-cache** — ForceIts with a full-budget CTPS cache: the PR-6
//!   best configuration (cached bounds, ITS search on top).
//! - **adaptive** — the chooser with the same full-budget cache: hot
//!   static-bias vertices get cached alias tables (O(1) per draw),
//!   dynamic-bias frontiers get rejection with the a-priori bound.
//! - **adaptive-nocache** — the chooser without a cache: isolates the
//!   rejection win (node2vec) from the alias-caching win (biased walk).
//!
//! Three bias populations: uniform static (simple walk — the chooser's
//! closed-form path, a no-regression control), non-uniform static
//! (biased walk / biased sampling — the alias-cache rows), and dynamic
//! (node2vec — the rejection rows).
//!
//! Usage: `method_bench [--quick] [--label NAME] [--json PATH] [--csv PATH]`

use csaw_core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::ctps_cache::{CacheSnapshot, CtpsCache, ENTRY_OVERHEAD_BYTES};
use csaw_core::method::MethodPolicy;
use csaw_core::select::SelectConfig;
use csaw_core::step::{
    CsrAccess, EmitSink, PoolSink, PoolSlot, StepEntry, StepKernel, StepScratch, TrialCounter,
};
use csaw_gpu::stats::SimStats;
use csaw_graph::generators::{ring_lattice, rmat, RmatParams};
use csaw_graph::{Csr, VertexId};
use std::collections::HashSet;
use std::time::Instant;

/// Reusable driver state (the `step_bench` loop, verbatim).
#[derive(Default)]
struct DriverBufs {
    pool: Vec<PoolSlot>,
    pool_biases: Vec<f64>,
    frontier: Vec<PoolSlot>,
    visited: HashSet<VertexId>,
    out: Vec<(VertexId, VertexId)>,
    trials: TrialCounter,
    stats: SimStats,
    scratch: StepScratch,
}

/// One full repetition: every instance of `algo` over its seed chunks.
/// Returns kernel step invocations.
fn run_rep(kernel: &StepKernel<'_>, g: &Csr, chunks: &[Vec<VertexId>], b: &mut DriverBufs) -> u64 {
    let cfg = *kernel.cfg();
    let detector = kernel.select().detector;
    let mut access = CsrAccess::new(g);
    let mut steps = 0u64;
    for (inst, seeds) in chunks.iter().enumerate() {
        let inst = inst as u32;
        let home = seeds[0];
        b.pool.clear();
        b.pool.extend(seeds.iter().map(|&s| PoolSlot::seed(s)));
        b.visited.clear();
        if cfg.without_replacement {
            b.visited.extend(seeds.iter().copied());
        }
        b.out.clear();
        match cfg.frontier {
            FrontierMode::IndependentPerVertex => {
                for depth in 0..cfg.depth {
                    if b.pool.is_empty() {
                        break;
                    }
                    std::mem::swap(&mut b.pool, &mut b.frontier);
                    b.pool.clear();
                    b.trials.reset();
                    for i in 0..b.frontier.len() {
                        let slot = b.frontier[i];
                        let entry = StepEntry {
                            instance: inst,
                            depth: depth as u32,
                            vertex: slot.vertex,
                            prev: slot.prev,
                            trial: b.trials.next(inst, slot.vertex),
                        };
                        let mut sink = PoolSink {
                            cfg: &cfg,
                            detector,
                            visited: &mut b.visited,
                            next: &mut b.pool,
                            out: &mut b.out,
                        };
                        kernel.expand(
                            &mut access,
                            &entry,
                            home,
                            &mut sink,
                            &mut b.scratch,
                            &mut b.stats,
                        );
                        steps += 1;
                    }
                }
            }
            FrontierMode::SharedLayer => {
                for depth in 0..cfg.depth {
                    if b.pool.is_empty() {
                        break;
                    }
                    std::mem::swap(&mut b.pool, &mut b.frontier);
                    b.pool.clear();
                    let mut sink = PoolSink {
                        cfg: &cfg,
                        detector,
                        visited: &mut b.visited,
                        next: &mut b.pool,
                        out: &mut b.out,
                    };
                    kernel.expand_layer(
                        &mut access,
                        inst,
                        depth as u32,
                        &b.frontier,
                        &mut sink,
                        &mut b.scratch,
                        &mut b.stats,
                    );
                    steps += 1;
                }
            }
            FrontierMode::BiasedReplace => {
                b.pool_biases.clear();
                for depth in 0..cfg.depth {
                    if b.pool.is_empty() {
                        break;
                    }
                    let mut sink = EmitSink(&mut b.out);
                    kernel.expand_replace(
                        &mut access,
                        inst,
                        depth as u32,
                        home,
                        &mut b.pool,
                        &mut b.pool_biases,
                        &mut sink,
                        &mut b.scratch,
                        &mut b.stats,
                    );
                    steps += 1;
                }
            }
        }
    }
    steps
}

/// Deterministic seed chunks for `algo` on `g` (step_bench shaping).
fn make_chunks(algo: &dyn Algorithm, g: &Csr, instances: usize) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices() as VertexId;
    let seeds_per = match algo.config().frontier {
        FrontierMode::IndependentPerVertex => 1,
        _ => 3,
    };
    (0..instances)
        .map(|i| (0..seeds_per).map(|j| ((i * seeds_per + j) as VertexId * 131) % n).collect())
        .collect()
}

/// Steps/sec of `timed_reps` repetitions after two warm-up passes (the
/// warm-ups also populate the cache), plus the accumulated kernel stats
/// across every pass — the method counters reported per row.
fn timed_run(
    kernel: &StepKernel<'_>,
    g: &Csr,
    chunks: &[Vec<VertexId>],
    timed_reps: usize,
) -> (u64, f64, SimStats) {
    let mut bufs = DriverBufs::default();
    let steps = run_rep(kernel, g, chunks, &mut bufs);
    run_rep(kernel, g, chunks, &mut bufs);
    let t0 = Instant::now();
    let mut total = 0u64;
    for _ in 0..timed_reps {
        total += run_rep(kernel, g, chunks, &mut bufs);
    }
    (steps, total as f64 / t0.elapsed().as_secs_f64(), bufs.stats)
}

#[derive(Clone, Copy, PartialEq)]
enum PolicyRow {
    ItsRebuild,
    ItsCache,
    Adaptive,
    AdaptiveNoCache,
}

impl PolicyRow {
    fn name(self) -> &'static str {
        match self {
            PolicyRow::ItsRebuild => "its-rebuild",
            PolicyRow::ItsCache => "its-cache",
            PolicyRow::Adaptive => "adaptive",
            PolicyRow::AdaptiveNoCache => "adaptive-nocache",
        }
    }
}

const POLICY_ROWS: [PolicyRow; 4] =
    [PolicyRow::ItsRebuild, PolicyRow::ItsCache, PolicyRow::Adaptive, PolicyRow::AdaptiveNoCache];

struct Row {
    graph: &'static str,
    algo: &'static str,
    policy: &'static str,
    steps: u64,
    steps_per_sec: f64,
    speedup: f64,
    /// Share of expansions served by each method (Adaptive rows only;
    /// ForceIts rows report zeros by the counter contract).
    method_its: u64,
    method_alias: u64,
    method_rejection: u64,
    method_uniform: u64,
    rejection_trials: u64,
    /// Alias-payload hit rate against total cache lookups.
    alias_hit_rate: f64,
    alias_promotions: u64,
}

fn bench_algorithm(
    id: AlgorithmId,
    graph_name: &'static str,
    g: &Csr,
    instances: usize,
    timed_reps: usize,
    rows: &mut Vec<Row>,
) {
    let spec =
        if id.uses_walk_length() { AlgoSpec::new(id).with_depth(16) } else { AlgoSpec::new(id) };
    let algo = spec.build().expect("registry specs are valid");
    let chunks = make_chunks(&*algo, g, instances);
    let select = SelectConfig::paper_best();
    // "Full budget" means 100% of the footprint the row actually caches:
    // 8 bytes per CTPS bound for the ITS rows, 12 bytes per alias bin
    // (f64 keep-probability + u32 alias row) for the adaptive row.
    let full_ctps_bytes = g.num_edges() * 8 + g.num_vertices() * ENTRY_OVERHEAD_BYTES;
    let full_alias_bytes = g.num_edges() * 12 + g.num_vertices() * ENTRY_OVERHEAD_BYTES;

    let mut base_sps = f64::NAN;
    let mut base_steps = 0u64;
    for policy in POLICY_ROWS {
        let cache = match policy {
            PolicyRow::ItsCache => Some(CtpsCache::new(full_ctps_bytes)),
            PolicyRow::Adaptive => Some(CtpsCache::new(full_alias_bytes)),
            _ => None,
        };
        let mut kernel = StepKernel::new(&*algo, 0x5eed).with_select(select);
        kernel = match policy {
            PolicyRow::ItsRebuild => kernel.with_force_rebuild(true),
            _ => kernel.with_ctps_cache(cache.as_ref()),
        };
        if matches!(policy, PolicyRow::Adaptive | PolicyRow::AdaptiveNoCache) {
            kernel = kernel.with_method_policy(MethodPolicy::Adaptive);
        }
        let (steps, sps, stats) = timed_run(&kernel, g, &chunks, timed_reps);
        if policy == PolicyRow::ItsRebuild {
            base_sps = sps;
            base_steps = steps;
        } else {
            assert_eq!(base_steps, steps, "{}: policy changed the amount of work", id.name());
        }
        let snap: CacheSnapshot = cache.as_ref().map(|c| c.snapshot()).unwrap_or_default();
        assert!(snap.is_conserved(), "{}: {snap:?}", id.name());
        rows.push(Row {
            graph: graph_name,
            algo: id.name(),
            policy: policy.name(),
            steps,
            steps_per_sec: sps,
            speedup: sps / base_sps,
            method_its: stats.method_its,
            method_alias: stats.method_alias,
            method_rejection: stats.method_rejection,
            method_uniform: stats.method_uniform,
            rejection_trials: stats.rejection_trials,
            alias_hit_rate: if snap.lookups > 0 {
                snap.alias_hits as f64 / snap.lookups as f64
            } else {
                0.0
            },
            alias_promotions: snap.alias_promotions,
        });
    }
}

/// One algorithm per bias population: closed-form-uniform control,
/// alias-cache target, multi-pick static, rejection target.
const ALGOS: [AlgorithmId; 4] = [
    AlgorithmId::SimpleRandomWalk,
    AlgorithmId::BiasedRandomWalk,
    AlgorithmId::BiasedNeighborSampling,
    AlgorithmId::Node2Vec,
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let label = flag("--label").unwrap_or_else(|| "run".to_string());
    let json_path = flag("--json");
    let csv_path = flag("--csv");

    let (scale, lattice_n, instances, timed_reps) =
        if quick { (9, 512, 16, 2) } else { (13, 8192, 128, 8) };
    let graphs: [(&'static str, Csr); 2] = [
        ("rmat-powerlaw", rmat(scale, 8, RmatParams::MILD, 42)),
        ("ring-uniform", ring_lattice(lattice_n, 8)),
    ];

    println!(
        "method_bench [{label}]: rmat scale={scale}, ring n={lattice_n}, {instances} instances, {timed_reps} timed reps"
    );
    println!(
        "{:<16} {:<28} {:<17} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9}",
        "graph",
        "algorithm",
        "policy",
        "steps/sec",
        "speedup",
        "its",
        "alias",
        "reject",
        "trials",
        "aliashit%"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (graph_name, g) in &graphs {
        for id in ALGOS {
            bench_algorithm(id, graph_name, g, instances, timed_reps, &mut rows);
        }
    }
    for r in &rows {
        println!(
            "{:<16} {:<28} {:<17} {:>12.0} {:>8.2}x {:>9} {:>9} {:>9} {:>7} {:>8.1}%",
            r.graph,
            r.algo,
            r.policy,
            r.steps_per_sec,
            r.speedup,
            r.method_its,
            r.method_alias,
            r.method_rejection,
            r.rejection_trials,
            r.alias_hit_rate * 100.0
        );
    }

    if let Some(path) = json_path {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"label\": \"{}\", \"graph\": \"{}\", \"algo\": \"{}\", \
                 \"policy\": \"{}\", \"steps\": {}, \"steps_per_sec\": {:.1}, \
                 \"speedup\": {:.3}, \"method_its\": {}, \"method_alias\": {}, \
                 \"method_rejection\": {}, \"method_uniform\": {}, \
                 \"rejection_trials\": {}, \"alias_hit_rate\": {:.4}, \
                 \"alias_promotions\": {}}}{}\n",
                label,
                r.graph,
                r.algo,
                r.policy,
                r.steps,
                r.steps_per_sec,
                r.speedup,
                r.method_its,
                r.method_alias,
                r.method_rejection,
                r.method_uniform,
                r.rejection_trials,
                r.alias_hit_rate,
                r.alias_promotions,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, s).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = csv_path {
        let mut s = String::from(
            "label,graph,algo,policy,steps,steps_per_sec,speedup,method_its,\
             method_alias,method_rejection,method_uniform,rejection_trials,\
             alias_hit_rate,alias_promotions\n",
        );
        for r in &rows {
            s.push_str(&format!(
                "{},{},{},{},{},{:.1},{:.3},{},{},{},{},{},{:.4},{}\n",
                label,
                r.graph,
                r.algo,
                r.policy,
                r.steps,
                r.steps_per_sec,
                r.speedup,
                r.method_its,
                r.method_alias,
                r.method_rejection,
                r.method_uniform,
                r.rejection_trials,
                r.alias_hit_rate,
                r.alias_promotions
            ));
        }
        std::fs::write(&path, s).expect("write csv");
        println!("wrote {path}");
    }
}
