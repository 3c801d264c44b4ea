//! Budget-sweep microbench for the hot-vertex CTPS cache: steps/sec at
//! cache byte budgets from 0% to 100% of the graph's CTPS footprint,
//! against the rebuild-every-step baseline (`force_rebuild`), on a
//! power-law and a uniform-degree graph.
//!
//! Like `step_bench`, this drives [`StepKernel`] directly with the same
//! per-mode loops the engine uses, so the measurement isolates the
//! expand path — bias construction, CTPS build/lookup, SELECT — from
//! scheduler noise. Three populations:
//!
//! - **Uniform static bias** (simple walk, unbiased neighbor sampling,
//!   MDRW): served by the closed-form uniform CTPS, so their speedup is
//!   budget-independent — the 0-byte rows already show it.
//! - **Non-uniform static bias** (biased walk, biased neighbor
//!   sampling): served by the budgeted cache; speedup grows with hit
//!   rate, which grows with budget — the sweep's interesting rows.
//! - **Dynamic bias** (node2vec, the control): never consults the
//!   cache; its rows pin the no-regression floor.
//!
//! The 100%-budget row is also compared against the eager A7 cache
//! (`EagerCtpsCache`): same tables, but the eager build pays its full
//! O(E) scan before the first step, while the lazy cache amortizes the
//! same work across first-touch misses — the eager-vs-lazy crossover.
//!
//! Usage: `cache_bench [--quick] [--label NAME] [--json PATH] [--csv PATH]`

use csaw_core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::ctps_cache::{CtpsCache, ENTRY_OVERHEAD_BYTES};
use csaw_core::precompute::EagerCtpsCache;
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
/// warm-ups also populate the cache, so timed reps measure the warm
/// steady state the cache is built for).
fn timed_steps_per_sec(
    kernel: &StepKernel<'_>,
    g: &Csr,
    chunks: &[Vec<VertexId>],
    timed_reps: usize,
) -> (u64, f64) {
    let mut bufs = DriverBufs::default();
    let steps = run_rep(kernel, g, chunks, &mut bufs);
    run_rep(kernel, g, chunks, &mut bufs);
    let t0 = Instant::now();
    let mut total = 0u64;
    for _ in 0..timed_reps {
        total += run_rep(kernel, g, chunks, &mut bufs);
    }
    (steps, total as f64 / t0.elapsed().as_secs_f64())
}

struct Row {
    graph: &'static str,
    algo: &'static str,
    /// Budget as a fraction of the full CTPS footprint (bounds + entry
    /// overhead); -1 encodes the force-rebuild baseline row.
    budget_frac: f64,
    budget_bytes: usize,
    steps: u64,
    steps_per_sec: f64,
    speedup: f64,
    hit_rate: f64,
    evictions: u64,
    cache_bytes: u64,
    /// Eager A7 comparison (100%-budget rows of cache-eligible
    /// algorithms only): up-front build cost in simulated warp cycles
    /// and the eager table footprint.
    eager_build_cycles: u64,
    eager_size_bytes: usize,
}

const BUDGET_FRACS: [f64; 6] = [0.0, 0.05, 0.10, 0.25, 0.50, 1.0];

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

    // Baseline: rebuild the CTPS every step (the pre-cache kernel).
    let base_kernel = StepKernel::new(&*algo, 0x5eed).with_select(select).with_force_rebuild(true);
    let (steps, base_sps) = timed_steps_per_sec(&base_kernel, g, &chunks, timed_reps);
    rows.push(Row {
        graph: graph_name,
        algo: id.name(),
        budget_frac: -1.0,
        budget_bytes: 0,
        steps,
        steps_per_sec: base_sps,
        speedup: 1.0,
        hit_rate: 0.0,
        evictions: 0,
        cache_bytes: 0,
        eager_build_cycles: 0,
        eager_size_bytes: 0,
    });

    // The full footprint every budget fraction is relative to: one f64
    // bound per edge plus the per-entry overhead.
    let full_bytes = g.num_edges() * 8 + g.num_vertices() * ENTRY_OVERHEAD_BYTES;
    let cache_eligible = algo.edge_bias_is_static() && !algo.edge_bias_is_uniform();
    let (eager_build_cycles, eager_size_bytes) = if cache_eligible {
        let eager = EagerCtpsCache::build(g, &algo);
        (eager.build_stats.warp_cycles, eager.size_bytes())
    } else {
        (0, 0)
    };

    for frac in BUDGET_FRACS {
        let budget = (full_bytes as f64 * frac) as usize;
        let cache = (budget > 0).then(|| CtpsCache::new(budget));
        let kernel =
            StepKernel::new(&*algo, 0x5eed).with_select(select).with_ctps_cache(cache.as_ref());
        let (steps2, sps) = timed_steps_per_sec(&kernel, g, &chunks, timed_reps);
        assert_eq!(steps, steps2, "cache changed the amount of work");
        let snap = cache.as_ref().map(|c| c.snapshot()).unwrap_or_default();
        assert!(snap.is_conserved(), "{}: {snap:?}", id.name());
        let at_full = (frac - 1.0).abs() < f64::EPSILON;
        rows.push(Row {
            graph: graph_name,
            algo: id.name(),
            budget_frac: frac,
            budget_bytes: budget,
            steps: steps2,
            steps_per_sec: sps,
            speedup: sps / base_sps,
            hit_rate: if snap.lookups > 0 { snap.hits as f64 / snap.lookups as f64 } else { 0.0 },
            evictions: snap.evictions,
            cache_bytes: snap.bytes,
            eager_build_cycles: if at_full { eager_build_cycles } else { 0 },
            eager_size_bytes: if at_full { eager_size_bytes } else { 0 },
        });
    }
}

const ALGOS: [AlgorithmId; 6] = [
    AlgorithmId::SimpleRandomWalk,
    AlgorithmId::UnbiasedNeighborSampling,
    AlgorithmId::MultiDimRandomWalk,
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
    // Power-law (hubs dominate: high hit rates at small budgets) vs
    // uniform degree (no hubs: the cache's worst case).
    let graphs: [(&'static str, Csr); 2] = [
        ("rmat-powerlaw", rmat(scale, 8, RmatParams::MILD, 42)),
        ("ring-uniform", ring_lattice(lattice_n, 8)),
    ];

    println!(
        "cache_bench [{label}]: rmat scale={scale}, ring n={lattice_n}, {instances} instances, {timed_reps} timed reps"
    );
    println!(
        "{:<16} {:<28} {:>8} {:>12} {:>12} {:>8} {:>9} {:>10}",
        "graph", "algorithm", "budget%", "steps/sec", "speedup", "hit%", "evict", "bytes"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (graph_name, g) in &graphs {
        for id in ALGOS {
            bench_algorithm(id, graph_name, g, instances, timed_reps, &mut rows);
        }
    }
    for r in &rows {
        let budget_label = if r.budget_frac < 0.0 {
            "rebuild".to_string()
        } else {
            format!("{:.0}%", r.budget_frac * 100.0)
        };
        println!(
            "{:<16} {:<28} {:>8} {:>12.0} {:>11.2}x {:>7.1}% {:>9} {:>10}",
            r.graph,
            r.algo,
            budget_label,
            r.steps_per_sec,
            r.speedup,
            r.hit_rate * 100.0,
            r.evictions,
            r.cache_bytes
        );
    }

    if let Some(path) = json_path {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"label\": \"{}\", \"graph\": \"{}\", \"algo\": \"{}\", \
                 \"budget_frac\": {:.2}, \"budget_bytes\": {}, \"steps\": {}, \
                 \"steps_per_sec\": {:.1}, \"speedup\": {:.3}, \"hit_rate\": {:.4}, \
                 \"evictions\": {}, \"cache_bytes\": {}, \
                 \"eager_build_cycles\": {}, \"eager_size_bytes\": {}}}{}\n",
                label,
                r.graph,
                r.algo,
                r.budget_frac,
                r.budget_bytes,
                r.steps,
                r.steps_per_sec,
                r.speedup,
                r.hit_rate,
                r.evictions,
                r.cache_bytes,
                r.eager_build_cycles,
                r.eager_size_bytes,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, s).expect("write json");
        println!("wrote {path}");
    }
    if let Some(path) = csv_path {
        let mut s = String::from(
            "label,graph,algo,budget_frac,budget_bytes,steps,steps_per_sec,speedup,\
             hit_rate,evictions,cache_bytes,eager_build_cycles,eager_size_bytes\n",
        );
        for r in &rows {
            s.push_str(&format!(
                "{},{},{},{:.2},{},{},{:.1},{:.3},{:.4},{},{},{},{}\n",
                label,
                r.graph,
                r.algo,
                r.budget_frac,
                r.budget_bytes,
                r.steps,
                r.steps_per_sec,
                r.speedup,
                r.hit_rate,
                r.evictions,
                r.cache_bytes,
                r.eager_build_cycles,
                r.eager_size_bytes
            ));
        }
        std::fs::write(&path, s).expect("write csv");
        println!("wrote {path}");
    }
}
