//! Per-depth frontier profiling.
//!
//! §VI-C explains several out-of-memory trends with "active vertices
//! increase exponentially with depth during sampling". This profiler runs
//! a per-vertex-frontier algorithm breadth-first, one depth per step
//! across all instances, and reports the frontier size and sampled-edge
//! count at every depth — the quantitative form of that claim.

use crate::api::{Algorithm, FrontierMode};
use crate::select::SelectConfig;
use crate::step::{
    CsrAccess, PoolSink, PoolSlot, StepEntry, StepKernel, StepScratch, TrialCounter,
};
use csaw_gpu::stats::SimStats;
use csaw_graph::{Csr, VertexId};
use std::collections::HashSet;

/// One depth level's aggregate activity across all instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthProfile {
    /// Depth (0 = expansion of the seeds).
    pub depth: usize,
    /// Frontier vertices expanded at this depth (all instances).
    pub frontier: u64,
    /// Edges sampled at this depth.
    pub edges: u64,
}

/// Profiles `algo` (per-vertex frontier modes only) over single-seed
/// instances, returning the per-depth activity.
pub fn profile_depths<A: Algorithm>(
    g: &Csr,
    algo: &A,
    seeds: &[VertexId],
    seed: u64,
) -> Vec<DepthProfile> {
    let cfg = algo.config();
    assert_eq!(
        cfg.frontier,
        FrontierMode::IndependentPerVertex,
        "the depth profiler covers per-vertex frontier algorithms"
    );
    let select = SelectConfig::paper_best();
    let kernel = StepKernel::new(algo, seed).with_select(select);
    let mut access = CsrAccess::new(g);
    let mut stats = SimStats::new();
    let mut frontiers: Vec<Vec<PoolSlot>> =
        seeds.iter().map(|&s| vec![PoolSlot::seed(s)]).collect();
    let mut visited: Vec<HashSet<VertexId>> = seeds
        .iter()
        .map(|&s| if cfg.without_replacement { HashSet::from([s]) } else { HashSet::new() })
        .collect();
    let mut edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); seeds.len()];
    let mut trials = TrialCounter::new();
    let mut out = Vec::new();
    let mut scratch = StepScratch::new();
    let mut frontier: Vec<PoolSlot> = Vec::new();

    for depth in 0..cfg.depth {
        let mut frontier_total = 0u64;
        let mut edge_total = 0u64;
        trials.reset();
        for inst in 0..seeds.len() {
            std::mem::swap(&mut frontiers[inst], &mut frontier);
            frontiers[inst].clear();
            frontier_total += frontier.len() as u64;
            for &slot in frontier.iter() {
                let before = edges[inst].len();
                let entry = StepEntry {
                    instance: inst as u32,
                    depth: depth as u32,
                    vertex: slot.vertex,
                    prev: slot.prev,
                    trial: trials.next(inst as u32, slot.vertex),
                };
                let mut sink = PoolSink {
                    cfg: &cfg,
                    detector: select.detector,
                    visited: &mut visited[inst],
                    next: &mut frontiers[inst],
                    out: &mut edges[inst],
                };
                kernel.expand(
                    &mut access,
                    &entry,
                    seeds[inst],
                    &mut sink,
                    &mut scratch,
                    &mut stats,
                );
                edge_total += (edges[inst].len() - before) as u64;
            }
        }
        out.push(DepthProfile { depth, frontier: frontier_total, edges: edge_total });
        if frontier_total == 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{SimpleRandomWalk, UnbiasedNeighborSampling};
    use csaw_graph::generators::{ring_lattice, rmat, toy_graph, RmatParams};

    #[test]
    fn profiler_counts_exactly_the_engine_edges() {
        // The profiler drives the same StepKernel with the same keys as
        // the engine, so its per-depth edge counts sum to exactly the
        // engine's sampled edges — not an approximation.
        let g = rmat(9, 4, RmatParams::GRAPH500, 5);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..16).collect();
        let prof = profile_depths(&g, &algo, &seeds, 0x5eed);
        let eng = crate::engine::Sampler::new(&g, &algo).run_single_seeds(&seeds);
        assert_eq!(prof.iter().map(|p| p.edges).sum::<u64>(), eng.sampled_edges());
    }

    #[test]
    fn neighbor_sampling_frontier_grows_geometrically() {
        let g = rmat(11, 8, RmatParams::GRAPH500, 1);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 5 };
        let seeds: Vec<u32> = (0..64).map(|i| i * 31 % 2048).collect();
        let prof = profile_depths(&g, &algo, &seeds, 1);
        assert_eq!(prof[0].frontier, 64);
        // Early depths roughly double (before without-replacement bites).
        assert!(prof[1].frontier as f64 > 1.5 * prof[0].frontier as f64);
        assert!(prof[2].frontier as f64 > 1.5 * prof[1].frontier as f64);
        // Total edges across depths = frontier inflow.
        let total_edges: u64 = prof.iter().map(|p| p.edges).sum();
        assert!(total_edges > 0);
    }

    #[test]
    fn walk_frontier_stays_one() {
        let g = ring_lattice(50, 2);
        let algo = SimpleRandomWalk { length: 10 };
        let prof = profile_depths(&g, &algo, &[0, 10], 2);
        assert_eq!(prof.len(), 10);
        for p in &prof {
            assert_eq!(p.frontier, 2, "one walker per instance at depth {}", p.depth);
            assert_eq!(p.edges, 2);
        }
    }

    #[test]
    fn exhausted_frontier_stops_early() {
        // Star graph: depth 1 takes the spokes, depth 2 re-adds the hub
        // (filtered), frontier dies.
        let mut b = csaw_graph::CsrBuilder::new().symmetrize(true);
        for i in 1..=4u32 {
            b = b.add_edge(0, i);
        }
        let g = b.build();
        let algo = UnbiasedNeighborSampling { neighbor_size: 4, depth: 10 };
        let prof = profile_depths(&g, &algo, &[0], 3);
        assert!(prof.len() <= 3, "profile must stop when the frontier empties: {prof:?}");
    }

    /// Cross-validation against the engine: the profiler's total edge
    /// count must statistically match a full engine run of the same
    /// workload (different RNG keying, same law).
    #[test]
    fn totals_match_engine_statistically() {
        use crate::engine::Sampler;
        let g = rmat(10, 6, RmatParams::GRAPH500, 7);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 4 };
        let seeds: Vec<u32> = (0..256).map(|i| i * 13 % 1024).collect();
        let prof_total: u64 = profile_depths(&g, &algo, &seeds, 9).iter().map(|p| p.edges).sum();
        let engine_total = Sampler::new(&g, &algo).run_single_seeds(&seeds).sampled_edges();
        let ratio = prof_total as f64 / engine_total as f64;
        assert!((ratio - 1.0).abs() < 0.05, "profiler {prof_total} vs engine {engine_total}");
    }

    #[test]
    fn toy_graph_depth_zero_matches_seed_count() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let prof = profile_depths(&g, &algo, &[0, 5, 8], 4);
        assert_eq!(prof[0].frontier, 3);
        assert!(prof[0].edges <= 6);
    }
}
