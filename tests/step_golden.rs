//! Golden-output snapshot of every Table-I algorithm through the shared
//! `StepKernel` on the paper's Fig. 1 toy graph.
//!
//! With draws keyed by `(instance, depth, vertex, trial)` the sampled
//! edges are a pure function of `(graph, algorithm, seeds, rng seed)` —
//! independent of runtime, scheduling policy, and thread count. That
//! makes the exact output pinnable: if any future change alters these
//! literals, it has changed the sampling semantics (keying, hook order,
//! candidate order, or SELECT), not just performance, and the snapshot
//! below must be regenerated **deliberately**.
//!
//! Regenerate with:
//! `cargo test --test step_golden -- --ignored print_golden --nocapture`

use csaw::core::algorithms::{
    BiasedNeighborSampling, BiasedRandomWalk, ForestFire, LayerSampling, MetropolisHastingsWalk,
    MultiDimRandomWalk, MultiIndependentRandomWalk, Node2Vec, RandomWalkWithJump,
    RandomWalkWithRestart, SimpleRandomWalk, Snowball, UnbiasedNeighborSampling,
};
use csaw::core::api::Algorithm;
use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::graph::generators::toy_graph;

/// Runs one algorithm on the toy graph and formats its instances as one
/// snapshot line: `name: (a-b a-c ...) (d-e ...)`.
fn snapshot_line_opts<A: Algorithm>(algo: &A, seed_sets: &[Vec<u32>], opts: RunOptions) -> String {
    let g = toy_graph();
    let out = Sampler::new(&g, algo).with_options(opts).run(seed_sets);
    let insts: Vec<String> = out
        .instances
        .iter()
        .map(|edges| {
            let e: Vec<String> = edges.iter().map(|(v, u)| format!("{v}-{u}")).collect();
            format!("({})", e.join(" "))
        })
        .collect();
    format!("{}: {}", algo.name(), insts.join(" "))
}

/// All thirteen Table-I algorithms with small fixed parameters, two
/// instances each (seeds 0 and 8; two 3-vertex pools for the
/// pool-frontier algorithms), under `opts` — the pinned snapshot is
/// produced with the defaults, and [`ExecMode::DepthSync`] must
/// reproduce it bit-for-bit.
fn snapshot_with(opts: &RunOptions) -> String {
    let singles: Vec<Vec<u32>> = vec![vec![0], vec![8]];
    let pools: Vec<Vec<u32>> = vec![vec![0, 5, 8], vec![2, 7, 12]];
    let line =
        |algo: &dyn Algorithm, sets: &[Vec<u32>]| snapshot_line_opts(&algo, sets, opts.clone());
    let mut lines = vec![
        line(&SimpleRandomWalk { length: 4 }, &singles),
        line(&MetropolisHastingsWalk { length: 4 }, &singles),
        line(&RandomWalkWithJump { length: 4, p_jump: 0.25 }, &singles),
        line(&RandomWalkWithRestart { length: 4, p_restart: 0.25 }, &singles),
        line(&MultiIndependentRandomWalk { length: 4 }, &singles),
        line(&BiasedRandomWalk { length: 4 }, &singles),
        line(&Node2Vec { length: 4, p: 0.5, q: 2.0 }, &singles),
        line(&UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 }, &singles),
        line(&BiasedNeighborSampling { neighbor_size: 2, depth: 2 }, &singles),
        line(&ForestFire { pf: 0.6, depth: 2 }, &singles),
        line(&Snowball { depth: 2 }, &singles),
        line(&LayerSampling { layer_size: 3, depth: 2 }, &pools),
        line(&MultiDimRandomWalk { budget: 5 }, &pools),
    ];
    lines.push(String::new());
    lines.join("\n")
}

fn snapshot() -> String {
    snapshot_with(&RunOptions::default())
}

/// The pinned snapshot. Every line is two instances of one algorithm on
/// `toy_graph()` with the default RNG seed (`0x5eed`).
const GOLDEN: &str = "\
simple-random-walk: (0-6 6-7 7-6 6-0) (8-5 5-7 7-0 0-1)
metropolis-hastings-walk: (0-6 6-7 7-6 6-0) (8-5 5-7 7-0 0-1)
random-walk-with-jump: (0-6 8-9 9-8 8-7) (8-5 5-7 8-7 7-5)
random-walk-with-restart: (0-6 0-7 7-6 6-0) (8-5 5-7 8-7 7-5)
multi-independent-random-walk: (0-6 6-7 7-6 6-0) (8-5 5-7 7-0 0-1)
biased-random-walk: (0-7 7-5 5-8 8-7) (8-5 5-7 7-0 0-6)
node2vec: (0-6 6-7 7-6 6-7) (8-5 5-8 8-5 5-7)
unbiased-neighbor-sampling: (0-6 0-1 6-0 6-7 1-0 1-2) (8-5 8-9 5-7 5-4 9-8 9-12)
biased-neighbor-sampling: (0-7 0-1 7-5 7-8 1-0 1-2) (8-5 8-7 5-7 5-4 7-4 7-3)
forest-fire: (0-6 0-7 7-4) (8-7 8-9 8-10 8-11 7-0 7-3 7-4 7-5 7-6 7-8 10-8)
snowball: (0-1 0-6 0-7 1-0 1-2 6-0 6-7 7-0 7-3 7-4 7-5 7-6 7-8) (8-5 8-7 8-9 8-10 8-11 5-4 5-7 5-8 7-0 7-3 7-4 7-5 7-6 7-8 9-8 9-12 10-8 10-12 11-8 11-12)
layer-sampling: (8-9 8-10 0-7 9-8 7-5 7-4) (7-0 7-8 7-3 0-1 8-9 8-7)
multi-dimensional-random-walk: (8-11 0-1 11-8 8-7 5-4) (7-6 2-3 6-0 0-7 7-3)
";

#[test]
fn table_one_outputs_are_pinned() {
    let got = snapshot();
    assert_eq!(
        got, GOLDEN,
        "Table-I outputs changed — this is a sampling-semantics change, \
         not a perf change. If intentional, regenerate the snapshot \
         (see module docs) and document the break in DESIGN.md.\n\
         --- got ---\n{got}"
    );
}

/// Depth-synchronous execution is a schedule change, not a semantics
/// change: all thirteen algorithms must reproduce the pinned snapshot
/// bit-for-bit under `ExecMode::DepthSync`, at any chunk size and with
/// prefetching on or off.
#[test]
fn depth_sync_reproduces_the_pinned_golden() {
    for (chunk, prefetch) in [(None, 8), (Some(1), 0), (Some(2), 1)] {
        let opts = RunOptions {
            exec: ExecMode::DepthSync,
            prefetch_distance: prefetch,
            batch_chunk: chunk,
            ..Default::default()
        };
        let got = snapshot_with(&opts);
        assert_eq!(
            got, GOLDEN,
            "depth-sync (chunk {chunk:?}, prefetch {prefetch}) diverged from the \
             instance-major golden — execution order has leaked into sampling \
             semantics.\n--- got ---\n{got}"
        );
    }
}

/// Prints the current snapshot for regeneration (see module docs).
#[test]
#[ignore = "generator, not a check"]
fn print_golden() {
    println!("{}", snapshot());
}

mod shared_scratch {
    //! `StepScratch` carries no sampling state between calls — only
    //! capacity. Interleaving two different algorithms through one shared
    //! arena must therefore be bit-identical to running each with a fresh
    //! arena per step.

    use csaw::core::algorithms::{BiasedRandomWalk, SimpleRandomWalk};
    use csaw::core::api::Algorithm;
    use csaw::core::select::SelectConfig;
    use csaw::core::step::{
        CsrAccess, PoolSink, PoolSlot, StepEntry, StepKernel, StepScratch, TrialCounter,
    };
    use csaw::gpu::stats::SimStats;
    use csaw::graph::generators::toy_graph;
    use csaw::graph::VertexId;
    use std::collections::HashSet;

    /// One walker's driver state (per-vertex frontier, single seed).
    struct Walk {
        pool: Vec<PoolSlot>,
        frontier: Vec<PoolSlot>,
        visited: HashSet<VertexId>,
        out: Vec<(VertexId, VertexId)>,
        trials: TrialCounter,
    }

    impl Walk {
        fn new(seed: VertexId) -> Self {
            Walk {
                pool: vec![PoolSlot::seed(seed)],
                frontier: Vec::new(),
                visited: HashSet::new(),
                out: Vec::new(),
                trials: TrialCounter::new(),
            }
        }

        /// Expands one depth level through `scratch`. `inst` is the
        /// RNG-keying instance index (matches the engine's chunk index).
        #[allow(clippy::too_many_arguments)]
        fn step(
            &mut self,
            kernel: &StepKernel<'_>,
            g: &csaw::graph::Csr,
            inst: u32,
            home: VertexId,
            depth: u32,
            scratch: &mut StepScratch,
            stats: &mut SimStats,
        ) {
            let cfg = *kernel.cfg();
            let detector = kernel.select().detector;
            let mut access = CsrAccess::new(g);
            std::mem::swap(&mut self.pool, &mut self.frontier);
            self.pool.clear();
            self.trials.reset();
            for i in 0..self.frontier.len() {
                let slot = self.frontier[i];
                let entry = StepEntry {
                    instance: inst,
                    depth,
                    vertex: slot.vertex,
                    prev: slot.prev,
                    trial: self.trials.next(inst, slot.vertex),
                };
                let mut sink = PoolSink {
                    cfg: &cfg,
                    detector,
                    visited: &mut self.visited,
                    next: &mut self.pool,
                    out: &mut self.out,
                };
                kernel.expand(&mut access, &entry, home, &mut sink, scratch, stats);
            }
        }
    }

    type Edges = Vec<(VertexId, VertexId)>;

    /// Runs `a` and `b` lockstep-interleaved (a step, b step, a step, ...),
    /// either through one shared scratch or a fresh scratch per step.
    fn interleave<A: Algorithm, B: Algorithm>(a: &A, b: &B, shared: bool) -> (Edges, Edges) {
        let g = toy_graph();
        let ka = StepKernel::new(a, 0x5eed).with_select(SelectConfig::paper_best());
        let kb = StepKernel::new(b, 0x5eed).with_select(SelectConfig::paper_best());
        let (seed_a, seed_b) = (0, 8);
        let mut wa = Walk::new(seed_a);
        let mut wb = Walk::new(seed_b);
        let mut stats = SimStats::new();
        let mut scratch = StepScratch::new();
        let depth = a.config().depth.max(b.config().depth) as u32;
        // Instance indices 0 and 1 match the engine's chunk keying for
        // seed sets `[[0], [8]]`, so the outputs line up with GOLDEN.
        for d in 0..depth {
            if shared {
                wa.step(&ka, &g, 0, seed_a, d, &mut scratch, &mut stats);
                wb.step(&kb, &g, 1, seed_b, d, &mut scratch, &mut stats);
            } else {
                wa.step(&ka, &g, 0, seed_a, d, &mut StepScratch::new(), &mut stats);
                wb.step(&kb, &g, 1, seed_b, d, &mut StepScratch::new(), &mut stats);
            }
        }
        (wa.out, wb.out)
    }

    /// A uniform-bias and a degree-biased algorithm interleaved through
    /// ONE shared `StepScratch`: outputs must be bit-identical to fresh
    /// per-step arenas. The pair exercises both `fill_biases` paths (the
    /// uniform resize fast path and the mapped EDGEBIAS path) against the
    /// same reused buffers.
    #[test]
    fn interleaved_algorithms_share_one_scratch_bit_identically() {
        let simple = SimpleRandomWalk { length: 4 };
        let biased = BiasedRandomWalk { length: 4 };
        let (sa, sb) = interleave(&simple, &biased, true);
        let (fa, fb) = interleave(&simple, &biased, false);
        assert!(!sa.is_empty() && !sb.is_empty(), "both walks must sample edges");
        assert_eq!(sa, fa, "shared-scratch simple-walk diverged from fresh-scratch");
        assert_eq!(sb, fb, "shared-scratch biased-walk diverged from fresh-scratch");
        // And against the engine-pinned golden above: same keying, same
        // outputs, proving the direct driver is the same sampling process.
        let golden_simple: Vec<(u32, u32)> = vec![(0, 6), (6, 7), (7, 6), (6, 0)];
        let golden_biased: Vec<(u32, u32)> = vec![(8, 5), (5, 7), (7, 0), (0, 6)];
        assert_eq!(sa, golden_simple);
        assert_eq!(sb, golden_biased);
    }
}
