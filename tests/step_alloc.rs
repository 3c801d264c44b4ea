//! Allocation-regression gate for the expand hot path.
//!
//! Drives the shared [`StepKernel`] directly — the same per-mode driver
//! loops the engine uses — under a counting global allocator, and asserts
//! that a steady-state repetition of every Table-I algorithm performs
//! **exactly zero** heap allocations. Any `Vec`/`Box`/`HashSet` growth
//! inside `expand`/`expand_layer`/`expand_replace`, SELECT, or the SIMT
//! warp scan trips this test, so per-step churn cannot creep back in.
//!
//! The binary holds a single `#[test]` on purpose: the counting allocator
//! is process-global, and a concurrent test thread allocating during the
//! measured window would produce false positives.

use csaw::core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw::core::api::FrontierMode;
use csaw::core::batch::{run_chunk, BatchArena, ChunkInstance};
use csaw::core::ctps_cache::CtpsCache;
use csaw::core::residency::{DiskAccess, DiskRunConfig, ADMIT_TOUCHES};
use csaw::core::select::SelectConfig;
use csaw::core::step::{
    CsrAccess, EmitSink, NeighborAccess, PoolSink, PoolSlot, StepEntry, StepKernel, StepScratch,
    TrialCounter,
};
use csaw::gpu::alloc_count::CountingAllocator;
use csaw::gpu::stats::SimStats;
use csaw::graph::generators::{rmat, RmatParams};
use csaw::graph::store::write_store;
use csaw::graph::{Csr, DiskStore, EdgeEdit, MutableGraph, VertexId};
use std::collections::HashSet;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Reusable driver state, cleared (never dropped) between repetitions so
/// steady-state repetitions run entirely in warmed capacity.
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

/// One full repetition: every instance of the algorithm over its seed
/// chunks. Deterministic (draws keyed by task), so every repetition
/// performs identical work. Returns kernel step invocations.
fn run_rep(
    kernel: &StepKernel<'_>,
    access: &mut impl NeighborAccess,
    chunks: &[Vec<VertexId>],
    b: &mut DriverBufs,
) -> u64 {
    let cfg = *kernel.cfg();
    let detector = kernel.select().detector;
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
                            access,
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
                        access,
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
                        access,
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

/// Every Table-I algorithm through `access`: two warm-up repetitions,
/// then one measured repetition that must allocate nothing.
///
/// Two warm-ups, not one: the pool/frontier double buffer swaps roles
/// when a repetition performs an odd number of depth steps, so the
/// second pass warms the other parity's capacities.
fn gate_all(g: &Csr, access: &mut impl NeighborAccess, tag: &str) {
    let n = g.num_vertices() as VertexId;

    for id in AlgorithmId::ALL {
        let spec = if id.uses_walk_length() {
            AlgoSpec::new(id).with_depth(12)
        } else {
            AlgoSpec::new(id)
        };
        let algo = spec.build().expect("registry specs are valid");
        let cfg = algo.config();
        let seeds_per = match cfg.frontier {
            FrontierMode::IndependentPerVertex => 1,
            _ => 3,
        };
        let chunks: Vec<Vec<VertexId>> = (0..16)
            .map(|i| (0..seeds_per).map(|j| ((i * seeds_per + j) as VertexId * 131) % n).collect())
            .collect();

        // A generous-budget CTPS cache rides along: the warm-up
        // repetitions populate it, so the measured repetition runs its
        // static-bias lookups as cache hits — which must be just as
        // allocation-free as the rebuild path they replace.
        let cache = CtpsCache::new(64 << 20);
        let kernel = StepKernel::new(&*algo, 0x5eed)
            .with_select(SelectConfig::paper_best())
            .with_ctps_cache(Some(&cache));
        let mut bufs = DriverBufs::default();

        let warm1 = run_rep(&kernel, access, &chunks, &mut bufs);
        let warm2 = run_rep(&kernel, access, &chunks, &mut bufs);
        assert_eq!(warm1, warm2, "{}/{tag}: repetitions must perform identical work", id.name());

        let before = ALLOC.snapshot();
        let steps = run_rep(&kernel, access, &chunks, &mut bufs);
        let delta = ALLOC.snapshot().since(&before);

        assert_eq!(steps, warm1, "{}/{tag}: repetitions must perform identical work", id.name());
        assert!(steps > 0, "{}/{tag}: workload must actually step", id.name());
        assert_eq!(
            delta.allocations,
            0,
            "{}/{tag}: steady-state repetition allocated {} times ({} bytes) over {} steps — \
             the zero-allocation hot path has regressed",
            id.name(),
            delta.allocations,
            delta.bytes,
            steps
        );
    }
}

/// The depth-synchronous driver under the same gate: every per-vertex-
/// frontier algorithm through [`run_chunk`] with a warm [`BatchArena`].
/// Grouped expansion, batched Philox, the record/replay lanes, and the
/// prefetch bookkeeping must all run in warmed capacity — a steady-state
/// batched depth allocates exactly as much as an instance-major one:
/// nothing. No CTPS cache here so static-bias algorithms take the
/// shared-build (`prepare_group`/`expand_in_group`) path.
fn gate_batched(g: &Csr, access: &mut impl NeighborAccess) {
    let n = g.num_vertices() as VertexId;

    for id in AlgorithmId::ALL {
        let spec = if id.uses_walk_length() {
            AlgoSpec::new(id).with_depth(12)
        } else {
            AlgoSpec::new(id)
        };
        let algo = spec.build().expect("registry specs are valid");
        if algo.config().frontier != FrontierMode::IndependentPerVertex {
            continue;
        }
        let seeds: Vec<Vec<VertexId>> = (0..16).map(|i| vec![(i as VertexId * 131) % n]).collect();
        let chunk: Vec<ChunkInstance<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| ChunkInstance { global_id: i as u32, seeds: s })
            .collect();
        let kernel = StepKernel::new(&*algo, 0x5eed).with_select(SelectConfig::paper_best());
        let mut arena = BatchArena::new();
        let mut scratch = StepScratch::new();
        let mut outs = vec![Vec::new(); chunk.len()];
        let mut per_inst = vec![SimStats::new(); chunk.len()];
        fn rep<N: NeighborAccess>(
            kernel: &StepKernel<'_>,
            chunk: &[ChunkInstance<'_>],
            access: &mut N,
            outs: &mut [Vec<(VertexId, VertexId)>],
            per_inst: &mut [SimStats],
            arena: &mut BatchArena,
            scratch: &mut StepScratch,
        ) -> usize {
            for o in outs.iter_mut() {
                o.clear();
            }
            per_inst.fill(SimStats::new());
            run_chunk(kernel, access, chunk, 0x5eed, 8, outs, per_inst, arena, scratch);
            outs.iter().map(Vec::len).sum::<usize>()
        }

        // Two warm-ups for the cur/next double buffer's parity, as above.
        let warm1 =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        let warm2 =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        assert_eq!(warm1, warm2, "{}/batched: repetitions must be identical", id.name());

        let before = ALLOC.snapshot();
        let edges =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        let delta = ALLOC.snapshot().since(&before);

        assert_eq!(edges, warm1, "{}/batched: repetitions must be identical", id.name());
        assert!(edges > 0, "{}/batched: workload must actually sample", id.name());
        let total: SimStats = per_inst.iter().copied().sum();
        assert!(total.batch_groups > 0, "{}/batched: must form groups", id.name());
        assert_eq!(
            delta.allocations,
            0,
            "{}/batched: steady-state batched depth allocated {} times ({} bytes) — \
             the zero-allocation gate has regressed in depth-sync mode",
            id.name(),
            delta.allocations,
            delta.bytes,
        );
    }
}

#[test]
fn steady_state_step_allocates_nothing() {
    // Power-law graph large enough to exercise long adjacency gathers
    // and without-replacement retries, small enough for a test.
    let g = rmat(9, 8, RmatParams::MILD, 42);
    gate_all(&g, &mut CsrAccess::new(&g), "csr");
    gate_batched(&g, &mut CsrAccess::new(&g));

    // The same gate over an epoch snapshot with a live overlay: mutated
    // vertices read their merged delta slices and tag cache entries with
    // their mutation version, untouched ones read the base CSR.
    let n = g.num_vertices() as VertexId;
    let mut mg = MutableGraph::new(g.clone());
    let mut edits: Vec<EdgeEdit> = (0..32)
        .map(|i| EdgeEdit::Insert { src: (i * 7) % n, dst: (i * 13 + 5) % n, weight: 1.0 })
        .collect();
    edits.extend(
        (0..n)
            .step_by(37)
            .filter_map(|v| g.neighbors(v).first().map(|&dst| EdgeEdit::Delete { src: v, dst })),
    );
    mg.apply_batch(&edits).expect("valid edits");
    let snap = mg.snapshot();
    assert!(snap.overlay_vertices() > 0, "the snapshot must carry a live overlay");
    gate_all(&g, &mut CsrAccess::snapshot(&snap), "snapshot");
    gate_batched(&g, &mut CsrAccess::snapshot(&snap));

    // The same gate through the disk tier: with every partition
    // admitted to a warm full-budget pool, stepping through
    // [`DiskAccess`] — resolve hits, ring scans, graveyard upkeep — must
    // be exactly as allocation-free as the in-memory CSR path.
    let base = std::env::var_os("CSAW_DISK_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-step-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, 8, 0).expect("write store");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let cfg = DiskRunConfig {
        store: Arc::clone(&store),
        pool_budget: store.total_decoded_bytes(),
        shared: None,
    };
    let mut access = DiskAccess::new(&cfg);
    let mut warm_stats = SimStats::new();
    for _ in 0..(2 * ADMIT_TOUCHES as usize + 2) {
        for v in 0..g.num_vertices() as VertexId {
            let _ = access.gather(v, &mut warm_stats);
        }
    }
    let snap = access.snapshot();
    assert_eq!(
        snap.bytes,
        store.total_decoded_bytes() as u64,
        "warm-up must leave every partition resident: {snap:?}"
    );
    gate_all(&g, &mut access, "disk");
    let snap = access.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert_eq!(snap.evictions, 0, "full budget must never evict");
    let _ = std::fs::remove_dir_all(&dir);
}
