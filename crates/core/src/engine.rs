//! The sampling engine — C-SAW's MAIN loop (paper Fig. 2b).
//!
//! ```text
//! FrontierPool = Seeds
//! for i in 0..Depth:
//!     Frontier      = SELECT(VERTEXBIAS(FrontierPool), FrontierSize)
//!     NeighborPool  = GATHERNEIGHBORS(Frontier)
//!     Sampled       = SELECT(EDGEBIAS(NeighborPool), NeighborSize)
//!     FrontierPool.INSERT(UPDATE(Sampled))
//!     Samples.INSERT(Sampled.u)
//! ```
//!
//! Each sampling *instance* is executed by one simulated warp
//! (§IV-A inter-warp parallelism: thousands of instances saturate the
//! device; intra-instance selection is the warp-level SELECT of
//! [`crate::select`]). The per-entry expand pipeline itself lives in
//! [`crate::step::StepKernel`] — this module only owns the per-instance
//! depth loop and frontier pools, and is one of the kernel's four runtimes
//! (with the out-of-memory scheduler, the unified-memory comparator, and
//! the multi-GPU splitter). Every expansion draws from a counter-based RNG
//! stream keyed by `(seed, instance, depth, vertex, trial)` via
//! [`csaw_gpu::rng::task_key`], so outputs are bit-identical regardless of
//! host thread count, chunking, or which runtime executes the instance.

use crate::api::{AlgoConfig, Algorithm, FrontierMode};
use crate::batch::ChunkInstance;
use crate::output::SampleOutput;
use crate::select::SelectConfig;
use crate::step::{
    with_thread_scratch, CsrAccess, EmitSink, NeighborAccess, PoolSink, PoolSlot, StepEntry,
    StepKernel, TrialCounter,
};
use csaw_gpu::device::LaunchResult;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Device;
use csaw_graph::{Csr, GraphSnapshot, VertexId};
use std::collections::HashSet;

/// Folds one launch's results into a run's totals: merges the kernel
/// counters, then tallies `sampled_edges` from the per-instance output
/// lengths. The instance kernels deliberately leave `sampled_edges` at
/// zero — the output vectors are the ground truth — so this helper is the
/// single place the counter is accounted. Both [`Sampler::run`] and
/// [`Sampler::run_chunked`] go through it, which keeps chunked and
/// unchunked stats identical (`chunked_run_matches_unchunked` asserts
/// this).
fn merge_launch_stats(stats: &mut SimStats, launch: &LaunchResult<Vec<(VertexId, VertexId)>>) {
    debug_assert_eq!(
        launch.stats.sampled_edges, 0,
        "instance kernels must not count sampled_edges; the output tally would double-count"
    );
    stats.merge(&launch.stats);
    stats.sampled_edges += launch.outputs.iter().map(|o| o.len() as u64).sum::<u64>();
}

/// A run rejected up front, before any kernel launch. Out-of-range
/// seeds would otherwise panic deep inside CSR indexing; a serving
/// layer needs the typed form to answer the caller instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An instance was given no seed vertices at all.
    EmptySeedSet {
        /// Index of the offending instance.
        instance: usize,
    },
    /// A seed vertex id is not a vertex of the graph.
    SeedOutOfRange {
        /// Index of the offending instance.
        instance: usize,
        /// The rejected vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EmptySeedSet { instance } => {
                write!(f, "instance {instance} has an empty seed set")
            }
            RunError::SeedOutOfRange { instance, vertex, num_vertices } => write!(
                f,
                "instance {instance}: seed vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Validates one-instance-per-set seed sets against `graph`: every set
/// non-empty, every vertex id in range. An empty *list* of sets is fine
/// (a run of zero instances), an empty *set* is not.
pub fn validate_seed_sets(
    graph: &Csr,
    seed_sets: &[impl AsRef<[VertexId]>],
) -> Result<(), RunError> {
    let n = graph.num_vertices();
    for (instance, set) in seed_sets.iter().enumerate() {
        let set = set.as_ref();
        if set.is_empty() {
            return Err(RunError::EmptySeedSet { instance });
        }
        if let Some(&vertex) = set.iter().find(|&&v| v as usize >= n) {
            return Err(RunError::SeedOutOfRange { instance, vertex, num_vertices: n });
        }
    }
    Ok(())
}

/// Validates single-seed instances (one instance per entry of `seeds`).
pub fn validate_single_seeds(graph: &Csr, seeds: &[VertexId]) -> Result<(), RunError> {
    let n = graph.num_vertices();
    match seeds.iter().position(|&v| v as usize >= n) {
        None => Ok(()),
        Some(instance) => {
            Err(RunError::SeedOutOfRange { instance, vertex: seeds[instance], num_vertices: n })
        }
    }
}

/// Execution order of the MAIN loop over a run's instances.
///
/// Both modes run the *same* per-entry pipeline ([`StepKernel`]) over the
/// *same* RNG streams (keyed by logical position, never schedule), so they
/// are bit-identical on outputs and charge-identical on every counter
/// except the `batch_*` group/prefetch observability fields, which only
/// depth-synchronous execution populates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One simulated warp per instance, each run to completion — the
    /// paper's §IV-A inter-warp layout and the engine's historical mode.
    #[default]
    InstanceMajor,
    /// Advance all instances in lockstep one depth at a time over a flat
    /// `(instance, vertex)` frontier (see [`crate::batch`]): prefetches
    /// upcoming CSR rows, groups co-located walkers to share one gather +
    /// CTPS build, and batch-generates Philox blocks per depth.
    DepthSync,
}

/// Engine-level options shared by all instances of a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Global RNG seed; instance `i` draws from streams keyed by
    /// `task_key(instance_base + i, depth, vertex, trial)`.
    pub seed: u64,
    /// SELECT strategy + collision detector.
    pub select: SelectConfig,
    /// Execute SELECT through the lane-level SIMT executor
    /// ([`crate::select_simt`]) instead of the round-based loop —
    /// distribution-identical, additionally tracks warp divergence
    /// (unsupported for the `Updated` strategy).
    pub use_simt_select: bool,
    /// Offset added to local instance indices to form the global instance
    /// id that keys RNG streams. Multi-GPU and sharded runs set this per
    /// chunk so a split run samples exactly what a single-device run of
    /// the whole seed list would.
    pub instance_base: u32,
    /// Optional hot-vertex CTPS cache shared by every instance of the run
    /// (see [`crate::ctps_cache`]). Consulted only for static non-uniform
    /// edge biases; sampled output is bit-identical with or without it.
    /// `None` (the default) disables cross-instance CTPS reuse.
    pub ctps_cache: Option<std::sync::Arc<crate::ctps_cache::CtpsCache>>,
    /// Sampling-method policy (see [`crate::method`]). The default,
    /// [`crate::method::MethodPolicy::ForceIts`], keeps output
    /// bit-identical to the pinned goldens;
    /// [`crate::method::MethodPolicy::Adaptive`] picks alias/rejection
    /// per expansion and is distribution-equal instead.
    pub method_policy: crate::method::MethodPolicy,
    /// Optional epoch snapshot of a [`csaw_graph::MutableGraph`]. When
    /// set, every instance gathers through the snapshot's delta overlay
    /// ([`CsrAccess::snapshot`]) instead of the bare CSR: mutated vertices serve
    /// their merged adjacency, untouched vertices serve the base slices
    /// verbatim. RNG streams are keyed by `(instance, depth, vertex,
    /// trial)` only, so a snapshot run is bit-identical to a from-scratch
    /// run on the compacted CSR of the same epoch. `None` (the default)
    /// is the static path, byte-for-byte what it was before overlays
    /// existed.
    pub snapshot: Option<GraphSnapshot>,
    /// Optional disk tier (see [`crate::residency`]). When set, every
    /// instance gathers through a [`crate::residency::DiskAccess`] over
    /// the store's memory-mapped segments instead of the resident CSR:
    /// neighbor lists decode on demand into each worker thread's
    /// byte-budgeted pool. Decode is bit-exact and RNG streams are keyed
    /// by `(instance, depth, vertex, trial)` only, so a disk-backed run
    /// is bit-identical to the in-memory run at every pool budget.
    /// Mutually exclusive with `snapshot` — the store serves immutable
    /// epochs.
    pub disk: Option<crate::residency::DiskRunConfig>,
    /// Execution order over instances — see [`ExecMode`]. Output is
    /// bit-identical across modes; only throughput and the `batch_*`
    /// observability counters differ.
    pub exec: ExecMode,
    /// Depth-synchronous look-ahead, in vertex-groups: while group `g`
    /// expands, the CSR index row of group `g + distance` and the
    /// adjacency of group `g + max(1, distance/2)` are software-prefetched.
    /// `0` disables prefetching. Ignored under instance-major execution.
    pub prefetch_distance: usize,
    /// Instances per depth-synchronous chunk (the unit of host
    /// parallelism). `None` (the default) auto-sizes to roughly four
    /// chunks per available worker thread. Ignored under instance-major
    /// execution; any value yields bit-identical output.
    pub batch_chunk: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 0x5eed,
            select: SelectConfig::paper_best(),
            use_simt_select: false,
            instance_base: 0,
            ctps_cache: None,
            method_policy: crate::method::MethodPolicy::ForceIts,
            snapshot: None,
            disk: None,
            exec: ExecMode::InstanceMajor,
            prefetch_distance: 8,
            batch_chunk: None,
        }
    }
}

impl RunOptions {
    /// The disk tier this run gathers through, if any. The one place the
    /// snapshot/disk exclusivity is checked.
    fn disk_tier(&self) -> Option<&crate::residency::DiskRunConfig> {
        assert!(
            self.snapshot.is_none() || self.disk.is_none(),
            "RunOptions.snapshot and RunOptions.disk are mutually exclusive"
        );
        self.disk.as_ref()
    }

    /// The resident access of a run without a disk tier: the bound
    /// snapshot's view, else the bare `graph`.
    fn view_access<'a>(&'a self, graph: &'a Csr) -> CsrAccess<'a> {
        self.snapshot.as_ref().map_or_else(|| CsrAccess::new(graph), CsrAccess::snapshot)
    }
}

/// A configured sampler binding a graph to an algorithm.
pub struct Sampler<'g, A: Algorithm> {
    graph: &'g Csr,
    algo: &'g A,
    opts: RunOptions,
    device: Device,
}

impl<'g, A: Algorithm> Sampler<'g, A> {
    /// A sampler with default options on a V100-like device.
    pub fn new(graph: &'g Csr, algo: &'g A) -> Self {
        Sampler { graph, algo, opts: RunOptions::default(), device: Device::v100() }
    }

    /// Overrides the run options.
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the simulated device.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Binds an epoch snapshot: all instances of this run sample the
    /// snapshot's logical graph (base + delta overlay) instead of the
    /// bare CSR. The snapshot's base must be the graph this sampler was
    /// constructed over for the run to be meaningful.
    pub fn with_snapshot(mut self, snapshot: GraphSnapshot) -> Self {
        self.opts.snapshot = Some(snapshot);
        self
    }

    /// Binds a disk tier: all instances gather through the store's
    /// mmap-backed segments with on-demand decode into per-thread pools
    /// (see [`crate::residency`]). The store must hold the same logical
    /// graph as the CSR this sampler was constructed over for the
    /// bit-identity guarantee to be meaningful. Mutually exclusive with
    /// [`Sampler::with_snapshot`].
    pub fn with_disk(mut self, disk: crate::residency::DiskRunConfig) -> Self {
        self.opts.disk = Some(disk);
        self
    }

    /// The bound device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Runs one instance per seed vertex (the common case: every paper
    /// algorithm except multi-dimensional random walk starts an instance
    /// from a single source, §IV-A).
    pub fn run_single_seeds(&self, seeds: &[VertexId]) -> SampleOutput {
        let sets: Vec<Vec<VertexId>> = seeds.iter().map(|&s| vec![s]).collect();
        self.run(&sets)
    }

    /// Memory-bounded run: processes single-seed instances in chunks of
    /// `chunk_size`, handing each finished instance's edges to `sink`
    /// (global instance index, edges) instead of materializing every
    /// instance at once — the right shape for corpus generation over
    /// millions of walks. Returns the merged stats.
    pub fn run_chunked(
        &self,
        seeds: &[VertexId],
        chunk_size: usize,
        mut sink: impl FnMut(usize, Vec<(VertexId, VertexId)>),
    ) -> csaw_gpu::stats::SimStats {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut stats = csaw_gpu::stats::SimStats::new();
        for (chunk_idx, chunk) in seeds.chunks(chunk_size).enumerate() {
            let base = chunk_idx * chunk_size;
            // Instance ids stay global so RNG streams (and thus outputs)
            // are identical to an unchunked run.
            let tasks: Vec<(u32, Vec<VertexId>)> =
                chunk.iter().enumerate().map(|(i, &s)| ((base + i) as u32, vec![s])).collect();
            let graph = self.graph;
            let algo = self.algo;
            let opts = &self.opts;
            let launch = self.device.launch(tasks, move |_, (instance, seeds)| {
                run_instance(graph, algo, opts, instance, &seeds)
            });
            merge_launch_stats(&mut stats, &launch);
            for (i, inst) in launch.outputs.into_iter().enumerate() {
                sink(base + i, inst);
            }
        }
        stats
    }

    /// Runs one instance per seed *set* (multi-dimensional random walk
    /// pools `FrontierSize` seeds per instance).
    pub fn run(&self, seed_sets: &[Vec<VertexId>]) -> SampleOutput {
        if self.opts.exec == ExecMode::DepthSync {
            return self.run_depth_sync(seed_sets);
        }
        let t0 = std::time::Instant::now();
        let tasks: Vec<(u32, &Vec<VertexId>)> =
            seed_sets.iter().enumerate().map(|(i, s)| (i as u32, s)).collect();
        let graph = self.graph;
        let algo = self.algo;
        let opts = &self.opts;
        let launch = self.device.launch(tasks, move |_, (instance, seeds)| {
            run_instance(graph, algo, opts, instance, seeds)
        });
        let mut stats = SimStats::new();
        merge_launch_stats(&mut stats, &launch);
        // Per-instance accounting: the kernels leave `sampled_edges` at
        // zero (see `merge_launch_stats`); fill it in from the output so
        // each entry is a complete, sliceable counter set.
        let mut instance_stats = launch.task_stats;
        for (s, inst) in instance_stats.iter_mut().zip(&launch.outputs) {
            s.sampled_edges = inst.len() as u64;
        }
        SampleOutput {
            instances: launch.outputs,
            stats,
            instance_stats,
            warp_cycles: launch.warp_cycles,
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Depth-synchronous run ([`ExecMode::DepthSync`]): instances are
    /// split into chunks (the unit of host parallelism), and each chunk is
    /// advanced in lockstep one depth at a time by [`crate::batch`]'s flat
    /// frontier. Bit-identical to [`Sampler::run`] on outputs at any chunk
    /// size, prefetch distance, or thread count; charge-identical on every
    /// counter except the `batch_*` observability fields.
    fn run_depth_sync(&self, seed_sets: &[Vec<VertexId>]) -> SampleOutput {
        let t0 = std::time::Instant::now();
        let cfg = self.algo.config();
        let chunk = self.opts.batch_chunk.unwrap_or_else(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            seed_sets.len().div_ceil(4 * threads).max(1)
        });
        assert!(chunk > 0, "batch chunk size must be positive");
        let tasks: Vec<(usize, &[Vec<VertexId>])> =
            seed_sets.chunks(chunk).enumerate().map(|(ci, sets)| (ci * chunk, sets)).collect();
        let graph = self.graph;
        let algo = self.algo;
        let opts = &self.opts;
        let cfg_ref = &cfg;
        let launch = self.device.launch(tasks, move |_, (base, sets)| {
            let (outs, per_inst) = run_chunk_task(graph, algo, opts, cfg_ref, base, sets);
            let total: SimStats = per_inst.iter().copied().sum();
            ((outs, per_inst), total)
        });
        // Reassemble in task order — chunks partition the instance range
        // contiguously, so concatenation restores instance order.
        let mut instances = Vec::with_capacity(seed_sets.len());
        let mut instance_stats = Vec::with_capacity(seed_sets.len());
        for (outs, per_inst) in launch.outputs {
            instances.extend(outs);
            instance_stats.extend(per_inst);
        }
        // The chunk kernels leave `sampled_edges` at zero, as everywhere
        // else: the outputs are the ground truth.
        for (s, inst) in instance_stats.iter_mut().zip(&instances) {
            s.sampled_edges = inst.len() as u64;
        }
        SampleOutput::from_instances(instances, instance_stats, t0.elapsed().as_secs_f64())
    }

    /// [`Sampler::run`] behind upfront validation: rejects empty seed
    /// sets and out-of-range seed ids with a typed [`RunError`] instead
    /// of panicking inside CSR indexing.
    pub fn run_checked(&self, seed_sets: &[Vec<VertexId>]) -> Result<SampleOutput, RunError> {
        validate_seed_sets(self.graph, seed_sets)?;
        Ok(self.run(seed_sets))
    }

    /// [`Sampler::run_single_seeds`] behind upfront validation.
    pub fn run_single_seeds_checked(&self, seeds: &[VertexId]) -> Result<SampleOutput, RunError> {
        validate_single_seeds(self.graph, seeds)?;
        Ok(self.run_single_seeds(seeds))
    }
}

/// Executes one full sampling instance by driving [`StepKernel`] over the
/// instance's frontier pool; returns its sampled edges and private stats
/// (merged by the device).
fn run_instance(
    g: &Csr,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    instance: u32,
    seeds: &[VertexId],
) -> (Vec<(VertexId, VertexId)>, SimStats) {
    match opts.disk_tier() {
        Some(disk) => crate::residency::with_thread_disk_access(disk, |access| {
            let (out, mut stats) = drive_instance(access, algo, opts, instance, seeds);
            // Attribute the disk work this instance caused on its worker
            // thread (decodes, hits, evictions) to its own counters; the
            // warm pool itself persists for the next instance.
            access.flush_stats(&mut stats);
            (out, stats)
        }),
        None => drive_instance(&mut opts.view_access(g), algo, opts, instance, seeds),
    }
}

/// The per-instance depth loop, generic over how adjacency is gathered
/// (resident view or disk tier) — the loop itself is identical, which is
/// what makes the paths bit-identical on identical adjacency.
fn drive_instance<N: NeighborAccess>(
    access: &mut N,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    instance: u32,
    seeds: &[VertexId],
) -> (Vec<(VertexId, VertexId)>, SimStats) {
    let cfg = algo.config();
    let kernel = StepKernel::new(algo, opts.seed)
        .with_select(opts.select)
        .with_simt_select(opts.use_simt_select)
        .with_ctps_cache(opts.ctps_cache.as_deref())
        .with_method_policy(opts.method_policy);
    let instance = opts.instance_base + instance;
    let mut stats = SimStats::new();
    let mut out: Vec<(VertexId, VertexId)> = Vec::new();

    let mut pool: Vec<PoolSlot> = seeds.iter().map(|&v| PoolSlot::seed(v)).collect();
    let mut visited: HashSet<VertexId> =
        if cfg.without_replacement { seeds.iter().copied().collect() } else { HashSet::new() };
    let home = seeds.first().copied().unwrap_or(0);

    // One arena per worker thread: the device launches instance kernels
    // on a pool, and every instance on a thread reuses that thread's
    // warm buffers — zero steady-state allocations in the step pipeline.
    with_thread_scratch(|scratch| match cfg.frontier {
        FrontierMode::IndependentPerVertex => {
            let mut trials = TrialCounter::new();
            // Double-buffered frontier: swap instead of `mem::take`, so
            // neither buffer is ever reallocated between depths.
            let mut frontier: Vec<PoolSlot> = Vec::new();
            for depth in 0..cfg.depth as u32 {
                if pool.is_empty() {
                    break;
                }
                std::mem::swap(&mut pool, &mut frontier);
                pool.clear();
                stats.frontier_ops += frontier.len() as u64;
                trials.reset();
                for &slot in frontier.iter() {
                    let entry = StepEntry {
                        instance,
                        depth,
                        vertex: slot.vertex,
                        prev: slot.prev,
                        trial: trials.next(instance, slot.vertex),
                    };
                    let mut sink = PoolSink {
                        cfg: &cfg,
                        detector: opts.select.detector,
                        visited: &mut visited,
                        next: &mut pool,
                        out: &mut out,
                    };
                    kernel.expand(access, &entry, home, &mut sink, scratch, &mut stats);
                }
            }
        }
        FrontierMode::SharedLayer => {
            let mut frontier: Vec<PoolSlot> = Vec::new();
            for depth in 0..cfg.depth as u32 {
                if pool.is_empty() {
                    break;
                }
                std::mem::swap(&mut pool, &mut frontier);
                pool.clear();
                stats.frontier_ops += frontier.len() as u64;
                let mut sink = PoolSink {
                    cfg: &cfg,
                    detector: opts.select.detector,
                    visited: &mut visited,
                    next: &mut pool,
                    out: &mut out,
                };
                kernel.expand_layer(
                    access, instance, depth, &frontier, &mut sink, scratch, &mut stats,
                );
            }
        }
        FrontierMode::BiasedReplace => {
            // Per-instance VERTEXBIAS lane, maintained incrementally by
            // `expand_replace` (cold on the first step, then one slot per
            // UPDATE instead of a full pool rescan).
            let mut pool_biases: Vec<f64> = Vec::new();
            for depth in 0..cfg.depth as u32 {
                if pool.is_empty() {
                    break;
                }
                let mut sink = EmitSink(&mut out);
                kernel.expand_replace(
                    access,
                    instance,
                    depth,
                    home,
                    &mut pool,
                    &mut pool_biases,
                    &mut sink,
                    scratch,
                    &mut stats,
                );
            }
        }
    });
    (out, stats)
}

/// Executes one depth-synchronous chunk: dispatches the access layer the
/// same way [`run_instance`] does, then hands the chunk to
/// [`drive_chunk`]. Returns per-instance outputs and per-instance stats
/// (disk-tier worker charges land on the chunk's first instance — the
/// same "whoever ran on the warm pool pays" attribution the
/// instance-major path applies per instance).
fn run_chunk_task(
    g: &Csr,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    cfg: &AlgoConfig,
    base: usize,
    sets: &[Vec<VertexId>],
) -> (Vec<Vec<(VertexId, VertexId)>>, Vec<SimStats>) {
    match opts.disk_tier() {
        Some(disk) => crate::residency::with_thread_disk_access(disk, |access| {
            let (outs, mut per_inst) = drive_chunk(access, algo, opts, cfg, base, sets);
            if let Some(first) = per_inst.first_mut() {
                access.flush_stats(first);
            }
            (outs, per_inst)
        }),
        None => drive_chunk(&mut opts.view_access(g), algo, opts, cfg, base, sets),
    }
}

/// The depth-synchronous counterpart of [`drive_instance`] for one chunk
/// of instances. `IndependentPerVertex` algorithms run through the flat
/// grouped frontier of [`crate::batch::run_chunk`]; the layer modes
/// (`SharedLayer`, `BiasedReplace`) expand whole per-instance layers per
/// step, so "depth-synchronous" reduces to a loop interchange — depth
/// outer, instances inner — which is trivially bit- and charge-identical
/// because per-instance state is independent.
fn drive_chunk<N: NeighborAccess>(
    access: &mut N,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    cfg: &AlgoConfig,
    base: usize,
    sets: &[Vec<VertexId>],
) -> (Vec<Vec<(VertexId, VertexId)>>, Vec<SimStats>) {
    let kernel = StepKernel::new(algo, opts.seed)
        .with_select(opts.select)
        .with_simt_select(opts.use_simt_select)
        .with_ctps_cache(opts.ctps_cache.as_deref())
        .with_method_policy(opts.method_policy);
    let mut outs: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); sets.len()];
    let mut per_inst: Vec<SimStats> = vec![SimStats::new(); sets.len()];
    let global_id = |i: usize| opts.instance_base + (base + i) as u32;

    match cfg.frontier {
        FrontierMode::IndependentPerVertex => {
            let instances: Vec<ChunkInstance<'_>> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| ChunkInstance { global_id: global_id(i), seeds: s })
                .collect();
            with_thread_scratch(|scratch| {
                crate::batch::with_thread_arena(|arena| {
                    crate::batch::run_chunk(
                        &kernel,
                        access,
                        &instances,
                        opts.seed,
                        opts.prefetch_distance,
                        &mut outs,
                        &mut per_inst,
                        arena,
                        scratch,
                    );
                });
            });
        }
        FrontierMode::SharedLayer => {
            let mut pools: Vec<Vec<PoolSlot>> =
                sets.iter().map(|s| s.iter().map(|&v| PoolSlot::seed(v)).collect()).collect();
            let mut frontiers: Vec<Vec<PoolSlot>> = vec![Vec::new(); sets.len()];
            let mut visiteds: Vec<HashSet<VertexId>> = sets
                .iter()
                .map(|s| {
                    if cfg.without_replacement {
                        s.iter().copied().collect()
                    } else {
                        HashSet::new()
                    }
                })
                .collect();
            with_thread_scratch(|scratch| {
                for depth in 0..cfg.depth as u32 {
                    for i in 0..sets.len() {
                        if pools[i].is_empty() {
                            continue;
                        }
                        std::mem::swap(&mut pools[i], &mut frontiers[i]);
                        pools[i].clear();
                        per_inst[i].frontier_ops += frontiers[i].len() as u64;
                        let mut sink = PoolSink {
                            cfg,
                            detector: opts.select.detector,
                            visited: &mut visiteds[i],
                            next: &mut pools[i],
                            out: &mut outs[i],
                        };
                        kernel.expand_layer(
                            access,
                            global_id(i),
                            depth,
                            &frontiers[i],
                            &mut sink,
                            scratch,
                            &mut per_inst[i],
                        );
                    }
                }
            });
        }
        FrontierMode::BiasedReplace => {
            let mut pools: Vec<Vec<PoolSlot>> =
                sets.iter().map(|s| s.iter().map(|&v| PoolSlot::seed(v)).collect()).collect();
            let mut pool_biases: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
            with_thread_scratch(|scratch| {
                for depth in 0..cfg.depth as u32 {
                    for i in 0..sets.len() {
                        if pools[i].is_empty() {
                            continue;
                        }
                        let home = sets[i].first().copied().unwrap_or(0);
                        let mut sink = EmitSink(&mut outs[i]);
                        kernel.expand_replace(
                            access,
                            global_id(i),
                            depth,
                            home,
                            &mut pools[i],
                            &mut pool_biases[i],
                            &mut sink,
                            scratch,
                            &mut per_inst[i],
                        );
                    }
                }
            });
        }
    }
    (outs, per_inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AlgoConfig, NeighborSize};
    use csaw_graph::generators::toy_graph;

    /// Minimal in-test algorithm: unbiased neighbor sampling.
    struct TestNs {
        ns: usize,
        depth: usize,
    }
    impl Algorithm for TestNs {
        fn name(&self) -> &'static str {
            "test-ns"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: self.depth,
                neighbor_size: NeighborSize::Constant(self.ns),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }

    /// Unbiased walk of fixed length.
    struct TestWalk {
        len: usize,
    }
    impl Algorithm for TestWalk {
        fn name(&self) -> &'static str {
            "test-walk"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: self.len,
                neighbor_size: NeighborSize::Constant(1),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: false,
            }
        }
    }

    #[test]
    fn walk_has_requested_length_and_valid_edges() {
        let g = toy_graph();
        let algo = TestWalk { len: 20 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8, 0, 5]);
        assert_eq!(out.instances.len(), 3);
        for inst in &out.instances {
            assert_eq!(inst.len(), 20, "toy graph has no dead ends");
            for &(v, u) in inst {
                assert!(g.has_edge(v, u), "non-edge ({v},{u}) sampled");
            }
            // Path property: consecutive edges chain.
            for w in inst.windows(2) {
                assert_eq!(w[0].1, w[1].0, "walk must be connected");
            }
        }
    }

    #[test]
    fn neighbor_sampling_respects_ns_and_depth() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8]);
        let inst = &out.instances[0];
        // Depth 2, NS 2: ≤ 2 + 4 edges; all must be real edges.
        assert!(inst.len() <= 6, "{inst:?}");
        assert!(!inst.is_empty());
        for &(v, u) in inst {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn without_replacement_never_expands_twice() {
        let g = toy_graph();
        let algo = TestNs { ns: 8, depth: 6 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0, 5, 8, 12]);
        for inst in &out.instances {
            let mut expanded: Vec<VertexId> = inst.iter().map(|&(v, _)| v).collect();
            let unique: HashSet<_> = expanded.iter().copied().collect();
            expanded.sort_unstable();
            // A vertex may appear as source of several edges within one
            // step (NS > 1) but must never be *expanded* in two steps. With
            // ns=8 ≥ max degree, re-expansion would mean duplicate (v, u)
            // pairs.
            let mut pairs = inst.clone();
            pairs.sort_unstable();
            let before = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), before, "duplicate sampled edge implies re-expansion");
            assert!(!unique.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = toy_graph();
        let algo = TestWalk { len: 50 };
        let a = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3, 4]);
        let b = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3, 4]);
        assert_eq!(a.instances, b.instances);
    }

    #[test]
    fn different_seed_changes_output() {
        let g = toy_graph();
        let algo = TestWalk { len: 50 };
        let a = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3]);
        let b = Sampler::new(&g, &algo)
            .with_options(RunOptions { seed: 999, ..Default::default() })
            .run_single_seeds(&[1, 2, 3]);
        assert_ne!(a.instances, b.instances);
    }

    #[test]
    fn instance_base_shifts_rng_streams() {
        let g = toy_graph();
        let algo = TestWalk { len: 30 };
        let seeds: Vec<u32> = (0..6).map(|i| i % 13).collect();
        let full = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        // Running the tail [3..] with instance_base 3 must reproduce the
        // full run's instances 3..6 exactly — the property multi-GPU
        // splitting relies on.
        let tail = Sampler::new(&g, &algo)
            .with_options(RunOptions { instance_base: 3, ..Default::default() })
            .run_single_seeds(&seeds[3..]);
        assert_eq!(tail.instances, full.instances[3..]);
    }

    #[test]
    fn dead_end_terminates_by_default() {
        // Star with edges only out of 0: vertex 1.. have no out-edges.
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let algo = TestWalk { len: 10 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0]);
        assert_eq!(out.instances[0].len(), 1, "one hop then dead end");
    }

    #[test]
    fn empty_seed_list() {
        let g = toy_graph();
        let algo = TestWalk { len: 5 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[]);
        assert!(out.instances.is_empty());
        assert_eq!(out.sampled_edges(), 0);
    }

    #[test]
    fn simt_select_option_is_distribution_equivalent() {
        use std::collections::HashMap;
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 1 };
        let freq = |use_simt: bool| {
            let opts = RunOptions { use_simt_select: use_simt, ..Default::default() };
            let out = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&vec![8; 40_000]);
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for inst in &out.instances {
                for &(_, u) in inst {
                    *counts.entry(u).or_default() += 1;
                }
            }
            counts
        };
        let (a, b) = (freq(false), freq(true));
        for &u in g.neighbors(8) {
            let fa = a[&u] as f64 / 40_000.0;
            let fb = b[&u] as f64 / 40_000.0;
            assert!((fa - fb).abs() < 0.02, "u={u}: round {fa} vs simt {fb}");
        }
    }

    #[test]
    fn chunked_run_matches_unchunked() {
        let g = toy_graph();
        let algo = TestWalk { len: 15 };
        let seeds: Vec<u32> = (0..23).map(|i| i % 13).collect();
        let full = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        for chunk in [1usize, 4, 7, 23, 100] {
            let mut collected: Vec<Option<Vec<(u32, u32)>>> = vec![None; seeds.len()];
            let stats = Sampler::new(&g, &algo).run_chunked(&seeds, chunk, |i, edges| {
                collected[i] = Some(edges);
            });
            let collected: Vec<_> = collected.into_iter().map(Option::unwrap).collect();
            assert_eq!(collected, full.instances, "chunk={chunk}");
            // Full-stats equality, not just sampled_edges: both paths fold
            // every launch through `merge_launch_stats`, and chunking only
            // regroups instances (global ids keep RNG streams fixed), so
            // every counter must match the unchunked run exactly.
            assert_eq!(stats, full.stats, "chunk={chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn chunked_run_rejects_zero_chunk() {
        let g = toy_graph();
        let algo = TestWalk { len: 2 };
        Sampler::new(&g, &algo).run_chunked(&[0], 0, |_, _| {});
    }

    #[test]
    fn checked_run_rejects_bad_seeds_and_passes_good_ones() {
        let g = toy_graph(); // 13 vertices
        let algo = TestWalk { len: 5 };
        let s = Sampler::new(&g, &algo);
        assert_eq!(
            s.run_single_seeds_checked(&[0, 99]).unwrap_err(),
            RunError::SeedOutOfRange { instance: 1, vertex: 99, num_vertices: 13 }
        );
        assert_eq!(
            s.run_checked(&[vec![3], vec![]]).unwrap_err(),
            RunError::EmptySeedSet { instance: 1 }
        );
        assert_eq!(
            s.run_checked(&[vec![3, 13]]).unwrap_err(),
            RunError::SeedOutOfRange { instance: 0, vertex: 13, num_vertices: 13 }
        );
        let ok = s.run_single_seeds_checked(&[0, 12]).unwrap();
        assert_eq!(ok.instances, s.run_single_seeds(&[0, 12]).instances);
        // Zero instances is a valid (empty) run, not an error.
        assert!(s.run_single_seeds_checked(&[]).unwrap().instances.is_empty());
    }

    #[test]
    fn per_instance_stats_sum_to_run_stats() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8, 0, 5]);
        assert_eq!(out.instance_stats.len(), 3);
        let summed: SimStats = out.instance_stats.iter().copied().sum();
        assert_eq!(summed, out.stats);
        for (s, inst) in out.instance_stats.iter().zip(&out.instances) {
            assert_eq!(s.sampled_edges, inst.len() as u64);
        }
        // Slicing one instance out reproduces a solo run's accounting.
        let solo = Sampler::new(&g, &algo).run_single_seeds(&[8]);
        let sliced = out.slice(0..1);
        assert_eq!(sliced.instances, solo.instances);
        assert_eq!(sliced.stats, solo.stats);
    }

    #[test]
    fn depth_sync_matches_instance_major_at_any_chunk_size() {
        let g = toy_graph();
        // Duplicate seeds force co-located walkers (shared groups, trial
        // ordinals > 0) — the paths most likely to diverge.
        let seeds: Vec<u32> = (0..17).map(|i| [8, 0, 8, 5, 2][i % 5]).collect();
        for (name, algo) in [
            ("walk", Box::new(TestWalk { len: 12 }) as Box<dyn Algorithm>),
            ("ns", Box::new(TestNs { ns: 3, depth: 4 })),
        ] {
            let algo: &dyn Algorithm = algo.as_ref();
            let reference = Sampler::new(&g, &algo).run_single_seeds(&seeds);
            for chunk in [1usize, 2, 3, 7, 100] {
                for prefetch in [0usize, 1, 8] {
                    let opts = RunOptions {
                        exec: ExecMode::DepthSync,
                        batch_chunk: Some(chunk),
                        prefetch_distance: prefetch,
                        ..Default::default()
                    };
                    let out = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);
                    assert_eq!(
                        out.instances, reference.instances,
                        "{name}: chunk={chunk} prefetch={prefetch}"
                    );
                    assert_eq!(
                        out.stats.without_batch(),
                        reference.stats,
                        "{name}: chunk={chunk} prefetch={prefetch}"
                    );
                    let summed: SimStats = out.instance_stats.iter().copied().sum();
                    assert_eq!(summed, out.stats, "per-instance stats must conserve");
                }
            }
        }
    }

    #[test]
    fn depth_sync_matches_instance_major_on_layer_modes() {
        // SharedLayer (layer sampling) and BiasedReplace (multi-dim walk)
        // take the loop-interchange path rather than the flat frontier.
        use crate::algorithms::registry::{AlgoSpec, AlgorithmId};
        let g = toy_graph();
        for id in [AlgorithmId::LayerSampling, AlgorithmId::MultiDimRandomWalk] {
            let algo = AlgoSpec::new(id).with_depth(4).build().unwrap();
            let algo: &dyn Algorithm = algo.as_ref();
            let sets: Vec<Vec<u32>> = vec![vec![8, 0, 5], vec![2, 3, 4], vec![8, 0, 5]];
            let reference = Sampler::new(&g, &algo).run(&sets);
            for chunk in [1usize, 2, 100] {
                let opts = RunOptions {
                    exec: ExecMode::DepthSync,
                    batch_chunk: Some(chunk),
                    ..Default::default()
                };
                let out = Sampler::new(&g, &algo).with_options(opts).run(&sets);
                assert_eq!(out.instances, reference.instances, "{id:?} chunk={chunk}");
                assert_eq!(out.stats.without_batch(), reference.stats, "{id:?}");
            }
        }
    }

    #[test]
    fn depth_sync_populates_batch_observability() {
        let g = toy_graph();
        let algo = TestWalk { len: 10 };
        let opts =
            RunOptions { exec: ExecMode::DepthSync, batch_chunk: Some(100), ..Default::default() };
        // All walkers start at one vertex: depth 0 is a single group of 8.
        let out = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&[8; 8]);
        assert!(out.stats.batch_groups > 0);
        assert_eq!(out.stats.batch_group_hist.iter().sum::<u64>(), out.stats.batch_groups);
        assert_eq!(
            out.stats.batch_prefetch_hits + out.stats.batch_prefetch_misses,
            out.stats.batch_groups,
            "prefetch coverage must conserve"
        );
        assert!(out.stats.batch_group_entries >= out.stats.batch_groups);
        assert_eq!(out.stats.batch_group_hist[3], 1, "depth-0 group of 8 lands in bucket 3");
    }

    #[test]
    fn stats_accumulate_work() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8, 0]);
        assert!(out.stats.rng_draws > 0);
        assert!(out.stats.selections > 0);
        assert!(out.stats.gmem_bytes > 0);
        assert_eq!(out.stats.sampled_edges, out.sampled_edges());
        assert_eq!(out.warp_cycles.len(), 2);
    }
}
