//! The shared expand step — **one** implementation of the paper's Fig. 2b
//! inner loop for every runtime.
//!
//! The paper's whole argument is that a single MAIN loop plus three user
//! hooks expresses every sampling and random-walk algorithm. This module
//! makes the reproduction honor that claim structurally: the full
//! per-entry expand pipeline
//!
//! ```text
//! dead-end hook → NeighborSize::realize → candidate/bias construction
//!   → SELECT (with/without replacement) → accept → edge emit
//!   → UPDATE → frontier push
//! ```
//!
//! lives in [`StepKernel`] and nowhere else. Runtimes differ only in two
//! small traits:
//!
//! - [`NeighborAccess`] — where adjacency comes from and what the memory
//!   system charges for it. One type per storage: a resident
//!   [`GraphView`] — the bare CSR or an epoch snapshot's overlay —
//!   ([`CsrAccess`]); [`PartitionSet`] slices on the out-of-memory
//!   device, optionally behind a snapshot's overlay or the disk tier
//!   ([`PartitionAccess`]); the disk tier alone
//!   ([`crate::residency::DiskAccess`]); and, in `csaw-oom`, a
//!   demand-paged unified-memory cache and a fault-in simulation that
//!   hands its reads to [`PartitionAccess`].
//! - [`FrontierSink`] — where sampled edges and next-depth frontier
//!   entries go: the engine's per-instance pool ([`PoolSink`]), the OOM
//!   scheduler's visited-shard + cross-partition outbox, or the unified
//!   runner's per-instance vectors.
//!
//! Every expansion draws from a counter-based stream keyed by
//! [`csaw_gpu::rng::task_key`]`(instance, depth, vertex, trial)`, so the
//! sampled output of a given `(graph, algorithm, seed)` triple is
//! identical no matter which runtime executes it or in what order —
//! the property the cross-runtime equivalence tests pin down.

use crate::alias::{AliasBuildScratch, AliasTable};
use crate::api::{AlgoConfig, Algorithm, EdgeCand, UpdateAction};
use crate::collision::{charge_visited_check, DetectorKind};
use crate::ctps_cache::{self, CacheOutcome, CtpsCache};
use crate::method::{
    choose_method, MethodContext, MethodPolicy, RejectionFeedback, SelectMethod,
    REJECTION_MAX_TRIALS,
};
use crate::residency::DiskAccess;
use crate::select::{
    select_one_preloaded, select_one_rejection, select_one_uniform, select_one_with,
    select_without_replacement_into, select_without_replacement_preloaded_into,
    select_without_replacement_uniform_into, SelectConfig, SelectScratch, SelectStrategy,
};
use crate::select_simt::select_without_replacement_simt_into;
use csaw_gpu::rng::task_key;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use csaw_graph::{Csr, GraphSnapshot, GraphView, PartitionSet, VertexId, Weight};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Sentinel "vertex" keying the RNG stream of pool-level steps (shared
/// layer and biased replace), which expand a whole pool rather than one
/// vertex. Real vertex ids never reach `u32::MAX` (CSR construction
/// would need ~4G vertices).
pub const POOL_STEP_VERTEX: VertexId = VertexId::MAX;

/// One frontier entry as the kernel sees it: the coordinates that key its
/// RNG stream plus the walk predecessor (the paper's `SOURCE(e.v)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEntry {
    /// Sampling instance the entry belongs to (globally unique across
    /// chunks/GPUs — runtimes add their instance base before calling in).
    pub instance: u32,
    /// The instance's depth when the entry was enqueued.
    pub depth: u32,
    /// The vertex to expand.
    pub vertex: VertexId,
    /// The vertex the instance explored immediately before this one.
    pub prev: Option<VertexId>,
    /// Ordinal among duplicate `(instance, depth, vertex)` entries; 0
    /// unless a with-replacement UPDATE inserted the same vertex twice in
    /// one step (see [`TrialCounter`]).
    pub trial: u32,
}

/// One slot of a frontier pool: the vertex plus its walk predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSlot {
    /// The pooled vertex.
    pub vertex: VertexId,
    /// Its predecessor in the instance's exploration, if any.
    pub prev: Option<VertexId>,
}

impl PoolSlot {
    /// A first-hop slot with no predecessor.
    pub fn seed(vertex: VertexId) -> Self {
        PoolSlot { vertex, prev: None }
    }
}

/// The shared state of one vertex-group build (see
/// [`StepKernel::prepare_group`]): the stats each group member replays in
/// place of recomputing the bias fill and CTPS rebuild, plus the
/// positive-bias candidate count the preloaded without-replacement SELECT
/// needs. The lane data itself lives in the [`StepScratch`] the build
/// filled.
#[derive(Debug, Clone)]
pub struct SharedBuild {
    /// Stats the EDGEBIAS lane fill charged (replayed once per entry).
    pub fill_delta: SimStats,
    /// Stats the CTPS rebuild charged (replayed once per entry when
    /// without replacement, once per *pick* with replacement — mirroring
    /// `select_one_with`'s per-pick rebuild).
    pub rebuild_delta: SimStats,
    /// Number of positive-bias candidates in the shared lane.
    pub selectable: usize,
}

/// Bytes read from global memory to gather one adjacency list: two
/// row-pointer words plus the neighbor slice (+4 bytes/edge of weights on
/// weighted graphs). Shared by every [`NeighborAccess`] implementation so
/// all runtimes charge the gather identically.
pub fn gather_bytes(weighted: bool, deg: usize) -> usize {
    16 + deg * (4 + if weighted { 4 } else { 0 })
}

/// One gathered adjacency list: borrowed CSR ranges (neighbors + weights)
/// plus the full graph for the algorithm hooks, bundled under a single
/// borrow of the access. The kernel builds candidates *from* these slices
/// on demand instead of materializing a `Vec<EdgeCand>` per step —
/// [`Gathered::edge`] is the paper's `e = (v, u, w)` constructed in
/// registers at use sites.
pub struct Gathered<'a> {
    /// The full logical graph at this access's epoch (hooks may inspect
    /// global structure such as degrees).
    pub graph: GraphView<'a>,
    /// `v`'s neighbor list.
    pub neighbors: &'a [VertexId],
    /// Per-neighbor edge weights (`None` on unweighted graphs).
    pub weights: Option<&'a [Weight]>,
}

impl Gathered<'_> {
    /// Candidate edge `i` of the gathered adjacency, materialized on
    /// demand (no allocation; `EdgeCand` is `Copy`-sized).
    #[inline]
    pub fn edge(&self, i: usize, v: VertexId, prev: Option<VertexId>) -> EdgeCand {
        EdgeCand { v, u: self.neighbors[i], weight: self.weights.map_or(1.0, |w| w[i]), prev }
    }
}

/// Where the kernel's GATHERNEIGHBORS reads adjacency from, and what the
/// runtime's memory system charges for it.
pub trait NeighborAccess {
    /// The full logical graph at this access's epoch (algorithm hooks may
    /// inspect global structure such as degrees).
    fn graph(&self) -> GraphView<'_>;

    /// Gathers `v`'s neighbor list and edge weights as borrowed slices,
    /// charging whatever the runtime models for the read (global-memory
    /// bytes, a partition transfer, a page fault...).
    fn gather(&mut self, v: VertexId, stats: &mut SimStats) -> Gathered<'_>;

    /// Re-borrows `v`'s adjacency **without charging** the memory system.
    /// Used by the CTPS-cache hit path, whose cost model charges the
    /// cached-table read (plus the picked neighbors) instead of a full
    /// adjacency gather.
    fn fetch(&mut self, v: VertexId) -> Gathered<'_>;

    /// Cache-invalidation tag for *vertex* `v`'s cached per-vertex state
    /// (CTPS/alias entries); a lookup under a different tag drops the
    /// entry. Fully-resident static runtimes keep the default constant
    /// tag. Runtimes that change what adjacency is device-resident
    /// mid-run (partition swaps, disk-pool evictions) fold their
    /// residency epoch in, and snapshot accesses fold in the vertex's
    /// mutation version, so an epoch bump only invalidates the vertices
    /// it actually touched (see [`cache_tag`]).
    fn entry_epoch(&self, v: VertexId) -> u64 {
        let _ = v;
        0
    }

    /// Hints the host memory system to pull `v`'s row-pointer cache line
    /// toward the core — the depth-synchronous driver issues this a
    /// configurable distance ahead of expansion (ThunderRW's step
    /// interleaving). Purely a wall-clock hint: charges nothing, changes
    /// nothing observable, and defaults to a no-op for accesses whose
    /// adjacency is not a flat in-RAM array.
    fn prefetch_index(&self, v: VertexId) {
        let _ = v;
    }

    /// Hints the host memory system to pull the head of `v`'s neighbor
    /// slice toward the core (see [`Self::prefetch_index`]).
    fn prefetch_adjacency(&self, v: VertexId) {
        let _ = v;
    }
}

/// The two-level cache tag: the outer tier's residency epoch in the high
/// 32 bits, the inner level's epoch (a mutation version, or the disk
/// pool's partition epoch) truncated to the low 32. Either half changing
/// changes the tag, so a cached entry dies when *either* level recycled
/// its backing. Epochs past 2^32 alias (see ROADMAP).
#[inline]
pub fn cache_tag(high: u64, low: u64) -> u64 {
    (high << 32) | (low & 0xffff_ffff)
}

/// Issues a T0 prefetch for the cache line holding `p`: a hint that
/// charges nothing and changes nothing observable.
#[inline]
fn prefetch_line(p: *const i8) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `_mm_prefetch` never faults and has no architectural
        // effect beyond cache population.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Access over a resident [`GraphView`]: the bare CSR
/// ([`CsrAccess::new`]) or an epoch [`GraphSnapshot`] of a mutable graph
/// ([`CsrAccess::snapshot`]) — base CSR slices for untouched vertices,
/// merged overlay slices for mutated ones. A gather costs its
/// global-memory bytes over the *logical* degree, so a snapshot run and
/// a run on the compacted CSR of the same epoch count identical traffic.
///
/// Over a snapshot, `entry_epoch` reports the per-vertex 1-hop mutation
/// version ([`GraphSnapshot::entry_version`]), not the graph epoch:
/// cached CTPS/alias entries for vertices whose neighborhood is
/// untouched (tag 0, the same tag the bare CSR uses) stay valid across
/// epochs and across compaction, while entries whose bias inputs an edit
/// touched — the edited vertex *and* its neighbors, since static biases
/// such as degree bias read the far endpoint's adjacency — go stale
/// lazily the next time they are looked up.
pub struct CsrAccess<'g> {
    view: GraphView<'g>,
    snapshot: Option<&'g GraphSnapshot>,
}

impl<'g> CsrAccess<'g> {
    /// Access over a bare CSR.
    pub fn new(graph: &'g Csr) -> Self {
        CsrAccess { view: graph.view(), snapshot: None }
    }

    /// Access over `snapshot`'s logical graph (base + delta overlay).
    pub fn snapshot(snapshot: &'g GraphSnapshot) -> Self {
        CsrAccess { view: snapshot.view(), snapshot: Some(snapshot) }
    }
}

impl NeighborAccess for CsrAccess<'_> {
    fn graph(&self) -> GraphView<'_> {
        self.view
    }

    fn gather(&mut self, v: VertexId, stats: &mut SimStats) -> Gathered<'_> {
        stats.read_gmem(gather_bytes(self.view.is_weighted(), self.view.degree(v)));
        self.fetch(v)
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        let view = self.view;
        Gathered { graph: view, neighbors: view.neighbors(v), weights: view.neighbor_weights(v) }
    }

    fn entry_epoch(&self, v: VertexId) -> u64 {
        self.snapshot.map_or(0, |s| s.entry_version(v))
    }

    fn prefetch_index(&self, v: VertexId) {
        // Mutated vertices keep their (stale) base row pointer, so the
        // hint is harmless for them.
        if let Some(p) = self.view.base().row_ptr().get(v as usize) {
            prefetch_line(p as *const usize as *const i8);
        }
    }

    fn prefetch_adjacency(&self, v: VertexId) {
        let n = self.view.neighbors(v);
        // Up to four cache lines of the neighbor slice — enough for the
        // low-degree rows that dominate power-law frontiers.
        let bytes = std::mem::size_of_val(n).min(256);
        let base = n.as_ptr() as *const i8;
        for off in (0..bytes).step_by(64) {
            prefetch_line(base.wrapping_add(off));
        }
    }
}

/// Access for the out-of-memory scheduler: adjacency is read from the
/// owning partition's resident copy (the scheduler guarantees residency
/// before the kernel runs). Charges the same gather bytes as
/// [`CsrAccess`], so in-memory and out-of-memory runs of the same sample
/// count identical global-memory traffic.
///
/// Two optional layers sit in front of the partition slices:
///
/// - a [`GraphSnapshot`] of a mutable graph — partitions are built from
///   its base CSR, and a mutated vertex reads its merged overlay slice
///   instead (the overlay is small and host-pinned; its transfer is not
///   separately modeled — see DESIGN.md);
/// - a [`DiskAccess`] — the host copy of every partition lives in the
///   disk tier, so an untouched vertex reads the worker's decoded pool.
///
/// The two are mutually exclusive (the disk tier serves immutable
/// epochs). `entry_epoch` is the [`cache_tag`] of the stream's device
/// residency epoch over the vertex's mutation version or its disk
/// partition epoch, so a partition swap, a mutation or a pool eviction
/// each invalidate a cached entry — the full three-tier chain.
pub struct PartitionAccess<'g, 'd> {
    view: GraphView<'g>,
    parts: &'g PartitionSet,
    snapshot: Option<&'g GraphSnapshot>,
    disk: Option<&'d mut DiskAccess>,
    residency_epoch: u64,
}

impl<'g, 'd> PartitionAccess<'g, 'd> {
    /// Access over `parts`, the partitioning of `graph` (or of
    /// `snapshot`'s base when one is given), for a stream at device
    /// residency epoch `residency_epoch`.
    ///
    /// # Panics
    /// Panics if both `snapshot` and `disk` are given.
    pub fn new(
        graph: &'g Csr,
        parts: &'g PartitionSet,
        snapshot: Option<&'g GraphSnapshot>,
        disk: Option<&'d mut DiskAccess>,
        residency_epoch: u64,
    ) -> Self {
        assert!(
            snapshot.is_none() || disk.is_none(),
            "disk tier and mutation snapshot are mutually exclusive"
        );
        let view = snapshot.map_or_else(|| graph.view(), GraphSnapshot::view);
        PartitionAccess { view, parts, snapshot, disk, residency_epoch }
    }

    /// The partitioning whose slices serve the gathers.
    pub fn parts(&self) -> &'g PartitionSet {
        self.parts
    }

    /// Whether `v` reads its overlay slice rather than its partition.
    pub fn is_overlay(&self, v: VertexId) -> bool {
        self.snapshot.is_some_and(|s| s.delta_adjacency(v).is_some())
    }

    /// Drains the disk tier's pending counters into `stats` (no-op
    /// without a disk tier).
    pub fn flush_disk_stats(&mut self, stats: &mut SimStats) {
        if let Some(disk) = self.disk.as_deref_mut() {
            disk.flush_stats(stats);
        }
    }
}

impl NeighborAccess for PartitionAccess<'_, '_> {
    fn graph(&self) -> GraphView<'_> {
        match self.disk.as_deref() {
            Some(disk) => disk.graph(),
            None => self.view,
        }
    }

    fn gather(&mut self, v: VertexId, stats: &mut SimStats) -> Gathered<'_> {
        if let Some(disk) = self.disk.as_deref_mut() {
            // Exclusive prologue: frees the pool's deferred evictions
            // before this step's working set forms.
            disk.maintain();
        }
        let gathered = self.fetch(v);
        stats.read_gmem(gather_bytes(gathered.graph.is_weighted(), gathered.neighbors.len()));
        gathered
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        let graph = self.view;
        if let Some((neighbors, weights)) = self.snapshot.and_then(|s| s.delta_adjacency(v)) {
            return Gathered { graph, neighbors, weights };
        }
        if let Some(disk) = self.disk.as_deref_mut() {
            return disk.fetch(v);
        }
        let p = self.parts.get(self.parts.partition_of(v));
        Gathered { graph, neighbors: p.neighbors(v), weights: p.neighbor_weights(v) }
    }

    fn entry_epoch(&self, v: VertexId) -> u64 {
        let low = match (self.snapshot, self.disk.as_deref()) {
            (Some(s), _) => s.entry_version(v),
            (None, Some(disk)) => disk.hierarchy().partition_epoch(v),
            (None, None) => 0,
        };
        cache_tag(self.residency_epoch, low)
    }
}

/// Where the kernel's outputs go: sampled edges (`emit`) and next-depth
/// frontier offers (`push`). The sink owns without-replacement filtering
/// and whatever staging its runtime needs (pool push, partition queue +
/// outbox, per-instance vectors).
pub trait FrontierSink {
    /// Records a sampled edge for `entry`'s instance.
    fn emit(&mut self, entry: &StepEntry, edge: (VertexId, VertexId));

    /// Offers `vertex` (with predecessor `prev`) to `entry`'s instance at
    /// depth `entry.depth + 1`. The kernel has already checked the depth
    /// budget; the sink decides acceptance (visited filter) and placement.
    fn push(
        &mut self,
        entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        stats: &mut SimStats,
    );
}

/// The engine-style sink: edges append to one output vector, offers pass
/// the without-replacement visited filter (charged per the collision
/// detector, the Fig. 12 cost) and land in the instance's next pool.
/// Shared by the in-memory engine, the unified-memory comparator, and the
/// out-of-memory pooled path — anything that keeps per-instance pools.
pub struct PoolSink<'a> {
    /// Structural config (consulted for `without_replacement`).
    pub cfg: &'a AlgoConfig,
    /// Collision detector whose visited-check cost is charged per offer.
    pub detector: DetectorKind,
    /// The instance's visited set.
    pub visited: &'a mut HashSet<VertexId>,
    /// The instance's next frontier pool.
    pub next: &'a mut Vec<PoolSlot>,
    /// The instance's sampled edges.
    pub out: &'a mut Vec<(VertexId, VertexId)>,
}

impl FrontierSink for PoolSink<'_> {
    fn emit(&mut self, _entry: &StepEntry, edge: (VertexId, VertexId)) {
        self.out.push(edge);
    }

    fn push(
        &mut self,
        _entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        stats: &mut SimStats,
    ) {
        if self.cfg.without_replacement {
            charge_visited_check(self.detector, self.visited.len(), stats);
            if !self.visited.insert(vertex) {
                return; // already sampled once (§II-A)
            }
        }
        stats.frontier_ops += 1;
        self.next.push(PoolSlot { vertex, prev });
    }
}

/// Emit-only sink for [`StepKernel::expand_replace`]: biased-replace
/// steps mutate the pool in place and never push, so only `emit` is
/// reachable.
pub struct EmitSink<'a>(pub &'a mut Vec<(VertexId, VertexId)>);

impl FrontierSink for EmitSink<'_> {
    fn emit(&mut self, _entry: &StepEntry, edge: (VertexId, VertexId)) {
        self.0.push(edge);
    }

    fn push(&mut self, _e: &StepEntry, _v: VertexId, _p: Option<VertexId>, _s: &mut SimStats) {
        unreachable!("biased-replace steps mutate the pool in place and never push");
    }
}

/// Assigns the schedule-independent `trial` ordinal: the k-th duplicate of
/// `(instance, vertex)` seen since the last [`TrialCounter::reset`] gets
/// trial `k`. Drivers reset the counter at each depth step, so the
/// ordinal is "occurrence index within this instance's frontier at this
/// depth" — well-defined because a single instance's frontier is always
/// processed sequentially, in insertion order, by every runtime.
#[derive(Debug, Default)]
pub struct TrialCounter(HashMap<(u32, VertexId), u32>);

impl TrialCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next trial ordinal for `(instance, vertex)`.
    pub fn next(&mut self, instance: u32, vertex: VertexId) -> u32 {
        let n = self.0.entry((instance, vertex)).or_insert(0);
        let t = *n;
        *n += 1;
        t
    }

    /// Clears the counter (call at each depth-step boundary).
    pub fn reset(&mut self) {
        self.0.clear();
    }
}

/// Reusable per-worker expand arena: every buffer a step needs —
/// candidate union pool, edge/vertex bias lanes, and the full
/// [`SelectScratch`] — owned once per worker (or stream) and cleared,
/// never dropped, between steps. With a warm scratch a steady-state
/// expand performs **zero heap allocations**; the on-GPU analog is the
/// warp's shared-memory working set, allocated at kernel launch rather
/// than per step.
#[derive(Debug, Default)]
pub struct StepScratch {
    /// Union candidate pool (shared-layer steps gather every frontier
    /// slot's adjacency here; per-vertex steps borrow CSR ranges
    /// directly and leave this untouched).
    cands: Vec<EdgeCand>,
    /// EDGEBIAS lane per candidate.
    biases: Vec<f64>,
    /// The SELECT arena (CTPS, detector bitmap, lane buffers).
    select: SelectScratch,
    /// Alias-method lane: the table rebuilt on an adaptive cache miss
    /// (then cloned into the cache by admission).
    alias: AliasTable,
    /// Vose worklists for the alias lane.
    alias_build: AliasBuildScratch,
    /// Live rejection-acceptance feedback for the method chooser (one per
    /// worker, like the rest of the arena — health is a local property).
    rej_feedback: RejectionFeedback,
    /// Debug-only rebuild lane: cache hits re-derive the CTPS here and
    /// assert it matches the cached bounds bit for bit.
    #[cfg(debug_assertions)]
    dbg_ctps: crate::ctps::Ctps,
    /// Debug-only bias lane: group-shared expansions re-derive each
    /// entry's own EDGEBIAS lane here and assert the shared build (keyed
    /// by vertex alone) really is prev/instance-independent.
    #[cfg(debug_assertions)]
    dbg_biases: Vec<f64>,
}

impl StepScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<StepScratch> = RefCell::new(StepScratch::new());
}

/// Runs `f` with this thread's shared [`StepScratch`] — the
/// one-arena-per-worker pattern for runtimes that launch kernel closures
/// on a thread pool and cannot thread `&mut` scratch through a `Fn`
/// bound. Not reentrant: `f` must not call `with_thread_scratch` again
/// (the inner borrow would panic), which the kernel never does.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut StepScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The shared expand kernel: the Fig. 2b step pipeline bound to one
/// algorithm, SELECT configuration, and RNG seed.
pub struct StepKernel<'a> {
    algo: &'a dyn Algorithm,
    cfg: AlgoConfig,
    select: SelectConfig,
    use_simt_select: bool,
    seed: u64,
    cache: Option<&'a CtpsCache>,
    force_rebuild: bool,
    method_policy: MethodPolicy,
}

impl<'a> StepKernel<'a> {
    /// A kernel for `algo` with the paper's best SELECT configuration.
    pub fn new(algo: &'a dyn Algorithm, seed: u64) -> Self {
        StepKernel {
            algo,
            cfg: algo.config(),
            select: SelectConfig::paper_best(),
            use_simt_select: false,
            seed,
            cache: None,
            force_rebuild: false,
            method_policy: MethodPolicy::ForceIts,
        }
    }

    /// Sets the sampling-method policy. The default,
    /// [`MethodPolicy::ForceIts`], keeps the kernel bit-identical to the
    /// pinned goldens; [`MethodPolicy::Adaptive`] lets
    /// [`crate::method::choose_method`] pick alias/rejection per
    /// expansion (distribution-equal, not bit-equal — the methods consume
    /// different Philox draws).
    pub fn with_method_policy(mut self, policy: MethodPolicy) -> Self {
        self.method_policy = policy;
        self
    }

    /// Overrides the SELECT configuration.
    pub fn with_select(mut self, select: SelectConfig) -> Self {
        self.select = select;
        self
    }

    /// Routes without-replacement SELECT through the lane-level SIMT
    /// executor (distribution-identical; additionally tracks divergence).
    pub fn with_simt_select(mut self, use_simt: bool) -> Self {
        self.use_simt_select = use_simt;
        self
    }

    /// Shares a hot-vertex CTPS cache across the expansions this kernel
    /// runs. Consulted only when the algorithm's edge bias is static and
    /// non-uniform and the SELECT configuration reuses a built CTPS
    /// unmodified (see [`crate::ctps_cache`]); sampled output is
    /// bit-identical with or without it.
    pub fn with_ctps_cache(mut self, cache: Option<&'a CtpsCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Forces every expansion down the materialized rebuild path — no
    /// closed-form uniform selection, no CTPS cache. The bench baseline;
    /// output is bit-identical either way.
    pub fn with_force_rebuild(mut self, force: bool) -> Self {
        self.force_rebuild = force;
        self
    }

    /// True when the SELECT configuration consumes a built CTPS without
    /// mutating it mid-select — the precondition for both the closed-form
    /// uniform path and the CTPS cache. Updated sampling rebuilds the
    /// CTPS per round; the SIMT executor owns its own build.
    fn select_reuses_ctps(&self) -> bool {
        if self.cfg.without_replacement {
            !self.use_simt_select && self.select.strategy != SelectStrategy::Updated
        } else {
            true
        }
    }

    /// The cache, if this kernel's algorithm/SELECT combination may use it.
    fn effective_cache(&self) -> Option<&'a CtpsCache> {
        if self.force_rebuild
            || self.algo.edge_bias_is_uniform()
            || !self.algo.edge_bias_is_static()
            || !self.select_reuses_ctps()
        {
            return None;
        }
        self.cache
    }

    /// True when uniform-bias selection is served closed-form (no bias
    /// lane, no materialized CTPS) — charge-identical and bit-identical
    /// to the materialized path.
    fn uniform_closed_form(&self) -> bool {
        self.algo.edge_bias_is_uniform() && !self.force_rebuild && self.select_reuses_ctps()
    }

    /// The algorithm's structural configuration.
    pub fn cfg(&self) -> &AlgoConfig {
        &self.cfg
    }

    /// The bound algorithm.
    pub fn algo(&self) -> &dyn Algorithm {
        self.algo
    }

    /// The SELECT configuration in effect.
    pub fn select(&self) -> SelectConfig {
        self.select
    }

    /// Expands one frontier entry with its own neighbor pool — the
    /// [`crate::api::FrontierMode::IndependentPerVertex`] step (neighbor
    /// sampling, forest fire, snowball, and all walk variants).
    ///
    /// `home` is the instance's home seed, handed to the `UPDATE` and
    /// dead-end hooks (restart targets).
    pub fn expand<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let rng = Philox::for_task(
            self.seed,
            task_key(entry.instance, entry.depth, entry.vertex, entry.trial),
        );
        self.expand_rng(access, entry, home, rng, sink, scratch, stats)
    }

    /// [`Self::expand`] with the entry's RNG stream supplied by the
    /// caller — the depth-synchronous driver batch-generates every
    /// frontier entry's first Philox block up front (the cuRAND-style
    /// 4-counters-per-call kernel) and hands each stream in via
    /// [`Philox::with_first_block`]. The stream must be positioned at
    /// draw 0 of `task_key(entry.instance, entry.depth, entry.vertex,
    /// entry.trial)` or output determinism is lost.
    #[allow(clippy::too_many_arguments)]
    pub fn expand_rng<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        mut rng: Philox,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let v = entry.vertex;

        // The method chooser covers independent per-vertex, with-
        // replacement, non-uniform expansions — the regime where ITS,
        // alias, and rejection actually compete. Everything else (uniform
        // closed-form, without-replacement collision loops, pool-level
        // steps) keeps its existing ITS-shaped path per the decision
        // table in [`crate::method`].
        if self.method_policy == MethodPolicy::Adaptive
            && !self.force_rebuild
            && !self.cfg.without_replacement
            && !self.algo.edge_bias_is_uniform()
        {
            self.expand_adaptive(access, entry, home, &mut rng, sink, scratch, stats);
            return;
        }

        let cache = self.effective_cache();
        // The 1-hop mutation tag only keys the cache — computing it costs
        // O(overlay ∩ adjacency), so the uncached path must not pay it.
        let epoch = if cache.is_some() { access.entry_epoch(v) } else { 0 };
        if let Some(cache) = cache {
            match cache.lookup_into(v, epoch, &mut scratch.select.ctps) {
                CacheOutcome::Hit { selectable, degree } => {
                    stats.ctps_cache_hits += 1;
                    self.expand_cached(
                        access,
                        entry,
                        home,
                        selectable as usize,
                        degree as usize,
                        &mut rng,
                        sink,
                        scratch,
                        stats,
                    );
                    return;
                }
                CacheOutcome::Miss => stats.ctps_cache_misses += 1,
            }
        }

        let gat = access.gather(v, stats);
        let g = gat.graph;

        if gat.neighbors.is_empty() {
            match self.algo.on_dead_end(g, v, home, &mut rng) {
                UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                UpdateAction::Discard => {}
            }
            return;
        }

        let k = self.cfg.neighbor_size.realize(gat.neighbors.len(), &mut rng);
        if k == 0 {
            return;
        }
        let StepScratch { biases, select, .. } = scratch;
        if self.uniform_closed_form() {
            if self.method_policy == MethodPolicy::Adaptive {
                stats.method_uniform += 1;
            }
            // The bias lane would be all-ones: charge its (skipped) fill
            // and serve SELECT closed-form — bit-identical picks and
            // charges, no lane write, no materialized CTPS.
            let n = gat.neighbors.len();
            #[cfg(debug_assertions)]
            for i in 0..n {
                debug_assert_eq!(
                    self.algo.edge_bias(g, &gat.edge(i, v, entry.prev)),
                    1.0,
                    "edge_bias_is_uniform() contradicted by edge_bias()"
                );
            }
            stats.warp_cycles += n.div_ceil(32) as u64;
            if self.cfg.without_replacement {
                select_without_replacement_uniform_into(n, k, self.select, select, &mut rng, stats);
            } else {
                select.out.clear();
                for _ in 0..k {
                    if let Some(i) = select_one_uniform(n, &mut rng, stats) {
                        select.out.push(i);
                    }
                }
            }
        } else {
            if self.method_policy == MethodPolicy::Adaptive {
                stats.method_its += 1;
            }
            self.fill_biases(&gat, v, entry.prev, biases, stats);
            self.select_picks_into(biases, k, &mut rng, select, stats);
            if let Some(cache) = cache {
                // The select left its pristine CTPS build in the arena
                // (Updated sampling, which masks it in place, never takes
                // the cache path): offer it for admission.
                let selectable = biases.iter().filter(|&&b| b > 0.0).count();
                if selectable > 0 && ctps_cache::widths_agree(&select.ctps, biases) {
                    cache.promote(v, epoch, &select.ctps, selectable as u32, biases.len() as u32);
                }
            }
        }
        self.emit_picks(&gat, entry, home, &select.out, 0, &mut rng, sink, stats);
    }

    /// The CTPS/alias cache this kernel's expansions may consult for
    /// per-vertex state, if any — the depth-synchronous driver prefetches
    /// the owning shard alongside the CSR row. A hint only: over-approxi-
    /// mating (static-bias kernels whose SELECT ends up not consulting the
    /// cache) costs one harmless prefetch, never correctness.
    pub fn prefetch_cache(&self) -> Option<&'a CtpsCache> {
        if self.algo.edge_bias_is_static() {
            self.cache
        } else {
            None
        }
    }

    /// True when co-located frontier entries (same current vertex, same
    /// depth) may legally share one bias fill + CTPS build: the bias is
    /// static (keyed by vertex alone — the CTPS cache's legality
    /// argument), non-uniform (uniform selection is closed-form, there is
    /// no build to share), and SELECT consumes the built CTPS unmodified.
    /// A kernel with a CTPS cache attached already shares builds through
    /// the cache, and an Adaptive with-replacement kernel branches to the
    /// method chooser before the ITS lane — both opt out here. Entries of
    /// a non-shareable kernel still benefit from grouped execution
    /// (sorted-vertex locality, prefetch, batched Philox) via per-entry
    /// [`Self::expand_rng`].
    pub fn group_shareable(&self) -> bool {
        !self.force_rebuild
            && self.algo.edge_bias_is_static()
            && !self.algo.edge_bias_is_uniform()
            && self.select_reuses_ctps()
            && self.effective_cache().is_none()
            && (self.method_policy != MethodPolicy::Adaptive || self.cfg.without_replacement)
    }

    /// Builds the shared per-vertex state one vertex-group of co-located
    /// walkers will reuse: the EDGEBIAS lane in `scratch.biases` and the
    /// CTPS in `scratch.select.ctps`, via an **uncharged** fetch. The
    /// work each walker would have charged for the fill and the rebuild
    /// is captured in the returned deltas; [`Self::expand_in_group`]
    /// replays them per entry so `SimStats` stay charge-identical to
    /// instance-major execution while the actual compute runs once.
    ///
    /// Returns `None` when the group cannot share — empty adjacency
    /// (dead-end hook needs the entry's own RNG) or a degenerate all-zero
    /// bias lane — in which case nothing was charged and the caller falls
    /// back to per-entry [`Self::expand_rng`].
    pub fn prepare_group<N: NeighborAccess>(
        &self,
        access: &mut N,
        v: VertexId,
        prev: Option<VertexId>,
        scratch: &mut StepScratch,
    ) -> Option<SharedBuild> {
        debug_assert!(self.group_shareable(), "prepare_group on a non-shareable kernel");
        let gat = access.fetch(v);
        if gat.neighbors.is_empty() {
            return None;
        }
        let StepScratch { biases, select, .. } = scratch;
        let mut fill_delta = SimStats::new();
        self.fill_biases(&gat, v, prev, biases, &mut fill_delta);
        let mut rebuild_delta = SimStats::new();
        if !select.ctps.rebuild(biases, &mut rebuild_delta) {
            return None;
        }
        let selectable = biases.iter().filter(|&&b| b > 0.0).count();
        Some(SharedBuild { fill_delta, rebuild_delta, selectable })
    }

    /// Expands one entry of a vertex-group against the shared build left
    /// in `scratch` by [`Self::prepare_group`] — same picks, same emitted
    /// edges, same frontier offers, and same stats charges as
    /// [`Self::expand`], with the bias fill and CTPS build(s) replayed
    /// from `build`'s deltas instead of recomputed. The caller supplies
    /// the entry's RNG stream (batched first blocks); `scratch.biases`
    /// and `scratch.select.ctps` must be untouched since `prepare_group`.
    #[allow(clippy::too_many_arguments)]
    pub fn expand_in_group<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        build: &SharedBuild,
        mut rng: Philox,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let v = entry.vertex;
        let gat = access.gather(v, stats);
        debug_assert!(!gat.neighbors.is_empty(), "prepare_group admitted a dead end");
        let k = self.cfg.neighbor_size.realize(gat.neighbors.len(), &mut rng);
        if k == 0 {
            return;
        }
        if self.method_policy == MethodPolicy::Adaptive {
            stats.method_its += 1;
        }
        stats.merge(&build.fill_delta);
        #[cfg(debug_assertions)]
        {
            scratch.dbg_biases.clear();
            scratch.dbg_biases.extend(
                (0..gat.neighbors.len())
                    .map(|i| self.algo.edge_bias(gat.graph, &gat.edge(i, v, entry.prev))),
            );
            assert_eq!(
                scratch.dbg_biases, scratch.biases,
                "edge_bias_is_static() contradicted: v{v}'s bias lane depends on the walker"
            );
        }
        let select = &mut scratch.select;
        if self.cfg.without_replacement {
            // Instance-major charges one rebuild per entry inside
            // `select_without_replacement_into`; replay it.
            stats.merge(&build.rebuild_delta);
            select_without_replacement_preloaded_into(
                build.selectable,
                k,
                self.select,
                select,
                &mut rng,
                stats,
            );
        } else {
            // ...and one rebuild per *pick* via `select_one_with`.
            select.out.clear();
            for _ in 0..k {
                stats.merge(&build.rebuild_delta);
                if let Some(i) = select_one_preloaded(&select.ctps, &mut rng, stats) {
                    select.out.push(i);
                }
            }
        }
        self.emit_picks(&gat, entry, home, &select.out, 0, &mut rng, sink, stats);
    }

    /// The cache-hit expand: the CTPS is already in the select arena
    /// (copied by the cache lookup); selection binary-searches it
    /// directly. Consumes exactly the RNG draws of the rebuild path —
    /// the cache changes the charged cost (a cached-table read instead of
    /// gather + bias fill + scan), never the sampled output, which debug
    /// builds assert bound for bound against a fresh rebuild.
    #[allow(clippy::too_many_arguments)]
    fn expand_cached<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        selectable: usize,
        degree: usize,
        rng: &mut Philox,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let v = entry.vertex;
        if self.method_policy == MethodPolicy::Adaptive {
            // Only without-replacement static-bias kernels reach here
            // under Adaptive (with-replacement ones branch to
            // `expand_adaptive`) — and those stay on ITS per the table.
            stats.method_its += 1;
        }
        // Cached-table read: the row header plus the bound words a binary
        // search touches (≤ 8 modeled probes, as in the eager A7 cache).
        stats.read_gmem(16 + 8 * degree.min(8));
        let gat = access.fetch(v);
        debug_assert_eq!(gat.neighbors.len(), degree, "cached degree diverged from adjacency");
        // Empty CTPSs are never admitted, so degree > 0: no dead-end here.
        let k = self.cfg.neighbor_size.realize(degree, rng);
        if k == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        {
            let mut check = SimStats::new();
            scratch.biases.clear();
            scratch.biases.extend(
                (0..degree).map(|i| self.algo.edge_bias(gat.graph, &gat.edge(i, v, entry.prev))),
            );
            scratch.dbg_ctps.rebuild(&scratch.biases, &mut check);
            assert_eq!(
                scratch.dbg_ctps, scratch.select.ctps,
                "cached CTPS of v{v} diverged from a fresh rebuild"
            );
            assert_eq!(scratch.biases.iter().filter(|&&b| b > 0.0).count(), selectable);
        }
        let select = &mut scratch.select;
        if self.cfg.without_replacement {
            select_without_replacement_preloaded_into(
                selectable,
                k,
                self.select,
                select,
                rng,
                stats,
            );
        } else {
            select.out.clear();
            for _ in 0..k {
                if let Some(i) = select_one_preloaded(&select.ctps, rng, stats) {
                    select.out.push(i);
                }
            }
        }
        let pick_bytes = 4 + if gat.graph.is_weighted() { 4 } else { 0 };
        self.emit_picks(&gat, entry, home, &select.out, pick_bytes, rng, sink, stats);
    }

    /// The adaptive per-vertex expand: [`crate::method::choose_method`]
    /// picks the sampling method per expansion.
    ///
    /// - **Static bias, cache attached** — alias fast path. A hit samples
    ///   O(1) rows straight off the cached table *under the shard lock*
    ///   (no O(d) copy-out); a miss builds the table once in the scratch
    ///   lane, samples it, and offers it for admission.
    /// - **Dynamic bias with an a-priori bound** — rejection: each throw
    ///   evaluates only the *proposed* candidate's bias, where ITS must
    ///   evaluate all `d` of them (the node2vec win). A trial cap with an
    ///   exact-ITS fallback guarantees termination; mixing exact methods
    ///   preserves the target distribution.
    /// - Everything else — the existing ITS lane.
    ///
    /// Every method draws from the same per-task Philox stream but
    /// consumes different draw counts, so Adaptive output is
    /// distribution-equal (chi-square validated) to `ForceIts`, never
    /// bit-equal.
    #[allow(clippy::too_many_arguments)]
    fn expand_adaptive<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        rng: &mut Philox,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let v = entry.vertex;
        let static_bias = self.algo.edge_bias_is_static();
        let cache = if static_bias { self.cache } else { None };
        // As in `expand`: the 1-hop tag is cache-keying cost only.
        let epoch = if cache.is_some() { access.entry_epoch(v) } else { 0 };

        if let Some(cache) = cache {
            let select = &mut scratch.select;
            let served = cache.with_alias_entry(v, epoch, |table, _selectable| {
                let degree = table.len();
                let k = self.cfg.neighbor_size.realize(degree, rng);
                select.out.clear();
                // Cached-row read: the header once, one alias row per draw.
                stats.read_gmem(16);
                for _ in 0..k {
                    stats.read_gmem(12);
                    select.out.push(table.sample(rng, stats));
                }
                stats.selections += select.out.len() as u64;
                degree
            });
            if let Some(degree) = served {
                stats.ctps_cache_hits += 1;
                stats.method_alias += 1;
                let gat = access.fetch(v);
                debug_assert_eq!(
                    gat.neighbors.len(),
                    degree,
                    "cached degree diverged from adjacency"
                );
                let pick_bytes = 4 + if gat.graph.is_weighted() { 4 } else { 0 };
                self.emit_picks(
                    &gat,
                    entry,
                    home,
                    &scratch.select.out,
                    pick_bytes,
                    rng,
                    sink,
                    stats,
                );
                return;
            }
            stats.ctps_cache_misses += 1;
        }

        let gat = access.gather(v, stats);
        let g = gat.graph;
        if gat.neighbors.is_empty() {
            match self.algo.on_dead_end(g, v, home, rng) {
                UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                UpdateAction::Discard => {}
            }
            return;
        }
        let n = gat.neighbors.len();
        let k = self.cfg.neighbor_size.realize(n, rng);
        if k == 0 {
            return;
        }

        let StepScratch { biases, select, alias, alias_build, rej_feedback, .. } = scratch;
        let bound = if static_bias {
            None
        } else {
            self.algo.edge_bias_bound(g, v, entry.prev).filter(|b| b.is_finite() && *b > 0.0)
        };
        let ctx = MethodContext {
            uniform: false,
            static_bias,
            without_replacement: false,
            degree: n,
            cache_available: cache.is_some(),
            bound_available: bound.is_some(),
            rejection_allowed: !static_bias && rej_feedback.allow(),
            skew: None,
        };
        match choose_method(&ctx) {
            SelectMethod::CachedAlias => {
                // Cache miss: build the table once, sample O(1) per pick,
                // then offer it for admission so the next expansion of v
                // hits without the O(d) build.
                self.fill_biases(&gat, v, entry.prev, biases, stats);
                if alias.rebuild(biases, alias_build, stats) {
                    stats.method_alias += 1;
                    select.out.clear();
                    for _ in 0..k {
                        select.out.push(alias.sample(rng, stats));
                    }
                    stats.selections += select.out.len() as u64;
                    let selectable = biases.iter().filter(|&&b| b > 0.0).count();
                    cache.expect("CachedAlias implies cache_available").promote_alias(
                        v,
                        epoch,
                        alias,
                        selectable as u32,
                    );
                } else {
                    // Degenerate lane (all-zero biases): the exact ITS
                    // lane is the arbiter — it yields no picks either.
                    stats.method_its += 1;
                    self.select_picks_into(biases, k, rng, select, stats);
                }
            }
            SelectMethod::Rejection => {
                stats.method_rejection += 1;
                let bound = bound.expect("Rejection implies bound_available");
                select.out.clear();
                let mut deferred = 0usize;
                for _ in 0..k {
                    let before = stats.rejection_trials;
                    let pick = select_one_rejection(
                        n,
                        bound,
                        REJECTION_MAX_TRIALS,
                        |col| self.algo.edge_bias(g, &gat.edge(col, v, entry.prev)),
                        rng,
                        stats,
                    );
                    rej_feedback.record(stats.rejection_trials - before);
                    match pick {
                        Some(col) => select.out.push(col),
                        None => deferred += 1,
                    }
                }
                if deferred > 0 {
                    // Cap exhausted (skew the bound could not see): serve
                    // the remaining picks from the exact ITS lane.
                    self.fill_biases(&gat, v, entry.prev, biases, stats);
                    for _ in 0..deferred {
                        if let Some(i) = select_one_with(biases, &mut select.ctps, rng, stats) {
                            select.out.push(i);
                        }
                    }
                }
            }
            SelectMethod::Its | SelectMethod::ClosedFormUniform => {
                stats.method_its += 1;
                self.fill_biases(&gat, v, entry.prev, biases, stats);
                self.select_picks_into(biases, k, rng, select, stats);
            }
        }
        self.emit_picks(&gat, entry, home, &select.out, 0, rng, sink, stats);
    }

    /// The accept → emit → UPDATE → offer tail of a per-vertex step,
    /// shared by the rebuild and cache-hit paths. A nonzero `pick_bytes`
    /// charges a global-memory read per pick — the cache-hit path reads
    /// only the picked neighbors, where the rebuild path already paid for
    /// the full adjacency gather.
    #[allow(clippy::too_many_arguments)]
    fn emit_picks<S: FrontierSink>(
        &self,
        gat: &Gathered<'_>,
        entry: &StepEntry,
        home: VertexId,
        picks: &[usize],
        pick_bytes: usize,
        rng: &mut Philox,
        sink: &mut S,
        stats: &mut SimStats,
    ) {
        let v = entry.vertex;
        let g = gat.graph;
        for &idx in picks {
            if pick_bytes > 0 {
                stats.read_gmem(pick_bytes);
            }
            let mut cand = gat.edge(idx, v, entry.prev);
            if let Some(w) = self.algo.accept(g, &cand, rng) {
                if w == v {
                    // Rejected move (metropolis-hastings stays): the step
                    // is consumed; the walker remains at v with its
                    // predecessor unchanged.
                    self.offer(entry, v, entry.prev, sink, stats);
                    continue;
                }
                cand.u = w;
            }
            sink.emit(entry, (cand.v, cand.u));
            match self.algo.update(g, &cand, home, rng) {
                UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                UpdateAction::Discard => {}
            }
        }
    }

    /// Expands a whole frontier against one shared neighbor pool — the
    /// [`crate::api::FrontierMode::SharedLayer`] step (layer sampling,
    /// §II-A): `NeighborSize` vertices are selected from the union pool.
    #[allow(clippy::too_many_arguments)] // mirrors the device kernel's launch signature
    pub fn expand_layer<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        instance: u32,
        depth: u32,
        frontier: &[PoolSlot],
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let entry = StepEntry { instance, depth, vertex: POOL_STEP_VERTEX, prev: None, trial: 0 };
        let mut rng = Philox::for_task(self.seed, task_key(instance, depth, POOL_STEP_VERTEX, 0));
        let StepScratch { cands, biases, select, .. } = scratch;
        cands.clear();
        for slot in frontier {
            let gat = access.gather(slot.vertex, stats);
            for i in 0..gat.neighbors.len() {
                cands.push(gat.edge(i, slot.vertex, slot.prev));
            }
        }
        if cands.is_empty() {
            return;
        }
        let k = self.cfg.neighbor_size.realize(cands.len(), &mut rng);
        let g = access.graph();
        self.fill_biases_cands(g, cands, biases, stats);
        self.select_picks_into(biases, k, &mut rng, select, stats);
        for &idx in select.out.iter() {
            let cand = cands[idx];
            sink.emit(&entry, (cand.v, cand.u));
            match self.algo.update(g, &cand, cand.v, &mut rng) {
                UpdateAction::Add(w) => self.offer(&entry, w, Some(cand.v), sink, stats),
                UpdateAction::Discard => {}
            }
        }
    }

    /// One biased-replace step — the
    /// [`crate::api::FrontierMode::BiasedReplace`] step (multi-dimensional
    /// random walk, Fig. 4): `VERTEXBIAS` selects one pool vertex, one of
    /// its neighbors is sampled, and the neighbor replaces the pool slot.
    /// The pool is mutated in place; `sink` only receives `emit`s (use
    /// [`EmitSink`]).
    ///
    /// `pool_biases` is the caller-owned `VERTEXBIAS` lane, maintained
    /// **incrementally**: the first step (or any step where its length
    /// disagrees with the pool) scans the whole pool, after which each
    /// UPDATE touches only the one replaced slot — amortizing what §V's
    /// Fig. 9b workload otherwise pays as a full `O(pool)` rescan per
    /// sampled edge. Keep one lane per pool, clear it whenever the pool
    /// is re-seeded. Sampled output is identical to rescanning.
    #[allow(clippy::too_many_arguments)] // mirrors the device kernel's launch signature
    pub fn expand_replace<N: NeighborAccess, S: FrontierSink>(
        &self,
        access: &mut N,
        instance: u32,
        depth: u32,
        home: VertexId,
        pool: &mut Vec<PoolSlot>,
        pool_biases: &mut Vec<f64>,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut SimStats,
    ) {
        let entry = StepEntry { instance, depth, vertex: POOL_STEP_VERTEX, prev: None, trial: 0 };
        let mut rng = Philox::for_task(self.seed, task_key(instance, depth, POOL_STEP_VERTEX, 0));
        let StepScratch { biases, select, .. } = scratch;

        // Frontier selection by VERTEXBIAS (Fig. 2b line 4). Cold lane:
        // full scan. Warm lane: already maintained by the previous step's
        // UPDATE, nothing to read.
        if pool_biases.len() != pool.len() {
            pool_biases.clear();
            let g = access.graph();
            pool_biases.extend(pool.iter().map(|s| self.algo.vertex_bias(g, s.vertex)));
            stats.read_gmem(4 * pool.len()); // degree reads for the biases
        } else {
            debug_assert!(
                {
                    let g = access.graph();
                    pool.iter()
                        .zip(pool_biases.iter())
                        .all(|(s, &b)| b == self.algo.vertex_bias(g, s.vertex))
                },
                "incrementally maintained VERTEXBIAS lane diverged from the pool"
            );
        }
        let Some(j) = select_one_with(pool_biases, &mut select.ctps, &mut rng, stats) else {
            pool.clear();
            pool_biases.clear();
            return;
        };
        let slot = pool[j];
        let v = slot.vertex;
        let gat = access.gather(v, stats);
        let g = gat.graph;

        if gat.neighbors.is_empty() {
            match self.algo.on_dead_end(g, v, home, &mut rng) {
                UpdateAction::Add(w) => {
                    pool[j] = PoolSlot { vertex: w, prev: Some(v) };
                    pool_biases[j] = self.algo.vertex_bias(g, w);
                    stats.read_gmem(4); // the one replaced slot's degree
                }
                UpdateAction::Discard => {
                    pool.swap_remove(j);
                    pool_biases.swap_remove(j);
                }
            }
            return;
        }

        let idx = if self.uniform_closed_form() {
            // Uniform EDGEBIAS (the MDRW case): closed-form neighbor
            // selection, charge-identical to the materialized lane.
            let n = gat.neighbors.len();
            #[cfg(debug_assertions)]
            for i in 0..n {
                debug_assert_eq!(
                    self.algo.edge_bias(g, &gat.edge(i, v, slot.prev)),
                    1.0,
                    "edge_bias_is_uniform() contradicted by edge_bias()"
                );
            }
            stats.warp_cycles += n.div_ceil(32) as u64;
            select_one_uniform(n, &mut rng, stats)
        } else {
            self.fill_biases(&gat, v, slot.prev, biases, stats);
            select_one_with(biases, &mut select.ctps, &mut rng, stats)
        };
        let Some(idx) = idx else {
            pool.swap_remove(j);
            pool_biases.swap_remove(j);
            return;
        };
        let cand = gat.edge(idx, v, slot.prev);
        sink.emit(&entry, (cand.v, cand.u));
        match self.algo.update(g, &cand, home, &mut rng) {
            UpdateAction::Add(w) => {
                pool[j] = PoolSlot { vertex: w, prev: Some(v) };
                pool_biases[j] = self.algo.vertex_bias(g, w);
                stats.read_gmem(4); // the one replaced slot's degree
            }
            UpdateAction::Discard => {
                pool.swap_remove(j);
                pool_biases.swap_remove(j);
            }
        }
        stats.frontier_ops += 1;
    }

    /// EDGEBIAS over a gathered adjacency, filling the caller's bias
    /// lane and charging one warp-cycle per 32 lanes of evaluation. When
    /// the algorithm declares its edge bias uniform
    /// ([`Algorithm::edge_bias_is_uniform`]) the lane is filled with 1.0
    /// directly — no per-neighbor hook calls, no `EdgeCand`
    /// materialization (debug builds still verify the claim).
    fn fill_biases(
        &self,
        gat: &Gathered<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        biases: &mut Vec<f64>,
        stats: &mut SimStats,
    ) {
        biases.clear();
        if self.algo.edge_bias_is_uniform() {
            biases.resize(gat.neighbors.len(), 1.0);
            #[cfg(debug_assertions)]
            for i in 0..gat.neighbors.len() {
                debug_assert_eq!(
                    self.algo.edge_bias(gat.graph, &gat.edge(i, v, prev)),
                    1.0,
                    "edge_bias_is_uniform() contradicted by edge_bias()"
                );
            }
        } else {
            biases.extend(
                (0..gat.neighbors.len())
                    .map(|i| self.algo.edge_bias(gat.graph, &gat.edge(i, v, prev))),
            );
        }
        stats.warp_cycles += biases.len().div_ceil(32) as u64;
    }

    /// [`Self::fill_biases`] over an already-materialized candidate pool
    /// (the shared-layer union pool).
    fn fill_biases_cands(
        &self,
        g: GraphView<'_>,
        cands: &[EdgeCand],
        biases: &mut Vec<f64>,
        stats: &mut SimStats,
    ) {
        biases.clear();
        if self.algo.edge_bias_is_uniform() {
            biases.resize(cands.len(), 1.0);
            debug_assert!(
                cands.iter().all(|c| self.algo.edge_bias(g, c) == 1.0),
                "edge_bias_is_uniform() contradicted by edge_bias()"
            );
        } else {
            biases.extend(cands.iter().map(|c| self.algo.edge_bias(g, c)));
        }
        stats.warp_cycles += biases.len().div_ceil(32) as u64;
    }

    /// SELECT: without-replacement (per the run's strategy/SIMT options)
    /// or `k` independent with-replacement draws. The picks land in
    /// `select.out`.
    fn select_picks_into(
        &self,
        biases: &[f64],
        k: usize,
        rng: &mut Philox,
        select: &mut SelectScratch,
        stats: &mut SimStats,
    ) {
        if self.cfg.without_replacement {
            if self.use_simt_select && self.select.strategy != SelectStrategy::Updated {
                select_without_replacement_simt_into(biases, k, self.select, select, rng, stats);
            } else {
                select_without_replacement_into(biases, k, self.select, select, rng, stats);
            }
        } else {
            select.out.clear();
            for _ in 0..k {
                if let Some(i) = select_one_with(biases, &mut select.ctps, rng, stats) {
                    select.out.push(i);
                }
            }
        }
    }

    /// UPDATE's frontier push, gated by the depth budget: entries that
    /// could never be expanded (their depth would reach the configured
    /// limit) are dropped here, identically in every runtime.
    fn offer<S: FrontierSink>(
        &self,
        entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        sink: &mut S,
        stats: &mut SimStats,
    ) {
        if entry.depth as usize + 1 >= self.cfg.depth {
            return; // depth budget exhausted (§V-B correctness guard)
        }
        sink.push(entry, vertex, prev, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FrontierMode, NeighborSize};
    use csaw_graph::generators::toy_graph;

    struct Ns2;
    impl Algorithm for Ns2 {
        fn name(&self) -> &'static str {
            "ns2"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 2,
                neighbor_size: NeighborSize::Constant(2),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }

    fn expand_once(seed: u64, entry: &StepEntry) -> (Vec<(u32, u32)>, Vec<PoolSlot>) {
        let g = toy_graph();
        let algo = Ns2;
        let kernel = StepKernel::new(&algo, seed);
        let cfg = algo.config();
        let mut access = CsrAccess::new(&g);
        let mut visited = HashSet::new();
        let mut next = Vec::new();
        let mut out = Vec::new();
        let mut stats = SimStats::new();
        let mut sink = PoolSink {
            cfg: &cfg,
            detector: SelectConfig::paper_best().detector,
            visited: &mut visited,
            next: &mut next,
            out: &mut out,
        };
        let mut scratch = StepScratch::new();
        kernel.expand(&mut access, entry, entry.vertex, &mut sink, &mut scratch, &mut stats);
        (out, next)
    }

    #[test]
    fn expansion_is_a_pure_function_of_its_key() {
        let entry = StepEntry { instance: 7, depth: 0, vertex: 8, prev: None, trial: 0 };
        let (a_out, a_next) = expand_once(42, &entry);
        let (b_out, b_next) = expand_once(42, &entry);
        assert_eq!(a_out, b_out);
        assert_eq!(a_next, b_next);
        assert!(!a_out.is_empty());
        for &(v, u) in &a_out {
            assert!(toy_graph().has_edge(v, u));
        }
    }

    #[test]
    fn distinct_key_components_change_the_draws() {
        let base = StepEntry { instance: 0, depth: 0, vertex: 8, prev: None, trial: 0 };
        let (base_out, _) = expand_once(1, &base);
        let variants = [
            StepEntry { instance: 1, ..base },
            StepEntry { depth: 1, ..base },
            StepEntry { trial: 1, ..base },
        ];
        // At least one variant must differ — with 2-of-5 selection the
        // odds of all three colliding by chance are negligible, and a key
        // that ignored a component would collide on *every* seed.
        let mut any_differ = false;
        for v in variants {
            let (out, _) = expand_once(1, &v);
            any_differ |= out != base_out;
        }
        assert!(any_differ, "key components must reach the RNG stream");
    }

    #[test]
    fn depth_budget_blocks_final_depth_pushes() {
        // depth 1 of a depth-2 algorithm: edges still emit, pushes don't.
        let entry = StepEntry { instance: 0, depth: 1, vertex: 8, prev: None, trial: 0 };
        let (out, next) = expand_once(3, &entry);
        assert!(!out.is_empty());
        assert!(next.is_empty(), "final-depth entries must not reach the sink");
    }

    #[test]
    fn trial_counter_numbers_duplicates_per_instance() {
        let mut t = TrialCounter::new();
        assert_eq!(t.next(0, 5), 0);
        assert_eq!(t.next(0, 5), 1);
        assert_eq!(t.next(1, 5), 0, "instances are independent");
        assert_eq!(t.next(0, 6), 0, "vertices are independent");
        t.reset();
        assert_eq!(t.next(0, 5), 0, "reset forgets prior steps");
    }

    #[test]
    fn cache_tag_packs_outer_epoch_high_and_truncates_inner_low() {
        assert_eq!(cache_tag(0, 0), 0);
        assert_eq!(cache_tag(5, 3), (5 << 32) | 3);
        assert_eq!(cache_tag(1, 0), 1 << 32);
        // The inner epoch is truncated to 32 bits, never spilling into
        // the outer half.
        assert_eq!(cache_tag(2, (7 << 32) | 9), (2 << 32) | 9);
        assert_ne!(cache_tag(1, 0), cache_tag(0, 1));
    }

    #[test]
    fn gather_bytes_counts_weights() {
        assert_eq!(gather_bytes(false, 10), 16 + 40);
        assert_eq!(gather_bytes(true, 10), 16 + 80);
    }
}
