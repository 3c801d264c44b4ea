//! The residency hierarchy: CTPS/alias cache → decoded-RAM pool →
//! mmap/disk.
//!
//! The out-of-memory scheduler already moves partitions between two
//! levels (host CSR ↔ device memory) with workload-aware eviction; this
//! module promotes that idea into a generic third level below the host:
//! a [`ResidencyHierarchy`] holds a **byte-budgeted pool of decoded
//! partitions** over an mmap-backed [`DiskStore`], evicting with a clock
//! (second-chance) sweep — the same policy family the
//! [`crate::ctps_cache::CtpsCache`] uses for per-vertex tables one tier
//! up. From top to bottom:
//!
//! ```text
//! tier 1  CTPS / alias cache      per-vertex sampling tables (device)
//! tier 2  decoded-RAM pool        whole partitions, clock-evicted (host)
//! tier 3  mmap'd segment files    delta/varint CSR, decoded on demand
//! ```
//!
//! **Epoch composition.** Evicting a decoded partition bumps that
//! partition's residency epoch. Every cache tag is one
//! [`crate::step::cache_tag`]`(high, low)`: [`DiskAccess::entry_epoch`]
//! puts the partition epoch in the high half (the low, mutation-version
//! half stays zero — the store serves immutable epochs), so the existing
//! CTPS/alias invalidation machinery retires tier-1 entries whose tier-2
//! backing was recycled, unchanged. Under the out-of-memory scheduler,
//! [`crate::step::PartitionAccess`] over a `DiskAccess` puts the
//! stream's device residency epoch in the high half and the partition
//! epoch in the low half, so a cached entry dies when either its device
//! partition was swapped or its host decoded copy was evicted.
//! Re-decoded content is bit-identical, so epoch churn only affects the
//! cost model, never the sample.
//!
//! **Admission filter.** On a power-law graph, a vertex's visit
//! frequency and its partition's decode cost both scale with degree, so
//! unconditionally decoding the whole partition on every miss makes
//! cold vertices pay for bytes they never read (and at heavy
//! over-subscription that dominates the run). A miss on a non-resident
//! partition is therefore first served by decoding *just the touched
//! vertex's run* ([`DiskStore::decode_vertex`], O(degree)) into a small
//! scratch ring; only once [`ADMIT_TOUCHES`] misses have proven the
//! partition hot is the full decode performed and admitted to the
//! pool. Eviction re-arms the filter, which also throttles thrash when
//! the hot set exceeds the budget.
//!
//! **Soundness of the pool.** `neighbors()` is called through a shared
//! borrow (the [`GraphView`] hooks), yet a miss must decode and a full
//! pool must evict. The pool therefore lives in an `UnsafeCell` (the
//! hierarchy is deliberately `!Sync`; each worker thread owns one) and
//! follows two rules: decoded partitions and scratch runs are reached
//! only through raw pointers (`Box::into_raw`), so taking `&mut Pool`
//! never asserts unique access over their heap data; and eviction (or
//! ring displacement) during the shared phase only *moves* the raw
//! pointer into a graveyard — actual deallocation happens in
//! [`DiskAccess::gather`]'s `&mut self` prologue, when no slices can be
//! outstanding. Transient overshoot is bounded by one step's working
//! set.
//!
//! **Determinism.** The pool never changes what bytes a vertex resolves
//! to — decode is bit-exact — so sampling output is identical at every
//! budget, including the fully-resident and the thrashing extremes. The
//! tier counters (hits/misses/evictions) do depend on how instances were
//! interleaved over worker threads, exactly like the shared CTPS cache's
//! counters; the conservation identities checked by
//! [`DiskPoolSnapshot::is_conserved`] hold regardless.

use crate::step::{cache_tag, gather_bytes, Gathered, NeighborAccess};
use csaw_gpu::stats::SimStats;
use csaw_graph::store::{DecodedPartition, DiskStore};
use csaw_graph::{GraphView, PagedAdjacency, VertexId, Weight};
use std::cell::UnsafeCell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

pub use csaw_gpu::counters::DECODE_BUCKETS_US;

/// Misses a non-resident partition must accumulate before its full
/// decode is admitted to the pool; colder misses are served by the
/// O(degree) single-vertex path. Higher values throttle admission (and
/// thus eviction churn) under over-subscription at the price of more
/// single-vertex decodes for warming partitions.
pub const ADMIT_TOUCHES: u8 = 8;

/// Entries in the single-vertex scratch ring (bounded RAM outside the
/// pool budget: at most this many recently decoded runs).
const SCRATCH_RING: usize = 8;

macro_rules! disk_tier_stats {
    (sim $_s:tt launch $_l:tt batch $_b:tt service $_v:tt cache $_c:tt
     disk { $($disk:tt)* } serve $_e:tt identities $_i:tt) => {
        csaw_gpu::counter_gen!(source (
            /// Shared (cross-worker) disk-tier observability: lock-free totals
            /// the service publishes as gauges (the `disk` group of the counter
            /// table). Worker pools add their deltas here; the deterministic
            /// per-run counters travel through [`SimStats`] instead.
            #[derive(Debug, Default)]
            pub struct DiskTierStats {}
        ) { $($disk)* });
    };
}
csaw_gpu::counter_table!(disk_tier_stats);

impl DiskTierStats {
    /// Records one timed decode.
    fn record_decode(&self, micros: u64, bytes: u64, pages: u64) {
        self.misses.fetch_add(1, Relaxed);
        self.decode_bytes.fetch_add(bytes, Relaxed);
        self.mmap_faults.fetch_add(pages, Relaxed);
        let bucket =
            DECODE_BUCKETS_US.iter().position(|&b| micros <= b).unwrap_or(DECODE_BUCKETS_US.len());
        self.decode_hist[bucket].fetch_add(1, Relaxed);
        self.decode_sum_us.fetch_add(micros, Relaxed);
        self.decode_count.fetch_add(1, Relaxed);
    }

    /// Adjusts the resident-bytes gauge by a signed delta (two's
    /// complement wrap keeps concurrent adjustments sum-correct).
    fn adjust_pool_bytes(&self, delta: i64) {
        self.pool_bytes.fetch_add(delta as u64, Relaxed);
    }
}

/// Everything a runtime needs to route adjacency through the disk tier.
#[derive(Clone)]
pub struct DiskRunConfig {
    /// The opened store (read-only mappings; shared across workers).
    pub store: Arc<DiskStore>,
    /// RAM budget in bytes for each worker's decoded-partition pool.
    /// The pool always holds at least the most recently touched
    /// partition, even when it alone exceeds the budget.
    pub pool_budget: usize,
    /// Optional shared observability sink (service/serve gauges).
    pub shared: Option<Arc<DiskTierStats>>,
}

impl std::fmt::Debug for DiskRunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskRunConfig")
            .field("store", &self.store.dir())
            .field("pool_budget", &self.pool_budget)
            .field("shared", &self.shared.is_some())
            .finish()
    }
}

/// One slot of the decoded-partition pool. `part` is null when the
/// partition is not resident; otherwise it owns (via `Box::into_raw`) a
/// heap `DecodedPartition` whose address is stable until reclaim.
struct PoolSlot {
    part: *mut DecodedPartition,
    referenced: bool,
    bytes: usize,
}

/// One vertex's decoded neighbor run, held by the scratch ring for
/// misses the admission filter keeps out of the pool.
struct VertexRun {
    neighbors: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

/// Counters accumulated between flushes into a [`SimStats`].
#[derive(Debug, Default, Clone, Copy)]
struct PendingStats {
    lookups: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    decode_bytes: u64,
    mmap_faults: u64,
}

/// Lifetime totals of one pool, for tests and local inspection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskPoolSnapshot {
    /// Pool lookups.
    pub lookups: u64,
    /// Lookups served resident.
    pub hits: u64,
    /// Lookups that decoded.
    pub misses: u64,
    /// Clock evictions.
    pub evictions: u64,
    /// Bytes currently resident (live slots, excluding graveyard).
    pub bytes: u64,
    /// Bytes awaiting reclaim in the graveyard.
    pub graveyard_bytes: u64,
    /// Configured budget.
    pub budget: u64,
}

impl DiskPoolSnapshot {
    /// The pool's conservation identities: every lookup is a hit or a
    /// miss, nothing is evicted that was never decoded, and live bytes
    /// only exceed the budget by the single-partition admission
    /// guarantee.
    pub fn is_conserved(&self) -> bool {
        self.lookups == self.hits + self.misses
            && self.evictions <= self.misses
            && (self.bytes <= self.budget || self.hits + self.misses <= self.misses.max(1))
    }
}

/// The pool behind the `UnsafeCell`: slot table, clock hand, residency
/// epochs, graveyard, counters.
struct Pool {
    budget: usize,
    bytes: usize,
    slots: Vec<PoolSlot>,
    hand: usize,
    /// Per-partition residency epoch, bumped on eviction; composed into
    /// `entry_epoch` tags.
    epochs: Vec<u64>,
    /// Misses per partition since its last admission (the admission
    /// filter's evidence of heat); reset when the full decode lands.
    touches: Vec<u8>,
    /// Admission filter bypass: true when the budget fits the *whole*
    /// decoded graph, in which case nothing can ever be evicted and
    /// making partitions prove themselves hot only defers the inevitable
    /// decode behind `ADMIT_TOUCHES` single-vertex scratch decodes each.
    /// Without this, a full-budget pool paradoxically ran *slower* than a
    /// half-budget one (`BENCH_disk.json` showed budget_frac=1.0 with
    /// 1314 mmap faults and zero evictions): every partition paid the
    /// filter tax despite eviction being impossible.
    admit_all: bool,
    /// Scratch ring of single-vertex runs (FIFO, at most
    /// `SCRATCH_RING`); displaced entries go to `run_graveyard`.
    runs: Vec<(VertexId, *mut VertexRun)>,
    graveyard: Vec<*mut DecodedPartition>,
    run_graveyard: Vec<*mut VertexRun>,
    graveyard_bytes: usize,
    pend: PendingStats,
    totals: PendingStats,
}

impl Pool {
    /// Clock (second-chance) sweep: evict unreferenced resident
    /// partitions until `need` more bytes fit, scanning at most two
    /// revolutions. Evicted pointers go to the graveyard — their heap
    /// data must outlive any slice handed out this shared phase.
    fn evict_until(&mut self, need: usize, shared: Option<&DiskTierStats>) {
        let k = self.slots.len();
        let mut scanned = 0usize;
        while self.bytes + need > self.budget && scanned < 2 * k {
            let p = self.hand;
            self.hand = (self.hand + 1) % k;
            scanned += 1;
            let slot = &mut self.slots[p];
            if slot.part.is_null() {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let b = slot.bytes;
            self.graveyard.push(std::mem::replace(&mut slot.part, std::ptr::null_mut()));
            self.graveyard_bytes += b;
            slot.bytes = 0;
            self.bytes -= b;
            self.epochs[p] += 1;
            self.pend.evictions += 1;
            self.totals.evictions += 1;
            if let Some(sh) = shared {
                sh.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Drops every graveyard entry. Only sound when no decoded-partition
    /// (or scratch-run) borrows are outstanding — called from `&mut
    /// self` entry points.
    fn reclaim(&mut self, shared: Option<&DiskTierStats>) {
        for ptr in self.run_graveyard.drain(..) {
            // SAFETY: ptr came from Box::into_raw when the run entered
            // the ring and was removed from it on displacement; dropped
            // exactly once, no borrows survive the &mut receiver.
            drop(unsafe { Box::from_raw(ptr) });
        }
        if self.graveyard.is_empty() {
            return;
        }
        for ptr in self.graveyard.drain(..) {
            // SAFETY: ptr came from Box::into_raw in admit() and was
            // removed from its slot when moved to the graveyard; it is
            // dropped exactly once, and the &mut receiver guarantees no
            // borrows into its data survive.
            drop(unsafe { Box::from_raw(ptr) });
        }
        if let Some(sh) = shared {
            sh.adjust_pool_bytes(-(self.graveyard_bytes as i64));
        }
        self.graveyard_bytes = 0;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if !slot.part.is_null() {
                // SAFETY: slot pointers come from Box::into_raw and are
                // nulled when moved out; each is dropped exactly once.
                drop(unsafe { Box::from_raw(slot.part) });
            }
        }
        for ptr in self.graveyard.drain(..) {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(ptr) });
        }
        for (_, ptr) in self.runs.drain(..) {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(ptr) });
        }
        for ptr in self.run_graveyard.drain(..) {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// Tier 2 + 3 of the hierarchy: a byte-budgeted pool of decoded
/// partitions over an mmap-backed store. `!Sync` by construction — each
/// worker thread owns its own hierarchy over a shared `Arc<DiskStore>`,
/// mirroring per-SM working sets over shared device memory.
pub struct ResidencyHierarchy {
    store: Arc<DiskStore>,
    shared: Option<Arc<DiskTierStats>>,
    pool: UnsafeCell<Pool>,
}

impl std::fmt::Debug for ResidencyHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ResidencyHierarchy")
            .field("store", &self.store.dir())
            .field("pool", &snap)
            .finish()
    }
}

impl ResidencyHierarchy {
    /// A hierarchy over `store` with a `pool_budget`-byte decoded pool.
    pub fn new(
        store: Arc<DiskStore>,
        pool_budget: usize,
        shared: Option<Arc<DiskTierStats>>,
    ) -> Self {
        let k = store.num_partitions();
        let pool = Pool {
            budget: pool_budget,
            bytes: 0,
            slots: (0..k)
                .map(|_| PoolSlot { part: std::ptr::null_mut(), referenced: false, bytes: 0 })
                .collect(),
            hand: 0,
            epochs: vec![0; k],
            touches: vec![0; k],
            admit_all: pool_budget >= store.total_decoded_bytes(),
            runs: Vec::with_capacity(SCRATCH_RING),
            graveyard: Vec::new(),
            run_graveyard: Vec::new(),
            graveyard_bytes: 0,
            pend: PendingStats::default(),
            totals: PendingStats::default(),
        };
        ResidencyHierarchy { store, shared, pool: UnsafeCell::new(pool) }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<DiskStore> {
        &self.store
    }

    /// Lifetime totals of this pool.
    pub fn snapshot(&self) -> DiskPoolSnapshot {
        // SAFETY: read-only access through the same single-threaded
        // discipline as lookup(); no overlapping &mut exists during a
        // call on this thread.
        let pool = unsafe { &*self.pool.get() };
        DiskPoolSnapshot {
            lookups: pool.totals.lookups,
            hits: pool.totals.hits,
            misses: pool.totals.misses,
            evictions: pool.totals.evictions,
            bytes: pool.bytes as u64,
            graveyard_bytes: pool.graveyard_bytes as u64,
            budget: pool.budget as u64,
        }
    }

    /// Residency epoch of the partition owning `v` (bumped when its
    /// decoded copy is evicted).
    pub fn partition_epoch(&self, v: VertexId) -> u64 {
        let p = self.store.partition_of(v);
        // SAFETY: as in snapshot().
        unsafe { (&(*self.pool.get()).epochs)[p] }
    }

    /// Points the hierarchy at a different observability sink, moving
    /// the resident-bytes gauge with it. The pool's contents (and the
    /// deterministic `SimStats` counters) carry over untouched — a warm
    /// thread-local pool reused under a new config keeps its decodes but
    /// reports to the config's current sink.
    pub fn rebind_shared(&mut self, shared: Option<Arc<DiskTierStats>>) {
        let same = match (&self.shared, &shared) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if same {
            return;
        }
        let pool = self.pool.get_mut();
        let resident = (pool.bytes + pool.graveyard_bytes) as i64;
        if let Some(old) = &self.shared {
            old.adjust_pool_bytes(-resident);
        }
        if let Some(new) = &shared {
            new.adjust_pool_bytes(resident);
        }
        self.shared = shared;
    }

    /// Reclaims deferred evictions. Sound because `&mut self` proves no
    /// decoded-partition borrows are outstanding.
    pub fn maintain(&mut self) {
        let shared = self.shared.clone();
        self.pool.get_mut().reclaim(shared.as_deref());
    }

    /// Drains the pending tier counters into `stats`.
    pub fn flush_stats(&mut self, stats: &mut SimStats) {
        let pool = self.pool.get_mut();
        let p = std::mem::take(&mut pool.pend);
        stats.disk_pool_lookups += p.lookups;
        stats.disk_pool_hits += p.hits;
        stats.disk_pool_misses += p.misses;
        stats.disk_pool_evictions += p.evictions;
        stats.disk_decode_bytes += p.decode_bytes;
        stats.disk_mmap_faults += p.mmap_faults;
    }

    /// Resolves `v`'s neighbor run, decoding on a miss and evicting to
    /// fit. A miss takes the cheap path first: the admission filter
    /// decodes only `v`'s run into the scratch ring until the partition
    /// has proven hot ([`ADMIT_TOUCHES`] misses), then decodes and
    /// admits the whole partition. Returns slices whose heap data stays
    /// valid for the whole `&self` phase (deferred reclaim).
    fn resolve_run(&self, v: VertexId) -> (&[VertexId], Option<&[Weight]>) {
        let p = self.store.partition_of(v);
        // SAFETY: the hierarchy is !Sync, so calls are serialized on one
        // thread; this &mut Pool window is confined to resolve_run() and
        // never overlaps another (store decodes do not reenter).
        // Returned references point into heap data reached via raw
        // pointers, never through this &mut, and are only freed in
        // maintain()/drop under &mut self.
        let pool = unsafe { &mut *self.pool.get() };
        pool.pend.lookups += 1;
        pool.totals.lookups += 1;
        if let Some(sh) = &self.shared {
            sh.lookups.fetch_add(1, Relaxed);
        }
        if !pool.slots[p].part.is_null() {
            pool.pend.hits += 1;
            pool.totals.hits += 1;
            pool.slots[p].referenced = true;
            if let Some(sh) = &self.shared {
                sh.hits.fetch_add(1, Relaxed);
            }
            // SAFETY: resident slot; heap data with a stable address,
            // freed only under &mut self.
            let part = unsafe { &*pool.slots[p].part };
            return (part.neighbors(v), part.neighbor_weights(v));
        }
        if let Some(&(_, ptr)) = pool.runs.iter().find(|(rv, _)| *rv == v) {
            pool.pend.hits += 1;
            pool.totals.hits += 1;
            if let Some(sh) = &self.shared {
                sh.hits.fetch_add(1, Relaxed);
            }
            // SAFETY: live ring entry (displacement only moves pointers
            // to the graveyard); freed only under &mut self.
            let run = unsafe { &*ptr };
            return (run.neighbors.as_slice(), run.weights.as_deref());
        }
        pool.pend.misses += 1;
        pool.totals.misses += 1;
        pool.touches[p] = pool.touches[p].saturating_add(1);
        if pool.admit_all || pool.touches[p] >= ADMIT_TOUCHES {
            // The partition proved hot (or the budget fits the whole
            // graph, making the filter pure overhead): decode it whole
            // and admit.
            pool.touches[p] = 0;
            let t0 = Instant::now();
            let dec = self.store.decode_partition(p).unwrap_or_else(|e| {
                panic!("disk store {} failed mid-run: {e}", self.store.dir().display())
            });
            let micros = t0.elapsed().as_micros() as u64;
            let bytes = dec.size_bytes();
            let pages = self.store.segment_pages(p);
            pool.pend.decode_bytes += bytes as u64;
            pool.pend.mmap_faults += pages;
            pool.totals.decode_bytes += bytes as u64;
            pool.totals.mmap_faults += pages;
            if let Some(sh) = &self.shared {
                sh.record_decode(micros, bytes as u64, pages);
                sh.adjust_pool_bytes(bytes as i64);
            }
            pool.evict_until(bytes, self.shared.as_deref());
            pool.bytes += bytes;
            pool.slots[p] =
                PoolSlot { part: Box::into_raw(Box::new(dec)), referenced: true, bytes };
            // SAFETY: the slot was just populated; as above.
            let part = unsafe { &*pool.slots[p].part };
            return (part.neighbors(v), part.neighbor_weights(v));
        }
        // Cold miss: decode just this vertex's run into the scratch ring.
        let t0 = Instant::now();
        let mut col = Vec::new();
        let mut ws = if self.store.is_weighted() { Some(Vec::new()) } else { None };
        let pages = self.store.decode_vertex(v, &mut col, ws.as_mut()).unwrap_or_else(|e| {
            panic!("disk store {} failed mid-run: {e}", self.store.dir().display())
        });
        let micros = t0.elapsed().as_micros() as u64;
        let bytes = col.len() * std::mem::size_of::<VertexId>()
            + ws.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>());
        pool.pend.decode_bytes += bytes as u64;
        pool.pend.mmap_faults += pages;
        pool.totals.decode_bytes += bytes as u64;
        pool.totals.mmap_faults += pages;
        if let Some(sh) = &self.shared {
            sh.record_decode(micros, bytes as u64, pages);
        }
        if pool.runs.len() == SCRATCH_RING {
            let (_, old) = pool.runs.remove(0);
            pool.run_graveyard.push(old);
        }
        let run = Box::into_raw(Box::new(VertexRun { neighbors: col, weights: ws }));
        pool.runs.push((v, run));
        // SAFETY: just boxed; stable heap address, freed only under
        // &mut self (ring drop or graveyard reclaim).
        let run = unsafe { &*run };
        (run.neighbors.as_slice(), run.weights.as_deref())
    }
}

impl PagedAdjacency for ResidencyHierarchy {
    fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    fn is_weighted(&self) -> bool {
        self.store.is_weighted()
    }

    fn degree(&self, v: VertexId) -> usize {
        // Served from the segment's resident fixed-width degree array —
        // hooks probe arbitrary vertices without forcing decodes.
        self.store.degree(v)
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.resolve_run(v).0
    }

    fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.resolve_run(v).1
    }
}

/// [`NeighborAccess`] over the disk tier: drop-in for [`StepKernel`]
/// (the PR-3 trait seam), serving `fetch()` through memory-mapped
/// segments with on-demand decode into the byte-budgeted pool. Charges
/// the same [`gather_bytes`] as [`crate::step::CsrAccess`], so a
/// disk-backed run counts identical simulated-GPU traffic — the disk
/// tier's own work lands in the `disk_*` counters instead.
///
/// [`StepKernel`]: crate::step::StepKernel
pub struct DiskAccess {
    hier: ResidencyHierarchy,
}

impl std::fmt::Debug for DiskAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DiskAccess").field(&self.hier).finish()
    }
}

impl DiskAccess {
    /// An access over `cfg`'s store with a fresh pool.
    pub fn new(cfg: &DiskRunConfig) -> Self {
        DiskAccess {
            hier: ResidencyHierarchy::new(
                Arc::clone(&cfg.store),
                cfg.pool_budget,
                cfg.shared.clone(),
            ),
        }
    }

    /// See [`ResidencyHierarchy::rebind_shared`].
    pub fn rebind_shared(&mut self, shared: Option<Arc<DiskTierStats>>) {
        self.hier.rebind_shared(shared);
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &ResidencyHierarchy {
        &self.hier
    }

    /// Reclaims deferred evictions (safe: exclusive receiver).
    pub fn maintain(&mut self) {
        self.hier.maintain();
    }

    /// Drains pending tier counters into `stats` (the engine calls this
    /// after each instance so per-instance stats carry the disk work the
    /// instance actually caused on its worker thread).
    pub fn flush_stats(&mut self, stats: &mut SimStats) {
        self.hier.flush_stats(stats);
    }

    /// Lifetime pool totals.
    pub fn snapshot(&self) -> DiskPoolSnapshot {
        self.hier.snapshot()
    }
}

impl NeighborAccess for DiskAccess {
    fn graph(&self) -> GraphView<'_> {
        GraphView::paged(&self.hier)
    }

    fn gather(&mut self, v: VertexId, stats: &mut SimStats) -> Gathered<'_> {
        // Exclusive prologue: no slices are outstanding, so deferred
        // evictions can be freed before this step's working set forms.
        self.hier.maintain();
        stats.read_gmem(gather_bytes(self.hier.is_weighted(), self.hier.store().degree(v)));
        self.fetch(v)
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        let hier = &self.hier;
        let (neighbors, weights) = hier.resolve_run(v);
        Gathered { graph: GraphView::paged(hier), neighbors, weights }
    }

    fn entry_epoch(&self, v: VertexId) -> u64 {
        // The pool's partition epoch is this access's residency epoch;
        // the mutation-version half stays zero — the disk tier serves
        // immutable epochs.
        cache_tag(self.hier.partition_epoch(v), 0)
    }
}

thread_local! {
    /// One warm disk pool per worker thread, keyed by (store identity,
    /// budget). Engine launches run many instances per thread; reusing
    /// the pool across them is what amortizes decodes (a per-instance
    /// pool would re-decode every partition a short walk touches).
    static THREAD_DISK: std::cell::RefCell<Option<(usize, usize, DiskAccess)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's warm [`DiskAccess`] for `cfg`, creating
/// or replacing it when the store or budget changed. The pool persists
/// across calls (and across engine launches) on the same thread.
pub fn with_thread_disk_access<R>(cfg: &DiskRunConfig, f: impl FnOnce(&mut DiskAccess) -> R) -> R {
    THREAD_DISK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let key = (Arc::as_ptr(&cfg.store) as usize, cfg.pool_budget);
        let rebuild = match slot.as_ref() {
            Some((ptr, budget, _)) => (*ptr, *budget) != key,
            None => true,
        };
        if rebuild {
            *slot = Some((key.0, key.1, DiskAccess::new(cfg)));
        }
        let (_, _, access) = slot.as_mut().expect("just installed");
        // A reused pool keeps its decoded partitions but must report to
        // the *current* config's sink (a fresh service over the same
        // store would otherwise see stale-bound counters go elsewhere).
        access.rebind_shared(cfg.shared.clone());
        f(access)
    })
}

/// [`with_thread_disk_access`] when `cfg` is set; otherwise runs `f`
/// with no disk tier.
pub fn with_optional_thread_disk_access<R>(
    cfg: Option<&DiskRunConfig>,
    f: impl FnOnce(Option<&mut DiskAccess>) -> R,
) -> R {
    match cfg {
        Some(cfg) => with_thread_disk_access(cfg, |access| f(Some(access))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::PartitionAccess;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};
    use csaw_graph::store::write_store;
    use std::path::PathBuf;

    fn open_store(name: &str, g: &csaw_graph::Csr, k: usize) -> (Arc<DiskStore>, PathBuf) {
        let base = std::env::var_os("CSAW_DISK_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!("csaw-residency-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_store(&dir, g, k, 0).expect("write store");
        (Arc::new(DiskStore::open(&dir).expect("open store")), dir)
    }

    fn cfg(store: &Arc<DiskStore>, budget: usize) -> DiskRunConfig {
        DiskRunConfig { store: Arc::clone(store), pool_budget: budget, shared: None }
    }

    #[test]
    fn serves_exact_adjacency_at_tiny_budget() {
        let g = rmat(8, 6, RmatParams::GRAPH500, 21).with_unit_weights();
        let (store, dir) = open_store("exact", &g, 8);
        // Budget fits roughly one partition: constant thrash, same bytes.
        let budget = store.decoded_bytes(0).max(1);
        let mut access = DiskAccess::new(&cfg(&store, budget));
        let mut stats = SimStats::new();
        // Enough sweeps for every partition to clear the admission
        // filter — admissions then force evictions at this budget.
        for _ in 0..(2 * ADMIT_TOUCHES as usize + 2) {
            for v in (0..g.num_vertices() as VertexId).step_by(17) {
                let gat = access.gather(v, &mut stats);
                assert_eq!(gat.neighbors, g.neighbors(v), "neighbors of {v}");
                assert_eq!(gat.weights, g.neighbor_weights(v));
                assert_eq!(gat.graph.degree(v), g.degree(v));
            }
        }
        access.flush_stats(&mut stats);
        let snap = access.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert!(snap.evictions > 0, "tiny budget must evict: {snap:?}");
        assert_eq!(stats.disk_pool_lookups, snap.lookups);
        assert_eq!(stats.disk_pool_hits + stats.disk_pool_misses, stats.disk_pool_lookups);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_budget_admits_on_first_touch() {
        // The BENCH_disk.json regression: at budget_frac=1.0 eviction is
        // impossible, so the admission filter's ADMIT_TOUCHES deferral is
        // pure overhead — 1314 faults and zero evictions made the full
        // budget *slower* than half. A full-budget pool must admit every
        // partition on its first miss.
        let g = rmat(8, 6, RmatParams::GRAPH500, 21).with_unit_weights();
        let k = 8;
        let (store, dir) = open_store("fullbudget", &g, k);
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes()));
        let mut stats = SimStats::new();
        for v in 0..g.num_vertices() as VertexId {
            let gat = access.gather(v, &mut stats);
            assert_eq!(gat.neighbors, g.neighbors(v));
        }
        access.flush_stats(&mut stats);
        let snap = access.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert_eq!(snap.evictions, 0, "nothing can evict at full budget");
        assert_eq!(
            snap.misses,
            store.num_partitions() as u64,
            "exactly one miss (the admitting decode) per partition: {snap:?}"
        );
        // Second sweep over the now-fully-resident pool: pure hits.
        let before = access.snapshot().lookups;
        for v in 0..g.num_vertices() as VertexId {
            let _ = access.gather(v, &mut stats);
        }
        let snap = access.snapshot();
        assert_eq!(snap.misses, store.num_partitions() as u64);
        assert_eq!(snap.hits - (before - snap.misses), g.num_vertices() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_pool_serves_hits_without_evictions() {
        let g = toy_graph();
        let (store, dir) = open_store("warm", &g, 3);
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes()));
        let mut stats = SimStats::new();
        // Warm-up: enough rounds for every partition to either clear the
        // admission filter or settle its vertices in the scratch ring.
        for round in 0..(2 * ADMIT_TOUCHES as usize + 2) {
            for v in 0..g.num_vertices() as VertexId {
                let gat = access.gather(v, &mut stats);
                assert_eq!(gat.neighbors, g.neighbors(v), "round {round}");
            }
        }
        let warmed = access.snapshot();
        // One more full round over the warm pool: pure hits, no decodes.
        for v in 0..g.num_vertices() as VertexId {
            let _ = access.gather(v, &mut stats);
        }
        let snap = access.snapshot();
        assert!(snap.is_conserved());
        assert_eq!(snap.misses, warmed.misses, "warm round must not decode");
        assert_eq!(snap.evictions, 0);
        assert_eq!(snap.lookups - warmed.lookups, g.num_vertices() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bumps_partition_epoch_tags() {
        let g = rmat(7, 6, RmatParams::MILD, 4);
        let (store, dir) = open_store("epochs", &g, 4);
        let budget = store.decoded_bytes(0).max(1); // ~one partition fits
        let mut access = DiskAccess::new(&cfg(&store, budget));
        let mut stats = SimStats::new();
        let probe: VertexId = 0;
        let before = access.entry_epoch(probe);
        let n = g.num_vertices() as VertexId;
        // Touch every partition repeatedly (enough sweeps to clear the
        // admission filter everywhere) so partition 0 gets evicted.
        for _ in 0..(2 * ADMIT_TOUCHES as usize + 2) {
            for v in (0..n).step_by(7) {
                let _ = access.gather(v, &mut stats);
            }
        }
        let _ = access.gather(n - 1, &mut stats);
        let after = access.entry_epoch(probe);
        assert!(access.snapshot().evictions > 0);
        assert!(after > before, "eviction must advance the entry tag: {before} -> {after}");
        assert_eq!(after & 0xffff_ffff, 0, "low half reserved for mutation versions");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_access_composes_device_and_disk_epochs() {
        let g = toy_graph();
        let (store, dir) = open_store("tiered", &g, 2);
        let parts = csaw_graph::PartitionSet::equal_ranges(&g, 2);
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes()));
        let mut stats = SimStats::new();
        let _ = access.gather(0, &mut stats);
        let disk_epoch = access.hierarchy().partition_epoch(0);
        let tiered = PartitionAccess::new(&g, &parts, None, Some(&mut access), 5);
        assert_eq!(tiered.entry_epoch(0), (5u64 << 32) | (disk_epoch & 0xffff_ffff));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_stats_track_pool_gauges() {
        let g = rmat(7, 4, RmatParams::MILD, 8);
        let (store, dir) = open_store("shared", &g, 4);
        let shared = Arc::new(DiskTierStats::default());
        let mut c = cfg(&store, store.decoded_bytes(0).max(1));
        c.shared = Some(Arc::clone(&shared));
        let mut access = DiskAccess::new(&c);
        let mut stats = SimStats::new();
        for v in (0..g.num_vertices() as VertexId).step_by(5) {
            let _ = access.gather(v, &mut stats);
        }
        access.maintain();
        let lookups = shared.lookups.load(Relaxed);
        let hits = shared.hits.load(Relaxed);
        let misses = shared.misses.load(Relaxed);
        assert_eq!(lookups, hits + misses);
        assert_eq!(shared.decode_count.load(Relaxed), misses);
        assert!(shared.decode_bytes.load(Relaxed) > 0);
        assert!(shared.mmap_faults.load(Relaxed) > 0);
        let resident = shared.pool_bytes.load(Relaxed);
        let snap = access.snapshot();
        assert_eq!(resident, snap.bytes + snap.graveyard_bytes, "gauge tracks held bytes");
        let hist: u64 = shared.decode_hist.iter().map(|b| b.load(Relaxed)).sum();
        assert_eq!(hist, misses, "every decode lands in one histogram bucket");
        drop(access);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_local_pool_is_reused_and_rekeyed() {
        let g = toy_graph();
        let (store, dir) = open_store("tls", &g, 2);
        let c = cfg(&store, store.total_decoded_bytes());
        let mut stats = SimStats::new();
        with_thread_disk_access(&c, |a| {
            let _ = a.gather(0, &mut stats);
        });
        let first = with_thread_disk_access(&c, |a| a.snapshot());
        assert_eq!(first.misses, 1, "same key reuses the warm pool");
        let c2 = cfg(&store, c.pool_budget / 2);
        let second = with_thread_disk_access(&c2, |a| a.snapshot());
        assert_eq!(second.lookups, 0, "budget change rebuilds the pool");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooks_read_degrees_without_decoding() {
        let g = rmat(7, 4, RmatParams::MILD, 2);
        let (store, dir) = open_store("degrees", &g, 4);
        let access = DiskAccess::new(&cfg(&store, 1));
        let view = access.graph();
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(view.degree(v), g.degree(v));
        }
        assert_eq!(access.snapshot().lookups, 0, "degree probes must not touch the pool");
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
