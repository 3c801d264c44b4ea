//! The counter table: every counter the system measures, declared once.
//!
//! [`counter_table!`](crate::counter_table) holds one row per counter:
//! its doc, its field, its type (`u64`, or `[u64; N]` histogram buckets)
//! and, when it is exported, its kind, Prometheus name and help:
//! `field: type => kind("name", "help"),`. A row `field <- source` is
//! copied from `source` of the struct that publishes it, and a histogram
//! row may end in `+ sum, count`, the rows holding its `_sum` and
//! `_count`. Rows sit in groups; each crate that stores counters expands
//! the groups it owns with [`counter_gen!`](crate::counter_gen):
//!
//! - `sim`, `launch`, `batch`: [`SimStats`](crate::SimStats); the service
//!   also adds up each launch's `launch` and `batch` rows, and
//!   `SimStats::without_batch` zeroes the `batch` ones.
//! - `service`, `cache`, `disk`: the service ledger (`ServiceStats`,
//!   `StatsSnapshot`); `cache` rows are published from the CTPS caches,
//!   `disk` rows from `DiskTierStats`, which they also declare.
//! - `serve`: the server's `ServeMetrics`.
//! - `identities`: the ledger's conservation identities.
//!
//! Adding a counter is one row plus the code that increments it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Upper bounds (inclusive) of the batch-size histogram buckets, in
/// sampling instances per coalesced launch. The last bucket is
/// open-ended.
pub const BATCH_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Upper bounds (inclusive, microseconds) of the decode-time histogram
/// buckets; the last bucket is open-ended.
pub const DECODE_BUCKETS_US: [u64; 7] = [50, 100, 250, 500, 1000, 5000, 25000];

/// Upper bounds (inclusive) of the log2 vertex-group-size histogram:
/// bucket `i` holds sizes in `[2^i, 2^(i+1))`; the last is open-ended.
pub const GROUP_SIZE_BUCKETS: [u64; 7] = [1, 3, 7, 15, 31, 63, 127];

/// The counter table; `counter_table!(callback)` expands to
/// `callback! { sim {..} launch {..} batch {..} service {..} cache {..}
/// disk {..} serve {..} identities {..} }`. See the module docs.
#[macro_export]
macro_rules! counter_table {
    ($cb:ident) => { $cb! {
    sim {
        /// Simulated warp compute cycles (lockstep steps weighted by cost).
        warp_cycles: u64,
        /// Kogge-Stone scan lockstep steps.
        scan_steps: u64,
        /// Binary-search probe steps over the CTPS.
        search_steps: u64,
        /// Trips of the SELECT do-while loop (Fig. 5 lines 10–14). The paper's
        /// Fig. 11 metric is `select_iterations / selections`.
        select_iterations: u64,
        /// Vertices successfully selected.
        selections: u64,
        /// Collision-detection probes: bitmap bit tests or linear-search
        /// comparisons, depending on the detector (Fig. 12's numerator and
        /// denominator).
        collision_searches: u64,
        /// Atomic operations issued (CAS/add on bitmap words).
        atomic_ops: u64,
        /// Atomic operations serialized behind another lane's access to the
        /// same word within one lockstep round.
        atomic_conflicts: u64,
        /// Random numbers drawn.
        rng_draws: u64,
        /// Bytes read from simulated global memory (neighbor lists, CTPS).
        gmem_bytes: u64,
        /// Coalesced 128-byte global memory transactions.
        gmem_transactions: u64,
        /// Frontier queue pushes/pops.
        frontier_ops: u64,
        /// Static-bias expansions served from a hot-vertex CTPS cache hit
        /// (the CTPS bounds were reused instead of rebuilt).
        ctps_cache_hits: u64,
        /// Static-bias expansions that missed the CTPS cache and rebuilt.
        ctps_cache_misses: u64,
        /// Decoded-RAM pool lookups by the disk tier (one per adjacency read
        /// through a `DiskAccess`; zero unless a run is disk-backed).
        disk_pool_lookups: u64,
        /// Disk-tier lookups served by an already-decoded resident partition.
        disk_pool_hits: u64,
        /// Disk-tier lookups that decoded a partition out of its mapped
        /// segment (`disk_pool_lookups == disk_pool_hits + disk_pool_misses`).
        disk_pool_misses: u64,
        /// Decoded partitions evicted from the pool by the clock sweep.
        disk_pool_evictions: u64,
        /// RAM bytes produced by disk-tier decodes (each miss decodes one
        /// whole partition).
        disk_decode_bytes: u64,
        /// Simulated 4 KiB page faults charged for streaming mapped segments
        /// during decodes.
        disk_mmap_faults: u64,
    }
    launch {
        /// Edges appended to the sample output.
        sampled_edges: u64 => counter("csaw_sampled_edges_total", "Edges sampled"),
        /// Expansions served by inverse transform sampling under the adaptive
        /// method chooser (counted only when the chooser ran: the `ForceIts`
        /// policy leaves all four `method_*` counters at zero).
        method_its: u64,
        /// Adaptive expansions served by a cached (or freshly built) alias
        /// table.
        method_alias: u64,
        /// Adaptive expansions served by bounded rejection (dartboard) trials.
        method_rejection: u64,
        /// Adaptive expansions served by the closed-form uniform path.
        method_uniform: u64,
        /// Total rejection throws across `method_rejection` expansions
        /// (accepted + rejected); trials / accepts is the live skew signal the
        /// chooser feeds back on.
        rejection_trials: u64
            => counter("csaw_rejection_trials_total", "Rejection-sampling trials"),
    }
    batch {
        /// Vertex-groups formed by the depth-synchronous frontier (one group
        /// per distinct current vertex per depth per chunk; zero under
        /// instance-major execution).
        batch_groups: u64 => counter("csaw_batch_groups_total",
            "Same-vertex frontier groups expanded by the depth-sync driver"),
        /// Frontier entries that passed through vertex-grouped expansion
        /// (`batch_group_entries / batch_groups` is the mean co-location
        /// factor — the number of walkers that shared one gather).
        batch_group_entries: u64 => counter("csaw_batch_group_entries_total",
            "Frontier entries expanded through grouped depth-sync steps"),
        /// Log2-bucketed histogram of vertex-group sizes: bucket `i` counts
        /// groups with `2^i <= size < 2^(i+1)`; the last bucket absorbs the
        /// tail (`size >= 128`).
        batch_group_hist: [u64; 8] => histogram(&GROUP_SIZE_BUCKETS, 1, "csaw_batch_group_size",
            "Walkers co-located per frontier group"),
        /// Vertex-groups whose CSR row was software-prefetched far enough
        /// ahead to be resident when the group expanded (coverage model: every
        /// group beyond the prefetch distance in its depth counts as a hit).
        batch_prefetch_hits: u64 => counter("csaw_batch_prefetch_hits_total",
            "Frontier groups whose rows were software-prefetched ahead of use"),
        /// Vertex-groups expanded before the prefetch pipeline warmed up (the
        /// first `prefetch_distance` groups of each depth).
        batch_prefetch_misses: u64 => counter("csaw_batch_prefetch_misses_total",
            "Frontier groups expanded without prefetch coverage"),
    }
    service {
        /// Requests ever handed to `submit`.
        submitted: u64 => counter("csaw_requests_submitted_total", "Sampling requests submitted"),
        /// Requests that passed validation and entered the queue.
        accepted: u64 => counter("csaw_requests_accepted_total", "Requests admitted to the queue"),
        /// Requests rejected as malformed.
        rejected_invalid: u64
            => counter("csaw_requests_rejected_invalid_total", "Requests rejected as malformed"),
        /// Requests shed because the queue was full.
        rejected_queue_full: u64 => counter("csaw_requests_rejected_queue_full_total",
            "Requests shed by the bounded queue"),
        /// Requests refused because the service was shutting down.
        rejected_shutdown: u64 => counter("csaw_requests_rejected_shutdown_total",
            "Requests rejected during shutdown"),
        /// Accepted requests whose deadline passed before delivery.
        expired: u64 => counter("csaw_requests_expired_total", "Requests past their deadline"),
        /// Accepted requests answered with a response.
        completed: u64 => counter("csaw_requests_completed_total", "Requests answered"),
        /// Accepted requests whose batch panicked.
        failed: u64 => counter("csaw_requests_failed_total", "Requests lost to a batch panic"),
        /// Coalesced launches executed.
        batches: u64 => counter("csaw_batches_total", "Coalesced launches"),
        /// Batch-size histogram: bucket `i` counts launches whose instance
        /// count is ≤ `BATCH_BUCKETS[i]` (last bucket: larger than all).
        batch_hist: [u64; $crate::counters::BATCH_BUCKETS.len() + 1] => histogram(
            &BATCH_BUCKETS, 1, "csaw_batch_requests", "Requests coalesced per launch"),
        /// Current queue depth (gauge, not monotonic).
        queue_depth: u64 => gauge("csaw_queue_depth", "Requests waiting in the service queue"),
        /// Host→device partition transfers across all launches (only the
        /// out-of-memory executor reports these).
        transfers: u64 => counter("csaw_transfers_total", "Host-to-device partition transfers"),
        /// Bytes shipped host→device across all launches.
        bytes_transferred: u64
            => counter("csaw_transfer_bytes_total", "Bytes shipped host-to-device"),
        /// Mutation requests ever handed to `mutate` (accepted or not).
        mutations_submitted: u64
            => counter("csaw_mutations_submitted_total", "Mutation requests submitted"),
        /// Successful `mutate` calls applied to the service's graph.
        mutations: u64 => counter("csaw_mutations_applied_total", "Mutation requests applied"),
        /// Mutation requests rejected with a typed `EditError` (the batch
        /// was rolled back; the graph is unchanged).
        mutations_rejected: u64
            => counter("csaw_mutations_rejected_total", "Mutation requests rejected"),
        /// `compact` calls ever made.
        compact_requests: u64 => counter("csaw_compact_requests_total", "Compact requests"),
        /// `compact` calls that folded a non-empty overlay.
        compactions: u64 => counter("csaw_compactions_total", "Compactions that folded deltas"),
        /// `compact` calls that found nothing to fold.
        compact_noops: u64
            => counter("csaw_compact_noops_total", "Compactions with nothing to fold"),
        /// Current epoch of the service's mutable graph (gauge).
        graph_epoch: u64 => gauge("csaw_graph_epoch", "Current graph epoch"),
        /// Vertices currently carrying an uncompacted delta (gauge).
        overlay_vertices: u64 => gauge("csaw_overlay_vertices", "Vertices with uncompacted deltas"),
    }
    cache {
        /// CTPS-cache lookups across the worker's per-algorithm caches.
        cache_lookups <- lookups: u64
            => counter("csaw_ctps_cache_lookups_total", "CTPS cache lookups"),
        /// CTPS-cache lookups served from a cached entry.
        cache_hits <- hits: u64 => counter("csaw_ctps_cache_hits_total", "CTPS cache hits"),
        /// CTPS-cache lookups that found nothing.
        cache_misses <- misses: u64 => counter("csaw_ctps_cache_misses_total", "CTPS cache misses"),
        /// CTPS tables promoted into the caches.
        cache_promotions <- promotions: u64
            => counter("csaw_ctps_cache_promotions_total", "CTPS cache promotions"),
        /// CTPS tables evicted from the caches.
        cache_evictions <- evictions: u64
            => counter("csaw_ctps_cache_evictions_total", "CTPS cache evictions"),
        /// Evictions by clock-sweep capacity pressure (subset of
        /// `cache_evictions`).
        cache_evictions_clock <- evictions_clock: u64
            => counter("csaw_ctps_cache_evictions_clock_total",
                "CTPS cache evictions by clock-sweep capacity pressure"),
        /// Entries dropped because their epoch tag went stale — residency
        /// swaps and graph mutations both land here (subset of
        /// `cache_evictions`). This is the "epoch-invalidated entries"
        /// count for mutable-graph serving.
        cache_evictions_stale <- evictions_stale: u64
            => counter("csaw_ctps_cache_evictions_stale_total",
                "CTPS cache entries dropped for a stale epoch tag"),
        /// Entries replaced by a same-vertex promotion under a newer tag
        /// (subset of `cache_evictions`).
        cache_evictions_replaced <- evictions_replaced: u64
            => counter("csaw_ctps_cache_evictions_replaced_total",
                "CTPS cache entries replaced under a newer epoch tag"),
        /// Bytes currently held by the caches (gauge).
        cache_bytes <- bytes: u64 => gauge("csaw_ctps_cache_bytes", "Bytes held by the CTPS cache"),
        /// Cache lookups served from a cached *alias table* (subset of
        /// `cache_hits`; nonzero only under the adaptive method policy).
        cache_alias_hits <- alias_hits: u64
            => counter("csaw_alias_cache_hits_total", "Cached alias-table hits"),
        /// Alias tables promoted into the caches (subset of
        /// `cache_promotions`).
        cache_alias_promotions <- alias_promotions: u64 => counter(
            "csaw_alias_cache_promotions_total", "Alias tables promoted into the CTPS cache"),
    }
    disk {
        /// Pool lookups across all workers.
        disk_lookups <- lookups: u64
            => counter("csaw_disk_lookups_total", "Disk-tier pool lookups"),
        /// Lookups served by a resident decoded partition.
        disk_hits <- hits: u64 => counter("csaw_disk_hits_total",
            "Disk-tier lookups served by a resident decoded partition"),
        /// Lookups that decoded a partition from its mapped segment.
        disk_misses <- misses: u64 => counter("csaw_disk_misses_total",
            "Disk-tier lookups that decoded a partition from its segment"),
        /// Partitions evicted by the clock sweep.
        disk_evictions <- evictions: u64 => counter("csaw_disk_evictions_total",
            "Decoded partitions evicted by the clock sweep"),
        /// Bytes currently held by decoded partitions across all pools
        /// (gauge; includes graveyard bytes awaiting reclaim).
        disk_pool_bytes <- pool_bytes: u64
            => gauge("csaw_disk_pool_bytes", "Bytes held by decoded partitions across all pools"),
        /// Simulated 4 KiB page faults charged for streaming mapped segments.
        disk_mmap_faults <- mmap_faults: u64 => counter("csaw_disk_mmap_faults_total",
            "Simulated 4KiB page faults streaming mapped segments"),
        /// RAM bytes produced by decodes.
        disk_decode_bytes <- decode_bytes: u64
            => counter("csaw_disk_decode_bytes_total", "RAM bytes produced by disk-tier decodes"),
        /// Decode wall-time histogram: bucket `i` counts decodes that took
        /// ≤ `DECODE_BUCKETS_US[i]` µs (last bucket: longer than all).
        disk_decode_hist <- decode_hist: [u64; $crate::counters::DECODE_BUCKETS_US.len() + 1]
            => histogram(&DECODE_BUCKETS_US, 1_000_000, "csaw_disk_decode_seconds",
                "Partition decode wall time") + disk_decode_sum_us, disk_decode_count,
        /// Sum of decode wall times, microseconds.
        disk_decode_sum_us <- decode_sum_us: u64,
        /// Number of decodes timed into the histogram.
        disk_decode_count <- decode_count: u64,
    }
    serve {
        /// Connections accepted since start.
        connections: u64 => counter("csaw_serve_connections_total", "Connections accepted"),
        /// Frames that failed to decode (per-connection codec errors).
        bad_frames: u64 => counter("csaw_serve_bad_frames_total", "Frames that failed to decode"),
        /// Connections that ended in an I/O error (a peer that vanished
        /// mid-frame, a reset, a failed write).
        connection_errors: u64
            => counter("csaw_serve_connection_errors_total", "Connections closed by an I/O error"),
        /// Events published to subscribers.
        events_published: u64
            => counter("csaw_serve_events_published_total", "Completion events published"),
        /// Events dropped because a subscriber's channel was gone.
        events_dropped: u64
            => counter("csaw_serve_events_dropped_total", "Events dropped (no live subscriber)"),
        /// Live subscriber connections.
        subscribers: u64 => gauge("csaw_serve_subscribers", "Live event subscribers"),
    }
    identities {
        submitted == accepted + rejected_invalid + rejected_queue_full + rejected_shutdown;
        accepted == completed + expired + failed;
        mutations_submitted == mutations + mutations_rejected;
        compact_requests == compactions + compact_noops;
        disk_lookups == disk_hits + disk_misses;
        disk_evictions <= disk_misses;
        batch_groups == batch_prefetch_hits + batch_prefetch_misses;
        batch_groups == batch_group_hist;
    }
    } };
}

/// Generates code from table rows: `counter_gen!(op (args) { rows })`.
///
/// - `plain (#[..] pub struct S { extra })`: `S` with one public field
///   per row; `atomic (..)` the same with [`Atomic`] fields; `source (..)`
///   atomic fields named after each row's source.
/// - `merge (S)`: `S::merge`, `Add` and `Sum`. `reset (s)`: statements
///   zeroing the rows of `s`.
/// - `snapshot (S)`: `fn snapshot(&self) -> S`, atomic to plain.
/// - `metrics ()`: `fn for_each_metric` over the exported rows.
/// - `add (from => to)`, `load (from => to)`, `sum (from => to)`: add a
///   plain struct into an atomic one; store an atomic source, or the sum
///   over a slice of plain sources.
/// - `identities (S) { a == b + c; .. }`: the array of [`Identity`]s.
#[doc(hidden)]
#[macro_export]
macro_rules! counter_gen {
    (identities ($s:ty) { $($total:ident $op:tt $first:ident $(+ $part:ident)* ;)* }) => {
        [$($crate::counters::Identity {
            text: stringify!($total $op $first $(+ $part)*),
            holds: |total, parts| total $op parts,
            terms: $crate::counter_gen!(@terms $s; $total $first $($part)*),
        }),*]
    };
    (@terms $s:ty; $($f:ident)*) => {
        &[$($crate::counters::Term {
            name: stringify!($f),
            get: |s: &$s| $crate::counters::Tally::total(&s.$f),
            bump: |s: &mut $s| $crate::counters::Tally::cells_mut(&mut s.$f)[0] += 1,
        }),*]
    };
    // Every other op: parse the rows once, then dispatch.
    ($op:ident $args:tt {
        $($(#[doc = $doc:literal])* $f:ident $(<- $src:ident)? : $ty:ty
            $(=> $kind:ident($($spec:tt)*) $(+ $sum:ident, $count:ident)?)? ,)*
    }) => {
        $crate::counter_gen!(@$op $args
            $({[$(#[doc = $doc])*] $f [$($src)?] [$ty] [$($kind($($spec)*) [$($sum $count)?])?]})*);
    };
    (@plain ($(#[$m:meta])* $vis:vis struct $name:ident { $($extra:tt)* })
        $({[$($doc:tt)*] $f:ident $src:tt [$ty:ty] $metric:tt})*) => {
        $(#[$m])* $vis struct $name { $($($doc)* pub $f: $ty,)* $($extra)* }
    };
    (@atomic ($(#[$m:meta])* $vis:vis struct $name:ident { $($extra:tt)* })
        $({[$($doc:tt)*] $f:ident $src:tt [$ty:ty] $metric:tt})*) => {
        $(#[$m])* $vis struct $name {
            $($($doc)* pub $f: $crate::counters::Atomic<$ty>,)* $($extra)*
        }
    };
    (@source ($(#[$m:meta])* $vis:vis struct $name:ident { $($extra:tt)* })
        $({[$($doc:tt)*] $f:ident [$src:ident] [$ty:ty] $metric:tt})*) => {
        $(#[$m])* $vis struct $name {
            $($($doc)* pub $src: $crate::counters::Atomic<$ty>,)* $($extra)*
        }
    };
    (@merge ($name:ident) $({$doc:tt $f:ident $src:tt $ty:tt $metric:tt})*) => {
        impl $name {
            /// Adds `other` into `self` field-wise.
            pub fn merge(&mut self, other: &$name) {
                $($crate::counters::Tally::merge(&mut self.$f, &other.$f);)*
            }
        }
        impl std::ops::Add for $name {
            type Output = $name;
            fn add(mut self, rhs: $name) -> $name {
                self.merge(&rhs);
                self
            }
        }
        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::default(), std::ops::Add::add)
            }
        }
    };
    (@reset ($s:ident) $({$doc:tt $f:ident $src:tt $ty:tt $metric:tt})*) => {
        $($s.$f = Default::default();)*
    };
    (@snapshot ($plain:ident) $({$doc:tt $f:ident $src:tt $ty:tt $metric:tt})*) => {
        /// A point-in-time copy of every counter.
        pub fn snapshot(&self) -> $plain {
            $plain { $($f: $crate::counters::Tally::load(&self.$f),)* }
        }
    };
    (@metrics () $({$doc:tt $f:ident $src:tt $ty:tt
        [$($kind:ident $spec:tt [$($sum:ident $count:ident)?])?]})*) => {
        /// Calls `f` with each exported row's metric, its cells (one, or a
        /// histogram's buckets) and, for a histogram that records them, its
        /// sum and count; in table order.
        pub fn for_each_metric(
            &self,
            mut f: impl FnMut(&$crate::counters::Metric, &[u64], Option<(u64, u64)>),
        ) {
            use $crate::counters::*;
            $($(f(&Metric::$kind $spec, Tally::cells(&self.$f),
                None $(.or(Some((self.$sum, self.$count))))?);)?)*
        }
    };
    (@add ($from:ident => $to:ident) $({$doc:tt $f:ident $src:tt $ty:tt $metric:tt})*) => {
        $($crate::counters::Tally::add_to(&$from.$f, &$to.$f);)*
    };
    (@load ($from:ident => $to:ident) $({$doc:tt $f:ident [$src:ident] [$ty:ty] $metric:tt})*) => {
        $($crate::counters::Tally::store(
            &<$ty as $crate::counters::Tally>::load(&$from.$src), &$to.$f);)*
    };
    (@sum ($from:ident => $to:ident) $({$doc:tt $f:ident [$src:ident] $ty:tt $metric:tt})*) => {
        $($crate::counters::Tally::store(&$from.iter().map(|c| c.$src).sum::<u64>(), &$to.$f);)*
    };
}

/// A counter's storage, seen as cells: one `u64`, or a histogram's
/// buckets. The live ledgers hold its [`Atomic`] twin, one `AtomicU64`
/// per cell.
pub trait Tally: Default {
    /// The lock-free twin.
    type Atomic;
    /// The cells.
    fn cells(&self) -> &[u64];
    /// The cells, mutably.
    fn cells_mut(&mut self) -> &mut [u64];
    /// The twin's cells.
    fn atomic_cells(atomic: &Self::Atomic) -> &[AtomicU64];

    /// Adds `other` in, cell by cell.
    fn merge(&mut self, other: &Self) {
        self.cells_mut().iter_mut().zip(other.cells()).for_each(|(a, b)| *a += b);
    }
    /// The sum over the cells.
    fn total(&self) -> u64 {
        self.cells().iter().sum()
    }
    /// Reads the twin.
    fn load(atomic: &Self::Atomic) -> Self {
        let mut value = Self::default();
        let cells = value.cells_mut().iter_mut().zip(Self::atomic_cells(atomic));
        cells.for_each(|(v, a)| *v = a.load(Relaxed));
        value
    }
    /// Overwrites the twin (gauge semantics).
    fn store(&self, atomic: &Self::Atomic) {
        self.cells().iter().zip(Self::atomic_cells(atomic)).for_each(|(v, a)| a.store(*v, Relaxed));
    }
    /// Adds into the twin.
    fn add_to(&self, atomic: &Self::Atomic) {
        let cells = self.cells().iter().zip(Self::atomic_cells(atomic));
        cells.for_each(|(v, a)| _ = a.fetch_add(*v, Relaxed));
    }
}

/// The atomic twin of a counter type.
pub type Atomic<T> = <T as Tally>::Atomic;

impl Tally for u64 {
    type Atomic = AtomicU64;
    fn cells(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn cells_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
    fn atomic_cells(atomic: &AtomicU64) -> &[AtomicU64] {
        std::slice::from_ref(atomic)
    }
}

impl<const N: usize> Tally for [u64; N]
where
    [u64; N]: Default,
{
    type Atomic = [AtomicU64; N];
    fn cells(&self) -> &[u64] {
        self
    }
    fn cells_mut(&mut self) -> &mut [u64] {
        self
    }
    fn atomic_cells(atomic: &[AtomicU64; N]) -> &[AtomicU64] {
        atomic
    }
}

/// A histogram's finite buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Inclusive upper bounds, in the recorded unit.
    pub upper: &'static [u64],
    /// Recorded units per exported unit (`1_000_000`: µs exported in s).
    pub per_unit: u64,
}

/// How a metric family is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic total.
    Counter,
    /// A value that can go down.
    Gauge,
    /// Bucketed observations.
    Histogram(Bounds),
}

/// An exported metric family: Prometheus name, help text and kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Family name (`csaw_*`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
}

impl Metric {
    /// A counter family.
    pub const fn counter(name: &'static str, help: &'static str) -> Metric {
        Metric { name, help, kind: Kind::Counter }
    }

    /// A gauge family.
    pub const fn gauge(name: &'static str, help: &'static str) -> Metric {
        Metric { name, help, kind: Kind::Gauge }
    }

    /// A histogram family over buckets bounded by `upper`.
    pub const fn histogram(
        upper: &'static [u64],
        per_unit: u64,
        name: &'static str,
        help: &'static str,
    ) -> Metric {
        Metric { name, help, kind: Kind::Histogram(Bounds { upper, per_unit }) }
    }
}

/// A conservation identity over snapshot `S`: the first term relates to
/// the sum of the others by `holds` (`==` or `<=`).
#[derive(Debug)]
pub struct Identity<S: 'static> {
    /// The identity as written in the table.
    pub text: &'static str,
    /// The relation, applied to the first term and the sum of the rest.
    pub holds: fn(u64, u64) -> bool,
    /// The rows it reads, total first.
    pub terms: &'static [Term<S>],
}

impl<S> Identity<S> {
    /// Whether `s` satisfies the identity.
    pub fn check(&self, s: &S) -> bool {
        let (total, parts) = self.terms.split_first().expect("an identity has a total");
        (self.holds)((total.get)(s), parts.iter().map(|t| (t.get)(s)).sum())
    }
}

/// One row read by an [`Identity`].
#[derive(Debug)]
pub struct Term<S: 'static> {
    /// The row's field name.
    pub name: &'static str,
    /// Its value (a histogram's total).
    pub get: fn(&S) -> u64,
    /// Adds one to it (to a histogram's first bucket).
    pub bump: fn(&mut S),
}
