//! Disk-tier equivalence: sampling through the mmap-backed partitioned
//! store must be **bit-identical** to the in-memory CSR at every pool
//! budget, on every runtime — the engine, both out-of-memory paths, and
//! the batching service. This is the acceptance contract of the
//! residency hierarchy: eviction pressure changes counters, never
//! samples (every RNG draw is keyed by `(instance, depth, vertex,
//! trial)`, and the disk tier serves the exact same neighbor slices).

use csaw::core::algorithms::{BiasedRandomWalk, UnbiasedNeighborSampling};
use csaw::core::engine::{ExecMode, RunOptions, Sampler};
use csaw::core::residency::{DiskRunConfig, DiskTierStats};
use csaw::core::AlgoSpec;
use csaw::graph::generators::{rmat, RmatParams};
use csaw::graph::store::write_store;
use csaw::graph::{Csr, DiskStore, EdgeEdit};
use csaw::oom::{OomConfig, OomRunner};
use csaw::service::{
    MutationRequest, OomExecutor, SamplingRequest, SamplingService, ServiceConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-instance `(u, v)` edge lists for each request of a batch.
type BatchEdges = Vec<Vec<Vec<(u32, u32)>>>;

/// Budgets from "one partition barely fits" to "everything resident".
const POOL_BUDGETS: [usize; 3] = [1 << 12, 1 << 16, 1 << 24];

fn tmp_dir(name: &str) -> PathBuf {
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-disk-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `g` as a store and returns a disk config with a stats sink.
fn disk_cfg(g: &Csr, dir: &Path, parts: usize, pool: usize) -> DiskRunConfig {
    if !dir.join("store.meta").exists() {
        write_store(dir, g, parts, 0).expect("write store");
    }
    DiskRunConfig {
        store: Arc::new(DiskStore::open(dir).expect("open store")),
        pool_budget: pool,
        shared: Some(Arc::new(DiskTierStats::default())),
    }
}

#[test]
fn engine_is_bit_identical_at_every_pool_budget() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 31);
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let dir = tmp_dir("engine");
    for algo_case in 0..2 {
        let run = |disk: Option<DiskRunConfig>, exec: ExecMode| {
            let opts = RunOptions { seed: 7, disk, exec, ..Default::default() };
            match algo_case {
                0 => {
                    let algo = BiasedRandomWalk { length: 12 };
                    Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds)
                }
                _ => {
                    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
                    Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds)
                }
            }
        };
        let mem = run(None, ExecMode::InstanceMajor);
        for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
            for pool in POOL_BUDGETS {
                let cfg = disk_cfg(&g, &dir, 8, pool);
                let tier = cfg.shared.clone().unwrap();
                let disk = run(Some(cfg), exec);
                assert_eq!(
                    disk.instances, mem.instances,
                    "algo {algo_case}, {exec:?}: pool {pool} changed the sample"
                );
                let (lookups, hits, misses) = (
                    tier.lookups.load(std::sync::atomic::Ordering::Relaxed),
                    tier.hits.load(std::sync::atomic::Ordering::Relaxed),
                    tier.misses.load(std::sync::atomic::Ordering::Relaxed),
                );
                assert!(lookups > 0, "disk tier never consulted");
                assert_eq!(lookups, hits + misses, "tier ledger must balance");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oom_queue_runtime_is_bit_identical_with_disk_behind_it() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 32);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let dir = tmp_dir("oom-queue");
    let cfg = OomConfig::full();
    let mem = OomRunner::new(&g, &algo, cfg).run(&seeds);
    for pool in POOL_BUDGETS {
        let disk =
            OomRunner::new(&g, &algo, cfg).with_disk(disk_cfg(&g, &dir, 8, pool)).run(&seeds);
        assert_eq!(disk.instances, mem.instances, "pool {pool} changed the OOM sample");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oom_pooled_runtime_is_bit_identical_with_disk_behind_it() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 33);
    let algo = csaw::core::algorithms::MultiDimRandomWalk { budget: 60 };
    let pools = csaw::core::algorithms::MultiDimRandomWalk::seed_pools(g.num_vertices(), 6, 32, 7);
    let dir = tmp_dir("oom-pooled");
    let cfg = OomConfig::full();
    let mem = OomRunner::new(&g, &algo, cfg).run_pools(&pools);
    for pool in POOL_BUDGETS {
        let disk =
            OomRunner::new(&g, &algo, cfg).with_disk(disk_cfg(&g, &dir, 8, pool)).run_pools(&pools);
        assert_eq!(disk.instances, mem.instances, "pool {pool} changed the pooled sample");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the same request stream against a memory-backed and a
/// disk-backed service and returns both response edge lists.
fn serve_both(
    g: &Arc<Csr>,
    mk: impl Fn(Option<DiskRunConfig>) -> SamplingService,
    disk: DiskRunConfig,
) -> (BatchEdges, BatchEdges) {
    let run = |svc: SamplingService| {
        let spec = AlgoSpec::by_name("biased-walk").unwrap().with_depth(8);
        let mut all = Vec::new();
        for i in 0..4u32 {
            let n = g.num_vertices() as u32;
            let req = SamplingRequest::new(spec, vec![i % n, (i * 7 + 1) % n]);
            let resp = svc.submit(req).unwrap().wait().unwrap();
            all.push(resp.output.instances);
        }
        svc.shutdown();
        all
    };
    (run(mk(None)), run(mk(Some(disk))))
}

#[test]
fn service_is_bit_identical_and_rejects_mutation_on_every_executor() {
    let g = Arc::new(rmat(9, 6, RmatParams::GRAPH500, 34));
    let dir = tmp_dir("service");
    for pool in POOL_BUDGETS {
        // Engine executor.
        let mk = |disk: Option<DiskRunConfig>| {
            SamplingService::with_engine(
                Arc::clone(&g),
                ServiceConfig { disk, ..ServiceConfig::default() },
            )
        };
        let (mem, disk) = serve_both(&g, mk, disk_cfg(&g, &dir, 8, pool));
        assert_eq!(mem, disk, "engine service diverged at pool {pool}");

        // OOM executor.
        let mk = |disk: Option<DiskRunConfig>| {
            SamplingService::new(
                Arc::clone(&g),
                Arc::new(OomExecutor::new(OomConfig::full())),
                ServiceConfig { disk, ..ServiceConfig::default() },
            )
        };
        let (mem, disk) = serve_both(&g, mk, disk_cfg(&g, &dir, 8, pool));
        assert_eq!(mem, disk, "OOM service diverged at pool {pool}");
    }

    // A disk-backed service refuses edits (the store is immutable) and
    // still balances every ledger, including the disk tier's.
    let svc = SamplingService::with_engine(
        Arc::clone(&g),
        ServiceConfig { disk: Some(disk_cfg(&g, &dir, 8, 1 << 16)), ..ServiceConfig::default() },
    );
    let spec = AlgoSpec::by_name("simple-walk").unwrap().with_depth(6);
    svc.submit(SamplingRequest::new(spec, vec![0, 1])).unwrap().wait().unwrap();
    let err = svc
        .mutate(MutationRequest::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]))
        .unwrap_err();
    assert!(
        matches!(err, csaw::graph::EditError::ImmutableStore),
        "expected ImmutableStore, got {err:?}"
    );
    let snap = svc.shutdown();
    assert!(snap.disk_lookups > 0, "service never consulted the disk tier");
    assert_eq!(snap.disk_lookups, snap.disk_hits + snap.disk_misses);
    assert_eq!(snap.mutations_rejected, 1);
    assert!(snap.fully_accounted(), "{snap:?}");
    std::fs::remove_dir_all(&dir).ok();
}
