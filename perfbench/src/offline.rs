//! `offline-mem` and `offline-disk`: one in-process client issues
//! sampling jobs back to back through `Sampler::run_single_seeds` on an
//! R-MAT scale-20 graph, larger than the last-level cache.

use crate::inputs::{self, Rng};
use crate::stats::{median, percentile, Failure, Ledger};
use crate::trace::Trace;
use crate::{Metrics, Outcome};
use csaw_core::residency::{DiskRunConfig, DiskTierStats};
use csaw_core::{AlgoSpec, Algorithm, AlgorithmId, ExecMode, RunOptions, Sampler};
use csaw_gpu::stats::SimStats;
use csaw_graph::store::write_store;
use csaw_graph::{Csr, DiskStore};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

pub const SCALE: u32 = 20;
pub const EDGE_FACTOR: usize = 16;
/// Store partitions; the pool holds a quarter of the decoded bytes.
const PARTITIONS: usize = 256;
const SETUP_REPEATS: usize = 3;
/// Launches needed before the p95 launch latency rests on ten samples.
const MIN_LAUNCHES: usize = 200;
/// Launches of each traced-only job in a traced run.
const TRACED_LAUNCHES: u64 = 24;

/// One job class. Walker counts are per launch and sized so that a
/// launch takes tens of milliseconds, which puts a few hundred launches
/// in a run: enough for a p95 of launch latency. The disk tier is about
/// 300× slower than memory on simple walks, hence its smaller launches.
///
/// Only the `timed` jobs run in the timed window. Biased-walk and node2vec
/// launches of a few walkers cost what the hubs they reach cost, so their
/// latency swings by tens of percent between runs; they run in traced
/// runs only, for the per-layer numbers.
pub struct Job {
    pub name: &'static str,
    pub spec: AlgoSpec,
    pub mem_walkers: usize,
    pub disk_walkers: usize,
    /// Walk-shaped jobs emit one path per instance.
    pub walk: bool,
    pub timed: bool,
}

pub fn jobs() -> Vec<Job> {
    let walk = |id, walkers, disk_walkers| Job {
        name: "",
        spec: AlgoSpec::new(id).with_depth(32),
        mem_walkers: walkers,
        disk_walkers,
        walk: true,
        timed: false,
    };
    vec![
        // DeepWalk-style: bound by gather latency.
        Job {
            name: "simple_walk",
            timed: true,
            ..walk(AlgorithmId::SimpleRandomWalk, 1 << 11, 1 << 3)
        },
        // Static degree bias: time goes to CTPS builds at hubs.
        Job { name: "biased_walk", ..walk(AlgorithmId::BiasedRandomWalk, 1 << 4, 0) },
        // Dynamic (second-order) bias.
        Job { name: "node2vec", ..walk(AlgorithmId::Node2Vec, 1 << 2, 0) },
        // 3 hops without replacement: §IV SELECT and collision detection.
        Job {
            name: "biased_neighbor",
            spec: AlgoSpec::new(AlgorithmId::BiasedNeighborSampling).with_depth(3),
            mem_walkers: 1 << 6,
            disk_walkers: 1 << 4,
            walk: false,
            timed: true,
        },
    ]
}

/// Removes the store directory however the run ends.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Launch {
    job: usize,
    index: u64,
    latency_s: f64,
    edges: u64,
    digest: u64,
    stats: SimStats,
}

fn launch_seeds(g: &Csr, seed: u64, index: u64, walkers: usize) -> Vec<u32> {
    inputs::seed_vertices(g, &mut Rng::fork(seed, 1_000 + index), walkers)
}

/// Every sampled edge exists, every walk is a connected path from its
/// seed, and there is one instance per seed.
fn well_formed(g: &Csr, seeds: &[u32], instances: &[Vec<(u32, u32)>], walk: bool) -> bool {
    if instances.len() != seeds.len() {
        return false;
    }
    instances.iter().zip(seeds).all(|(inst, &s)| {
        let edges_exist = inst.iter().all(|&(v, u)| g.has_edge(v, u));
        let chained = !walk
            || inst.first().is_none_or(|e| e.0 == s) && inst.windows(2).all(|w| w[0].1 == w[1].0);
        edges_exist && chained
    })
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace_on: bool) -> Outcome {
    let disk = workload == "offline-disk";
    let jobs: Vec<Job> = jobs()
        .into_iter()
        .filter(|j| if disk { j.disk_walkers > 0 } else { j.timed || trace_on })
        .collect();
    let timed: Vec<usize> = (0..jobs.len()).filter(|&j| jobs[j].timed).collect();
    let algos: Vec<Box<dyn Algorithm>> =
        jobs.iter().map(|j| j.spec.build().expect("job specs are valid")).collect();
    let walkers = |j: &Job| if disk { j.disk_walkers } else { j.mem_walkers };
    let mut m = Metrics::default();
    let origin = Instant::now();
    let mut trace = Trace::new(origin, trace_on);

    // Set-up, repeated: the program builds the CSR from the generated
    // pairs and, on disk, writes and opens the store.
    let pairs = inputs::rmat_pairs(SCALE, EDGE_FACTOR, seed);
    let dir = StoreDir(PathBuf::from(format!(".perfbench-store-{}", std::process::id())));
    let (mut setup, mut build, mut write, mut open) = (vec![], vec![], vec![], vec![]);
    let mut graph = None;
    let mut store = None;
    for _ in 0..SETUP_REPEATS {
        drop(graph.take());
        drop(store.take());
        let _ = std::fs::remove_dir_all(&dir.0);
        let pairs = pairs.clone();
        let t0 = Instant::now();
        let g = trace.span("graph.build", 0, None, || inputs::build_graph(SCALE, pairs));
        build.push(t0.elapsed().as_secs_f64());
        if disk {
            let t1 = Instant::now();
            trace
                .span("store.write_store", 0, None, || write_store(&dir.0, &g, PARTITIONS, 0))
                .expect("write the store");
            write.push(t1.elapsed().as_secs_f64());
            let t2 = Instant::now();
            let s = trace.span("store.open", 0, None, || DiskStore::open(&dir.0));
            open.push(t2.elapsed().as_secs_f64());
            store = Some(Arc::new(s.expect("open the store")));
        }
        setup.push(t0.elapsed().as_secs_f64());
        graph = Some(g);
    }
    drop(pairs);
    let g = graph.expect("at least one set-up");
    m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
    m.set("graph.build_s", median(&build).unwrap_or(0.0), "s");
    m.set("store.write_s", median(&write).unwrap_or(0.0), "s");
    m.set("store.open_s", median(&open).unwrap_or(0.0), "s");

    let graph_bytes = g.size_bytes();
    let tier = Arc::new(DiskTierStats::default());
    let pool_bytes = store.as_ref().map_or(0, |s| s.total_decoded_bytes() / 4);
    let opts = RunOptions {
        disk: store.as_ref().map(|s| DiskRunConfig {
            store: Arc::clone(s),
            pool_budget: pool_bytes,
            shared: Some(Arc::clone(&tier)),
        }),
        ..RunOptions::default()
    };
    m.info(format!(
        "\"graph\": \"rmat-{SCALE} ef {EDGE_FACTOR}\", \"vertices\": {}, \"edges\": {}, \
         \"graph_bytes\": {graph_bytes}, \"graph_over_llc\": {:.2}, \"pool_bytes\": {pool_bytes}",
        g.num_vertices(),
        g.num_edges(),
        graph_bytes as f64 / inputs::llc_bytes().max(1) as f64,
    ));

    // Warm-up: one untimed launch per job on seeds of its own.
    for (j, (job, algo)) in jobs.iter().zip(&algos).enumerate() {
        let seeds = launch_seeds(&g, seed, u64::MAX - j as u64, walkers(job));
        Sampler::new(&g, algo).with_options(opts.clone()).run_single_seeds(&seeds);
    }
    let tier_before = tier_counts(&tier);

    // One launch of job `j` on launch `index`'s seeds.
    let mut launch = |j: usize, index: u64| {
        let seeds = launch_seeds(&g, seed, index, walkers(&jobs[j]));
        let sampler = Sampler::new(&g, &algos[j]).with_options(opts.clone());
        let t0 = Instant::now();
        let out =
            trace.span("engine.run_single_seeds", index, None, || sampler.run_single_seeds(&seeds));
        let latency_s = t0.elapsed().as_secs_f64();
        Launch {
            job: j,
            index,
            latency_s,
            edges: out.sampled_edges(),
            digest: inputs::digest(&out.instances),
            stats: out.stats,
        }
    };

    // The timed window: jobs in turn, fresh seeds for every launch.
    let mut launches: Vec<Launch> = Vec::new();
    let start = Instant::now();
    let mut index = 0u64;
    while start.elapsed().as_secs_f64() < seconds || launches.len() < MIN_LAUNCHES {
        launches.push(launch(timed[index as usize % timed.len()], index));
        index += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    let tier_after = tier_counts(&tier);
    let in_window = launches.len();
    for j in (0..jobs.len()).filter(|&j| !jobs[j].timed) {
        for _ in 0..TRACED_LAUNCHES {
            launches.push(launch(j, index));
            index += 1;
        }
    }

    // Verification, untimed: every launch is re-run in memory (depth-
    // synchronous for offline-mem, a different loop over the same
    // function) and must match bit for bit; the reference must be a
    // well-formed sample of the graph.
    let mut ledger = Ledger::default();
    let ref_opts = RunOptions {
        exec: if disk { ExecMode::InstanceMajor } else { ExecMode::DepthSync },
        ..RunOptions::default()
    };
    for l in &launches {
        ledger.attempt();
        let job = &jobs[l.job];
        let seeds = launch_seeds(&g, seed, l.index, walkers(job));
        let reference =
            Sampler::new(&g, &algos[l.job]).with_options(ref_opts.clone()).run_single_seeds(&seeds);
        if inputs::digest(&reference.instances) != l.digest
            || !well_formed(&g, &seeds, &reference.instances, job.walk)
        {
            ledger.fail(l.index, Failure::Mismatch);
        }
    }

    let window = &launches[..in_window];
    let lat_ms: Vec<f64> = window.iter().map(|l| l.latency_s * 1e3).collect();
    let edges: u64 = window.iter().map(|l| l.edges).sum();
    let busy_s: f64 = window.iter().map(|l| l.latency_s).sum();
    m.set("edges_per_s", edges as f64 / busy_s, "1/s");
    m.set("ops_per_s", window.len() as f64 / window_s, "1/s");
    m.set("read_p50_ms", percentile(&lat_ms, 0.50).unwrap_or(0.0), "ms");
    m.set("read_p95_ms", percentile(&lat_ms, 0.95).unwrap_or(0.0), "ms");

    for (j, job) in jobs.iter().enumerate() {
        let mine: Vec<&Launch> = launches.iter().filter(|l| l.job == j).collect();
        let e: u64 = mine.iter().map(|l| l.edges).sum();
        let secs: Vec<f64> = mine.iter().map(|l| l.latency_s).collect();
        let s: SimStats = mine.iter().map(|l| l.stats).sum();
        let per_edge = |x: u64| x as f64 / e.max(1) as f64;
        let n = job.name;
        m.set(&format!("job.{n}.edges_per_s"), e as f64 / secs.iter().sum::<f64>(), "1/s");
        m.set(&format!("engine.{n}.launch_s"), median(&secs).unwrap_or(0.0), "s");
        m.set(&format!("step.{n}.selections"), per_edge(s.selections), "1/edge");
        m.set(&format!("select.{n}.iterations"), per_edge(s.select_iterations), "1/edge");
        m.set(&format!("select.{n}.collision_searches"), per_edge(s.collision_searches), "1/edge");
        m.set(&format!("step.{n}.scan_steps"), per_edge(s.scan_steps), "1/edge");
        m.set(&format!("step.{n}.rng_draws"), per_edge(s.rng_draws), "1/edge");
        m.set(&format!("step.{n}.gmem_bytes"), per_edge(s.gmem_bytes), "B/edge");
        m.set(&format!("method.{n}.its"), per_edge(s.method_its), "1/edge");
        m.set(&format!("method.{n}.alias"), per_edge(s.method_alias), "1/edge");
        m.set(&format!("method.{n}.rejection"), per_edge(s.method_rejection), "1/edge");
        m.set(&format!("method.{n}.uniform"), per_edge(s.method_uniform), "1/edge");
        let mean_group = if s.batch_groups == 0 {
            0.0
        } else {
            s.batch_group_entries as f64 / s.batch_groups as f64
        };
        m.set(&format!("batch.{n}.mean_group"), mean_group, "count");
    }

    let d = tier_after.iter().zip(&tier_before).map(|(a, b)| a - b).collect::<Vec<u64>>();
    let (lookups, hits, evictions, decode_bytes, decode_us, faults) =
        (d[0], d[1], d[2], d[3], d[4], d[5]);
    let per_edge = |x: u64| x as f64 / edges.max(1) as f64;
    m.set("disk.lookups", per_edge(lookups), "1/edge");
    m.set("disk.hit_rate", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 }, "ratio");
    m.set("disk.evictions", per_edge(evictions), "1/edge");
    m.set("disk.decode_bytes", per_edge(decode_bytes), "B/edge");
    m.set("disk.decode_s", decode_us as f64 / 1e6, "s");
    m.set("disk.mmap_faults", per_edge(faults), "1/edge");

    Outcome { metrics: m, ledger, trace }
}

fn tier_counts(t: &DiskTierStats) -> [u64; 6] {
    [
        t.lookups.load(Relaxed),
        t.hits.load(Relaxed),
        t.evictions.load(Relaxed),
        t.decode_bytes.load(Relaxed),
        t.decode_sum_us.load(Relaxed),
        t.mmap_faults.load(Relaxed),
    ]
}
