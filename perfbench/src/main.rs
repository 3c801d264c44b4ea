//! The repository's benchmark.
//!
//! ```text
//! csaw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads (see `BENCHMARK.json` for why each exists):
//! `offline-mem`, `offline-disk`, `serve-read` and `serve-mixed`. Every
//! input is derived from `--seed`. The run prints a machine fingerprint,
//! every metric by name with its unit, and, as its last line, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Outputs are verified after the timed
//! window; any failed or mismatched operation makes the exit code 1.

mod inputs;
mod offline;
mod serve;
mod stats;
mod trace;

use stats::Ledger;
use std::collections::BTreeMap;
use trace::Trace;

/// End-to-end metrics: measured with tracing off on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("edges_per_s", "1/s"),
];

const JOB_LAYERS: [(&str, &str); 13] = [
    ("job.{}.edges_per_s", "1/s"),
    ("engine.{}.launch_s", "s"),
    ("step.{}.selections", "1/edge"),
    ("select.{}.iterations", "1/edge"),
    ("select.{}.collision_searches", "1/edge"),
    ("step.{}.scan_steps", "1/edge"),
    ("step.{}.rng_draws", "1/edge"),
    ("step.{}.gmem_bytes", "B/edge"),
    ("method.{}.its", "1/edge"),
    ("method.{}.alias", "1/edge"),
    ("method.{}.rejection", "1/edge"),
    ("method.{}.uniform", "1/edge"),
    ("batch.{}.mean_group", "count"),
];

const LAYERS: [(&str, &str); 37] = [
    ("graph.build_s", "s"),
    ("store.write_s", "s"),
    ("store.open_s", "s"),
    ("dynamic.apply_us", "us"),
    ("dynamic.compact_ms", "ms"),
    ("dynamic.entry_version_start_ns", "ns"),
    ("dynamic.entry_version_end_ns", "ns"),
    ("graph.overlay_vertices", "count"),
    ("graph.epoch", "count"),
    ("ctps.cache_hit_rate", "ratio"),
    ("ctps.evictions_stale", "count"),
    ("disk.lookups", "1/edge"),
    ("disk.hit_rate", "ratio"),
    ("disk.evictions", "1/edge"),
    ("disk.decode_bytes", "B/edge"),
    ("disk.decode_s", "s"),
    ("disk.mmap_faults", "1/edge"),
    ("engine.exec_ms", "ms"),
    ("engine.exec_1thread_ms", "ms"),
    ("engine.exec_same_reads_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.batch_requests_mean", "count"),
    ("service.batches", "count"),
    ("service.inproc_ms", "ms"),
    ("service.inproc_p95_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("tenant.queue_wait_ms", "ms"),
    ("serve.sheds", "count"),
    ("serve.failed", "count"),
    ("serve.read_p99_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p95_ms", "ms"),
    ("serve.compact_ms", "ms"),
    ("residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric, in report order. Each traced run reports all
/// of them; a layer that is off the workload's path reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for job in offline::jobs() {
        for (pattern, unit) in JOB_LAYERS {
            out.push((pattern.replace("{}", job.name), unit));
        }
    }
    out.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Named measurements of one run, plus free-form facts for the report.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    info: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn info(&mut self, fields: String) {
        self.info.push(fields);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub ledger: Ledger,
    /// The benchmark's spans (empty unless traced).
    pub trace: Trace,
}

const WORKLOADS: [&str; 4] = ["offline-mem", "offline-disk", "serve-read", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let num = |flag: &str| get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A JSON number with all its digits; non-finite values become 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csaw-perfbench: {e}");
            eprintln!(
                "usage: csaw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ticks_before = inputs::cpu_ticks();
    let Outcome { mut metrics, ledger, trace } = match args.workload.as_str() {
        "offline-mem" | "offline-disk" => {
            offline::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        _ => serve::run(&args.workload, args.seed, args.seconds, args.trace),
    };
    metrics.set("peak_rss_mb", inputs::peak_rss_mb(), "MB");

    let ticks_after = inputs::cpu_ticks();
    let steal_pct = 100.0 * (ticks_after.0 - ticks_before.0) as f64
        / (ticks_after.1 - ticks_before.1).max(1) as f64;
    println!(
        "# fingerprint {{{}, \"cpu_steal_pct\": {steal_pct:.1}, \"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        inputs::fingerprint(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for fields in &metrics.info {
        println!("# inputs {{{fields}}}");
    }
    println!(
        "# ops attempted {} failed {} failed_frac {} by reason {:?}",
        ledger.attempted(),
        ledger.failed(),
        json_num(ledger.failed_frac()),
        ledger.by_reason()
    );
    print_spans(&trace);
    for (name, (value, unit)) in &metrics.values {
        println!("{name} {} {unit}", json_num(*value));
    }

    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!("{n:?}: {{\"value\": {}, \"unit\": {u:?}}}", json_num(metrics.get(n)))
        })
        .collect();
    let correct = ledger.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted().max(1),
        ledger.failed(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// One line per span name: calls, total and median self time.
fn print_spans(t: &Trace) {
    for (name, ms) in t.self_ms_by_name() {
        println!(
            "# span {name} calls {} self_total_ms {} self_p50_ms {}",
            ms.len(),
            json_num(ms.iter().sum()),
            json_num(stats::median(&ms).unwrap_or(0.0))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program reports.
    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| -> Vec<String> {
            let from = text.find(&format!("\"{key}\"")).expect("section present");
            let to = text[from..].find(&format!("\"{next}\"")).map_or(text.len(), |i| from + i);
            text[from..to]
                .match_indices("\"name\": \"")
                .map(|(i, pat)| {
                    let rest = &text[from + i + pat.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end", "per_layer"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer", "-"), layers);
        assert!(layers.len() <= 128);
        let workloads = section("workloads", "end_to_end");
        assert_eq!(workloads, WORKLOADS);
    }
}
