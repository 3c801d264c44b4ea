//! Everything the benchmark derives from the workload seed, plus the
//! digest and machine facts that go into each result.

use csaw_graph::Csr;

/// SplitMix64: a small, fast, seedable generator. The benchmark draws
/// every input from it, so the program under test only ever receives
/// the generated values.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-task `k` of this seed.
    pub fn fork(seed: u64, k: u64) -> Rng {
        let mut r = Rng(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Directed R-MAT edge pairs with the Graph500 quadrant probabilities
/// (0.57, 0.19, 0.19, 0.05): `edge_factor << scale` pairs over
/// `1 << scale` vertices. The CSR builder symmetrizes and deduplicates.
pub fn rmat_pairs(scale: u32, edge_factor: usize, seed: u64) -> Vec<(u32, u32)> {
    const A: u64 = 37_356; // 0.57 * 65536
    const AB: u64 = 49_807; // (0.57 + 0.19) * 65536
    const ABC: u64 = 62_259; // (0.57 + 0.19 + 0.19) * 65536
    let m = edge_factor << scale;
    let mut rng = Rng::fork(seed, 1);
    let mut pairs = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        let mut bits = 0u64;
        for level in 0..scale {
            if level % 4 == 0 {
                bits = rng.next_u64();
            }
            let x = bits & 0xffff;
            bits >>= 16;
            let (s, d) = if x < A {
                (0, 0)
            } else if x < AB {
                (0, 1)
            } else if x < ABC {
                (1, 0)
            } else {
                (1, 1)
            };
            src = (src << 1) | s;
            dst = (dst << 1) | d;
        }
        pairs.push((src, dst));
    }
    pairs
}

/// The program's graph construction from the generated pairs.
pub fn build_graph(scale: u32, pairs: Vec<(u32, u32)>) -> Csr {
    csaw_graph::CsrBuilder::new()
        .with_num_vertices(1 << scale)
        .symmetrize(true)
        .extend_edges(pairs)
        .build()
}

/// `k` seed vertices drawn uniformly from the vertices with at least one
/// edge (R-MAT leaves many isolated; a walk from one samples nothing).
pub fn seed_vertices(g: &Csr, rng: &mut Rng, k: usize) -> Vec<u32> {
    let n = g.num_vertices() as u64;
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n) as u32;
        if g.degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

/// FNV-1a over the instances' shape and edges: equal digests mean equal
/// outputs for the benchmark's purposes.
pub fn digest(instances: &[Vec<(u32, u32)>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(instances.len() as u32);
    for inst in instances {
        eat(inst.len() as u32);
        for &(v, u) in inst {
            eat(v);
            eat(u);
        }
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpuinfo_field(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cumulative (steal, total) CPU ticks from `/proc/stat`. Steal is time
/// the hypervisor gave this machine's CPUs to someone else; on a shared
/// host it moves every timing in a run.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Size of the last-level cache in bytes, from sysfs.
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(s) = std::fs::read_to_string(path) else { break };
        let s = s.trim();
        let (num, mul) = match s.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match s.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (s, 1),
            },
        };
        best = best.max(num.parse::<u64>().unwrap_or(0) * mul);
    }
    best
}

/// The machine and build a result was measured on, as JSON fields.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "\"cpu\": {:?}, \"nproc\": {nproc}, \"llc_bytes\": {}, \"git_rev\": {:?}, \"rustc\": {:?}",
        cpuinfo_field("model name"),
        llc_bytes(),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(rmat_pairs(8, 4, 3), rmat_pairs(8, 4, 3));
        assert_ne!(rmat_pairs(8, 4, 3), rmat_pairs(8, 4, 4));
        let g = build_graph(8, rmat_pairs(8, 4, 3));
        let seeds = seed_vertices(&g, &mut Rng::fork(9, 0), 50);
        assert!(seeds.iter().all(|&v| g.degree(v) > 0));
        assert_eq!(seeds, seed_vertices(&g, &mut Rng::fork(9, 0), 50));
    }

    #[test]
    fn digest_sees_instance_boundaries() {
        let a = vec![vec![(1, 2)], vec![(2, 3)]];
        let b = vec![vec![(1, 2), (2, 3)]];
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
