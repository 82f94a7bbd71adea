//! Small helpers: a seeded generator, order statistics, host-speed
//! calibration, process memory readings and result fingerprints.

use fro::algebra::Relation;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny, fully specified generator, so an operation
/// sequence depends on the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A field of `/proc/self/status` in KiB (`VmRSS`, `VmHWM`); 0 where
/// the file does not exist.
pub fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// An order-independent fingerprint of a relation's row set, under its
/// attributes in canonical (sorted) order: equal row sets give equal
/// fingerprints whatever the row or column order.
pub fn fingerprint(rel: &Relation) -> (usize, u64) {
    let (schema, perm) = rel.schema().canonical_order();
    let mut h = DefaultHasher::new();
    schema.hash(&mut h);
    let mut acc = h.finish();
    for row in rel.rows() {
        let mut h = DefaultHasher::new();
        row.project(&perm).hash(&mut h);
        acc = acc.wrapping_add(h.finish().wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    }
    (rel.len(), acc)
}

/// Keys, an open-addressing table and a sort buffer for [`kernel_ms`],
/// allocated before the timed pass so it allocates nothing.
struct Kernel {
    keys: Vec<u64>,
    table: Vec<u64>,
    buf: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let keys = (1..=30_000u64)
            .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Kernel {
            keys,
            table: vec![0; 1 << 15],
            buf: vec![0; 12_000],
        }
    }

    /// Build a hash table of half the keys, probe it with all of them,
    /// and sort a slice salted with the hit count.
    fn pass(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        self.table.fill(0);
        for &k in &self.keys[..15_000] {
            let mut i = (k >> 17) as usize & mask;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
            }
            self.table[i] = k;
        }
        let mut hits = 0u64;
        for &k in &self.keys {
            let mut i = (k >> 17) as usize & mask;
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & mask;
            }
            hits += u64::from(self.table[i] == k);
        }
        for (b, &k) in self.buf.iter_mut().zip(&self.keys) {
            *b = k ^ hits;
        }
        self.buf.sort_unstable();
        self.buf[0]
    }
}

/// How fast the host runs now: the time in ms of one pass of a fixed
/// hash-build, probe and sort kernel that does not involve `fro`. The
/// kernel's buffers are fresh and warmed by an untimed pass, so the
/// time depends on the host, not on what a workload left in the caches
/// or the heap.
pub fn kernel_ms() -> f64 {
    let mut k = Kernel::new();
    std::hint::black_box(k.pass());
    let t = Instant::now();
    std::hint::black_box(k.pass());
    ms(t.elapsed())
}

/// The kernel's time on the 2-core Xeon VM the benchmark was written
/// on. It fixes the unit of the reported times; comparisons between
/// runs do not depend on it.
pub const REFERENCE_KERNEL_MS: f64 = 0.3;

/// Operations on each side of the one being scaled whose kernel times
/// [`speed_factors`] takes the median of.
const KERNEL_WINDOW: usize = 15;

/// For each operation, the factor that scales its measured times to the
/// reference host speed: [`REFERENCE_KERNEL_MS`] over the median kernel
/// time of the operations within [`KERNEL_WINDOW`] of it. On a shared
/// host, wall-clock speed drifts by tens of percent within a minute,
/// and a kernel timed between operations drifts with it.
pub fn speed_factors(kernels: &[f64]) -> Vec<f64> {
    (0..kernels.len())
        .map(|i| {
            let lo = i.saturating_sub(KERNEL_WINDOW);
            let hi = (i + KERNEL_WINDOW + 1).min(kernels.len());
            REFERENCE_KERNEL_MS / median(&kernels[lo..hi])
        })
        .collect()
}

/// The commit the benchmark was run from, read from `.git` without
/// spawning a process; `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn speed_factors_follow_the_local_kernel_median() {
        let mut kernels = vec![REFERENCE_KERNEL_MS; 40];
        kernels.extend(vec![2.0 * REFERENCE_KERNEL_MS; 40]);
        let f = speed_factors(&kernels);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[79], 0.5);
    }

    #[test]
    fn fingerprint_ignores_row_order() {
        let a = Relation::from_ints("R", &["x", "y"], &[&[1, 2], &[3, 4]]);
        let b = Relation::from_ints("R", &["x", "y"], &[&[3, 4], &[1, 2]]);
        let c = Relation::from_ints("R", &["x", "y"], &[&[1, 2], &[3, 5]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
