//! Host-speed probe.
//!
//! On a shared virtual machine the host's speed drifts by up to 1.7x over
//! minutes, with no steal to show for it (other tenants on the sibling
//! hyperthreads, turbo headroom), far more than the changes the benchmark
//! must catch. A fixed piece of work frozen in the benchmark itself is
//! therefore timed around every sweep: an xorshift fill of 32 Ki words, an
//! unstable sort, and a fold through a `BTreeMap` — branchy, allocating
//! and cache-bound like the program's own code. It calls nothing of the
//! program, so a change to the program cannot move it. A time measured
//! while a probe takes `p` ms is reported as `time * REFERENCE_MS / p`:
//! the time on a host where the probe takes [`REFERENCE_MS`].

use std::collections::BTreeMap;
use std::time::Instant;

/// The probe's median time, in ms, on the reference host (a 2-vCPU
/// Firecracker VM with AVX2, at a quiet time).
pub(crate) const REFERENCE_MS: f64 = 2.0;

/// The probe's result, checked on every run so that its work cannot be
/// optimised away or silently changed.
const CHECKSUM: u64 = 10_438_974_699_367_814_751;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut keys: Vec<u64> = (0..1 << 15).map(|_| xorshift(&mut x) % 100_000).collect();
    keys.sort_unstable();
    let mut sums = BTreeMap::new();
    for &k in keys.iter().step_by(4) {
        *sums.entry(k % 4096).or_insert(0u64) += k;
    }
    sums.values().fold(0, |acc, &sum| acc.rotate_left(1) ^ sum)
}

/// Runs `count` probes and returns their times, in ms.
pub(crate) fn probe(count: usize) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let start = Instant::now();
            let sum = std::hint::black_box(work());
            let took = crate::ms(start.elapsed());
            assert_eq!(sum, CHECKSUM, "the host-speed probe changed its result");
            took
        })
        .collect()
}

/// The factor that scales a time measured alongside `probes` to the
/// reference host.
pub(crate) fn factor(probes: &[f64]) -> f64 {
    REFERENCE_MS / crate::median(probes)
}
