//! The host noise-floor probe: two reference loops with no relation to
//! the program, timed in alternating slices. A scalar, latency-bound
//! dependency chain and a throughput-bound xor-popcount pass over an
//! L2-resident buffer react differently to host contention, so
//! their spread beside a workload's spread tells host noise from a
//! regression of the program.

use std::hint::black_box;
use std::time::Instant;

use crate::util::{median, quantile, splitmix};

/// 256 KiB: resident in L2, so the loop is throughput-bound, not
/// memory-bound.
fn probe_buffer() -> Vec<u64> {
    let mut state = 7u64;
    (0..1 << 15).map(|_| splitmix(&mut state)).collect()
}

/// Latency-bound: a serial SplitMix64 chain.
fn scalar_slice(iters: u64) -> f64 {
    let start = Instant::now();
    let mut state = black_box(1u64);
    let mut acc = 0u64;
    for _ in 0..iters {
        acc ^= splitmix(&mut state);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Throughput-bound: xor-popcount passes over a 256 KiB buffer.
fn vector_slice(buf: &[u64], passes: usize) -> f64 {
    let start = Instant::now();
    let mut total = 0u64;
    for p in 0..passes {
        let key = p as u64;
        total += buf
            .iter()
            .map(|w| u64::from((w ^ key).count_ones()))
            .sum::<u64>();
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e9 / (buf.len() * passes) as f64
}

pub fn run(seconds: f64) {
    let buf = probe_buffer();
    let (mut scalar, mut vector) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || scalar.len() < 5 {
        scalar.push(scalar_slice(5_000_000));
        vector.push(vector_slice(&buf, 256));
    }
    let summary = |v: &[f64]| {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
            median(v),
            quantile(v, 0.25),
            quantile(v, 0.75),
            quantile(v, 0.0),
            quantile(v, 1.0),
            v.len()
        )
    };
    println!(
        "{{\"scalar_ns_per_iter\": {}, \"vector_ns_per_word\": {}}}",
        summary(&scalar),
        summary(&vector)
    );
}
