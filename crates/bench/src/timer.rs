//! The wall-clock timer behind the `benches/` targets: `Instant` around a
//! batch of calls, inputs and results through `black_box`.
//!
//! These are micro-benchmarks of the simulator and the coding kernels; the
//! real system's speed is measured by the repository benchmark
//! (`benchmark/`, BENCHMARK.json), never from here.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per measurement; the median is reported.
const SAMPLES: usize = 15;
/// Wall time one sample aims for.
const SAMPLE_TIME: Duration = Duration::from_millis(20);

/// Times `f` and prints one line: median nanoseconds per call and, when
/// `bytes` (processed per call) is non-zero, MiB/s at the median. Without
/// `--bench` on the command line (`cargo test --benches`) `f` runs once,
/// as a smoke test, and nothing is timed.
pub fn time<R>(name: &str, bytes: u64, mut f: impl FnMut() -> R) {
    if !std::env::args().any(|a| a == "--bench") {
        black_box(f());
        println!("{name}: ok");
        return;
    }
    // Calibrate (and warm up): how many calls fill one sample?
    let started = Instant::now();
    let mut calls = 0u32;
    while started.elapsed() < SAMPLE_TIME {
        black_box(f());
        calls += 1;
    }
    let mut ns_per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    ns_per_call.sort_by(f64::total_cmp);
    let median = ns_per_call[SAMPLES / 2];
    let rate = if bytes == 0 {
        String::new()
    } else {
        let mib_per_s = bytes as f64 / f64::from(1u32 << 20) / (median * 1e-9);
        format!("  {mib_per_s:>10.1} MiB/s")
    };
    println!("{name:<48} {median:>12.1} ns/call{rate}");
}
