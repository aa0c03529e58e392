//! Micro-benchmarks of the SSTA distribution operators: convolution,
//! statistical max, percentile queries, and the max-percentile-shift
//! computation underlying the pruning bounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use statsize_dist::{max_percentile_shift, DistScratch, KernelBackend, TruncatedGaussian};

fn arrival_like(bins: usize) -> statsize_dist::Dist {
    // An arrival-time-like distribution with the requested support width.
    let sigma = bins as f64 / 6.0;
    TruncatedGaussian::new(1000.0, sigma, 3.0).discretize(1.0)
}

fn delay_like() -> statsize_dist::Dist {
    TruncatedGaussian::from_nominal(100.0, 0.1, 3.0).discretize(1.0)
}

fn bench_convolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolve");
    let delay = delay_like();
    for bins in [64usize, 256, 1024, 2048, 4096, 8192] {
        let arrival = arrival_like(bins);
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| arrival.convolve(&delay))
        });
    }
    group.finish();
}

fn bench_convolve_tiers(c: &mut Criterion) {
    // The same convolution forced through each kernel backend (the env
    // override is read once per process, so backends are pinned via
    // `convolve_dense`): the scalar reference and the best SIMD backend
    // this CPU offers.
    let mut group = c.benchmark_group("convolve_tiers");
    let delay = delay_like();
    let simd = KernelBackend::detected();
    let mut scratch = DistScratch::new();
    let a1024 = arrival_like(1024);
    group.bench_function("1024/scalar", |b| {
        b.iter(|| {
            let r = a1024.convolve_dense(&delay, KernelBackend::Scalar, &mut scratch);
            scratch.recycle(r);
        })
    });
    group.bench_function("1024/simd", |b| {
        b.iter(|| {
            let r = a1024.convolve_dense(&delay, simd, &mut scratch);
            scratch.recycle(r);
        })
    });
    for bins in [4096usize, 8192] {
        let a = arrival_like(bins);
        let b2 = arrival_like(bins).shift_bins(bins as i64 / 16);
        group.bench_function(&format!("pair_{bins}/scalar"), |b| {
            b.iter(|| {
                let r = a.convolve_dense(&b2, KernelBackend::Scalar, &mut scratch);
                scratch.recycle(r);
            })
        });
        group.bench_function(&format!("pair_{bins}/simd"), |b| {
            b.iter(|| {
                let r = a.convolve_dense(&b2, simd, &mut scratch);
                scratch.recycle(r);
            })
        });
    }
    group.finish();
}

fn bench_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_independent");
    for bins in [64usize, 256, 1024] {
        let a = arrival_like(bins);
        let b2 = arrival_like(bins).shift_bins(bins as i64 / 10);
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| a.max_independent(&b2))
        });
    }
    group.finish();
}

fn bench_convolve_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolve_into");
    let delay = delay_like();
    for bins in [64usize, 256, 1024] {
        let arrival = arrival_like(bins);
        let mut scratch = DistScratch::new();
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| {
                let r = arrival.convolve_into(&delay, &mut scratch);
                scratch.recycle(r);
            })
        });
    }
    group.finish();
}

fn bench_convolve_max_fused(c: &mut Criterion) {
    // The fused per-edge convolve + running fan-in max, vs materializing
    // the intermediate arrival (the composed form it is bit-identical to).
    let mut group = c.benchmark_group("convolve_max_fused");
    let delay = delay_like();
    for bins in [64usize, 256, 1024] {
        let acc = arrival_like(bins);
        let upstream = arrival_like(bins).shift_bins(bins as i64 / 10);
        let mut scratch = DistScratch::new();
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| {
                let r = acc.convolve_max_into(&upstream, &delay, &mut scratch);
                scratch.recycle(r);
            })
        });
    }
    group.finish();
}

fn bench_percentile(c: &mut Criterion) {
    let a = arrival_like(512);
    c.bench_function("percentile_p99", |b| b.iter(|| a.percentile(0.99)));
}

fn bench_shift(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_percentile_shift");
    for bins in [64usize, 256, 1024] {
        let a = arrival_like(bins);
        let p = a.shift_bins(-3);
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |b, _| {
            b.iter(|| max_percentile_shift(&a, &p))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_convolve,
    bench_convolve_tiers,
    bench_max,
    bench_convolve_into,
    bench_convolve_max_fused,
    bench_percentile,
    bench_shift
);
criterion_main!(benches);
