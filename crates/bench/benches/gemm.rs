//! Substrate bench: matrix-multiply kernels across the size range the LSTM
//! actually uses (batch x hidden shapes), including the rayon-parallel
//! path for larger shapes, plus the scalar/SIMD GEMV pair behind the
//! online scoring hot loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use desh_nn::simd::set_backend;
use desh_nn::{Backend, Mat};
use desh_util::Xoshiro256pp;
use std::hint::black_box;

fn rand_mat(r: usize, c: usize, rng: &mut Xoshiro256pp) -> Mat {
    Mat::from_fn(r, c, |_, _| rng.f32() - 0.5)
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut group = c.benchmark_group("gemm");
    for &n in &[16usize, 64, 128, 256] {
        let a = rand_mat(n, n, &mut rng);
        let b = rand_mat(n, n, &mut rng);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("matmul_t", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul_t(black_box(&b))));
        });
        group.bench_with_input(BenchmarkId::new("t_matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.t_matmul(black_box(&b))));
        });
    }
    group.finish();
}

/// The online-scoring hot loop is a batch-1 GEMV (`x @ W`). Pin the
/// kernel backend per variant so the scalar/SIMD ratio — the number the
/// CI bench gate asserts on — comes out of the same binary on the same
/// inputs, and time the zero-allocation `matmul_into` entry the scoring
/// loop actually calls.
fn bench_gemv(c: &mut Criterion) {
    let native = desh_nn::kernel_backend();
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let mut group = c.benchmark_group("gemv");
    for &n in &[16usize, 64, 96, 128, 256] {
        let x = rand_mat(1, n, &mut rng);
        let w = rand_mat(n, n, &mut rng);
        let mut mout = Mat::zeros(1, n);
        group.throughput(Throughput::Elements((n * n) as u64));
        set_backend(Backend::Scalar);
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |bch, _| {
            bch.iter(|| black_box(&x).matmul_into(black_box(&w), black_box(&mut mout)));
        });
        set_backend(native);
        group.bench_with_input(BenchmarkId::new("simd", n), &n, |bch, _| {
            bch.iter(|| black_box(&x).matmul_into(black_box(&w), black_box(&mut mout)));
        });
    }
    set_backend(native);
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemv);
criterion_main!(benches);
