//! SIMD kernel regression gate.
//!
//! Times the batch-1 GEMV hot loop (`x @ W`, the per-event scoring step)
//! under the scalar backend and the native SIMD backend in one process,
//! and fails when the SIMD path is not at least `--min-speedup` times
//! faster (default 2.0 — the acceptance bar for the AVX2/NEON kernels)
//! on the L1-resident gate sizes. Larger shapes are timed and reported
//! but not asserted on: once the weight matrix spills L1d the loop runs
//! at L2 bandwidth on any backend, so the scalar/SIMD ratio there is a
//! property of the memory hierarchy, not of the kernels (the compiler
//! auto-vectorises the scalar loop to SSE width, which is enough to
//! saturate L2 on its own).
//! On hosts where dispatch resolves to the scalar backend (no AVX2/NEON,
//! or `DESH_SIMD=off`), the gate is skipped: there is no vector unit to
//! regress.
//!
//! Flags:
//! * `--min-speedup <f>` — required simd/scalar GEMV ratio (default 2.0).
//! * `--json <path>` — write measurements as JSON.

use desh_nn::simd::set_backend;
use desh_nn::{Backend, Mat};
use desh_util::Xoshiro256pp;
use std::hint::black_box;
use std::time::Instant;

/// Square GEMV sizes the speedup gate asserts on: L1d-resident weight
/// matrices (≤ 36 KiB), where the comparison is compute-bound and the
/// LSTM's per-step gate blocks actually live.
const GATE_SIZES: [usize; 2] = [64, 96];
/// Smaller sizes are dominated by per-call and loop-tier overhead, larger
/// ones by L2 bandwidth; both are timed for the report only.
const INFO_SIZES: [usize; 3] = [48, 128, 256];

/// Time the scalar and native-SIMD GEMV on the same inputs with the two
/// backends interleaved round-robin, keeping each backend's best round.
/// Interleaving matters on shared hosts: a noisy-neighbour or frequency
/// phase then degrades both measurements instead of silently skewing the
/// ratio. Uses the zero-allocation `matmul_into` entry — the same call
/// the scoring hot loop makes — so the ratio measures the kernel, not
/// the allocator.
fn time_gemv_pair(x: &Mat, w: &Mat, native: Backend) -> (f64, f64) {
    let reps = 30_000_000 / (w.rows() * w.cols()).max(1);
    let mut out = Mat::zeros(1, w.cols());
    let mut round = |backend| {
        set_backend(backend);
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(x).matmul_into(black_box(w), black_box(&mut out));
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let (mut best_s, mut best_v) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..12 {
        best_s = best_s.min(round(Backend::Scalar));
        best_v = best_v.min(round(native));
    }
    set_backend(native);
    (best_s, best_v)
}

fn main() {
    let mut min_speedup = 2.0f64;
    let mut json: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--min-speedup" => {
                let v = it.next().expect("--min-speedup needs a value");
                min_speedup = v.parse().expect("--min-speedup must be a number");
            }
            "--json" => json = Some(it.next().expect("--json needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }

    let native = desh_nn::kernel_backend();
    println!("native kernel backend: {}", native.name());

    let mut rng = Xoshiro256pp::seed_from_u64(2018);
    let mut rows = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for (gated, &n) in GATE_SIZES
        .iter()
        .map(|n| (true, n))
        .chain(INFO_SIZES.iter().map(|n| (false, n)))
    {
        let x = Mat::from_fn(1, n, |_, _| rng.f32() - 0.5);
        let w = Mat::from_fn(n, n, |_, _| rng.f32() - 0.5);
        let (scalar_s, simd_s) = time_gemv_pair(&x, &w, native);
        let speedup = scalar_s / simd_s;
        if gated {
            worst_speedup = worst_speedup.min(speedup);
        }
        println!(
            "gemv {n}x{n}: scalar {:.1} ns, {} {:.1} ns -> {speedup:.2}x{}",
            scalar_s * 1e9,
            native.name(),
            simd_s * 1e9,
            if gated { "" } else { " (info only)" }
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"scalar_ns\": {:.1}, \"simd_ns\": {:.1}, \"speedup\": {speedup:.2}, \"gated\": {gated}}}",
            scalar_s * 1e9,
            simd_s * 1e9
        ));
    }

    if let Some(path) = &json {
        let body = format!(
            "{{\n  \"experiment\": \"kernel_check\",\n  \"backend\": \"{}\",\n  \"min_speedup\": {min_speedup},\n  \"gemv\": [\n{}\n  ]\n}}\n",
            native.name(),
            rows.join(",\n")
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, body).expect("write kernel_check json");
        println!("wrote {path}");
    }

    if native == Backend::Scalar {
        println!("scalar backend active; speedup gate skipped");
        return;
    }
    if worst_speedup < min_speedup {
        eprintln!(
            "FAIL: {} GEMV speedup {worst_speedup:.2}x below required {min_speedup:.2}x",
            native.name()
        );
        std::process::exit(1);
    }
    println!("{} GEMV speedup {worst_speedup:.2}x meets the {min_speedup:.2}x bar", native.name());
}
