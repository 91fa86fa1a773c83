//! Property-based tests for the neural substrate.

use desh_nn::loss::{mse, mse_vec, softmax, softmax_xent, top_k};
use desh_nn::simd::set_backend;
use desh_nn::{Backend, Mat, TokenLstm, VectorLstm, WindowScratch};
use desh_util::Xoshiro256pp;
use proptest::prelude::*;
use std::sync::Mutex;

/// The kernel backend is process-global; tests that pin it must not
/// interleave with each other (the test binary is multi-threaded), nor
/// with tests that compare the bits of two computations, which a backend
/// switch between them would split across kernels.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| x)
}

/// Reference triple-loop product accumulated in f64 — the oracle the
/// packed/GEMV/sparse dispatch in `Mat::matmul` must agree with.
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows());
    Mat::from_fn(a.rows(), b.cols(), |i, j| {
        let mut s = 0.0f64;
        for kk in 0..a.cols() {
            s += a.row(i)[kk] as f64 * b.row(kk)[j] as f64;
        }
        s as f32
    })
}

fn random_mat(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.f32() * 2.0 - 1.0)
}

/// Tolerance for comparing an f32 kernel (whatever its summation order)
/// against the f64 oracle over a k-long inner product of values in [-1,1].
fn gemm_tol(k: usize) -> f32 {
    1e-5 * (k as f32).sqrt() + 1e-6
}

fn assert_mats_close(got: &Mat, want: &Mat, tol: f32) -> proptest::TestCaseResult {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.data().iter().zip(want.data()) {
        prop_assert!((g - w).abs() <= tol, "got {g} want {w} (tol {tol})");
    }
    Ok(())
}

proptest! {
    #[test]
    fn matmul_matches_naive_triple_loop(
        m in 1usize..40,
        k in 1usize..96,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        // Shapes straddle both dispatch thresholds: small products take the
        // plain ikj loop, large ones the cache-blocked packed kernel.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        assert_mats_close(&a.matmul(&b), &naive_matmul(&a, &b), gemm_tol(k))?;
    }

    #[test]
    fn matmul_degenerate_vectors_match_naive(
        k in 1usize..300,
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        // 1×k @ k×n exercises the dedicated GEMV path; m×k @ k×1 the
        // per-row dot path; 1×k @ k×1 both degeneracies at once.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let row = random_mat(1, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        assert_mats_close(&row.matmul(&b), &naive_matmul(&row, &b), gemm_tol(k))?;
        let a = random_mat(n, k, &mut rng);
        let col = random_mat(k, 1, &mut rng);
        assert_mats_close(&a.matmul(&col), &naive_matmul(&a, &col), gemm_tol(k))?;
        assert_mats_close(&row.matmul(&col), &naive_matmul(&row, &col), gemm_tol(k))?;
    }

    #[test]
    fn matmul_sparse_rows_match_naive(
        m in 1usize..24,
        k in 8usize..128,
        n in 1usize..32,
        seed in any::<u64>(),
    ) {
        // One-hot rows (phase-2 style inputs) route through the
        // zero-skipping axpy kernel; the result must still be exact.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = Mat::from_fn(m, k, |_, c| {
            if c == rng.below(k as u64) as usize { 1.0 } else { 0.0 }
        });
        let b = random_mat(k, n, &mut rng);
        assert_mats_close(&a.matmul(&b), &naive_matmul(&a, &b), gemm_tol(k))?;
    }

    #[test]
    fn matmul_into_and_acc_match_matmul(
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let _pinned = BACKEND_LOCK.lock().unwrap();
        let want = a.matmul(&b);
        let mut out = Mat::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.data(), want.data());
        // Accumulating on top of an existing value adds exactly one product.
        let mut acc = random_mat(m, n, &mut rng);
        let base = acc.clone();
        a.matmul_acc(&b, &mut acc);
        for i in 0..m * n {
            let diff = acc.data()[i] - base.data()[i];
            prop_assert!((diff - want.data()[i]).abs() <= gemm_tol(k));
        }
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..5,
        cols in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let logits = Mat::from_fn(rows, cols, |_, _| rng.f32() * 20.0 - 10.0);
        let p = softmax(&logits);
        for r in 0..rows {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn xent_loss_is_nonnegative_and_grad_rows_sum_to_zero(
        rows in 1usize..5,
        cols in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let logits = Mat::from_fn(rows, cols, |_, _| rng.f32() * 8.0 - 4.0);
        let targets: Vec<u32> = (0..rows).map(|_| rng.below(cols as u64) as u32).collect();
        let (loss, grad) = softmax_xent(&logits, &targets);
        prop_assert!(loss >= 0.0);
        // Each gradient row sums to ~0 (softmax minus one-hot).
        for r in 0..rows {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn mse_is_zero_iff_equal(xs in proptest::collection::vec(finite_f32(), 1..32)) {
        let a = Mat::from_vec(1, xs.len(), xs.clone());
        let (zero, grad) = mse(&a, &a);
        prop_assert_eq!(zero, 0.0);
        prop_assert!(grad.data().iter().all(|&g| g == 0.0));
        prop_assert_eq!(mse_vec(&xs, &xs), 0.0);
    }

    #[test]
    fn mse_is_symmetric(
        pairs in proptest::collection::vec((finite_f32(), finite_f32()), 1..16),
    ) {
        let xs: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        prop_assert!((mse_vec(&xs, &ys) - mse_vec(&ys, &xs)).abs() < 1e-9);
    }

    #[test]
    fn top_k_is_sorted_and_bounded(
        row in proptest::collection::vec(finite_f32(), 1..20),
        k in 1usize..25,
    ) {
        let top = top_k(&row, k);
        prop_assert_eq!(top.len(), k.min(row.len()));
        for w in top.windows(2) {
            prop_assert!(row[w[0] as usize] >= row[w[1] as usize]);
        }
    }

    #[test]
    fn token_lstm_checkpoint_round_trips_any_shape(
        vocab in 2usize..12,
        embed in 1usize..8,
        hidden in 1usize..12,
        layers in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let m = TokenLstm::new(vocab, embed, hidden, layers, &mut rng);
        let m2 = TokenLstm::from_bytes(m.to_bytes()).unwrap();
        let ctx: Vec<u32> = (0..4).map(|i| (i % vocab) as u32).collect();
        let _pinned = BACKEND_LOCK.lock().unwrap();
        prop_assert_eq!(m.predict_probs(&ctx), m2.predict_probs(&ctx));
    }

    #[test]
    fn vector_lstm_checkpoint_round_trips_any_shape(
        dim in 1usize..8,
        hidden in 1usize..12,
        layers in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let m = VectorLstm::new(dim, hidden, layers, &mut rng);
        let m2 = VectorLstm::from_bytes(m.to_bytes()).unwrap();
        let sample: Vec<f32> = (0..dim).map(|i| i as f32 * 0.1).collect();
        let w: Vec<&[f32]> = vec![&sample];
        let _pinned = BACKEND_LOCK.lock().unwrap();
        prop_assert_eq!(m.predict_next(&w, 5), m2.predict_next(&w, 5));
    }

    #[test]
    fn simd_and_scalar_gemv_both_match_f64_oracle(
        k in 1usize..200,
        n in 1usize..140,
        seed in any::<u64>(),
    ) {
        // The GEMV dispatch must agree with the f64 oracle under BOTH
        // backends — including n not a multiple of the 8/16/32/64-column
        // block tiers, where the tail paths run. Pinned under a lock
        // because the backend is process-global.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let x = random_mat(1, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let want = naive_matmul(&x, &b);
        let guard = BACKEND_LOCK.lock().unwrap();
        let native = desh_nn::kernel_backend();
        set_backend(Backend::Scalar);
        let got_scalar = x.matmul(&b);
        let got_scalar2 = x.matmul(&b);
        set_backend(native);
        let got_native = x.matmul(&b);
        drop(guard);
        // The scalar fallback is deterministic: same inputs, same bits.
        prop_assert_eq!(got_scalar.data(), got_scalar2.data());
        assert_mats_close(&got_scalar, &want, gemm_tol(k))?;
        assert_mats_close(&got_native, &want, gemm_tol(k))?;
    }

    #[test]
    fn simd_and_scalar_gemm_agree_on_ragged_shapes(
        m in 1usize..20,
        k in 1usize..80,
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        // Full GEMM through the packed microkernel path: scalar and SIMD
        // backends must stay within f32-reassociation distance of each
        // other on shapes with ragged MR/NR tails.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let guard = BACKEND_LOCK.lock().unwrap();
        let native = desh_nn::kernel_backend();
        set_backend(Backend::Scalar);
        let got_scalar = a.matmul(&b);
        set_backend(native);
        let got_native = a.matmul(&b);
        drop(guard);
        assert_mats_close(&got_native, &got_scalar, 2.0 * gemm_tol(k))?;
    }

    #[test]
    fn matmul_t_matches_naive_transpose_product(
        m in 1usize..24,
        k in 1usize..96,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        // `A @ Bᵀ` with B stored row-major [n,k]: the transpose-packed
        // kernel must match the oracle computed on the explicit transpose.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = random_mat(m, k, &mut rng);
        let b = random_mat(n, k, &mut rng);
        let bt = Mat::from_fn(k, n, |i, j| b.row(j)[i]);
        assert_mats_close(&a.matmul_t(&b), &naive_matmul(&a, &bt), gemm_tol(k))?;
    }

    #[test]
    fn t_matmul_matches_naive_transpose_product(
        m in 1usize..24,
        k in 1usize..96,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        // `Aᵀ @ B` with A stored row-major [k,m].
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let a = random_mat(k, m, &mut rng);
        let b = random_mat(k, n, &mut rng);
        let at = Mat::from_fn(m, k, |i, j| a.row(j)[i]);
        assert_mats_close(&a.t_matmul(&b), &naive_matmul(&at, &b), gemm_tol(k))?;
    }

    #[test]
    fn lstm_outputs_are_finite_for_any_reasonable_input(
        batch in 1usize..4,
        dim in 1usize..6,
        t in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let layer = desh_nn::LstmLayer::new(dim, 6, "l", &mut rng);
        let xs: Vec<Mat> = (0..t)
            .map(|_| Mat::from_fn(batch, dim, |_, _| rng.f32() * 10.0 - 5.0))
            .collect();
        let (hs, _) = layer.forward_seq(&xs);
        for h in hs {
            prop_assert!(h.data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn predict_next_ws_matches_predict_next_bit_for_bit(
        dim in 1usize..7,
        hidden in 1usize..10,
        layers in 1usize..3,
        history in 1usize..7,
        seed in any::<u64>(),
    ) {
        // Every window length from 1 to history + 2, shrinking then
        // growing so the padding cache is read out of fill order, through
        // one scratch reused across calls and across a switch to the
        // scalar backend and back.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let m = VectorLstm::new(dim, hidden, layers, &mut rng);
        let lens: Vec<usize> = (1..=history + 2).rev().chain(1..=history + 2).collect();
        let mut sw = WindowScratch::new();
        let mut mismatches = Vec::new();
        let guard = BACKEND_LOCK.lock().unwrap();
        let native = desh_nn::kernel_backend();
        for backend in [native, Backend::Scalar, native] {
            set_backend(backend);
            for &len in &lens {
                let rows: Vec<Vec<f32>> = (0..len)
                    .map(|_| (0..dim).map(|_| rng.f32() * 2.0 - 1.0).collect())
                    .collect();
                let window: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                sw.clear();
                for r in &rows {
                    sw.push_row(dim).copy_from_slice(r);
                }
                let want = m.predict_next(&window, history);
                let got = m.predict_next_ws(history, &mut sw);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(got) != bits(&want) {
                    mismatches.push((backend.name(), len));
                }
            }
        }
        set_backend(native);
        drop(guard);
        prop_assert!(mismatches.is_empty(), "diverged at {:?}", mismatches);
    }
}

#[test]
fn set_backend_clamps_unsupported() {
    let _pinned = BACKEND_LOCK.lock().unwrap();
    let prev = desh_nn::kernel_backend();
    #[cfg(not(target_arch = "aarch64"))]
    assert_eq!(set_backend(Backend::Neon), Backend::Scalar);
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(set_backend(Backend::Avx2Fma), Backend::Scalar);
    set_backend(prev);
}

#[test]
fn first_step_table_follows_a_backend_switch() {
    // A batch whose first-step table was filled under the native backend
    // keeps matching sequential streams after a switch to scalar and
    // back: the table refills under each backend instead of serving the
    // other backend's bits.
    let vocab = 5usize;
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let m = VectorLstm::new(vocab + 1, 8, 2, &mut rng);
    let first = |phrase: usize| {
        let mut v = vec![0.0f32; vocab + 1];
        v[1 + phrase] = 1.0;
        v
    };
    let slots = 4usize;
    let mut sb = m.begin_stream_batch(slots);
    let mut scores = Vec::new();
    let mut mismatches = Vec::new();
    let guard = BACKEND_LOCK.lock().unwrap();
    let native = desh_nn::kernel_backend();
    let order = [native, native, Backend::Scalar, Backend::Scalar, native];
    for (round, &backend) in order.iter().enumerate() {
        set_backend(backend);
        // The first round under a backend refills the table; a round
        // after one under the same backend finds it filled.
        let refill = round == 0 || order[round - 1] != backend;
        let mut seq: Vec<_> = (0..slots).map(|_| m.begin_stream()).collect();
        let rows: Vec<usize> = (0..slots).collect();
        for s in 0..slots {
            sb.reset_slot(s);
        }
        // A one-hot first sample per slot (slots 1 and 2 share phrase 2),
        // then a later sample that carries the state forward.
        let waves: Vec<Vec<Vec<f32>>> = vec![
            (0..slots).map(|s| first(s.div_ceil(2) + 1)).collect(),
            (0..slots)
                .map(|_| (0..=vocab).map(|_| rng.f32() - 0.5).collect())
                .collect(),
        ];
        for (w, wave) in waves.iter().enumerate() {
            for (s, x) in wave.iter().enumerate() {
                sb.input_row_mut(s).copy_from_slice(x);
            }
            let cached = m.stream_push_rows(&mut sb, &rows, &mut scores);
            if w == 0 && cached != if refill { 0 } else { slots } {
                mismatches.push(format!("round {round}: {cached} rows served"));
            }
            for (s, x) in wave.iter().enumerate() {
                let want = m.stream_push(&mut seq[s], x);
                if scores[s].map(f64::to_bits) != want.map(f64::to_bits) {
                    mismatches.push(format!("round {round} wave {w} slot {s}: score"));
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(sb.prediction(s)) != bits(seq[s].prediction()) {
                    mismatches.push(format!("round {round} wave {w} slot {s}: prediction"));
                }
            }
        }
    }
    set_backend(native);
    drop(guard);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
