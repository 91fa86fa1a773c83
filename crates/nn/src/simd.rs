//! Runtime-dispatched SIMD micro-kernels for the GEMM/GEMV hot paths and
//! the fused LSTM gate activations.
//!
//! Every kernel here exists in (up to) three variants selected once per
//! process by [`backend`]:
//!
//! * **scalar** — byte-for-byte the loops the pure-Rust kernels have always
//!   used, so forcing `DESH_SIMD=off` reproduces historical results
//!   bit-identically.
//! * **avx2+fma** (x86_64) — 8-wide `__m256` lanes with FMA contraction
//!   and a polynomial `exp` for the gate sigmoids/tanhs.
//! * **neon** (aarch64) — the same shapes on 2×4-wide `float32x4_t` lanes.
//!
//! Dispatch is a relaxed atomic load plus a jump, resolved from CPU feature
//! detection on first use and overridable two ways: the `DESH_SIMD`
//! environment variable (`off`/`scalar` forces the fallback — this is what
//! the CI scalar leg sets) and [`set_backend`] for in-process A/B use by
//! benches and property tests.
//!
//! Numerical contract: the scalar backend is exact legacy behaviour. The
//! SIMD backends may reassociate GEMM sums (FMA) and use an `exp`
//! polynomial accurate to ~1 ulp×10 for the activations; every variant
//! stays inside the f64 triple-loop oracle tolerances enforced by
//! `crates/nn/tests/proptests.rs`. Within one backend the *same* per-element
//! gate formula is used by both the inference scratch path and the training
//! tape path, so the two stay bit-identical to each other — a property the
//! cross-path `assert_eq!` tests in `lstm.rs`/`models.rs` rely on.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel family is active. `Neon` only ever resolves on aarch64 and
/// `Avx2Fma` only on x86_64 with AVX2+FMA advertised; [`set_backend`]
/// clamps unsupported requests to [`Backend::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Legacy pure-Rust loops (bit-identical to the pre-SIMD kernels).
    Scalar,
    /// 8-wide AVX2 + FMA (x86_64).
    Avx2Fma,
    /// 4-wide NEON (aarch64).
    Neon,
}

impl Backend {
    /// Stable short label used in provenance lines and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
            Backend::Neon => "neon",
        }
    }

    /// Numeric code exported through the `nn.kernel_backend` gauge
    /// (0 = scalar, 1 = avx2+fma, 2 = neon).
    pub fn code(self) -> u8 {
        match self {
            Backend::Scalar => 0,
            Backend::Avx2Fma => 1,
            Backend::Neon => 2,
        }
    }
}

/// 0 = unresolved; otherwise `Backend::code() + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn detect() -> Backend {
    match std::env::var("DESH_SIMD").as_deref() {
        Ok("off") | Ok("scalar") | Ok("0") => return Backend::Scalar,
        Ok("avx2") | Ok("neon") | Ok("auto") | Ok(_) | Err(_) => {}
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Backend::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is baseline on aarch64.
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
}

fn supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
        Backend::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// The active kernel backend, resolving it on first call.
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2Fma,
        3 => Backend::Neon,
        _ => {
            let b = detect();
            ACTIVE.store(b.code() + 1, Ordering::Relaxed);
            b
        }
    }
}

/// Force a backend for the rest of the process (benches and property tests
/// use this to compare variants in one run). Requests the host cannot
/// execute are clamped to scalar; returns the backend actually installed.
pub fn set_backend(b: Backend) -> Backend {
    let b = if supported(b) { b } else { Backend::Scalar };
    ACTIVE.store(b.code() + 1, Ordering::Relaxed);
    b
}

/// Short label of the active backend (`scalar` / `avx2+fma` / `neon`).
pub fn backend_name() -> &'static str {
    backend().name()
}

// ---------------------------------------------------------------------------
// Dispatch wrappers
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// Dense-row GEMV accumulate: `out[0..n] += a (len k) @ B[:, lo..lo+n]`
/// where `b` has row stride `bcols`.
pub(crate) fn gemv_dense_acc(
    a: &[f32],
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: &mut [f32],
) {
    dispatch!(gemv_dense_acc(a, b, bcols, lo, n, out))
}

/// Fused two-row twin of [`gemv_dense_acc`]: one sweep of `B` feeds both
/// rows' accumulators. Every output element still folds the identical
/// k-ascending chain the single-row kernel uses, so each row's result is
/// bit-for-bit what two single-row calls produce — only the `B` loads are
/// shared. Rows must not alias.
pub(crate) fn gemv_dense_acc2(
    a: [&[f32]; 2],
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: [&mut [f32]; 2],
) {
    dispatch!(gemv_dense_acc2(a, b, bcols, lo, n, out))
}

/// Four-row twin of [`gemv_dense_acc2`]; same bit-exactness contract,
/// quarter the `B` traffic.
pub(crate) fn gemv_dense_acc4(
    a: [&[f32]; 4],
    b: &[f32],
    bcols: usize,
    lo: usize,
    n: usize,
    out: [&mut [f32]; 4],
) {
    dispatch!(gemv_dense_acc4(a, b, bcols, lo, n, out))
}

/// The MR×NR register-tiled micro-kernel over packed panels; see
/// `mat.rs` for the packing layout.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
pub(crate) fn microkernel_acc(
    pa: &[f32],
    pb: &[f32],
    kb: usize,
    rows: &mut [f32],
    ldc: usize,
    j0: usize,
    mb: usize,
    nb: usize,
) {
    dispatch!(microkernel_acc(pa, pb, kb, rows, ldc, j0, mb, nb))
}

/// Contiguous dot product (the `A @ Bᵀ` small-shape kernel).
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    dispatch!(dot(a, b))
}

/// Fused LSTM gate activations for one batch row of the inference path:
/// reads the `[i|f|g|o]` pre-activation row (len `4*hsz`) and updates the
/// cell and hidden rows in place.
pub(crate) fn lstm_gates_step(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
    dispatch!(lstm_gates_step(pre, c, h))
}

/// Fused LSTM gate activations for one batch row of the training path:
/// same math as [`lstm_gates_step`] but materialises i/f/g/o/c/h for the
/// tape.
#[allow(clippy::too_many_arguments)] // one output row per gate tensor
pub(crate) fn lstm_gates_train(
    pre: &[f32],
    c_prev: &[f32],
    i: &mut [f32],
    f: &mut [f32],
    g: &mut [f32],
    o: &mut [f32],
    c: &mut [f32],
    h: &mut [f32],
) {
    dispatch!(lstm_gates_train(pre, c_prev, i, f, g, o, c, h))
}

// ---------------------------------------------------------------------------
// Scalar backend: byte-for-byte the historical pure-Rust loops
// ---------------------------------------------------------------------------

mod scalar {
    use crate::act::sigmoid;
    use crate::mat::{MR, NR};

    pub(super) fn gemv_dense_acc(
        a: &[f32],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let k = a.len();
        let out = &mut out[..n];
        // Dense row: 4-way k unrolling keeps four B rows streaming per
        // pass over `out`, quartering the number of read-modify-write
        // sweeps.
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (a[kk], a[kk + 1], a[kk + 2], a[kk + 3]);
            let r0 = &b[kk * bcols + lo..kk * bcols + lo + n];
            let r1 = &b[(kk + 1) * bcols + lo..(kk + 1) * bcols + lo + n];
            let r2 = &b[(kk + 2) * bcols + lo..(kk + 2) * bcols + lo + n];
            let r3 = &b[(kk + 3) * bcols + lo..(kk + 3) * bcols + lo + n];
            #[allow(clippy::needless_range_loop)]
            for j in 0..n {
                out[j] += a0 * r0[j] + a1 * r1[j] + a2 * r2[j] + a3 * r3[j];
            }
            kk += 4;
        }
        for kk in kk..k {
            let av = a[kk];
            let brow = &b[kk * bcols + lo..kk * bcols + lo + n];
            for (o, &bv) in out.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }

    // The scalar backend has no load-bandwidth story to optimise, so the
    // fused multi-row forms are literally per-row calls (which is also
    // what makes them trivially bit-identical to the single-row kernel).
    pub(super) fn gemv_dense_acc2(
        a: [&[f32]; 2],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 2],
    ) {
        for (ar, or) in a.into_iter().zip(out) {
            gemv_dense_acc(ar, b, bcols, lo, n, or);
        }
    }

    pub(super) fn gemv_dense_acc4(
        a: [&[f32]; 4],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 4],
    ) {
        for (ar, or) in a.into_iter().zip(out) {
            gemv_dense_acc(ar, b, bcols, lo, n, or);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn microkernel_acc(
        pa: &[f32],
        pb: &[f32],
        kb: usize,
        rows: &mut [f32],
        ldc: usize,
        j0: usize,
        mb: usize,
        nb: usize,
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..kb {
            let av = &pa[kk * MR..kk * MR + MR];
            let bv = &pb[kk * NR..kk * NR + NR];
            for r in 0..MR {
                let ar = av[r];
                for j in 0..NR {
                    acc[r][j] += ar * bv[j];
                }
            }
        }
        for r in 0..mb {
            let orow = &mut rows[r * ldc + j0..r * ldc + j0 + nb];
            for (o, v) in orow.iter_mut().zip(acc[r].iter()) {
                *o += v;
            }
        }
    }

    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let av = &a[c * 8..c * 8 + 8];
            let bv = &b[c * 8..c * 8 + 8];
            for j in 0..8 {
                acc[j] += av[j] * bv[j];
            }
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for i in chunks * 8..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    pub(super) fn lstm_gates_step(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
        let hsz = c.len();
        for k in 0..hsz {
            let i = sigmoid(pre[k]);
            let f = sigmoid(pre[hsz + k]);
            let g = pre[2 * hsz + k].tanh();
            let o = sigmoid(pre[3 * hsz + k]);
            let cv = f * c[k] + i * g;
            c[k] = cv;
            h[k] = o * cv.tanh();
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn lstm_gates_train(
        pre: &[f32],
        c_prev: &[f32],
        i: &mut [f32],
        f: &mut [f32],
        g: &mut [f32],
        o: &mut [f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        let hsz = c_prev.len();
        for k in 0..hsz {
            // Identical scalar expressions to `lstm_gates_step`, so the
            // tape path and the scratch path agree bitwise.
            let iv = sigmoid(pre[k]);
            let fv = sigmoid(pre[hsz + k]);
            let gv = pre[2 * hsz + k].tanh();
            let ov = sigmoid(pre[3 * hsz + k]);
            let cv = fv * c_prev[k] + iv * gv;
            i[k] = iv;
            f[k] = fv;
            g[k] = gv;
            o[k] = ov;
            c[k] = cv;
            h[k] = ov * cv.tanh();
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend (x86_64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::act::sigmoid;
    use crate::mat::{MR, NR};
    use std::arch::x86_64::*;

    // Cephes-style polynomial exp, the standard 8-wide f32 kernel
    // (max relative error ~2e-7 over the clamped domain).
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_5e-1;
    const P5: f32 = 5.000_000_3e-1;

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        // n = floor(x · log2(e) + 0.5)
        let fx = _mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5));
        let fx = _mm256_floor_ps(fx);
        // r = x − n·ln2 in two pieces for precision.
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_HI), x);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_LO), x);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P5));
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // y · 2ⁿ via exponent-field construction.
        let n = _mm256_cvttps_epi32(fx);
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2n)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sigmoid8(x: __m256) -> __m256 {
        // 1 / (1 + exp(−x)); exp saturates finite at the clamp, so no NaN.
        let e = exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        // tanh(x) = (e^{2x} − 1) / (e^{2x} + 1), with |x| clamped to 9
        // where f32 tanh is already saturated, keeping e^{2x} finite.
        let x = _mm256_min_ps(x, _mm256_set1_ps(9.0));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-9.0));
        let e = exp8(_mm256_add_ps(x, x));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }

    /// Batch-1 dense GEMV, register-blocked on the output columns: the
    /// accumulators for a block live in ymm registers across the whole
    /// `k` loop, so `out` is touched once per block rather than once per
    /// pass, and the independent FMA chains (eight per 64-column block)
    /// hide the FMA latency that a load/modify/store sweep serialises on.
    /// The compiler auto-vectorises the scalar fallback to SSE width, so
    /// this structure — not just wider lanes — is where the speedup over
    /// the scalar backend comes from.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemv_dense_acc(
        a: &[f32],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let k = a.len();
        let out = &mut out[..n];
        let ap = a.as_ptr();
        let bp = b.as_ptr().add(lo);
        let op = out.as_mut_ptr();
        let mut j = 0;
        // Prefetch pays only once B spills L1d (~48 KiB on current parts)
        // and rows start arriving from L2; on L1-resident matrices the
        // extra load-port µops just steal slots from the FMA-feeding loads.
        let spills_l1 = k * bcols * 4 > 48 * 1024;
        // 64-column blocks: eight independent accumulators.
        while j + 64 <= n {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (v, accv) in acc.iter_mut().enumerate() {
                *accv = _mm256_loadu_ps(op.add(j + 8 * v));
            }
            for kk in 0..k {
                let av = _mm256_set1_ps(*ap.add(kk));
                let row = bp.add(kk * bcols + j);
                // Pull the row a few k-steps ahead toward L1: once B
                // spills L1d the loop runs at L2 bandwidth, so keeping
                // misses outstanding is worth the extra load µops.
                if spills_l1 && kk + 6 < k {
                    let pf = bp.add((kk + 6) * bcols + j) as *const i8;
                    _mm_prefetch(pf, _MM_HINT_T0);
                    _mm_prefetch(pf.add(64), _MM_HINT_T0);
                    _mm_prefetch(pf.add(128), _MM_HINT_T0);
                    _mm_prefetch(pf.add(192), _MM_HINT_T0);
                }
                for (v, accv) in acc.iter_mut().enumerate() {
                    *accv = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8 * v)), *accv);
                }
            }
            for (v, accv) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(j + 8 * v), *accv);
            }
            j += 64;
        }
        // 32-column blocks: four output vectors × an even/odd k split
        // keeps eight FMA chains in flight.
        while j + 32 <= n {
            let mut even = [_mm256_setzero_ps(); 4];
            let mut odd = [_mm256_setzero_ps(); 4];
            for (v, ev) in even.iter_mut().enumerate() {
                *ev = _mm256_loadu_ps(op.add(j + 8 * v));
            }
            let mut kk = 0;
            while kk + 2 <= k {
                let av0 = _mm256_set1_ps(*ap.add(kk));
                let av1 = _mm256_set1_ps(*ap.add(kk + 1));
                let row0 = bp.add(kk * bcols + j);
                let row1 = bp.add((kk + 1) * bcols + j);
                for v in 0..4 {
                    even[v] = _mm256_fmadd_ps(av0, _mm256_loadu_ps(row0.add(8 * v)), even[v]);
                    odd[v] = _mm256_fmadd_ps(av1, _mm256_loadu_ps(row1.add(8 * v)), odd[v]);
                }
                kk += 2;
            }
            if kk < k {
                let av = _mm256_set1_ps(*ap.add(kk));
                let row = bp.add(kk * bcols + j);
                for (v, ev) in even.iter_mut().enumerate() {
                    *ev = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8 * v)), *ev);
                }
            }
            for v in 0..4 {
                _mm256_storeu_ps(op.add(j + 8 * v), _mm256_add_ps(even[v], odd[v]));
            }
            j += 32;
        }
        // 16-column blocks for the midfield. Two output vectors alone
        // would leave only two FMA chains in flight, so `k` is split
        // across even/odd accumulator pairs (four chains) and the pairs
        // summed once at the end.
        while j + 16 <= n {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut kk = 0;
            while kk + 2 <= k {
                let av0 = _mm256_set1_ps(*ap.add(kk));
                let av1 = _mm256_set1_ps(*ap.add(kk + 1));
                let row0 = bp.add(kk * bcols + j);
                let row1 = bp.add((kk + 1) * bcols + j);
                acc0 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(row0), acc0);
                acc1 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(row0.add(8)), acc1);
                acc2 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(row1), acc2);
                acc3 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(row1.add(8)), acc3);
                kk += 2;
            }
            if kk < k {
                let av = _mm256_set1_ps(*ap.add(kk));
                let row = bp.add(kk * bcols + j);
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row), acc0);
                acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8)), acc1);
            }
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(acc0, acc2));
            _mm256_storeu_ps(op.add(j + 8), _mm256_add_ps(acc1, acc3));
            j += 16;
        }
        // Final 8-column block: a single output vector would serialise
        // the FMA chain, so split `k` across four accumulators instead.
        while j + 8 <= n {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            let mut kk = 0;
            while kk + 4 <= k {
                let row0 = bp.add(kk * bcols + j);
                let row1 = bp.add((kk + 1) * bcols + j);
                let row2 = bp.add((kk + 2) * bcols + j);
                let row3 = bp.add((kk + 3) * bcols + j);
                acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(kk)), _mm256_loadu_ps(row0), acc0);
                acc1 =
                    _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(kk + 1)), _mm256_loadu_ps(row1), acc1);
                acc2 =
                    _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(kk + 2)), _mm256_loadu_ps(row2), acc2);
                acc3 =
                    _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(kk + 3)), _mm256_loadu_ps(row3), acc3);
                kk += 4;
            }
            for kk in kk..k {
                let av = _mm256_set1_ps(*ap.add(kk));
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(kk * bcols + j)), acc0);
            }
            let sum = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
            _mm256_storeu_ps(op.add(j), sum);
            j += 8;
        }
        // Scalar tail for the last n % 8 columns.
        if j < n {
            for kk in 0..k {
                let av = *ap.add(kk);
                let row = bp.add(kk * bcols);
                for (jj, o) in out.iter_mut().enumerate().skip(j) {
                    *o += av * *row.add(jj);
                }
            }
        }
    }

    /// Fused two-row GEMV: 32-column blocks, both rows' accumulators live
    /// across one shared k sweep of `B`, halving the weight-load traffic
    /// that bounds the batch-1 kernel once `B` spills L1d. Each output
    /// element folds the same straight k-ascending FMA chain as the
    /// single-row kernel's 64-column path, so the fused form is only
    /// taken when `n % 64 == 0` — i.e. when the single-row kernel would
    /// use that path for every column — and is then bit-identical per
    /// row. Other widths (where the single-row kernel switches to
    /// even/odd k-split accumulators) fall back to per-row calls.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemv_dense_acc2(
        a: [&[f32]; 2],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 2],
    ) {
        let [a0, a1] = a;
        let [o0, o1] = out;
        if !n.is_multiple_of(64) {
            gemv_dense_acc(a0, b, bcols, lo, n, o0);
            gemv_dense_acc(a1, b, bcols, lo, n, o1);
            return;
        }
        let k = a0.len();
        debug_assert_eq!(a1.len(), k);
        let (ap0, ap1) = (a0.as_ptr(), a1.as_ptr());
        let bp = b.as_ptr().add(lo);
        let (op0, op1) = (o0.as_mut_ptr(), o1.as_mut_ptr());
        let spills_l1 = k * bcols * 4 > 48 * 1024;
        let mut j = 0;
        while j + 32 <= n {
            let mut acc0 = [_mm256_setzero_ps(); 4];
            let mut acc1 = [_mm256_setzero_ps(); 4];
            for v in 0..4 {
                acc0[v] = _mm256_loadu_ps(op0.add(j + 8 * v));
                acc1[v] = _mm256_loadu_ps(op1.add(j + 8 * v));
            }
            for kk in 0..k {
                let av0 = _mm256_set1_ps(*ap0.add(kk));
                let av1 = _mm256_set1_ps(*ap1.add(kk));
                let row = bp.add(kk * bcols + j);
                if spills_l1 && kk + 6 < k {
                    let pf = bp.add((kk + 6) * bcols + j) as *const i8;
                    _mm_prefetch(pf, _MM_HINT_T0);
                    _mm_prefetch(pf.add(64), _MM_HINT_T0);
                }
                for v in 0..4 {
                    let bv = _mm256_loadu_ps(row.add(8 * v));
                    acc0[v] = _mm256_fmadd_ps(av0, bv, acc0[v]);
                    acc1[v] = _mm256_fmadd_ps(av1, bv, acc1[v]);
                }
            }
            for v in 0..4 {
                _mm256_storeu_ps(op0.add(j + 8 * v), acc0[v]);
                _mm256_storeu_ps(op1.add(j + 8 * v), acc1[v]);
            }
            j += 32;
        }
    }

    /// Fused four-row GEMV: 16-column blocks, four rows per shared `B`
    /// sweep (quarter traffic). Same contract as [`gemv_dense_acc2`]:
    /// straight k-ascending folds, fused only when `n % 64 == 0`,
    /// bit-identical per row to the single-row kernel.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemv_dense_acc4(
        a: [&[f32]; 4],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 4],
    ) {
        if !n.is_multiple_of(64) {
            for (ar, or) in a.into_iter().zip(out) {
                gemv_dense_acc(ar, b, bcols, lo, n, or);
            }
            return;
        }
        let k = a[0].len();
        debug_assert!(a.iter().all(|r| r.len() == k));
        let aps = [a[0].as_ptr(), a[1].as_ptr(), a[2].as_ptr(), a[3].as_ptr()];
        let bp = b.as_ptr().add(lo);
        let [o0, o1, o2, o3] = out;
        let ops = [
            o0.as_mut_ptr(),
            o1.as_mut_ptr(),
            o2.as_mut_ptr(),
            o3.as_mut_ptr(),
        ];
        let spills_l1 = k * bcols * 4 > 48 * 1024;
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; 4];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr[0] = _mm256_loadu_ps(ops[r].add(j));
                accr[1] = _mm256_loadu_ps(ops[r].add(j + 8));
            }
            for kk in 0..k {
                let row = bp.add(kk * bcols + j);
                if spills_l1 && kk + 6 < k {
                    _mm_prefetch(bp.add((kk + 6) * bcols + j) as *const i8, _MM_HINT_T0);
                }
                let bv0 = _mm256_loadu_ps(row);
                let bv1 = _mm256_loadu_ps(row.add(8));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*aps[r].add(kk));
                    accr[0] = _mm256_fmadd_ps(av, bv0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(av, bv1, accr[1]);
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(ops[r].add(j), accr[0]);
                _mm256_storeu_ps(ops[r].add(j + 8), accr[1]);
            }
            j += 16;
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn microkernel_acc(
        pa: &[f32],
        pb: &[f32],
        kb: usize,
        rows: &mut [f32],
        ldc: usize,
        j0: usize,
        mb: usize,
        nb: usize,
    ) {
        debug_assert_eq!(MR, 2);
        debug_assert_eq!(NR, 8);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let pap = pa.as_ptr();
        let pbp = pb.as_ptr();
        for kk in 0..kb {
            let bv = _mm256_loadu_ps(pbp.add(kk * NR));
            acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*pap.add(kk * MR)), bv, acc0);
            acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*pap.add(kk * MR + 1)), bv, acc1);
        }
        let mut buf = [[0.0f32; NR]; MR];
        _mm256_storeu_ps(buf[0].as_mut_ptr(), acc0);
        _mm256_storeu_ps(buf[1].as_mut_ptr(), acc1);
        for r in 0..mb {
            let orow = &mut rows[r * ldc + j0..r * ldc + j0 + nb];
            if nb == NR {
                let o = _mm256_add_ps(
                    _mm256_loadu_ps(orow.as_ptr()),
                    _mm256_loadu_ps(buf[r].as_ptr()),
                );
                _mm256_storeu_ps(orow.as_mut_ptr(), o);
            } else {
                for (o, v) in orow.iter_mut().zip(buf[r].iter()) {
                    *o += v;
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let n16 = n - n % 16;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i < n16 {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        let mut acc = _mm256_add_ps(acc0, acc1);
        while i + 8 <= n {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc);
            i += 8;
        }
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let s4 = _mm_add_ps(hi, lo);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2));
        let mut s = _mm_cvtss_f32(s1);
        for j in i..n {
            s += a[j] * b[j];
        }
        s
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lstm_gates_step(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
        let hsz = c.len();
        let h8 = hsz - hsz % 8;
        let pp = pre.as_ptr();
        let mut k = 0;
        while k < h8 {
            let i = sigmoid8(_mm256_loadu_ps(pp.add(k)));
            let f = sigmoid8(_mm256_loadu_ps(pp.add(hsz + k)));
            let g = tanh8(_mm256_loadu_ps(pp.add(2 * hsz + k)));
            let o = sigmoid8(_mm256_loadu_ps(pp.add(3 * hsz + k)));
            let cv = _mm256_fmadd_ps(f, _mm256_loadu_ps(c.as_ptr().add(k)), _mm256_mul_ps(i, g));
            _mm256_storeu_ps(c.as_mut_ptr().add(k), cv);
            _mm256_storeu_ps(h.as_mut_ptr().add(k), _mm256_mul_ps(o, tanh8(cv)));
            k += 8;
        }
        for k in h8..hsz {
            let i = sigmoid(pre[k]);
            let f = sigmoid(pre[hsz + k]);
            let g = pre[2 * hsz + k].tanh();
            let o = sigmoid(pre[3 * hsz + k]);
            let cv = f * c[k] + i * g;
            c[k] = cv;
            h[k] = o * cv.tanh();
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lstm_gates_train(
        pre: &[f32],
        c_prev: &[f32],
        i: &mut [f32],
        f: &mut [f32],
        g: &mut [f32],
        o: &mut [f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        let hsz = c_prev.len();
        let h8 = hsz - hsz % 8;
        let pp = pre.as_ptr();
        let mut k = 0;
        while k < h8 {
            // Same lane math as `lstm_gates_step`, so tape and scratch
            // paths agree bitwise under this backend too.
            let iv = sigmoid8(_mm256_loadu_ps(pp.add(k)));
            let fv = sigmoid8(_mm256_loadu_ps(pp.add(hsz + k)));
            let gv = tanh8(_mm256_loadu_ps(pp.add(2 * hsz + k)));
            let ov = sigmoid8(_mm256_loadu_ps(pp.add(3 * hsz + k)));
            let cv = _mm256_fmadd_ps(
                fv,
                _mm256_loadu_ps(c_prev.as_ptr().add(k)),
                _mm256_mul_ps(iv, gv),
            );
            _mm256_storeu_ps(i.as_mut_ptr().add(k), iv);
            _mm256_storeu_ps(f.as_mut_ptr().add(k), fv);
            _mm256_storeu_ps(g.as_mut_ptr().add(k), gv);
            _mm256_storeu_ps(o.as_mut_ptr().add(k), ov);
            _mm256_storeu_ps(c.as_mut_ptr().add(k), cv);
            _mm256_storeu_ps(h.as_mut_ptr().add(k), _mm256_mul_ps(ov, tanh8(cv)));
            k += 8;
        }
        for k in h8..hsz {
            let iv = sigmoid(pre[k]);
            let fv = sigmoid(pre[hsz + k]);
            let gv = pre[2 * hsz + k].tanh();
            let ov = sigmoid(pre[3 * hsz + k]);
            let cv = fv * c_prev[k] + iv * gv;
            i[k] = iv;
            f[k] = fv;
            g[k] = gv;
            o[k] = ov;
            c[k] = cv;
            h[k] = ov * cv.tanh();
        }
    }
}

// ---------------------------------------------------------------------------
// NEON backend (aarch64): same shapes on 2×4-wide lanes
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::act::sigmoid;
    use crate::mat::{MR, NR};
    use std::arch::aarch64::*;

    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_5e-1;
    const P5: f32 = 5.000_000_3e-1;

    #[inline]
    unsafe fn exp4(x: float32x4_t) -> float32x4_t {
        let x = vminq_f32(x, vdupq_n_f32(EXP_HI));
        let x = vmaxq_f32(x, vdupq_n_f32(EXP_LO));
        let fx = vrndmq_f32(vmlaq_f32(vdupq_n_f32(0.5), x, vdupq_n_f32(LOG2EF)));
        let x = vmlsq_f32(x, fx, vdupq_n_f32(LN2_HI));
        let x = vmlsq_f32(x, fx, vdupq_n_f32(LN2_LO));
        let z = vmulq_f32(x, x);
        let mut y = vdupq_n_f32(P0);
        y = vmlaq_f32(vdupq_n_f32(P1), y, x);
        y = vmlaq_f32(vdupq_n_f32(P2), y, x);
        y = vmlaq_f32(vdupq_n_f32(P3), y, x);
        y = vmlaq_f32(vdupq_n_f32(P4), y, x);
        y = vmlaq_f32(vdupq_n_f32(P5), y, x);
        y = vmlaq_f32(x, y, z);
        y = vaddq_f32(y, vdupq_n_f32(1.0));
        let n = vcvtq_s32_f32(fx);
        let pow2n = vreinterpretq_f32_s32(vshlq_n_s32::<23>(vaddq_s32(n, vdupq_n_s32(127))));
        vmulq_f32(y, pow2n)
    }

    #[inline]
    unsafe fn sigmoid4(x: float32x4_t) -> float32x4_t {
        let e = exp4(vnegq_f32(x));
        vdivq_f32(vdupq_n_f32(1.0), vaddq_f32(vdupq_n_f32(1.0), e))
    }

    #[inline]
    unsafe fn tanh4(x: float32x4_t) -> float32x4_t {
        let x = vminq_f32(x, vdupq_n_f32(9.0));
        let x = vmaxq_f32(x, vdupq_n_f32(-9.0));
        let e = exp4(vaddq_f32(x, x));
        let one = vdupq_n_f32(1.0);
        vdivq_f32(vsubq_f32(e, one), vaddq_f32(e, one))
    }

    pub(super) unsafe fn gemv_dense_acc(
        a: &[f32],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let k = a.len();
        let out = &mut out[..n];
        let n4 = n - n % 4;
        let mut kk = 0;
        while kk + 4 <= k {
            let av0 = vdupq_n_f32(a[kk]);
            let av1 = vdupq_n_f32(a[kk + 1]);
            let av2 = vdupq_n_f32(a[kk + 2]);
            let av3 = vdupq_n_f32(a[kk + 3]);
            let r0 = b.as_ptr().add(kk * bcols + lo);
            let r1 = b.as_ptr().add((kk + 1) * bcols + lo);
            let r2 = b.as_ptr().add((kk + 2) * bcols + lo);
            let r3 = b.as_ptr().add((kk + 3) * bcols + lo);
            let mut j = 0;
            while j < n4 {
                let mut acc = vld1q_f32(out.as_ptr().add(j));
                acc = vfmaq_f32(acc, av0, vld1q_f32(r0.add(j)));
                acc = vfmaq_f32(acc, av1, vld1q_f32(r1.add(j)));
                acc = vfmaq_f32(acc, av2, vld1q_f32(r2.add(j)));
                acc = vfmaq_f32(acc, av3, vld1q_f32(r3.add(j)));
                vst1q_f32(out.as_mut_ptr().add(j), acc);
                j += 4;
            }
            let (a0, a1, a2, a3) = (a[kk], a[kk + 1], a[kk + 2], a[kk + 3]);
            for j in n4..n {
                out[j] += a0 * *r0.add(j) + a1 * *r1.add(j) + a2 * *r2.add(j) + a3 * *r3.add(j);
            }
            kk += 4;
        }
        for kk in kk..k {
            let avs = a[kk];
            let av = vdupq_n_f32(avs);
            let row = b.as_ptr().add(kk * bcols + lo);
            let mut j = 0;
            while j < n4 {
                let acc = vld1q_f32(out.as_ptr().add(j));
                vst1q_f32(
                    out.as_mut_ptr().add(j),
                    vfmaq_f32(acc, av, vld1q_f32(row.add(j))),
                );
                j += 4;
            }
            for j in n4..n {
                out[j] += avs * *row.add(j);
            }
        }
    }

    // No fused multi-row form tuned for NEON yet: per-row calls keep the
    // bit-exactness contract trivially.
    pub(super) unsafe fn gemv_dense_acc2(
        a: [&[f32]; 2],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 2],
    ) {
        for (ar, or) in a.into_iter().zip(out) {
            gemv_dense_acc(ar, b, bcols, lo, n, or);
        }
    }

    pub(super) unsafe fn gemv_dense_acc4(
        a: [&[f32]; 4],
        b: &[f32],
        bcols: usize,
        lo: usize,
        n: usize,
        out: [&mut [f32]; 4],
    ) {
        for (ar, or) in a.into_iter().zip(out) {
            gemv_dense_acc(ar, b, bcols, lo, n, or);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn microkernel_acc(
        pa: &[f32],
        pb: &[f32],
        kb: usize,
        rows: &mut [f32],
        ldc: usize,
        j0: usize,
        mb: usize,
        nb: usize,
    ) {
        debug_assert_eq!(MR, 2);
        debug_assert_eq!(NR, 8);
        let mut acc0a = vdupq_n_f32(0.0);
        let mut acc0b = vdupq_n_f32(0.0);
        let mut acc1a = vdupq_n_f32(0.0);
        let mut acc1b = vdupq_n_f32(0.0);
        let pap = pa.as_ptr();
        let pbp = pb.as_ptr();
        for kk in 0..kb {
            let bva = vld1q_f32(pbp.add(kk * NR));
            let bvb = vld1q_f32(pbp.add(kk * NR + 4));
            let a0 = vdupq_n_f32(*pap.add(kk * MR));
            let a1 = vdupq_n_f32(*pap.add(kk * MR + 1));
            acc0a = vfmaq_f32(acc0a, a0, bva);
            acc0b = vfmaq_f32(acc0b, a0, bvb);
            acc1a = vfmaq_f32(acc1a, a1, bva);
            acc1b = vfmaq_f32(acc1b, a1, bvb);
        }
        let mut buf = [[0.0f32; NR]; MR];
        vst1q_f32(buf[0].as_mut_ptr(), acc0a);
        vst1q_f32(buf[0].as_mut_ptr().add(4), acc0b);
        vst1q_f32(buf[1].as_mut_ptr(), acc1a);
        vst1q_f32(buf[1].as_mut_ptr().add(4), acc1b);
        for r in 0..mb {
            let orow = &mut rows[r * ldc + j0..r * ldc + j0 + nb];
            for (o, v) in orow.iter_mut().zip(buf[r].iter()) {
                *o += v;
            }
        }
    }

    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let n8 = n - n % 8;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0;
        while i < n8 {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
            i += 8;
        }
        let mut s = vaddvq_f32(vaddq_f32(acc0, acc1));
        for j in i..n {
            s += a[j] * b[j];
        }
        s
    }

    pub(super) unsafe fn lstm_gates_step(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
        let hsz = c.len();
        let h4 = hsz - hsz % 4;
        let pp = pre.as_ptr();
        let mut k = 0;
        while k < h4 {
            let i = sigmoid4(vld1q_f32(pp.add(k)));
            let f = sigmoid4(vld1q_f32(pp.add(hsz + k)));
            let g = tanh4(vld1q_f32(pp.add(2 * hsz + k)));
            let o = sigmoid4(vld1q_f32(pp.add(3 * hsz + k)));
            let cv = vfmaq_f32(vmulq_f32(i, g), f, vld1q_f32(c.as_ptr().add(k)));
            vst1q_f32(c.as_mut_ptr().add(k), cv);
            vst1q_f32(h.as_mut_ptr().add(k), vmulq_f32(o, tanh4(cv)));
            k += 4;
        }
        for k in h4..hsz {
            let i = sigmoid(pre[k]);
            let f = sigmoid(pre[hsz + k]);
            let g = pre[2 * hsz + k].tanh();
            let o = sigmoid(pre[3 * hsz + k]);
            let cv = f * c[k] + i * g;
            c[k] = cv;
            h[k] = o * cv.tanh();
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn lstm_gates_train(
        pre: &[f32],
        c_prev: &[f32],
        i: &mut [f32],
        f: &mut [f32],
        g: &mut [f32],
        o: &mut [f32],
        c: &mut [f32],
        h: &mut [f32],
    ) {
        let hsz = c_prev.len();
        let h4 = hsz - hsz % 4;
        let pp = pre.as_ptr();
        let mut k = 0;
        while k < h4 {
            let iv = sigmoid4(vld1q_f32(pp.add(k)));
            let fv = sigmoid4(vld1q_f32(pp.add(hsz + k)));
            let gv = tanh4(vld1q_f32(pp.add(2 * hsz + k)));
            let ov = sigmoid4(vld1q_f32(pp.add(3 * hsz + k)));
            let cv = vfmaq_f32(vmulq_f32(iv, gv), fv, vld1q_f32(c_prev.as_ptr().add(k)));
            vst1q_f32(i.as_mut_ptr().add(k), iv);
            vst1q_f32(f.as_mut_ptr().add(k), fv);
            vst1q_f32(g.as_mut_ptr().add(k), gv);
            vst1q_f32(o.as_mut_ptr().add(k), ov);
            vst1q_f32(c.as_mut_ptr().add(k), cv);
            vst1q_f32(h.as_mut_ptr().add(k), vmulq_f32(ov, tanh4(cv)));
            k += 4;
        }
        for k in h4..hsz {
            let iv = sigmoid(pre[k]);
            let fv = sigmoid(pre[hsz + k]);
            let gv = pre[2 * hsz + k].tanh();
            let ov = sigmoid(pre[3 * hsz + k]);
            let cv = fv * c_prev[k] + iv * gv;
            i[k] = iv;
            f[k] = fv;
            g[k] = gv;
            o[k] = ov;
            c[k] = cv;
            h[k] = ov * cv.tanh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_util::Xoshiro256pp;

    fn randv(rng: &mut Xoshiro256pp, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| lo + (hi - lo) * rng.f32()).collect()
    }

    #[test]
    fn backend_resolves_and_names() {
        let b = backend();
        assert!(!b.name().is_empty());
        assert!(supported(b));
    }

    /// Every dispatched kernel agrees with its scalar variant to SIMD
    /// tolerance on shapes with ragged (non-multiple-of-lane) tails.
    #[test]
    fn simd_kernels_match_scalar() {
        let native = backend();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for &(k, n) in &[
            (1usize, 1usize),
            (3, 7),
            (8, 8),
            (13, 29),
            (64, 96),
            (57, 130),
        ] {
            let a = randv(&mut rng, k, -1.0, 1.0);
            let b = randv(&mut rng, k * n, -1.0, 1.0);
            let mut out_s = vec![0.25f32; n];
            let mut out_v = out_s.clone();
            scalar::gemv_dense_acc(&a, &b, n, 0, n, &mut out_s);
            set_backend(native);
            gemv_dense_acc(&a, &b, n, 0, n, &mut out_v);
            for (s, v) in out_s.iter().zip(&out_v) {
                assert!((s - v).abs() <= 1e-4, "gemv {k}x{n}: {s} vs {v}");
            }

            let d_s = scalar::dot(&a, &b[..k]);
            let d_v = dot(&a, &b[..k]);
            assert!((d_s - d_v).abs() <= 1e-4 * (k as f32).sqrt() + 1e-6);
        }
        set_backend(native);
    }

    /// The fused multi-row GEMVs must be BIT-identical per row to the
    /// single-row kernel on the active backend — the fleet wave path
    /// relies on this to keep batched streams byte-equal to their
    /// sequential batch=1 histories. Covers both the fused shape
    /// (n % 64 == 0) and the per-row fallback shapes.
    #[test]
    fn fused_multirow_gemv_bit_identical_to_single_row() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        for &(k, n) in &[(64usize, 256usize), (64, 128), (64, 96), (17, 40), (64, 5)] {
            let rows: Vec<Vec<f32>> = (0..4).map(|_| randv(&mut rng, k, -1.0, 1.0)).collect();
            let b = randv(&mut rng, k * n, -1.0, 1.0);
            let init = randv(&mut rng, n, -0.5, 0.5);
            let single: Vec<Vec<f32>> = rows
                .iter()
                .map(|a| {
                    let mut out = init.clone();
                    gemv_dense_acc(a, &b, n, 0, n, &mut out);
                    out
                })
                .collect();
            let mut o2: Vec<Vec<f32>> = vec![init.clone(); 2];
            {
                let (lo, hi) = o2.split_at_mut(1);
                gemv_dense_acc2(
                    [rows[0].as_slice(), rows[1].as_slice()],
                    &b,
                    n,
                    0,
                    n,
                    [lo[0].as_mut_slice(), hi[0].as_mut_slice()],
                );
            }
            let mut o4: Vec<Vec<f32>> = vec![init.clone(); 4];
            {
                let (ab, cd) = o4.split_at_mut(2);
                let (oa, ob) = ab.split_at_mut(1);
                let (oc, od) = cd.split_at_mut(1);
                gemv_dense_acc4(
                    [
                        rows[0].as_slice(),
                        rows[1].as_slice(),
                        rows[2].as_slice(),
                        rows[3].as_slice(),
                    ],
                    &b,
                    n,
                    0,
                    n,
                    [
                        oa[0].as_mut_slice(),
                        ob[0].as_mut_slice(),
                        oc[0].as_mut_slice(),
                        od[0].as_mut_slice(),
                    ],
                );
            }
            for r in 0..2 {
                assert_eq!(
                    single[r].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    o2[r].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "acc2 row {r} diverged at {k}x{n}"
                );
            }
            for r in 0..4 {
                assert_eq!(
                    single[r].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    o4[r].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "acc4 row {r} diverged at {k}x{n}"
                );
            }
        }
    }

    #[test]
    fn fused_lstm_gates_match_scalar_reference() {
        let native = backend();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for &hsz in &[1usize, 4, 9, 32, 61] {
            let pre = randv(&mut rng, 4 * hsz, -4.0, 4.0);
            let c0 = randv(&mut rng, hsz, -1.0, 1.0);
            let mut c_s = c0.clone();
            let mut h_s = vec![0.0f32; hsz];
            scalar::lstm_gates_step(&pre, &mut c_s, &mut h_s);
            let mut c_v = c0.clone();
            let mut h_v = vec![0.0f32; hsz];
            set_backend(native);
            lstm_gates_step(&pre, &mut c_v, &mut h_v);
            for k in 0..hsz {
                assert!(
                    (c_s[k] - c_v[k]).abs() <= 2e-6,
                    "c[{k}] {} vs {}",
                    c_s[k],
                    c_v[k]
                );
                assert!(
                    (h_s[k] - h_v[k]).abs() <= 2e-6,
                    "h[{k}] {} vs {}",
                    h_s[k],
                    h_v[k]
                );
            }
            // Step and train variants agree bitwise within the active
            // backend (the cross-path invariant the model tests rely on).
            let (mut i, mut f, mut g, mut o) = (
                vec![0.0f32; hsz],
                vec![0.0f32; hsz],
                vec![0.0f32; hsz],
                vec![0.0f32; hsz],
            );
            let mut c_t = vec![0.0f32; hsz];
            let mut h_t = vec![0.0f32; hsz];
            lstm_gates_train(
                &pre, &c0, &mut i, &mut f, &mut g, &mut o, &mut c_t, &mut h_t,
            );
            assert_eq!(c_v, c_t);
            assert_eq!(h_v, h_t);
        }
        set_backend(native);
    }
}
