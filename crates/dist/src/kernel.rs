//! Runtime-dispatched dense convolution kernels.
//!
//! The blocked 4-tap scalar kernel that every lattice operator bottoms
//! out in is the single hot loop under every selector sweep and
//! campaign. This module keeps that kernel's exact arithmetic contract —
//! per output bin, tap contributions accumulate in ascending tap order,
//! each as a separate IEEE multiply then add — and vectorizes it across
//! *output columns*: each SIMD lane performs, for its own column, the
//! identical mul-then-add sequence the scalar kernel performs. IEEE 754
//! arithmetic is deterministic per operation, so every backend is
//! **bit-identical** to the scalar kernel (pinned by the tests in
//! `tests/kernels.rs` and the tap-order test below).
//!
//! Deliberately **no FMA**: a fused multiply-add rounds once where the
//! scalar kernel rounds twice, which would break the bitwise contract
//! the downstream determinism guarantees (parallel-equals-serial
//! selection, campaign report byte-equality) are built on. The win here
//! is data-parallel width, not fused latency.
//!
//! Backend selection is a one-time runtime decision
//! ([`KernelBackend::active`]): the best instruction set the CPU
//! reports, overridable by the `STATSIZE_KERNEL_TIER` environment
//! variable.

// SIMD intrinsics require `unsafe`; the workspace denies unsafe code
// everywhere else. Every unsafe block here is a feature-gated intrinsic
// call whose output is pinned bit-for-bit to safe scalar code by tests.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Environment variable pinning the kernel backend process-wide:
/// `scalar` | `sse2` | `simd`. Read once, at the first kernel dispatch.
const KERNEL_TIER_ENV: &str = "STATSIZE_KERNEL_TIER";

/// A parsed `STATSIZE_KERNEL_TIER` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelTier {
    /// Pin the portable scalar backend.
    Scalar,
    /// Pin SSE2 (scalar where unavailable).
    Sse2,
    /// The best backend the CPU reports — the same as no setting.
    Simd,
}

/// Parses a `STATSIZE_KERNEL_TIER` value (case- and
/// whitespace-insensitive). `None` for an empty or unrecognized value.
fn parse_kernel_tier(raw: &str) -> Option<KernelTier> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(KernelTier::Scalar),
        "sse2" => Some(KernelTier::Sse2),
        "simd" | "avx2" | "neon" => Some(KernelTier::Simd),
        _ => None,
    }
}

/// The process's `STATSIZE_KERNEL_TIER` setting; warns once on stderr
/// about a value that is set but unrecognized.
fn env_kernel_tier() -> Option<KernelTier> {
    let raw = std::env::var(KERNEL_TIER_ENV).ok()?;
    let tier = parse_kernel_tier(&raw);
    if tier.is_none() && !raw.trim().is_empty() {
        eprintln!(
            "warning: unrecognized {KERNEL_TIER_ENV}={:?} \
             (expected scalar|sse2|simd); using runtime dispatch",
            raw.trim().to_ascii_lowercase()
        );
    }
    tier
}

/// A kernel policy that carries no choice: every convolution takes the
/// one bit-exact dense kernel. It survives only as the ignored argument
/// of `SstaAnalysis::update_after_delay_change_with_undo`.
#[derive(Debug, Clone, Copy)]
pub struct TierPolicy;

impl TierPolicy {
    /// The only policy: the bit-exact dense kernel.
    pub fn exact() -> Self {
        TierPolicy
    }
}

/// A dense convolution backend: one fixed instruction-set lowering of
/// the blocked 4-tap kernel. All backends are bit-identical; they differ
/// only in how many output columns they advance per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar kernel — always available, the reference the
    /// other backends are pinned against.
    Scalar,
    /// SSE2 (x86-64): two output columns per instruction.
    Sse2,
    /// AVX2 (x86-64): four output columns per instruction. FMA is
    /// deliberately not used even where available (see module docs).
    Avx2,
    /// NEON (AArch64): two output columns per instruction.
    Neon,
}

impl KernelBackend {
    /// Every backend, scalar first.
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
        KernelBackend::Neon,
    ];

    /// Whether this CPU can run the backend.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest backend this CPU supports.
    pub fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return KernelBackend::Avx2;
            }
            if is_x86_feature_detected!("sse2") {
                return KernelBackend::Sse2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return KernelBackend::Neon;
            }
        }
        KernelBackend::Scalar
    }

    /// The backend every dense convolution in this process dispatches
    /// to: the detected best, unless `STATSIZE_KERNEL_TIER` pins a
    /// backend (`scalar`, `sse2`). Decided once and cached — the dispatch
    /// itself costs one enum match per tap block.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
        *ACTIVE.get_or_init(|| match env_kernel_tier() {
            Some(KernelTier::Scalar) => KernelBackend::Scalar,
            Some(KernelTier::Sse2) if KernelBackend::Sse2.is_available() => KernelBackend::Sse2,
            Some(KernelTier::Sse2) => KernelBackend::Scalar,
            _ => KernelBackend::detected(),
        })
    }

    /// Stable lowercase name (bench row labels).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Neon => "neon",
        }
    }
}

/// Raw discrete convolution of two mass vectors into `out` (cleared
/// first), on the process-wide [`KernelBackend::active`] backend.
/// Returns the left-fold total `Σ out[k]` in index order — bit-identical
/// to `out.iter().sum()` — folded in as output regions become final, so
/// the normalization pass needs no separate summation sweep.
pub(crate) fn convolve_raw(a: &[f64], b: &[f64], out: &mut Vec<f64>) -> f64 {
    convolve_raw_with(KernelBackend::active(), a, b, out)
}

/// The dense convolution kernel on an explicitly forced backend — the
/// test and bench surface behind the bit-identity contract.
///
/// # Panics
///
/// Panics if the backend is unavailable on this CPU or either mass
/// vector is empty.
pub fn convolve_with_backend(
    backend: KernelBackend,
    a: &[f64],
    b: &[f64],
    out: &mut Vec<f64>,
) -> f64 {
    assert!(
        backend.is_available(),
        "kernel backend {backend:?} is not available on this CPU"
    );
    assert!(
        !a.is_empty() && !b.is_empty(),
        "mass vectors must be non-empty"
    );
    convolve_raw_with(backend, a, b, out)
}

/// The shared kernel skeleton. The shorter operand's taps drive the
/// outer structure — fewer passes over the long accumulator keep this
/// cache-friendly for the common wide-arrival × narrow-delay case — and
/// taps are blocked four at a time so each pass over the output performs
/// four multiply-adds per load and store instead of one. Only the
/// all-taps-overlap interior columns are backend-dispatched; edge
/// columns, the sub-block tap remainder, and the running total fold stay
/// shared scalar code.
fn convolve_raw_with(backend: KernelBackend, a: &[f64], b: &[f64], out: &mut Vec<f64>) -> f64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let l = long.len();
    out.clear();
    out.resize(short.len() + l - 1, 0.0);
    let mut total = 0.0;
    let mut summed = 0usize;
    let chunks = short.chunks_exact(4);
    let rem = chunks.remainder();
    for (c, q) in chunks.enumerate() {
        let base = 4 * c;
        let o = &mut out[base..base + l + 3];
        // Edge columns where fewer than four taps overlap the window.
        for j in (0..3).chain(l.max(3)..l + 3) {
            let mut v = o[j];
            for (k, &tap) in q.iter().enumerate() {
                if let Some(t) = j.checked_sub(k) {
                    if t < l {
                        v += tap * long[t];
                    }
                }
            }
            o[j] = v;
        }
        // Interior columns: all four taps hit. Dispatched; every backend
        // preserves the tap-ascending accumulation order per column.
        if l >= 4 {
            let q4 = [q[0], q[1], q[2], q[3]];
            interior_columns(backend, &q4, long, &mut o[3..l]);
        }
        // Columns below the next block's window are final; fold them
        // into the running total (ascending index order, once each).
        for &v in &out[summed..base + 4] {
            total += v;
        }
        summed = base + 4;
    }
    let done = short.len() - rem.len();
    for (k, &tap) in rem.iter().enumerate() {
        if tap == 0.0 {
            continue;
        }
        let i = done + k;
        for (o, &bq) in out[i..i + l].iter_mut().zip(long.iter()) {
            *o += tap * bq;
        }
    }
    for &v in &out[summed..] {
        total += v;
    }
    total
}

/// One tap block's interior columns: `cols[i] += Σₖ q[k]·long[i+3−k]`
/// accumulated in ascending `k`, with `cols = out[base+3 .. base+l]` and
/// `cols.len() == long.len() − 3`.
#[inline]
fn interior_columns(backend: KernelBackend, q: &[f64; 4], long: &[f64], cols: &mut [f64]) {
    debug_assert_eq!(cols.len() + 3, long.len());
    match backend {
        KernelBackend::Scalar => interior_scalar_from(q, long, cols, 0),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelBackend::active`/`convolve_with_backend` only
        // select a backend whose features the CPU reports.
        KernelBackend::Sse2 => unsafe { interior_sse2(q, long, cols) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2 was runtime-detected before selection.
        KernelBackend::Avx2 => unsafe { interior_avx2(q, long, cols) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above — NEON was runtime-detected before selection.
        KernelBackend::Neon => unsafe { interior_neon(q, long, cols) },
        // A backend from another architecture can only be *named* here,
        // never selected (is_available is false); fall back to scalar.
        #[allow(unreachable_patterns)]
        _ => interior_scalar_from(q, long, cols, 0),
    }
}

/// The scalar interior loop from column `start` — both the scalar
/// backend and every SIMD backend's sub-lane tail, so tail columns get
/// the exact same op sequence as full-width ones.
#[inline]
fn interior_scalar_from(q: &[f64; 4], long: &[f64], cols: &mut [f64], start: usize) {
    for (w, v) in long.windows(4).zip(cols.iter_mut()).skip(start) {
        let mut acc = *v;
        acc += q[0] * w[3];
        acc += q[1] * w[2];
        acc += q[2] * w[1];
        acc += q[3] * w[0];
        *v = acc;
    }
}

/// AVX2 interior: four output columns per instruction. Column `i + j`
/// (lane `j`) accumulates `q[k]·long[i+j+3−k]` for `k = 0..4` — the
/// scalar sequence — because tap `k`'s operand vector is the unaligned
/// load at `long[i+3−k]`. Separate mul and add keep scalar rounding.
///
/// The main loop is unrolled to sixteen columns with four independent
/// accumulator vectors: each column still sees the identical tap-order
/// sequence (unrolling only interleaves *different* columns, which never
/// interact), but the independent chains hide the add latency that a
/// single accumulator would serialize on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn interior_avx2(q: &[f64; 4], long: &[f64], cols: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = cols.len();
    let t0 = _mm256_set1_pd(q[0]);
    let t1 = _mm256_set1_pd(q[1]);
    let t2 = _mm256_set1_pd(q[2]);
    let t3 = _mm256_set1_pd(q[3]);
    let lp = long.as_ptr();
    let cp = cols.as_mut_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: i + 16 ≤ n bounds the column stores; the widest
        // operand load reads long[i+15+3 .. i+19], and
        // long.len() = n + 3 ≥ i + 19.
        let mut a0 = _mm256_loadu_pd(cp.add(i));
        let mut a1 = _mm256_loadu_pd(cp.add(i + 4));
        let mut a2 = _mm256_loadu_pd(cp.add(i + 8));
        let mut a3 = _mm256_loadu_pd(cp.add(i + 12));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(t0, _mm256_loadu_pd(lp.add(i + 3))));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(t0, _mm256_loadu_pd(lp.add(i + 7))));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(t0, _mm256_loadu_pd(lp.add(i + 11))));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(t0, _mm256_loadu_pd(lp.add(i + 15))));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(t1, _mm256_loadu_pd(lp.add(i + 2))));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(t1, _mm256_loadu_pd(lp.add(i + 6))));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(t1, _mm256_loadu_pd(lp.add(i + 10))));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(t1, _mm256_loadu_pd(lp.add(i + 14))));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(t2, _mm256_loadu_pd(lp.add(i + 1))));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(t2, _mm256_loadu_pd(lp.add(i + 5))));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(t2, _mm256_loadu_pd(lp.add(i + 9))));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(t2, _mm256_loadu_pd(lp.add(i + 13))));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(t3, _mm256_loadu_pd(lp.add(i))));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(t3, _mm256_loadu_pd(lp.add(i + 4))));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(t3, _mm256_loadu_pd(lp.add(i + 8))));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(t3, _mm256_loadu_pd(lp.add(i + 12))));
        _mm256_storeu_pd(cp.add(i), a0);
        _mm256_storeu_pd(cp.add(i + 4), a1);
        _mm256_storeu_pd(cp.add(i + 8), a2);
        _mm256_storeu_pd(cp.add(i + 12), a3);
        i += 16;
    }
    while i + 4 <= n {
        // SAFETY: i + 4 ≤ n bounds the column store; the widest operand
        // load reads long[i+3 .. i+7], and long.len() = n + 3 ≥ i + 7.
        let mut acc = _mm256_loadu_pd(cp.add(i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(t0, _mm256_loadu_pd(lp.add(i + 3))));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(t1, _mm256_loadu_pd(lp.add(i + 2))));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(t2, _mm256_loadu_pd(lp.add(i + 1))));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(t3, _mm256_loadu_pd(lp.add(i))));
        _mm256_storeu_pd(cp.add(i), acc);
        i += 4;
    }
    interior_scalar_from(q, long, cols, i);
}

/// SSE2 interior: two output columns per instruction, same lane-wise op
/// sequence as [`interior_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn interior_sse2(q: &[f64; 4], long: &[f64], cols: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = cols.len();
    let t0 = _mm_set1_pd(q[0]);
    let t1 = _mm_set1_pd(q[1]);
    let t2 = _mm_set1_pd(q[2]);
    let t3 = _mm_set1_pd(q[3]);
    let lp = long.as_ptr();
    let cp = cols.as_mut_ptr();
    let mut i = 0usize;
    while i + 2 <= n {
        // SAFETY: i + 2 ≤ n bounds the column store; the widest operand
        // load reads long[i+3 .. i+5], and long.len() = n + 3 ≥ i + 5.
        let mut acc = _mm_loadu_pd(cp.add(i));
        acc = _mm_add_pd(acc, _mm_mul_pd(t0, _mm_loadu_pd(lp.add(i + 3))));
        acc = _mm_add_pd(acc, _mm_mul_pd(t1, _mm_loadu_pd(lp.add(i + 2))));
        acc = _mm_add_pd(acc, _mm_mul_pd(t2, _mm_loadu_pd(lp.add(i + 1))));
        acc = _mm_add_pd(acc, _mm_mul_pd(t3, _mm_loadu_pd(lp.add(i))));
        _mm_storeu_pd(cp.add(i), acc);
        i += 2;
    }
    interior_scalar_from(q, long, cols, i);
}

/// NEON interior: two output columns per instruction, same lane-wise op
/// sequence as [`interior_avx2`]. `vmlaq_f64` (fused) is deliberately
/// avoided — see module docs.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn interior_neon(q: &[f64; 4], long: &[f64], cols: &mut [f64]) {
    use std::arch::aarch64::*;
    let n = cols.len();
    let t0 = vdupq_n_f64(q[0]);
    let t1 = vdupq_n_f64(q[1]);
    let t2 = vdupq_n_f64(q[2]);
    let t3 = vdupq_n_f64(q[3]);
    let lp = long.as_ptr();
    let cp = cols.as_mut_ptr();
    let mut i = 0usize;
    while i + 2 <= n {
        // SAFETY: i + 2 ≤ n bounds the column store; the widest operand
        // load reads long[i+3 .. i+5], and long.len() = n + 3 ≥ i + 5.
        let mut acc = vld1q_f64(cp.add(i));
        acc = vaddq_f64(acc, vmulq_f64(t0, vld1q_f64(lp.add(i + 3))));
        acc = vaddq_f64(acc, vmulq_f64(t1, vld1q_f64(lp.add(i + 2))));
        acc = vaddq_f64(acc, vmulq_f64(t2, vld1q_f64(lp.add(i + 1))));
        acc = vaddq_f64(acc, vmulq_f64(t3, vld1q_f64(lp.add(i))));
        vst1q_f64(cp.add(i), acc);
        i += 2;
    }
    interior_scalar_from(q, long, cols, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic irregular masses, including interior zeros.
    fn mass(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    (x % 1000) as f64 / 1000.0 + 0.001
                }
            })
            .collect()
    }

    /// The blocked kernel promises bit-identity with the straightforward
    /// tap-at-a-time loop; pin that contract down to the bit, for every
    /// backend this CPU offers, across lengths straddling the 4-tap
    /// block boundary.
    #[test]
    fn blocked_convolve_matches_naive_tap_order_bitwise() {
        fn naive(a: &[f64], b: &[f64]) -> Vec<f64> {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            let mut out = vec![0.0f64; short.len() + long.len() - 1];
            for (i, &tap) in short.iter().enumerate() {
                if tap == 0.0 {
                    continue;
                }
                for (o, &bq) in out[i..i + long.len()].iter_mut().zip(long.iter()) {
                    *o += tap * bq;
                }
            }
            out
        }
        for &(na, nb) in &[
            (1, 1),
            (2, 5),
            (3, 3),
            (4, 4),
            (5, 2),
            (6, 9),
            (7, 61),
            (9, 128),
            (61, 1024),
        ] {
            let a = mass(na, 17);
            let b = mass(nb, 91);
            let want = naive(&a, &b);
            let want_total: f64 = want.iter().sum();
            for backend in KernelBackend::ALL {
                if !backend.is_available() {
                    continue;
                }
                let mut got = Vec::new();
                let total = convolve_with_backend(backend, &a, &b, &mut got);
                assert_eq!(got.len(), want.len(), "{backend:?} ({na}, {nb})");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{backend:?} ({na}, {nb}) bin {i}: {g} vs {w}"
                    );
                }
                // The folded total must be the exact index-order left fold.
                assert_eq!(
                    total.to_bits(),
                    want_total.to_bits(),
                    "{backend:?} ({na}, {nb}) total"
                );
            }
        }
    }

    #[test]
    fn kernel_tier_values_parse() {
        assert_eq!(parse_kernel_tier("scalar"), Some(KernelTier::Scalar));
        assert_eq!(parse_kernel_tier(" SSE2\n"), Some(KernelTier::Sse2));
        for simd in ["simd", "avx2", "neon"] {
            assert_eq!(parse_kernel_tier(simd), Some(KernelTier::Simd));
        }
        for unknown in ["", "  ", "dense", "scalar2", "gpu"] {
            assert_eq!(parse_kernel_tier(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn scalar_backend_is_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::detected().is_available());
        assert!(KernelBackend::active().is_available());
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn unavailable_backend_is_rejected() {
        // Exactly one of NEON (on x86) / AVX2 (on AArch64) is foreign to
        // whatever CPU runs this test.
        let foreign = if cfg!(target_arch = "x86_64") {
            KernelBackend::Neon
        } else {
            KernelBackend::Avx2
        };
        let mut out = Vec::new();
        convolve_with_backend(foreign, &[1.0], &[1.0], &mut out);
    }
}
