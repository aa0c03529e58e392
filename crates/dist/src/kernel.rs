//! Runtime-dispatched dense convolution kernels.
//!
//! Every lattice convolution — each SSTA pass, every perturbation front
//! of a selector sweep, every campaign job and serve query — bottoms out
//! in this module. Its one arithmetic contract: output bin `j` starts
//! from `+0.0` and adds `short[k] · long[j − k]` for each overlapping tap
//! `k` in **ascending tap order**, each as a separate IEEE multiply then
//! add. The scalar tap-order loop ([`KernelBackend::Scalar`]) is that
//! contract written out, and the reference every other backend is pinned
//! to bit for bit (`tests/kernels.rs` and the tests below).
//!
//! The SIMD backends are one **output-stationary** skeleton instantiated
//! per instruction set. A block of output columns lives in vector
//! registers (`LANES` columns per vector × `ACCS` accumulators) while
//! every tap that overlaps the block is added in ascending order; the
//! block is then stored once, and its columns are fed one per tap of the
//! next block to the one-pass normalization (`TailFold`), which trims the
//! lower tail and folds the survivors while the kernel still runs. Each
//! output bin is therefore written exactly once, instead of once per
//! tap block, so a wide output never has to stream through L1 more than
//! once. Operands are read from a zero-padded copy of the long operand,
//! held in the caller's [`DistScratch`], so edge blocks need no special
//! case. Why this stays bit-identical:
//!
//! - per column, the multiplies and adds are the scalar sequence, in the
//!   scalar order;
//! - the only extra operations add `tap · 0.0 = +0.0` where a tap misses
//!   one column of a block; adding `+0.0` to an accumulator that started
//!   at `+0.0` is exact as long as every mass is finite (`tap · 0.0` is
//!   NaN for an infinite tap), which [`Dist::new`](crate::Dist::new)
//!   enforces along with non-negativity;
//! - taps that miss every column of a block are skipped.
//!
//! Deliberately **no FMA**: a fused multiply-add rounds once where the
//! scalar kernel rounds twice, which would break the bitwise contract
//! the downstream determinism guarantees (parallel-equals-serial
//! selection, campaign report byte-equality) are built on.
//!
//! Backend selection is a one-time runtime decision
//! ([`KernelBackend::active`]): the widest instruction set the CPU
//! reports, capped by the `STATSIZE_KERNEL_TIER` environment variable.
//! AArch64 runs the scalar reference; a NEON backend would be one more
//! instantiation of the skeleton, once a host can test it.

// SIMD intrinsics require `unsafe`; the workspace denies unsafe code
// everywhere else. Every unsafe block here is a feature-gated intrinsic
// call or a bounds-argued pointer access whose output is pinned
// bit-for-bit to safe scalar code by tests.
#![allow(unsafe_code)]

use crate::lattice::TailFold;
use crate::scratch::DistScratch;
use std::sync::OnceLock;

/// Environment variable capping the kernel backend process-wide:
/// `scalar` | `sse2` | `avx2` | `simd` (alias `avx512`). Read once, at
/// the first kernel dispatch.
const KERNEL_TIER_ENV: &str = "STATSIZE_KERNEL_TIER";

/// Parses a `STATSIZE_KERNEL_TIER` value (case- and
/// whitespace-insensitive) into the widest backend it allows. `None` for
/// an empty or unrecognized value.
fn parse_kernel_tier(raw: &str) -> Option<KernelBackend> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(KernelBackend::Scalar),
        "sse2" => Some(KernelBackend::Sse2),
        "avx2" => Some(KernelBackend::Avx2),
        "simd" | "avx512" => Some(KernelBackend::Avx512),
        _ => None,
    }
}

/// The process's `STATSIZE_KERNEL_TIER` cap; warns once on stderr about
/// a value that is set but unrecognized.
fn env_kernel_tier() -> Option<KernelBackend> {
    let raw = std::env::var(KERNEL_TIER_ENV).ok()?;
    let tier = parse_kernel_tier(&raw);
    if tier.is_none() && !raw.trim().is_empty() {
        eprintln!(
            "warning: unrecognized {KERNEL_TIER_ENV}={:?} \
             (expected scalar|sse2|avx2|simd); using runtime dispatch",
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

/// A dense convolution backend: the scalar tap-order reference or one
/// instruction-set instantiation of the output-stationary kernel. All
/// backends are bit-identical; they differ only in how many output
/// columns they advance per instruction. Declared from narrowest to
/// widest, the order of [`KernelBackend::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar tap-order loop — always available, the reference
    /// the other backends are pinned against.
    Scalar,
    /// SSE2 (x86-64): 2 lanes × 12 accumulators, 24-column blocks.
    Sse2,
    /// AVX2 (x86-64): 4 lanes × 12 accumulators, 48-column blocks. FMA
    /// is deliberately not used even where available (see module docs).
    Avx2,
    /// AVX-512F (x86-64): 8 lanes × 8 accumulators, 64-column blocks.
    Avx512,
}

impl KernelBackend {
    /// Every backend, narrowest first.
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    /// Whether this CPU can run the backend.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest backend this CPU supports.
    pub fn detected() -> Self {
        Self::widest_up_to(KernelBackend::Avx512)
    }

    /// The widest available backend no wider than `cap` (scalar at
    /// worst).
    fn widest_up_to(cap: KernelBackend) -> Self {
        Self::ALL[..=cap as usize]
            .iter()
            .rev()
            .copied()
            .find(|b| b.is_available())
            .unwrap_or(KernelBackend::Scalar)
    }

    /// The backend every dense convolution in this process dispatches
    /// to: the detected widest, capped by `STATSIZE_KERNEL_TIER` when it
    /// names a narrower one (`scalar`, `sse2`, `avx2`; a pin the CPU
    /// cannot run falls back to the next narrower backend). Decided once
    /// and cached.
    pub fn active() -> Self {
        static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
        *ACTIVE
            .get_or_init(|| Self::widest_up_to(env_kernel_tier().unwrap_or(KernelBackend::Avx512)))
    }

    /// Stable lowercase name (bench row labels).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }
}

/// Normalized discrete convolution of two mass vectors into `out`
/// (cleared first) on `backend`, with the zero-padded operand copy held
/// in `scratch`. The kernel feeds every output column through a
/// [`TailFold`] as it becomes final, so normalization needs no summation
/// pass of its own. Returns the number of bins trimmed from the lower
/// tail.
pub(crate) fn convolve_normalized(
    backend: KernelBackend,
    a: &[f64],
    b: &[f64],
    out: &mut Vec<f64>,
    scratch: &mut DistScratch,
) -> usize {
    let mut fold = TailFold::new(a.len() + b.len() - 1);
    convolve_checked(backend, a, b, out, &mut scratch.pad, &mut fold);
    fold.finish(out)
}

/// The raw (unnormalized) dense convolution on an explicitly forced
/// backend — the test surface behind the bit-identity contract. Returns
/// the untrimmed left-fold total `Σ out[k]` in index order.
///
/// Every mass must be finite and non-negative, as
/// [`Dist::new`](crate::Dist::new) enforces for every distribution: the
/// SIMD backends add `tap · 0.0` for taps that miss a column, which is an
/// exact no-op only for finite taps. Debug builds assert this.
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
    let mut fold = TailFold::new((a.len() + b.len()).saturating_sub(1));
    convolve_checked(backend, a, b, out, &mut Vec::new(), &mut fold);
    out.iter().fold(0.0, |total, &v| total + v)
}

/// Validates the backend and operands, then convolves into `out`,
/// feeding every output column to `fold` in index order.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn convolve_checked(
    backend: KernelBackend,
    a: &[f64],
    b: &[f64],
    out: &mut Vec<f64>,
    pad: &mut Vec<f64>,
    fold: &mut TailFold,
) {
    assert!(
        backend.is_available(),
        "kernel backend {backend:?} is not available on this CPU"
    );
    assert!(
        !a.is_empty() && !b.is_empty(),
        "mass vectors must be non-empty"
    );
    debug_assert!(
        valid_masses(a) && valid_masses(b),
        "convolution masses must be finite and non-negative"
    );
    // The shorter operand supplies the taps (`a` on a tie, so the
    // per-column tap order is a fixed function of the operands).
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match backend {
        KernelBackend::Scalar => convolve_scalar(short, long, out, fold),
        // SAFETY (all three arms): the assertion above admits only a
        // backend whose features the CPU reports.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => unsafe { x86::convolve_sse2(short, long, out, pad, fold) },
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { x86::convolve_avx2(short, long, out, pad, fold) },
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { x86::convolve_avx512(short, long, out, pad, fold) },
        // A backend from another architecture can only be *named* here,
        // never selected (is_available is false); fall back to scalar.
        #[allow(unreachable_patterns)]
        _ => convolve_scalar(short, long, out, fold),
    }
}

/// Whether every mass is finite and non-negative (the kernel's input
/// assumption).
fn valid_masses(m: &[f64]) -> bool {
    m.iter().all(|&v| v.is_finite() && v >= 0.0)
}

/// The scalar reference: one pass over the output per tap, taps in
/// ascending order, then the index-order pass through `fold`.
fn convolve_scalar(short: &[f64], long: &[f64], out: &mut Vec<f64>, fold: &mut TailFold) {
    out.clear();
    out.resize(short.len() + long.len() - 1, 0.0);
    for (k, &tap) in short.iter().enumerate() {
        for (o, &x) in out[k..k + long.len()].iter_mut().zip(long) {
            *o += tap * x;
        }
    }
    for &v in out.iter() {
        fold.feed(v);
    }
}

/// The widest block any backend uses (AVX-512: 8 lanes × 8
/// accumulators); sizes the stack tail of the last partial block.
#[cfg(target_arch = "x86_64")]
const MAX_BLOCK: usize = 64;

/// One SIMD instruction set's `f64` vector, as the output-stationary
/// skeleton uses it. Implementations are `#[inline(always)]` and carry
/// no `target_feature` themselves: they are only ever inlined into a
/// `#[target_feature]` entry point, which supplies the instruction set.
/// Compiled on the architectures that instantiate it; a NEON backend
/// would add one `float64x2_t` impl and one entry point.
///
/// # Safety
///
/// Every method requires the instruction set to be available; `load`
/// and `store` require `LANES` valid `f64`s at `p`.
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    /// `f64` lanes per vector.
    const LANES: usize;
    /// A vector of `+0.0`.
    unsafe fn zero() -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: f64) -> Self;
    /// Unaligned load of `LANES` values at `p`.
    unsafe fn load(p: *const f64) -> Self;
    /// Unaligned store of `LANES` values at `p`.
    unsafe fn store(self, p: *mut f64);
    /// `self + tap · x` lane-wise, as a separate multiply then add.
    unsafe fn add_product(self, tap: Self, x: Self) -> Self;
}

/// The output-stationary skeleton. Output columns are processed in
/// blocks of `V::LANES × ACCS`; column `j` of a block reads
/// `long[j − k] = pad[j − k + block − 1]` for tap `k`, where `pad` is
/// `long` with `block − 1` zeros on each side.
///
/// # Safety
///
/// The instruction set of `V` must be available, and `0 < short.len() ≤
/// long.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn convolve_stationary<V: Lanes, const ACCS: usize>(
    short: &[f64],
    long: &[f64],
    out: &mut Vec<f64>,
    pad: &mut Vec<f64>,
    fold: &mut TailFold,
) {
    const { assert!(V::LANES * ACCS <= MAX_BLOCK) };
    let block = V::LANES * ACCS;
    let (m, l) = (short.len(), long.len());
    let n = m + l - 1;
    pad.clear();
    pad.resize(block - 1, 0.0);
    pad.extend_from_slice(long);
    pad.resize(l + 2 * (block - 1), 0.0);
    // Exactly `n` bins are written, full blocks straight into `out`'s
    // spare capacity and the last partial block through `tail`, so the
    // buffer never grows past what the output needs.
    out.clear();
    out.reserve(n);
    let dst = out.as_mut_ptr();
    let src = pad.as_ptr();
    let mut tail = [0.0f64; MAX_BLOCK];
    // A local copy, so the fold's state stays in registers through the
    // tap loop instead of going back to `*fold` on every column.
    let mut f = *fold;
    // out[folded .. j0] is final but not yet fed to `fold`. Those columns
    // are fed one per tap of the next block, so the serial chain of
    // scalar trim tests and adds overlaps the block's vector work instead
    // of following it.
    let mut folded = 0;
    let mut j0 = 0;
    while j0 < n {
        // Taps overlapping some column of j0 .. j0 + block.
        let k_lo = (j0 + 1).saturating_sub(l);
        let k_hi = m.min(j0 + block);
        let mut acc = [V::zero(); ACCS];
        for (k, &t) in (k_lo..k_hi).zip(&short[k_lo..k_hi]) {
            let tap = V::splat(t);
            // SAFETY: the loads read pad[j0 + block − 1 − k + i] for
            // i < block: the index is ≥ 0 because k < j0 + block, and
            // < l + 2·(block − 1) = pad.len() because either k = 0 and
            // j0 < l, or k ≥ j0 + 1 − l.
            let base = src.add(j0 + block - 1 - k);
            for (i, v) in acc.iter_mut().enumerate() {
                *v = v.add_product(tap, V::load(base.add(i * V::LANES)));
            }
            if folded < j0 {
                // SAFETY: folded < j0, so an earlier block wrote it.
                f.feed(*dst.add(folded));
                folded += 1;
            }
        }
        while folded < j0 {
            // SAFETY: as above.
            f.feed(*dst.add(folded));
            folded += 1;
        }
        let cols = block.min(n - j0);
        // SAFETY: a full block ends at j0 + block ≤ n ≤ out.capacity();
        // a partial one is staged in `tail` (block ≤ MAX_BLOCK) and
        // only its first `cols` columns are copied to out[j0 .. n].
        if cols == block {
            for (i, v) in acc.iter().enumerate() {
                v.store(dst.add(j0 + i * V::LANES));
            }
        } else {
            for (i, v) in acc.iter().enumerate() {
                v.store(tail.as_mut_ptr().add(i * V::LANES));
            }
            std::ptr::copy_nonoverlapping(tail.as_ptr(), dst.add(j0), cols);
        }
        j0 += block;
    }
    // SAFETY: the loop above initialized out[0 .. n], within capacity.
    out.set_len(n);
    for &v in &out[folded..] {
        f.feed(v);
    }
    *fold = f;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{convolve_stationary, Lanes, TailFold};
    use std::arch::x86_64::*;

    impl Lanes for __m128d {
        const LANES: usize = 2;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn add_product(self, tap: Self, x: Self) -> Self {
            _mm_add_pd(self, _mm_mul_pd(tap, x))
        }
    }

    impl Lanes for __m256d {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn add_product(self, tap: Self, x: Self) -> Self {
            _mm256_add_pd(self, _mm256_mul_pd(tap, x))
        }
    }

    impl Lanes for __m512d {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn add_product(self, tap: Self, x: Self) -> Self {
            _mm512_add_pd(self, _mm512_mul_pd(tap, x))
        }
    }

    /// SSE2 instantiation: 2 lanes × 12 accumulators.
    ///
    /// # Safety
    ///
    /// The CPU must support SSE2, and `0 < short.len() ≤ long.len()`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn convolve_sse2(
        short: &[f64],
        long: &[f64],
        out: &mut Vec<f64>,
        pad: &mut Vec<f64>,
        fold: &mut TailFold,
    ) {
        convolve_stationary::<__m128d, 12>(short, long, out, pad, fold)
    }

    /// AVX2 instantiation: 4 lanes × 12 accumulators (12 of the 16 ymm
    /// registers, leaving room for the tap broadcast and operand loads).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `0 < short.len() ≤ long.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn convolve_avx2(
        short: &[f64],
        long: &[f64],
        out: &mut Vec<f64>,
        pad: &mut Vec<f64>,
        fold: &mut TailFold,
    ) {
        convolve_stationary::<__m256d, 12>(short, long, out, pad, fold)
    }

    /// AVX-512F instantiation: 8 lanes × 8 accumulators.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `0 < short.len() ≤ long.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn convolve_avx512(
        short: &[f64],
        long: &[f64],
        out: &mut Vec<f64>,
        pad: &mut Vec<f64>,
        fold: &mut TailFold,
    ) {
        convolve_stationary::<__m512d, 8>(short, long, out, pad, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic irregular masses, including interior zeros and (for
    /// salts with bit 0 set) subnormals.
    fn mass(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                if x.is_multiple_of(7) {
                    0.0
                } else if salt & 1 == 1 && x.is_multiple_of(5) {
                    f64::MIN_POSITIVE * (x % 1000) as f64 / 1024.0
                } else {
                    (x % 1000) as f64 / 1000.0 + 0.001
                }
            })
            .collect()
    }

    /// Every backend promises bit-identity with the straightforward
    /// tap-at-a-time loop; pin that contract down to the bit, for every
    /// backend this CPU offers, across lengths straddling the 24-, 48-
    /// and 64-column blocks, with either operand the shorter one.
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
            (5, 2),
            (6, 9),
            (7, 61),
            (9, 128),
            (23, 25),
            (47, 49),
            (63, 65),
            (65, 63),
            (70, 200),
            (200, 70),
            (61, 1024),
        ] {
            for salt in [17, 18] {
                let a = mass(na, salt);
                let b = mass(nb, salt + 74);
                let want = naive(&a, &b);
                let want_total = want.iter().fold(0.0, |s, &v| s + v);
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
    }

    /// Outputs keep the capacity a plain `resize` to the output length
    /// would give them: the last partial block goes through the stack
    /// tail, never past `out.len()`.
    #[test]
    fn output_capacity_is_exact() {
        let a = mass(55, 3);
        let b = mass(650, 4);
        for backend in KernelBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let mut out = Vec::new();
            convolve_with_backend(backend, &a, &b, &mut out);
            assert_eq!(out.capacity(), out.len(), "{backend:?}");
        }
    }

    #[test]
    fn kernel_tier_values_parse() {
        assert_eq!(parse_kernel_tier("scalar"), Some(KernelBackend::Scalar));
        assert_eq!(parse_kernel_tier(" SSE2\n"), Some(KernelBackend::Sse2));
        assert_eq!(parse_kernel_tier("AVX2"), Some(KernelBackend::Avx2));
        for simd in ["simd", "avx512", " Simd "] {
            assert_eq!(parse_kernel_tier(simd), Some(KernelBackend::Avx512));
        }
        for unknown in ["", "  ", "dense", "scalar2", "gpu", "neon"] {
            assert_eq!(parse_kernel_tier(unknown), None, "{unknown:?}");
        }
    }

    /// A pin caps the backend and falls back to the next narrower one the
    /// CPU runs.
    #[test]
    fn pins_fall_back_to_narrower_backends() {
        for (i, cap) in KernelBackend::ALL.into_iter().enumerate() {
            assert_eq!(cap as usize, i, "ALL is in declaration order");
            let got = KernelBackend::widest_up_to(cap);
            assert!(
                got as usize <= i && got.is_available(),
                "{cap:?} -> {got:?}"
            );
            for skipped in &KernelBackend::ALL[got as usize + 1..=i] {
                assert!(!skipped.is_available(), "{cap:?} skipped {skipped:?}");
            }
        }
    }

    #[test]
    fn scalar_backend_is_always_available() {
        assert!(KernelBackend::Scalar.is_available());
        assert!(KernelBackend::detected().is_available());
        assert!(KernelBackend::active().is_available());
    }

    /// Every backend this CPU lacks is refused, not run. (On an AVX-512F
    /// host every backend runs, and there is nothing to refuse.)
    #[test]
    fn unavailable_backend_is_rejected() {
        for backend in KernelBackend::ALL {
            if backend.is_available() {
                continue;
            }
            let refused = std::panic::catch_unwind(|| {
                convolve_with_backend(backend, &[1.0], &[1.0], &mut Vec::new())
            })
            .expect_err("an unavailable backend must panic");
            let msg = refused
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("not available"), "{backend:?}: {msg}");
        }
    }
}
