//! The convolution kernel's one contract: every SIMD backend is
//! **bit-identical** to the scalar tap-order kernel, across widths
//! straddling every block and lane boundary (property-tested and
//! sweep-tested), with zero and subnormal masses, both on raw mass
//! vectors and through `Dist`.

use proptest::prelude::*;
use statsize_dist::{convolve_with_backend, Dist, DistScratch, KernelBackend};

/// Deterministic irregular mass vector: an LCG over the bin index,
/// salted per vector, with interior zeros and (for odd salts) subnormal
/// bins.
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

/// Normalized variant of [`mass`] (a valid probability mass vector).
fn prob_mass(n: usize, salt: u64) -> Vec<f64> {
    let mut m = mass(n, salt);
    let total: f64 = m.iter().sum();
    for v in &mut m {
        *v /= total;
    }
    m
}

fn available_simd() -> Vec<KernelBackend> {
    KernelBackend::ALL
        .into_iter()
        .filter(|b| *b != KernelBackend::Scalar && b.is_available())
        .collect()
}

/// Asserts that every available SIMD backend reproduces the scalar
/// kernel on `a ∗ b` bit for bit: output bins *and* the folded
/// index-order total.
fn assert_bit_identical(a: &[f64], b: &[f64], what: &str) {
    let mut want = Vec::new();
    let want_total = convolve_with_backend(KernelBackend::Scalar, a, b, &mut want);
    for backend in available_simd() {
        let mut got = Vec::new();
        let total = convolve_with_backend(backend, a, b, &mut got);
        assert_eq!(got.len(), want.len(), "{backend:?} {what}");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{backend:?} {what} bin {i}: {g} vs {w}"
            );
        }
        assert_eq!(
            total.to_bits(),
            want_total.to_bits(),
            "{backend:?} {what} total"
        );
    }
}

/// Every available SIMD backend reproduces the scalar kernel bit for
/// bit across a width sweep that straddles every lane width (2, 4, 8)
/// and every block size (24, 48, 64 columns): short operands up to past
/// one block, long operands around the block multiples, both operand
/// orders, and both mass families (with and without subnormals).
#[test]
fn simd_backends_match_scalar_bitwise_across_boundary_widths() {
    let shorts = [
        1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 47, 48, 49, 63, 64, 65, 70,
    ];
    let longs = [
        1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 23, 24, 25, 31, 47, 48, 49, 63, 64, 65, 95, 96, 97, 127,
        128, 129, 191, 192, 193, 1023, 1024, 1025,
    ];
    assert!(
        !available_simd().is_empty() || !cfg!(target_arch = "x86_64"),
        "a SIMD backend must be available on x86-64 test hosts"
    );
    for &ns in &shorts {
        for &nl in &longs {
            for salt in [0u64, 1] {
                let a = mass(ns, 2 * ns as u64 + salt);
                let b = mass(nl, 2 * (977 + nl as u64) + salt);
                assert_bit_identical(&a, &b, &format!("({ns}, {nl}) salt {salt}"));
                assert_bit_identical(&b, &a, &format!("({nl}, {ns}) salt {salt}"));
            }
        }
    }
}

/// The same contract at the `Dist` level: `convolve_dense` on any
/// available backend equals the default `convolve` bit for bit (offset,
/// support, mass bits), through warmed scratch pools.
#[test]
fn dist_convolve_dense_is_bit_identical_on_every_backend() {
    let mut scratch = DistScratch::new();
    for (na, nb) in [(5usize, 61usize), (61, 300), (17, 1024), (70, 650)] {
        let a = Dist::new(1.0, -4, prob_mass(na, 3)).unwrap();
        let b = Dist::new(1.0, 9, prob_mass(nb, 11)).unwrap();
        let want = a.convolve(&b);
        for backend in KernelBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let got = a.convolve_dense(&b, backend, &mut scratch);
            assert_eq!(want.offset(), got.offset(), "{backend:?}");
            assert_eq!(want.support_len(), got.support_len(), "{backend:?}");
            for (i, (w, g)) in want.mass().iter().zip(got.mass()).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{backend:?} bin {i}");
            }
            scratch.recycle(got);
        }
    }
}

proptest! {
    /// Property form of the bit-identity contract: random short/long
    /// widths biased to straddle the 64-column block (the 24- and
    /// 48-column blocks fall between), random salts (odd salts add
    /// subnormal bins), random operand order.
    #[test]
    fn simd_bit_identity_property(
        block in 0usize..3,
        dshort in 0usize..5,
        lane in 0usize..40,
        dlong in 0usize..9,
        salt in 0u64..u64::MAX,
        swap in any::<bool>(),
    ) {
        let ns = (64 * block + dshort).saturating_sub(2).max(1);
        let nl = (ns + 8 * lane + dlong).saturating_sub(4).max(1);
        let a = mass(ns, salt);
        let b = mass(nl, salt.wrapping_mul(31).wrapping_add(7));
        let (a, b) = if swap { (b, a) } else { (a, b) };
        let mut want = Vec::new();
        let want_total = convolve_with_backend(KernelBackend::Scalar, &a, &b, &mut want);
        for backend in available_simd() {
            let mut got = Vec::new();
            let total = convolve_with_backend(backend, &a, &b, &mut got);
            prop_assert_eq!(total.to_bits(), want_total.to_bits(), "{:?} total", backend);
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} bin {}", backend, i);
            }
        }
    }
}
