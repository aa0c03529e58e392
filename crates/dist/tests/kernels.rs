//! The convolution kernel's one contract: every SIMD backend is
//! **bit-identical** to the scalar tap-order kernel, across widths
//! straddling every block/lane boundary (property-tested and
//! sweep-tested), both on raw mass vectors and through `Dist`.

use proptest::prelude::*;
use statsize_dist::{convolve_with_backend, Dist, DistScratch, KernelBackend};

/// Deterministic irregular mass vector with interior zeros: an LCG over
/// the bin index, salted per vector.
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

/// Every available SIMD backend reproduces the scalar kernel bit for
/// bit — output bins *and* the folded index-order total — across a
/// width sweep that straddles the 4-tap block boundary (short lengths
/// around multiples of 4) and every lane width (long lengths around
/// multiples of 2 and 4, so full-vector, tail-of-one, and tail-of-three
/// interior columns all occur).
#[test]
fn simd_backends_match_scalar_bitwise_across_boundary_widths() {
    let shorts = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17];
    let longs = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024,
        1025,
    ];
    let simd = available_simd();
    assert!(
        !simd.is_empty() || !cfg!(any(target_arch = "x86_64", target_arch = "aarch64")),
        "a SIMD backend must be available on x86-64/AArch64 test hosts"
    );
    for &ns in &shorts {
        for &nl in &longs {
            let a = mass(ns, 1 + ns as u64);
            let b = mass(nl, 977 + nl as u64);
            let mut want = Vec::new();
            let want_total = convolve_with_backend(KernelBackend::Scalar, &a, &b, &mut want);
            for &backend in &simd {
                let mut got = Vec::new();
                let total = convolve_with_backend(backend, &a, &b, &mut got);
                assert_eq!(got.len(), want.len(), "{backend:?} ({ns}, {nl})");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{backend:?} ({ns}, {nl}) bin {i}: {g} vs {w}"
                    );
                }
                assert_eq!(
                    total.to_bits(),
                    want_total.to_bits(),
                    "{backend:?} ({ns}, {nl}) total"
                );
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
    for (na, nb) in [(5usize, 61usize), (61, 300), (17, 1024)] {
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
    /// widths biased to straddle the block (4) and lane (2/4) borders,
    /// random salts.
    #[test]
    fn simd_bit_identity_property(
        block in 0usize..5,
        dshort in 0usize..4,
        lane in 0usize..300,
        dlong in 0usize..4,
        salt in 0u64..u64::MAX,
    ) {
        let ns = (4 * block + dshort).max(1);
        let nl = (4 * lane + dlong).max(1);
        let a = mass(ns, salt);
        let b = mass(nl, salt.wrapping_mul(31).wrapping_add(7));
        let mut want = Vec::new();
        let want_total = convolve_with_backend(KernelBackend::Scalar, &a, &b, &mut want);
        for backend in available_simd() {
            let mut got = Vec::new();
            let total = convolve_with_backend(backend, &a, &b, &mut got);
            prop_assert_eq!(total.to_bits(), want_total.to_bits(), "{:?} total", backend);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} bin {}", backend, i);
            }
        }
    }
}
