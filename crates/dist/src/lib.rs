//! Fixed-bin-width lattice probability distributions — the numerical
//! substrate of the DATE'05 statistical gate-sizing reproduction.
//!
//! Arrival times and arc delays are represented as discretized PDFs on a
//! shared lattice ([`Dist`]): probability mass at integer multiples of a
//! step `dt`. The SSTA engine propagates them with exact discrete
//! operators — [`convolve`](Dist::convolve) along timing arcs and the
//! independence-approximation [`max_independent`](Dist::max_independent)
//! at fan-in merges — and the optimizer's pruning bounds are built on the
//! whole-bin shift measures of [`lattice_shift_bound`] /
//! [`max_percentile_shift`], which the lattice operators preserve
//! *exactly* (the discrete form of the paper's Theorems 1–3; see the
//! [`shift`-module docs](crate::lattice_shift_bound) for the precise
//! guarantees).
//!
//! Construction comes from three sources: analytic truncated-Gaussian
//! delay models ([`TruncatedGaussian::discretize`]), Monte-Carlo sample
//! sets ([`Empirical::discretize`]), and (near-)deterministic values
//! ([`Dist::point`]).
//!
//! Every binary operator also has an allocation-free `_into` twin
//! ([`Dist::convolve_into`], [`Dist::max_independent_into`], the fused
//! [`Dist::convolve_max_into`], …) that recycles mass buffers through a
//! [`DistScratch`] pool and produces bit-identical results — the form the
//! SSTA hot path uses.
//!
//! Every convolution runs one dense kernel, runtime-dispatched to the
//! widest SIMD backend the CPU offers ([`KernelBackend`]: AVX-512F, AVX2
//! or SSE2 on x86-64, the scalar loop elsewhere). The SIMD backends are
//! one output-stationary kernel that keeps each block of output columns
//! in registers across all of its taps, and every backend is
//! bit-identical to the scalar tap-order reference, so the shift bounds
//! above hold exactly on every path. The `STATSIZE_KERNEL_TIER`
//! environment variable caps the backend (`scalar`, `sse2`, `avx2`, or
//! `simd` for the widest).
//!
//! # Example
//!
//! ```
//! use statsize_dist::{lattice_shift_bound, max_percentile_shift, Dist, TruncatedGaussian};
//!
//! // A gate delay: Gaussian, σ = 10% of nominal, truncated at ±3σ,
//! // discretized to a 0.5 ps lattice.
//! let delay = TruncatedGaussian::from_nominal(100.0, 0.1, 3.0).discretize(0.5);
//! assert!((delay.mean() - 100.0).abs() < 0.05);
//!
//! // Propagation: convolve along an arc, max at a merge.
//! let arrival = Dist::point(0.5, 0.0).convolve(&delay);
//! let merged = arrival.max_independent(&arrival.shift_bins(4));
//! assert!(merged.percentile(0.99) >= arrival.percentile(0.99));
//!
//! // A perturbation (2 bins earlier) and its whole-bin shift bound.
//! let perturbed = arrival.shift_bins(-2);
//! assert_eq!(max_percentile_shift(&arrival, &perturbed), 1.0);
//! assert_eq!(lattice_shift_bound(&arrival, &perturbed), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod empirical;
mod gaussian;
mod kernel;
mod lattice;
mod scratch;
mod shift;

pub use empirical::{Empirical, EmpiricalError};
pub use gaussian::{GaussianError, TruncatedGaussian};
pub use kernel::{convolve_with_backend, KernelBackend, TierPolicy};
pub use lattice::{Dist, DistError};
pub use scratch::DistScratch;
pub use shift::{lattice_shift_bound, max_percentile_shift, percentile_shift_at};
