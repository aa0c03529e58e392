//! A small mass-buffer pool backing the allocation-free `_into` operator
//! variants.
//!
//! Every lattice operation produces a fresh mass vector. On the SSTA hot
//! path (one convolve per timing arc, one max per fan-in merge, thousands
//! of each per sensitivity sweep) allocating that vector dominates the
//! arithmetic. [`DistScratch`] recycles retired buffers instead: an
//! operation [takes](DistScratch) a pooled buffer, fills it, and hands its
//! ownership to the resulting [`Dist`]; when that distribution dies the
//! caller [`recycle`](DistScratch::recycle)s it, returning the capacity —
//! including any capacity freed by tail trimming — to the pool.
//!
//! Pooling never changes numerical results: buffers are fully overwritten
//! before use, so every `_into` variant remains bit-identical to its
//! allocating counterpart.
//!
//! Besides the pool, a scratch holds one buffer outside it: the
//! zero-padded operand copy the SIMD convolution kernels read from. It
//! is rebuilt by every convolution and keeps the capacity of the widest
//! one, so a sweep pays for it once.

use crate::lattice::Dist;

/// Upper bound on idle buffers retained by a pool. Steady-state demand is
/// the perturbation-front width (tens of nodes); beyond the cap, recycled
/// buffers are simply freed so a pool can never hold onto more memory
/// than one wide front's worth of distributions.
const POOL_CAP: usize = 64;

/// A recycling pool of mass buffers for the `_into` lattice operators
/// ([`Dist::convolve_into`], [`Dist::max_independent_into`],
/// [`Dist::convolve_max_into`], …).
///
/// Create one per propagation sweep and thread it through every
/// operation; the sweep then performs O(live distributions) allocations
/// instead of O(operations).
#[derive(Debug, Default)]
pub struct DistScratch {
    pool: Vec<Vec<f64>>,
    /// The convolution kernels' zero-padded copy of the long operand.
    pub(crate) pad: Vec<f64>,
}

impl DistScratch {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reclaims a dead distribution's mass buffer for reuse.
    pub fn recycle(&mut self, dist: Dist) {
        self.put(dist.into_mass());
    }

    /// Moves another pool's idle buffers into this one (up to the cap).
    pub fn absorb(&mut self, other: DistScratch) {
        for buf in other.pool {
            self.put(buf);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Takes an empty buffer from the pool (LIFO, so the most recently
    /// used — and cache-warmest — capacity is reused first).
    pub(crate) fn take(&mut self) -> Vec<f64> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; dropped if the pool is full or the
    /// buffer never grew any capacity worth keeping.
    pub(crate) fn put(&mut self, mut buf: Vec<f64>) {
        if self.pool.len() < POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_capacity_is_reused() {
        let mut scratch = DistScratch::new();
        let d = Dist::new(1.0, 0, vec![0.25; 4]).unwrap();
        scratch.recycle(d);
        assert_eq!(scratch.pooled(), 1);
        let buf = scratch.take();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 4);
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn pooled_copy_equals_clone() {
        let mut scratch = DistScratch::new();
        scratch.put(Vec::with_capacity(8));
        let d = Dist::new(0.5, -3, vec![0.25, 0.5, 0.25]).unwrap();
        assert_eq!(d.copy_into(&mut scratch), d.clone());
        assert_eq!(
            scratch.pooled(),
            0,
            "the copy draws its buffer from the pool"
        );
    }

    #[test]
    fn pool_is_capped() {
        let mut scratch = DistScratch::new();
        for _ in 0..2 * POOL_CAP {
            scratch.put(Vec::with_capacity(8));
        }
        assert_eq!(scratch.pooled(), POOL_CAP);
    }

    #[test]
    fn absorb_merges_pools() {
        let mut a = DistScratch::new();
        let mut b = DistScratch::new();
        b.put(Vec::with_capacity(8));
        b.put(Vec::with_capacity(8));
        a.absorb(b);
        assert_eq!(a.pooled(), 2);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut scratch = DistScratch::new();
        scratch.put(Vec::new());
        assert_eq!(scratch.pooled(), 0);
    }
}
