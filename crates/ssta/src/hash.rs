//! A fixed-key hasher for maps keyed by timing nodes and gates.
//!
//! The cone walk's per-node maps are probed several times per propagated
//! node; SipHash's per-process random keys buy nothing there, since the
//! keys are dense `u32` indices of one circuit and every consumer of the
//! maps is independent of their iteration order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style multiplicative hasher: each word is folded in as
/// `(h.rotate_left(5) ^ word) · K`. Built for small integer keys
/// ([`TimingNode`](crate::TimingNode), `GateId` and tuples of them).
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeHasher(u64);

/// The multiplier: odd, so the low bits of `word · K` (the bucket index)
/// are a bijection of the key's low bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl NodeHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for NodeHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`NodeHasher`].
pub type NodeMap<K, V> = HashMap<K, V, BuildHasherDefault<NodeHasher>>;

/// A `HashSet` hashed by [`NodeHasher`].
pub type NodeSet<K> = HashSet<K, BuildHasherDefault<NodeHasher>>;
