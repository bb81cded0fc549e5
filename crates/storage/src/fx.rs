//! A fast, deterministic hasher for simulator-internal hash tables.
//!
//! The measurement pipeline hashes hundreds of millions of small keys per
//! `figures -- all` run: every buffer-pool access looks up a [`crate::PageId`],
//! and the join operators build tables over rids and `i64` join keys.  The
//! standard library's default SipHash is DoS-resistant but several times
//! slower than needed for 8/16-byte keys, and the resistance buys nothing
//! here — all keys come from our own deterministic generators.
//!
//! `FxHasher` is the Firefox/rustc multiply-rotate hash: one multiply and
//! one rotate per word.  Swapping it in changes **no simulated cost** — hash
//! work is charged explicitly via [`crate::SimClock::charge_hashes`], and
//! buffer-pool hit/miss sequences depend only on access order and
//! replacement policy, not on the hasher — it only cuts the real (wall
//! clock) time of building maps.  The one place the pool frees a set of
//! slots at once, `BufferPool::invalidate_file`, frees them in slot order,
//! not in the order its probes find them: Clock reuses the last-freed slot
//! first, so that order is observable.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx hash state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Low bits of `key * SEED` depend only on equally-low key bits, and
        // hash tables index buckets by low bits — structured keys such as
        // `page << 32 | slot` would cluster catastrophically.  Fold the
        // well-mixed high half down before handing the hash out.
        let h = self.hash;
        (h ^ (h >> 32)).wrapping_mul(SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: std::hash::Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn byte_slices_of_different_length_differ() {
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&1998));
    }
}
