//! A deterministic multiply-xor hasher for the services' integer-keyed
//! tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~10x more than a
//! multiply-xor mix, and simulated SETs walk the KV store's write
//! overlay. Simulation tables hash *simulated* keys — there is no
//! adversary — so the cheap mix is the right trade.
//!
//! Safety for determinism: the services only ever `get`/`insert` on
//! these maps, never iterate, so the hasher cannot influence simulated
//! results — swapping it is bit-identical by construction. (Iterating a
//! `HashMap` in a way that feeds the RNG or the event order would make
//! the hasher semantically visible; keep it that way.)

use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` for [`FxHasher`] (stateless, deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

/// Firefox-style multiply-xor hasher: one rotate, one xor, one multiply
/// per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// Odd multiplier with good bit dispersion (from Firefox's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_disperses() {
        let h = |n: u64| {
            let mut hasher = FxBuildHasher.build_hasher();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(42), h(42), "same input, same hash");
        // Sequential keys land in distinct, well-spread values.
        let hashes: Vec<u64> = (0..1_000).map(h).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 1_000, "collisions on sequential keys");
    }

    #[test]
    fn map_round_trips() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for k in 0..500u64 {
            map.insert(k, (k * 3) as u32);
        }
        for k in 0..500u64 {
            assert_eq!(map.get(&k), Some(&((k * 3) as u32)));
        }
        assert_eq!(map.get(&999), None);
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different lengths zero-pad differently only through chunking;
        // just assert both produce stable non-zero output.
        assert_ne!(a.finish(), 0);
        assert_ne!(b.finish(), 0);
    }
}
