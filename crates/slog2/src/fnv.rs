//! FNV-1a hashing for the converter's hot paths.
//!
//! The out-of-core shape pass counts rows per tree-node path id in a
//! hash map; the standard library's SipHash is keyed and DoS-resistant
//! but several times slower on small fixed-width keys than FNV-1a. The
//! keys here are trace-internal (path ids), not attacker-controlled
//! strings, so the non-cryptographic hash is appropriate.
//! The same function, run over a byte stream, doubles as the digest the
//! out-of-core writer reports for cross-run identity checks.

use std::hash::{BuildHasher, Hasher};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a over a byte slice, chainable via `seed`.
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The canonical FNV-1a seed, exposed for streaming digests.
pub(crate) const FNV_SEED: u64 = OFFSET;

/// `std::hash::Hasher` wrapper so `HashMap` can use FNV-1a.
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// `BuildHasher` for [`FnvHasher`]; `HashMap<K, V, FnvBuild>` works with
/// `HashMap::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(OFFSET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_SEED, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_SEED, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_SEED, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashmap_with_fnv_works() {
        let mut m: HashMap<(u32, u64), usize, FnvBuild> = HashMap::default();
        for i in 0..1000u64 {
            *m.entry(((i % 7) as u32, i % 13)).or_insert(0) += 1;
        }
        assert_eq!(m.values().sum::<usize>(), 1000);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox";
        let mut h = FNV_SEED;
        for chunk in data.chunks(4) {
            h = fnv1a(h, chunk);
        }
        assert_eq!(h, fnv1a(FNV_SEED, data));
    }
}
