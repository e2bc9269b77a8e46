//! The stable hashes services, core and cluster share: FNV-1a (64-bit)
//! for fingerprints and shard choice, and the SplitMix64 finalizer for
//! deterministic noise and placement. Unlike `DefaultHasher`, both give
//! the same value in every process on every host, which the virtual
//! clock's determinism and the pinned checksums rely on.

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One SplitMix64 output step: a bijective mix of `x`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The generator's first output from seed 0 is the step of its
        // first increment.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
