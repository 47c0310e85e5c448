//! The workspace's deterministic, platform-independent hash and mix
//! primitives: FNV-1a (one-shot and streaming), the murmur3 avalanche
//! finalizer, and SplitMix64.
//!
//! Everything that feeds a determinism digest, a storage checksum, the
//! placement ring or a derived RNG seed goes through these functions, so
//! a pinned value anywhere in the workspace pins the same arithmetic.

/// FNV-1a 64-bit offset basis — the initial state of a streaming digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state (start from [`FNV_OFFSET`]).
/// Order-sensitive: the digest of a sequence of folds equals the one-shot
/// hash of the concatenated bytes.
pub fn fnv1a_fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds `bytes` into the running state `outer`, as [`fnv1a_fold`] does, and
/// returns their own one-shot FNV-1a, in one pass: the two multiply chains
/// are independent, so the CPU overlaps them and the second hash costs
/// little beyond the first.
pub fn fnv1a_fold_and_hash(outer: &mut u64, bytes: &[u8]) -> u64 {
    let mut own = FNV_OFFSET;
    for &b in bytes {
        *outer = (*outer ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        own = (own ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    own
}

/// FNV-1a 64-bit hash — the checksum used by WAL records and segment
/// footers, and the digest primitive of every determinism gate.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_fold(&mut h, bytes);
    h
}

/// The murmur3 64-bit finalizer: three xor-shift/multiply rounds that
/// spread every input bit over the whole word.
///
/// Plain FNV-1a is *affine* over small inputs (the trailing zero bytes of
/// a small integer only multiply by a constant), so sequential ids land
/// on one arithmetic lattice; consumers that need uniformity (the
/// placement ring) finish with this.
pub fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// SplitMix64 — the stock seed-derivation permutation (Steele et al.),
/// used to derive pass seeds, per-slot RNG streams and synthetic bench
/// values from a root seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_folds_equal_the_one_shot_hash() {
        let mut h = FNV_OFFSET;
        fnv1a_fold(&mut h, b"foo");
        fnv1a_fold(&mut h, b"bar");
        assert_eq!(h, fnv1a64(b"foobar"));
    }

    #[test]
    fn fold_and_hash_is_a_fold_plus_a_one_shot_hash() {
        let mut h = FNV_OFFSET;
        fnv1a_fold(&mut h, b"foo");
        assert_eq!(fnv1a_fold_and_hash(&mut h, b"bar"), fnv1a64(b"bar"));
        assert_eq!(h, fnv1a64(b"foobar"));
    }

    #[test]
    fn splitmix_matches_reference_sequence() {
        // First outputs of the reference generator seeded with 0 (each
        // output is the permutation of the running golden-gamma counter).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn avalanche_fixes_zero_and_separates_neighbours() {
        assert_eq!(avalanche(0), 0);
        let (a, b) = (avalanche(1), avalanche(2));
        assert!((a ^ b).count_ones() > 16, "{a:x} vs {b:x}");
    }
}
