//! A from-scratch implementation of the xxHash64 algorithm (Yann Collet),
//! used for hashing variable-length byte keys (string user/item identifiers
//! in the stream layer). For fixed-width integer keys prefer the cheaper
//! mixers in [`crate::mix`].

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Hashes `data` with xxHash64 under `seed`.
#[must_use]
pub fn xxhash64(seed: u64, data: &[u8]) -> u64 {
    let len = data.len() as u64;
    let mut h: u64;
    let mut rest = data;

    if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..8]));
            v2 = round(v2, read_u64(&rest[8..16]));
            v3 = round(v3, read_u64(&rest[16..24]));
            v4 = round(v4, read_u64(&rest[24..32]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len);

    while rest.len() >= 8 {
        h ^= round(0, read_u64(&rest[0..8]));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(read_u32(&rest[0..4])).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

#[inline]
fn read_u32(b: &[u8]) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[..4]);
    u32::from_le_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the canonical xxHash implementation
    // (github.com/Cyan4973/xxHash, XXH64 with the given seeds).
    #[test]
    fn reference_empty() {
        assert_eq!(xxhash64(0, b""), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn reference_a() {
        assert_eq!(xxhash64(0, b"a"), 0xD24E_C4F1_A98C_6E5B);
    }

    #[test]
    fn reference_abc() {
        assert_eq!(xxhash64(0, b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(xxhash64(0, b"abc"), xxhash64(1, b"abc"));
        assert_ne!(xxhash64(1, b"abc"), xxhash64(2, b"abc"));
    }

    #[test]
    fn long_input_exercises_wide_loop() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let h1 = xxhash64(0, &data);
        let h2 = xxhash64(0, &data);
        assert_eq!(h1, h2);
        let mut data2 = data.clone();
        data2[512] ^= 1;
        assert_ne!(h1, xxhash64(0, &data2));
    }

    #[test]
    fn all_lengths_zero_to_64_distinct() {
        let data = [0xABu8; 64];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=64 {
            assert!(seen.insert(xxhash64(7, &data[..len])));
        }
    }
}
