//! Stable 64-bit hash functions.
//!
//! Two jobs, two algorithms:
//!
//! * **Placement.** Page placement (§4.1's allocator), the soft-affinity
//!   hash ring (§6.1.2), and the on-disk bucket fan-out (§4.3) all need
//!   hashes that are *stable across process restarts and architectures* — a
//!   page written before a crash must land in the same bucket after
//!   recovery. `std::hash` makes no such guarantee, so we use FNV-1a plus a
//!   splitmix64 finalizer ([`fnv1a64`], [`hash_str`]). The on-disk layout
//!   pins these values: they must never change.
//! * **Integrity.** Every page the page stores hold carries a checksum over
//!   its bytes (§4.3's page trailer, §8's corrupted-file eviction).
//!   [`page_checksum`] is xxHash64 with seed 0: it consumes 32 bytes per
//!   step in four independent lanes instead of FNV-1a's one byte per
//!   multiply, so checksumming a 1 MiB page costs about a tenth as much.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a (64-bit).
///
/// # Examples
///
/// ```
/// use edgecache_common::hash::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// xxHash64's five 64-bit primes.
const XXH_PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

/// The integrity checksum over page bytes: xxHash64 with seed 0.
///
/// Written into the SSD page trailer and each DRAM frame at publish time
/// and re-checked on every full-page read, so a flipped bit is evicted
/// before it is served (§8).
///
/// # Examples
///
/// ```
/// use edgecache_common::hash::page_checksum;
/// assert_eq!(page_checksum(b""), 0xef46db3751d8e999);
/// assert_eq!(page_checksum(b"abc"), 0x44bc2cf5ad770999);
/// ```
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut acc = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = xxh_round(*a, read_u64(&stripe[i * 8..]));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| {
            (h ^ xxh_round(0, a))
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4)
        })
    } else {
        XXH_PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let words = tail.chunks_exact(8);
    let rest = words.remainder();
    for word in words {
        h = (h ^ xxh_round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let bytes_left = if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice"));
        h = (h ^ u64::from(half).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        &rest[4..]
    } else {
        rest
    };
    for &b in bytes_left {
        h = (h ^ u64::from(b).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

/// The splitmix64 finalizer: a cheap, high-quality bit mixer.
///
/// Used to derive virtual-node points on the consistent-hash ring and to
/// decorrelate sequential IDs before modulo-based placement.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a string key (FNV-1a followed by a mix round).
pub fn hash_str(s: &str) -> u64 {
    mix64(fnv1a64(s.as_bytes()))
}

/// Combines two hashes into one (order-sensitive).
pub fn combine(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn page_checksum_known_vectors() {
        // Published xxHash64 (seed 0) test vectors.
        assert_eq!(page_checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(page_checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(page_checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte word and 3 bytes.
        assert_eq!(
            page_checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // 43 bytes: one stripe, one 8-byte word and 3 bytes.
        assert_eq!(
            page_checksum(b"The quick brown fox jumps over the lazy dog"),
            0x0b24_2d36_1fda_71bc
        );
    }

    #[test]
    fn page_checksum_sees_every_single_bit_flip() {
        let mut page: Vec<u8> = (0..1u32 << 20).map(|i| mix64(u64::from(i)) as u8).collect();
        let clean = page_checksum(&page);
        // Sampled positions cover the stripe loop, both ends, and every bit
        // lane of a byte.
        let len = page.len();
        let positions = (0..64u64).map(|i| (mix64(i) % len as u64) as usize).chain([
            0,
            1,
            31,
            32,
            len - 33,
            len - 1,
        ]);
        for (n, pos) in positions.enumerate() {
            let bit = 1u8 << (n % 8);
            page[pos] ^= bit;
            assert_ne!(
                page_checksum(&page),
                clean,
                "flip at byte {pos} bit {bit:#x}"
            );
            page[pos] ^= bit;
        }
        assert_eq!(page_checksum(&page), clean);
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // splitmix64 is a bijection; distinct inputs must give distinct
        // outputs on any sample set.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn hash_str_stability() {
        // Guard against accidental algorithm changes: these values are part
        // of the on-disk layout contract.
        assert_eq!(hash_str("hello"), hash_str("hello"));
        assert_ne!(hash_str("hello"), hash_str("hellp"));
    }

    #[test]
    fn distribution_over_buckets_is_roughly_uniform() {
        const BUCKETS: usize = 16;
        let mut counts = [0usize; BUCKETS];
        for i in 0..16_000u64 {
            let key = format!("file-{i}");
            counts[(hash_str(&key) % BUCKETS as u64) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 1000; allow generous slack.
            assert!((700..1300).contains(&c), "skewed bucket count {c}");
        }
    }
}
