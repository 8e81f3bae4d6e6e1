//! CRC-32C (Castagnoli) — the checksum guarding wire frames, checkpoint
//! segments and cached results.
//!
//! The Castagnoli polynomial (`0x1EDC6F41`, reflected `0x82F63B78`) is
//! the iSCSI/ext4 choice: measurably better burst-error detection than
//! CRC-32/ISO-HDLC at the same cost, and the variant hardware CRC
//! instructions implement.
//!
//! Every byte a master or slave ships passes through this function twice
//! (seal on send, check on receive), so it sits on the communication hot
//! path. A byte-at-a-time table walk runs at ~280 MiB/s, slow enough to
//! dominate jobs that ship many small tiles over sockets, so [`crc32c`]
//! dispatches at run time:
//!
//! * on x86_64 CPUs reporting SSE4.2 it uses the `crc32` instruction,
//!   eight bytes per step, then one byte at a time for the tail
//!   (several GiB/s);
//! * everywhere else it falls back to the table walk, which also serves
//!   as the reference implementation in the tests.
//!
//! Both paths compute the same function, so every stored and on-wire
//! checksum is identical whichever CPU wrote or reads it.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32C of `data` (init `!0`, reflected, final xor `!0` — the standard
/// parameterisation, matching hardware `crc32c` instructions).
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU reports SSE4.2, the only feature the callee
        // enables.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// Portable byte-at-a-time table walk.
fn crc32c_table(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// SSE4.2 `crc32` instruction: 8-byte little-endian words, then the
/// 0..7-byte tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    // The instruction zero-extends its 32-bit result, so this is lossless.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 3720 (iSCSI) appendix B.4 patterns plus the canonical check
    /// value, as `(input, crc)`.
    fn vectors() -> Vec<(Vec<u8>, u32)> {
        vec![
            (b"123456789".to_vec(), 0xE306_9283),
            (Vec::new(), 0),
            (vec![0u8; 32], 0x8A91_36AA),
            (vec![0xFFu8; 32], 0x62A8_AB43),
            ((0u8..32).collect(), 0x46DD_794E),
            ((0u8..32).rev().collect(), 0x113F_DB5C),
        ]
    }

    /// Deterministic pseudo-random bytes (xorshift), so the differential
    /// test covers arbitrary content, not just runs of one value.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        for (input, want) in vectors() {
            assert_eq!(crc32c(&input), want, "dispatched, input {input:?}");
            assert_eq!(crc32c_table(&input), want, "table, input {input:?}");
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            for (input, want) in vectors() {
                // SAFETY: SSE4.2 support checked above.
                assert_eq!(
                    unsafe { crc32c_sse42(&input) },
                    want,
                    "sse4.2, input {input:?}"
                );
            }
        } else {
            eprintln!("CPU lacks SSE4.2: hardware CRC path not tested");
        }
    }

    #[test]
    fn dispatched_matches_table_for_every_length_and_alignment() {
        let buf = noise(4096 + 8);
        for len in 0..=4096 {
            assert_eq!(crc32c(&buf[..len]), crc32c_table(&buf[..len]), "len {len}");
        }
        // Unaligned starts: every offset into an 8-byte word, each with
        // every tail length.
        for start in 0..8 {
            for len in (0..=64).chain([1000, 4096]) {
                let s = &buf[start..start + len];
                assert_eq!(crc32c(s), crc32c_table(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), clean, "bit {bit} not detected");
        }
    }
}
