//! CRC-32 (IEEE 802.3) — the frame checksum.
//!
//! Implemented locally (reflected polynomial 0xEDB88320) because the
//! build environment vendors no external crates. The bulk of the input
//! is consumed eight bytes per step with the slice-by-8 method: eight
//! 256-entry tables, built at compile time, advance the register over a
//! whole little-endian word at once, and a byte-at-a-time loop finishes
//! the last `len % 8` bytes. It is safe code, and the result is the
//! same as the one-table loop's for every input. Any single-bit flip in
//! a frame is guaranteed to change the checksum, which is exactly the
//! property the corruption tests lean on.

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// // The catalogue check value for "123456789".
/// assert_eq!(rossl_journal::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Advances the CRC register `c` over `data`. The register is kept
/// inverted, as [`crc32`] starts and ends it, so a checksum can be
/// computed in pieces: `crc32(a ++ b) == !update(update(!0, a), b)`.
pub(crate) fn update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The CRC-32 one bit at a time, straight from the reflected
    /// polynomial: no table shared with the code under test.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn a_checksum_computed_in_pieces_is_the_whole_checksum() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(151)).collect();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(!update(update(!0, a), b), crc32(&data), "cut at {cut}");
        }
    }

    #[test]
    fn matches_the_bitwise_reference_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bitwise(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the scheduler crashed mid-loop".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
