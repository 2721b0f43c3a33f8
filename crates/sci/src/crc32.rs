//! The repository's one IEEE 802.3 CRC-32 (reflected polynomial
//! `0xEDB88320`, initial value and final XOR `0xFFFFFFFF`), table-driven.
//!
//! Every integrity check in the system — undo/redo record CRCs and slot
//! CRCs in `perseas-core`, the frame CRC in `perseas-rnram`, the WAL
//! record CRC in `perseas-baselines` — is this function. It lives here
//! because this is the lowest crate all three already depend on.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables (16 KiB, built at
//! compile time) let one step consume sixteen input bytes with sixteen
//! independent look-ups instead of 128 dependent shift-and-xor rounds.
//!
//! # Examples
//!
//! ```
//! use perseas_sci::crc32;
//!
//! assert_eq!(crc32::checksum(b"123456789"), 0xCBF4_3926);
//! // The incremental form gives the same answer over any split.
//! let state = crc32::update(crc32::INIT, b"1234");
//! assert_eq!(crc32::finish(crc32::update(state, b"56789")), 0xCBF4_3926);
//! ```

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes; `TABLES[0]` is the classic byte-at-a-time table.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

/// The register value before any byte has been fed.
pub const INIT: u32 = !0;

/// Feeds `bytes` into the running register `state` (start from [`INIT`],
/// end with [`finish`]). Splitting the input anywhere gives the same
/// result as one call over the concatenation.
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    /// The four look-ups for little-endian word `w`, whose last byte is
    /// followed by `k` more bytes of the 16-byte step.
    fn four(w: u32, k: usize) -> u32 {
        TABLES[k + 3][(w & 0xFF) as usize]
            ^ TABLES[k + 2][((w >> 8) & 0xFF) as usize]
            ^ TABLES[k + 1][((w >> 16) & 0xFF) as usize]
            ^ TABLES[k][(w >> 24) as usize]
    }

    let mut crc = state;
    let mut steps = bytes.chunks_exact(16);
    for step in &mut steps {
        let word = |i: usize| u32::from_le_bytes([step[i], step[i + 1], step[i + 2], step[i + 3]]);
        crc = four(word(0) ^ crc, 12) ^ four(word(4), 8) ^ four(word(8), 4) ^ four(word(12), 0);
    }
    for &byte in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Turns a running register into the checksum.
pub fn finish(state: u32) -> u32 {
    !state
}

/// The IEEE CRC-32 of `bytes`.
pub fn checksum(bytes: &[u8]) -> u32 {
    finish(update(INIT, bytes))
}

/// The IEEE CRC-32 of `parts` concatenated, for records whose header and
/// payload live in different buffers.
pub fn checksum_parts(parts: &[&[u8]]) -> u32 {
    finish(parts.iter().fold(INIT, |state, part| update(state, part)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_split_of_a_buffer_longer_than_one_step_agrees() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = checksum(&data);
        for cut in 0..=data.len() {
            let state = update(INIT, &data[..cut]);
            assert_eq!(finish(update(state, &data[cut..])), whole, "cut {cut}");
        }
    }
}
