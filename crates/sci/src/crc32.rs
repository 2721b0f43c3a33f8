//! The repository's one IEEE 802.3 CRC-32 (reflected polynomial
//! `0xEDB88320`, initial value and final XOR `0xFFFFFFFF`).
//!
//! Every integrity check in the system — undo/redo record CRCs and slot
//! CRCs in `perseas-core`, the frame CRC in `perseas-rnram`, the WAL
//! record CRC in `perseas-baselines` — is this function. It lives here
//! because this is the lowest crate all three already depend on.
//!
//! One function, three kernels, bit-identical output; [`update`] picks
//! one from the CPU and the input length, never from a setting:
//!
//! - **512-bit carry-less-multiply folding** (x86_64 with AVX-512F and
//!   VPCLMULQDQ, detected at run time; inputs of 4 KiB or more): four
//!   512-bit accumulators fold 256 bytes a step, fold down to one, and
//!   its four 128-bit lanes go to the 128-bit kernel's end.
//! - **128-bit carry-less-multiply folding** (x86_64 with PCLMULQDQ and
//!   SSE4.1; inputs of 64 bytes or more): four 128-bit lanes fold 64
//!   bytes a step. Both folding kernels end the same way: fold-by-4 and
//!   fold-by-1 over the 16-byte blocks left, then a Barrett reduction to
//!   32 bits — the reflected variant of Intel's "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ". Their constants are
//!   computed from `POLY` at compile time.
//! - **Slice-by-16 tables**: sixteen 256-entry tables (16 KiB, built at
//!   compile time) let one step consume sixteen input bytes with sixteen
//!   independent look-ups instead of 128 dependent shift-and-xor rounds.
//!   It stays for three jobs: it is the only kernel on other
//!   architectures, it takes inputs too short to fill four lanes (most
//!   debit-credit records), and it finishes the < 16-byte tail folding
//!   leaves.
//!
//! Each kernel called directly, in ns per call (release build, pinned,
//! best of 7, one buffer 3 bytes into its allocation, on a 2-vCPU Xeon
//! guest with AVX-512F and VPCLMULQDQ):
//!
//! | bytes | 256 | 512 | 1 024 | 4 096 | 16 384 | 65 536 | 262 144 |
//! |---|---:|---:|---:|---:|---:|---:|---:|
//! | tables | 114 | 263 | 560 | 2 348 | 9 491 | 38 133 | 153 030 |
//! | 128-bit folding | 15.0 | 27.4 | 52.1 | 200 | 793 | 3 173 | 12 656 |
//! | 512-bit folding | 10.0 | 13.5 | 20.1 | 62.3 | 228 | 1 034 | 4 100 |
//!
//! The 512-bit kernel wins from 256 bytes up, yet starts at 4 KiB: every
//! bulk commit frame and recovery read piece is longer, and no record
//! or frame of a small transaction is, so those never run a 512-bit
//! instruction, after which some cores run at a lower clock for a while.
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
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        if bytes.len() >= clmul::WIDE_MIN_LEN {
            if let Some(crc) = clmul::update_wide_if_detected(state, bytes) {
                return crc;
            }
        }
        if let Some(crc) = clmul::update_if_detected(state, bytes) {
            return crc;
        }
    }
    update_table(state, bytes)
}

/// The slice-by-16 kernel behind [`update`].
fn update_table(state: u32, bytes: &[u8]) -> u32 {
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

/// The carry-less-multiply folding kernels behind [`update`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    use super::POLY;

    /// The shortest input [`super::update`] folds: one 16-byte block per
    /// lane. From here up folding wins (64 B: 12 ns against the tables'
    /// 30; EXPERIMENTS.md "perf_ledger — PR 25" has the sweep).
    pub(super) const MIN_LEN: usize = 64;

    /// The shortest input [`super::update`] folds on 512-bit lanes (the
    /// module doc has the sweep and the reason it is not 256).
    pub(super) const WIDE_MIN_LEN: usize = 4096;

    /// `x^n mod P`, bit-reflected and shifted left one bit, which is the
    /// form a reflected carry-less product needs. In the reflected domain
    /// one multiplication by `x` is one step of the bitwise CRC.
    const fn x_pow_mod_p(n: u32) -> i64 {
        let mut v = 1u32 << 31; // x^0
        let mut i = 0;
        while i < n {
            v = (v >> 1) ^ (POLY & (v & 1).wrapping_neg());
            i += 1;
        }
        (v as i64) << 1
    }

    /// Barrett's μ = `x^64 div P`, bit-reflected over its 33 bits.
    const fn barrett_mu() -> i64 {
        let p = (POLY.reverse_bits() as u128) | 1 << 32;
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        let mut bit = 64;
        while bit >= 32 {
            if (rem >> bit) & 1 == 1 {
                rem ^= p << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        (quotient.reverse_bits() >> 31) as i64
    }

    /// Fold-by-16 (a 128-bit lane of four 512-bit accumulators moves
    /// 2048 bits), fold-by-4 (512 bits), fold-by-1 (128 bits), the 64-bit
    /// step, P reflected over its 33 bits, and μ.
    pub(super) const K_2080: i64 = x_pow_mod_p(16 * 128 + 32);
    pub(super) const K_2016: i64 = x_pow_mod_p(16 * 128 - 32);
    pub(super) const K_544: i64 = x_pow_mod_p(4 * 128 + 32);
    pub(super) const K_480: i64 = x_pow_mod_p(4 * 128 - 32);
    pub(super) const K_160: i64 = x_pow_mod_p(128 + 32);
    pub(super) const K_96: i64 = x_pow_mod_p(128 - 32);
    pub(super) const K_64: i64 = x_pow_mod_p(64);
    pub(super) const P: i64 = ((POLY as i64) << 1) | 1;
    pub(super) const MU: i64 = barrett_mu();

    /// [`update`] if this CPU has what it is compiled for.
    pub(super) fn update_if_detected(state: u32, bytes: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `update` enables exactly the two features detected above.
        Some(unsafe { update(state, bytes) })
    }

    /// [`update_wide`] if this CPU has what it is compiled for.
    pub(super) fn update_wide_if_detected(state: u32, bytes: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("vpclmulqdq")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1"))
        {
            return None;
        }
        // SAFETY: `update_wide` enables exactly the four features
        // detected above.
        Some(unsafe { update_wide(state, bytes) })
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_wide(block: &[u8; 64]) -> __m512i {
        // SAFETY: `block` is 64 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
    }

    /// `acc` carried `keys` bits forward and added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// [`fold`] on each of the four 128-bit lanes of `acc`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_wide(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let low = _mm512_clmulepi64_epi128::<0x00>(acc, keys);
        let high = _mm512_clmulepi64_epi128::<0x11>(acc, keys);
        _mm512_ternarylogic_epi64::<0x96>(next, low, high)
    }

    /// Feeds `bytes` into `state` like [`super::update_table`]: whole
    /// 16-byte blocks by folding, inputs under four blocks and the tail
    /// by the tables.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return super::update_table(state, bytes);
        };
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        finish(lanes, rest, tail)
    }

    /// Feeds `bytes` into `state` like [`update`], with the main loop on
    /// four 512-bit accumulators (sixteen 128-bit lanes, 256 bytes a
    /// step); inputs under 256 bytes go to [`update`].
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(super) fn update_wide(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<64>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return update(state, bytes);
        };
        let mut lanes = first.each_ref().map(|block| load_wide(block));
        let state = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
        lanes[0] = _mm512_xor_si512(lanes[0], state);
        let (quads, singles) = rest.as_chunks::<4>();
        let by16 = _mm512_broadcast_i32x4(_mm_set_epi64x(K_2016, K_2080));
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_wide(*lane, load_wide(block), by16);
            }
        }
        let by4 = _mm512_broadcast_i32x4(_mm_set_epi64x(K_480, K_544));
        let [a, b, c, d] = lanes;
        let mut x = fold_wide(fold_wide(fold_wide(a, b, by4), c, by4), d, by4);
        for block in singles {
            x = fold_wide(x, load_wide(block), by4);
        }
        // The four 128-bit lanes of `x` stand where the 128-bit kernel's
        // four lanes stand after its fold-by-4 loop: over the last 64
        // folded bytes, in order.
        let lanes = [
            _mm512_castsi512_si128(x),
            _mm512_extracti32x4_epi32::<1>(x),
            _mm512_extracti32x4_epi32::<2>(x),
            _mm512_extracti32x4_epi32::<3>(x),
        ];
        let (blocks, tail) = tail.as_chunks::<16>();
        finish(lanes, blocks, tail)
    }

    /// The end both folding kernels share: four lanes over the bytes
    /// folded so far take `blocks` by fold-by-4 and fold-by-1, Barrett
    /// reduces the last lane to 32 bits, and the tables take `tail`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(mut lanes: [__m128i; 4], blocks: &[[u8; 16]], tail: &[u8]) -> u32 {
        let (quads, singles) = blocks.as_chunks::<4>();
        let by4 = _mm_set_epi64x(K_480, K_544);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), by4);
            }
        }
        let by1 = _mm_set_epi64x(K_96, K_160);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, by1), c, by1), d, by1);
        for block in singles {
            x = fold(x, load(block), by1);
        }

        // 128 bits to 64, then Barrett from 64 to 32; the reflected
        // result sits in the second 32-bit word.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K_64)),
            _mm_srli_si128::<4>(x),
        );
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::update_table(crc, tail)
    }
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

    /// The published values: Intel's white paper and Linux's
    /// `crc32-pclmul_asm.S` (R1..R5, P', μ').
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        use clmul::*;
        assert_eq!(
            [K_544, K_480, K_160, K_96, K_64, P, MU],
            [
                0x1_5444_2BD4,
                0x1_C6E4_1596,
                0x1_7519_97D0,
                0x0_CCAA_009E,
                0x1_63CD_6124,
                0x1_DB71_0641,
                0x1_F701_1641
            ]
        );
    }

    /// The wide kernel's fold-by-16 pair, pinned by another route: `x^n
    /// mod P` is the raw register `x^0` after `n / 8` zero bytes of the
    /// table CRC. The route is checked on the published fold-by-4 pair
    /// first.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_folding_constants_match_the_table_crc_of_zero_bytes() {
        use clmul::*;
        let x_pow = |bits: usize| (update_table(1 << 31, &vec![0; bits / 8]) as i64) << 1;
        assert_eq!([x_pow(544), x_pow(480)], [K_544, K_480]);
        assert_eq!([K_2080, K_2016], [x_pow(2080), x_pow(2016)]);
        assert_eq!([K_2080, K_2016], [0x1_1542_778A, 0x1_322D_1430]);
    }

    /// The two kernels, called directly rather than through `update`,
    /// agree around the fold-by-4 and fold-by-1 loops and the tail, at
    /// every offset within a block and from three start states. The
    /// hardware kernel must actually run: no silent fall-back here.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_and_table_kernels_agree() {
        let (max_len, long) = if cfg!(miri) {
            (300, 4_096)
        } else {
            (1_100, 70_000)
        };
        let data: Vec<u8> = (0..long as u32 + 16)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let folded = |state, bytes: &[u8]| {
            clmul::update_if_detected(state, bytes).expect("PCLMULQDQ and SSE4.1 not detected")
        };
        println!("ran: pclmulqdq+sse4.1 folding kernel");
        for state in [INIT, 0, 0x9E37_79B9] {
            for offset in 0..16 {
                for len in 0..=max_len {
                    let bytes = &data[offset..offset + len];
                    assert_eq!(
                        folded(state, bytes),
                        update_table(state, bytes),
                        "len {len} offset {offset} state {state:#x}"
                    );
                }
            }
            let bytes = &data[..long];
            assert_eq!(
                folded(state, bytes),
                update_table(state, bytes),
                "{long} bytes"
            );
        }
    }

    /// The wide kernel, called directly, against the tables: every
    /// length around its 4 KiB threshold, every 256-byte step boundary
    /// ± 17 (its fold-by-16 loop, the 64-byte singles and the shared
    /// tail), and a long buffer, at 64 offsets from three start states.
    /// On a CPU without the features it says so instead of passing.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_folding_and_table_kernels_agree() {
        let data: Vec<u8> = (0..70_000u32 + 64)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        if clmul::update_wide_if_detected(INIT, &data[..4_096]).is_none() {
            println!("skipped: no avx512f+vpclmulqdq");
            return;
        }
        println!("ran: avx512f+vpclmulqdq wide folding kernel");
        let steps = (256..=9 * 1024).step_by(256);
        let around_steps = steps.flat_map(|b: usize| b - 17..=b + 17);
        let lens: Vec<usize> = (4_000..=4_700)
            .chain(around_steps)
            .chain([70_000])
            .collect();
        for state in [INIT, 0, 0x9E37_79B9] {
            for offset in 0..64 {
                for &len in &lens {
                    let bytes = &data[offset..offset + len];
                    assert_eq!(
                        clmul::update_wide_if_detected(state, bytes),
                        Some(update_table(state, bytes)),
                        "len {len} offset {offset} state {state:#x}"
                    );
                }
            }
        }
    }
}
