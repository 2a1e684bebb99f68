//! Forward error correction for MilBack payloads: Hamming(7,4) with a
//! block interleaver.
//!
//! The paper ships uncoded payloads and reports raw BER; any deployment
//! would add FEC. Hamming(7,4) corrects one bit error per 7-bit codeword —
//! a good match for the OAQFM channel, whose errors are independent
//! per-tone slicing errors — and the interleaver spreads the occasional
//! burst (e.g. a switching transient clipping one symbol, which hits two
//! adjacent bits) across codewords.

use serde::{Deserialize, Serialize};

/// Encodes 4 data bits into a 7-bit Hamming codeword (bits as booleans,
/// parity layout p1 p2 d1 p3 d2 d3 d4).
pub(crate) fn hamming74_encode_nibble(d: [bool; 4]) -> [bool; 7] {
    let [d1, d2, d3, d4] = d;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    [p1, p2, d1, p3, d2, d3, d4]
}

/// Decodes a 7-bit codeword, correcting up to one flipped bit. Returns the
/// 4 data bits and whether a correction was applied.
pub(crate) fn hamming74_decode_codeword(mut c: [bool; 7]) -> ([bool; 4], bool) {
    let s1 = c[0] ^ c[2] ^ c[4] ^ c[6];
    let s2 = c[1] ^ c[2] ^ c[5] ^ c[6];
    let s3 = c[3] ^ c[4] ^ c[5] ^ c[6];
    let syndrome = (s3 as usize) << 2 | (s2 as usize) << 1 | s1 as usize;
    let corrected = syndrome != 0;
    if corrected {
        c[syndrome - 1] = !c[syndrome - 1];
    }
    ([c[2], c[4], c[5], c[6]], corrected)
}

/// Converts bytes to a bit vector, MSB first.
pub fn bytes_to_bits(data: &[u8]) -> Vec<bool> {
    data.iter()
        .flat_map(|&b| (0..8).rev().map(move |i| b >> i & 1 == 1))
        .collect()
}

/// Converts bits (MSB first) back to bytes; the length must be a multiple
/// of eight.
///
/// # Panics
/// Panics if `bits.len() % 8 != 0`.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count must be a byte multiple"
    );
    bits.chunks_exact(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b)))
        .collect()
}

/// A block interleaver: writes row-wise into a `rows × columns` matrix and
/// reads column-wise, spreading bursts of up to `rows` bits across
/// different codewords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BlockInterleaver {
    /// Number of rows (burst tolerance).
    pub rows: usize,
}

impl BlockInterleaver {
    /// Creates an interleaver.
    ///
    /// # Panics
    /// Panics for zero rows.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0);
        Self { rows }
    }

    /// Interleaves; the input length must divide evenly into rows.
    ///
    /// # Panics
    /// Panics if `bits.len() % rows != 0`.
    pub(crate) fn interleave(&self, bits: &[bool]) -> Vec<bool> {
        assert!(
            bits.len().is_multiple_of(self.rows),
            "length must divide into rows"
        );
        let cols = bits.len() / self.rows;
        let mut out = Vec::with_capacity(bits.len());
        for c in 0..cols {
            for r in 0..self.rows {
                out.push(bits[r * cols + c]);
            }
        }
        out
    }

    /// Inverts [`interleave`](Self::interleave).
    ///
    /// # Panics
    /// Panics if `bits.len() % rows != 0`.
    pub(crate) fn deinterleave(&self, bits: &[bool]) -> Vec<bool> {
        assert!(
            bits.len().is_multiple_of(self.rows),
            "length must divide into rows"
        );
        let cols = bits.len() / self.rows;
        let mut out = vec![false; bits.len()];
        for c in 0..cols {
            for r in 0..self.rows {
                out[r * cols + c] = bits[c * self.rows + r];
            }
        }
        out
    }
}

/// The payload codec: Hamming(7,4) plus interleaving, byte-in/byte-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PayloadCodec {
    /// Interleaver depth in rows (1 = no interleaving).
    pub interleave_rows: usize,
}

impl PayloadCodec {
    /// A codec with burst tolerance of `rows` bits.
    pub fn new(interleave_rows: usize) -> Self {
        Self {
            interleave_rows: interleave_rows.max(1),
        }
    }

    /// Coding rate (4/7).
    pub fn rate(&self) -> f64 {
        4.0 / 7.0
    }

    /// Encodes a payload; output is the coded bit stream (length
    /// `payload.len() * 14`, padded to the interleaver geometry).
    pub fn encode(&self, payload: &[u8]) -> Vec<bool> {
        let bits = bytes_to_bits(payload);
        let mut coded = Vec::with_capacity(bits.len() * 7 / 4);
        for nibble in bits.chunks_exact(4) {
            coded.extend(hamming74_encode_nibble([
                nibble[0], nibble[1], nibble[2], nibble[3],
            ]));
        }
        // Pad to a multiple of the interleaver rows.
        while coded.len() % self.interleave_rows != 0 {
            coded.push(false);
        }
        BlockInterleaver::new(self.interleave_rows).interleave(&coded)
    }

    /// Decodes a coded bit stream back to bytes, correcting errors.
    /// Returns `(payload, corrections_applied)`.
    pub fn decode(&self, coded: &[bool]) -> (Vec<u8>, usize) {
        let deinterleaved = BlockInterleaver::new(self.interleave_rows).deinterleave(coded);
        let mut bits = Vec::with_capacity(deinterleaved.len() * 4 / 7);
        let mut corrections = 0;
        for cw in deinterleaved.chunks_exact(7) {
            let (d, corrected) =
                hamming74_decode_codeword([cw[0], cw[1], cw[2], cw[3], cw[4], cw[5], cw[6]]);
            bits.extend_from_slice(&d);
            corrections += usize::from(corrected);
        }
        bits.truncate(bits.len() - bits.len() % 8);
        (bits_to_bytes(&bits), corrections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::random::GaussianSource;

    #[test]
    fn hamming_roundtrip_clean() {
        for v in 0..16u8 {
            let d = [v & 8 != 0, v & 4 != 0, v & 2 != 0, v & 1 != 0];
            let (out, corrected) = hamming74_decode_codeword(hamming74_encode_nibble(d));
            assert_eq!(out, d);
            assert!(!corrected);
        }
    }

    #[test]
    fn hamming_corrects_any_single_flip() {
        for v in 0..16u8 {
            let d = [v & 8 != 0, v & 4 != 0, v & 2 != 0, v & 1 != 0];
            let cw = hamming74_encode_nibble(d);
            for flip in 0..7 {
                let mut bad = cw;
                bad[flip] = !bad[flip];
                let (out, corrected) = hamming74_decode_codeword(bad);
                assert_eq!(out, d, "value {v}, flip {flip}");
                assert!(corrected);
            }
        }
    }

    #[test]
    fn bits_bytes_roundtrip() {
        let data = vec![0x00, 0xFF, 0x5A, 0x13];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn interleaver_roundtrip() {
        let il = BlockInterleaver::new(7);
        let bits: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn interleaver_spreads_bursts() {
        // A burst of `rows` consecutive errors post-interleaving lands in
        // `rows` different codewords pre-interleaving.
        let il = BlockInterleaver::new(7);
        let n = 70;
        let clean = vec![false; n];
        let mut burst = il.interleave(&clean);
        for b in burst.iter_mut().take(7) {
            *b = true; // 7-bit burst on the wire
        }
        let spread = il.deinterleave(&burst);
        // Each 7-bit codeword now contains at most one error.
        for cw in spread.chunks(7) {
            assert!(cw.iter().filter(|&&b| b).count() <= 1);
        }
    }

    #[test]
    fn codec_roundtrip_clean() {
        let codec = PayloadCodec::new(7);
        let payload = vec![0xDE, 0xAD, 0xBE, 0xEF];
        let coded = codec.encode(&payload);
        let (decoded, corrections) = codec.decode(&coded);
        assert_eq!(decoded, payload);
        assert_eq!(corrections, 0);
    }

    #[test]
    fn codec_corrects_scattered_errors() {
        // Inject exactly one error per codeword (the budget Hamming(7,4)
        // guarantees), expressed in the wire (interleaved) domain.
        let codec = PayloadCodec::new(7);
        let payload: Vec<u8> = (0..32).collect();
        let coded = codec.encode(&payload);
        let il = BlockInterleaver::new(7);
        let mut deinterleaved = il.deinterleave(&coded);
        let mut i = 3;
        while i < deinterleaved.len() {
            deinterleaved[i] = !deinterleaved[i];
            i += 7; // one flip per 7-bit codeword
        }
        let wire = il.interleave(&deinterleaved);
        let (decoded, corrections) = codec.decode(&wire);
        assert_eq!(decoded, payload);
        assert!(corrections >= deinterleaved.len() / 7 - 1);
    }

    #[test]
    fn codec_corrects_a_burst() {
        let codec = PayloadCodec::new(7);
        let payload = vec![0x55; 16];
        let mut coded = codec.encode(&payload);
        for b in coded.iter_mut().skip(20).take(7) {
            *b = !*b; // 7-bit wire burst
        }
        let (decoded, _) = codec.decode(&coded);
        assert_eq!(decoded, payload);
    }

    #[test]
    fn coded_link_beats_uncoded_at_moderate_ber() {
        // Monte-Carlo: at a raw BER of ~1%, the coded link should deliver
        // far fewer residual errors than the uncoded one.
        let codec = PayloadCodec::new(7);
        let mut rng = GaussianSource::new(99);
        let payload: Vec<u8> = rng.bytes(512);
        let coded = codec.encode(&payload);
        let p_flip = 0.01;
        let flips = |bits: &[bool], rng: &mut GaussianSource| -> Vec<bool> {
            bits.iter()
                .map(|&b| {
                    if rng.uniform(0.0, 1.0) < p_flip {
                        !b
                    } else {
                        b
                    }
                })
                .collect()
        };
        // Coded path.
        let rx_coded = flips(&coded, &mut rng);
        let (decoded, _) = codec.decode(&rx_coded);
        let coded_errors: usize = decoded
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        // Uncoded path over the same channel.
        let raw_bits = bytes_to_bits(&payload);
        let rx_raw = flips(&raw_bits, &mut rng);
        let raw_errors: usize = raw_bits.iter().zip(&rx_raw).filter(|(a, b)| a != b).count();
        assert!(
            coded_errors * 4 < raw_errors.max(1),
            "coded {coded_errors} vs raw {raw_errors}"
        );
    }

    #[test]
    fn rate_is_four_sevenths() {
        assert!((PayloadCodec::new(1).rate() - 4.0 / 7.0).abs() < 1e-12);
    }
}
