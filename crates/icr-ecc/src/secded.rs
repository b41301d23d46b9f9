//! Hamming(72,64) SEC-DED — the "8 bit SEC-DED for a 64-bit entity" of the
//! paper's `BaseECC` and `ICR-ECC-*` schemes.
//!
//! Seven Hamming check bits protect the 64 data bits (a shortened
//! Hamming(127,120) code: 2⁷ ≥ 64 + 7 + 1), and an eighth *overall* parity
//! bit extends the code to single-error-correcting / double-error-detecting:
//!
//! * syndrome = 0, overall parity even  → clean;
//! * syndrome ≠ 0, overall parity odd   → single-bit error at the position
//!   named by the syndrome (corrected);
//! * syndrome = 0, overall parity odd   → the overall parity bit itself
//!   flipped (corrected);
//! * syndrome ≠ 0, overall parity even  → double-bit error (detected,
//!   uncorrectable).
//!
//! Internally the codeword uses the textbook layout: positions `1..=71`,
//! with check bit *i* at position `2^i` and data bits filling the remaining
//! 64 positions in increasing order.

/// Codeword length excluding the overall parity bit.
const HAMMING_LEN: u32 = 71;

/// Positions `1..=71` that carry data bits (everything that is not a power
/// of two), in increasing order. Index *i* of this table is data bit *i*.
const fn data_positions() -> [u32; 64] {
    let mut out = [0u32; 64];
    let mut i = 0;
    let mut pos = 1u32;
    while i < 64 {
        if !pos.is_power_of_two() {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

const DATA_POSITIONS: [u32; 64] = data_positions();

/// `GROUP_MASKS[j]` selects the data bits whose codeword position has bit
/// `j` set, so the parity of `data & GROUP_MASKS[j]` is bit `j` of the XOR
/// of set data positions. This turns the per-bit position walk into seven
/// mask-and-popcount steps with bit-identical results.
const GROUP_MASKS: [u64; 7] = {
    let mut masks = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let mut j = 0;
        while j < 7 {
            if (DATA_POSITIONS[i] >> j) & 1 == 1 {
                masks[j] |= 1 << i;
            }
            j += 1;
        }
        i += 1;
    }
    masks
};

/// XOR of the codeword positions of the set bits in `data`, via the
/// parity-group masks.
#[inline]
fn position_xor(data: u64) -> u32 {
    let mut acc = 0u32;
    let mut j = 0;
    while j < 7 {
        acc |= ((data & GROUP_MASKS[j]).count_ones() & 1) << j;
        j += 1;
    }
    acc
}

/// Stored check bits for one 64-bit word under SEC-DED.
///
/// Bits 0–6 hold Hamming check bits `p0..p6` (for codeword positions
/// `1, 2, 4, …, 64`); bit 7 holds the overall parity bit.
///
/// ```
/// use icr_ecc::{SecDed, secded::Decode};
///
/// let data = 0xCAFE_BABE_8BAD_F00Du64;
/// let code = SecDed::encode(data);
/// assert_eq!(code.decode(data), Decode::Clean);
///
/// // Any single flipped data bit is corrected.
/// let corrupted = data ^ (1 << 42);
/// match code.decode(corrupted) {
///     Decode::CorrectedData { data: fixed, .. } => assert_eq!(fixed, data),
///     other => panic!("expected correction, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SecDed {
    check: u8,
}

/// Raw syndrome information from a SEC-DED check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Syndrome {
    /// XOR of the positions of mismatching parity groups (0 = no mismatch).
    pub position: u32,
    /// `true` when the overall parity over the full 72-bit codeword is odd.
    pub overall_odd: bool,
}

/// Outcome of decoding a SEC-DED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decode {
    /// No error.
    Clean,
    /// A single flipped data bit was corrected; `data` is the repaired word.
    CorrectedData {
        /// Index (0–63) of the corrected data bit.
        bit: u32,
        /// The corrected data word.
        data: u64,
    },
    /// A single flipped *check* bit was corrected; the data was never wrong.
    CorrectedCheck {
        /// Index (0–7) of the corrected check bit (7 = overall parity).
        bit: u32,
    },
    /// A double-bit error was detected; correction is impossible.
    DoubleError,
    /// The syndrome named a position outside the codeword: three or more
    /// bits flipped in a pattern the code cannot attribute.
    MultiError,
}

impl Decode {
    /// `true` for outcomes where the returned data can be trusted.
    pub fn is_recoverable(self) -> bool {
        !matches!(self, Decode::DoubleError | Decode::MultiError)
    }
}

impl SecDed {
    /// Computes the eight check bits for `data`.
    pub fn encode(data: u64) -> Self {
        // Check bit i makes parity group i even, so its value is the i-th
        // bit of the accumulated XOR of set data positions.
        let mut check = (position_xor(data) & 0x7F) as u8;
        // Overall parity bit makes the whole 72-bit codeword even.
        let hamming_ones = data.count_ones() + check.count_ones();
        if hamming_ones % 2 == 1 {
            check |= 0x80;
        }
        SecDed { check }
    }

    /// The raw stored check bits.
    pub fn bits(self) -> u8 {
        self.check
    }

    /// Flips one stored check bit, modelling a fault in the check storage.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_bit(&mut self, bit: u32) {
        assert!(bit < 8, "SEC-DED has 8 check bits, got bit {bit}");
        self.check ^= 1 << bit;
    }

    /// Computes the syndrome of (`data`, stored check bits) without acting
    /// on it. Exposed for tests and for energy accounting of "ECC checks".
    pub fn syndrome(self, data: u64) -> Syndrome {
        // Each set stored check bit i < 7 toggles syndrome bit i; the
        // overall parity covers all 72 stored bits.
        let acc = position_xor(data) ^ (self.check & 0x7F) as u32;
        let overall_ones = data.count_ones() + self.check.count_ones();
        Syndrome {
            position: acc,
            overall_odd: overall_ones % 2 == 1,
        }
    }

    /// Full SEC-DED decode of (`data`, stored check bits).
    pub fn decode(self, data: u64) -> Decode {
        let syn = self.syndrome(data);
        match (syn.position, syn.overall_odd) {
            (0, false) => Decode::Clean,
            (0, true) => Decode::CorrectedCheck { bit: 7 },
            (pos, true) => {
                if pos.is_power_of_two() && pos <= 64 {
                    // A Hamming check bit itself flipped.
                    Decode::CorrectedCheck {
                        bit: pos.trailing_zeros(),
                    }
                } else if pos <= HAMMING_LEN {
                    let positions = data_positions();
                    match positions.iter().position(|&p| p == pos) {
                        Some(i) => Decode::CorrectedData {
                            bit: i as u32,
                            data: data ^ (1u64 << i),
                        },
                        None => Decode::MultiError,
                    }
                } else {
                    Decode::MultiError
                }
            }
            (_, false) => Decode::DoubleError,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 6] = [
        0,
        u64::MAX,
        0xDEAD_BEEF_F00D_CAFE,
        0xA5A5_5A5A_0F0F_F0F0,
        1,
        1 << 63,
    ];

    #[test]
    fn data_positions_are_the_64_non_powers_of_two() {
        let pos = data_positions();
        assert_eq!(pos.len(), 64);
        assert_eq!(pos[0], 3);
        assert_eq!(pos[63], 71);
        for p in pos {
            assert!(!p.is_power_of_two());
            assert!((1..=71).contains(&p));
        }
        let mut sorted = pos;
        sorted.sort_unstable();
        assert_eq!(sorted, pos, "positions are increasing");
    }

    #[test]
    fn clean_codewords_decode_clean() {
        for data in SAMPLES {
            assert_eq!(SecDed::encode(data).decode(data), Decode::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        for data in SAMPLES {
            let code = SecDed::encode(data);
            for bit in 0..64 {
                let corrupted = data ^ (1u64 << bit);
                match code.decode(corrupted) {
                    Decode::CorrectedData {
                        bit: b,
                        data: fixed,
                    } => {
                        assert_eq!(b, bit);
                        assert_eq!(fixed, data);
                    }
                    other => panic!("data {data:#x} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        for data in SAMPLES {
            for bit in 0..8 {
                let mut code = SecDed::encode(data);
                code.flip_bit(bit);
                match code.decode(data) {
                    Decode::CorrectedCheck { bit: b } => assert_eq!(b, bit),
                    other => panic!("data {data:#x} check bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_double_data_bit_flip_is_detected_not_corrected() {
        let data = 0xDEAD_BEEF_F00D_CAFEu64;
        let code = SecDed::encode(data);
        for a in 0..64 {
            for b in (a + 1)..64 {
                let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
                assert_eq!(code.decode(corrupted), Decode::DoubleError, "bits {a},{b}");
            }
        }
    }

    #[test]
    fn data_plus_check_double_flip_is_detected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        for data_bit in [0u32, 31, 63] {
            for check_bit in 0..8 {
                let mut code = SecDed::encode(data);
                code.flip_bit(check_bit);
                let corrupted = data ^ (1u64 << data_bit);
                assert_eq!(
                    code.decode(corrupted),
                    Decode::DoubleError,
                    "data bit {data_bit}, check bit {check_bit}"
                );
            }
        }
    }

    #[test]
    fn double_check_bit_flip_is_detected() {
        let data = 77u64;
        for a in 0..8 {
            for b in (a + 1)..8 {
                let mut code = SecDed::encode(data);
                code.flip_bit(a);
                code.flip_bit(b);
                assert_eq!(code.decode(data), Decode::DoubleError, "bits {a},{b}");
            }
        }
    }

    #[test]
    fn syndrome_of_clean_word_is_zero() {
        for data in SAMPLES {
            let s = SecDed::encode(data).syndrome(data);
            assert_eq!(s.position, 0);
            assert!(!s.overall_odd);
        }
    }

    #[test]
    fn decode_outcome_recoverability() {
        assert!(Decode::Clean.is_recoverable());
        assert!(Decode::CorrectedData { bit: 0, data: 0 }.is_recoverable());
        assert!(Decode::CorrectedCheck { bit: 0 }.is_recoverable());
        assert!(!Decode::DoubleError.is_recoverable());
        assert!(!Decode::MultiError.is_recoverable());
    }

    #[test]
    #[should_panic(expected = "SEC-DED has 8 check bits")]
    fn flip_bit_out_of_range_panics() {
        SecDed::default().flip_bit(8);
    }
}
