//! Per-byte even parity, the cheap detection code of the paper.
//!
//! The paper's `BaseP` and all `ICR-P-*` schemes attach one even-parity bit
//! to every 8-bit byte. A 64-bit word therefore carries eight parity bits,
//! packed here into a single [`ByteParity`] octet where bit *i* protects
//! byte *i* (byte 0 = least significant).
//!
//! Byte parity detects every odd number of flipped bits within a byte
//! (in particular any single-bit error) but corrects nothing; the paper's
//! recovery path on a parity mismatch is "use the replica, else reload from
//! L2, else the load is unrecoverable".

/// Packed even-parity bits for one 64-bit word: bit *i* is the parity of
/// byte *i* of the word.
///
/// Stored parity is compared against recomputed parity by
/// [`ByteParity::check`]; the XOR of the two yields a mask of suspect bytes.
///
/// ```
/// use icr_ecc::ByteParity;
///
/// let p = ByteParity::encode(0x0102_0304_0506_0708);
/// assert!(p.check(0x0102_0304_0506_0708).is_clean());
/// // Flip one bit in byte 3 and the mismatch pinpoints that byte.
/// let corrupted = 0x0102_0304_0506_0708 ^ (1 << 24);
/// assert_eq!(p.check(corrupted).mismatched_bytes(), 0b0000_1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ByteParity(u8);

impl ByteParity {
    /// Computes the even-parity octet for `data`.
    pub fn encode(data: u64) -> Self {
        ByteParity(word_parity(data))
    }

    /// The raw stored parity bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Flips one stored parity bit, modelling a fault in the check storage.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_bit(&mut self, bit: u32) {
        assert!(bit < 8, "parity octet has 8 bits, got bit {bit}");
        self.0 ^= 1 << bit;
    }

    /// Recomputes parity over `data` and compares with the stored bits.
    pub fn check(self, data: u64) -> ParityCheck {
        ParityCheck {
            mismatch: self.0 ^ word_parity(data),
        }
    }
}

/// Result of a byte-parity check: a per-byte mismatch mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParityCheck {
    mismatch: u8,
}

impl ParityCheck {
    /// `true` when every byte's parity matched.
    pub fn is_clean(self) -> bool {
        self.mismatch == 0
    }

    /// `true` when at least one byte's parity mismatched (an error was
    /// *detected*; parity can never correct).
    pub fn is_error(self) -> bool {
        self.mismatch != 0
    }

    /// Mask of bytes whose parity mismatched (bit *i* set ⇒ byte *i* is
    /// suspect).
    pub fn mismatched_bytes(self) -> u8 {
        self.mismatch
    }

    /// Number of bytes whose parity mismatched.
    pub fn mismatch_count(self) -> u32 {
        self.mismatch.count_ones()
    }
}

/// Computes the packed even-parity octet of a 64-bit word (bit *i* = parity
/// of byte *i*).
///
/// ```
/// assert_eq!(icr_ecc::word_parity(0), 0);
/// assert_eq!(icr_ecc::word_parity(1), 1);            // one set bit in byte 0
/// assert_eq!(icr_ecc::word_parity(0x3), 0);          // two set bits: even
/// assert_eq!(icr_ecc::word_parity(0x0100), 0b10);    // one set bit in byte 1
/// ```
pub fn word_parity(data: u64) -> u8 {
    let mut out = 0u8;
    for byte in 0..8 {
        let b = ((data >> (byte * 8)) & 0xFF) as u8;
        out |= (b.count_ones() as u8 & 1) << byte;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_word_has_zero_parity() {
        assert_eq!(word_parity(0), 0);
        assert!(ByteParity::encode(0).check(0).is_clean());
    }

    #[test]
    fn all_ones_word_has_zero_parity() {
        // Each byte has eight set bits: even.
        assert_eq!(word_parity(u64::MAX), 0);
    }

    #[test]
    fn single_set_bit_sets_exactly_one_parity_bit() {
        for bit in 0..64 {
            let p = word_parity(1u64 << bit);
            assert_eq!(p.count_ones(), 1, "bit {bit}");
            assert_eq!(p, 1 << (bit / 8), "bit {bit} maps to its byte");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let enc = ByteParity::encode(data);
        for bit in 0..64 {
            let check = enc.check(data ^ (1 << bit));
            assert!(check.is_error(), "flip of bit {bit} undetected");
            assert_eq!(check.mismatch_count(), 1);
            assert_eq!(check.mismatched_bytes(), 1 << (bit / 8));
        }
    }

    #[test]
    fn double_flip_same_byte_is_missed() {
        // The known limitation of parity: an even number of flips inside one
        // byte aliases. This is exactly why the paper pairs parity with
        // replicas or SEC-DED.
        let data = 0u64;
        let enc = ByteParity::encode(data);
        assert!(enc.check(data ^ 0b11).is_clean());
    }

    #[test]
    fn double_flip_across_bytes_is_detected() {
        let data = 0u64;
        let enc = ByteParity::encode(data);
        let corrupted = data ^ (1 << 0) ^ (1 << 8);
        let check = enc.check(corrupted);
        assert_eq!(check.mismatch_count(), 2);
    }

    #[test]
    fn flipping_a_stored_parity_bit_reports_mismatch() {
        let data = 0x1234_5678_9ABC_DEF0u64;
        let mut enc = ByteParity::encode(data);
        enc.flip_bit(5);
        let check = enc.check(data);
        assert!(check.is_error());
        assert_eq!(check.mismatched_bytes(), 1 << 5);
    }

    #[test]
    #[should_panic(expected = "parity octet has 8 bits")]
    fn flip_bit_out_of_range_panics() {
        ByteParity::default().flip_bit(8);
    }
}
