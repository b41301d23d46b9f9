//! Bit-level error-coding substrate for the ICR reproduction.
//!
//! The ICR paper protects L1 data-cache lines with one of two codes:
//!
//! * **byte parity** — one even-parity bit per 8-bit byte (12.5% overhead),
//!   which *detects* any single-bit error within a byte but cannot correct it
//!   ([`parity`]);
//! * **SEC-DED** — an 8-check-bit Hamming(72,64) code per 64-bit word
//!   (also 12.5% overhead) that *corrects* single-bit errors and *detects*
//!   double-bit errors ([`secded`]).
//!
//! Unlike a purely statistical reliability model, this crate implements the
//! codes for real: check bits are computed from actual data words, faults are
//! injected by flipping stored bits, and detection/correction outcomes fall
//! out of syndrome decoding. That lets the fault-injection experiments of the
//! paper (Figure 14) operate on genuine codewords.
//!
//! # Quick example
//!
//! ```
//! use icr_ecc::{ProtectedWord, Protection, CheckOutcome};
//!
//! // Encode a word under SEC-DED, flip one stored bit, and watch it heal.
//! let mut w = ProtectedWord::encode(0xDEAD_BEEF_F00D_CAFE, Protection::SecDed);
//! w.flip_data_bit(17);
//! assert_eq!(w.check_and_correct(), CheckOutcome::CorrectedSingle);
//! assert_eq!(w.data(), 0xDEAD_BEEF_F00D_CAFE);
//! ```

pub mod codeword;
pub mod parity;
pub mod secded;

pub use codeword::{CheckOutcome, ProtectedWord, Protection};
pub use parity::{word_parity, ByteParity};
pub use secded::{SecDed, Syndrome};

/// Number of data bits covered by one SEC-DED codeword.
pub const SECDED_DATA_BITS: u32 = 64;
/// Number of check bits in one SEC-DED codeword (7 Hamming + 1 overall).
pub const SECDED_CHECK_BITS: u32 = 8;
/// Number of parity bits protecting one 64-bit word at byte granularity.
pub const PARITY_BITS_PER_WORD: u32 = 8;
