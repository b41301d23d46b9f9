//! The last level: a functional main memory with fixed or row-buffer-aware
//! access latency.
//!
//! Only blocks that have ever been written back are stored; everything else
//! reads as its deterministic [`DataBlock::pristine`] pattern, so the
//! simulated machine has a full 64-bit address space at negligible memory
//! cost.
//!
//! Timing comes in two flavours: the paper's flat 100-cycle latency
//! (default, Table 1), or an optional DRAM row-buffer model
//! ([`RowBufferConfig`]) in which an access that hits a bank's open row is
//! substantially cheaper — useful for studying how ICR's extra memory
//! traffic interacts with locality below the caches.

use crate::addr::BlockAddr;
use crate::block::DataBlock;
use std::collections::HashMap;

/// Open-page DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBufferConfig {
    /// Number of banks (power of two).
    pub banks: usize,
    /// Row size in bytes (power of two).
    pub row_bytes: usize,
    /// Latency of an access hitting the bank's open row.
    pub hit_latency: u64,
    /// Latency of an access that must open a new row.
    pub miss_latency: u64,
}

impl RowBufferConfig {
    /// A 2003-flavoured default: 8 banks, 4KB rows, 40/100 cycles.
    pub fn default_2003() -> Self {
        RowBufferConfig {
            banks: 8,
            row_bytes: 4096,
            hit_latency: 40,
            miss_latency: 100,
        }
    }

    /// Validates the shape parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.banks.is_power_of_two() || !self.row_bytes.is_power_of_two() {
            return Err("banks and row size must be powers of two".into());
        }
        if self.hit_latency > self.miss_latency {
            return Err("row hits cannot cost more than row misses".into());
        }
        Ok(())
    }
}

/// Main memory: deterministic pristine contents plus written-back blocks.
#[derive(Debug, Clone)]
pub struct MainMemory {
    words_per_block: usize,
    latency: u64,
    row_buffer: Option<RowBufferConfig>,
    /// Open row per bank (row-buffer mode).
    open_rows: Vec<Option<u64>>,
    row_hits: u64,
    written: HashMap<BlockAddr, DataBlock>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates a memory serving `words_per_block`-word blocks with a fixed
    /// `latency` in cycles (the paper uses 100).
    ///
    /// # Panics
    ///
    /// Panics if `words_per_block == 0`.
    pub fn new(words_per_block: usize, latency: u64) -> Self {
        assert!(words_per_block > 0, "blocks must hold at least one word");
        MainMemory {
            words_per_block,
            latency,
            row_buffer: None,
            open_rows: Vec::new(),
            row_hits: 0,
            written: HashMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Enables the open-page row-buffer timing model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`RowBufferConfig::validate`].
    pub fn with_row_buffer(mut self, config: RowBufferConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid row-buffer config: {e}"));
        self.open_rows = vec![None; config.banks];
        self.row_buffer = Some(config);
        self
    }

    /// Access latency in cycles for `addr` — flat, or row-buffer-aware
    /// when the model is enabled (this updates the open-row state).
    pub fn access_latency(&mut self, addr: BlockAddr) -> u64 {
        let Some(cfg) = self.row_buffer else {
            return self.latency;
        };
        let row = addr.raw() / cfg.row_bytes as u64;
        let bank = (row as usize) & (cfg.banks - 1);
        let global_row = row / cfg.banks as u64;
        if self.open_rows[bank] == Some(global_row) {
            self.row_hits += 1;
            cfg.hit_latency
        } else {
            self.open_rows[bank] = Some(global_row);
            cfg.miss_latency
        }
    }

    /// Nominal (row-miss / flat) access latency in cycles.
    pub fn latency(&self) -> u64 {
        match self.row_buffer {
            Some(cfg) => cfg.miss_latency,
            None => self.latency,
        }
    }

    /// Row-buffer hits observed (0 unless the model is enabled).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Reads a block, counting one memory access. Returns the data and the
    /// access latency.
    pub fn read_block(&mut self, addr: BlockAddr) -> (DataBlock, u64) {
        self.reads += 1;
        let lat = self.access_latency(addr);
        (self.peek_block(addr), lat)
    }

    /// Reads a block without counting an access (for verification in tests
    /// and for error-recovery bookkeeping).
    pub fn peek_block(&self, addr: BlockAddr) -> DataBlock {
        self.written
            .get(&addr)
            .copied()
            .unwrap_or_else(|| DataBlock::pristine(addr, self.words_per_block))
    }

    /// Writes a full block back to memory.
    ///
    /// # Panics
    ///
    /// Panics if the block's word count differs from this memory's.
    pub fn write_block(&mut self, addr: BlockAddr, data: DataBlock) {
        assert_eq!(data.len(), self.words_per_block, "block size mismatch");
        self.writes += 1;
        // Writes also stream through the row buffer.
        let _ = self.access_latency(addr);
        self.written.insert(addr, data);
    }

    /// Number of block reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of block writes absorbed.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_blocks_read_pristine() {
        let mut m = MainMemory::new(8, 100);
        let a = BlockAddr(0x4000);
        let (data, lat) = m.read_block(a);
        assert_eq!(data, DataBlock::pristine(a, 8));
        assert_eq!(lat, 100);
        assert_eq!(m.reads(), 1);
    }

    #[test]
    fn written_blocks_read_back() {
        let mut m = MainMemory::new(8, 100);
        let a = BlockAddr(0x4000);
        let mut d = DataBlock::zeroed(8);
        d.set_word(3, 0xABCD);
        m.write_block(a, d);
        assert_eq!(m.read_block(a).0, d);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn peek_does_not_count() {
        let m = MainMemory::new(8, 100);
        let _ = m.peek_block(BlockAddr(0));
        assert_eq!(m.reads(), 0);
    }

    #[test]
    fn row_buffer_hits_are_cheaper() {
        let mut m = MainMemory::new(8, 100).with_row_buffer(RowBufferConfig::default_2003());
        // First access opens the row; the second, in the same 4KB row,
        // hits it.
        assert_eq!(m.read_block(BlockAddr(0x0000)).1, 100);
        assert_eq!(m.read_block(BlockAddr(0x0040)).1, 40);
        assert_eq!(m.row_hits(), 1);
        // A different row in the same bank closes it.
        assert_eq!(m.read_block(BlockAddr(0x8000)).1, 100);
        assert_eq!(m.read_block(BlockAddr(0x0080)).1, 100, "row was closed");
    }

    #[test]
    fn different_banks_keep_independent_rows() {
        let mut m = MainMemory::new(8, 100).with_row_buffer(RowBufferConfig::default_2003());
        m.read_block(BlockAddr(0x0000)); // bank 0, row 0
        m.read_block(BlockAddr(0x1000)); // bank 1
        assert_eq!(
            m.read_block(BlockAddr(0x0040)).1,
            40,
            "bank 0 row still open"
        );
    }

    #[test]
    fn flat_mode_reports_configured_latency() {
        let m = MainMemory::new(8, 77);
        assert_eq!(m.latency(), 77);
        assert_eq!(m.row_hits(), 0);
    }

    #[test]
    fn row_config_validation() {
        assert!(RowBufferConfig::default_2003().validate().is_ok());
        let bad = RowBufferConfig {
            banks: 3,
            ..RowBufferConfig::default_2003()
        };
        assert!(bad.validate().is_err());
        let inverted = RowBufferConfig {
            hit_latency: 200,
            ..RowBufferConfig::default_2003()
        };
        assert!(inverted.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_block_size_panics() {
        let mut m = MainMemory::new(8, 100);
        m.write_block(BlockAddr(0), DataBlock::zeroed(4));
    }
}
