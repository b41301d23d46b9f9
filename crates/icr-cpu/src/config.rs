//! Machine configuration — Table 1 of the paper.

/// The largest RUU the core schedules: it tracks the window with one bit
/// per entry in a `u64`.
pub const MAX_RUU_SIZE: usize = 64;

/// Superscalar-core parameters (defaults reproduce Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued per cycle (paper: 4).
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Register update unit (reorder buffer) entries (paper: 16); at most
    /// [`MAX_RUU_SIZE`].
    pub ruu_size: usize,
    /// Load/store queue entries (paper: 8).
    pub lsq_size: usize,
    /// Integer ALU count (paper: 4).
    pub int_alu_units: usize,
    /// Integer multiplier/divider count (paper: 1).
    pub int_mul_units: usize,
    /// FP ALU count (paper: 4).
    pub fp_alu_units: usize,
    /// FP multiplier/divider count (paper: 1).
    pub fp_mul_units: usize,
    /// Branch misprediction penalty in cycles (paper: 3).
    pub mispredict_penalty: u64,
    /// Bimodal predictor table entries (paper: "bimodal 2KB table").
    pub bimodal_entries: usize,
    /// Two-level predictor pattern-table entries (paper: "two-level 1KB
    /// table, 8 bit history").
    pub two_level_entries: usize,
    /// Two-level history length in bits.
    pub history_bits: u32,
    /// Meta-chooser table entries for the combined predictor.
    pub chooser_entries: usize,
    /// BTB entries (paper: 512, 4-way).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            ruu_size: 16,
            lsq_size: 8,
            int_alu_units: 4,
            int_mul_units: 1,
            fp_alu_units: 4,
            fp_mul_units: 1,
            mispredict_penalty: 3,
            bimodal_entries: 2048,
            two_level_entries: 1024,
            history_bits: 8,
            chooser_entries: 1024,
            btb_entries: 512,
            btb_ways: 4,
        }
    }
}

impl CpuConfig {
    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ruu_size == 0 || self.lsq_size == 0 {
            return Err("RUU and LSQ must be non-empty".into());
        }
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be positive".into());
        }
        if self.ruu_size > MAX_RUU_SIZE {
            return Err(format!("RUU cannot exceed {MAX_RUU_SIZE} entries"));
        }
        if self.lsq_size > self.ruu_size {
            return Err("LSQ cannot out-size the RUU".into());
        }
        for (n, what) in [
            (self.bimodal_entries, "bimodal table"),
            (self.two_level_entries, "two-level table"),
            (self.chooser_entries, "chooser table"),
            (self.btb_entries, "BTB"),
        ] {
            if !n.is_power_of_two() {
                return Err(format!("{what} size must be a power of two"));
            }
        }
        if self.btb_ways == 0 || !self.btb_entries.is_multiple_of(self.btb_ways) {
            return Err("BTB ways must divide BTB entries".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CpuConfig::default();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.ruu_size, 16);
        assert_eq!(c.lsq_size, 8);
        assert_eq!(c.int_alu_units, 4);
        assert_eq!(c.int_mul_units, 1);
        assert_eq!(c.fp_alu_units, 4);
        assert_eq!(c.fp_mul_units, 1);
        assert_eq!(c.mispredict_penalty, 3);
        assert_eq!(c.btb_entries, 512);
        assert_eq!(c.btb_ways, 4);
        c.validate().unwrap();
    }

    #[test]
    fn lsq_larger_than_ruu_rejected() {
        let c = CpuConfig {
            lsq_size: 32,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn ruu_is_bounded_by_the_slot_mask() {
        let at_bound = CpuConfig {
            ruu_size: MAX_RUU_SIZE,
            ..Default::default()
        };
        at_bound.validate().unwrap();
        let over = CpuConfig {
            ruu_size: MAX_RUU_SIZE + 1,
            ..Default::default()
        };
        assert_eq!(
            over.validate(),
            Err("RUU cannot exceed 64 entries".to_string())
        );
    }

    #[test]
    fn non_power_of_two_tables_rejected() {
        let c = CpuConfig {
            bimodal_entries: 1000,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
