//! Turns an [`AppProfile`] plus a seed into a deterministic, endless
//! dynamic-instruction stream.
//!
//! The generated program is a set of basic blocks (each ending in a
//! conditional branch site with a fixed bias and target), executing over a
//! three-tier data working set. The same `(profile, seed)` pair always
//! yields the same trace, which keeps every experiment reproducible.

use crate::inst::{Inst, OpClass, Reg};
use crate::profile::AppProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Bytes per instruction in the synthetic ISA.
pub const INST_BYTES: u64 = 4;

/// Number of integer architectural registers (indices `0..32`).
pub const INT_REGS: u8 = 32;
/// Depth of the recently-stored-block FIFO loads can revisit.
const STORE_REUSE_DEPTH: usize = 512;
/// Size of the warm tier's active (live-generation) subset.
const ACTIVE_WARM_BLOCKS: u64 = 48;
/// Number of FP architectural registers (indices `32..64`).
pub const FP_REGS: u8 = 32;

#[derive(Debug, Clone)]
struct BasicBlock {
    start_pc: u64,
    /// Non-branch instructions before the terminating branch.
    len: usize,
    /// Probability the terminating branch is taken.
    taken_bias: f64,
    /// Block index jumped to when taken.
    target: usize,
}

/// Deterministic synthetic-trace generator; an infinite
/// `Iterator<Item = Inst>`.
///
/// ```
/// use icr_trace::{apps, TraceGenerator};
///
/// let gen = TraceGenerator::new(apps::try_profile("gzip").unwrap(), 42);
/// let insts: Vec<_> = gen.take(1000).collect();
/// assert_eq!(insts.len(), 1000);
/// // Same seed, same trace:
/// let again: Vec<_> = TraceGenerator::new(apps::try_profile("gzip").unwrap(), 42)
///     .take(1000)
///     .collect();
/// assert_eq!(insts, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    rng: SmallRng,
    blocks: Vec<BasicBlock>,
    cur_block: usize,
    emitted_in_block: usize,
    /// Cold-region streaming cursor (block index within the cold region).
    stride_block: u64,
    /// Word within the current strided block.
    stride_word: u64,
    /// Pointer-chase cursor (block index within the cold region).
    chase_block: u64,
    /// Recently written registers, for dependence locality.
    recent_dests: VecDeque<Reg>,
    /// Destination of a just-emitted load, consumed by a near-by
    /// instruction with high probability (real code's load-use distance
    /// is 1–2 instructions, which is what exposes load latency).
    pending_load_dest: Option<Reg>,
    /// Block addresses of recent stores; loads revisit these with
    /// probability `store_reuse` (update-then-reread behaviour).
    recent_stores: VecDeque<u64>,
    /// Whether the previous non-branch op was a store (stores cluster in
    /// real code — spills, struct initialisation — which is what fills
    /// write buffers).
    last_was_store: bool,
    /// Start of the warm tier's rotating active subset.
    warm_offset: u64,
    /// Warm accesses since the start, for dwell-based rotation.
    warm_accesses: u64,
}

impl TraceGenerator {
    /// Builds a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`].
    pub fn new(profile: AppProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {:?}: {e}", profile.name));
        let mut rng = SmallRng::seed_from_u64(seed);
        let blocks = Self::build_code(&profile, &mut rng);
        TraceGenerator {
            profile,
            rng,
            blocks,
            cur_block: 0,
            emitted_in_block: 0,
            stride_block: 0,
            stride_word: 0,
            chase_block: 0,
            recent_dests: VecDeque::with_capacity(8),
            pending_load_dest: None,
            recent_stores: VecDeque::with_capacity(STORE_REUSE_DEPTH),
            last_was_store: false,
            warm_offset: 0,
            warm_accesses: 0,
        }
    }

    /// The profile this generator runs.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    fn build_code(profile: &AppProfile, rng: &mut SmallRng) -> Vec<BasicBlock> {
        let sites = profile.branch.sites;
        let branch_frac = profile.mix.branch.max(1e-3);
        // Each block is `len` non-branch instructions plus its branch, so a
        // mean length of (1 - f) / f yields branch fraction f.
        let mean_len = ((1.0 - branch_frac) / branch_frac).max(1.0);
        let mut blocks = Vec::with_capacity(sites);
        let mut pc = profile.code_base;
        for i in 0..sites {
            // Dither between ⌊mean⌋ and ⌈mean⌉ rather than jittering widely:
            // branch fraction is 1/(len+1), which is convex in len, so wide
            // jitter would systematically inflate the branch rate (Jensen).
            let lo = mean_len.floor().max(1.0);
            let len = (lo
                + if rng.gen::<f64>() < mean_len - lo {
                    1.0
                } else {
                    0.0
                }) as usize;
            // Biased sites are near-deterministic; the rest flip coins near
            // the global taken rate.
            let taken_bias = if rng.gen::<f64>() < profile.branch.predictability {
                if rng.gen::<f64>() < profile.branch.taken_rate {
                    0.97
                } else {
                    0.03
                }
            } else {
                profile.branch.taken_rate
            };
            // Mostly local backward targets (loops), some long jumps.
            let target = if rng.gen::<f64>() < 0.75 {
                i.saturating_sub(rng.gen_range(0..8))
            } else {
                rng.gen_range(0..sites)
            };
            blocks.push(BasicBlock {
                start_pc: pc,
                len,
                taken_bias,
                target,
            });
            pc += (len as u64 + 1) * INST_BYTES;
        }
        blocks
    }

    fn pick_dest(&mut self, fp: bool) -> Reg {
        let r = if fp {
            INT_REGS + self.rng.gen_range(0..FP_REGS)
        } else {
            self.rng.gen_range(0..INT_REGS)
        };
        let reg = Reg(r);
        if self.recent_dests.len() == 8 {
            self.recent_dests.pop_front();
        }
        self.recent_dests.push_back(reg);
        reg
    }

    fn pick_src(&mut self) -> Option<Reg> {
        // A freshly loaded value is consumed almost immediately, as in
        // real code — this is what puts load latency on the critical path.
        if self.pending_load_dest.is_some() && self.rng.gen::<f64>() < 0.9 {
            return self.pending_load_dest.take();
        }
        if !self.recent_dests.is_empty() && self.rng.gen::<f64>() < 0.7 {
            // Tight dependence: mostly the last couple of results.
            let span = self.recent_dests.len().min(3);
            let i = self.recent_dests.len() - 1 - self.rng.gen_range(0..span);
            Some(self.recent_dests[i])
        } else if self.rng.gen::<f64>() < 0.8 {
            Some(Reg(self.rng.gen_range(0..INT_REGS)))
        } else {
            None
        }
    }

    /// Chooses the data address of a memory op.
    fn pick_mem_addr(&mut self, is_store: bool) -> u64 {
        let loc = self.profile.locality;
        // Update-then-reread: a load revisits a recently stored block.
        // The revisit distance spans the whole FIFO, so some rereads
        // arrive long after the block's primary copy was evicted — the
        // pattern §5.6's surviving replicas turn into cheap fills.
        if !is_store && !self.recent_stores.is_empty() && self.rng.gen::<f64>() < loc.store_reuse {
            // Prefer middle-aged entries: recent enough that a replica
            // created at store time may survive, old enough that the
            // primary has often been evicted already.
            let len = self.recent_stores.len();
            let lo = len / 4;
            let span = (len - 2 * lo).max(1);
            let i = lo + self.rng.gen_range(0..span);
            let word = self.rng.gen_range(0..8u64);
            return self.recent_stores[i.min(len - 1)] + word * 8;
        }
        // Stores can be biased further toward the hot region.
        let p_hot = if is_store {
            (loc.p_hot * loc.store_hot_bias).min(0.95)
        } else {
            loc.p_hot
        };
        // Keep the warm/cold split of the remaining probability intact.
        let rest = 1.0 - loc.p_hot;
        let p_warm = if rest > 0.0 {
            (1.0 - p_hot) * (loc.p_warm / rest)
        } else {
            0.0
        };

        let r = self.rng.gen::<f64>();
        let (region_base, block_in_region) = if r < p_hot {
            let i = self.rng.gen_range(0..loc.hot_blocks as u64);
            if loc.hot_confined {
                // Fold the hot region onto a quarter as many sets (four
                // tags per set — the full associativity of the paper's
                // 64-set, 4-way dL1): hot primaries now conflict with each
                // other and with interfering traffic, which is what lets
                // surviving replicas act as extra associativity (§5.6).
                let quarter = (loc.hot_blocks as u64 / 4).max(1);
                let folded = (i % quarter) + (i / quarter) * 64;
                let addr = self.profile.data_base + folded * 64 + self.rng.gen_range(0..8u64) * 8;
                if is_store {
                    self.push_recent_store(addr & !63);
                }
                return addr;
            }
            (0u64, i)
        } else if r < p_hot + p_warm {
            let warm = loc.warm_blocks as u64;
            let idx = if loc.warm_dwell == 0 {
                self.rng.gen_range(0..warm)
            } else {
                // Generational reuse: intense activity inside a small
                // active subset that slowly rotates through the tier, so
                // blocks genuinely die after their generation ends.
                let active = ACTIVE_WARM_BLOCKS.min(warm);
                self.warm_accesses += 1;
                if self.warm_accesses.is_multiple_of(loc.warm_dwell as u64) {
                    self.warm_offset = (self.warm_offset + 1) % warm;
                }
                (self.warm_offset + self.rng.gen_range(0..active)) % warm
            };
            (loc.hot_blocks as u64, idx)
        } else {
            let base = (loc.hot_blocks + loc.warm_blocks) as u64;
            let cold = loc.cold_blocks as u64;
            let blk = if loc.pointer_chase {
                // A deterministic pseudo-random walk: no spatial locality,
                // each node points to the "next" one. The full-width state
                // keeps the walk from collapsing into a short cycle.
                self.chase_block = icr_splitmix(self.chase_block);
                self.chase_block % cold
            } else if self.rng.gen::<f64>() < loc.stride_fraction {
                // Sequential streaming through cold data, word by word.
                self.stride_word += 1;
                if self.stride_word >= 8 {
                    self.stride_word = 0;
                    self.stride_block = (self.stride_block + 1) % cold;
                }
                self.stride_block
            } else {
                self.rng.gen_range(0..cold)
            };
            (base, blk)
        };
        let word = if region_base > 0 && self.stride_word > 0 && loc.stride_fraction > 0.5 {
            self.stride_word
        } else {
            self.rng.gen_range(0..8u64)
        };
        let addr = self.profile.data_base + (region_base + block_in_region) * 64 + word * 8;
        if is_store {
            self.push_recent_store(addr & !63);
        }
        addr
    }

    fn push_recent_store(&mut self, block: u64) {
        if self.recent_stores.len() == STORE_REUSE_DEPTH {
            self.recent_stores.pop_front();
        }
        self.recent_stores.push_back(block);
    }

    fn non_branch_op(&mut self) -> OpClass {
        let m = self.profile.mix;
        let total = 1.0 - m.branch;
        // Stores are emitted by a two-state Markov chain so they arrive in
        // bursts (run-continuation probability BURST), while the
        // stationary store fraction still matches the profile's mix.
        const BURST: f64 = 0.55;
        let pi = (m.store / total).min(0.99);
        let p_store = if self.last_was_store {
            BURST
        } else {
            (pi * (1.0 - BURST) / (1.0 - pi)).min(1.0)
        };
        if self.rng.gen::<f64>() < p_store {
            self.last_was_store = true;
            return OpClass::Store;
        }
        self.last_was_store = false;
        let rest = total - m.store;
        let mut r = self.rng.gen::<f64>() * rest;
        for (frac, op) in [
            (m.load, OpClass::Load),
            (m.int_alu, OpClass::IntAlu),
            (m.int_mul, OpClass::IntMul),
            (m.fp_alu, OpClass::FpAlu),
            (m.fp_mul, OpClass::FpMul),
        ] {
            if r < frac {
                return op;
            }
            r -= frac;
        }
        OpClass::IntAlu
    }
}

impl Iterator for TraceGenerator {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        let block = self.blocks[self.cur_block].clone();
        if self.emitted_in_block < block.len {
            // A non-branch instruction inside the block.
            let pc = block.start_pc + self.emitted_in_block as u64 * INST_BYTES;
            self.emitted_in_block += 1;
            let op = self.non_branch_op();
            let inst = match op {
                OpClass::Load => {
                    let addr = self.pick_mem_addr(false);
                    let base = self.pick_src();
                    let dest = self.pick_dest(false);
                    self.pending_load_dest = Some(dest);
                    Inst::load(pc, addr, dest, base)
                }
                OpClass::Store => {
                    let addr = self.pick_mem_addr(true);
                    let src = self
                        .pick_src()
                        .unwrap_or(Reg(self.rng.gen_range(0..INT_REGS)));
                    Inst::store(pc, addr, src, None)
                }
                op => {
                    let fp = matches!(op, OpClass::FpAlu | OpClass::FpMul);
                    let srcs = [self.pick_src(), self.pick_src()];
                    let dest = self.pick_dest(fp);
                    Inst::alu(pc, op, dest, srcs)
                }
            };
            Some(inst)
        } else {
            // The block's terminating branch.
            let pc = block.start_pc + block.len as u64 * INST_BYTES;
            let taken = self.rng.gen::<f64>() < block.taken_bias;
            let target_pc = self.blocks[block.target].start_pc;
            let src = self.pick_src();
            self.emitted_in_block = 0;
            self.cur_block = if taken {
                block.target
            } else {
                (self.cur_block + 1) % self.blocks.len()
            };
            Some(Inst::branch(pc, target_pc, taken, src))
        }
    }
}

/// SplitMix64 mixer (duplicated from `icr-mem` to keep this crate free of
/// the memory substrate; the two must stay in sync only in spirit — each
/// use just needs *a* good mixer).
fn icr_splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn determinism_same_seed_same_trace() {
        let a: Vec<_> = TraceGenerator::new(apps::try_profile("vpr").unwrap(), 7)
            .take(5000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(apps::try_profile("vpr").unwrap(), 7)
            .take(5000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = TraceGenerator::new(apps::try_profile("vpr").unwrap(), 1)
            .take(1000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(apps::try_profile("vpr").unwrap(), 2)
            .take(1000)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn memory_ops_carry_addresses_in_data_segment() {
        let p = apps::try_profile("gzip").unwrap();
        let base = p.data_base;
        let end = base + p.locality.total_blocks() as u64 * 64;
        for inst in TraceGenerator::new(p, 3).take(20_000) {
            if let Some(a) = inst.mem_addr {
                assert!(inst.op.is_mem());
                assert!((base..end).contains(&a), "addr {a:#x} out of segment");
                assert_eq!(a % 8, 0, "addresses are word-aligned");
            } else {
                assert!(!inst.op.is_mem());
            }
        }
    }

    #[test]
    fn branch_targets_are_block_starts() {
        let gen = TraceGenerator::new(apps::try_profile("parser").unwrap(), 9);
        let starts: std::collections::HashSet<u64> =
            gen.blocks.iter().map(|b| b.start_pc).collect();
        for inst in gen.take(20_000) {
            if inst.op == OpClass::Branch {
                assert!(starts.contains(&inst.target));
            }
        }
    }

    #[test]
    fn pcs_are_contiguous_within_blocks() {
        let mut prev: Option<Inst> = None;
        for inst in TraceGenerator::new(apps::try_profile("art").unwrap(), 11).take(10_000) {
            if let Some(p) = prev {
                if p.op != OpClass::Branch {
                    assert_eq!(inst.pc, p.pc + INST_BYTES, "fallthrough is sequential");
                } else if p.taken {
                    assert_eq!(inst.pc, p.target);
                }
            }
            prev = Some(inst);
        }
    }

    #[test]
    fn hot_region_absorbs_most_accesses_for_gzip() {
        let p = apps::try_profile("gzip").unwrap();
        let hot_end = p.data_base + p.locality.hot_blocks as u64 * 64;
        let mut hot = 0u64;
        let mut total = 0u64;
        for inst in TraceGenerator::new(p.clone(), 5).take(100_000) {
            if let Some(a) = inst.mem_addr {
                total += 1;
                if a < hot_end {
                    hot += 1;
                }
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(
            frac > 0.6,
            "expected most gzip accesses in hot region, got {frac:.2}"
        );
    }

    #[test]
    fn mcf_spreads_accesses_widely() {
        let p = apps::try_profile("mcf").unwrap();
        let mut blocks = std::collections::HashSet::new();
        for inst in TraceGenerator::new(p, 5).take(100_000) {
            if let Some(a) = inst.mem_addr {
                blocks.insert(a / 64);
            }
        }
        assert!(
            blocks.len() > 4000,
            "mcf must touch far more blocks than the 256-block dL1, got {}",
            blocks.len()
        );
    }
}
