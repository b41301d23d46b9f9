//! The cycle-level out-of-order core: fetch → dispatch → issue → execute →
//! writeback → commit, in the style of SimpleScalar's `sim-outorder` RUU
//! machine.
//!
//! The model is trace-driven: the instruction stream is the correct path,
//! so branch mispredictions are charged as front-end stalls (fetch halts at
//! a mispredicted branch and resumes `penalty` cycles after it resolves)
//! rather than by executing wrong-path instructions. Everything else — the
//! 16-entry RUU, the 8-entry LSQ, 4-wide issue, functional-unit contention,
//! store-to-load forwarding and non-blocking loads — is modelled per cycle,
//! which is what lets the superscalar core *hide* part of the dL1 latency,
//! the effect the paper's Figure 9 turns on.
//!
//! # The scheduler
//!
//! The RUU is a ring of `ruu_size` slots, at most [`MAX_RUU_SIZE`] (64), so
//! that any set of entries is one `u64` with a bit per slot. Each entry's
//! state lives in three such masks (Waiting, Issued, Done); two more mark
//! the resident stores and the mispredicted branches. Nothing is found by
//! scanning the window:
//!
//! - **Dispatch** records in `dep[slot]` the producers the entry must wait
//!   for, as slot bits: the latest writer of each source register that is
//!   not yet Done and, for a load, every resident store to the same 8-byte
//!   word that is not yet Done. `fwd[slot]` records all of a load's
//!   resident same-word stores; every resident store is older than it.
//! - **Writeback** walks the Issued mask, moves the finished slots to Done,
//!   and clears their bits from every `dep` mask.
//! - **Commit** pops the head while its Done bit is set. A retiring store
//!   clears its bit from the Waiting loads' `fwd` masks.
//! - **Issue** takes the Waiting slots whose `dep` is empty, rotated right
//!   by the head slot so that bit 0 is the oldest, and starts them in that
//!   order while functional units last. A load whose `fwd` is not empty
//!   forwards in one cycle instead of calling the dL1.
//!
//! A load therefore waits while any older same-word store in the RUU has
//! not executed, and forwards when any such store is still in the RUU.
//! The masks reproduce a per-cycle scan of the window exactly;
//! `tests/reference_core.rs` runs that scan next to this core and
//! requires the same statistics and the same sequence of
//! `fetch`/`load`/`store` calls, argument for argument.

use crate::bpred::{Btb, Combined, DirPredictor};
use crate::config::{CpuConfig, MAX_RUU_SIZE};
use crate::fu::{op_latency, FuPool};
use crate::mem::{DataMemory, InstrMemory};
use icr_trace::{Inst, OpClass, Reg};

/// Aggregate results of a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Branches that were mispredicted.
    pub mispredicts: u64,
    /// Sum of observed load latencies (for the mean).
    pub load_latency_sum: u64,
}

impl PipelineStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean observed load latency in cycles.
    pub fn mean_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// The out-of-order core.
///
/// ```
/// use icr_cpu::{Pipeline, CpuConfig, PerfectMemory};
/// use icr_trace::{apps, TraceGenerator};
///
/// let mut cpu = Pipeline::new(CpuConfig::default());
/// let trace = TraceGenerator::new(apps::profile("gzip"), 1).take(10_000);
/// let stats = cpu.run(trace, &mut PerfectMemory, &mut PerfectMemory);
/// assert_eq!(stats.committed, 10_000);
/// assert!(stats.ipc() > 1.0); // 4-wide core on perfect memory
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: CpuConfig,
    bpred: Combined,
    btb: Btb,
}

impl Pipeline {
    /// Builds a core.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`CpuConfig::validate`].
    pub fn new(config: CpuConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid CPU config: {e}"));
        Pipeline {
            bpred: Combined::from_config(&config),
            btb: Btb::new(config.btb_entries, config.btb_ways),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Runs the core over `trace` until it is exhausted, against the given
    /// instruction and data memories. Returns the run's statistics.
    ///
    /// Use `trace.take(n)` to bound the instruction count.
    pub fn run<I>(
        &mut self,
        trace: I,
        imem: &mut dyn InstrMemory,
        dmem: &mut dyn DataMemory,
    ) -> PipelineStats
    where
        I: IntoIterator<Item = Inst>,
    {
        let mut trace = trace.into_iter().peekable();
        let cfg = self.config;
        let mut stats = PipelineStats::default();
        // The RUU: a ring of `ruu_size` slots, the oldest entry at `head`.
        let mut head = 0usize;
        let mut len = 0usize;
        // Per-slot state of the resident entries.
        let mut op = [OpClass::IntAlu; MAX_RUU_SIZE];
        let mut addr = [0u64; MAX_RUU_SIZE];
        let mut dest: [Option<Reg>; MAX_RUU_SIZE] = [None; MAX_RUU_SIZE];
        let mut done_at = [0u64; MAX_RUU_SIZE];
        let mut load_latency = [0u64; MAX_RUU_SIZE];
        // Slots a Waiting entry still waits on: register producers and,
        // for a load, older same-word stores that are not Done.
        let mut dep = [0u64; MAX_RUU_SIZE];
        // A Waiting load's older same-word stores still in the RUU.
        let mut fwd = [0u64; MAX_RUU_SIZE];
        // Slot masks: the three entry states, resident stores, and
        // mispredicted branches.
        let mut waiting = 0u64;
        let mut issued = 0u64;
        let mut done = 0u64;
        let mut stores = 0u64;
        let mut mispredicted = 0u64;
        // Latest producer of each architectural register, by slot.
        let mut reg_producer: [Option<usize>; 64] = [None; 64];
        let mut fu = FuPool::from_config(&cfg);
        let mut cycle: u64 = 0;
        // Front-end control.
        let mut fetch_resume: u64 = 0;
        let mut fetch_halted_by: Option<usize> = None;
        let mut commit_blocked_until: u64 = 0;
        // Memory ops resident in the RUU (the LSQ occupancy).
        let mut mem_in_flight: usize = 0;
        // The earliest `done_at` over Issued slots (u64::MAX when none).
        let mut next_done: u64 = u64::MAX;

        loop {
            // ---- Writeback: finish execution, resolve branches. ----
            let mut completed = 0u64;
            if next_done <= cycle {
                let mut remaining_next = u64::MAX;
                for s in slots(issued) {
                    if done_at[s] <= cycle {
                        completed |= 1 << s;
                    } else {
                        remaining_next = remaining_next.min(done_at[s]);
                    }
                }
                next_done = remaining_next;
                issued &= !completed;
                done |= completed;
                // Clearing every slot's mask costs less than walking the
                // Waiting ones; the others are rewritten at dispatch.
                for d in &mut dep[..cfg.ruu_size] {
                    *d &= !completed;
                }
                if let Some(b) = fetch_halted_by.filter(|&b| completed & 1 << b != 0) {
                    fetch_halted_by = None;
                    fetch_resume = fetch_resume.max(done_at[b] + cfg.mispredict_penalty);
                }
            }

            // ---- Commit: retire completed head entries in order. ----
            let mut committed_now = 0;
            if cycle >= commit_blocked_until {
                while committed_now < cfg.commit_width && done & 1 << head != 0 {
                    let s = head;
                    done &= !(1 << s);
                    head = if s + 1 == cfg.ruu_size { 0 } else { s + 1 };
                    len -= 1;
                    stats.committed += 1;
                    committed_now += 1;
                    match op[s] {
                        OpClass::Load => {
                            mem_in_flight -= 1;
                            stats.loads += 1;
                            stats.load_latency_sum += load_latency[s];
                        }
                        OpClass::Store => {
                            mem_in_flight -= 1;
                            stats.stores += 1;
                            stores &= !(1 << s);
                            for w in slots(waiting) {
                                fwd[w] &= !(1 << s);
                            }
                            // The dL1 write (and any ICR replication)
                            // happens at retire.
                            let lat = dmem.store(addr[s], cycle);
                            if lat > 1 {
                                commit_blocked_until = cycle + lat - 1;
                            }
                        }
                        OpClass::Branch => {
                            stats.branches += 1;
                            stats.mispredicts += mispredicted >> s & 1;
                        }
                        _ => {}
                    }
                    // Retire the register mapping if this was the last
                    // producer.
                    if let Some(d) = dest[s] {
                        if reg_producer[d.0 as usize] == Some(s) {
                            reg_producer[d.0 as usize] = None;
                        }
                    }
                    if op[s] == OpClass::Store && commit_blocked_until > cycle {
                        break; // a stalled store blocks younger commits
                    }
                }
            }

            // ---- Issue: start ready waiting entries, oldest first. ----
            // Rotating the ready mask right by `head` puts the slots in
            // age order from bit 0, because the ring fits in the word.
            let mut issued_now = 0;
            if waiting != 0 {
                fu.new_cycle();
                let ready = dep[..cfg.ruu_size]
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (s, &d)| m | u64::from(d == 0) << s)
                    & waiting;
                for age in slots(ready.rotate_right(head as u32)) {
                    if issued_now == cfg.issue_width {
                        break;
                    }
                    let s = (age + head) % MAX_RUU_SIZE;
                    if !fu.try_claim(op[s]) {
                        continue;
                    }
                    let lat = match op[s] {
                        OpClass::Load => {
                            // Forward from an older same-word store still
                            // in the RUU (all of them are Done by now).
                            let lat = if fwd[s] != 0 {
                                1
                            } else {
                                dmem.load(addr[s], cycle)
                            };
                            load_latency[s] = lat;
                            lat
                        }
                        op => op_latency(op),
                    };
                    done_at[s] = cycle + lat;
                    waiting &= !(1 << s);
                    issued |= 1 << s;
                    issued_now += 1;
                    next_done = next_done.min(done_at[s]);
                }
            }

            // ---- Fetch/dispatch: bring in new instructions. ----
            let mut fetched = 0;
            if fetch_halted_by.is_none() && cycle >= fetch_resume {
                while fetched < cfg.fetch_width && len < cfg.ruu_size {
                    let Some(next) = trace.peek() else { break };
                    if next.op.is_mem() && mem_in_flight >= cfg.lsq_size {
                        break;
                    }
                    let inst = trace.next().expect("peeked");
                    if inst.op.is_mem() {
                        mem_in_flight += 1;
                    }
                    let flat = imem.fetch(inst.pc, cycle);
                    let mut ends_group = false;
                    if flat > 1 {
                        // icache miss: this group ends and fetch resumes
                        // when the line arrives.
                        fetch_resume = cycle + flat - 1;
                        ends_group = true;
                    }
                    let s = (head + len) % cfg.ruu_size;
                    len += 1;
                    let producers = inst
                        .srcs
                        .iter()
                        .flatten()
                        .filter_map(|r| reg_producer[r.0 as usize])
                        .fold(0u64, |m, p| m | 1 << p);
                    let mut same_word_stores = 0u64;
                    if inst.op.is_mem() {
                        let a = inst.mem_addr.expect("memory op has an address");
                        addr[s] = a;
                        if inst.op == OpClass::Load {
                            // Every resident store is older than the load.
                            same_word_stores = slots(stores)
                                .filter(|&st| addr[st] >> 3 == a >> 3)
                                .fold(0u64, |m, st| m | 1 << st);
                        }
                    }
                    fwd[s] = same_word_stores;
                    dep[s] = (producers | same_word_stores) & !done;
                    let mut mispredict = false;
                    if inst.op == OpClass::Branch {
                        let pred_taken = self.bpred.predict(inst.pc);
                        let pred_target = self.btb.lookup(inst.pc);
                        mispredict = pred_taken != inst.taken
                            || (inst.taken && pred_target != Some(inst.target));
                        self.bpred.update(inst.pc, inst.taken);
                        if inst.taken {
                            self.btb.update(inst.pc, inst.target);
                            ends_group = true; // taken branch ends the group
                        }
                        if mispredict {
                            fetch_halted_by = Some(s);
                            ends_group = true;
                        }
                    }
                    if let Some(d) = inst.dest {
                        reg_producer[d.0 as usize] = Some(s);
                    }
                    op[s] = inst.op;
                    dest[s] = inst.dest;
                    let bit = 1u64 << s;
                    mispredicted = if mispredict {
                        mispredicted | bit
                    } else {
                        mispredicted & !bit
                    };
                    if inst.op == OpClass::Store {
                        stores |= bit;
                    }
                    waiting |= bit;
                    fetched += 1;
                    if ends_group {
                        break;
                    }
                }
            }

            // ---- Idle-cycle skip. ----
            // A cycle that wrote back, committed, issued and fetched
            // nothing leaves the whole machine state untouched: every
            // stage above is then a pure function of time, and re-running
            // it yields the same nothing until the next timed event. Jump
            // straight there. The only timed events are an in-flight op
            // completing (`next_done`), a stalled store's commit block
            // expiring over an already-Done head, and the front end's
            // `fetch_resume`; everything else can only change as a
            // consequence of one of those. `cycle` takes exactly the
            // values at which a cycle-by-cycle loop would do work, so
            // results are bit-exact.
            if completed == 0 && committed_now == 0 && issued_now == 0 && fetched == 0 {
                let mut event = next_done;
                if commit_blocked_until > cycle && done & 1 << head != 0 {
                    event = event.min(commit_blocked_until);
                }
                if fetch_halted_by.is_none() && fetch_resume > cycle && trace.peek().is_some() {
                    event = event.min(fetch_resume);
                }
                if event != u64::MAX && event > cycle + 1 {
                    cycle = event;
                    continue;
                }
            }

            cycle += 1;
            if len == 0 && trace.peek().is_none() {
                break;
            }
            // Safety valve: a cycle-level model must always make progress;
            // a hang here is a bug, so fail loudly rather than spin.
            assert!(
                cycle < stats.committed.max(1) * 1000 + 1_000_000,
                "pipeline stopped making progress at cycle {cycle}"
            );
        }
        stats.cycles = cycle;
        stats
    }
}

/// The set bits of `mask`, lowest first.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            s
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{FixedLatencyMemory, PerfectMemory};
    use icr_trace::{apps, Reg, TraceGenerator};

    fn run_app(app: &str, n: usize, dmem: &mut dyn DataMemory) -> PipelineStats {
        let mut cpu = Pipeline::new(CpuConfig::default());
        let trace = TraceGenerator::new(apps::profile(app), 1).take(n);
        cpu.run(trace, &mut PerfectMemory, dmem)
    }

    #[test]
    fn commits_every_instruction() {
        let stats = run_app("gzip", 20_000, &mut PerfectMemory);
        assert_eq!(stats.committed, 20_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn ipc_is_superscalar_but_bounded() {
        let stats = run_app("gzip", 20_000, &mut PerfectMemory);
        let ipc = stats.ipc();
        assert!(ipc > 1.0, "4-wide core should exceed 1 IPC, got {ipc:.2}");
        assert!(ipc <= 4.0, "cannot exceed machine width, got {ipc:.2}");
    }

    #[test]
    fn slower_loads_cost_cycles() {
        let fast = run_app("gzip", 20_000, &mut PerfectMemory);
        let mut slow_mem = FixedLatencyMemory {
            load_latency: 2,
            store_latency: 1,
        };
        let slow = run_app("gzip", 20_000, &mut slow_mem);
        assert!(
            slow.cycles > fast.cycles,
            "2-cycle loads must cost cycles: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        // But the OoO core hides part of it: the slowdown is less than the
        // full extra cycle per load.
        let hidden = (slow.cycles - fast.cycles) as f64;
        assert!(
            hidden < fast.loads as f64,
            "OoO must hide some load latency: {hidden} extra cycles for {} loads",
            fast.loads
        );
    }

    #[test]
    fn very_slow_memory_dominates_runtime() {
        let mut mem = FixedLatencyMemory {
            load_latency: 100,
            store_latency: 1,
        };
        let stats = run_app("gzip", 5_000, &mut mem);
        assert!(
            stats.ipc() < 1.0,
            "100-cycle loads should crush IPC, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn branch_prediction_learns_the_program() {
        let stats = run_app("mesa", 50_000, &mut PerfectMemory);
        // mesa's profile is highly predictable (0.94).
        assert!(
            stats.mispredict_rate() < 0.15,
            "predictable code should predict well, got {:.3}",
            stats.mispredict_rate()
        );
    }

    #[test]
    fn gcc_mispredicts_more_than_mesa() {
        let mesa = run_app("mesa", 50_000, &mut PerfectMemory);
        let gcc = run_app("gcc", 50_000, &mut PerfectMemory);
        assert!(
            gcc.mispredict_rate() > mesa.mispredict_rate(),
            "gcc {:.3} should out-mispredict mesa {:.3}",
            gcc.mispredict_rate(),
            mesa.mispredict_rate()
        );
    }

    #[test]
    fn counts_match_trace_mix() {
        let n = 30_000;
        let trace: Vec<_> = TraceGenerator::new(apps::profile("vortex"), 1)
            .take(n)
            .collect();
        let expected_loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as u64;
        let expected_stores = trace.iter().filter(|i| i.op == OpClass::Store).count() as u64;
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(trace, &mut PerfectMemory, &mut PerfectMemory);
        assert_eq!(stats.loads, expected_loads);
        assert_eq!(stats.stores, expected_stores);
    }

    #[test]
    fn store_to_load_forwarding_hides_memory() {
        // A long-latency load holds up in-order commit; behind it, a store
        // to X executes and a load of X must forward from the LSQ instead
        // of paying memory latency again.
        let insts = vec![
            Inst::load(0x100, 0x9000, Reg(9), None),
            Inst::store(0x104, 0x8000, Reg(1), None),
            Inst::load(0x108, 0x8000, Reg(2), None),
        ];
        let mut mem = FixedLatencyMemory {
            load_latency: 50,
            store_latency: 1,
        };
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut mem);
        assert_eq!(stats.committed, 3);
        assert!(
            stats.cycles < 70,
            "second load must forward, not serialise: took {}",
            stats.cycles
        );
        assert_eq!(
            stats.load_latency_sum, 51,
            "first load pays 50, forwarded load pays 1"
        );
    }

    #[test]
    fn dependent_chain_serialises() {
        // A chain of dependent adds cannot exceed 1 IPC.
        let insts: Vec<_> = (0..1000)
            .map(|i| Inst::alu(0x100 + i * 4, OpClass::IntAlu, Reg(1), [Some(Reg(1)), None]))
            .collect();
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut PerfectMemory);
        assert!(
            stats.cycles >= 1000,
            "dependent chain must serialise, took {}",
            stats.cycles
        );
    }

    #[test]
    fn independent_ops_run_wide() {
        // Independent adds across many registers should push IPC toward 4
        // (bounded by the 4 integer ALUs).
        let insts: Vec<_> = (0..4000u64)
            .map(|i| {
                Inst::alu(
                    0x100 + i * 4,
                    OpClass::IntAlu,
                    Reg((i % 24) as u8),
                    [None, None],
                )
            })
            .collect();
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut PerfectMemory);
        assert!(
            stats.ipc() > 2.5,
            "independent adds should run wide, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(Vec::new(), &mut PerfectMemory, &mut PerfectMemory);
        assert_eq!(stats.committed, 0);
    }
}
