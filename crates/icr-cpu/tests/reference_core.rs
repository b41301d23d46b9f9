//! Exact-equivalence check of the out-of-order core against a reference.
//!
//! `reference_run` below is the scan-based RUU loop the core used before
//! it was scheduled with per-slot bitmasks, kept verbatim apart from its
//! signature (the predictor and BTB are built from the config instead of
//! living in `self`). It walks the whole RUU every cycle: the oldest-first
//! issue scan, a dependence lookup by sequence number, and a rescan of the
//! older entries for same-word stores on every load.
//!
//! The property runs both cores on the same inputs and requires identical
//! `PipelineStats` *and* an identical sequence of memory-side calls, each
//! logged with its `(kind, addr, now)` arguments. The memory stubs answer
//! with latencies hashed from those arguments, so a single diverging call
//! or cycle changes everything after it. An identical call sequence is
//! what makes every `SimResult` above the core byte-identical: the caches
//! see the same accesses at the same cycles.
//!
//! Before that comparison, the shipped core's calls are held to the two
//! facts the campaign's memory-call log (`icr-sim`'s `replay.rs`) takes
//! from it unchecked: the fetches are the trace's instructions, each
//! once and in order, and loads and stores come at cycles that never
//! decrease.

use icr_cpu::{op_latency, Btb, Combined, DirPredictor, FuPool};
use icr_cpu::{CpuConfig, DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_trace::{apps, Inst, OpClass, Reg, TraceGenerator};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued { done_at: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    inst: Inst,
    seq: u64,
    state: EntryState,
    /// Producer sequence numbers this entry waits on (snapshot at dispatch).
    deps: [Option<u64>; 2],
    mispredicted: bool,
    load_latency: u64,
}

/// The scan-based RUU core, run on a fresh predictor and BTB.
fn reference_run<I>(
    config: CpuConfig,
    trace: I,
    imem: &mut dyn InstrMemory,
    dmem: &mut dyn DataMemory,
) -> PipelineStats
where
    I: IntoIterator<Item = Inst>,
{
    let mut bpred = Combined::from_config(&config);
    let mut btb = Btb::new(config.btb_entries, config.btb_ways);
    let mut trace = trace.into_iter().peekable();
    let cfg = config;
    let mut stats = PipelineStats::default();
    let mut ruu: VecDeque<Entry> = VecDeque::with_capacity(cfg.ruu_size);
    let mut head_seq: u64 = 0;
    let mut next_seq: u64 = 0;
    // Latest producer of each architectural register, by sequence.
    let mut reg_producer: [Option<u64>; 64] = [None; 64];
    let mut fu = FuPool::from_config(&cfg);
    let mut cycle: u64 = 0;
    // Front-end control.
    let mut fetch_resume: u64 = 0;
    let mut fetch_halted_by: Option<u64> = None;
    let mut commit_blocked_until: u64 = 0;
    // Memory ops resident in the RUU (the LSQ occupancy), maintained
    // incrementally instead of rescanning the RUU per fetch.
    let mut mem_in_flight: usize = 0;
    // Incremental occupancy bookkeeping, so the writeback and issue
    // scans run only on cycles where they can transition something:
    // how many entries are Issued and the earliest cycle any of them
    // completes (u64::MAX when none), and how many are Waiting.
    let mut issued_cnt: usize = 0;
    let mut next_done: u64 = u64::MAX;
    let mut waiting_cnt: usize = 0;

    let entry_done = |ruu: &VecDeque<Entry>, head: u64, seq: u64| -> bool {
        if seq < head {
            return true; // already committed
        }
        match ruu.get((seq - head) as usize) {
            Some(e) => e.state == EntryState::Done,
            None => true,
        }
    };

    loop {
        // ---- Writeback: finish execution, resolve branches. ----
        // The scan can only transition entries when some Issued op has
        // reached its completion cycle; `next_done` tracks the
        // earliest one, so most cycles skip the scan outright.
        let mut wrote_back = 0usize;
        if issued_cnt > 0 && next_done <= cycle {
            let mut resolved_halt: Option<u64> = None;
            let mut remaining_next = u64::MAX;
            for e in ruu.iter_mut() {
                if let EntryState::Issued { done_at } = e.state {
                    if done_at <= cycle {
                        e.state = EntryState::Done;
                        wrote_back += 1;
                        issued_cnt -= 1;
                        if e.mispredicted && fetch_halted_by == Some(e.seq) {
                            resolved_halt = Some(done_at + cfg.mispredict_penalty);
                        }
                    } else {
                        remaining_next = remaining_next.min(done_at);
                    }
                }
            }
            next_done = remaining_next;
            if let Some(resume) = resolved_halt {
                fetch_halted_by = None;
                fetch_resume = fetch_resume.max(resume);
            }
        }

        // ---- Commit: retire completed head entries in order. ----
        let mut committed_now = 0;
        if cycle >= commit_blocked_until {
            while committed_now < cfg.commit_width {
                let Some(head) = ruu.front() else { break };
                if head.state != EntryState::Done {
                    break;
                }
                let e = ruu.pop_front().expect("front exists");
                head_seq = e.seq + 1;
                stats.committed += 1;
                if e.inst.op.is_mem() {
                    mem_in_flight -= 1;
                }
                committed_now += 1;
                match e.inst.op {
                    OpClass::Load => {
                        stats.loads += 1;
                        stats.load_latency_sum += e.load_latency;
                    }
                    OpClass::Store => {
                        stats.stores += 1;
                        // The dL1 write (and any ICR replication)
                        // happens at retire.
                        let lat = dmem.store(e.inst.mem_addr.expect("store has addr"), cycle);
                        if lat > 1 {
                            commit_blocked_until = cycle + lat - 1;
                        }
                    }
                    OpClass::Branch => {
                        stats.branches += 1;
                        if e.mispredicted {
                            stats.mispredicts += 1;
                        }
                    }
                    _ => {}
                }
                // Retire the register mapping if this was the last
                // producer.
                if let Some(d) = e.inst.dest {
                    if reg_producer[d.0 as usize] == Some(e.seq) {
                        reg_producer[d.0 as usize] = None;
                    }
                }
                if e.inst.op == OpClass::Store && commit_blocked_until > cycle {
                    break; // a stalled store blocks younger commits
                }
            }
        }

        // ---- Issue: start ready waiting entries, oldest first. ----
        // Skipped when nothing is Waiting; the FU pool's per-cycle
        // counters only matter to `try_claim`, so resetting them is
        // deferred to cycles that can actually issue.
        let mut issued = 0;
        let waiting_at_start = waiting_cnt;
        if waiting_at_start > 0 {
            fu.new_cycle();
            let mut waiting_seen = 0;
            for i in 0..ruu.len() {
                if issued == cfg.issue_width || waiting_seen == waiting_at_start {
                    break;
                }
                if ruu[i].state != EntryState::Waiting {
                    continue;
                }
                waiting_seen += 1;
                let deps_ready = ruu[i]
                    .deps
                    .iter()
                    .flatten()
                    .all(|&d| entry_done(&ruu, head_seq, d));
                if !deps_ready {
                    continue;
                }
                // Loads must respect older same-word stores (no
                // speculation past unresolved conflicting stores; forward
                // from completed ones).
                let mut load_forwarded = false;
                if ruu[i].inst.op == OpClass::Load {
                    let my_word = ruu[i].inst.mem_addr.expect("load has addr") >> 3;
                    let my_seq = ruu[i].seq;
                    let mut blocked = false;
                    for e in ruu.iter() {
                        if e.seq >= my_seq {
                            break;
                        }
                        if e.inst.op == OpClass::Store
                            && e.inst.mem_addr.map(|a| a >> 3) == Some(my_word)
                        {
                            if e.state == EntryState::Done {
                                load_forwarded = true; // will forward
                            } else {
                                blocked = true; // store not executed yet
                                break;
                            }
                        }
                    }
                    if blocked {
                        continue;
                    }
                }
                if !fu.try_claim(ruu[i].inst.op) {
                    continue;
                }
                let lat = match ruu[i].inst.op {
                    OpClass::Load => {
                        let lat = if load_forwarded {
                            1
                        } else {
                            dmem.load(ruu[i].inst.mem_addr.expect("load has addr"), cycle)
                        };
                        ruu[i].load_latency = lat;
                        lat
                    }
                    op => op_latency(op),
                };
                let done_at = cycle + lat;
                ruu[i].state = EntryState::Issued { done_at };
                issued += 1;
                waiting_cnt -= 1;
                issued_cnt += 1;
                next_done = next_done.min(done_at);
            }
        }

        // ---- Fetch/dispatch: bring in new instructions. ----
        let mut fetched = 0;
        if fetch_halted_by.is_none() && cycle >= fetch_resume {
            while fetched < cfg.fetch_width {
                if ruu.len() >= cfg.ruu_size {
                    break;
                }
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
                let seq = next_seq;
                next_seq += 1;
                let deps = [
                    inst.srcs[0].and_then(|r| reg_producer[r.0 as usize]),
                    inst.srcs[1].and_then(|r| reg_producer[r.0 as usize]),
                ];
                let mut mispredicted = false;
                if inst.op == OpClass::Branch {
                    let pred_taken = bpred.predict(inst.pc);
                    let pred_target = btb.lookup(inst.pc);
                    mispredicted = pred_taken != inst.taken
                        || (inst.taken && pred_target != Some(inst.target));
                    bpred.update(inst.pc, inst.taken);
                    if inst.taken {
                        btb.update(inst.pc, inst.target);
                        ends_group = true; // taken branch ends the group
                    }
                    if mispredicted {
                        fetch_halted_by = Some(seq);
                        ends_group = true;
                    }
                }
                if let Some(d) = inst.dest {
                    reg_producer[d.0 as usize] = Some(seq);
                }
                ruu.push_back(Entry {
                    inst,
                    seq,
                    state: EntryState::Waiting,
                    deps,
                    mispredicted,
                    load_latency: 0,
                });
                waiting_cnt += 1;
                fetched += 1;
                if ends_group {
                    break;
                }
            }
        }

        // ---- Idle-cycle skip. ----
        // A cycle that wrote back, committed, issued and fetched
        // nothing leaves the whole machine state untouched: every
        // per-cycle scan above is then a pure function of time, and
        // re-running it yields the same nothing until the next timed
        // event. Jump straight there. The only timed events are an
        // in-flight op completing (its `done_at`), a stalled store's
        // commit block expiring over an already-Done head, and the
        // front end's `fetch_resume`; everything else can only change
        // as a consequence of one of those. This is a pure wall-clock
        // optimisation — `cycle` takes exactly the values at which the
        // naive loop would have done work, so results are bit-exact.
        if wrote_back == 0 && committed_now == 0 && issued == 0 && fetched == 0 {
            // `next_done` is exactly min done_at over Issued entries
            // (u64::MAX when none) — no rescan needed.
            let mut event = next_done;
            if commit_blocked_until > cycle
                && ruu.front().is_some_and(|h| h.state == EntryState::Done)
            {
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
        if ruu.is_empty() && trace.peek().is_none() {
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

/// One memory-side call as the core made it: `('F' | 'L' | 'S', addr, now)`.
type Call = (char, u64, u64);

/// SplitMix64's finaliser: a well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Both memory sides of one run. Every call is appended to a shared log,
/// and its latency is a hash of the seed and the call's arguments, so the
/// answers depend on *when* the core asks, not only on what.
struct StubMemory {
    seed: u64,
    /// One load in `slow_every` is a long miss (up to 120 cycles); the
    /// rest take 1 to 3.
    slow_every: u64,
    log: Rc<RefCell<Vec<Call>>>,
}

impl StubMemory {
    fn hash(&self, kind: char, addr: u64, now: u64) -> u64 {
        self.log.borrow_mut().push((kind, addr, now));
        mix(self.seed ^ mix(addr ^ (kind as u64) << 56) ^ now.rotate_left(29))
    }
}

impl DataMemory for StubMemory {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        let h = self.hash('L', addr, now);
        if h.is_multiple_of(self.slow_every) {
            1 + (h >> 32) % 120
        } else {
            1 + (h >> 32) % 3
        }
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        // Latency above 1 stalls commit.
        let h = self.hash('S', addr, now);
        if h.is_multiple_of(3) {
            2 + (h >> 32) % 3
        } else {
            1
        }
    }
}

impl InstrMemory for StubMemory {
    fn fetch(&mut self, pc: u64, now: u64) -> u64 {
        // An occasional icache miss.
        let h = self.hash('F', pc, now);
        if h.is_multiple_of(16) {
            2 + (h >> 32) % 30
        } else {
            1
        }
    }
}

/// The first break, if any, of the call order the campaign's call log
/// relies on: the `'F'` calls' pcs must be the trace's pcs, each once,
/// in order, and the `'L'`/`'S'` calls' cycles must never decrease.
fn call_order_violation(trace: &[Inst], calls: &[Call]) -> Option<String> {
    let pcs: Vec<u64> = trace.iter().map(|i| i.pc).collect();
    let fetched: Vec<u64> = calls.iter().filter(|c| c.0 == 'F').map(|c| c.1).collect();
    if let Some(k) = (0..pcs.len().max(fetched.len())).find(|&k| fetched.get(k) != pcs.get(k)) {
        return Some(format!(
            "fetch {k} is of pc {:x?}, but trace instruction {k} is at pc {:x?}",
            fetched.get(k),
            pcs.get(k)
        ));
    }
    let accesses: Vec<&Call> = calls.iter().filter(|c| c.0 != 'F').collect();
    accesses.windows(2).find(|w| w[1].2 < w[0].2).map(|w| {
        format!(
            "{:?} follows {:?}: load and store cycles must never decrease",
            w[1], w[0]
        )
    })
}

/// Runs `trace` through one core with fresh stub memories; returns the
/// statistics and the logged call sequence.
fn run_logged(
    core: impl FnOnce(&mut dyn InstrMemory, &mut dyn DataMemory) -> PipelineStats,
    seed: u64,
    slow_every: u64,
) -> (PipelineStats, Vec<Call>) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let stub = || StubMemory {
        seed,
        slow_every,
        log: Rc::clone(&log),
    };
    let stats = core(&mut stub(), &mut stub());
    (stats, log.take())
}

/// Runs the shipped core and the reference on the same inputs; returns
/// both `(stats, calls)` pairs, shipped first.
fn both_cores(
    cfg: CpuConfig,
    trace: &[Inst],
    seed: u64,
    slow_every: u64,
) -> [(PipelineStats, Vec<Call>); 2] {
    let shipped = run_logged(
        |imem, dmem| Pipeline::new(cfg).run(trace.iter().copied(), imem, dmem),
        seed,
        slow_every,
    );
    let reference = run_logged(
        |imem, dmem| reference_run(cfg, trace.iter().copied(), imem, dmem),
        seed,
        slow_every,
    );
    [shipped, reference]
}

/// A well-formed stream in the shape of `properties.rs`'s `arb_trace`,
/// but over `regs` registers and `2 * words` addresses, two in each of
/// `words` 8-byte words, so true dependences and same-word store→load
/// pairs (at the same or the other address of the word) are common.
fn arb_trace() -> impl Strategy<Value = Vec<Inst>> {
    let op = prop::sample::select(vec![
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::Load,
        OpClass::Load,
        OpClass::Store,
        OpClass::Store,
        OpClass::Branch,
    ]);
    let raw = prop::collection::vec(
        (op, 0u8..64, 0u8..64, 0u8..64, 0u64..256, any::<bool>()),
        1..300,
    );
    let regs = prop::sample::select(vec![2u8, 4, 8, 64]);
    (raw, regs, 1u64..6).prop_map(|(raw, regs, words)| {
        let mut pc = 0x1000u64;
        raw.into_iter()
            .map(|(op, d, s, t, blk, taken)| {
                let (d, s, t) = (Reg(d % regs), Reg(s % regs), Reg(t % regs));
                let addr = 0x8000 + (blk % (2 * words)) * 4;
                let inst = match op {
                    OpClass::Load => Inst::load(pc, addr, d, Some(s)),
                    OpClass::Store => Inst::store(pc, addr, s, blk.is_multiple_of(3).then_some(t)),
                    OpClass::Branch => Inst::branch(pc, 0x1000 + (blk % 64) * 4, taken, Some(s)),
                    other => Inst::alu(pc, other, d, [Some(s), taken.then_some(t)]),
                };
                pc = if op == OpClass::Branch && taken {
                    inst.target
                } else {
                    pc + 4
                };
                inst
            })
            .collect()
    })
}

/// A valid machine with an RUU of 8 to 64 entries and any narrower
/// widths, LSQ and functional-unit pool.
fn arb_config() -> impl Strategy<Value = CpuConfig> {
    let ruu = prop::sample::select(vec![8usize, 12, 16, 32, 64]);
    let widths = (1usize..=4, 1usize..=4, 1usize..=4);
    let units = (1usize..=4, 1usize..=2, 1usize..=4, 1usize..=2);
    (ruu, any::<u32>(), widths, units, 0u64..=5).prop_map(
        |(ruu_size, lsq, (fetch, issue, commit), (ialu, imul, falu, fmul), penalty)| CpuConfig {
            fetch_width: fetch,
            issue_width: issue,
            commit_width: commit,
            ruu_size,
            lsq_size: 1 + lsq as usize % ruu_size,
            int_alu_units: ialu,
            int_mul_units: imul,
            fp_alu_units: falu,
            fp_mul_units: fmul,
            mispredict_penalty: penalty,
            ..CpuConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bitmask-scheduled core and the scan-based reference produce the
    /// same statistics from the same memory-call sequence.
    #[test]
    fn core_matches_scan_reference(
        trace in arb_trace(),
        cfg in arb_config(),
        seed: u64,
        slow_every in 1u64..8,
    ) {
        let [(stats, calls), (ref_stats, ref_calls)] =
            both_cores(cfg, &trace, seed, slow_every);
        prop_assert_eq!(call_order_violation(&trace, &calls), None, "under {:?}", cfg);
        if let Some(i) = (0..calls.len()).find(|&i| calls.get(i) != ref_calls.get(i)) {
            prop_assert!(
                false,
                "call {i} differs under {cfg:?}: {:?} vs reference {:?}",
                calls[i],
                ref_calls.get(i)
            );
        }
        prop_assert_eq!(calls.len(), ref_calls.len(), "call counts differ under {:?}", cfg);
        prop_assert_eq!(stats, ref_stats, "stats differ under {:?}", cfg);
    }
}

/// The same check on long synthetic-profile streams, at the `window`
/// sweep's RUU sizes (16 is the paper's machine) and at a ring of 12
/// slots, which is not a power of two.
#[test]
fn core_matches_scan_reference_on_app_traces() {
    for (i, app) in ["gzip", "mcf", "gcc", "vortex"].into_iter().enumerate() {
        let trace: Vec<Inst> = TraceGenerator::new(apps::try_profile(app).unwrap(), 3)
            .take(4_000)
            .collect();
        for ruu_size in [8, 12, 16, 32, 64] {
            let cfg = CpuConfig {
                ruu_size,
                lsq_size: ruu_size / 2,
                ..CpuConfig::default()
            };
            let [shipped, reference] = both_cores(cfg, &trace, i as u64, 4);
            assert_eq!(
                call_order_violation(&trace, &shipped.1),
                None,
                "{app} RUU {ruu_size}"
            );
            assert_eq!(shipped.0.committed, 4_000, "{app} RUU {ruu_size}");
            assert!(
                shipped == reference,
                "{app} RUU {ruu_size}: {:?} vs reference {:?}",
                shipped.0,
                reference.0
            );
        }
    }
}
