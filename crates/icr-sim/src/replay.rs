//! Core-free campaign trials: a cell's fault-free memory-side calls,
//! logged once and replayed into each trial's own memory side.
//!
//! The core sees nothing of the memory side but the latencies it gets
//! back, and `Pipeline::run` is a pure function of its configuration,
//! the trace and those latencies. So while a trial's memory side returns
//! the logged latency for every logged call, its core would make exactly
//! the logged calls, in the logged order, at the logged cycles: feeding
//! it those calls leaves its memory side in the state a full run leaves
//! it in, and the reference run's `PipelineStats` are the trial's.
//! [`replay`] then returns exactly what `run_sim` returns. At the first
//! latency that differs, the trial's timeline has left the reference's,
//! and [`replay`] returns `None` so the caller runs the trial in full.
//!
//! **Format.** A [`CallLog`] is one byte string of LEB128 varints,
//! written as the reference runs. A record's first varint holds a tag in
//! its low two bits:
//!
//! * a run of unit-latency fetches, with the run's length;
//! * one fetch of another latency, with that latency;
//! * a load or a store, with its `now` less the previous access's,
//!   followed by its latency and its address less the previous access's
//!   (zigzag-encoded).
//!
//! No fetch carries its pc: `Pipeline::run` fetches each trace
//! instruction once, in order, so replay takes the pc from the trace.
//! The recorder checks both facts the format relies on, in-order fetch
//! and non-decreasing `now`; a reference that breaks either gets no log.

use crate::simulator::{run_core, workload, Machine, MemorySide, SimConfig, SimResult};
use icr_cpu::{CpuConfig, PipelineStats};
use icr_trace::Inst;
use std::sync::Arc;

/// Record tags, in the low two bits of a record's first varint.
const FETCHES: u128 = 0;
const FETCH: u128 = 1;
const LOAD: u128 = 2;
const STORE: u128 = 3;

/// One memory-side call and the latency it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// The next instruction fetch of the trace.
    Fetch { latency: u64 },
    /// A load of the word at `addr` at cycle `now`.
    Load { addr: u64, now: u64, latency: u64 },
    /// A store to the word at `addr` at cycle `now`.
    Store { addr: u64, now: u64, latency: u64 },
}

/// A fault-free run's memory-side calls, with what a replay needs
/// besides: the run's core configuration and trace, which a trial must
/// share, and its core statistics.
pub(crate) struct CallLog {
    bytes: Vec<u8>,
    cpu: CpuConfig,
    trace: Arc<[Inst]>,
    stats: PipelineStats,
}

impl CallLog {
    /// The logged calls, in order.
    fn calls(&self) -> Calls<'_> {
        Calls {
            bytes: &self.bytes,
            ..Calls::default()
        }
    }
}

/// Encodes calls one at a time into a log's bytes.
#[derive(Default)]
struct LogWriter {
    bytes: Vec<u8>,
    /// Unit-latency fetches not yet written.
    unit_fetches: u64,
    /// Cycle and address of the last load or store.
    now: u64,
    addr: u64,
    /// Set once a call breaks a fact the format relies on.
    broken: bool,
}

impl LogWriter {
    /// Appends one call.
    fn push(&mut self, call: Call) {
        if self.broken {
            return;
        }
        match call {
            Call::Fetch { latency: 1 } => self.unit_fetches += 1,
            Call::Fetch { latency } => {
                self.flush_fetches();
                put(&mut self.bytes, u128::from(latency) << 2 | FETCH);
            }
            Call::Load { addr, now, latency } => self.access(LOAD, addr, now, latency),
            Call::Store { addr, now, latency } => self.access(STORE, addr, now, latency),
        }
    }

    fn access(&mut self, tag: u128, addr: u64, now: u64, latency: u64) {
        let Some(dt) = now.checked_sub(self.now) else {
            self.broken = true;
            return;
        };
        self.flush_fetches();
        put(&mut self.bytes, u128::from(dt) << 2 | tag);
        put(&mut self.bytes, latency.into());
        let delta = addr.wrapping_sub(self.addr) as i64;
        put(
            &mut self.bytes,
            ((delta << 1) ^ (delta >> 63)) as u64 as u128,
        );
        (self.now, self.addr) = (now, addr);
    }

    fn flush_fetches(&mut self) {
        if self.unit_fetches > 0 {
            put(
                &mut self.bytes,
                u128::from(self.unit_fetches) << 2 | FETCHES,
            );
            self.unit_fetches = 0;
        }
    }

    /// The finished log bytes, or `None` when a call broke the format.
    fn finish(mut self) -> Option<Vec<u8>> {
        self.flush_fetches();
        self.bytes.shrink_to_fit();
        (!self.broken).then_some(self.bytes)
    }
}

/// Decodes a log's calls in order; see [`CallLog::calls`].
#[derive(Default)]
struct Calls<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Unit-latency fetches of the current run not yet yielded.
    unit_fetches: u64,
    now: u64,
    addr: u64,
}

impl Calls<'_> {
    fn get(&mut self) -> u128 {
        let (mut value, mut shift) = (0u128, 0);
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            value |= u128::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }
}

impl Iterator for Calls<'_> {
    type Item = Call;

    fn next(&mut self) -> Option<Call> {
        if self.unit_fetches > 0 {
            self.unit_fetches -= 1;
            return Some(Call::Fetch { latency: 1 });
        }
        if self.at == self.bytes.len() {
            return None;
        }
        let head = self.get();
        let value = (head >> 2) as u64;
        Some(match head & 3 {
            FETCHES => {
                self.unit_fetches = value - 1;
                Call::Fetch { latency: 1 }
            }
            FETCH => Call::Fetch { latency: value },
            tag => {
                self.now += value;
                let latency = self.get() as u64;
                let zigzag = self.get() as u64;
                let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
                self.addr = self.addr.wrapping_add(delta as u64);
                let (addr, now) = (self.addr, self.now);
                if tag == LOAD {
                    Call::Load { addr, now, latency }
                } else {
                    Call::Store { addr, now, latency }
                }
            }
        })
    }
}

/// Appends `value` as an LEB128 varint.
fn put(bytes: &mut Vec<u8>, mut value: u128) {
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
}

/// A memory side that logs every call it serves.
struct Recorder<'t> {
    machine: Machine,
    /// The trace instructions not yet fetched.
    pending: std::slice::Iter<'t, Inst>,
    log: LogWriter,
}

impl MemorySide for Recorder<'_> {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        let latency = self.machine.load(addr, now);
        self.log.push(Call::Load { addr, now, latency });
        latency
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        let latency = self.machine.store(addr, now);
        self.log.push(Call::Store { addr, now, latency });
        latency
    }

    fn fetch(&mut self, pc: u64) -> u64 {
        let latency = self.machine.fetch(pc);
        // The log keeps no pc, so each fetch must be the next in the trace.
        if self.pending.next().map(|i| i.pc) != Some(pc) {
            self.log.broken = true;
        }
        self.log.push(Call::Fetch { latency });
        latency
    }
}

/// Runs `reference` in full and logs its memory-side calls. `None` when
/// the run breaks a fact the log format relies on.
///
/// # Panics
///
/// Panics where `run_sim` does.
pub(crate) fn record(reference: &SimConfig) -> Option<CallLog> {
    let trace = workload(reference);
    let recorder = Recorder {
        machine: Machine::new(reference, &trace),
        pending: trace.iter(),
        log: LogWriter::default(),
    };
    let (recorder, stats) = run_core(reference.cpu, &trace, recorder);
    let bytes = recorder.log.finish()?;
    Some(CallLog {
        bytes,
        cpu: reference.cpu,
        trace,
        stats,
    })
}

/// `run_sim(config)`, computed by replaying `log` into a fresh memory
/// side built for `config` instead of running the core, or `None` at the
/// first latency that differs from the log's. A log recorded for another
/// core configuration or trace is refused with `None`.
///
/// # Panics
///
/// Panics where `run_sim` does.
pub(crate) fn replay(config: &SimConfig, log: &CallLog) -> Option<SimResult> {
    let trace = workload(config);
    if config.cpu != log.cpu || !Arc::ptr_eq(&trace, &log.trace) {
        return None;
    }
    let mut machine = Machine::new(config, &trace);
    let mut pcs = trace.iter().map(|i| i.pc);
    for call in log.calls() {
        let same = match call {
            Call::Fetch { latency } => machine.fetch(pcs.next()?) == latency,
            Call::Load { addr, now, latency } => machine.load(addr, now) == latency,
            Call::Store { addr, now, latency } => machine.store(addr, now) == latency,
        };
        if !same {
            return None;
        }
    }
    Some(machine.finish(config, log.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{run_sim, FaultConfig};
    use icr_core::{DataL1Config, Scheme};
    use icr_fault::{conditional_arrival, trial_seed, ErrorModel};
    use icr_trace::apps::APP_NAMES;
    use proptest::prelude::*;

    /// `calls` written to a log and read back.
    fn round_trip(calls: &[Call]) -> Vec<Call> {
        let mut writer = LogWriter::default();
        for &call in calls {
            writer.push(call);
        }
        let bytes = writer.finish().expect("calls in cycle order encode");
        Calls {
            bytes: &bytes,
            ..Calls::default()
        }
        .collect()
    }

    #[test]
    fn an_empty_log_has_no_bytes_and_no_calls() {
        assert_eq!(LogWriter::default().finish(), Some(Vec::new()));
        assert_eq!(round_trip(&[]), []);
    }

    #[test]
    fn now_jumps_beyond_32_bits_round_trip() {
        let calls = [
            Call::Load {
                addr: 0x1000,
                now: 7,
                latency: 2,
            },
            Call::Store {
                addr: 0x1000,
                now: 7 + (1 << 33),
                latency: 1,
            },
            Call::Load {
                addr: 0x1008,
                now: 7 + (1 << 33),
                latency: 1,
            },
            Call::Load {
                addr: 0x1010,
                now: u64::MAX,
                latency: 3,
            },
        ];
        assert_eq!(round_trip(&calls), calls);
    }

    #[test]
    fn negative_and_wrapping_address_deltas_round_trip() {
        let calls = [
            Call::Load {
                addr: 0x8000,
                now: 1,
                latency: 1,
            },
            Call::Store {
                addr: 0x7ff8,
                now: 2,
                latency: 1,
            },
            Call::Load {
                addr: 0,
                now: 2,
                latency: 9,
            },
            Call::Load {
                addr: u64::MAX - 7,
                now: 3,
                latency: 1,
            },
            Call::Store {
                addr: 8,
                now: 4,
                latency: 1,
            },
        ];
        assert_eq!(round_trip(&calls), calls);
    }

    #[test]
    fn fetch_runs_and_other_latencies_round_trip() {
        let calls = [
            Call::Fetch { latency: 1 },
            Call::Fetch { latency: 1 },
            Call::Fetch { latency: 23 },
            Call::Fetch { latency: 1 },
            Call::Store {
                addr: 0x40,
                now: 5,
                latency: 4,
            },
            Call::Fetch { latency: 1 },
            Call::Fetch { latency: 1 },
            Call::Fetch { latency: 1 },
            Call::Fetch { latency: 300 },
        ];
        assert_eq!(round_trip(&calls), calls);
    }

    #[test]
    fn a_cycle_that_runs_backwards_leaves_no_log() {
        let mut writer = LogWriter::default();
        writer.push(Call::Load {
            addr: 0,
            now: 10,
            latency: 1,
        });
        writer.push(Call::Store {
            addr: 0,
            now: 9,
            latency: 1,
        });
        assert_eq!(writer.finish(), None);
    }

    fn reference(scheme: Scheme, app: &str, seed: u64, insts: u64) -> SimConfig {
        let mut dl1 = DataL1Config::paper_default(scheme);
        dl1.oracle = true;
        SimConfig::builder(app, dl1)
            .instructions(insts)
            .seed(seed)
            .build()
    }

    #[test]
    fn a_fault_free_replay_is_the_reference_run() {
        let cfg = reference(Scheme::ICR_P_PS_S, "gzip", 3, 4_000);
        let log = record(&cfg).expect("the core fetches in order at non-decreasing cycles");
        assert_eq!(replay(&cfg, &log), Some(run_sim(&cfg)));
        let count = |kind: fn(&Call) -> bool| log.calls().filter(kind).count() as u64;
        assert_eq!(count(|c| matches!(c, Call::Fetch { .. })), 4_000);
        assert_eq!(count(|c| matches!(c, Call::Store { .. })), log.stats.stores);
        // Loads served from the store queue never reach the memory side.
        assert!(count(|c| matches!(c, Call::Load { .. })) <= log.stats.loads);
    }

    #[test]
    fn a_log_of_another_trace_or_core_is_refused() {
        let cfg = reference(Scheme::BASE_P, "gzip", 3, 3_000);
        let log = record(&cfg).expect("loggable");
        assert!(replay(&reference(Scheme::BASE_P, "gzip", 4, 3_000), &log).is_none());
        let mut wider = cfg.clone();
        wider.cpu.ruu_size /= 2;
        assert!(replay(&wider, &log).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        /// Every named scheme, `-L2` descriptors included, runs one
        /// uniform and one importance trial (`fault_bias` plus
        /// `fault_arrival`), with the four error models in turn, at a
        /// random app, workload seed, trial index and length. Each
        /// replay equals `run_sim` or reports a divergence, and each
        /// sweep has both.
        #[test]
        fn a_replay_is_run_sim_or_reports_divergence(
            draws in prop::collection::vec(
                (0..APP_NAMES.len(), 0u64..1_000, 0u64..1_000_000, 3_000u64..=5_000),
                Scheme::all_named_schemes().len(),
            ),
        ) {
            let (mut replayed, mut diverged) = (0, 0);
            let schemes = Scheme::all_named_schemes();
            for (k, (&scheme, &(app, seed, trial, insts))) in schemes.iter().zip(&draws).enumerate() {
                let reference = reference(scheme, APP_NAMES[app], seed, insts);
                let log = record(&reference).expect("the core fetches in order at non-decreasing cycles");
                let p = 8.0 / insts as f64;
                for importance in [false, true] {
                    let model = ErrorModel::all()[(2 * k + usize::from(importance)) % 4];
                    let mut cfg = reference.clone();
                    cfg.fault = Some(FaultConfig::one_shot(model, p, trial_seed(seed, trial)));
                    if importance {
                        cfg.fault_bias = Some(1.0 + (trial % 16) as f64);
                        cfg.fault_arrival = Some(conditional_arrival(
                            p,
                            log.stats.cycles,
                            trial_seed(!seed, trial),
                        ));
                    }
                    match replay(&cfg, &log) {
                        Some(r) => {
                            prop_assert_eq!(r, run_sim(&cfg), "{} on {}", scheme, APP_NAMES[app]);
                            replayed += 1;
                        }
                        None => diverged += 1,
                    }
                }
            }
            prop_assert!(
                replayed > 0 && diverged > 0,
                "{replayed} replayed and {diverged} diverged trials"
            );
        }
    }

    /// Prints, per cell of the benchmark's campaign matrix (64 one-shot
    /// trials a cell at 20k instructions and the auto rate, oracle on),
    /// how many trials replay and the size of the cell's log, for the
    /// random model at master seed 1 and the other three models at
    /// seed 3. Run with
    /// `cargo test -p icr-sim --release --lib -- --ignored replay_census --nocapture`.
    #[test]
    #[ignore = "a census to print, not a check"]
    fn replay_census() {
        let schemes = [
            Scheme::BASE_P,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_ECC_PS_S,
            Scheme::ICR_P_PS_S_L2,
        ];
        let (apps, trials, insts) = (["gzip", "mcf"], 64u64, 20_000);
        let runs = [
            (ErrorModel::Random, 1),
            (ErrorModel::Direct, 3),
            (ErrorModel::Adjacent, 3),
            (ErrorModel::Column, 3),
        ];
        for (model, master) in runs {
            let mut total = 0;
            for (cell, (scheme, app)) in schemes
                .iter()
                .flat_map(|&s| apps.map(move |a| (s, a)))
                .enumerate()
            {
                let reference = reference(scheme, app, master, insts);
                let log = record(&reference).expect("loggable");
                let replayed = (0..trials)
                    .filter(|t| {
                        let mut cfg = reference.clone();
                        let seed = trial_seed(master, cell as u64 * trials + t);
                        cfg.fault = Some(FaultConfig::one_shot(model, 8.0 / insts as f64, seed));
                        replay(&cfg, &log).is_some()
                    })
                    .count();
                total += replayed;
                println!(
                    "{model:?} seed {master}: {scheme} on {app}: {replayed}/{trials} replayed, \
                     log {} B for {} calls",
                    log.bytes.len(),
                    log.calls().count()
                );
            }
            println!("{model:?} seed {master}: {total}/{} replayed", 8 * trials);
        }
    }
}
