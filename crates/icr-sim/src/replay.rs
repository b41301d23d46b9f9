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
//! A log replays only trials of its reference's own configuration, which
//! differ from it only by their fault. [`replay`] takes that as given,
//! because its one caller builds each trial from the log's
//! configuration, and runs the log's own trace.
//!
//! **Early stop.** A replayed trial follows its fault's footprint in its
//! dL1 (`DataL1::follow_footprint`). After the first load or store
//! at which the fault has been delivered, every copy of its bits is
//! gone, none ever left the dL1 and no integrity check has fired, the
//! trial's memory side holds what the reference's held after that call,
//! so the rest of the run is the reference's: [`replay`] stops there
//! and returns the reference's result with the trial's fault record.
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
//! `now` differences wrap, so any order of cycles round-trips, and
//! `Pipeline::run` calls loads and stores at its current cycle, which
//! only grows, so each difference stays a byte or two. Neither fact is
//! checked per call: icr-cpu's `reference_core` test pins both on the
//! core's logged calls.

use crate::simulator::{run_core, workload, Machine, MemorySide, SimConfig, SimResult};
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

/// A fault-free reference run: its configuration and trace, which a
/// trial must share, its result, and its memory-side calls.
pub(crate) struct CallLog {
    /// The logged calls.
    bytes: Vec<u8>,
    /// The reference's configuration: a trial's, less its fault.
    pub(crate) config: SimConfig,
    trace: Arc<[Inst]>,
    /// The reference's result: its core statistics are every replayed
    /// trial's, and all of it, fault record aside, an early-stopped
    /// trial's.
    pub(crate) result: SimResult,
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
}

impl LogWriter {
    /// Appends one call.
    fn push(&mut self, call: Call) {
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
        self.flush_fetches();
        put(
            &mut self.bytes,
            u128::from(now.wrapping_sub(self.now)) << 2 | tag,
        );
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

    /// The finished log bytes.
    fn finish(mut self) -> Vec<u8> {
        self.flush_fetches();
        self.bytes.shrink_to_fit();
        self.bytes
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
                self.now = self.now.wrapping_add(value);
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
struct Recorder {
    machine: Machine,
    log: LogWriter,
}

impl MemorySide for Recorder {
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
        self.log.push(Call::Fetch { latency });
        latency
    }
}

/// Runs `reference` in full, logging its memory-side calls. The log's
/// result equals `run_sim(reference)`.
///
/// # Panics
///
/// Panics where `run_sim` does.
pub(crate) fn record(reference: &SimConfig) -> CallLog {
    let trace = workload(reference);
    let recorder = Recorder {
        machine: Machine::new(reference, &trace),
        log: LogWriter::default(),
    };
    let (recorder, stats) = run_core(reference.cpu, &trace, recorder);
    CallLog {
        result: recorder.machine.finish(reference, stats),
        bytes: recorder.log.finish(),
        config: reference.clone(),
        trace,
    }
}

/// `run_sim(config)`, computed by replaying `log` into a fresh memory
/// side built for `config` instead of running the core, or `None` at the
/// first latency that differs from the log's. Also gives the number of
/// calls replayed when the trial stopped early (`None` when it ran to
/// the end of the log). `config` must be `log.config` plus a fault,
/// which the replay does not check.
pub(crate) fn replay(config: &SimConfig, log: &CallLog) -> Option<(SimResult, Option<usize>)> {
    let mut machine = Machine::new(config, &log.trace);
    machine.follow_footprint();
    let mut pcs = log.trace.iter().map(|i| i.pc);
    for (at, call) in log.calls().enumerate() {
        let same = match call {
            Call::Fetch { latency } => machine.fetch(pcs.next()?) == latency,
            Call::Load { addr, now, latency } => machine.load(addr, now) == latency,
            Call::Store { addr, now, latency } => machine.store(addr, now) == latency,
        };
        if !same {
            return None;
        }
        // Only a load or a store reaches the dL1.
        if !matches!(call, Call::Fetch { .. }) && machine.settled() {
            return Some((machine.settled_result(config, &log.result), Some(at + 1)));
        }
    }
    Some((machine.finish(config, log.result.pipeline), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{run_sim, FaultConfig, ScrubConfig};
    use icr_core::{DataL1Config, Scheme, WritePolicy};
    use icr_fault::{conditional_arrival, trial_seed, ErrorModel};
    use icr_trace::apps::APP_NAMES;
    use proptest::prelude::*;

    /// `calls` written to a log and read back.
    fn round_trip(calls: &[Call]) -> Vec<Call> {
        let mut writer = LogWriter::default();
        for &call in calls {
            writer.push(call);
        }
        let bytes = writer.finish();
        Calls {
            bytes: &bytes,
            ..Calls::default()
        }
        .collect()
    }

    #[test]
    fn an_empty_log_has_no_bytes_and_no_calls() {
        assert_eq!(LogWriter::default().finish(), Vec::<u8>::new());
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
    fn a_cycle_that_runs_backwards_still_round_trips() {
        let calls = [
            Call::Load {
                addr: 0,
                now: 10,
                latency: 1,
            },
            Call::Store {
                addr: 0,
                now: 9,
                latency: 1,
            },
        ];
        assert_eq!(round_trip(&calls), calls);
    }

    fn reference(scheme: Scheme, app: &str, seed: u64, insts: u64) -> SimConfig {
        with_option(scheme, app, seed, insts, 0)
    }

    /// The options the replay sweep crosses with the schemes.
    const OPTIONS: usize = 6;

    /// [`reference`] with option `option`: 0 the paper's dL1 with the
    /// oracle on, then write-through, a 32-block duplication cache,
    /// keep-replicas, the oracle off, and background scrubbing.
    fn with_option(scheme: Scheme, app: &str, seed: u64, insts: u64, option: usize) -> SimConfig {
        let mut dl1 = DataL1Config::paper_default(scheme);
        dl1.oracle = option != 4;
        match option {
            1 => dl1.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 },
            2 => dl1.duplication_cache = Some(32),
            3 => dl1.keep_replicas_on_evict = true,
            _ => {}
        }
        let mut cfg = SimConfig::builder(app, dl1)
            .instructions(insts)
            .seed(seed)
            .build();
        if option == 5 {
            cfg.scrub = Some(ScrubConfig {
                interval: 200,
                lines_per_step: 4,
            });
        }
        cfg
    }

    #[test]
    fn a_fault_free_replay_is_the_reference_run() {
        let cfg = reference(Scheme::ICR_P_PS_S, "gzip", 3, 4_000);
        let log = record(&cfg);
        assert_eq!(log.result, run_sim(&cfg), "the recorder runs the reference");
        assert_eq!(replay(&cfg, &log), Some((log.result.clone(), None)));
        let count = |kind: fn(&Call) -> bool| log.calls().filter(kind).count() as u64;
        assert_eq!(count(|c| matches!(c, Call::Fetch { .. })), 4_000);
        let stats = log.result.pipeline;
        assert_eq!(count(|c| matches!(c, Call::Store { .. })), stats.stores);
        // Loads served from the store queue never reach the memory side.
        assert!(count(|c| matches!(c, Call::Load { .. })) <= stats.loads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        /// Every named scheme, `-L2` descriptors included, at a random
        /// app, workload seed, trial index and length, replays two
        /// references: option 0 and one of the other five options in
        /// turn. Each reference runs one trial of each error model, two
        /// of them uniform and two importance-sampled (`fault_bias` plus
        /// `fault_arrival`). Each replay equals `run_sim` or reports a
        /// divergence, and each sweep has trials that stop early, run to
        /// the end of the log and diverge.
        #[test]
        fn a_replay_is_run_sim_or_reports_divergence(
            first_option in 0..OPTIONS - 1,
            draws in prop::collection::vec(
                (0..APP_NAMES.len(), 0u64..1_000, 0u64..1_000_000, 3_000u64..=5_000),
                Scheme::all_named_schemes().len(),
            ),
        ) {
            let (mut stopped, mut ran_out, mut diverged) = (0, 0, 0);
            let schemes = Scheme::all_named_schemes();
            for (k, (&scheme, &(app, seed, trial, insts))) in schemes.iter().zip(&draws).enumerate() {
                let rotated = 1 + (first_option + k) % (OPTIONS - 1);
                for (r, option) in [0, rotated].into_iter().enumerate() {
                    let reference = with_option(scheme, APP_NAMES[app], seed, insts, option);
                    let log = record(&reference);
                    let p = 8.0 / insts as f64;
                    for (j, model) in ErrorModel::all().into_iter().enumerate() {
                        let (importance, trial) = (j % 2 == 1, trial + (4 * r + j + k) as u64);
                        let mut cfg = reference.clone();
                        cfg.fault = Some(FaultConfig::one_shot(model, p, trial_seed(seed, trial)));
                        if importance {
                            cfg.fault_bias = Some(1.0 + (trial % 16) as f64);
                            cfg.fault_arrival = Some(conditional_arrival(
                                p,
                                log.result.pipeline.cycles,
                                trial_seed(!seed, trial),
                            ));
                        }
                        match replay(&cfg, &log) {
                            Some((result, stop)) => {
                                prop_assert_eq!(
                                    result,
                                    run_sim(&cfg),
                                    "{} on {} with option {}, stopped at {:?}",
                                    scheme,
                                    APP_NAMES[app],
                                    option,
                                    stop
                                );
                                match stop {
                                    Some(_) => stopped += 1,
                                    None => ran_out += 1,
                                }
                            }
                            None => diverged += 1,
                        }
                    }
                }
            }
            prop_assert!(
                stopped > 0 && ran_out > 0 && diverged > 0,
                "{stopped} stopped early, {ran_out} ran to the end and {diverged} diverged"
            );
        }
    }

    /// Prints, per cell of the benchmark's campaign matrix (64 one-shot
    /// trials a cell at 20k instructions and the auto rate, oracle on),
    /// how many trials replay, how many of those stop early and the
    /// median point they stop at (as a share of the log's calls), and
    /// the size of the cell's log, for the random model at master seed 1
    /// and the other three models at seed 3; then, per model, the
    /// totals, the stop points' 10th, 50th and 90th percentiles and the
    /// time the replays took. Run with
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
        // The `q` quantile of the sorted stop points, in percent; 0 when
        // no trial stopped.
        let percent = |share: &[f64], q: f64| match share.len() {
            0 => 0.0,
            n => share[((n - 1) as f64 * q) as usize] * 100.0,
        };
        for (model, master) in runs {
            let (mut replayed, mut stops, mut elapsed) = (0, Vec::new(), 0.0);
            for (cell, (scheme, app)) in schemes
                .iter()
                .flat_map(|&s| apps.map(move |a| (s, a)))
                .enumerate()
            {
                let reference = reference(scheme, app, master, insts);
                let log = record(&reference);
                let calls = log.calls().count();
                let start = std::time::Instant::now();
                let outcomes: Vec<_> = (0..trials)
                    .filter_map(|t| {
                        let mut cfg = reference.clone();
                        let seed = trial_seed(master, cell as u64 * trials + t);
                        cfg.fault = Some(FaultConfig::one_shot(model, 8.0 / insts as f64, seed));
                        replay(&cfg, &log).map(|(_, stop)| stop)
                    })
                    .collect();
                elapsed += start.elapsed().as_secs_f64();
                let mut share: Vec<f64> = outcomes
                    .iter()
                    .flatten()
                    .map(|&at| at as f64 / calls as f64)
                    .collect();
                share.sort_by(f64::total_cmp);
                println!(
                    "{model:?} seed {master}: {scheme} on {app}: {}/{trials} replayed, \
                     {} stopped early at a median {:.1}% of {calls} calls, log {} B",
                    outcomes.len(),
                    share.len(),
                    percent(&share, 0.5),
                    log.bytes.len(),
                );
                replayed += outcomes.len();
                stops.extend(share);
            }
            stops.sort_by(f64::total_cmp);
            println!(
                "{model:?} seed {master}: {replayed}/{} replayed, {} stopped early at \
                 p10 {:.1}%, median {:.1}%, p90 {:.1}% of the calls; replays took {:.0} ms",
                8 * trials,
                stops.len(),
                percent(&stops, 0.1),
                percent(&stops, 0.5),
                percent(&stops, 0.9),
                elapsed * 1e3,
            );
        }
    }
}
