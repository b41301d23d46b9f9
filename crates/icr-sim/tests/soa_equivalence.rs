//! Differential pin of the dL1's observable state across the refactor to
//! a structure-of-arrays hot path.
//!
//! The fixture table below was recorded from the pre-refactor
//! (array-of-structs) implementation: one digest per (scheme × app) cell
//! of the paper matrix, folding every valid line's `line_view` fields
//! with the decay counter `DecayConfig::counter_at` derives from them,
//! the per-set `lru_order`, the audited statistics counters and the
//! returned access latencies at regular checkpoints during a trace
//! replay. Any layout
//! change that perturbs a tag, dirty bit, protection code, replica flag,
//! decay counter, recency order, latency or counter — at any checkpoint,
//! not just at the end — changes the digest.
//!
//! Regenerate with:
//!
//! ```text
//! cargo test -p icr-sim --test soa_equivalence --release -- \
//!     --ignored record_digests --nocapture
//! ```
//!
//! Those replays are fault-free. A third table, `RECORDED_FAULTED`,
//! replays under random-model strikes with background scrubbing and the
//! oracle on, and also folds the stored words, the exposure windows and
//! the spill, error and scrub counters; it was recorded before the dL1's
//! line-state writes were routed through one method per transition.
//! Its recorder alone is `--ignored record_digests_faulted`.
//!
//! Alongside the recorded matrix, randomized access sequences (vendored
//! proptest stand-in) drive the dL1 in lockstep against the independent
//! `icr-check` reference model, so sequences no trace produces are
//! covered too — zero divergences tolerated.

use icr_core::{DataL1, DataL1Config, IcrStats, Scheme, VictimPolicy, WritePolicy};
use icr_fault::{ErrorModel, FaultInjector};
use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
use icr_sim::audit::{export_real_state, ref_config};
use icr_trace::apps::APP_NAMES;
use icr_trace::OpClass;
use proptest::prelude::*;

/// Instructions replayed per cell. Small enough to keep the whole matrix
/// in tier-1 time, large enough to exercise fills, evictions,
/// replication, decay death and write-back traffic.
const REPLAY_INSTRUCTIONS: u64 = 20_000;
const REPLAY_SEED: u64 = 42;
/// Digest checkpoint cadence, in memory accesses. Prime, so it does not
/// alias with any power-of-two structure in the cache.
const CHECKPOINT_EVERY: u64 = 997;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the full observable state of the cache — every valid line's
/// view with its decay counter and deadness at `now`, in set and way
/// order, the recency order of every set, and the audited counters.
fn fold_state(h: &mut u64, dl1: &DataL1, now: u64) {
    let g = dl1.geometry();
    for set in 0..g.num_sets() {
        for way in 0..g.associativity() {
            let Some(l) = dl1.line_view(set, way) else {
                continue;
            };
            let counter = dl1.config().decay.counter_at(l.last_access, now);
            fold(h, set as u64);
            fold(h, way as u64);
            fold(h, l.addr.raw());
            fold(h, u64::from(l.dirty));
            fold(h, u64::from(l.is_replica));
            fold(h, u64::from(l.protection == icr_ecc::Protection::SecDed));
            fold(h, l.last_access);
            fold(h, u64::from(counter));
            fold(h, u64::from(counter == 3));
        }
    }
    for s in 0..dl1.geometry().num_sets() {
        for &w in dl1.lru_order(s) {
            fold(h, w as u64);
        }
    }
    let st = dl1.stats();
    for v in [
        st.cache.read_accesses,
        st.cache.read_hits,
        st.cache.write_accesses,
        st.cache.write_hits,
        st.cache.fills,
        st.cache.evictions,
        st.writebacks,
        st.replicas_created,
        st.replica_evictions,
        st.replica_updates,
        st.replication_attempts,
        st.replication_with_one,
        st.replication_with_two,
        st.read_hits_with_replica,
        st.misses_served_by_replica,
        st.l1_read_ops,
        st.l1_write_ops,
        st.parity_ops,
        st.ecc_ops,
        dl1.vulnerable_word_count() as u64,
    ] {
        fold(h, v);
    }
}

/// Replays the memory accesses of one traced workload through a dL1 and
/// digests the observable state at every checkpoint. The access clock
/// advances by each access's returned latency, so a latency change
/// shifts every later `last_access` and decay counter into the digest.
fn replay_digest(cfg: DataL1Config, app: &str) -> u64 {
    let trace = icr_trace::store::global().get(app, REPLAY_SEED, REPLAY_INSTRUCTIONS);
    let mut dl1 = DataL1::new(cfg);
    let mut backend = MemoryBackend::new(&HierarchyConfig::default());
    let mut h = FNV_OFFSET;
    let mut now = 0u64;
    let mut accesses = 0u64;
    for inst in trace.iter() {
        let lat = match inst.op {
            OpClass::Load => dl1.load(Addr(inst.mem_addr.unwrap()), now, &mut backend),
            OpClass::Store => dl1.store(Addr(inst.mem_addr.unwrap()), now, &mut backend),
            _ => {
                now += 1;
                continue;
            }
        };
        fold(&mut h, lat);
        now += 1 + lat;
        accesses += 1;
        if accesses.is_multiple_of(CHECKPOINT_EVERY) {
            fold_state(&mut h, &dl1, now);
        }
    }
    fold_state(&mut h, &dl1, now);
    h
}

/// The recorded pre-refactor digests, row-major over
/// `Scheme::all_paper_schemes() × APP_NAMES` (paper-default config per
/// scheme). Regenerate via the ignored `record_digests` test.
const RECORDED: [[u64; 8]; 10] = [
    [
        // BaseP
        0x69820c0581b934ca,
        0xdff05b07f77cf58b,
        0x08b3b39c29e65c8d,
        0x1ca48f6a77dc23ea,
        0x2c3286516f5ad64e,
        0xce3048edfa2d8214,
        0x2c513ede070f72f1,
        0xe5521a7462644fd2,
    ],
    [
        // BaseECC
        0xfa896ffd098ace05,
        0xbcb7b00d1b458d8d,
        0x71a5ab2b3e916a84,
        0x255b3c70523b37bd,
        0xd030c7694f140ddb,
        0x637f9c72fcaeb067,
        0xf964c8f94dd8ee58,
        0x7b3899574141b155,
    ],
    [
        // ICR-P-PS (LS)
        0xba4b8e156d07b387,
        0x05114169980f7158,
        0x53a755c78376bdc9,
        0x0197624c535a223b,
        0xd00136bbf9d6d8ee,
        0x6ba258b3f2f5ad6e,
        0xf71cbb3e87ea5558,
        0x0cc76f86d9cade74,
    ],
    [
        // ICR-P-PS (S)
        0x2d7a6cb6b5e2d770,
        0xf7dedc4eb90b5a29,
        0xe91c46b4874b665d,
        0x7d76261f87acc0d9,
        0xb93cb920c311d507,
        0xf6c42c7c1aa61311,
        0x0d53f60c14874911,
        0xb2e4c4cd187bf4ac,
    ],
    [
        // ICR-P-PP (LS)
        0xd6c2010748815e00,
        0xae1a2f6701f46339,
        0x7a16daad41ff0417,
        0x12fda5b2a61d41b0,
        0x05fd25f02a170eba,
        0xdac0fe486802d5cd,
        0xfdbde0b2424ef2b4,
        0x1d15baa009430535,
    ],
    [
        // ICR-P-PP (S)
        0x6d535788d99e0ca3,
        0x7761da5548ae29a5,
        0x7ef41e5f7bb26f4d,
        0x6be790e07309cab0,
        0xf5e6845ed4007a2c,
        0x6dd637b321b7ca97,
        0x332a7dcdd369dee4,
        0x31777b5c7f1350b2,
    ],
    [
        // ICR-ECC-PS (LS)
        0x638d04b9ecd06e41,
        0x0447fddeb6f4c0d2,
        0x5d022c5f7fb44887,
        0xde24135eaa4fe23e,
        0xc6038a0d80103f8a,
        0xe760b0282abd9996,
        0x77ba5d0761d6bb79,
        0xf928d90505c1a579,
    ],
    [
        // ICR-ECC-PS (S)
        0xa13200826a272126,
        0x75f1e16046540752,
        0xb339f42f9f857f6e,
        0xe1b5868ad032423f,
        0xf7ff680a97ffa4b2,
        0x84200df20459f8ff,
        0xe42030a68dc68504,
        0xaed5b22dd8b882f2,
    ],
    [
        // ICR-ECC-PP (LS)
        0x599fda8668edbdf0,
        0x7a007a20ea52d61f,
        0x7a68e5251aedbb82,
        0x6a87d769105b8fb1,
        0xe1ef838faad160ae,
        0x0ad9003cf8d2b447,
        0x30279708ee1ffb22,
        0x34050e4825a4a673,
    ],
    [
        // ICR-ECC-PP (S)
        0x100cef0502e4385f,
        0xcd6ac6f1e5bd4395,
        0x37c321644bc40b6c,
        0x86b95c5ba667ca23,
        0x04af89bee0f879c4,
        0xa1d26fc4f16f4139,
        0xfeaabdbbf632d338,
        0x541cfed5ac37ab76,
    ],
];

/// Prints the fixture table from the *current* implementation. Run this
/// before a refactor to record the baseline, then paste the output over
/// `RECORDED`.
#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_digests() {
    println!("const RECORDED: [[u64; 8]; 10] = [");
    for scheme in Scheme::all_paper_schemes() {
        println!("    [ // {}", scheme.name());
        for app in APP_NAMES {
            let d = replay_digest(DataL1Config::paper_default(scheme), app);
            println!("        {d:#018x},");
        }
        println!("    ],");
    }
    println!("];");
}

#[test]
fn digests_match_recorded_pre_refactor_state() {
    let schemes = Scheme::all_paper_schemes();
    assert_eq!(schemes.len(), RECORDED.len());
    let mut failures = Vec::new();
    for (si, &scheme) in schemes.iter().enumerate() {
        for (ai, app) in APP_NAMES.iter().enumerate() {
            let got = replay_digest(DataL1Config::paper_default(scheme), app);
            let want = RECORDED[si][ai];
            if got != want {
                failures.push(format!(
                    "{} x {app}: recorded {want:#018x}, got {got:#018x}",
                    scheme.name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "observable dL1 state diverged from the pre-refactor recording:\n{}",
        failures.join("\n")
    );
}

/// The write-through path has its own fixture (the matrix above is all
/// write-back): one digest per app pins buffer stalls, clean lines and
/// no-allocate misses.
const RECORDED_WT: [u64; 8] = [
    0xb7c4aa141c0b49c3,
    0x59a0f639baadc54d,
    0x1bd640b47f1a2e00,
    0x0acf4dc4d98093e6,
    0xfa62e1786cce347c,
    0x9d6ac061ec660e39,
    0x5a4e378d9563ef29,
    0xddf6847b010d1d09,
];

fn wt_config() -> DataL1Config {
    let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
    cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
    cfg
}

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_digests_write_through() {
    println!("const RECORDED_WT: [u64; 8] = [");
    for app in APP_NAMES {
        println!("    {:#018x},", replay_digest(wt_config(), app));
    }
    println!("];");
}

#[test]
fn write_through_digests_match_recorded_pre_refactor_state() {
    for (ai, app) in APP_NAMES.iter().enumerate() {
        let got = replay_digest(wt_config(), app);
        assert_eq!(
            got, RECORDED_WT[ai],
            "write-through {app}: recorded {:#018x}, got {got:#018x}",
            RECORDED_WT[ai]
        );
    }
}

// ---------------------------------------------------------------------
// Faulted replays: stored words, exposure windows and error counters.
// ---------------------------------------------------------------------

/// Per-cycle strike probability of the faulted replay: high enough that
/// every recovery rung fires somewhere in the table.
const FAULT_P: f64 = 1e-2;
const FAULT_SEED: u64 = 0x1c4_5eed;
/// Background scrubbing: `SCRUB_LINES` lines every `SCRUB_INTERVAL` cycles.
const SCRUB_INTERVAL: u64 = 2_000;
const SCRUB_LINES: usize = 16;

/// Folds what a fault moves and `fold_state` leaves out: the spill,
/// error and scrub counters, the exposure windows, and every stored
/// word of every valid line.
fn fold_faulted_state(h: &mut u64, dl1: &DataL1, now: u64) {
    fold_state(h, dl1, now);
    let st = dl1.stats();
    for v in [
        st.spills_created,
        st.spill_updates,
        st.spill_invalidations,
        st.spill_evictions,
        st.misses_served_by_spill,
        st.errors_detected,
        st.errors_corrected_ecc,
        st.errors_recovered_replica,
        st.errors_recovered_spill,
        st.errors_recovered_l2,
        st.errors_recovered_duplicate,
        st.unrecoverable_loads,
        st.silent_corruptions,
        st.errors_caught_by_compare,
        st.scrub_checks,
        st.scrub_heals,
    ] {
        fold(h, v);
    }
    let windows = dl1.exposure_windows(now);
    let word_cycles = windows.residency.iter().chain(&windows.consumed);
    for &c in word_cycles.chain([&windows.total_word_cycles]) {
        fold(h, c as u64);
        fold(h, (c >> 64) as u64);
    }
    let words = dl1.geometry().words_per_block();
    for (set, way) in dl1.valid_lines() {
        for word in 0..words {
            fold(h, dl1.word_data(set, way, word).expect("valid line"));
        }
    }
}

/// The recovery counters the faulted table must exercise, by name.
fn recovery_counters(st: &IcrStats) -> [(&'static str, u64); 11] {
    [
        ("errors_recovered_replica", st.errors_recovered_replica),
        ("errors_recovered_spill", st.errors_recovered_spill),
        ("errors_recovered_duplicate", st.errors_recovered_duplicate),
        ("errors_recovered_l2", st.errors_recovered_l2),
        ("errors_corrected_ecc", st.errors_corrected_ecc),
        ("errors_caught_by_compare", st.errors_caught_by_compare),
        ("unrecoverable_loads", st.unrecoverable_loads),
        ("silent_corruptions", st.silent_corruptions),
        ("scrub_heals", st.scrub_heals),
        ("misses_served_by_replica", st.misses_served_by_replica),
        ("misses_served_by_spill", st.misses_served_by_spill),
    ]
}

fn add_recovery_counters(totals: &mut [u64; 11], st: &IcrStats) {
    for (t, (_, c)) in totals.iter_mut().zip(recovery_counters(st)) {
        *t += c;
    }
}

/// `replay_digest`'s replay with the oracle on, random-model strikes and
/// background scrubbing. Before each access the injector and the
/// scrubber catch up to its cycle the way the simulator's machine does
/// it, so the digest pins each access's latency and, at every
/// checkpoint, the faulted state. Returns the digest and the final
/// statistics.
fn faulted_replay(mut cfg: DataL1Config, app: &str) -> (u64, IcrStats) {
    let trace = icr_trace::store::global().get(app, REPLAY_SEED, REPLAY_INSTRUCTIONS);
    cfg.oracle = true;
    let mut dl1 = DataL1::new(cfg);
    let mut backend = MemoryBackend::new(&HierarchyConfig::default());
    let mut injector = FaultInjector::new(ErrorModel::Random, FAULT_P, FAULT_SEED);
    let mut fault_horizon = 0u64;
    let mut next_scrub = SCRUB_INTERVAL;
    let mut h = FNV_OFFSET;
    let mut now = 0u64;
    let mut accesses = 0u64;
    for inst in trace.iter() {
        let store = match inst.op {
            OpClass::Load => false,
            OpClass::Store => true,
            _ => {
                now += 1;
                continue;
            }
        };
        if now > fault_horizon {
            injector.advance(&mut dl1, &mut backend, fault_horizon, now);
            fault_horizon = now;
        }
        while now >= next_scrub {
            dl1.scrub_step(SCRUB_LINES, next_scrub, &mut backend);
            next_scrub += SCRUB_INTERVAL;
        }
        let addr = Addr(inst.mem_addr.unwrap());
        let lat = if store {
            dl1.store(addr, now, &mut backend)
        } else {
            dl1.load(addr, now, &mut backend)
        };
        fold(&mut h, lat);
        now += 1 + lat;
        accesses += 1;
        if accesses.is_multiple_of(CHECKPOINT_EVERY) {
            fold_faulted_state(&mut h, &dl1, now);
        }
    }
    fold_faulted_state(&mut h, &dl1, now);
    (h, *dl1.stats())
}

/// The faulted table's cells: every named scheme on gzip and mcf, the
/// spill schemes on two more apps (the spill rung is the rarest), one
/// duplication-cache config and one keep-replicas config.
fn faulted_cells() -> Vec<(String, DataL1Config, &'static str)> {
    let mut cells = Vec::new();
    for scheme in Scheme::all_named_schemes() {
        let apps: &[&str] = if scheme.spills_to_l2() {
            &["gzip", "mcf", "vortex", "parser"]
        } else {
            &["gzip", "mcf"]
        };
        for &app in apps {
            let cfg = DataL1Config::paper_default(scheme);
            cells.push((format!("{} x {app}", scheme.name()), cfg, app));
        }
    }
    let mut dup = DataL1Config::paper_default(Scheme::BASE_P);
    dup.duplication_cache = Some(16);
    cells.push(("BaseP + duplication cache x gzip".into(), dup, "gzip"));
    let mut keep = DataL1Config::paper_default(Scheme::ICR_P_PS_LS);
    keep.keep_replicas_on_evict = true;
    cells.push(("ICR-P-PS (LS) keeping replicas x mcf".into(), keep, "mcf"));
    cells
}

/// One digest per `faulted_cells()` entry, in order. Regenerate via the
/// ignored `record_digests_faulted` test.
const RECORDED_FAULTED: [u64; 56] = [
    0x462d4058a737fc6d, // BaseP x gzip
    0xf28073b494f2f3fa, // BaseP x mcf
    0x9ba039929f87614e, // BaseECC x gzip
    0x379325d99d5a1262, // BaseECC x mcf
    0x603c0ad740042e75, // ICR-P-PS (LS) x gzip
    0xabcad7e06b58863e, // ICR-P-PS (LS) x mcf
    0x86015630b2515e1d, // ICR-P-PS (S) x gzip
    0xf622acbb7e2d6829, // ICR-P-PS (S) x mcf
    0x32bf5274bb9798ad, // ICR-P-PP (LS) x gzip
    0x3fcd25298cf87981, // ICR-P-PP (LS) x mcf
    0x120fe908f5612a0d, // ICR-P-PP (S) x gzip
    0xf29880f533f61045, // ICR-P-PP (S) x mcf
    0xcb9017cde3820526, // ICR-ECC-PS (LS) x gzip
    0x14f261a85b02f331, // ICR-ECC-PS (LS) x mcf
    0xa6dec8324783dd92, // ICR-ECC-PS (S) x gzip
    0x51bab853936b075e, // ICR-ECC-PS (S) x mcf
    0x522426cd8244c461, // ICR-ECC-PP (LS) x gzip
    0xd19d4c2df8e90847, // ICR-ECC-PP (LS) x mcf
    0x9a751a14a8697999, // ICR-ECC-PP (S) x gzip
    0x7239a17dfeb878c0, // ICR-ECC-PP (S) x mcf
    0x416704da7df521c2, // BaseECC-spec x gzip
    0x0aa8cdac699c2ed5, // BaseECC-spec x mcf
    0x603c0ad740042e75, // ICR-P-PS-L2 (LS) x gzip
    0xaff233e5111bdd16, // ICR-P-PS-L2 (LS) x mcf
    0xa0de4afcdb978978, // ICR-P-PS-L2 (LS) x vortex
    0x98d2fb8dc2512820, // ICR-P-PS-L2 (LS) x parser
    0x86015630b2515e1d, // ICR-P-PS-L2 (S) x gzip
    0x735606b2b7a9d3be, // ICR-P-PS-L2 (S) x mcf
    0xc454aa3fb78b61ce, // ICR-P-PS-L2 (S) x vortex
    0x9406e105c2f98ea8, // ICR-P-PS-L2 (S) x parser
    0x32bf5274bb9798ad, // ICR-P-PP-L2 (LS) x gzip
    0xd8cc2dede877c00c, // ICR-P-PP-L2 (LS) x mcf
    0x54b89c200f8b849c, // ICR-P-PP-L2 (LS) x vortex
    0x55da9ce07d65f943, // ICR-P-PP-L2 (LS) x parser
    0x120fe908f5612a0d, // ICR-P-PP-L2 (S) x gzip
    0x892c6fb1659a9941, // ICR-P-PP-L2 (S) x mcf
    0x05fc92b1d39ef05c, // ICR-P-PP-L2 (S) x vortex
    0xc795711b83b15320, // ICR-P-PP-L2 (S) x parser
    0xcb9017cde3820526, // ICR-ECC-PS-L2 (LS) x gzip
    0x89a4ef72a2b3991f, // ICR-ECC-PS-L2 (LS) x mcf
    0x13fcd450276eac49, // ICR-ECC-PS-L2 (LS) x vortex
    0xf165b93dddb0478a, // ICR-ECC-PS-L2 (LS) x parser
    0xa6dec8324783dd92, // ICR-ECC-PS-L2 (S) x gzip
    0xb5452a76044ff8cd, // ICR-ECC-PS-L2 (S) x mcf
    0xbe67ac95b9d3b9e6, // ICR-ECC-PS-L2 (S) x vortex
    0x668091442467d454, // ICR-ECC-PS-L2 (S) x parser
    0x522426cd8244c461, // ICR-ECC-PP-L2 (LS) x gzip
    0xcc68636fe6b0bee0, // ICR-ECC-PP-L2 (LS) x mcf
    0x30789953efdcb856, // ICR-ECC-PP-L2 (LS) x vortex
    0x458b5855e3109e6b, // ICR-ECC-PP-L2 (LS) x parser
    0x9a751a14a8697999, // ICR-ECC-PP-L2 (S) x gzip
    0x19bfca87fff8c0be, // ICR-ECC-PP-L2 (S) x mcf
    0x7c92e20963b5e269, // ICR-ECC-PP-L2 (S) x vortex
    0xcc81277e16c80d38, // ICR-ECC-PP-L2 (S) x parser
    0x5ebdf6e75a170d0d, // BaseP + duplication cache x gzip
    0x1ced6d64d4f17089, // ICR-P-PS (LS) keeping replicas x mcf
];

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_digests_faulted() {
    let cells = faulted_cells();
    let mut totals = [0u64; 11];
    println!("const RECORDED_FAULTED: [u64; {}] = [", cells.len());
    for (label, cfg, app) in cells {
        let (d, st) = faulted_replay(cfg, app);
        println!("    {d:#018x}, // {label}");
        add_recovery_counters(&mut totals, &st);
    }
    println!("];");
    for ((name, _), total) in recovery_counters(&IcrStats::default()).iter().zip(totals) {
        println!("// {name}: {total}");
    }
}

#[test]
fn faulted_digests_match_recorded_state() {
    let cells = faulted_cells();
    assert_eq!(cells.len(), RECORDED_FAULTED.len());
    let mut totals = [0u64; 11];
    let mut failures = Vec::new();
    for ((label, cfg, app), &want) in cells.into_iter().zip(&RECORDED_FAULTED) {
        let (got, st) = faulted_replay(cfg, app);
        add_recovery_counters(&mut totals, &st);
        if got != want {
            failures.push(format!("{label}: recorded {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "faulted dL1 state diverged from the recording:\n{}",
        failures.join("\n")
    );
    for ((name, _), total) in recovery_counters(&IcrStats::default()).iter().zip(totals) {
        assert!(total > 0, "no faulted cell exercised {name}");
    }
}

// ---------------------------------------------------------------------
// Randomized sequences: lockstep against the independent reference model.
// ---------------------------------------------------------------------

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    // Every named preset: the ten paper schemes, the speculative-ECC
    // comparison point, and the eight L2-spill variants.
    prop::sample::select(Scheme::all_named_schemes())
}

fn arb_victim() -> impl Strategy<Value = VictimPolicy> {
    prop::sample::select(vec![
        VictimPolicy::DeadOnly,
        VictimPolicy::DeadFirst,
        VictimPolicy::ReplicaFirst,
        VictimPolicy::ReplicaOnly,
    ])
}

/// One synthetic access: block id, word, store?, cycle gap.
fn arb_ops() -> impl Strategy<Value = Vec<(u16, u8, bool, u8)>> {
    prop::collection::vec((0u16..512, 0u8..8, any::<bool>(), 0u8..50), 1..250)
}

proptest! {
    /// For arbitrary schemes, victim policies and access sequences, the
    /// dL1's exported state must match the naive reference model after
    /// every single access.
    #[test]
    fn random_sequences_stay_in_lockstep_with_the_reference_model(
        scheme in arb_scheme(),
        victim in arb_victim(),
        keep in any::<bool>(),
        decay_window in prop::sample::select(vec![0u64, 300, 1000]),
        ops in arb_ops(),
    ) {
        let mut cfg = DataL1Config::paper_default(scheme);
        cfg.victim = victim;
        cfg.keep_replicas_on_evict = keep;
        cfg.decay = icr_core::DecayConfig { window: decay_window };
        let g = cfg.geometry;
        let hierarchy = HierarchyConfig::default();
        let mut model = icr_check::RefModel::new(ref_config(&cfg, &hierarchy));
        let mut dl1 = DataL1::new(cfg);
        let mut backend = MemoryBackend::new(&hierarchy);
        let mut now = 0u64;
        for &(block, word, is_store, gap) in &ops {
            let addr = Addr(0x4000_0000 + u64::from(block) * g.block_bytes() as u64
                + u64::from(word) * 8);
            let lat = if is_store {
                model.store(addr.raw(), now);
                dl1.store(addr, now, &mut backend)
            } else {
                model.load(addr.raw(), now);
                dl1.load(addr, now, &mut backend)
            };
            let real = export_real_state(&dl1, &backend, now);
            if let Err(e) = model.check(now, &real) {
                prop_assert!(false, "divergence at cycle {now}: {e}");
            }
            now += 1 + lat + u64::from(gap);
        }
    }
}
