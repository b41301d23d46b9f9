//! Mutation smoke tests for the *incremental* lockstep audit: the
//! touched-set diff (`RefModel::check_touched`) now guards every CI
//! simulation, so it must still catch each accounting-bug class the
//! full-state diff in `tests/audit.rs` was built to catch — an
//! incremental checker that misses what the full diff caught is a
//! regression, not an optimisation.
//!
//! Each test doctors the real side's *partial* export (only the sets the
//! access touched, exactly what the incremental path sees) back into a
//! previously-fixed bug shape and asserts the checker fires, alongside a
//! positive control on the undoctored export. The last tests pin the
//! incremental/full division of labour itself: a divergence planted in
//! an *untouched* set slips past `check_touched` by design and is caught
//! by the periodic full sweep.

use icr_check::RefModel;
use icr_core::{DataL1, DataL1Config, Scheme, WritePolicy};
use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
use icr_sim::audit::{export_real_sets, export_real_state, ref_config, LockstepChecker};
use icr_sim::{run_audit, AuditSpec};

/// Drives the real dL1 and the reference model in lockstep through an
/// access schedule, running the *incremental* check after every access,
/// and returns both for further inspection.
fn lockstep_incremental(
    cfg: DataL1Config,
    schedule: &[(bool, u64, u64)], // (is_store, addr, cycle)
) -> (DataL1, MemoryBackend, RefModel) {
    let hierarchy = HierarchyConfig::default();
    let mut backend = MemoryBackend::new(&hierarchy);
    let mut dl1 = DataL1::new(cfg.clone());
    let mut model = RefModel::new(ref_config(&cfg, &hierarchy));
    let mut touched = Vec::new();
    for &(is_store, addr, now) in schedule {
        if is_store {
            dl1.store(Addr(addr), now, &mut backend);
            model.store(addr, now);
        } else {
            dl1.load(Addr(addr), now, &mut backend);
            model.load(addr, now);
        }
        model.take_touched_sets(&mut touched);
        let real = export_real_sets(&dl1, &backend, &touched, now);
        model
            .check_touched(now, &real)
            .unwrap_or_else(|e| panic!("clean incremental lockstep diverged at cycle {now}: {e}"));
    }
    (dl1, backend, model)
}

// ---------------------------------------------------------------------
// Bug 1: decay counter / deadness boundary.
// ---------------------------------------------------------------------

/// The pre-fix decay counter saturated at three *quarters* of the window
/// (`(elapsed / tick).min(3)`). Reconstructing that formula on a line
/// inside a *touched* set must trip the incremental decay cross-check —
/// the touched export is all the checker sees between sweeps.
#[test]
fn incremental_diff_catches_the_old_decay_counter_formula() {
    let cfg = DataL1Config::paper_default(Scheme::BASE_P); // window 1000, tick 250
    let window = cfg.decay.window;
    let tick = cfg.decay.tick_interval();
    // Both addresses map to the same set, so the cycle-800 access puts
    // the cycle-0 line inside the touched export.
    let (dl1, backend, mut model) =
        lockstep_incremental(cfg, &[(false, 0x1000_0000, 0), (false, 0x2000_0000, 800)]);
    let now = 800;
    let mut touched = Vec::new();
    model.take_touched_sets(&mut touched);
    // Re-run the last access's export by hand so we can doctor it: the
    // touched log was consumed by the clean check, so reconstruct it
    // from the home set of the two colliding addresses.
    assert!(touched.is_empty(), "clean check consumed the touched log");
    let home: Vec<usize> = export_real_state(&dl1, &backend, now)
        .sets
        .iter()
        .filter(|se| se.lines.iter().any(|l| l.last_access == 0))
        .map(|se| se.set)
        .collect();
    let mut real = export_real_sets(&dl1, &backend, &home, now);
    let line = real.sets[0]
        .lines
        .iter_mut()
        .find(|l| l.last_access == 0)
        .expect("the cycle-0 line is resident in the touched set");
    let elapsed = now - line.last_access;
    assert!(elapsed >= 3 * tick && elapsed < window, "in the bug zone");
    // The fixed code exports 2 here; the pre-fix formula said 3.
    assert_eq!(line.counter, 2);
    line.counter = ((elapsed / tick).min(3)) as u8;
    let err = model.check_touched(now, &real).unwrap_err();
    assert!(err.contains("decay counter diverged"), "{err}");
}

// ---------------------------------------------------------------------
// Bug 2: write-buffer stall-window drain.
// ---------------------------------------------------------------------

/// The incremental check diffs the §5.8 write buffer on *every* access,
/// not only at sweeps — so the pre-fix shape (a charged stall window
/// that left an already-due entry queued) is rejected immediately when
/// planted in the partial export.
#[test]
fn incremental_diff_catches_a_stall_that_leaves_due_entries_queued() {
    let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
    cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 2 };
    let (dl1, backend, mut model) = lockstep_incremental(
        cfg,
        &[
            (true, 0x000, 0),
            (true, 0x040, 0), // buffer now full
            (true, 0x080, 0), // full: stalls, drains the head
            (true, 0x0c0, 8),
        ],
    );
    let now = 8;
    let mut real = export_real_sets(&dl1, &backend, &[], now);
    let wb = real
        .write_buffer
        .as_mut()
        .expect("write-through exports a buffer");
    // The pre-fix buffer shape: an entry due inside the already-charged
    // stall window is still pending.
    wb.pending_ready.insert(0, 6);
    wb.occupancy += 1;
    let err = model.check_touched(now, &real).unwrap_err();
    assert!(err.contains("charged stall window"), "{err}");
}

// ---------------------------------------------------------------------
// Bug 3: survived-count / counter conservation.
// ---------------------------------------------------------------------

/// The survived-count class of bug — an event tallied into the wrong
/// bucket, or twice — surfaces in the incremental path as a statistics
/// counter disagreeing with the reference's own tally. Both the exact
/// per-counter diff and the hits-never-exceed-accesses conservation
/// check run on every access, sweep or not.
#[test]
fn incremental_diff_catches_miscounted_statistics() {
    let cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    let (dl1, backend, mut model) = lockstep_incremental(
        cfg,
        &[(true, 0x040, 0), (false, 0x040, 10), (false, 0x1040, 20)],
    );
    let now = 20;
    // A hit the real side counted but the reference did not.
    let mut real = export_real_sets(&dl1, &backend, &[], now);
    real.counters.read_hits += 1;
    let err = model.check_touched(now, &real).unwrap_err();
    assert!(err.contains("read_hits"), "{err}");

    // The conservation shape: more hits than accesses.
    let mut real = export_real_sets(&dl1, &backend, &[], now);
    real.counters.read_hits = real.counters.read_accesses + 1;
    let err = model.check_touched(now, &real).unwrap_err();
    assert!(err.contains("read_accesses"), "{err}");
}

// ---------------------------------------------------------------------
// Bug 4: truncated JSON reports.
// ---------------------------------------------------------------------

/// `run_audit` now exercises the incremental checker internally; its
/// report must still be one complete JSON document, and every strict
/// prefix — a torn, non-atomic write — must be flagged.
#[test]
fn incremental_audit_report_json_rejects_torn_writes() {
    let spec = AuditSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 2_000, 5);
    let report = run_audit(&spec);
    assert!(report.total_accesses_checked() > 0);
    let json = report.to_json();
    assert!(icr_check::json_complete(&json));
    for cut in 1..json.len() {
        assert!(
            !icr_check::json_complete(&json[..cut]),
            "torn write of length {cut} accepted"
        );
    }
}

// ---------------------------------------------------------------------
// Bug 5: the t-table cliff past df 30.
// ---------------------------------------------------------------------

/// The SoA/incremental refactor must leave the fixed Student-t table
/// alone: every df in the 31–120 range stays above the normal 1.96
/// critical value the pre-fix table collapsed to.
#[test]
fn incremental_refactor_keeps_the_conservative_t_table() {
    for df in [31, 40, 60, 120] {
        assert!(
            icr_sim::stats::t_critical_95(df) > 1.96,
            "df {df} must stay above the normal critical value"
        );
    }
    assert_eq!(icr_sim::stats::t_critical_95(1000), 1.96);
}

// ---------------------------------------------------------------------
// Bug 6: stale spilled replicas in the L2 region.
// ---------------------------------------------------------------------

/// A dirty writeback must invalidate the block's spilled copy in the L2
/// replica region — the written-back data is newer than the copy.
/// Doctoring the export to keep the stale copy (the shape of a missed
/// invalidation) must trip the spill-ledger diff on the very next
/// incremental check; the clean run through the same schedule is the
/// positive control proving the dL1 and the model agree on every spill
/// transition.
#[test]
fn incremental_diff_catches_a_stale_spilled_replica_after_writeback() {
    let cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2);
    let g = cfg.geometry;
    let sets = g.num_sets() as u64;
    let ways = g.associativity() as u64;
    let block = |set: u64, tag: u64| (tag * sets + set) * g.block_bytes() as u64;
    let dist = cfg.placement.attempts[0] as u64;
    let home = 3u64;
    let candidate = (home + dist) % sets;
    // Pin every way of the candidate set with live primaries so the
    // store's replica has no dead host and spills into the L2 region.
    let mut schedule: Vec<(bool, u64, u64)> = (0..ways)
        .map(|t| (false, block(candidate, 10 + t), 0))
        .collect();
    schedule.push((true, block(home, 1), 1)); // no dL1 host → spills
                                              // Conflicting fills displace the dirty primary: writeback + drop.
    for (i, t) in (20..20 + ways).enumerate() {
        schedule.push((false, block(home, t), 2 + i as u64));
    }
    let (dl1, backend, mut model) = lockstep_incremental(cfg, &schedule);
    assert_eq!(dl1.stats().spills_created, 1, "the store must spill");
    assert_eq!(
        dl1.stats().spill_invalidations,
        1,
        "the writeback must drop the stale copy"
    );

    // Doctor the export back into the missed-invalidation shape.
    let now = 2 + ways;
    let mut real = export_real_sets(&dl1, &backend, &[], now);
    assert!(real.spill.is_empty());
    real.spill.push(block(home, 1));
    let err = model.check_touched(now, &real).unwrap_err();
    assert!(err.contains("spill region diverged"), "{err}");
}

// ---------------------------------------------------------------------
// The incremental/full division of labour.
// ---------------------------------------------------------------------

/// A divergence planted in a set the access did *not* touch slips past
/// `check_touched` by design — and the full-state sweep catches it.
/// This is the contract that makes the periodic sweep load-bearing
/// rather than redundant.
#[test]
fn full_sweep_catches_what_the_touched_diff_skips() {
    let cfg = DataL1Config::paper_default(Scheme::BASE_P);
    // Two lines in two different sets.
    let (dl1, backend, mut model) = lockstep_incremental(
        cfg,
        &[(false, 0x000, 0), (false, 0x040, 5), (false, 0x000, 10)],
    );
    let now = 10;
    // Doctor the line in set 1 — untouched by the final access to set 0.
    let mut full = export_real_state(&dl1, &backend, now);
    let line = full.sets[1]
        .lines
        .first_mut()
        .expect("the 0x040 line is resident in set 1");
    line.last_access += 1;

    // The incremental view of the final access only contains set 0, so
    // the doctored state is invisible to it.
    let real = export_real_sets(&dl1, &backend, &[0], now);
    model
        .check_touched(now, &real)
        .expect("the touched diff cannot see set 1");

    // The sweep diffs everything and fires.
    let err = model.check(now, &full).unwrap_err();
    assert!(err.contains("diverged"), "{err}");
}

/// The incremental checker (default sweep cadence) and the
/// pre-incremental behaviour (a full diff on every access, here a bare
/// `RefModel` running `check`) both run clean over the same simulation —
/// the optimisation changed the cost, not the verdict.
#[test]
fn incremental_and_full_cadence_agree_on_a_clean_run() {
    let cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    let hierarchy = HierarchyConfig::default();
    let mut backend = MemoryBackend::new(&hierarchy);
    let mut dl1 = DataL1::new(cfg.clone());
    let mut incremental = LockstepChecker::new(&cfg, &hierarchy, "synthetic");
    let mut full = RefModel::new(ref_config(&cfg, &hierarchy));
    let mut full_checked = 0u64;
    // A deterministic mix of hits, misses, and replica-triggering stores
    // across several sets.
    let mut addr = 0x40u64;
    for i in 0..600u64 {
        addr = addr
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let block = (addr >> 20) & 0x000f_ffc0;
        let now = i * 3;
        if i % 3 == 0 {
            dl1.store(Addr(block), now, &mut backend);
            incremental.after_store(block, now, &dl1, &backend);
            full.store(block, now);
        } else {
            dl1.load(Addr(block), now, &mut backend);
            incremental.after_load(block, now, &dl1, &backend);
            full.load(block, now);
        }
        full.check(now, &export_real_state(&dl1, &backend, now))
            .unwrap_or_else(|e| panic!("full diff diverged at cycle {now}: {e}"));
        full_checked += 1;
    }
    assert_eq!(incremental.accesses_checked(), 600);
    assert_eq!(full_checked, 600);
}
