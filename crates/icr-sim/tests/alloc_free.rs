//! Allocation guard for the memory side of a simulation.
//!
//! Every layer below the core — dL1, duplication cache, L2, L2 replica
//! region, iL1, main memory — keeps its state in arrays sized once at
//! construction and moves blocks as inline `Copy` values. A run's heap
//! allocations are therefore bounded: the caches allocate a fixed number
//! of arrays, and only a few hash maps (main memory's written blocks, the
//! spilled-block set) grow as the run goes on. This test counts
//! allocations with a counting global allocator and pins both bounds:
//!
//! * a 20k-instruction `run_sim` makes at most [`MAX_ALLOCS_PER_RUN`]
//!   allocations;
//! * a run eight times longer makes at most [`MAX_EXTRA_ALLOCS_160K`]
//!   more.
//!
//! The matrix is the ten paper presets plus the two `-L2` spill
//! descriptors on gzip and mcf, each with the oracle on and a one-shot
//! fault, plus the write-through and duplication-cache comparison points
//! on gzip. Counts are per thread, and `run_sim` runs on the calling
//! thread, so parallel tests in this binary cannot disturb them; the one
//! test also runs the whole matrix serially.

use icr_core::{DataL1Config, Scheme, WritePolicy};
use icr_fault::ErrorModel;
use icr_sim::{run_sim, FaultConfig, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation budget of one 20k-instruction run.
const MAX_ALLOCS_PER_RUN: u64 = 256;
/// Extra allocations a 160k-instruction run may make over the 20k run.
const MAX_EXTRA_ALLOCS_160K: u64 = 64;

const SHORT: u64 = 20_000;
const LONG: u64 = 160_000;
const SEED: u64 = 1;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while the thread-local is being
    // torn down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One guarded configuration: the dL1 under test on `app`, with the
/// oracle on and a one-shot random fault.
fn config(app: &str, mut dl1: DataL1Config, instructions: u64) -> SimConfig {
    dl1.oracle = true;
    SimConfig::builder(app, dl1)
        .instructions(instructions)
        .seed(SEED)
        .fault(FaultConfig::one_shot(
            ErrorModel::Random,
            8.0 / SHORT as f64,
            7,
        ))
        .build()
}

/// The guarded matrix, as `(label, app, dL1)`.
fn matrix() -> Vec<(String, &'static str, DataL1Config)> {
    let mut schemes = Scheme::all_paper_schemes();
    schemes.extend([Scheme::ICR_P_PS_S_L2, Scheme::ICR_ECC_PS_S_L2]);
    let mut cells = Vec::new();
    for app in ["gzip", "mcf"] {
        for &scheme in &schemes {
            cells.push((
                scheme.name().to_string(),
                app,
                DataL1Config::paper_default(scheme),
            ));
        }
    }
    let mut write_through = DataL1Config::paper_default(Scheme::BASE_P);
    write_through.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
    cells.push(("BaseP write-through".into(), "gzip", write_through));
    let mut dup_cache = DataL1Config::paper_default(Scheme::BASE_P);
    dup_cache.duplication_cache = Some(64);
    cells.push(("BaseP + 64-block dup cache".into(), "gzip", dup_cache));
    cells
}

#[test]
fn runs_make_a_bounded_length_independent_number_of_allocations() {
    // Preload every trace and run once, so lazily built process state
    // (trace store entries, the ISA kernel table) is not charged to the
    // measured runs.
    for app in ["gzip", "mcf"] {
        for insts in [SHORT, LONG] {
            icr_trace::store::global().get(app, SEED, insts);
        }
    }
    run_sim(&config(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        SHORT,
    ));

    let mut report = String::new();
    let mut failed = false;
    for (label, app, dl1) in matrix() {
        let short = allocations_of(|| {
            run_sim(&config(app, dl1.clone(), SHORT));
        });
        let long = allocations_of(|| {
            run_sim(&config(app, dl1.clone(), LONG));
        });
        let extra = long.saturating_sub(short);
        let ok = short <= MAX_ALLOCS_PER_RUN && extra <= MAX_EXTRA_ALLOCS_160K;
        failed |= !ok;
        report.push_str(&format!(
            "{:<6} {label:<28} 20k: {short:>6}  160k: {long:>6}  (+{extra}){}\n",
            app,
            if ok { "" } else { "  <-- over budget" }
        ));
    }
    assert!(
        !failed,
        "allocation budget exceeded (at most {MAX_ALLOCS_PER_RUN} per 20k run, \
         at most {MAX_EXTRA_ALLOCS_160K} more at 160k):\n{report}"
    );
    println!("{report}");
}
