//! A process-wide, content-keyed store of materialised workload traces.
//!
//! Every simulation used to expand its `(app, seed, instructions)` trace
//! from the generator on the spot — once per scheme, per figure, per
//! campaign trial and per worker thread, even though the expansion is a
//! pure function of the key. The [`WorkloadStore`] materialises each
//! distinct trace exactly once behind an `Arc<[Inst]>` and hands the same
//! allocation to every caller, across threads:
//!
//! * equal keys return pointer-equal traces (`Arc::ptr_eq`);
//! * distinct keys return distinct traces;
//! * concurrent first requests for one key generate it once — late
//!   arrivals block on the winner instead of duplicating the work.
//!
//! ```
//! use icr_trace::store;
//!
//! let a = store::global().get("gzip", 42, 1_000);
//! let b = store::global().get("gzip", 42, 1_000);
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(a.len(), 1_000);
//! ```

use crate::apps;
use crate::generator::TraceGenerator;
use crate::inst::Inst;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An alternative trace producer consulted on a store miss before the
/// synthetic [`TraceGenerator`] fallback — the seam through which the
/// `icr-isa` interpreter feeds `isa:<kernel>` app names into the same
/// store (and the same downstream machinery) as the synthetic eight,
/// without `icr-trace` depending on the interpreter crate.
pub trait WorkloadSource: Send + Sync {
    /// `true` when this source owns `app`.
    fn matches(&self, app: &str) -> bool;

    /// Produces the trace for `(app, seed)`, at most `instructions`
    /// long. Execution-driven sources may return fewer instructions than
    /// requested when the program retires to completion first.
    fn materialise(&self, app: &str, seed: u64, instructions: u64) -> Arc<[Inst]>;
}

/// A shared once-initialised slot for one trace: cloned out of the map so
/// materialisation runs without holding the map lock.
type TraceSlot = Arc<OnceLock<Arc<[Inst]>>>;

/// Trace slots by app name, then by `(seed, instructions)`. Two keys
/// name the same trace exactly when they are equal, because generation
/// is a pure function of `(app profile, seed)` truncated to
/// `instructions`. A lookup borrows the app name as a `str`, so a hit
/// allocates nothing.
type TraceMap = HashMap<String, HashMap<(u64, u64), TraceSlot>>;

/// Thread-safe store of materialised traces; see the module docs.
///
/// The store is unbounded: every distinct key stays resident for the
/// lifetime of the store. At the repo's experiment scale this is tens of
/// traces (a few hundred MB at the default 200k-instruction budget),
/// traded deliberately for never generating a trace twice.
#[derive(Default)]
pub struct WorkloadStore {
    traces: Mutex<TraceMap>,
    sources: Mutex<Vec<Arc<dyn WorkloadSource>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for WorkloadStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadStore")
            .field("traces", &self.len())
            .field("sources", &self.sources.lock().expect("not poisoned").len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl WorkloadStore {
    /// An empty store.
    pub fn new() -> Self {
        WorkloadStore::default()
    }

    /// Registers a [`WorkloadSource`]; on a miss, sources are consulted
    /// in registration order before the synthetic-generator fallback.
    /// Registering the same source twice is harmless but wasteful —
    /// guard process-wide installation with a `std::sync::Once`.
    pub fn register_source(&self, source: Arc<dyn WorkloadSource>) {
        self.sources.lock().expect("not poisoned").push(source);
    }

    /// The trace for `(app, seed, instructions)`, materialising it on
    /// first request and returning the shared allocation afterwards.
    /// Hits borrow the key — no allocation on the fast path.
    ///
    /// # Panics
    ///
    /// Panics on an application name that no registered source claims
    /// and [`apps::try_profile`] does not know.
    pub fn get(&self, app: &str, seed: u64, instructions: u64) -> Arc<[Inst]> {
        let slot = {
            let mut traces = self.traces.lock().expect("not poisoned");
            if let Some(slot) = traces.get(app).and_then(|t| t.get(&(seed, instructions))) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.clone()
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let slot: TraceSlot = Arc::new(OnceLock::new());
                traces
                    .entry(app.to_owned())
                    .or_default()
                    .insert((seed, instructions), slot.clone());
                slot
            }
        };
        // Materialise outside the map lock so one slow expansion cannot
        // serialise unrelated keys; concurrent requests for *this* key
        // block here until the winner finishes.
        slot.get_or_init(|| self.materialise(app, seed, instructions))
            .clone()
    }

    fn materialise(&self, app: &str, seed: u64, instructions: u64) -> Arc<[Inst]> {
        let source = {
            let sources = self.sources.lock().expect("not poisoned");
            sources.iter().find(|s| s.matches(app)).cloned()
        };
        match source {
            Some(source) => source.materialise(app, seed, instructions),
            None => {
                let profile = apps::try_profile(app).unwrap_or_else(|e| panic!("{e}"));
                TraceGenerator::new(profile, seed)
                    .take(instructions as usize)
                    .collect()
            }
        }
    }

    /// `true` when [`get`](Self::get) can materialise `app`: a
    /// registered source claims it, or a synthetic profile exists. The
    /// CLIs validate `--app` arguments through this instead of a
    /// hard-coded name list, so the check can never drift from what the
    /// store actually serves.
    pub fn resolvable(&self, app: &str) -> bool {
        let claimed = {
            let sources = self.sources.lock().expect("not poisoned");
            sources.iter().any(|s| s.matches(app))
        };
        claimed || apps::try_profile(app).is_ok()
    }

    /// Fallible [`get`](Self::get): a typed [`apps::UnknownAppError`]
    /// instead of a panic when no registered source claims `app` and no
    /// synthetic profile exists. Traces already resident under the key
    /// (e.g. preloaded via [`insert`](Self::insert)) are returned
    /// regardless of resolvability.
    pub fn try_get(
        &self,
        app: &str,
        seed: u64,
        instructions: u64,
    ) -> Result<Arc<[Inst]>, apps::UnknownAppError> {
        {
            let traces = self.traces.lock().expect("not poisoned");
            let slot = traces.get(app).and_then(|t| t.get(&(seed, instructions)));
            if let Some(trace) = slot.and_then(|s| s.get()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(trace.clone());
            }
        }
        if !self.resolvable(app) {
            return Err(apps::UnknownAppError {
                name: app.to_owned(),
            });
        }
        Ok(self.get(app, seed, instructions))
    }

    /// Preloads a trace under `(app, seed, instructions)` — the seam
    /// `icr-run --trace-in` uses to replay a stored file instead of
    /// regenerating. Returns `false` without touching the store when a
    /// trace is already resident under that key (replay never silently
    /// replaces live data).
    pub fn insert(&self, app: &str, seed: u64, instructions: u64, trace: Arc<[Inst]>) -> bool {
        let mut traces = self.traces.lock().expect("not poisoned");
        if let Some(slot) = traces.get(app).and_then(|t| t.get(&(seed, instructions))) {
            // Key known: fill the slot only if no one materialised yet.
            return slot.set(trace).is_ok();
        }
        traces
            .entry(app.to_owned())
            .or_default()
            .insert((seed, instructions), Arc::new(OnceLock::from(trace)));
        true
    }

    /// Lookups that found an already-requested key.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to materialise a new trace.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct traces resident.
    pub fn len(&self) -> usize {
        let traces = self.traces.lock().expect("not poisoned");
        traces.values().map(HashMap::len).sum()
    }

    /// `true` when no trace has been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes held by resident traces (instruction payload only).
    pub fn resident_bytes(&self) -> usize {
        self.traces
            .lock()
            .expect("not poisoned")
            .values()
            .flat_map(HashMap::values)
            .filter_map(|slot| slot.get())
            .map(|t| t.len() * std::mem::size_of::<Inst>())
            .sum()
    }
}

/// The process-wide store every simulation shares.
pub fn global() -> &'static WorkloadStore {
    static STORE: OnceLock<WorkloadStore> = OnceLock::new();
    STORE.get_or_init(WorkloadStore::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_share_one_allocation() {
        let store = WorkloadStore::new();
        let a = store.get("gzip", 1, 500);
        let b = store.get("gzip", 1, 500);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_traces() {
        let store = WorkloadStore::new();
        let base = store.get("gzip", 1, 500);
        for (app, seed, n) in [("gzip", 2, 500), ("vpr", 1, 500), ("gzip", 1, 400)] {
            let other = store.get(app, seed, n);
            assert!(!Arc::ptr_eq(&base, &other), "{app}/{seed}/{n}");
        }
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn store_matches_direct_generation() {
        let store = WorkloadStore::new();
        let stored = store.get("mcf", 7, 2_000);
        let direct: Vec<Inst> = TraceGenerator::new(apps::try_profile("mcf").unwrap(), 7)
            .take(2_000)
            .collect();
        assert_eq!(&stored[..], &direct[..]);
    }

    #[test]
    fn concurrent_first_requests_materialise_once() {
        let store = WorkloadStore::new();
        let traces: Vec<Arc<[Inst]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.get("parser", 3, 1_000)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits() + store.misses(), 8);
    }

    #[test]
    fn resident_bytes_counts_payload() {
        let store = WorkloadStore::new();
        store.get("art", 1, 100);
        assert_eq!(store.resident_bytes(), 100 * std::mem::size_of::<Inst>());
    }

    #[test]
    fn insert_preloads_and_refuses_overwrite() {
        let store = WorkloadStore::new();
        let canned: Arc<[Inst]> = store.get("gzip", 1, 50);

        // Fresh key: preload wins, and get() returns the preloaded trace.
        assert!(store.insert("vpr", 9, 50, canned.clone()));
        let got = store.get("vpr", 9, 50);
        assert!(Arc::ptr_eq(&got, &canned));

        // Resident key: refused, resident data untouched.
        assert!(!store.insert("gzip", 1, 50, store.get("mcf", 1, 50)));
        assert!(Arc::ptr_eq(&store.get("gzip", 1, 50), &canned));
    }

    struct Canned;

    impl WorkloadSource for Canned {
        fn matches(&self, app: &str) -> bool {
            app.starts_with("canned:")
        }
        fn materialise(&self, _app: &str, seed: u64, instructions: u64) -> Arc<[Inst]> {
            // A recognisably non-synthetic trace: `seed` ALU ops capped
            // at the request.
            (0..instructions.min(seed))
                .map(|i| {
                    Inst::alu(
                        0x40_0000 + 4 * i,
                        crate::inst::OpClass::IntAlu,
                        crate::inst::Reg(1),
                        [None, None],
                    )
                })
                .collect()
        }
    }

    #[test]
    fn sources_intercept_their_apps_and_may_run_short() {
        let store = WorkloadStore::new();
        store.register_source(Arc::new(Canned));
        let t = store.get("canned:x", 3, 100);
        assert_eq!(t.len(), 3, "execution-driven traces may end early");
        // Non-matching apps still fall through to the generator.
        assert_eq!(store.get("gzip", 1, 50).len(), 50);
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn unclaimed_app_still_panics() {
        WorkloadStore::new().get("isa:no-source-registered", 1, 10);
    }

    #[test]
    fn try_get_reports_unknown_apps_without_aborting() {
        // Regression: an unknown app used to be reachable only through
        // the panicking get(), turning a bad --app into an abort (exit
        // 101) instead of a routable error.
        let store = WorkloadStore::new();
        let err = store.try_get("doom", 1, 10).unwrap_err();
        assert_eq!(err.name, "doom");
        assert!(err.to_string().contains("unknown application"));
        assert!(!store.resolvable("doom"));

        // Resolvable names behave exactly like get().
        assert!(store.resolvable("gzip"));
        let a = store.try_get("gzip", 1, 50).expect("profiled app");
        let b = store.get("gzip", 1, 50);
        assert!(Arc::ptr_eq(&a, &b));

        // A registered source makes its names resolvable...
        store.register_source(Arc::new(Canned));
        assert!(store.resolvable("canned:x"));
        assert_eq!(store.try_get("canned:x", 3, 100).unwrap().len(), 3);
        // ...and unclaimed isa:* names stay typed errors, not panics.
        let isa = store
            .try_get("isa:no-source-registered", 1, 10)
            .unwrap_err();
        assert!(isa.is_execution_driven());
    }

    #[test]
    fn try_get_serves_preloaded_traces_even_when_unresolvable() {
        let store = WorkloadStore::new();
        let canned: Arc<[Inst]> = store.get("gzip", 1, 50);
        assert!(store.insert("replayed:only", 9, 50, canned.clone()));
        let got = store
            .try_get("replayed:only", 9, 50)
            .expect("resident trace must be served");
        assert!(Arc::ptr_eq(&got, &canned));
    }
}
