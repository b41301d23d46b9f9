//! Property tests for the shared workload store: the `Arc` identity
//! contract (`store.rs` module docs) must hold for arbitrary keys, not
//! just the hand-picked ones in the unit tests.

use icr_trace::apps::APP_NAMES;
use icr_trace::{apps, Inst, TraceGenerator, WorkloadStore};
use proptest::prelude::*;
use proptest::sample::select;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Equal keys return the same allocation, and it holds exactly the
    /// trace direct generation would produce.
    #[test]
    fn equal_keys_are_pointer_equal(
        app in select(APP_NAMES.to_vec()),
        seed in 0u64..1_000,
        instructions in 1u64..2_000,
    ) {
        let store = WorkloadStore::new();
        let a = store.get(app, seed, instructions);
        let b = store.get(app, seed, instructions);
        prop_assert!(Arc::ptr_eq(&a, &b));
        prop_assert_eq!(a.len() as u64, instructions);
        let direct: Vec<Inst> = TraceGenerator::new(apps::try_profile(app).unwrap(), seed)
            .take(instructions as usize)
            .collect();
        prop_assert_eq!(&a[..], &direct[..]);
        prop_assert_eq!(store.misses(), 1);
        prop_assert_eq!(store.hits(), 1);
    }

    /// Any single-component perturbation of the key yields a distinct
    /// allocation — the store never conflates neighbouring keys.
    #[test]
    fn distinct_keys_are_distinct_allocations(
        apps in (select(APP_NAMES.to_vec()), select(APP_NAMES.to_vec())),
        seed in 0u64..1_000,
        instructions in 2u64..2_000,
    ) {
        let store = WorkloadStore::new();
        let base = store.get(apps.0, seed, instructions);
        let mut variants = vec![
            store.get(apps.0, seed + 1, instructions),
            store.get(apps.0, seed, instructions - 1),
        ];
        if apps.0 != apps.1 {
            variants.push(store.get(apps.1, seed, instructions));
        }
        for other in &variants {
            prop_assert!(!Arc::ptr_eq(&base, other));
        }
        prop_assert_eq!(store.len(), 1 + variants.len());
    }
}
