//! Property tests for the stable config/job hash: the hash must be
//! invariant under field *reordering* and sensitive to any field *value*
//! change — the two guarantees artifact caching and job identity rest on.

use dmt_core::SystemConfig;
use dmt_runner::{config_hash, StableHasher};
use proptest::prelude::*;

/// Hash `values` as fields `f0..fN`, visiting them in the order given by
/// `order` (a permutation of `0..N`).
fn hash_in_order(values: &[u64], order: &[usize]) -> u64 {
    let names: Vec<String> = (0..values.len()).map(|i| format!("f{i}")).collect();
    let mut h = StableHasher::new();
    for &i in order {
        h.field_u64(&names[i], values[i]);
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the same (name, value) set in any order yields one hash.
    #[test]
    fn hash_is_invariant_under_field_reordering(
        values in proptest::collection::vec(0u64..1_000_000, 12),
        rot in 1usize..12,
        swap_a in 0usize..12,
        swap_b in 0usize..12,
    ) {
        let n = values.len();
        let natural: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let rotated: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        let mut swapped = natural.clone();
        swapped.swap(swap_a, swap_b);

        let base = hash_in_order(&values, &natural);
        prop_assert_eq!(base, hash_in_order(&values, &reversed));
        prop_assert_eq!(base, hash_in_order(&values, &rotated));
        prop_assert_eq!(base, hash_in_order(&values, &swapped));
    }

    /// Changing any single field value changes the hash.
    #[test]
    fn hash_changes_when_any_field_changes(
        values in proptest::collection::vec(0u64..1_000_000, 12),
        idx in 0usize..12,
        delta in 1u64..1_000_000,
    ) {
        let order: Vec<usize> = (0..values.len()).collect();
        let base = hash_in_order(&values, &order);
        let mut mutated = values.clone();
        mutated[idx] = mutated[idx].wrapping_add(delta);
        prop_assert_ne!(base, hash_in_order(&mutated, &order));
    }

    /// The full SystemConfig hash is sensitive to representative knobs of
    /// every sub-struct (the leaf list behind the visitor guarantees
    /// coverage of the rest at compile time).
    #[test]
    fn config_hash_tracks_real_config_knobs(
        tb in 1u32..512,
        inflight in 1u32..8192,
        l1_ways in 1u32..32,
        ghz_milli in 100u64..5000,
    ) {
        let base = SystemConfig::default();
        let base_hash = config_hash(&base);

        let mut c = base;
        c.fabric.token_buffer_entries = tb;
        prop_assert_eq!(config_hash(&c) == base_hash, tb == base.fabric.token_buffer_entries);

        let mut c = base;
        c.fabric.inflight_threads = inflight;
        prop_assert_eq!(config_hash(&c) == base_hash, inflight == base.fabric.inflight_threads);

        let mut c = base;
        c.mem.l1.ways = l1_ways;
        prop_assert_eq!(config_hash(&c) == base_hash, l1_ways == base.mem.l1.ways);

        let mut c = base;
        c.clocks.core_ghz = ghz_milli as f64 / 1000.0;
        prop_assert_eq!(
            config_hash(&c) == base_hash,
            c.clocks.core_ghz == base.clocks.core_ghz
        );
    }
}
