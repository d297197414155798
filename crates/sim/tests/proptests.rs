//! Property tests for the simulator: the functional BitVert datapath is
//! exact for every encodable group, the scheduling machinery respects its
//! invariants, the flat-profile scheduler is bit-identical to the retained
//! nested reference, and store-cached lowering is bit-identical to fresh
//! lowering.

use bbs_core::averaging::rounded_averaging;
use bbs_core::shifting::zero_point_shifting;
use bbs_models::zoo;
use bbs_sim::accel::{wave_schedule_with, LatencyProfile, SyncGranularity};
use bbs_sim::bitvert_func::pe::group_dot;
use bbs_sim::bitvert_func::scheduler::subgroup_partial_sum;
use bbs_sim::store::WorkloadStore;
use bbs_sim::workload::lower_model;
use proptest::collection::vec;
use proptest::prelude::*;
use reference::{wave_schedule_nested, NestedProfile};
mod reference;

proptest! {
    #[test]
    fn functional_pe_exact_for_any_group_and_target(
        w in vec(any::<i8>(), 32..=32),
        a in vec(-128i32..=127, 32..=32),
        target in 0usize..=6,
        use_shifting in any::<bool>(),
    ) {
        let enc = if use_shifting {
            zero_point_shifting(&w, target)
        } else {
            rounded_averaging(&w, target)
        };
        let decoded = enc.decode();
        let expect: i64 = decoded.iter().zip(&a).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(group_dot(&enc, &a), expect);
    }

    #[test]
    fn scheduler_partial_sum_exact(bits in any::<u8>(), a in vec(-128i32..=127, 8..=8)) {
        let reference: i64 = (0..8)
            .filter(|&i| (bits >> i) & 1 == 1)
            .map(|i| a[i] as i64)
            .sum();
        prop_assert_eq!(subgroup_partial_sum(bits, &a), reference);
    }

    #[test]
    fn wave_schedule_invariants(
        lat in vec(vec(1u32..=8, 4..=4), 2..=16),
        cols in 1usize..=8,
    ) {
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).collect())
            .collect();
        let profile = LatencyProfile::from_nested(lat.clone(), useful);
        let tile = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerTile);
        let group = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerGroup);

        // Lock-step can never be faster than buffered per-tile sync.
        prop_assert!(group.cycles >= tile.cycles);

        // Cycles are bounded below by the slowest single channel and above
        // by the serial sum of all channels.
        let col_sums: Vec<u64> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).sum())
            .collect();
        let slowest = *col_sums.iter().max().unwrap();
        let serial: u64 = col_sums.iter().sum();
        prop_assert!(tile.cycles >= slowest);
        prop_assert!(tile.cycles <= serial);

        // Stall fractions always partition the lane-time.
        for s in [tile, group] {
            let sum = s.useful_fraction + s.intra_fraction + s.inter_fraction;
            prop_assert!((sum - 1.0).abs() < 1e-6, "partition {}", sum);
            prop_assert!(s.useful_fraction >= 0.0);
            prop_assert!(s.intra_fraction >= -1e-12);
            prop_assert!(s.inter_fraction >= -1e-12);
        }

        // One column per tile: no inter-PE stall possible.
        let solo = wave_schedule_with(&profile, 1, 8, SyncGranularity::PerTile);
        prop_assert!(solo.inter_fraction.abs() < 1e-9);
    }

    #[test]
    fn narrower_arrays_never_reduce_tile_cycles(
        lat in vec(vec(1u32..=8, 2..=2), 4..=12),
    ) {
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64).collect())
            .collect();
        let profile = LatencyProfile::from_nested(lat, useful);
        let narrow = wave_schedule_with(&profile, 2, 8, SyncGranularity::PerTile);
        let wide = wave_schedule_with(&profile, 8, 8, SyncGranularity::PerTile);
        // Fewer columns -> more serialization -> at least as many cycles.
        prop_assert!(narrow.cycles >= wide.cycles);
    }

    /// The flat scheduler is bit-identical to the retained nested
    /// reference: same cycles (`u64` equality) and the same fractions
    /// (`f64` bit equality — the arithmetic order is preserved), at both
    /// sync granularities, including partial tiles (channel counts not
    /// divisible by `cols`) and zero-latency groups.
    #[test]
    fn flat_schedule_matches_nested_reference(
        lat in vec(vec(0u32..=9, 1..=6), 1..=17),
        useful_scale in 1u64..=16,
        cols in 1usize..=8,
        lanes in 1usize..=16,
    ) {
        let groups = lat[0].len();
        let lat: Vec<Vec<u32>> = lat
            .into_iter()
            .map(|mut ch| { ch.resize(groups, 1); ch })
            .collect();
        let useful: Vec<Vec<u64>> = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| l as u64 * useful_scale).collect())
            .collect();
        let nested = NestedProfile { latencies: lat.clone(), useful: useful.clone() };
        let flat = LatencyProfile::from_nested(lat, useful);
        for sync in [SyncGranularity::PerTile, SyncGranularity::PerGroup] {
            let expect = wave_schedule_nested(&nested, cols, lanes, sync);
            let got = wave_schedule_with(&flat, cols, lanes, sync);
            prop_assert_eq!(got.cycles, expect.cycles);
            prop_assert_eq!(got.useful_fraction.to_bits(), expect.useful_fraction.to_bits());
            prop_assert_eq!(got.intra_fraction.to_bits(), expect.intra_fraction.to_bits());
            prop_assert_eq!(got.inter_fraction.to_bits(), expect.inter_fraction.to_bits());
        }
    }

    /// Store-cached lowering is bit-identical to fresh `lower_model`
    /// across models, seeds and caps — and the store actually caches
    /// (one miss, then hits sharing the same allocation).
    #[test]
    fn store_cached_lowering_is_bit_identical(
        model_idx in 0usize..4,
        seed in 0u64..64,
        cap_idx in 0usize..4,
    ) {
        let cap = [64usize, 128, 300, 512][cap_idx];
        let model = match model_idx {
            0 => zoo::vit_small(),
            1 => zoo::resnet34(),
            2 => zoo::bert_sst2(),
            _ => zoo::vgg16(),
        };
        let store = WorkloadStore::default();
        let fresh = lower_model(&model, seed, cap);
        let cached = store.get_or_lower(&model, seed, cap);
        prop_assert_eq!(&cached[..], &fresh[..]);
        let again = store.get_or_lower(&model, seed, cap);
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &again));
        prop_assert_eq!((store.misses(), store.hits()), (1, 1));
    }
}

/// Ragged nested input still panics with the historical message (now at
/// profile construction rather than inside the scheduler).
#[test]
#[should_panic(expected = "group counts differ across channels")]
fn ragged_nested_profile_panics() {
    let _ = LatencyProfile::from_nested(
        vec![vec![1, 2, 3], vec![1, 2]],
        vec![vec![1, 2, 3], vec![1, 2]],
    );
}

/// The reference scheduler keeps its own panic for ragged profiles.
#[test]
#[should_panic(expected = "group counts differ across channels")]
fn ragged_nested_reference_panics() {
    let p = NestedProfile {
        latencies: vec![vec![1, 2], vec![1]],
        useful: vec![vec![1, 2], vec![1]],
    };
    let _ = wave_schedule_nested(&p, 2, 8, SyncGranularity::PerTile);
}

/// Empty profiles are rejected by both implementations.
#[test]
#[should_panic(expected = "is_empty")]
fn empty_flat_profile_panics() {
    let p = LatencyProfile::from_nested(Vec::new(), Vec::new());
    let _ = wave_schedule_with(&p, 2, 8, SyncGranularity::PerTile);
}
