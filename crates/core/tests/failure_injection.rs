//! Failure-injection tests: corrupted metadata, malformed encodings and
//! hostile inputs must be rejected loudly (panics with clear messages),
//! never silently mis-decoded. A deployment consuming BBS-compressed
//! models depends on these contracts.

use bbs_core::encoding::{BbsMetadata, CompressedGroup, ConstantKind};
use bbs_core::prune::{BinaryPruner, PruneStrategy};
use bbs_core::shifting::zero_point_shifting;
use bbs_tensor::rng::SeededRng;

fn valid_group() -> (Vec<i8>, CompressedGroup) {
    let mut rng = SeededRng::new(401);
    let w: Vec<i8> = (0..32).map(|_| rng.gaussian_i8(0.0, 25.0)).collect();
    let enc = zero_point_shifting(&w, 4);
    (w, enc)
}

#[test]
fn corrupted_constant_changes_every_reconstruction_uniformly() {
    // A bit flip in the constant field shifts all weights in the group by
    // the same amount — detectable by any checksum over reconstructions.
    let (_, enc) = valid_group();
    let clean = enc.decode();
    let meta = enc.metadata();
    let corrupted_meta = BbsMetadata {
        num_redundant: meta.num_redundant,
        constant: meta.constant ^ 0x1,
    };
    let kept: Vec<u64> = (0..enc.kept_column_count())
        .map(|j| enc.kept_column(j))
        .collect();
    let corrupted = CompressedGroup::from_parts(
        enc.len(),
        &kept,
        corrupted_meta,
        ConstantKind::ZeroPointShift,
    );
    let dirty = corrupted.decode();
    for (c, d) in clean.iter().zip(&dirty) {
        assert_eq!((c - d).abs(), 1, "constant corruption is a uniform shift");
    }
}

#[test]
#[should_panic(expected = "redundant count")]
fn oversized_redundant_field_rejected() {
    let _ = CompressedGroup::from_parts(
        4,
        &[0; 4],
        BbsMetadata {
            num_redundant: 4, // beyond the 2-bit field
            constant: 0,
        },
        ConstantKind::ZeroPointShift,
    );
}

#[test]
#[should_panic(expected = "too many columns")]
fn too_many_columns_rejected() {
    let _ = CompressedGroup::from_parts(
        4,
        &[0; 8],
        BbsMetadata {
            num_redundant: 3,
            constant: 0,
        },
        ConstantKind::ZeroPointShift,
    );
}

#[test]
#[should_panic(expected = "averaging constant")]
fn averaging_constant_overflow_rejected() {
    // 2 pruned low columns can encode constants 0..=3 only.
    let _ = CompressedGroup::from_parts(
        4,
        &[0; 6],
        BbsMetadata {
            num_redundant: 0,
            constant: 9,
        },
        ConstantKind::LowBitsAverage,
    );
}

#[test]
#[should_panic(expected = "group size")]
fn oversized_group_rejected() {
    let w = vec![1i8; 65];
    let _ = CompressedGroup::lossless(&w);
}

#[test]
#[should_panic]
fn empty_group_rejected() {
    let _ = CompressedGroup::lossless(&[]);
}

#[test]
#[should_panic(expected = "at least one column")]
fn pruner_rejects_total_elimination() {
    let _ = BinaryPruner::new(PruneStrategy::ZeroPointShifting, 8);
}

#[test]
fn metadata_wire_corruption_is_bounded() {
    // Any single-bit corruption of the packed metadata keeps the decoded
    // weights within the valid numeric envelope (no UB, no panic).
    let (_, enc) = valid_group();
    let packed = enc.metadata().pack();
    for bit in 0..8 {
        let raw = packed ^ (1 << bit);
        let meta = BbsMetadata::unpack(raw, ConstantKind::ZeroPointShift);
        if meta.num_redundant as usize + enc.kept_column_count() > 8 {
            continue; // structurally invalid, would be rejected upstream
        }
        let kept: Vec<u64> = (0..enc.kept_column_count())
            .map(|j| enc.kept_column(j))
            .collect();
        let g = CompressedGroup::from_parts(enc.len(), &kept, meta, ConstantKind::ZeroPointShift);
        for v in g.decode() {
            assert!((-256..=255).contains(&v), "bit {bit}: runaway value {v}");
        }
    }
}

#[test]
fn decode_is_total_for_all_search_outputs() {
    // Every group the optimizer can emit must decode without panicking,
    // including rail-heavy and constant-valued groups.
    let hostile: Vec<Vec<i8>> = vec![
        vec![0; 32],
        vec![127; 32],
        vec![-128; 32],
        [-128, 127].repeat(16),
        (0..32).map(|i| if i % 2 == 0 { -128 } else { 0 }).collect(),
    ];
    for w in hostile {
        for target in 0..=6 {
            let enc = zero_point_shifting(&w, target);
            assert_eq!(enc.decode().len(), 32);
            let enc = bbs_core::averaging::rounded_averaging(&w, target);
            assert_eq!(enc.decode().len(), 32);
        }
    }
}
