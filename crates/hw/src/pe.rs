//! Processing-element composition models (paper Tables IV, V and VI).
//!
//! Every PE is normalized to **8 bit-serial multipliers** (one 8-bit
//! multiplier equivalent), the paper's comparison basis. The `multiplier`
//! section contains the bit-serial lanes and their reduction tree; the
//! `other` section holds everything a design adds around them — exactly the
//! split of Table V.

use crate::components::{
    adder, adder_tree, barrel_shifter, bit_serial_lane, control, multiplier, mux, mux_tg,
    priority_encoder, register, subtractor, twos_complementer, Block,
};
use crate::gates::Technology;
use std::fmt;

/// Number of bit-serial multipliers per PE (the normalization unit).
pub const LANES: usize = 8;

/// A composed PE: multiplier section + everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct PeModel {
    /// Design name as it appears in the paper's tables.
    pub name: &'static str,
    /// The bit-serial multiplier section (lanes + reduction tree).
    pub multiplier_blocks: Vec<Block>,
    /// Shifters, muxes, schedulers, accumulators, metadata handling.
    pub other_blocks: Vec<Block>,
}

impl PeModel {
    fn ge_of(blocks: &[Block]) -> f64 {
        blocks.iter().map(|b| b.ge).sum()
    }

    /// GE count of the multiplier section.
    fn multiplier_ge(&self) -> f64 {
        Self::ge_of(&self.multiplier_blocks)
    }

    /// GE count of the non-multiplier section.
    fn other_ge(&self) -> f64 {
        Self::ge_of(&self.other_blocks)
    }

    /// Total GE count.
    fn total_ge(&self) -> f64 {
        self.multiplier_ge() + self.other_ge()
    }

    /// Multiplier-section area in µm².
    pub fn multiplier_area_um2(&self, tech: &Technology) -> f64 {
        tech.area_um2(self.multiplier_ge())
    }

    /// Non-multiplier area in µm².
    pub fn other_area_um2(&self, tech: &Technology) -> f64 {
        tech.area_um2(self.other_ge())
    }

    /// Total PE area in µm² (Table V's "Total" column).
    pub fn area_um2(&self, tech: &Technology) -> f64 {
        tech.area_um2(self.total_ge())
    }

    /// PE power in mW at the technology's frequency.
    pub fn power_mw(&self, tech: &Technology) -> f64 {
        self.multiplier_blocks
            .iter()
            .chain(&self.other_blocks)
            .map(|b| tech.power_mw(b.ge, b.activity))
            .sum()
    }
}

impl fmt::Display for PeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tech = Technology::tsmc28();
        write!(
            f,
            "{}: {:.1} um2 ({:.1} mult + {:.1} other), {:.2} mW",
            self.name,
            self.area_um2(&tech),
            self.multiplier_area_um2(&tech),
            self.other_area_um2(&tech),
            self.power_mw(&tech)
        )
    }
}

/// Shared accumulator stage: 24-bit adder + 24-bit register.
fn accumulator() -> Vec<Block> {
    vec![adder(24), register(24)]
}

/// Stripes \[19\]: dense bit-serial. 8 lanes gate an 8-bit activation with one
/// weight bit each; an 8:1 adder tree reduces them; a shift-accumulate
/// produces the output over 8 cycles.
pub fn stripes_pe() -> PeModel {
    PeModel {
        name: "Stripes",
        multiplier_blocks: vec![bit_serial_lane(8).times(LANES), adder_tree(LANES, 8)],
        other_blocks: [accumulator(), vec![register(8), control(100.0)]].concat(),
    }
}

/// Pragmatic \[1\]: per-lane essential-bit serialization. Every lane carries a
/// variable shifter to re-align bit significance, plus offset encoders.
pub fn pragmatic_pe() -> PeModel {
    PeModel {
        name: "Pragmatic",
        multiplier_blocks: vec![bit_serial_lane(8).times(LANES), adder_tree(LANES, 8)],
        other_blocks: [
            vec![
                barrel_shifter(12, 8).times(LANES),
                priority_encoder(16).times(2),
                register(4).times(LANES), // per-lane offset registers
            ],
            accumulator(),
            vec![register(8), control(120.0)],
        ]
        .concat(),
    }
}

/// Bitlet \[26\]: sparsity-parallel lanes by significance. Every lane absorbs
/// an essential bit from an arbitrary weight of the digested group, needing
/// a 64:1 activation mux per lane plus index registers and the distillation
/// scheduler.
pub fn bitlet_pe() -> PeModel {
    PeModel {
        name: "Bitlet",
        multiplier_blocks: vec![bit_serial_lane(8).times(LANES), adder_tree(LANES, 8)],
        other_blocks: [
            vec![
                mux_tg(64, 8).times(LANES),
                register(6).times(LANES), // per-lane source indices
                control(150.0),           // distillation scheduler
            ],
            accumulator(),
            vec![register(8)],
        ]
        .concat(),
    }
}

/// BitWave \[39\]: bit-column-serial over sign-magnitude weights. Each lane
/// needs a two's complementer to fold the sign back into the partial sum,
/// plus column-mask control.
pub fn bitwave_pe() -> PeModel {
    PeModel {
        name: "BitWave",
        multiplier_blocks: vec![bit_serial_lane(8).times(LANES), adder_tree(LANES, 8)],
        other_blocks: [
            vec![twos_complementer(8).times(LANES), control(60.0)],
            accumulator(),
            vec![register(8)],
        ]
        .concat(),
    }
}

/// BitVert (this paper, Fig. 7): 16 weights per PE processed bit-column-
/// serially with BBS inversion; `sub_group` activations share one
/// select/reduce/subtract pipeline.
///
/// `optimized = true` applies the paper's two circuit optimizations
/// (§IV-A): compact `(sub_group/2 + 1):1` muxes exploiting the ≥50% BBS
/// guarantee, and a time-multiplexed 3-bit BBS-constant multiplier instead
/// of a full 6-bit one.
///
/// # Panics
///
/// Panics if `sub_group` is not 4, 8 or 16.
pub fn bitvert_pe(sub_group: usize, optimized: bool) -> PeModel {
    assert!(
        matches!(sub_group, 4 | 8 | 16),
        "sub-group must be 4, 8 or 16"
    );
    let num_subgroups = 16 / sub_group;
    let muxes_per_subgroup = sub_group / 2;
    // Worst case under >=50% BBS sparsity: each mux covers a sliding window
    // of (sub_group/2 + 1) activations; the unoptimized design covers the
    // whole sub-group.
    let mux_inputs = if optimized {
        sub_group / 2 + 1
    } else {
        sub_group
    };

    let mut other: Vec<Block> = Vec::new();
    // Term select (step 1).
    other.push(mux_tg(mux_inputs, 8).times(muxes_per_subgroup * num_subgroups));
    // Per-sub-group subtract-from-ΣA and partial-sum select (step 2).
    let psum_width = 8 + (usize::BITS - (sub_group - 1).leading_zeros()) as usize;
    other.push(subtractor(psum_width).times(num_subgroups));
    other.push(mux(2, psum_width).times(num_subgroups));
    // Combine sub-group partials.
    if num_subgroups > 1 {
        other.push(adder_tree(num_subgroups, psum_width));
    }
    // Single shifter driven by col_idx (step 3).
    other.push(barrel_shifter(12, 8));
    // BBS-constant multiplier (step 4).
    if optimized {
        other.push(multiplier(3, 12));
        other.push(mux(2, 18)); // alignment of the two 3-bit halves
    } else {
        other.push(multiplier(6, 12));
    }
    // Accumulation (step 5) + col_idx register. Control is thin: the BBS
    // scheduler is shared at the array level (Fig. 10), not per PE.
    other.extend(accumulator());
    other.push(register(4)); // col_idx register
    other.push(control(40.0));

    PeModel {
        name: if optimized {
            "BitVert"
        } else {
            "BitVert (unoptimized)"
        },
        multiplier_blocks: vec![
            bit_serial_lane(8).times(LANES),
            // Sub-grouped reduction trees (4:1 per sub-group of 8).
            adder_tree((muxes_per_subgroup).max(2), 8).times(num_subgroups),
        ],
        other_blocks: other,
    }
}

/// Olive \[15\]: outlier-victim pair PE. The 4-bit weight path is widened to
/// accommodate the outlier datatype's range (the paper's point about Olive
/// needing a larger multiplier than plain fixed-point), plus the
/// outlier-victim decoder and a wide accumulator. One multiplication per
/// cycle (Table VI).
pub fn olive_pe() -> PeModel {
    PeModel {
        name: "Olive",
        multiplier_blocks: vec![multiplier(5, 8)], // 4-bit + outlier guard bit
        other_blocks: vec![
            mux(2, 8),     // victim-pair operand select
            control(60.0), // outlier-victim decode
            register(8),   // encoded-pair register
            adder(20),     // wide accumulate (outlier range)
            register(20),
        ],
    }
}

/// SparTen \[13\]: value-sparse PE with an 8-bit multiplier, inner-join
/// prefix-sum logic over sparse bitmasks and a local buffer — the hardware
/// overhead the paper's Fig. 13 discussion calls out. Normalized to one
/// 8-bit multiplier (= 8 bit-serial lanes).
pub fn sparten_pe() -> PeModel {
    PeModel {
        name: "SparTen",
        multiplier_blocks: vec![multiplier(8, 8)],
        other_blocks: vec![
            priority_encoder(128).times(2), // prefix-sum inner join
            register(64).times(2),          // sparse operand staging
            mux(8, 8).times(2),             // operand selection
            adder(24),
            register(24),
            control(180.0),
        ],
    }
}

/// ANT \[16\]: 6-bit adaptive-datatype PE — a 6×8 multiplier plus the
/// datatype decoder ("the complicated hardware to support custom data
/// types").
pub fn ant_pe() -> PeModel {
    PeModel {
        name: "ANT",
        multiplier_blocks: vec![multiplier(6, 8)],
        other_blocks: vec![
            mux(4, 8),      // datatype operand routing
            control(120.0), // type decode
            register(8),
            adder(24),
            register(24),
        ],
    }
}

/// All Table V designs in paper order.
pub fn table5_designs() -> Vec<PeModel> {
    vec![
        stripes_pe(),
        pragmatic_pe(),
        bitlet_pe(),
        bitwave_pe(),
        bitvert_pe(8, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::tsmc28()
    }

    #[test]
    fn stripes_matches_calibration_anchor() {
        let area = stripes_pe().area_um2(&tech());
        assert!(
            (area - 532.8).abs() / 532.8 < 0.05,
            "Stripes anchor off: {area} vs 532.8"
        );
        let power = stripes_pe().power_mw(&tech());
        assert!(
            (power - 0.37).abs() / 0.37 < 0.15,
            "Stripes power off: {power} vs 0.37"
        );
    }

    #[test]
    fn table5_area_ordering_matches_paper() {
        // Paper: Stripes < BitWave < BitVert < Pragmatic < Bitlet.
        let t = tech();
        let a = |m: PeModel| m.area_um2(&t);
        let stripes = a(stripes_pe());
        let bitwave = a(bitwave_pe());
        let bitvert = a(bitvert_pe(8, true));
        let pragmatic = a(pragmatic_pe());
        let bitlet = a(bitlet_pe());
        assert!(stripes < bitwave);
        assert!(bitwave < bitvert);
        assert!(bitvert < pragmatic);
        assert!(pragmatic < bitlet);
    }

    #[test]
    fn table5_ratio_bands() {
        let t = tech();
        let stripes = stripes_pe().area_um2(&t);
        let check = |m: PeModel, lo: f64, hi: f64| {
            let r = m.area_um2(&t) / stripes;
            assert!(
                (lo..=hi).contains(&r),
                "{}: ratio {r} outside [{lo},{hi}]",
                m.name
            );
        };
        check(bitwave_pe(), 1.2, 1.55); // paper 1.32x
        check(bitvert_pe(8, true), 1.25, 1.75); // paper 1.39x
        check(pragmatic_pe(), 1.5, 2.1); // paper 1.73x
        check(bitlet_pe(), 2.4, 3.9); // paper 3.13x
    }

    #[test]
    fn bitvert_optimization_shrinks_pe() {
        // Table IV: the circuit optimizations reduce both area and power for
        // every sub-group size.
        let t = tech();
        for sg in [4usize, 8, 16] {
            let unopt = bitvert_pe(sg, false);
            let opt = bitvert_pe(sg, true);
            assert!(
                opt.area_um2(&t) < unopt.area_um2(&t),
                "optimization must shrink sub-group {sg}"
            );
            assert!(opt.power_mw(&t) < unopt.power_mw(&t));
        }
    }

    #[test]
    fn bitvert_subgroup_16_unoptimized_is_most_expensive() {
        // Table IV: sub-group 16 without optimization carries the largest
        // mux overhead.
        let t = tech();
        let a16 = bitvert_pe(16, false).area_um2(&t);
        for sg in [4usize, 8] {
            assert!(bitvert_pe(sg, false).area_um2(&t) < a16);
        }
        assert!(bitvert_pe(16, true).area_um2(&t) < a16);
    }

    #[test]
    fn bitvert_subgroup_8_is_the_sweet_spot() {
        // Table IV: optimized sub-group 8 offers the best area/power
        // trade-off: lowest area among optimized designs, and power within
        // a whisker of the best (the paper reports 0.45 vs 0.53/0.47 mW).
        let t = tech();
        let a8 = bitvert_pe(8, true).area_um2(&t);
        assert!(a8 <= bitvert_pe(16, true).area_um2(&t));
        assert!(a8 <= bitvert_pe(4, true).area_um2(&t));
        let p8 = bitvert_pe(8, true).power_mw(&t);
        assert!(p8 <= bitvert_pe(4, true).power_mw(&t) * 1.05);
        assert!(p8 <= bitvert_pe(16, true).power_mw(&t) * 1.10);
    }

    #[test]
    fn olive_is_smaller_but_slower_per_area() {
        // Table VI: Olive's PE is ~2.5x smaller than BitVert's but computes
        // one multiplication per cycle vs BitVert's 4 (moderate pruning).
        let t = tech();
        let olive = olive_pe().area_um2(&t);
        let bitvert = bitvert_pe(8, true).area_um2(&t);
        let area_ratio = bitvert / olive;
        assert!((1.8..=3.4).contains(&area_ratio), "ratio {area_ratio}");
        // Perf/area: BitVert 4x perf at area_ratio cost.
        let perf_per_area = 4.0 / area_ratio;
        assert!(perf_per_area > 1.1, "BitVert must win perf/area");
    }

    #[test]
    fn mult_other_split_is_reported() {
        let pe = bitvert_pe(8, true);
        let t = tech();
        let total = pe.area_um2(&t);
        let split = pe.multiplier_area_um2(&t) + pe.other_area_um2(&t);
        assert!((total - split).abs() < 1e-9);
        assert!(pe.to_string().contains("BitVert"));
    }

    #[test]
    #[should_panic(expected = "sub-group")]
    fn bitvert_rejects_bad_subgroup() {
        let _ = bitvert_pe(5, true);
    }
}
