//! ANT \[16\]: adaptive 6-bit numeric datatypes.
//!
//! ANT quantizes both operands to 6 bits with per-group adaptive types; on
//! the normalized bit-serial budget this is dense 6-cycle-per-weight
//! processing with 6-bit memory traffic on both operand streams. No
//! bit-level sparsity is exploited (the gap BitVert opens in Fig. 12).

use crate::accel::{
    extrapolate_cycles, position_tiles, wave_schedule, Accelerator, LatencyProfile, LayerPerf,
};
use crate::config::ArrayConfig;
use crate::workload::LayerWorkload;
use bbs_hw::pe::{ant_pe, PeModel};

/// Weights per PE pass.
pub const GROUP: usize = 8;
/// ANT operand precision (the paper's accuracy-preserving configuration).
pub const ANT_BITS: u32 = 6;

/// The ANT model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ant;

impl Ant {
    /// Creates the model.
    pub fn new() -> Self {
        Ant
    }
}

impl Accelerator for Ant {
    fn name(&self) -> String {
        "ANT".into()
    }

    fn pe_model(&self) -> PeModel {
        ant_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        let epc = wl.weights.elems_per_channel();
        let groups = epc.div_ceil(GROUP);
        let lanes = cfg.lanes_per_pe;
        let channels = wl.channels.min(wl.weights.channels());
        let profile = LatencyProfile::uniform(
            channels,
            groups,
            ANT_BITS,
            (ANT_BITS as usize * lanes) as u64,
        );
        let stats = wave_schedule(&profile, cfg.pe_cols, lanes);

        // 6-bit weights + 4-bit type metadata per 16-value group; 6-bit
        // activations both directions.
        let w_dram = (wl.params() as u64 * ANT_BITS as u64) + (wl.params() as u64 / 16) * 4;
        let input_bits = (wl.unique_input_elems as u64) * ANT_BITS as u64;
        let output_bits = (wl.output_elems() as u64) * ANT_BITS as u64;
        let channel_tiles = (wl.channels as u64).div_ceil(cfg.pe_cols as u64);
        LayerPerf {
            compute_cycles: extrapolate_cycles(stats.cycles, wl, cfg),
            useful_fraction: stats.useful_fraction,
            intra_fraction: stats.intra_fraction,
            inter_fraction: stats.inter_fraction,
            weight_dram_bits: w_dram,
            act_dram_bits: input_bits + output_bits,
            weight_sram_bits: w_dram * position_tiles(wl, cfg),
            act_sram_bits: input_bits * channel_tiles + output_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::stripes::Stripes;
    use crate::workload::lower_model;
    use bbs_models::zoo;

    #[test]
    fn ant_gains_the_precision_ratio() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_base(), 3, 8 * 1024)[6];
        let ant = Ant::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / ant.compute_cycles as f64;
        assert!(
            (1.25..=1.45).contains(&speedup),
            "8/6 precision ratio expected, got {speedup}"
        );
        assert!(ant.weight_dram_bits < stripes.weight_dram_bits);
    }
}
