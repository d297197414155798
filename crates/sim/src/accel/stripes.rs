//! Stripes \[19\]: the dense bit-serial baseline.
//!
//! Every PE holds 8 lanes, each serially processing all 8 bits of one
//! weight: a group of 8 weights always costs 8 cycles, every lane-cycle is
//! counted useful (it is the normalization baseline of Fig. 12), and all
//! weight bits travel through memory.

use crate::accel::{
    dense_traffic, extrapolate_cycles, wave_schedule, Accelerator, LatencyProfile, LayerPerf,
};
use crate::config::ArrayConfig;
use crate::workload::LayerWorkload;
use bbs_hw::pe::{stripes_pe, PeModel};
use bbs_tensor::bits::WEIGHT_BITS;

/// Weights processed per PE pass.
pub const GROUP: usize = 8;

/// The Stripes model. [`Stripes::with_bits`] gives the reduced-precision
/// variant used as the PTQ hardware point in Fig. 16 (Stripes' actual
/// selling point: fewer serial cycles at lower precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripes {
    /// Serial bits per weight (8 = the dense INT8 baseline).
    pub bits: u32,
}

impl Stripes {
    /// The dense INT8 baseline.
    pub fn new() -> Self {
        Stripes {
            bits: WEIGHT_BITS as u32,
        }
    }

    /// Reduced-precision Stripes processing `bits`-bit PTQ weights.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=8`.
    pub fn with_bits(bits: u32) -> Self {
        assert!((2..=8).contains(&bits));
        Stripes { bits }
    }
}

impl Default for Stripes {
    fn default() -> Self {
        Stripes::new()
    }
}

impl Accelerator for Stripes {
    fn name(&self) -> String {
        if self.bits == 8 {
            "Stripes".into()
        } else {
            format!("Stripes-{}b", self.bits)
        }
    }

    fn pe_model(&self) -> PeModel {
        stripes_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        let epc = wl.weights.elems_per_channel();
        let groups = epc.div_ceil(GROUP);
        let lanes = cfg.lanes_per_pe;
        let channels = wl.channels.min(wl.weights.channels());
        let profile = LatencyProfile::uniform(
            channels,
            groups,
            self.bits,
            (self.bits as usize * lanes) as u64,
        );
        let stats = wave_schedule(&profile, cfg.pe_cols, lanes);
        let (w_dram, a_dram, w_sram, a_sram) = dense_traffic(wl, cfg, self.bits as f64);
        LayerPerf {
            compute_cycles: extrapolate_cycles(stats.cycles, wl, cfg),
            useful_fraction: stats.useful_fraction,
            intra_fraction: stats.intra_fraction,
            inter_fraction: stats.inter_fraction,
            weight_dram_bits: w_dram,
            act_dram_bits: a_dram,
            weight_sram_bits: w_sram,
            act_sram_bits: a_sram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::lower_model;
    use bbs_models::zoo;

    #[test]
    fn dense_cycles_match_mac_arithmetic() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[1];
        let perf = Stripes::new().layer_performance(wl, &cfg);
        // Dense bit-serial: MACs * 8 bits / 4096 lanes, padded by group and
        // tile fragmentation — within 15% of the ideal.
        let ideal = wl.macs() as f64 * 8.0 / cfg.total_lanes() as f64;
        let ratio = perf.compute_cycles as f64 / ideal;
        assert!((0.95..=1.30).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stripes_is_perfectly_balanced() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::resnet34(), 3, 4 * 1024)[5];
        let perf = Stripes::new().layer_performance(wl, &cfg);
        assert!(perf.inter_fraction < 0.05, "only tile fragmentation");
        assert!(perf.useful_fraction > 0.9);
    }

    #[test]
    fn fetches_all_weight_bits() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[1];
        let perf = Stripes::new().layer_performance(wl, &cfg);
        assert_eq!(perf.weight_dram_bits, wl.params() as u64 * 8);
    }
}
