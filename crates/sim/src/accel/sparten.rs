//! SparTen \[13\]: two-sided value sparsity.
//!
//! SparTen multiplies only non-zero weight/activation pairs found by an
//! inner join over sparse bitmasks. On 8-bit PTQ models weight value
//! sparsity is < 5% and non-ReLU activations are nearly dense, so the
//! effectual-pair fraction approaches 1 while the bitmask still costs
//! 12.5% extra memory — the failure mode the paper highlights.

use crate::accel::{dense_traffic, Accelerator, LayerPerf};
use crate::config::ArrayConfig;
use crate::workload::LayerWorkload;
use bbs_hw::pe::{sparten_pe, PeModel};

/// Inner-join scheduling efficiency (pair matching + load imbalance).
pub const JOIN_EFFICIENCY: f64 = 0.70;

/// The SparTen model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparTen;

impl SparTen {
    /// Creates the model.
    pub fn new() -> Self {
        SparTen
    }
}

impl Accelerator for SparTen {
    fn name(&self) -> String {
        "SparTen".into()
    }

    fn pe_model(&self) -> PeModel {
        sparten_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        let wsp = wl.weight_sparsity();
        let asp = wl.activation_sparsity();
        let effectual = (1.0 - wsp) * (1.0 - asp);
        let mult8 = cfg.equivalent_mult8() as f64;
        let cycles = (wl.macs() as f64 * effectual / (mult8 * JOIN_EFFICIENCY)).ceil() as u64;

        // Sparse encoding: non-zero values at 8 bits + 1-bit mask per value.
        let w_dram = ((wl.params() as f64) * ((1.0 - wsp) * 8.0 + 1.0)) as u64;
        let input_bits = (wl.unique_input_elems as f64) * ((1.0 - asp) * 8.0 + 1.0);
        let output_bits = (wl.output_elems() * 8) as f64; // pre-activation dense
        let (_, _, _, _) = dense_traffic(wl, cfg, 8.0);
        let channel_tiles = (wl.channels as u64).div_ceil(cfg.pe_cols as u64);
        let pos_tiles = crate::accel::position_tiles(wl, cfg);

        LayerPerf {
            compute_cycles: cycles.max(1),
            useful_fraction: JOIN_EFFICIENCY,
            intra_fraction: 1.0 - JOIN_EFFICIENCY,
            inter_fraction: 0.0,
            weight_dram_bits: w_dram,
            act_dram_bits: (input_bits + output_bits) as u64,
            weight_sram_bits: w_dram * pos_tiles,
            act_sram_bits: (input_bits * channel_tiles as f64 + output_bits) as u64,
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
    fn cnn_relu_sparsity_helps() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::resnet34(), 3, 8 * 1024)[5];
        let sp = SparTen::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / sp.compute_cycles as f64;
        // ~50% ReLU zeros against the 0.7 join efficiency: modest win.
        assert!((0.9..=1.9).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn transformers_starve_sparten() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::bert_mrpc(), 3, 8 * 1024)[7];
        let sp = SparTen::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / sp.compute_cycles as f64;
        // Dense GeLU activations: the join overhead dominates.
        assert!(speedup < 1.0, "speedup {speedup} should fall below Stripes");
    }

    #[test]
    fn bitmask_inflates_dense_weight_memory() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[4];
        let sp = SparTen::new().layer_performance(wl, &cfg);
        let dense_bits = wl.params() as u64 * 8;
        assert!(
            sp.weight_dram_bits > dense_bits,
            "12.5% bitmask overhead on value-dense weights"
        );
    }
}
