//! BitWave \[39\]: bit-column-serial over sign-magnitude weights.
//!
//! A group of 8 weights is processed one bit column per cycle; all-zero
//! columns (inherent, or forced by BitWave's bit-flip pruning) are neither
//! stored nor computed. Kept columns still contain zero bits, which are
//! processed but ineffectual — the intra-PE loss Fig. 15 shows for
//! BitWave. Workloads are naturally balanced because the per-group kept-
//! column count is nearly uniform.

use crate::accel::{
    dense_traffic, extrapolate_cycles, profile_key, wave_schedule, Accelerator, LayerPerf,
    ProfileBuilder,
};
use crate::config::ArrayConfig;
use crate::workload::{LayerWorkload, ProfileEntry};
use bbs_core::zero_col::sign_magnitude_zero_column;
use bbs_hw::pe::{bitwave_pe, PeModel};
use bbs_tensor::bits::sign_magnitude;

/// Weights per PE pass (BitWave's bit-vector size).
pub const GROUP: usize = 8;

/// The BitWave model with its bit-flip pruning level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitWave {
    /// Target zero columns per group (3 is the accuracy-preserving level
    /// the paper's comparison uses).
    pub target_columns: usize,
}

impl BitWave {
    /// The comparison operating point: 3 zero columns per group.
    pub fn new() -> Self {
        BitWave { target_columns: 3 }
    }

    /// A custom pruning level.
    ///
    /// # Panics
    ///
    /// Panics if `target_columns >= 8`.
    pub fn with_columns(target_columns: usize) -> Self {
        assert!(target_columns < 8);
        BitWave { target_columns }
    }
}

impl Default for BitWave {
    fn default() -> Self {
        BitWave::new()
    }
}

impl Accelerator for BitWave {
    fn name(&self) -> String {
        "BitWave".into()
    }

    fn pe_model(&self) -> PeModel {
        bitwave_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        // Config-independent: memoized on the workload (see BitVert).
        let key = profile_key(&[2, self.target_columns as u64]);
        let entry = wl.profiles.get_or_build(key, || self.build_profile(wl));
        let stats = wave_schedule(&entry.profile, cfg.pe_cols, cfg.lanes_per_pe);
        // Compressed weight traffic; activations remain 8-bit dense.
        let (_, a_dram, _, a_sram) = dense_traffic(wl, cfg, 8.0);
        let w_dram = (entry.stored_bits_sampled as f64 * wl.sample_factor) as u64;
        let w_sram = w_dram * crate::accel::position_tiles(wl, cfg);
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

impl BitWave {
    /// Builds the config-independent profile entry: zero-column pruning
    /// over the sampled weights.
    fn build_profile(&self, wl: &LayerWorkload) -> ProfileEntry {
        let qt = &wl.weights;
        let epc = qt.elems_per_channel();
        let mut builder = ProfileBuilder::with_capacity(qt.channels(), epc.div_ceil(GROUP));
        let mut stored_bits_sampled: u64 = 0;
        for c in 0..qt.channels() {
            let row = qt.channel(c);
            for group in row.chunks(GROUP) {
                let z = sign_magnitude_zero_column(group, self.target_columns);
                stored_bits_sampled += z.stored_bits() as u64;
                // Effectual = one-bits of the stored sign-magnitude values.
                let ones: u64 = z
                    .values()
                    .iter()
                    .map(|&v| sign_magnitude(v).count_ones() as u64)
                    .sum();
                builder.push_group(z.kept_columns().max(1) as u32, ones);
            }
            builder.finish_channel();
        }
        ProfileEntry {
            profile: builder.build(),
            stored_bits_sampled,
            index_bits: 0,
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
    fn column_pruning_speeds_up_and_compresses() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::resnet50(), 3, 8 * 1024)[12];
        let bw = BitWave::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / bw.compute_cycles as f64;
        assert!((1.3..=2.4).contains(&speedup), "speedup {speedup}");
        assert!(
            bw.weight_dram_bits < stripes.weight_dram_bits,
            "column pruning must shrink memory"
        );
    }

    #[test]
    fn balanced_workload_low_inter_stall() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::bert_mrpc(), 3, 8 * 1024)[7];
        let bw = BitWave::new().layer_performance(wl, &cfg);
        assert!(
            bw.inter_fraction < 0.25,
            "structured column sparsity stays balanced: {}",
            bw.inter_fraction
        );
        // But kept columns still hold zero bits (intra-PE ineffectual work).
        assert!(bw.intra_fraction > 0.1);
    }

    #[test]
    fn more_pruning_means_fewer_cycles() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[5];
        let mild = BitWave::with_columns(1).layer_performance(wl, &cfg);
        let eager = BitWave::with_columns(5).layer_performance(wl, &cfg);
        assert!(eager.compute_cycles < mild.compute_cycles);
    }
}
