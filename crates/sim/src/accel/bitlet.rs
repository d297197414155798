//! Bitlet \[26\]: sparsity-parallel lanes by bit significance.
//!
//! A PE digests 64 weights of one dot product; lane `b` serially absorbs
//! the one-bits at significance `b` across the whole group (via a 64:1
//! activation mux). The pass completes when the densest significance
//! drains — the "bit significance with the highest number of one bits"
//! bound of §II-A.

use crate::accel::{
    dense_traffic, extrapolate_cycles, profile_key, wave_schedule, Accelerator, LayerPerf,
    ProfileBuilder,
};
use crate::config::ArrayConfig;
use crate::workload::{LayerWorkload, ProfileEntry};
use bbs_hw::pe::{bitlet_pe, PeModel};
use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};

/// Weights digested per PE pass.
pub const GROUP: usize = 64;

/// The Bitlet model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bitlet;

impl Bitlet {
    /// Creates the model.
    pub fn new() -> Self {
        Bitlet
    }
}

impl Accelerator for Bitlet {
    fn name(&self) -> String {
        "Bitlet".into()
    }

    fn pe_model(&self) -> PeModel {
        bitlet_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        // Config-independent and parameterless: memoized on the workload.
        let entry = wl.profiles.get_or_build(profile_key(&[3]), || {
            let qt = &wl.weights;
            let epc = qt.elems_per_channel();
            let mut builder = ProfileBuilder::with_capacity(qt.channels(), epc.div_ceil(GROUP));
            for c in 0..qt.channels() {
                let row = qt.channel(c);
                for group in row.chunks(GROUP) {
                    let bits = PackedGroup::from_words(group);
                    let mut lat = 0usize;
                    let mut ones = 0u64;
                    for b in 0..WEIGHT_BITS {
                        let count = bits.column_popcount(b);
                        lat = lat.max(count);
                        ones += count as u64;
                    }
                    builder.push_group(lat.max(1) as u32, ones);
                }
                builder.finish_channel();
            }
            ProfileEntry {
                profile: builder.build(),
                stored_bits_sampled: 0,
                index_bits: 0,
            }
        });
        let stats = wave_schedule(&entry.profile, cfg.pe_cols, cfg.lanes_per_pe);
        let (w_dram, a_dram, w_sram, a_sram) = dense_traffic(wl, cfg, 8.0);
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
    use crate::accel::stripes::Stripes;
    use crate::workload::lower_model;
    use bbs_models::zoo;

    #[test]
    fn bitlet_beats_stripes_on_compute() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::bert_mrpc(), 3, 16 * 1024)[4];
        let bitlet = Bitlet::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / bitlet.compute_cycles as f64;
        // 64 MACs per pass bounded by the densest significance (~36 of 64):
        // paper band 1.35-1.85x.
        assert!((1.2..=2.2).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn latency_bounded_by_group_size() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[2];
        let qt = &wl.weights;
        let row = qt.channel(0);
        for group in row.chunks(GROUP) {
            let bits = PackedGroup::from_words(group);
            let max_cnt = (0..8).map(|b| bits.column_popcount(b)).max().unwrap();
            assert!(max_cnt <= group.len());
        }
        // Ensure the profile machinery runs.
        let _ = Bitlet::new().layer_performance(wl, &cfg);
    }
}
