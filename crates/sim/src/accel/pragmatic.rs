//! Pragmatic \[1\]: per-weight essential-bit serialization.
//!
//! Each lane serially processes only the one-bits of its weight; the 8
//! lanes of a PE synchronize on the weight with the most essential bits
//! (the intra-group imbalance of Fig. 2b), and PE columns synchronize on
//! the slowest group. All weight bits are still fetched from memory — the
//! skipping is on-chip only.

use crate::accel::{
    dense_traffic, extrapolate_cycles, profile_key, wave_schedule, Accelerator, LayerPerf,
    ProfileBuilder,
};
use crate::config::ArrayConfig;
use crate::workload::{LayerWorkload, ProfileEntry};
use bbs_hw::pe::{pragmatic_pe, PeModel};

/// Weights processed per PE pass.
pub const GROUP: usize = 8;

/// The Pragmatic model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pragmatic;

impl Pragmatic {
    /// Creates the model.
    pub fn new() -> Self {
        Pragmatic
    }
}

impl Accelerator for Pragmatic {
    fn name(&self) -> String {
        "Pragmatic".into()
    }

    fn pe_model(&self) -> PeModel {
        pragmatic_pe()
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        // Config-independent and parameterless: memoized on the workload.
        let entry = wl.profiles.get_or_build(profile_key(&[4]), || {
            let qt = &wl.weights;
            let mut builder = ProfileBuilder::with_capacity(qt.channels());
            for c in 0..qt.channels() {
                let row = qt.channel(c);
                for group in row.chunks(GROUP) {
                    let mut lat = 0u32;
                    let mut ones = 0u64;
                    for &w in group {
                        let p = (w as u8).count_ones();
                        lat = lat.max(p);
                        ones += p as u64;
                    }
                    builder.push_group(lat.max(1), ones);
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
    fn faster_than_stripes_but_imbalanced() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::resnet50(), 3, 8 * 1024)[10];
        let prag = Pragmatic::new().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / prag.compute_cycles as f64;
        // Paper band: ~1.2-1.5x over Stripes on compute.
        assert!((1.05..=1.8).contains(&speedup), "speedup {speedup}");
        // The max-popcount sync leaves lanes idle.
        assert!(prag.intra_fraction > 0.15, "intra {}", prag.intra_fraction);
    }

    #[test]
    fn still_fetches_every_bit() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_small(), 3, 8 * 1024)[1];
        let perf = Pragmatic::new().layer_performance(wl, &cfg);
        assert_eq!(perf.weight_dram_bits, wl.params() as u64 * 8);
    }
}
