//! BitVert (this paper): bit-column-serial with BBS skipping, binary
//! pruning and channel reordering.
//!
//! Each PE processes 16 weights of a dot product per pass, one kept bit
//! column per cycle. The ≥50% BBS guarantee (inversion per sub-group of 8)
//! means a column always completes in one cycle on the PE's 8 lanes, so a
//! pass costs exactly the kept-column count of its storage group:
//! `8 - pruned - redundant` for binary-pruned channels, 8 for sensitive
//! channels. Channel reordering makes tiles precision-uniform, which is
//! what keeps inter-PE stall near zero (Fig. 15).

use crate::accel::{
    dense_traffic, extrapolate_cycles, position_tiles, profile_key, wave_schedule, Accelerator,
    LayerPerf, ProfileBuilder,
};
use crate::config::ArrayConfig;
use crate::workload::{LayerWorkload, ProfileEntry};
use bbs_core::encoding::CompressedGroup;
use bbs_core::global::{select_sensitive_channels, GlobalPruneConfig};
use bbs_core::prune::PruneStrategy;
use bbs_core::reorder::ChannelOrder;
use bbs_hw::pe::{bitvert_pe, PeModel};
use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};

/// Weights per PE pass.
pub const PE_GROUP: usize = 16;
/// Sub-group size (inversion granularity).
pub const SUB_GROUP: usize = 8;

/// The BitVert model at a pruning level.
#[derive(Debug, Clone, PartialEq)]
pub struct BitVert {
    /// Pruning configuration applied to weight channels.
    pub prune: GlobalPruneConfig,
    label: &'static str,
}

impl BitVert {
    /// Conservative pruning (β = 10%, 2 columns, averaging).
    pub fn conservative() -> Self {
        BitVert {
            prune: GlobalPruneConfig::conservative(),
            label: "BitVert (cons)",
        }
    }

    /// Moderate pruning (β = 20%, 4 columns, shifting).
    pub fn moderate() -> Self {
        BitVert {
            prune: GlobalPruneConfig::moderate(),
            label: "BitVert (mod)",
        }
    }

    /// A custom pruning configuration with a display label.
    pub fn with_config(prune: GlobalPruneConfig, label: &'static str) -> Self {
        BitVert { prune, label }
    }
}

/// BBS effectual terms of one PE pass over the kept columns: per column
/// and per sub-group of 8 lanes, `min(ones, 8 - ones)` (the scheduler's
/// inversion guarantee).
pub(crate) fn pass_useful(columns: &[u64], lane_lo: usize) -> u64 {
    let mut useful = 0u64;
    for &mask in columns {
        for sg in 0..(PE_GROUP / SUB_GROUP) {
            let shift = lane_lo + sg * SUB_GROUP;
            let bits = ((mask >> shift) & 0xff) as u32;
            let ones = bits.count_ones() as u64;
            useful += ones.min(SUB_GROUP as u64 - ones);
        }
    }
    useful
}

impl Accelerator for BitVert {
    fn name(&self) -> String {
        self.label.into()
    }

    fn pe_model(&self) -> PeModel {
        bitvert_pe(SUB_GROUP, true)
    }

    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf {
        // The profile (pruned columns, reordering, storage bits) depends
        // only on the weights and the pruning configuration — not on the
        // array geometry — so it is memoized on the workload: a PE-column
        // sweep or a serve config sweep compresses each group once.
        let key = profile_key(&[
            1, // accelerator tag
            self.prune.beta.to_bits(),
            self.prune.ch as u64,
            match self.prune.pruner.strategy() {
                PruneStrategy::RoundedAveraging => 0,
                PruneStrategy::ZeroPointShifting => 1,
            },
            self.prune.pruner.sparse_columns() as u64,
            self.prune.group_size as u64,
        ]);
        let entry = wl.profiles.get_or_build(key, || self.build_profile(wl));

        let stats = wave_schedule(&entry.profile, cfg.pe_cols, cfg.lanes_per_pe);
        let (_, a_dram, _, a_sram) = dense_traffic(wl, cfg, 8.0);
        let w_dram =
            (entry.stored_bits_sampled as f64 * wl.sample_factor) as u64 + entry.index_bits;
        let w_sram = w_dram * position_tiles(wl, cfg);
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

impl BitVert {
    /// Builds the config-independent profile entry: binary pruning and
    /// channel reordering over the sampled weights.
    fn build_profile(&self, wl: &LayerWorkload) -> ProfileEntry {
        let qt = &wl.weights;
        // Per-layer sensitivity with the global β floor (the compression
        // experiments use the model-global Algorithm 2; per-layer selection
        // is equivalent for throughput because β is a fraction either way).
        let masks = select_sensitive_channels(
            std::slice::from_ref(&qt.scales),
            self.prune.beta,
            self.prune.ch,
        );
        let order = ChannelOrder::from_sensitivity(&masks[0]);

        let group = self.prune.group_size;
        let passes_per_group = group / PE_GROUP;
        let mut builder = ProfileBuilder::with_capacity(qt.channels());
        let mut stored_bits_sampled: u64 = 0;

        // Channels in chunked (reordered) order: sensitive first.
        for pos in 0..order.len() {
            let c = order.original_index(pos);
            let row = qt.channel(c);
            for chunk in row.chunks(group) {
                // A trailing partial group is zero-padded to `group`.
                if masks[0][c] {
                    // Sensitive: raw 8-bit storage, all 8 columns processed,
                    // so only these groups are packed here.
                    let packed = PackedGroup::from_words_padded(chunk, group);
                    stored_bits_sampled += (group * WEIGHT_BITS) as u64;
                    for pass in 0..passes_per_group {
                        builder.push_group(
                            WEIGHT_BITS as u32,
                            pass_useful(packed.columns(), pass * PE_GROUP),
                        );
                    }
                } else {
                    let enc: CompressedGroup = self.prune.pruner.compress_padded(chunk, group);
                    stored_bits_sampled += enc.stored_bits() as u64;
                    // The encoder's kept planes are borrowed in place — no
                    // per-group column copies on this path.
                    let columns = enc.kept_columns();
                    for pass in 0..passes_per_group {
                        builder.push_group(
                            columns.len() as u32,
                            pass_useful(columns, pass * PE_GROUP),
                        );
                    }
                }
            }
            builder.finish_channel();
        }

        ProfileEntry {
            profile: builder.build(),
            stored_bits_sampled,
            // Channel-index buffer: one index per channel (trivial, counted).
            index_bits: order.index_buffer_bits() as u64,
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
    fn moderate_pruning_compute_speedup_in_paper_band() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::resnet50(), 3, 8 * 1024)[12];
        let bv = BitVert::moderate().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        let speedup = stripes.compute_cycles as f64 / bv.compute_cycles as f64;
        // 16 MACs per pass at ~4-5 kept columns with ~25% sensitive:
        // compute-bound speedup ~2.5-3.5x.
        assert!((2.0..=4.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn conservative_is_slower_than_moderate_but_beats_stripes() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vit_base(), 3, 8 * 1024)[6];
        let cons = BitVert::conservative().layer_performance(wl, &cfg);
        let moderate = BitVert::moderate().layer_performance(wl, &cfg);
        let stripes = Stripes::new().layer_performance(wl, &cfg);
        assert!(moderate.compute_cycles < cons.compute_cycles);
        assert!(cons.compute_cycles < stripes.compute_cycles);
    }

    #[test]
    fn reordering_keeps_inter_pe_stall_minimal() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::bert_mrpc(), 3, 8 * 1024)[9];
        let bv = BitVert::moderate().layer_performance(wl, &cfg);
        assert!(
            bv.inter_fraction < 0.10,
            "precision-uniform tiles must stay balanced: {}",
            bv.inter_fraction
        );
    }

    #[test]
    fn memory_footprint_beats_dense() {
        let cfg = ArrayConfig::paper_16x32();
        let wl = &lower_model(&zoo::vgg16(), 3, 8 * 1024)[13]; // fc6
        let bv = BitVert::moderate().layer_performance(wl, &cfg);
        let dense = wl.params() as u64 * 8;
        let ratio = dense as f64 / bv.weight_dram_bits as f64;
        assert!((1.3..=2.0).contains(&ratio), "weight compression {ratio}");
    }

    #[test]
    fn bbs_guarantee_bounds_effectual_terms() {
        // pass_useful never exceeds 4 per sub-group per column.
        let columns = vec![u64::MAX, 0, 0xaaaa_aaaa_aaaa_aaaa];
        let useful = pass_useful(&columns, 0);
        // 3 columns x 2 sub-groups x max 4 = at most 24.
        assert!(useful <= 24);
        // All-ones column: min(8, 0) = 0 effectual (pure ΣA path).
        assert_eq!(pass_useful(&[u64::MAX], 0), 0);
        // Alternating column: min(4,4) = 4 per sub-group.
        assert_eq!(pass_useful(&[0xaa], 0), 4);
    }
}
