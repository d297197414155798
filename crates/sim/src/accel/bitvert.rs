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

/// BBS effectual terms of every 8-lane sub-group, summed over the kept
/// columns: byte `i` holds `Σ min(ones, 8 - ones)` over lanes
/// `8i..8i + 8` of each column (the scheduler's inversion guarantee). A
/// column adds at most 4 to a byte, so eight columns never carry.
///
/// Word operations on whole columns: per-byte popcounts, then the smaller
/// of `ones` and `8 - ones` in every byte at once.
fn subgroup_useful(columns: &[u64]) -> u64 {
    const BYTES: u64 = 0x0101_0101_0101_0101;
    columns.iter().fold(0, |sum, &column| {
        let x = column - ((column >> 1) & (0x55 * BYTES));
        let x = (x & (0x33 * BYTES)) + ((x >> 2) & (0x33 * BYTES));
        let ones = (x + (x >> 4)) & (0x0f * BYTES);
        // 0xff in the bytes holding 5..=8 ones: bit 3 of `ones + 3`.
        let more = (((ones + 3 * BYTES) >> 3) & BYTES) * 0xff;
        sum + ((ones & !more) | ((8 * BYTES - ones) & more))
    })
}

/// The effectual terms of the PE pass over lanes `lane_lo..lane_lo + 16`:
/// the sum of its two sub-groups' bytes of [`subgroup_useful`].
fn pass_of(subgroups: u64, lane_lo: usize) -> u64 {
    let pass = (subgroups >> lane_lo) & 0xffff;
    (pass & 0xff) + (pass >> 8)
}

/// BBS effectual terms of one PE pass over the kept columns: per column
/// and per sub-group of 8 lanes, `min(ones, 8 - ones)`. `build_profile`
/// computes the same per group, with one [`subgroup_useful`] for all of
/// its passes.
#[cfg(test)]
pub(crate) fn pass_useful(columns: &[u64], lane_lo: usize) -> u64 {
    pass_of(subgroup_useful(columns), lane_lo)
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
                let packed;
                let enc;
                let columns: &[u64] = if masks[0][c] {
                    // Sensitive: raw 8-bit storage, all 8 columns processed,
                    // so only these groups are packed here.
                    packed = PackedGroup::from_words_padded(chunk, group);
                    stored_bits_sampled += (group * WEIGHT_BITS) as u64;
                    packed.columns()
                } else {
                    enc = self.prune.pruner.compress_padded(chunk, group);
                    stored_bits_sampled += enc.stored_bits() as u64;
                    enc.kept_columns()
                };
                // One PE pass per 16 lanes, each a cycle per kept column.
                let useful = subgroup_useful(columns);
                for pass in 0..passes_per_group {
                    builder.push_group(columns.len() as u32, pass_of(useful, pass * PE_GROUP));
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

    /// Both presets' profiles at serve's default cap, pinned over every
    /// layer of the four serve models: FNV-1a over each layer's
    /// per-channel `(cycles, useful)` totals, `stored_bits_sampled` and
    /// `index_bits`. The golden transcript prints only rounded cycle
    /// figures at a smaller cap; these digests see every pass, so the
    /// selection, the encoders and `pass_useful` may change how they
    /// compute a profile but never the profile.
    #[test]
    fn bitvert_profiles_are_pinned_at_the_serve_cap() {
        let digest = |bv: &BitVert, layers: &[LayerWorkload]| {
            let mut h = bbs_json::Fnv1a64::new();
            for wl in layers {
                let entry = bv.build_profile(wl);
                for &(cycles, useful) in &entry.profile.totals {
                    h.write(&cycles.to_le_bytes());
                    h.write(&useful.to_le_bytes());
                }
                h.write(&entry.stored_bits_sampled.to_le_bytes());
                h.write(&entry.index_bits.to_le_bytes());
            }
            h.finish()
        };
        let models = [
            zoo::vit_small(),
            zoo::resnet34(),
            zoo::bert_sst2(),
            zoo::vgg16(),
        ];
        let digests: Vec<(&str, u64, u64)> = models
            .iter()
            .map(|m| {
                let layers = lower_model(m, 7, 4096);
                (
                    m.name,
                    digest(&BitVert::moderate(), &layers),
                    digest(&BitVert::conservative(), &layers),
                )
            })
            .collect();
        let pinned: [(&str, u64, u64); 4] = [
            ("ViT-Small", 0x7c97_d098_eebf_9ca1, 0x6cd2_82e1_4b44_3975),
            ("ResNet-34", 0xd6cf_7a77_42ab_815d, 0xd2fc_0fd3_2845_2522),
            ("Bert-SST2", 0x7b16_5bb2_ead7_aed3, 0xc643_a053_11b1_5db2),
            ("VGG-16", 0x58d0_c6ab_c229_7293, 0xc23f_7bd6_881d_ae73),
        ];
        assert_eq!(digests, pinned);
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
