//! The accelerator performance-model interface and shared machinery.
//!
//! Bit-serial accelerators are modelled through per-group latencies driven
//! by real weight bit patterns; [`wave_schedule`] then plays the PE-array
//! synchronization: every *wave* processes one weight group per PE column
//! and stalls on the slowest one (the inter-PE loss of Figs. 14/15), while
//! idle lanes inside a busy PE accrue intra-PE loss.

pub mod ant;
pub mod bitlet;
pub mod bitvert;
pub mod bitwave;
pub mod pragmatic;
pub mod sparten;
pub mod stripes;

use crate::config::ArrayConfig;
use crate::workload::LayerWorkload;
use bbs_hw::pe::PeModel;

/// Per-layer performance output of an accelerator model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// Compute cycles for the full layer (extrapolated from the sample).
    pub compute_cycles: u64,
    /// Useful lane-cycles / total lane-cycles.
    pub useful_fraction: f64,
    /// Lane-cycles idle inside a busy PE / total.
    pub intra_fraction: f64,
    /// Lane-cycles idle waiting for slower PE columns / total.
    pub inter_fraction: f64,
    /// Weight bits fetched from DRAM.
    pub weight_dram_bits: u64,
    /// Activation bits moved to/from DRAM (inputs + outputs).
    pub act_dram_bits: u64,
    /// Weight bits read from the on-chip weight buffer.
    pub weight_sram_bits: u64,
    /// Activation bits through the on-chip activation buffer.
    pub act_sram_bits: u64,
}

/// An accelerator performance/energy model.
pub trait Accelerator: Send + Sync {
    /// Display name (as used in the paper's figures).
    fn name(&self) -> String;

    /// The PE composition for area/power.
    fn pe_model(&self) -> PeModel;

    /// Per-layer performance.
    fn layer_performance(&self, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerPerf;
}

/// Per-channel, per-group latency/usefulness profile of one layer.
///
/// Stored as two flat row-major buffers (`channels × groups` strides), so
/// building a profile is append-only and scheduling it is linear slice
/// walks — no per-channel heap allocations on the hot path. Construct via
/// [`LatencyProfile::uniform`], [`ProfileBuilder`] or
/// [`LatencyProfile::from_nested`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyProfile {
    channels: usize,
    groups: usize,
    /// PE-pass cycles, `[channel * groups + group]`.
    latencies: Vec<u32>,
    /// Effectual lane-cycles in that pass, `[channel * groups + group]`.
    useful: Vec<u64>,
}

impl LatencyProfile {
    /// A profile where every group of every channel costs `latency` cycles
    /// with `useful` effectual lane-cycles (the dense bit-serial designs).
    pub fn uniform(channels: usize, groups: usize, latency: u32, useful: u64) -> Self {
        LatencyProfile {
            channels,
            groups,
            latencies: vec![latency; channels * groups],
            useful: vec![useful; channels * groups],
        }
    }

    /// Converts nested per-channel rows (the historical representation,
    /// still used by tests and ad-hoc ablations).
    ///
    /// # Panics
    ///
    /// Panics if the two nestings differ in shape or group counts differ
    /// across channels.
    pub fn from_nested(latencies: Vec<Vec<u32>>, useful: Vec<Vec<u64>>) -> Self {
        assert_eq!(latencies.len(), useful.len(), "channel counts differ");
        let groups = latencies.first().map_or(0, Vec::len);
        let mut b = ProfileBuilder::with_capacity(latencies.len(), groups);
        for (lat_row, use_row) in latencies.iter().zip(&useful) {
            assert_eq!(
                lat_row.len(),
                use_row.len(),
                "latency/useful row lengths differ"
            );
            for (&l, &u) in lat_row.iter().zip(use_row) {
                b.push_group(l, u);
            }
            b.finish_channel();
        }
        b.build()
    }

    /// Approximate heap footprint (the two flat buffers), for the
    /// workload store's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        self.latencies.len() * std::mem::size_of::<u32>()
            + self.useful.len() * std::mem::size_of::<u64>()
    }

    /// Number of channels (profile rows).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Groups per channel.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether the profile holds no channels.
    pub fn is_empty(&self) -> bool {
        self.channels == 0
    }

    /// The latency row of channel `c`.
    fn latency_row(&self, c: usize) -> &[u32] {
        &self.latencies[c * self.groups..(c + 1) * self.groups]
    }

    /// The useful-lane-cycle row of channel `c`.
    fn useful_row(&self, c: usize) -> &[u64] {
        &self.useful[c * self.groups..(c + 1) * self.groups]
    }
}

/// Appends `(latency, useful)` pairs group by group, channel by channel,
/// into the flat buffers of a [`LatencyProfile`]. Every accelerator model
/// fills its profile through this — one pair of `Vec` grows, no per-channel
/// allocations.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    groups: usize,
    first_channel: bool,
    row_len: usize,
    channels: usize,
    latencies: Vec<u32>,
    useful: Vec<u64>,
}

impl ProfileBuilder {
    /// A builder sized for `channels × groups` entries (hints only — the
    /// built profile takes its true shape from what was pushed).
    pub fn with_capacity(channels: usize, groups: usize) -> Self {
        ProfileBuilder {
            groups,
            first_channel: true,
            row_len: 0,
            channels: 0,
            latencies: Vec::with_capacity(channels * groups),
            useful: Vec::with_capacity(channels * groups),
        }
    }

    /// Appends one group to the current channel.
    pub fn push_group(&mut self, latency: u32, useful: u64) {
        self.latencies.push(latency);
        self.useful.push(useful);
        self.row_len += 1;
    }

    /// Closes the current channel row.
    ///
    /// # Panics
    ///
    /// Panics if the row's group count differs from the first channel's.
    pub fn finish_channel(&mut self) {
        if self.first_channel {
            self.groups = self.row_len;
            self.first_channel = false;
        } else {
            assert_eq!(
                self.row_len, self.groups,
                "group counts differ across channels"
            );
        }
        self.channels += 1;
        self.row_len = 0;
    }

    /// Finalizes the profile.
    ///
    /// # Panics
    ///
    /// Panics if groups were pushed after the last [`finish_channel`]
    /// (a dangling partial row).
    ///
    /// [`finish_channel`]: ProfileBuilder::finish_channel
    pub fn build(self) -> LatencyProfile {
        assert_eq!(self.row_len, 0, "unfinished channel row");
        LatencyProfile {
            channels: self.channels,
            groups: self.groups,
            latencies: self.latencies,
            useful: self.useful,
        }
    }
}

/// Result of playing a latency profile through the PE array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveStats {
    /// Cycles over the sampled groups (one position tile).
    pub cycles: u64,
    /// Useful lane-cycle fraction.
    pub useful_fraction: f64,
    /// Intra-PE stall fraction.
    pub intra_fraction: f64,
    /// Inter-PE stall fraction.
    pub inter_fraction: f64,
}

/// When PE columns synchronize with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncGranularity {
    /// Lock-step: every group index is a barrier (worst-case coupling; the
    /// ablation point for schedulers without per-column buffering).
    PerGroup,
    /// Output-stationary: each column drains its channel's groups at its
    /// own pace and the array synchronizes when the channel tile finishes
    /// (the default, matching the buffered designs the paper compares).
    PerTile,
}

/// Schedules a latency profile onto `pe_cols` columns of `lanes`-lane PEs:
/// channels are tiled across columns; the tile completes at the slowest
/// column (`PerTile`) or every group completes at the slowest column
/// (`PerGroup`).
///
/// Runs on the flat profile buffers: the per-tile path reduces each
/// channel's latency/useful rows in one linear pass, then plays the tile
/// arithmetic on those per-channel sums. Bit-identical to the nested-`Vec`
/// scheduler it replaced, which the property tests keep as their oracle.
///
/// # Panics
///
/// Panics if the profile is empty.
pub fn wave_schedule_with(
    profile: &LatencyProfile,
    pe_cols: usize,
    lanes: usize,
    sync: SyncGranularity,
) -> WaveStats {
    assert!(!profile.is_empty());
    let groups = profile.groups();
    let channels = profile.channels();
    let mut cycles: u64 = 0;
    let mut useful: f64 = 0.0;
    let mut intra: f64 = 0.0;
    let mut inter: f64 = 0.0;

    match sync {
        SyncGranularity::PerGroup => {
            for tile_start in (0..channels).step_by(pe_cols) {
                let tile = tile_start..(tile_start + pe_cols).min(channels);
                let idle_cols = pe_cols - tile.len();
                for g in 0..groups {
                    let wave = tile
                        .clone()
                        .map(|c| profile.latencies[c * groups + g])
                        .max()
                        .unwrap_or(0) as u64;
                    if wave == 0 {
                        continue;
                    }
                    cycles += wave;
                    for c in tile.clone() {
                        let lat = profile.latencies[c * groups + g] as u64;
                        let u = profile.useful[c * groups + g] as f64;
                        useful += u;
                        intra += (lat * lanes as u64) as f64 - u;
                        inter += ((wave - lat) * lanes as u64) as f64;
                    }
                    inter += (idle_cols as u64 * wave * lanes as u64) as f64;
                }
            }
        }
        SyncGranularity::PerTile => {
            // One linear pass folds every channel row to (cycle, useful)
            // sums; the tile loop below then never touches the groups axis.
            let col_stats: Vec<(u64, f64)> = (0..channels)
                .map(|c| {
                    let lat: u64 = profile.latency_row(c).iter().map(|&l| l as u64).sum();
                    let u: f64 = profile.useful_row(c).iter().map(|&x| x as f64).sum();
                    (lat, u)
                })
                .collect();
            for tile_stats in col_stats.chunks(pe_cols) {
                let idle_cols = pe_cols - tile_stats.len();
                let tile_cycles = tile_stats.iter().map(|&(lat, _)| lat).max().unwrap_or(0);
                if tile_cycles == 0 {
                    continue;
                }
                cycles += tile_cycles;
                for &(lat, u) in tile_stats {
                    useful += u;
                    intra += (lat * lanes as u64) as f64 - u;
                    inter += ((tile_cycles - lat) * lanes as u64) as f64;
                }
                inter += (idle_cols as u64 * tile_cycles * lanes as u64) as f64;
            }
        }
    }

    let total = (cycles * (pe_cols * lanes) as u64) as f64;
    WaveStats {
        cycles,
        useful_fraction: useful / total,
        intra_fraction: intra / total,
        inter_fraction: inter / total,
    }
}

/// [`wave_schedule_with`] at the default [`SyncGranularity::PerTile`].
pub fn wave_schedule(profile: &LatencyProfile, pe_cols: usize, lanes: usize) -> WaveStats {
    wave_schedule_with(profile, pe_cols, lanes, SyncGranularity::PerTile)
}

/// Folds an accelerator's profile-shaping parameters into a
/// [`crate::workload::ProfileMemo`] key (FNV-1a over the little-endian
/// words, via the workspace's one [`bbs_json::fnv1a_64`]). The first word
/// must be the accelerator's unique tag; the rest every parameter the
/// profile depends on — the array configuration must *not* be included
/// (profiles are config-independent by construction).
pub fn profile_key(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bbs_json::fnv1a_64(&bytes)
}

/// Position tiles of a layer on the array (output-stationary rows).
pub fn position_tiles(wl: &LayerWorkload, cfg: &ArrayConfig) -> u64 {
    (wl.positions as u64).div_ceil(cfg.pe_rows as u64)
}

/// Extrapolates sampled per-position-tile cycles to the full layer.
pub fn extrapolate_cycles(sampled_cycles: u64, wl: &LayerWorkload, cfg: &ArrayConfig) -> u64 {
    let per_tile = (sampled_cycles as f64 * wl.sample_factor).ceil() as u64;
    per_tile * position_tiles(wl, cfg)
}

/// Dense 8-bit memory traffic (weights and activations) shared by the
/// uncompressed bit-serial designs.
pub fn dense_traffic(
    wl: &LayerWorkload,
    cfg: &ArrayConfig,
    weight_bits_per_elem: f64,
) -> (u64, u64, u64, u64) {
    let weight_bits = (wl.params() as f64 * weight_bits_per_elem) as u64;
    let input_bits = (wl.unique_input_elems * 8) as u64;
    let output_bits = (wl.output_elems() * 8) as u64;
    let act_dram = input_bits + output_bits;
    let channel_tiles = (wl.channels as u64).div_ceil(cfg.pe_cols as u64);
    let weight_sram = weight_bits * position_tiles(wl, cfg);
    let act_sram = input_bits * channel_tiles + output_bits;
    (weight_bits, act_dram, weight_sram, act_sram)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(lat: Vec<Vec<u32>>) -> LatencyProfile {
        let useful = lat
            .iter()
            .map(|ch| ch.iter().map(|&l| (l as u64) * 4).collect())
            .collect();
        LatencyProfile::from_nested(lat, useful)
    }

    #[test]
    fn per_tile_takes_max_of_column_sums() {
        let p = profile(vec![vec![2, 4], vec![6, 2]]);
        let s = wave_schedule(&p, 2, 8);
        // Column sums: 6 and 8 -> tile completes at 8.
        assert_eq!(s.cycles, 8);
        let sum = s.useful_fraction + s.intra_fraction + s.inter_fraction;
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        assert!(s.inter_fraction > 0.0);
    }

    #[test]
    fn per_group_sync_is_never_faster() {
        let p = profile(vec![vec![2, 4], vec![6, 2]]);
        let tile = wave_schedule_with(&p, 2, 8, SyncGranularity::PerTile);
        let group = wave_schedule_with(&p, 2, 8, SyncGranularity::PerGroup);
        // Lock-step: max(2,6) + max(4,2) = 10 >= 8.
        assert_eq!(group.cycles, 10);
        assert!(group.cycles >= tile.cycles);
    }

    #[test]
    fn balanced_profile_has_no_inter_stall() {
        let p = profile(vec![vec![4, 4], vec![4, 4]]);
        let s = wave_schedule(&p, 2, 8);
        assert_eq!(s.cycles, 8);
        assert!(s.inter_fraction.abs() < 1e-12);
        // useful = 4 of 8 lanes each cycle.
        assert!((s.useful_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn more_columns_worsen_imbalance() {
        // Channels with increasingly slow totals: wider tiles couple more
        // disparate columns together.
        let lat: Vec<Vec<u32>> = (0..8).map(|c| vec![2 + (c % 4) as u32; 8]).collect();
        let narrow = wave_schedule(&profile(lat.clone()), 2, 8);
        let wide = wave_schedule(&profile(lat), 8, 8);
        assert!(
            wide.inter_fraction > narrow.inter_fraction,
            "wide {} vs narrow {}",
            wide.inter_fraction,
            narrow.inter_fraction
        );
    }

    #[test]
    fn partial_tile_counts_as_inter_stall() {
        let p = profile(vec![vec![4, 4]; 3]); // 3 channels on 2 columns
        let s = wave_schedule(&p, 2, 8);
        assert!(s.inter_fraction > 0.2, "idle column must show as stall");
    }

    #[test]
    #[should_panic(expected = "group counts")]
    fn mismatched_groups_rejected() {
        let _ = LatencyProfile::from_nested(vec![vec![1, 2], vec![1]], vec![vec![1, 2], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "unfinished channel row")]
    fn dangling_builder_row_rejected() {
        let mut b = ProfileBuilder::with_capacity(1, 2);
        b.push_group(3, 1);
        let _ = b.build();
    }

    #[test]
    fn builder_uniform_and_nested_agree() {
        let mut b = ProfileBuilder::with_capacity(2, 3);
        for _ in 0..2 {
            for _ in 0..3 {
                b.push_group(5, 7);
            }
            b.finish_channel();
        }
        let built = b.build();
        assert_eq!(built, LatencyProfile::uniform(2, 3, 5, 7));
        assert_eq!(
            built,
            LatencyProfile::from_nested(vec![vec![5; 3]; 2], vec![vec![7; 3]; 2])
        );
        assert_eq!(built.latency_row(1), &[5, 5, 5]);
        assert_eq!(built.useful_row(0), &[7, 7, 7]);
    }
}
