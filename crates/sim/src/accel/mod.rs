//! The accelerator performance-model interface and shared machinery.
//!
//! Bit-serial accelerators are modelled through per-group latencies driven
//! by real weight bit patterns, summed per channel into a
//! [`LatencyProfile`]; [`wave_schedule`] then plays the PE-array
//! synchronization one channel tile at a time: each PE column drains its
//! channel's groups at its own pace and the tile ends with the slowest
//! column (the inter-PE loss of Figs. 14/15), while idle lanes inside a
//! busy PE accrue intra-PE loss. Lock-step synchronization after every
//! group ([`wave_schedule_lockstep`]) is Ablation C's contrast; no
//! accelerator model runs it.

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

/// Per-channel latency/usefulness totals of one layer: each channel's
/// PE-pass cycles and effectual lane-cycles, summed over its weight groups.
///
/// Those two sums are all the per-tile [`wave_schedule`] reads, so the
/// profile is one pair per channel however many groups a channel has.
/// Construct via [`LatencyProfile::uniform`], [`ProfileBuilder`] or
/// [`LatencyProfile::from_nested`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyProfile {
    /// `(cycles, useful)` per channel.
    totals: Vec<(u64, u64)>,
}

impl LatencyProfile {
    /// A profile where every group of every channel costs `latency` cycles
    /// with `useful` effectual lane-cycles (the dense bit-serial designs).
    pub fn uniform(channels: usize, groups: usize, latency: u32, useful: u64) -> Self {
        let groups = groups as u64;
        LatencyProfile {
            totals: vec![(groups * latency as u64, groups * useful); channels],
        }
    }

    /// Sums nested per-channel rows (`[channel][group]`), as Ablation C
    /// and the tests write them.
    ///
    /// # Panics
    ///
    /// Panics if the two nestings differ in shape or group counts differ
    /// across channels.
    pub fn from_nested(latencies: &[Vec<u32>], useful: &[Vec<u64>]) -> Self {
        assert_eq!(latencies.len(), useful.len(), "channel counts differ");
        let mut b = ProfileBuilder::with_capacity(latencies.len());
        for (lat_row, use_row) in latencies.iter().zip(useful) {
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

    /// Approximate heap footprint (the per-channel totals), for the
    /// workload store's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        self.totals.len() * std::mem::size_of::<(u64, u64)>()
    }

    /// Whether the profile holds no channels.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }
}

/// Adds `(latency, useful)` pairs group by group, channel by channel, into
/// the per-channel totals of a [`LatencyProfile`]. Every memoizing
/// accelerator model fills its profile through this.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    /// Groups per channel, fixed by the first finished channel.
    groups: Option<usize>,
    /// Groups pushed to the open channel so far.
    row_len: usize,
    /// The open channel's running totals.
    open: (u64, u64),
    totals: Vec<(u64, u64)>,
}

impl ProfileBuilder {
    /// A builder sized for `channels` channels (a hint only: the built
    /// profile holds the channels that were finished).
    pub fn with_capacity(channels: usize) -> Self {
        ProfileBuilder {
            groups: None,
            row_len: 0,
            open: (0, 0),
            totals: Vec::with_capacity(channels),
        }
    }

    /// Adds one group to the open channel's totals.
    pub fn push_group(&mut self, latency: u32, useful: u64) {
        self.open.0 += latency as u64;
        self.open.1 += useful;
        self.row_len += 1;
    }

    /// Closes the open channel.
    ///
    /// # Panics
    ///
    /// Panics if the row's group count differs from the first channel's.
    pub fn finish_channel(&mut self) {
        let groups = *self.groups.get_or_insert(self.row_len);
        assert_eq!(self.row_len, groups, "group counts differ across channels");
        self.totals.push(std::mem::take(&mut self.open));
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
            totals: self.totals,
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

/// Plays `waves` onto `pe_cols` columns of `lanes`-lane PEs. A wave runs
/// one `(cycles, useful)` item on each column of a tile and ends when its
/// slowest column does: lanes idle inside a busy column are intra-PE loss,
/// and columns that finish early, or that a partial tile leaves empty, are
/// inter-PE loss.
fn play_waves<W>(waves: impl Iterator<Item = W>, pe_cols: usize, lanes: usize) -> WaveStats
where
    W: Iterator<Item = (u64, u64)> + Clone,
{
    let mut cycles: u64 = 0;
    let mut useful: f64 = 0.0;
    let mut intra: f64 = 0.0;
    let mut inter: f64 = 0.0;
    for columns in waves {
        let wave = columns.clone().map(|(lat, _)| lat).max().unwrap_or(0);
        if wave == 0 {
            continue;
        }
        cycles += wave;
        let mut busy = 0;
        for (lat, u) in columns {
            let u = u as f64;
            useful += u;
            intra += (lat * lanes as u64) as f64 - u;
            inter += ((wave - lat) * lanes as u64) as f64;
            busy += 1;
        }
        inter += ((pe_cols - busy) as u64 * wave * lanes as u64) as f64;
    }
    let total = (cycles * (pe_cols * lanes) as u64) as f64;
    WaveStats {
        cycles,
        useful_fraction: useful / total,
        intra_fraction: intra / total,
        inter_fraction: inter / total,
    }
}

/// Schedules a latency profile onto `pe_cols` columns of `lanes`-lane PEs,
/// output-stationary: channels are tiled across the columns, each column
/// drains its channel's groups at its own pace, and the tile completes at
/// the slowest column. Every accelerator model schedules this way.
///
/// # Panics
///
/// Panics if the profile is empty.
pub fn wave_schedule(profile: &LatencyProfile, pe_cols: usize, lanes: usize) -> WaveStats {
    assert!(!profile.is_empty());
    let tiles = profile.totals.chunks(pe_cols);
    play_waves(tiles.map(|tile| tile.iter().copied()), pe_cols, lanes)
}

/// The lock-step contrast to [`wave_schedule`] (Ablation C): every group
/// index is a barrier, so a tile's columns wait for the slowest of them
/// after each group, not once per tile. Takes nested `[channel][group]`
/// rows, since the barriers need every group.
///
/// # Panics
///
/// Panics if the profile is empty, the two nestings differ in channel
/// count, or group counts differ across rows.
pub fn wave_schedule_lockstep(
    latencies: &[Vec<u32>],
    useful: &[Vec<u64>],
    pe_cols: usize,
    lanes: usize,
) -> WaveStats {
    assert!(!latencies.is_empty());
    assert_eq!(latencies.len(), useful.len(), "channel counts differ");
    let (channels, groups) = (latencies.len(), latencies[0].len());
    assert!(
        latencies.iter().all(|r| r.len() == groups) && useful.iter().all(|r| r.len() == groups),
        "group counts differ across channels"
    );
    let waves = (0..channels).step_by(pe_cols).flat_map(|start| {
        let tile = start..(start + pe_cols).min(channels);
        (0..groups).map(move |g| {
            tile.clone()
                .map(move |c| (latencies[c][g] as u64, useful[c][g]))
        })
    });
    play_waves(waves, pe_cols, lanes)
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
    use crate::engine::simulate_lowered;
    use crate::workload::lower_model;
    use bbs_models::zoo;

    fn useful_of(lat: &[Vec<u32>]) -> Vec<Vec<u64>> {
        lat.iter()
            .map(|ch| ch.iter().map(|&l| (l as u64) * 4).collect())
            .collect()
    }

    fn profile(lat: Vec<Vec<u32>>) -> LatencyProfile {
        LatencyProfile::from_nested(&lat, &useful_of(&lat))
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
        let lat = vec![vec![2, 4], vec![6, 2]];
        let tile = wave_schedule(&profile(lat.clone()), 2, 8);
        let group = wave_schedule_lockstep(&lat, &useful_of(&lat), 2, 8);
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
        let _ = LatencyProfile::from_nested(&[vec![1, 2], vec![1]], &[vec![1, 2], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "unfinished channel row")]
    fn dangling_builder_row_rejected() {
        let mut b = ProfileBuilder::with_capacity(1);
        b.push_group(3, 1);
        let _ = b.build();
    }

    #[test]
    fn builder_uniform_and_nested_agree() {
        let mut b = ProfileBuilder::with_capacity(2);
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
            LatencyProfile::from_nested(&[vec![5; 3], vec![5; 3]], &[vec![7; 3], vec![7; 3]])
        );
    }

    /// A profile is one pair of totals per channel and synthesis keeps
    /// every channel at any cap, so a layer's memoized profiles take the
    /// same bytes however many weights per channel the cap samples. (At
    /// caps up to 4096 every ViT-Small layer samples one 32-weight group
    /// per channel; at 65536 its 384-channel layers sample five.)
    #[test]
    fn profile_bytes_do_not_grow_with_the_cap() {
        use crate::accel::{
            ant::Ant, bitlet::Bitlet, bitvert::BitVert, bitwave::BitWave, pragmatic::Pragmatic,
            sparten::SparTen, stripes::Stripes,
        };
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_small();
        let accelerators: [&dyn Accelerator; 8] = [
            &Stripes::new(),
            &SparTen::new(),
            &Ant::new(),
            &Pragmatic::new(),
            &Bitlet::new(),
            &BitWave::new(),
            &BitVert::conservative(),
            &BitVert::moderate(),
        ];
        let profile_bytes = |cap| {
            let layers = lower_model(&model, 7, cap);
            for accel in accelerators {
                simulate_lowered(accel, model.name, &layers, &cfg);
            }
            layers
                .iter()
                .map(|wl| wl.profiles.approx_bytes())
                .collect::<Vec<_>>()
        };
        let small = profile_bytes(256);
        assert!(small.iter().all(|&b| b > 0), "{small:?}");
        assert_eq!(small, profile_bytes(65536));
    }
}
