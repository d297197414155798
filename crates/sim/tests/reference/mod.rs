//! The retained nested-`Vec` wave scheduler — the pre-flat-profile
//! implementation, kept verbatim as the bit-identity oracle for
//! `bbs_sim::accel::wave_schedule_with`. It allocates per channel and
//! walks the nested rows twice per tile, so it lives with the property
//! tests, which require exact `u64`/`f64` agreement on random profiles.

use bbs_sim::accel::{SyncGranularity, WaveStats};

/// Per-channel, per-group latency/usefulness rows in the historical
/// nested representation.
#[derive(Debug, Clone, Default)]
pub struct NestedProfile {
    /// `latencies[channel][group]` — PE-pass cycles.
    pub latencies: Vec<Vec<u32>>,
    /// `useful[channel][group]` — effectual lane-cycles in that pass.
    pub useful: Vec<Vec<u64>>,
}

/// The original nested-row wave scheduler (see
/// `bbs_sim::accel::wave_schedule_with` for the semantics).
///
/// # Panics
///
/// Panics if the profile is empty or group counts differ across channels.
pub fn wave_schedule_nested(
    profile: &NestedProfile,
    pe_cols: usize,
    lanes: usize,
    sync: SyncGranularity,
) -> WaveStats {
    assert!(!profile.latencies.is_empty());
    let groups = profile.latencies[0].len();
    assert!(
        profile.latencies.iter().all(|c| c.len() == groups),
        "group counts differ across channels"
    );

    let channels = profile.latencies.len();
    let mut cycles: u64 = 0;
    let mut useful: f64 = 0.0;
    let mut intra: f64 = 0.0;
    let mut inter: f64 = 0.0;

    for tile_start in (0..channels).step_by(pe_cols) {
        let tile = tile_start..(tile_start + pe_cols).min(channels);
        let idle_cols = pe_cols - tile.len();
        match sync {
            SyncGranularity::PerGroup => {
                for g in 0..groups {
                    let wave = tile
                        .clone()
                        .map(|c| profile.latencies[c][g])
                        .max()
                        .unwrap_or(0) as u64;
                    if wave == 0 {
                        continue;
                    }
                    cycles += wave;
                    for c in tile.clone() {
                        let lat = profile.latencies[c][g] as u64;
                        let u = profile.useful[c][g] as f64;
                        useful += u;
                        intra += (lat * lanes as u64) as f64 - u;
                        inter += ((wave - lat) * lanes as u64) as f64;
                    }
                    inter += (idle_cols as u64 * wave * lanes as u64) as f64;
                }
            }
            SyncGranularity::PerTile => {
                let col_sum =
                    |c: usize| -> u64 { profile.latencies[c].iter().map(|&l| l as u64).sum() };
                let tile_cycles = tile.clone().map(col_sum).max().unwrap_or(0);
                if tile_cycles == 0 {
                    continue;
                }
                cycles += tile_cycles;
                for c in tile.clone() {
                    let lat = col_sum(c);
                    let u: f64 = profile.useful[c].iter().map(|&x| x as f64).sum();
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
