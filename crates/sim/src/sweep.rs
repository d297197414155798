//! Grid sweeps: a compact spec that expands into simulation cells.
//!
//! The paper's headline results (Figs. 12/13) are grids over models ×
//! accelerators × array configs, and related design-space explorations
//! (BitWave column sweeps, precision-scalable dataflow grids) have the
//! same shape. [`SweepSpec`] is the shared description of such a grid:
//! five axes whose cross product expands — in one deterministic,
//! row-major order, [`SweepCell::at`] — into [`SweepCell`]s. The
//! `bbs-serve` `/sweep` route expands its decoded grids with the same
//! function and keys each cell with [`crate::json::sim_request_key`], so a
//! sweep cell and a single `/simulate` request for the same point
//! coalesce onto one computation.
//!
//! Cells of one `(model, seed, cap)` triple share a lowering: run sweeps
//! through [`crate::engine::simulate_with`] and a
//! [`crate::store::WorkloadStore`], never bare `simulate` in a loop.

use crate::config::ArrayConfig;
use bbs_models::ModelSpec;

/// A grid of simulation points: the cross product of five axes.
///
/// Axis order is load-bearing: cells expand model-major, then
/// accelerator, then config, then seed, then cap (the innermost axis),
/// and every consumer of a sweep — the `bbs-serve` `/sweep` scheduler,
/// the `--via-serve` figure paths — relies on [`SweepCell::index`]
/// following that order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Models to sweep (full layer tables, not just names).
    pub models: Vec<ModelSpec>,
    /// Accelerator names. Use the canonical `bbs-serve` registry ids
    /// (`stripes`, `bitvert-moderate`, ...).
    pub accelerators: Vec<String>,
    /// Array geometries / memory systems.
    pub configs: Vec<ArrayConfig>,
    /// Weight-synthesis seeds.
    pub seeds: Vec<u64>,
    /// Per-layer synthesized-weight caps.
    pub caps: Vec<usize>,
}

/// One point of a [`SweepSpec`] grid, addressed by axis indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Flat position in expansion order (`0..cell_count`).
    pub index: usize,
    /// Index into [`SweepSpec::models`].
    pub model: usize,
    /// Index into [`SweepSpec::accelerators`].
    pub accelerator: usize,
    /// Index into [`SweepSpec::configs`].
    pub config: usize,
    /// Index into [`SweepSpec::seeds`].
    pub seed: usize,
    /// Index into [`SweepSpec::caps`].
    pub cap: usize,
}

impl SweepSpec {
    /// A single-config, single-seed, single-cap grid — the common
    /// figure-sweep shape (models × accelerators).
    pub fn grid(
        models: Vec<ModelSpec>,
        accelerators: Vec<String>,
        config: ArrayConfig,
        seed: u64,
        cap: usize,
    ) -> SweepSpec {
        SweepSpec {
            models,
            accelerators,
            configs: vec![config],
            seeds: vec![seed],
            caps: vec![cap],
        }
    }

    /// Total cells in the grid, or `None` if any axis is empty or the
    /// product overflows.
    pub fn cell_count(&self) -> Option<usize> {
        self.dims().iter().try_fold(
            1usize,
            |acc, &n| {
                if n == 0 {
                    None
                } else {
                    acc.checked_mul(n)
                }
            },
        )
    }

    /// The axis lengths, outermost first: models, accelerators, configs,
    /// seeds, caps.
    fn dims(&self) -> [usize; 5] {
        [
            self.models.len(),
            self.accelerators.len(),
            self.configs.len(),
            self.seeds.len(),
            self.caps.len(),
        ]
    }

    /// Expands the grid in its deterministic row-major order (model
    /// outermost, cap innermost). Empty if any axis is empty.
    pub fn cells(&self) -> Vec<SweepCell> {
        let dims = self.dims();
        (0..self.cell_count().unwrap_or(0))
            .map(|i| SweepCell::at(i, dims))
            .collect()
    }
}

impl SweepCell {
    /// The cell at flat position `index` of a grid with axis lengths
    /// `dims` (models, accelerators, configs, seeds, caps): the one
    /// row-major expansion, model outermost and cap innermost.
    ///
    /// # Panics
    ///
    /// Panics if an axis is empty.
    pub fn at(index: usize, dims: [usize; 5]) -> SweepCell {
        let [_, na, nc, ns, nw] = dims;
        let (rest, cap) = (index / nw, index % nw);
        let (rest, seed) = (rest / ns, rest % ns);
        let (rest, config) = (rest / nc, rest % nc);
        let (model, accelerator) = (rest / na, rest % na);
        SweepCell {
            index,
            model,
            accelerator,
            config,
            seed,
            cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::zoo;

    fn spec() -> SweepSpec {
        SweepSpec {
            models: vec![zoo::vit_small(), zoo::resnet34()],
            accelerators: vec!["stripes".to_string(), "bitwave".to_string()],
            configs: vec![
                ArrayConfig::paper_16x32(),
                ArrayConfig::paper_16x32().with_pe_cols(8),
            ],
            seeds: vec![7, 8],
            caps: vec![256, 512],
        }
    }

    #[test]
    fn expansion_is_row_major_and_complete() {
        let s = spec();
        let cells = s.cells();
        assert_eq!(cells.len(), 32);
        assert_eq!(s.cell_count(), Some(32));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Cap is the innermost axis, model the outermost.
        assert_eq!((cells[0].model, cells[0].cap), (0, 0));
        assert_eq!((cells[1].model, cells[1].cap), (0, 1));
        assert_eq!(cells[16].model, 1);
        // Accelerator advances every |configs|*|seeds|*|caps| = 8 cells.
        assert_eq!(cells[7].accelerator, 0);
        assert_eq!(cells[8].accelerator, 1);
    }

    #[test]
    fn empty_axis_means_no_cells() {
        let mut s = spec();
        s.seeds.clear();
        assert_eq!(s.cell_count(), None);
        assert!(s.cells().is_empty());
    }
}
