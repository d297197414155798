//! Figure 14: normalized speedup on ResNet-50 and Bert-MRPC as the number
//! of PE columns grows (load-imbalance scaling).
//!
//! The figure is one grid run by [`crate::grid_results`]: both models ×
//! Stripes and the four bit-serial designs × the paper's array at each
//! column count. Lowering is independent of the array geometry, so the
//! whole column sweep reuses one stored lowering per model.

use crate::{display_names, paper_grid, Cell, Table};
use bbs_models::zoo;
use bbs_sim::ArrayConfig;

/// The Fig. 14 column sweep.
pub const COLUMN_SWEEP: [usize; 5] = [2, 4, 8, 16, 32];

/// Stripes, the normalization baseline, then the designs the figure
/// plots, as registry ids.
const IDS: [&str; 5] = [
    "stripes",
    "pragmatic",
    "bitlet",
    "bitwave",
    "bitvert-moderate",
];

/// Regenerates Fig. 14.
pub fn run() {
    let configs = COLUMN_SWEEP.map(|cols| ArrayConfig::paper_16x32().with_pe_cols(cols));
    let grid = paper_grid(
        vec![zoo::resnet50(), zoo::bert_mrpc()],
        &IDS,
        configs.into(),
        None,
    )
    .expect("registry ids run in process");
    let mut header = vec!["PE cols".to_string()];
    header.extend(display_names(&IDS[1..]));
    for model_rows in grid.chunks(COLUMN_SWEEP.len()) {
        let rows = model_rows
            .iter()
            .zip(COLUMN_SWEEP)
            .map(|((_, results), cols)| {
                let stripes = results[0].total_cycles() as f64;
                let speedups = results[1..]
                    .iter()
                    .map(|r| Cell::num(stripes / r.total_cycles() as f64, 2));
                std::iter::once(Cell::num(cols as f64, 0))
                    .chain(speedups)
                    .collect()
            })
            .collect();
        let table = Table::new(
            format!(
                "Fig. 14 ({}) — speedup over Stripes vs PE columns (paper: Pragmatic/Bitlet degrade, BitWave/BitVert stay flat; Bitlet on Bert drops 1.63->1.35)",
                model_rows[0].0
            ),
            &header,
            rows,
        );
        print!("{}", table.render());
    }
}
