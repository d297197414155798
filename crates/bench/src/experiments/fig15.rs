//! Figure 15: execution-cycle breakdown (useful PE work, intra-PE stall,
//! inter-PE stall) as PE columns scale.
//!
//! The figure is one grid run by [`crate::grid_results`]: ResNet-50 × the
//! four bit-serial designs × the paper's array at each column count.

use crate::{display_names, paper_grid, Cell, Table};
use bbs_models::zoo;
use bbs_sim::ArrayConfig;

/// The column counts the figure plots.
const COLUMNS: [usize; 3] = [8, 16, 32];

/// The designs the figure plots, as registry ids.
const IDS: [&str; 4] = ["pragmatic", "bitlet", "bitwave", "bitvert-moderate"];

/// Regenerates Fig. 15.
pub fn run() {
    let configs = COLUMNS.map(|cols| ArrayConfig::paper_16x32().with_pe_cols(cols));
    let grid = paper_grid(vec![zoo::resnet50()], &IDS, configs.into(), None)
        .expect("registry ids run in process");
    let names = display_names(&IDS);
    let pct = |share: f64| Cell::template("{}%", &[(share * 100.0, 1)]);
    let mut rows = Vec::new();
    for ((_, results), cols) in grid.iter().zip(COLUMNS) {
        for (r, name) in results.iter().zip(&names) {
            let (useful, intra, inter) = r.stall_breakdown();
            rows.push(vec![
                Cell::num(cols as f64, 0),
                Cell::text(name),
                pct(useful),
                pct(intra),
                pct(inter),
                pct(r.memory_stall_fraction()),
            ]);
        }
    }
    let table = Table::new(
        "Fig. 15 (ResNet-50) — cycle breakdown vs PE columns (paper: Pragmatic/Bitlet lose to intra+inter stalls as columns grow; BitVert keeps inter-PE minimal)",
        &["PE cols", "accelerator", "useful", "intra-PE", "inter-PE", "mem stall"],
        rows,
    );
    print!("{}", table.render());
}
