//! Figure 12: end-to-end speedup over Stripes for all accelerators on the
//! seven benchmarks.
//!
//! The table is one grid, the benchmarks × every registry accelerator,
//! run by [`crate::grid_results`] in process or, with `--via-serve`,
//! through a `bbs-serve` `/sweep` route. Cycle counts ride the wire as
//! exact integers, so both paths produce the same table (diffed in CI).

use crate::{display_names, labelled, paper_grid, Cell, Table};
use bbs_models::zoo;
use bbs_serve::registry::ACCELERATOR_IDS;
use bbs_sim::ArrayConfig;
use bbs_tensor::metrics::geomean;
use std::net::SocketAddr;

/// Fig. 12's table, computed in process (`via` = `None`) or by the server
/// at `via`: per benchmark, the speedup over Stripes of each accelerator
/// of `ACCELERATOR_IDS[1..]` (the registry lists Stripes, the
/// normalization baseline, first), then their geomeans.
pub fn tables(via: Option<SocketAddr>) -> Result<Vec<Table>, String> {
    let grid = paper_grid(
        zoo::paper_benchmarks(),
        &ACCELERATOR_IDS,
        vec![ArrayConfig::paper_16x32()],
        via,
    )?;
    let speedups: Vec<Vec<f64>> = grid
        .iter()
        .map(|(_, row)| {
            let stripes = row[0].total_cycles() as f64;
            row[1..]
                .iter()
                .map(|r| stripes / r.total_cycles() as f64)
                .collect()
        })
        .collect();
    let geomeans = (0..ACCELERATOR_IDS.len() - 1)
        .map(|col| geomean(&speedups.iter().map(|row| row[col]).collect::<Vec<_>>()));

    let mut header = vec!["model".to_string()];
    header.extend(display_names(&ACCELERATOR_IDS[1..]));
    let mut rows: Vec<Vec<Cell>> = grid
        .iter()
        .zip(&speedups)
        .map(|((model, _), row)| labelled(model, row.iter().map(|&s| Cell::num(s, 2))))
        .collect();
    rows.push(labelled("geomean", geomeans.map(|g| Cell::num(g, 2))));
    let paper = ["~1.0", "~1.5", "~1.3", "~1.5", "~1.8", "2.48", "3.03"];
    rows.push(labelled("paper geomean", paper.map(Cell::text)));
    Ok(vec![Table::new(
        "Fig. 12 — speedup normalized to Stripes (higher is better)",
        &header,
        rows,
    )])
}

/// Regenerates Fig. 12.
pub fn run() {
    for table in tables(None).expect("registry ids run in process") {
        print!("{}", table.render());
    }
}
