//! Figure 13: energy consumption breakdown (off-chip memory vs on-chip
//! compute) normalized to SparTen.
//!
//! Like fig12, the table is one grid run by [`crate::grid_results`] in
//! process or through a `bbs-serve` `/sweep` route; energies ride the wire
//! in bit-exact shortest-round-trip form, so both paths produce the same
//! table.

use crate::{display_names, labelled, paper_grid, Cell, Table};
use bbs_models::zoo;
use bbs_sim::{ArrayConfig, SimResult};
use bbs_tensor::metrics::geomean;
use std::net::SocketAddr;

/// The Fig. 13 lineup as registry ids (SparTen first — it is the
/// normalization baseline).
const LINEUP: [&str; 8] = [
    "sparten",
    "ant",
    "stripes",
    "pragmatic",
    "bitlet",
    "bitwave",
    "bitvert-conservative",
    "bitvert-moderate",
];

/// Fig. 13's table, computed in process (`via` = `None`) or by the server
/// at `via`: per benchmark, each accelerator's total energy over
/// SparTen's with its off-chip/on-chip split, then the geomeans of the
/// totals.
pub fn tables(via: Option<SocketAddr>) -> Result<Vec<Table>, String> {
    let grid = paper_grid(
        zoo::paper_benchmarks(),
        &LINEUP,
        vec![ArrayConfig::paper_16x32()],
        via,
    )?;
    let mut header = vec!["model".to_string()];
    header.extend(display_names(&LINEUP));

    let mut norm_totals: Vec<Vec<f64>> = vec![Vec::new(); LINEUP.len()];
    let mut rows = Vec::new();
    for (model, results) in &grid {
        let breakdowns: Vec<_> = results.iter().map(SimResult::energy_breakdown).collect();
        let base = breakdowns[0].total_pj();
        let cells = breakdowns.iter().zip(&mut norm_totals).map(|(b, totals)| {
            let total = b.total_pj() / base;
            totals.push(total);
            Cell::template(
                "{} ({}/{})",
                &[
                    (total, 2),
                    (b.dram_pj / base, 2),
                    (b.on_chip_pj() / base, 2),
                ],
            )
        });
        rows.push(labelled(model, cells));
    }
    rows.push(labelled(
        "geomean",
        norm_totals.iter().map(|v| Cell::num(geomean(v), 2)),
    ));
    let paper = [
        "1.00", "~0.6", "0.57", "0.59", "0.63", "0.52", "0.47", "0.41",
    ];
    rows.push(labelled("paper geomean", paper.map(Cell::text)));
    Ok(vec![Table::new(
        "Fig. 13 — total energy normalized to SparTen, cells show total (off-chip/on-chip); lower is better",
        &header,
        rows,
    )])
}

/// Regenerates Fig. 13.
pub fn run() {
    for table in tables(None).expect("registry ids run in process") {
        print!("{}", table.render());
    }
}
