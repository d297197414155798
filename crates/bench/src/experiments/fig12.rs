//! Figure 12: end-to-end speedup over Stripes for all accelerators on the
//! seven benchmarks.
//!
//! The table is one grid, the benchmarks × every registry accelerator,
//! run by [`crate::grid_results`] in process or, with `--via-serve`,
//! through a `bbs-serve` `/sweep` route. Cycle counts ride the wire as
//! exact integers, so both paths render byte-identical output (diffed in
//! CI).

use crate::{display_names, f, paper_grid, print_table};
use bbs_json::Json;
use bbs_serve::registry::ACCELERATOR_IDS;
use bbs_tensor::metrics::geomean;
use std::net::SocketAddr;

/// Speedups over Stripes per benchmark: one value per accelerator of
/// `ACCELERATOR_IDS[1..]` (the registry lists Stripes, the normalization
/// baseline, first).
pub type Speedups = Vec<(&'static str, Vec<f64>)>;

/// Fig. 12's table, computed in process (`via` = `None`) or by the server
/// at `via`.
pub fn table(via: Option<SocketAddr>) -> Result<Speedups, String> {
    Ok(paper_grid(&ACCELERATOR_IDS, via)?
        .into_iter()
        .map(|(model, row)| {
            let stripes = row[0].total_cycles() as f64;
            let speedups = row[1..]
                .iter()
                .map(|r| stripes / r.total_cycles() as f64)
                .collect();
            (model, speedups)
        })
        .collect())
}

/// The geomean of each accelerator's speedups over the benchmarks.
fn geomeans(table: &Speedups) -> Vec<f64> {
    (0..ACCELERATOR_IDS.len() - 1)
        .map(|col| geomean(&table.iter().map(|(_, row)| row[col]).collect::<Vec<_>>()))
        .collect()
}

/// Fig. 12 as machine-readable JSON (the `--json` output mode): raw
/// speedups per model plus the geomean row, keyed by accelerator name.
pub fn to_json(table: &Speedups) -> Json {
    let rows = table
        .iter()
        .map(|(model, speedups)| {
            Json::obj(vec![
                ("model", Json::str(model)),
                (
                    "speedup",
                    Json::Arr(speedups.iter().copied().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("figure", Json::str("fig12")),
        ("baseline", Json::str("Stripes")),
        (
            "accelerators",
            Json::Arr(
                display_names(&ACCELERATOR_IDS[1..])
                    .iter()
                    .map(|n| Json::str(n))
                    .collect(),
            ),
        ),
        ("rows", Json::Arr(rows)),
        (
            "geomean",
            Json::Arr(geomeans(table).into_iter().map(Json::Num).collect()),
        ),
    ])
}

/// Prints Fig. 12 as a text table.
pub fn print(table: &Speedups) {
    let mut header = vec!["model".to_string()];
    header.extend(display_names(&ACCELERATOR_IDS[1..]));

    let mut rows: Vec<Vec<String>> = table
        .iter()
        .map(|(model, speedups)| {
            let mut row = vec![model.to_string()];
            row.extend(speedups.iter().map(|&s| f(s, 2)));
            row
        })
        .collect();
    let mut geo = vec!["geomean".to_string()];
    geo.extend(geomeans(table).into_iter().map(|g| f(g, 2)));
    rows.push(geo);
    let mut paper = vec!["paper geomean".to_string()];
    paper.extend(
        ["~1.0", "~1.5", "~1.3", "~1.5", "~1.8", "2.48", "3.03"]
            .iter()
            .map(|s| s.to_string()),
    );
    rows.push(paper);

    print_table(
        "Fig. 12 — speedup normalized to Stripes (higher is better)",
        &header,
        &rows,
    );
}

/// Regenerates Fig. 12.
pub fn run() {
    print(&table(None).expect("registry ids run in process"));
}
