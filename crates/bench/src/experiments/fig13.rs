//! Figure 13: energy consumption breakdown (off-chip memory vs on-chip
//! compute) normalized to SparTen.
//!
//! Like fig12, the table is one grid run by [`crate::grid_results`] in
//! process or through a `bbs-serve` `/sweep` route; energies ride the wire
//! in bit-exact shortest-round-trip form, so both paths render
//! byte-identical output.

use crate::{display_names, f, paper_grid, print_table};
use bbs_hw::energy::EnergyBreakdown;
use bbs_hw::json::energy_breakdown_to_json;
use bbs_json::Json;
use bbs_sim::SimResult;
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

/// Energy breakdowns per benchmark, one per accelerator of the lineup.
pub type Energies = Vec<(&'static str, Vec<EnergyBreakdown>)>;

/// Fig. 13's table, computed in process (`via` = `None`) or by the server
/// at `via`.
pub fn table(via: Option<SocketAddr>) -> Result<Energies, String> {
    Ok(paper_grid(&LINEUP, via)?
        .into_iter()
        .map(|(model, row)| (model, row.iter().map(SimResult::energy_breakdown).collect()))
        .collect())
}

/// Fig. 13 as machine-readable JSON (the `--json` output mode): absolute
/// per-accelerator energy breakdowns (via the shared serialization layer)
/// plus the SparTen-normalized totals the figure plots.
pub fn to_json(table: &Energies) -> Json {
    let names = display_names(&LINEUP);
    let rows: Vec<Json> = table
        .iter()
        .map(|(model, breakdowns)| {
            // SparTen is lineup column 0 — the normalization base.
            let base = breakdowns[0].total_pj();
            let cells: Vec<Json> = names
                .iter()
                .zip(breakdowns)
                .map(|(name, b)| {
                    Json::obj(vec![
                        ("accelerator", Json::str(name)),
                        ("energy_pj", energy_breakdown_to_json(b)),
                        ("normalized_total", Json::Num(b.total_pj() / base)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("model", Json::str(model)),
                ("breakdown", Json::Arr(cells)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("figure", Json::str("fig13")),
        ("baseline", Json::str("SparTen")),
        (
            "accelerators",
            Json::Arr(names.iter().map(|n| Json::str(n)).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Prints Fig. 13 as a text table.
pub fn print(table: &Energies) {
    let mut header = vec!["model".to_string()];
    header.extend(display_names(&LINEUP));

    let mut norm_totals: Vec<Vec<f64>> = vec![Vec::new(); LINEUP.len()];
    let mut rows = Vec::new();
    for (model, breakdowns) in table {
        let base = breakdowns[0].total_pj();
        let mut row = vec![model.to_string()];
        for (col, b) in breakdowns.iter().enumerate() {
            let total = b.total_pj() / base;
            norm_totals[col].push(total);
            row.push(format!(
                "{} ({}/{})",
                f(total, 2),
                f(b.dram_pj / base, 2),
                f(b.on_chip_pj() / base, 2)
            ));
        }
        rows.push(row);
    }
    let mut geo = vec!["geomean".to_string()];
    geo.extend(norm_totals.iter().map(|v| f(geomean(v), 2)));
    rows.push(geo);
    let mut paper = vec!["paper geomean".to_string()];
    paper.extend(
        [
            "1.00", "~0.6", "0.57", "0.59", "0.63", "0.52", "0.47", "0.41",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    rows.push(paper);

    print_table(
        "Fig. 13 — total energy normalized to SparTen, cells show total (off-chip/on-chip); lower is better",
        &header,
        &rows,
    );
}

/// Regenerates Fig. 13.
pub fn run() {
    print(&table(None).expect("registry ids run in process"));
}
