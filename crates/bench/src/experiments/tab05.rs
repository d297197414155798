//! Table V: PE area and power of BitVert vs prior bit-serial accelerators
//! (28 nm, 800 MHz, 8 bit-serial multipliers per PE).

use crate::{labelled, Cell, Table};
use bbs_hw::explore::pe_comparison;
use bbs_hw::gates::Technology;

/// Regenerates Table V.
pub fn run() {
    let mut rows: Vec<Vec<Cell>> = pe_comparison(&Technology::tsmc28())
        .into_iter()
        .map(|r| {
            let cells = [
                Cell::num(r.mult_area_um2, 1),
                Cell::num(r.other_area_um2, 1),
                Cell::num(r.total_area_um2, 1),
                Cell::template("{}x", &[(r.ratio_vs_stripes, 2)]),
                Cell::num(r.power_mw, 2),
            ];
            labelled(r.name, cells)
        })
        .collect();
    rows.push(
        [
            "paper",
            "(Stripes 286/BitVert 332)",
            "(247/407)",
            "533/923/1666/702/740",
            "1.00/1.73/3.13/1.32/1.39x",
            "0.37/0.51/0.57/0.49/0.45",
        ]
        .map(Cell::text)
        .into(),
    );
    let table = Table::new(
        "Table V — PE area/power comparison (Stripes anchor = 532.8 um2, 0.37 mW)",
        &[
            "PE",
            "mult (um2)",
            "others (um2)",
            "total (um2)",
            "vs Stripes",
            "power (mW)",
        ],
        rows,
    );
    print!("{}", table.render());
}
