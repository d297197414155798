//! Table VI: Olive vs BitVert PE — area, power, normalized performance and
//! performance per area.

use crate::{labelled, Cell, Table};
use bbs_hw::explore::olive_comparison;
use bbs_hw::gates::Technology;

/// Regenerates Table VI.
pub fn run() {
    let c = olive_comparison(&Technology::tsmc28());
    let times = |v: f64| Cell::template("{}x", &[(v, 2)]);
    let rows = vec![
        labelled(
            "Olive",
            [
                Cell::num(c.olive_area_um2, 1),
                Cell::num(c.olive_power_mw, 2),
                Cell::num(1.0, 2),
                Cell::num(1.0, 2),
            ],
        ),
        labelled(
            "BitVert (mod)",
            [
                Cell::num(c.bitvert_area_um2, 1),
                Cell::num(c.bitvert_power_mw, 2),
                times(c.bitvert_norm_perf),
                times(c.bitvert_norm_perf_per_area),
            ],
        ),
    ];
    let table = Table::new(
        "Table VI — Olive vs BitVert PE (paper: Olive 291.6 um2 / 0.18 mW; BitVert 4x perf, 1.58x perf/area)",
        &["PE", "area (um2)", "power (mW)", "norm perf", "norm perf/area"],
        rows,
    );
    print!("{}", table.render());
}
