//! Table IV: BitVert PE design-space exploration — sub-group size and the
//! circuit optimizations.

use crate::{Cell, Table};
use bbs_hw::explore::bitvert_design_space;
use bbs_hw::gates::Technology;

/// Regenerates Table IV.
pub fn run() {
    let mut rows: Vec<Vec<Cell>> = bitvert_design_space(&Technology::tsmc28())
        .into_iter()
        .map(|r| {
            vec![
                Cell::num(r.sub_group as f64, 0),
                Cell::num(r.area_unopt_um2, 1),
                Cell::num(r.power_unopt_mw, 2),
                Cell::num(r.area_opt_um2, 1),
                Cell::num(r.power_opt_mw, 2),
            ]
        })
        .collect();
    rows.push(
        [
            "paper (16/8/4)",
            "1342/897/879",
            "0.61/0.49/0.51",
            "972/740/787",
            "0.53/0.45/0.47",
        ]
        .map(Cell::text)
        .into(),
    );
    let table = Table::new(
        "Table IV — BitVert PE area/power vs sub-group size, before/after circuit optimization",
        &[
            "sub-group",
            "area unopt (um2)",
            "power unopt (mW)",
            "area opt (um2)",
            "power opt (mW)",
        ],
        rows,
    );
    print!("{}", table.render());
}
