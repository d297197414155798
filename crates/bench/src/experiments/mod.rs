//! One module per regenerated table/figure. Each exposes `run()`, which
//! builds the experiment's [`Table`](crate::Table)s and prints each as it
//! is done; the matching binary and `repro` call it.
//! Figs. 12 and 13 also expose `tables(via)`, which computes their grid
//! in process or through a `bbs-serve` `/sweep` route, for
//! [`figure_main`](crate::serve_path::figure_main) and `repro --json`.

pub mod ablations;
pub mod fig03;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;
pub mod tab06;

/// Runs every experiment in paper order.
pub fn run_all() {
    tab01::run();
    fig03::run();
    fig06::run();
    fig11::run();
    tab02::run();
    tab03::run();
    fig12::run();
    fig13::run();
    fig14::run();
    fig15::run();
    tab04::run();
    tab05::run();
    fig16::run();
    fig17::run();
    tab06::run();
    ablations::run();
}
