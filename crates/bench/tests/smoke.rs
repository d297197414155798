//! Workspace-plumbing smoke tests for the bench harness.

use bbs_bench::{weight_cap, Cell, Table, SEED};

/// `BBS_CAP` must steer `weight_cap()`; garbage and absence fall back to
/// the 64 Ki default. Environment mutation keeps all scenarios in one test
/// so parallel test threads cannot race on the variable.
#[test]
fn weight_cap_honors_bbs_cap_env() {
    std::env::remove_var("BBS_CAP");
    assert_eq!(weight_cap(), 64 * 1024, "default cap");

    std::env::set_var("BBS_CAP", "4096");
    assert_eq!(weight_cap(), 4096, "explicit cap");

    std::env::set_var("BBS_CAP", "not-a-number");
    assert_eq!(weight_cap(), 64 * 1024, "unparsable cap falls back");

    std::env::remove_var("BBS_CAP");
}

#[test]
fn seed_is_the_paper_seed() {
    assert_eq!(SEED, 7);
}

#[test]
fn float_formatter_rounds() {
    let text = |cell: Cell| Table::new("", &["x"], vec![vec![cell]]).render();
    assert!(text(Cell::num(2.456, 2)).ends_with("\n2.46\n"));
    assert!(text(Cell::num(-0.5, 0)).ends_with("\n-0\n"));
}

#[test]
fn print_table_smoke() {
    let rows = vec![vec![Cell::text("resnet50"), Cell::text("3.03")]];
    print!(
        "{}",
        Table::new("smoke", &["model", "speedup"], rows).render()
    );
}
