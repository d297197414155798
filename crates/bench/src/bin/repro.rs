//! Runs every table/figure reproduction in paper order.
//!
//! `BBS_CAP` (default 65536) bounds the per-layer synthesized weights; use
//! a smaller value for a quick pass.
//!
//! `--json` emits the machine-readable core results (the fig12 speedup and
//! fig13 energy sweeps, which every downstream comparison is built on)
//! instead of the full stdout-table run.
use bbs_bench::experiments::{fig12, fig13};

fn main() {
    if std::env::args().any(|a| a == "--json") {
        const IN_PROCESS: &str = "registry ids run in process";
        let doc = bbs_json::Json::obj(vec![
            ("schema", bbs_json::Json::str("bbs-repro/v1")),
            ("seed", bbs_json::Json::from_u64(bbs_bench::SEED)),
            (
                "bbs_cap",
                bbs_json::Json::from_usize(bbs_bench::weight_cap()),
            ),
            (
                "fig12",
                fig12::to_json(&fig12::table(None).expect(IN_PROCESS)),
            ),
            (
                "fig13",
                fig13::to_json(&fig13::table(None).expect(IN_PROCESS)),
            ),
        ]);
        println!("{}", doc.pretty(2));
        return;
    }
    println!(
        "# BBS / BitVert — full reproduction run (seed {}, cap {})",
        bbs_bench::SEED,
        bbs_bench::weight_cap()
    );
    bbs_bench::experiments::run_all();
}
