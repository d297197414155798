//! Runs every table/figure reproduction in paper order.
//!
//! `BBS_CAP` (default 65536) bounds the per-layer synthesized weights; use
//! a smaller value for a quick pass.
//!
//! `--json` prints the Fig. 12 speedup and Fig. 13 energy tables, which
//! every downstream comparison is built on, as the one JSON document
//! (`bbs_bench::json_document`) instead of the full text run. Any other
//! argument fails the run.
use bbs_bench::experiments::{fig12, fig13};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = args.iter().find(|a| *a != "--json") {
        eprintln!("repro: unknown argument '{arg}' (known: --json)");
        return ExitCode::FAILURE;
    }
    // Every argument left is `--json`.
    if !args.is_empty() {
        const IN_PROCESS: &str = "registry ids run in process";
        let mut tables = fig12::tables(None).expect(IN_PROCESS);
        tables.extend(fig13::tables(None).expect(IN_PROCESS));
        println!("{}", bbs_bench::json_document(&tables).pretty(2));
        return ExitCode::SUCCESS;
    }
    println!(
        "# BBS / BitVert — full reproduction run (seed {}, cap {})",
        bbs_bench::SEED,
        bbs_bench::weight_cap()
    );
    bbs_bench::experiments::run_all();
    ExitCode::SUCCESS
}
