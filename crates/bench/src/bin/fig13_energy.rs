//! Regenerates the paper's fig13 (see `bbs_bench::experiments::fig13`).
//!
//! Flags (see `bbs_bench::serve_path::figure_main`): `--json` for
//! machine-readable output, `--via-serve` or `--via-serve-addr HOST:PORT`
//! to compute the grid through a `bbs-serve` `/sweep` route.
use bbs_bench::experiments::fig13;

fn main() -> std::process::ExitCode {
    bbs_bench::serve_path::figure_main("fig13_energy", fig13::table, fig13::print, fig13::to_json)
}
