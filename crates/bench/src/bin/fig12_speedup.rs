//! Regenerates the paper's fig12 (see `bbs_bench::experiments::fig12`).
//!
//! Flags (see `bbs_bench::serve_path::figure_main`): `--json` for
//! machine-readable output, `--via-serve` or `--via-serve-addr HOST:PORT`
//! to compute the grid through a `bbs-serve` `/sweep` route.
use bbs_bench::experiments::fig12;

fn main() -> std::process::ExitCode {
    bbs_bench::serve_path::figure_main("fig12_speedup", fig12::tables)
}
