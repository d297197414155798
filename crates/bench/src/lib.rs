//! # bbs-bench — the benchmark harness
//!
//! One binary per table and figure of the paper (run `repro` for all of
//! them). Performance is measured by the repository benchmark in
//! `perfbench/`, which drives these experiments and the serve binaries.
//!
//! Every harness prints the same rows/series the paper reports, next to the
//! paper's published values where they exist, so `EXPERIMENTS.md` can be
//! regenerated by reading the output. All runs are seeded and
//! deterministic.
//!
//! Environment:
//! * `BBS_CAP` — per-layer synthesized-weight cap (default 65536). Lower it
//!   for quick smoke runs, e.g. `BBS_CAP=4096 cargo run --release --bin
//!   fig12_speedup`.

pub mod experiments;
pub mod serve_path;

use bbs_models::accuracy::{synthesize_model, CompressionMethod, ModelFidelity, SynthModel};
use bbs_models::ModelSpec;
use bbs_sim::store::WorkloadStore;
use rayon::prelude::*;
use std::fmt::Display;
use std::sync::OnceLock;

/// The global experiment seed.
pub const SEED: u64 = 7;

/// The process-wide workload store every experiment reads through.
///
/// All figures share `SEED` and (mostly) `weight_cap()`, so one store
/// means each benchmark model is lowered once per `repro` run — fig12's
/// eight-accelerator sweep, fig13's energy sweep and fig14/15's column
/// sweeps all reuse the same `Arc<[LayerWorkload]>` lowerings.
pub fn workload_store() -> &'static WorkloadStore {
    static STORE: OnceLock<WorkloadStore> = OnceLock::new();
    STORE.get_or_init(WorkloadStore::default)
}

/// Per-layer weight cap for synthesis (env-overridable via `BBS_CAP`).
pub fn weight_cap() -> usize {
    std::env::var("BBS_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64 * 1024)
}

/// Synthesizes every model for fidelity evaluation (at `SEED` and
/// [`weight_cap`]), one parallel job per model.
pub fn synthesize_all(models: &[ModelSpec]) -> Vec<SynthModel> {
    models
        .par_iter()
        .map(|m| synthesize_model(m, SEED, weight_cap()))
        .collect()
}

/// Fidelity of every model under every method: `fits[m][k]` is model `m`
/// compressed with method `k`. The models are synthesized in parallel,
/// then each (model, method) pair is one job of a flat parallel list, so
/// uneven jobs (PTQ's scale search beside a BBS pass) keep every worker
/// busy.
pub fn fidelity_grid(
    models: &[ModelSpec],
    methods: &[CompressionMethod],
) -> Vec<Vec<ModelFidelity>> {
    let synths = synthesize_all(models);
    let jobs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|m| (0..methods.len()).map(move |k| (m, k)))
        .collect();
    let fits: Vec<ModelFidelity> = jobs
        .par_iter()
        .map(|&(m, k)| synths[m].fidelity(&methods[k]))
        .collect();
    let mut fits = fits.into_iter();
    models
        .iter()
        .map(|_| fits.by_ref().take(methods.len()).collect())
        .collect()
}

/// Prints an aligned table: a header row and data rows.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn print_table<H: Display, C: Display>(title: &str, header: &[H], rows: &[Vec<C>]) {
    println!("\n## {title}");
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            assert_eq!(r.len(), head.len(), "row width mismatch");
            r.iter().map(|c| c.to_string()).collect()
        })
        .collect();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{c:<w$}"));
            } else {
                line.push_str(&format!("  {c:>w$}"));
            }
        }
        line
    };
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in &body {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with the given precision (table-cell helper).
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_default() {
        // Whatever the env says, the parser must return something sane.
        assert!(weight_cap() >= 1024);
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "test",
            &["a", "bb"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        print_table("bad", &["a", "b"], &[vec!["1".to_string()]]);
    }
}
