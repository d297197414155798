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
use bbs_models::{zoo, ModelSpec};
use bbs_serve::registry::accelerator_by_name;
use bbs_sim::engine::simulate_with;
use bbs_sim::store::WorkloadStore;
use bbs_sim::{ArrayConfig, SimResult, SweepSpec};
use rayon::prelude::*;
use std::fmt::Display;
use std::net::SocketAddr;
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

/// Every cell of `spec`, in expansion order. With `via` = `None` the
/// cells run in process, one parallel job each, through [`workload_store`];
/// with `Some(addr)` they run on the `bbs-serve` instance at `addr`
/// through its `/sweep` route. Results ride the wire bit-exactly, so both
/// return equal results.
pub fn grid_results(spec: &SweepSpec, via: Option<SocketAddr>) -> Result<Vec<SimResult>, String> {
    if let Some(addr) = via {
        return serve_path::sweep_results(spec, addr);
    }
    let accels = spec
        .accelerators
        .iter()
        .map(|id| accelerator_by_name(id).ok_or_else(|| format!("unknown accelerator '{id}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let store = workload_store();
    Ok(spec
        .cells()
        .par_iter()
        .map(|c| {
            simulate_with(
                store,
                accels[c.accelerator].as_ref(),
                &spec.models[c.model],
                &spec.configs[c.config],
                spec.seeds[c.seed],
                spec.caps[c.cap],
            )
        })
        .collect())
}

/// The accelerators `ids` (registry ids) on the seven paper benchmarks, at
/// the paper's 16×32 array, [`SEED`] and [`weight_cap`], run by
/// [`grid_results`]: one `(model name, results in ids order)` row per
/// benchmark.
pub(crate) fn paper_grid(
    ids: &[&str],
    via: Option<SocketAddr>,
) -> Result<Vec<(&'static str, Vec<SimResult>)>, String> {
    let models = zoo::paper_benchmarks();
    let names: Vec<&'static str> = models.iter().map(|m| m.name).collect();
    let ids = ids.iter().map(|id| id.to_string()).collect();
    let spec = SweepSpec::grid(models, ids, ArrayConfig::paper_16x32(), SEED, weight_cap());
    let mut results = grid_results(&spec, via)?.into_iter();
    Ok(names
        .into_iter()
        .map(|name| {
            (
                name,
                results.by_ref().take(spec.accelerators.len()).collect(),
            )
        })
        .collect())
}

/// The figures' display names of registry ids (`bitvert-moderate` is
/// `BitVert (mod)`).
///
/// # Panics
///
/// Panics on an id the registry does not know.
pub(crate) fn display_names(ids: &[&str]) -> Vec<String> {
    ids.iter()
        .map(|id| {
            accelerator_by_name(id)
                .unwrap_or_else(|| panic!("'{id}' is not a registry id"))
                .name()
        })
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
