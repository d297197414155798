//! Figure 12: end-to-end speedup over Stripes for all accelerators on the
//! seven benchmarks.
//!
//! Two ways to produce the same table: the in-process parallel sweep
//! ([`sweep`]) and the `--via-serve` path ([`sweep_via_serve`]), which
//! POSTs the grid to a `bbs-serve` `/sweep` route. Both feed the same
//! rendering, and the serve wire is bit-exact, so the outputs are
//! byte-identical (diffed in CI).

use crate::serve_path;
use crate::{f, print_table, weight_cap, workload_store, SEED};
use bbs_json::Json;
use bbs_models::zoo;
use bbs_sim::accel::{
    ant::Ant, bitlet::Bitlet, bitvert::BitVert, bitwave::BitWave, pragmatic::Pragmatic,
    sparten::SparTen, stripes::Stripes, Accelerator,
};
use bbs_sim::config::ArrayConfig;
use bbs_sim::engine::simulate_with;
use bbs_tensor::metrics::geomean;
use rayon::prelude::*;

/// The Fig. 12 accelerator lineup (Stripes is the normalization baseline).
pub fn lineup() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(SparTen::new()),
        Box::new(Ant::new()),
        Box::new(Pragmatic::new()),
        Box::new(Bitlet::new()),
        Box::new(BitWave::new()),
        Box::new(BitVert::conservative()),
        Box::new(BitVert::moderate()),
    ]
}

/// Speedups over Stripes for every model, in lineup order — one flat
/// parallel sweep over `(model, accelerator)` pairs.
///
/// The shared [`workload_store`] means each model is lowered once for the
/// whole sweep (not once per accelerator), and the order-preserving
/// parallel collect keeps rows/columns deterministic and bit-identical to
/// the sequential sweep.
pub fn sweep(models: &[bbs_models::ModelSpec], cfg: &ArrayConfig) -> Vec<Vec<f64>> {
    let cap = weight_cap();
    let store = workload_store();
    let stripes = Stripes::new();
    let accels = lineup();
    // Column 0 is the Stripes baseline, columns 1.. are the lineup.
    let cols = accels.len() + 1;
    let jobs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|m| (0..cols).map(move |a| (m, a)))
        .collect();
    let cycles: Vec<u64> = jobs
        .par_iter()
        .map(|&(m, a)| {
            let accel: &dyn Accelerator = if a == 0 {
                &stripes
            } else {
                accels[a - 1].as_ref()
            };
            simulate_with(store, accel, &models[m], cfg, SEED, cap).total_cycles()
        })
        .collect();
    cycles
        .chunks(cols)
        .map(|row| row[1..].iter().map(|&c| row[0] as f64 / c as f64).collect())
        .collect()
}

/// The same speedup table as [`sweep`], computed by POSTing the grid to
/// a `bbs-serve` `/sweep` route. Cycle counts travel the wire as exact
/// integers, so the resulting table is bit-identical to the in-process
/// sweep's.
pub fn sweep_via_serve(
    models: &[bbs_models::ModelSpec],
    cfg: &ArrayConfig,
    addr: std::net::SocketAddr,
) -> Result<Vec<Vec<f64>>, String> {
    // Column 0 is the Stripes baseline, columns 1.. are the lineup — the
    // exact (model, accelerator) job order of the in-process sweep.
    let mut names = vec![Stripes::new().name()];
    names.extend(lineup().iter().map(|a| a.name()));
    let ids = serve_path::canonical_ids(&names);
    let cols = ids.len();
    let spec =
        bbs_sim::sweep::SweepSpec::grid(models.to_vec(), ids, cfg.clone(), SEED, weight_cap());
    let results = serve_path::sweep_results(&spec, addr)?;
    let cycles: Vec<u64> = results.iter().map(|r| r.total_cycles()).collect();
    Ok(cycles
        .chunks(cols)
        .map(|row| row[1..].iter().map(|&c| row[0] as f64 / c as f64).collect())
        .collect())
}

/// Fig. 12 as machine-readable JSON (the `--json` output mode): raw
/// speedups per model plus the geomean row, keyed by accelerator name.
pub fn to_json() -> Json {
    let cfg = ArrayConfig::paper_16x32();
    let models = zoo::paper_benchmarks();
    let table = sweep(&models, &cfg);
    table_to_json(&models, &table)
}

/// [`to_json`] with the table computed through a `bbs-serve` instance.
pub fn to_json_via_serve(addr: std::net::SocketAddr) -> Result<Json, String> {
    let cfg = ArrayConfig::paper_16x32();
    let models = zoo::paper_benchmarks();
    let table = sweep_via_serve(&models, &cfg, addr)?;
    Ok(table_to_json(&models, &table))
}

fn table_to_json(models: &[bbs_models::ModelSpec], table: &[Vec<f64>]) -> Json {
    let names: Vec<String> = lineup().iter().map(|a| a.name()).collect();
    let mut per_accel: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let rows: Vec<Json> = models
        .iter()
        .zip(table)
        .map(|(model, speedups)| {
            for (col, &s) in speedups.iter().enumerate() {
                per_accel[col].push(s);
            }
            Json::obj(vec![
                ("model", Json::str(model.name)),
                (
                    "speedup",
                    Json::Arr(speedups.iter().copied().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("figure", Json::str("fig12")),
        ("baseline", Json::str("Stripes")),
        (
            "accelerators",
            Json::Arr(names.iter().map(|n| Json::str(n)).collect()),
        ),
        ("rows", Json::Arr(rows)),
        (
            "geomean",
            Json::Arr(per_accel.iter().map(|v| Json::Num(geomean(v))).collect()),
        ),
    ])
}

/// Regenerates Fig. 12.
pub fn run() {
    let cfg = ArrayConfig::paper_16x32();
    let models = zoo::paper_benchmarks();
    let table = sweep(&models, &cfg);
    print_run(&models, &table);
}

/// [`run`] with the table computed through a `bbs-serve` instance —
/// byte-identical output (same rendering, bit-exact wire).
pub fn run_via_serve(addr: std::net::SocketAddr) -> Result<(), String> {
    let cfg = ArrayConfig::paper_16x32();
    let models = zoo::paper_benchmarks();
    let table = sweep_via_serve(&models, &cfg, addr)?;
    print_run(&models, &table);
    Ok(())
}

fn print_run(models: &[bbs_models::ModelSpec], table: &[Vec<f64>]) {
    let names: Vec<String> = lineup().iter().map(|a| a.name()).collect();
    let mut header = vec!["model".to_string()];
    header.extend(names);

    let mut per_accel: Vec<Vec<f64>> = vec![Vec::new(); lineup().len()];
    let mut rows = Vec::new();
    for (model, speedups) in models.iter().zip(table) {
        let mut row = vec![model.name.to_string()];
        for (col, &s) in speedups.iter().enumerate() {
            per_accel[col].push(s);
            row.push(f(s, 2));
        }
        rows.push(row);
    }
    let mut geo = vec!["geomean".to_string()];
    geo.extend(per_accel.iter().map(|v| f(geomean(v), 2)));
    rows.push(geo);
    let mut paper = vec!["paper geomean".to_string()];
    paper.extend(
        ["~1.0", "~1.5", "~1.3", "~1.5", "~1.8", "2.48", "3.03"]
            .iter()
            .map(|s| s.to_string()),
    );
    rows.push(paper);

    print_table(
        "Fig. 12 — speedup normalized to Stripes (higher is better)",
        &header,
        &rows,
    );
}
