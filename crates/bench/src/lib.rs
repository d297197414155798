//! # bbs-bench — the benchmark harness
//!
//! One binary per table and figure of the paper (run `repro` for all of
//! them). Performance is measured by the repository benchmark in
//! `perfbench/`, which drives these experiments and the serve binaries.
//!
//! Every harness builds the rows/series the paper reports as [`Table`]
//! values, next to the paper's published values where they exist. A
//! [`Cell`] holds its text and the numbers that text was written from;
//! [`Table::render`] prints a table and [`json_document`] is the one
//! `--json` form (`repro`, `fig12_speedup`, `fig13_energy`). Figs. 12–15
//! each run one grid through [`grid_results`]. All runs are seeded and
//! deterministic; `tests/golden/repro_cap256.txt` pins the whole `repro`
//! transcript at `BBS_CAP=256`.
//!
//! Environment:
//! * `BBS_CAP` — per-layer synthesized-weight cap (default 65536). Lower it
//!   for quick smoke runs, e.g. `BBS_CAP=4096 cargo run --release --bin
//!   fig12_speedup`.

pub mod experiments;
pub mod serve_path;

use bbs_json::Json;
use bbs_models::accuracy::{synthesize_model, CompressionMethod, ModelFidelity, SynthModel};
use bbs_models::ModelSpec;
use bbs_serve::registry::accelerator_by_name;
use bbs_sim::engine::simulate_with;
use bbs_sim::store::WorkloadStore;
use bbs_sim::{ArrayConfig, SimResult, SweepSpec};
use rayon::prelude::*;
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

/// The accelerators `ids` (registry ids) on `models` at each of
/// `configs`, at [`SEED`] and [`weight_cap`], as one grid run by
/// [`grid_results`]: one `(model name, results in ids order)` row per
/// (model, config), model-major.
pub(crate) fn paper_grid(
    models: Vec<ModelSpec>,
    ids: &[&str],
    configs: Vec<ArrayConfig>,
    via: Option<SocketAddr>,
) -> Result<Vec<(&'static str, Vec<SimResult>)>, String> {
    let spec = SweepSpec {
        models,
        accelerators: ids.iter().map(|id| id.to_string()).collect(),
        configs,
        seeds: vec![SEED],
        caps: vec![weight_cap()],
    };
    let n_configs = spec.configs.len();
    let mut rows: Vec<(&'static str, Vec<SimResult>)> = (0..spec.models.len() * n_configs)
        .map(|row| (spec.models[row / n_configs].name, Vec::new()))
        .collect();
    // Cells expand model, accelerator, config, outermost first, so each
    // row receives its results in ids order.
    for (cell, result) in spec.cells().iter().zip(grid_results(&spec, via)?) {
        rows[cell.model * n_configs + cell.config].1.push(result);
    }
    Ok(rows)
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

/// One table cell: its text and the numbers that text was written from.
/// Both come from one constructor call, so they cannot disagree.
#[derive(Debug)]
pub struct Cell {
    text: String,
    values: Vec<f64>,
}

impl Cell {
    /// A label or a published value: text without numbers.
    pub fn text(text: impl Into<String>) -> Cell {
        Cell {
            text: text.into(),
            values: Vec::new(),
        }
    }

    /// `v` with `prec` decimals: `(2.456, 2)` is `2.46`.
    pub fn num(v: f64, prec: usize) -> Cell {
        Cell::template("{}", &[(v, prec)])
    }

    /// `v` in scientific notation with `prec` decimals: `(0.000123, 2)` is
    /// `1.23e-4`.
    pub fn sci(v: f64, prec: usize) -> Cell {
        Cell {
            text: format!("{v:.prec$e}"),
            values: vec![v],
        }
    }

    /// `template` with its `{}`s replaced, in order, by `nums`, each a
    /// `(value, decimals)` pair: `("{}% ({}x)", [(0.451, 2), (1.66, 2)])`
    /// is `0.45% (1.66x)`.
    ///
    /// # Panics
    ///
    /// Panics unless `template` holds one `{}` per number.
    pub fn template(template: &str, nums: &[(f64, usize)]) -> Cell {
        let pieces: Vec<&str> = template.split("{}").collect();
        assert_eq!(
            pieces.len(),
            nums.len() + 1,
            "template '{template}' does not take {} numbers",
            nums.len()
        );
        let mut text = pieces[0].to_string();
        for (&(v, prec), piece) in nums.iter().zip(&pieces[1..]) {
            text += &format!("{v:.prec$}{piece}");
        }
        Cell {
            text,
            values: nums.iter().map(|&(v, _)| v).collect(),
        }
    }
}

/// A table row: a text cell `label`, then `cells`.
pub(crate) fn labelled(label: &str, cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    std::iter::once(Cell::text(label)).chain(cells).collect()
}

/// A titled table of [`Cell`]s under a header, as every experiment builds
/// it. [`Table::render`] is its one text form and [`Table::to_json`] its
/// one JSON form.
#[derive(Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table of `rows` under `header`.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the header's.
    pub fn new<H: ToString>(title: impl Into<String>, header: &[H], rows: Vec<Vec<Cell>>) -> Table {
        assert!(
            rows.iter().all(|row| row.len() == header.len()),
            "row width mismatch"
        );
        Table {
            title: title.into(),
            header: header.iter().map(H::to_string).collect(),
            rows,
        }
    }

    /// The table as text: a blank line and `## title`, then the header, a
    /// rule and the rows, each column as wide as its widest entry, the
    /// first left-aligned and the rest right-aligned, two spaces apart.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.text.len());
            }
        }
        let line = |cells: Vec<&str>| {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                line += &if i == 0 {
                    format!("{c:<w$}")
                } else {
                    format!("  {c:>w$}")
                };
            }
            line + "\n"
        };
        let mut out = format!("\n## {}\n", self.title);
        out += &line(self.header.iter().map(String::as_str).collect());
        out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        out.push('\n');
        for row in &self.rows {
            out += &line(row.iter().map(|c| c.text.as_str()).collect());
        }
        out
    }

    /// The table as `{"title", "header", "rows"}`, each cell
    /// `{"text", "values"}`. Values keep their exact bits; `bbs_json`
    /// writes a non-finite one as `null`.
    pub fn to_json(&self) -> Json {
        let cell = |c: &Cell| {
            let values = c.values.iter().map(|&v| Json::Num(v)).collect();
            Json::obj(vec![
                ("text", Json::str(&c.text)),
                ("values", Json::Arr(values)),
            ])
        };
        let header = self.header.iter().map(|h| Json::str(h)).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(cell).collect()));
        Json::obj(vec![
            ("title", Json::str(&self.title)),
            ("header", Json::Arr(header)),
            ("rows", Json::Arr(rows.collect())),
        ])
    }
}

/// The `--json` document: the run's [`SEED`] and [`weight_cap`], and
/// `tables` in their [`Table::to_json`] form.
pub fn json_document(tables: &[Table]) -> Json {
    let tables = tables.iter().map(Table::to_json).collect();
    Json::obj(vec![
        ("seed", Json::from_u64(SEED)),
        ("bbs_cap", Json::from_usize(weight_cap())),
        ("tables", Json::Arr(tables)),
    ])
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
        let rows = vec![vec![Cell::text("1"), Cell::text("2")]];
        print!("{}", Table::new("test", &["a", "bb"], rows).render());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new("bad", &["a", "b"], vec![vec![Cell::text("1")]]);
    }

    #[test]
    fn mixed_table_renders_in_the_pinned_layout() {
        let table = Table::new(
            "Mixed",
            &["model", "speedup", "loss (ratio)"],
            vec![
                vec![
                    Cell::text("ResNet-50"),
                    Cell::num(2.756, 2),
                    Cell::template("{}% ({}x)", &[(0.451, 2), (1.5, 2)]),
                ],
                vec![Cell::text("geomean"), Cell::num(3.0, 2), Cell::text("~1.5")],
            ],
        );
        assert_eq!(
            table.render(),
            "\n## Mixed\n\
             model      speedup   loss (ratio)\n\
             ---------------------------------\n\
             ResNet-50     2.76  0.45% (1.50x)\n\
             geomean       3.00           ~1.5\n"
        );
    }

    #[test]
    fn json_returns_every_value_bit_for_bit() {
        let values = [-0.0, 0.1 + 0.2, 1e-300, 2.5];
        let nums: Vec<(f64, usize)> = values.iter().map(|&v| (v, 3)).collect();
        let rows = vec![vec![
            Cell::template("{} {} {} {}", &nums),
            Cell::num(f64::NAN, 1),
            Cell::sci(f64::INFINITY, 2),
        ]];
        let table = Table::new("round trip", &["finite", "nan", "inf"], rows);
        let parsed = Json::parse(&json_document(&[table]).pretty(2)).expect("valid JSON");
        let table = &parsed.get("tables").and_then(Json::as_arr).expect("tables")[0];
        assert_eq!(
            table.get("title").and_then(Json::as_str),
            Some("round trip")
        );
        let row = table.get("rows").and_then(Json::as_arr).expect("rows")[0]
            .as_arr()
            .expect("row");
        assert_eq!(
            row[0].get("text").and_then(Json::as_str),
            Some("-0.000 0.300 0.000 2.500")
        );
        let back: Vec<u64> = row[0]
            .get("values")
            .and_then(Json::as_arr)
            .expect("values")
            .iter()
            .map(|v| v.as_f64().expect("a finite value is a number").to_bits())
            .collect();
        assert_eq!(back, values.map(f64::to_bits));
        for cell in &row[1..] {
            assert_eq!(cell.get("values"), Some(&Json::Arr(vec![Json::Null])));
        }
    }

    #[test]
    fn template_needs_one_slot_per_number() {
        for (template, nums) in [
            ("{}% ({}x)", &[(1.0, 2)][..]),
            ("{}", &[(1.0, 2), (2.0, 2)]),
        ] {
            let panic = std::panic::catch_unwind(|| Cell::template(template, nums));
            assert!(panic.is_err(), "'{template}' took {} numbers", nums.len());
        }
    }
}
