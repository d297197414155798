//! Batch sweep orchestration: `POST /sweep` decoding and the scheduler
//! that fans grid cells across the worker pool.
//!
//! A sweep body is a compact grid — lists of models (zoo names or full
//! spec objects), accelerators, array configs, seeds and caps, the schema
//! [`bbs_sim::json::sweep_spec_to_json`] writes — expanded server-side in
//! the one row-major order of [`bbs_sim::sweep::SweepCell::at`] (model
//! outermost, cap innermost), one job key per cell.
//!
//! Decoding here is deliberately *lenient per axis entry*: an unknown
//! model or accelerator mid-grid does not fail the request — the cells
//! crossing that entry become error records in the stream while every
//! other cell still simulates (partial-failure semantics). Shape errors
//! (missing/empty axes, malformed seeds, an oversized grid) still reject
//! the whole request with a 400.
//!
//! The event loop drives a [`SweepStream`]: it submits each cell through
//! [`crate::service::SimService::submit`] (or the coordinator in
//! `--shard-of` mode), so each one rides the exact hit/coalesce/enqueue
//! path of a single `/simulate` request: duplicate cells across
//! concurrent sweeps coalesce onto one engine run, results land in (and
//! are served from) the shared content-addressed cache, and the lowering
//! store amortizes weight synthesis across the grid's accelerator/config
//! axes.
//!
//! Results stream back as newline-delimited JSON **in completion order**
//! (each line carries its `cell` index for reassembly), with a trailing
//! `summary` record. The response uses `Connection: close` / EOF framing
//! — cell latencies are unknown up front, so there is no Content-Length.

use crate::registry;
use crate::request::{SimRequest, DEFAULT_CAP};
use crate::service::Served;
use bbs_json::{field_arr, Json};
use bbs_models::json::model_spec_from_json;
use bbs_models::{zoo, ModelSpec};
use bbs_sim::json::array_config_from_json;
use bbs_sim::{ArrayConfig, SweepCell};
use std::time::Instant;

/// Most cells one sweep may expand to (work-size protection: a sweep is
/// cheap to *request* but each cell is a full simulation).
pub const MAX_SWEEP_CELLS: usize = 4096;

/// A decoded sweep grid: per-axis entries, each either resolved or
/// carrying its decode error (crossed into per-cell error records).
#[derive(Debug)]
pub struct SweepPlan {
    /// `(display name, resolved spec or decode error)` per model entry.
    models: Vec<(String, Result<ModelSpec, String>)>,
    /// `(echoed id, canonical id or decode error)` per accelerator entry.
    accelerators: Vec<(String, Result<&'static str, String>)>,
    /// Array configs (echoed by index), each resolved or in error.
    configs: Vec<Result<ArrayConfig, String>>,
    seeds: Vec<u64>,
    /// Caps, already clamped to the server limit.
    caps: Vec<usize>,
}

/// One expanded grid cell: echo coordinates plus the request to run (or
/// the axis decode error that poisons this cell).
#[derive(Debug)]
pub struct PlannedCell {
    /// The coordinates the cell's record echoes.
    pub meta: CellMeta,
    /// The executable request, or why this cell cannot run.
    pub request: Result<SimRequest, String>,
}

/// The echo coordinates of a cell, detached from its request — what a
/// record line carries. The event loop holds these across the async gap
/// between submitting a cell and its completion callback firing.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// Flat index in expansion order (clients reassemble by this).
    pub index: usize,
    /// Display name of the model axis entry.
    pub model: String,
    /// Canonical accelerator id (or the raw string if unresolvable).
    pub accelerator: String,
    /// Index into the config axis.
    pub config: usize,
    /// Weight-synthesis seed.
    pub seed: u64,
    /// Per-layer weight cap (post-clamp).
    pub cap: usize,
}

impl SweepPlan {
    /// Decodes a `/sweep` body. `max_cap` is the server's bound on
    /// `max_weights_per_layer` (each cap entry is clamped, mirroring
    /// single-request decoding).
    pub fn from_json(v: &Json, max_cap: usize) -> Result<SweepPlan, String> {
        let models: Vec<(String, Result<ModelSpec, String>)> = non_empty(v, "models")?
            .iter()
            .map(|entry| match entry {
                Json::Str(name) => (
                    name.clone(),
                    zoo::by_name(name)
                        .ok_or_else(|| format!("unknown model '{name}' (see GET /models)")),
                ),
                spec @ Json::Obj(_) => {
                    let display = spec
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("(model)")
                        .to_string();
                    (display, model_spec_from_json(spec))
                }
                _ => (
                    "(invalid)".to_string(),
                    Err("model entries must be names or model-spec objects".to_string()),
                ),
            })
            .collect();
        let accelerators: Vec<(String, Result<&'static str, String>)> =
            non_empty(v, "accelerators")?
                .iter()
                .map(|entry| match entry.as_str() {
                    Some(name) => match registry::canonical_id(name) {
                        Some(id) => (id.to_string(), Ok(id)),
                        None => (
                            name.to_string(),
                            Err(format!(
                                "unknown accelerator '{name}' (see GET /accelerators)"
                            )),
                        ),
                    },
                    None => (
                        "(invalid)".to_string(),
                        Err("accelerator entries must be strings".to_string()),
                    ),
                })
                .collect();
        let configs: Vec<Result<ArrayConfig, String>> = match v.get("configs") {
            Some(Json::Arr(items)) if !items.is_empty() => {
                items.iter().map(array_config_from_json).collect()
            }
            Some(_) => return Err("'configs' must be a non-empty array".to_string()),
            None => vec![Ok(ArrayConfig::paper_16x32())],
        };
        let seeds: Vec<u64> = match v.get("seeds") {
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|s| {
                    s.as_u64()
                        .ok_or_else(|| "'seeds' entries must be non-negative integers".to_string())
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'seeds' must be a non-empty array".to_string()),
            None => vec![7],
        };
        let caps: Vec<usize> = match v.get("max_weights_per_layer") {
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|c| {
                    c.as_usize()
                        .filter(|&c| c > 0)
                        .map(|c| c.min(max_cap))
                        .ok_or_else(|| {
                            "'max_weights_per_layer' entries must be positive integers".to_string()
                        })
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'max_weights_per_layer' must be a non-empty array".to_string()),
            None => vec![DEFAULT_CAP.min(max_cap)],
        };

        let plan = SweepPlan {
            models,
            accelerators,
            configs,
            seeds,
            caps,
        };
        let cells = plan
            .dims()
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            .ok_or_else(|| "sweep grid overflows".to_string())?;
        if cells > MAX_SWEEP_CELLS {
            return Err(format!(
                "sweep expands to {cells} cells, limit is {MAX_SWEEP_CELLS}"
            ));
        }
        Ok(plan)
    }

    fn dims(&self) -> [usize; 5] {
        [
            self.models.len(),
            self.accelerators.len(),
            self.configs.len(),
            self.seeds.len(),
            self.caps.len(),
        ]
    }

    /// Total cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.dims().iter().product()
    }

    /// Expands flat index `i` into its cell, by [`SweepCell::at`] — the
    /// same row-major order as [`bbs_sim::sweep::SweepSpec::cells`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= cell_count()`.
    pub fn cell(&self, i: usize) -> PlannedCell {
        assert!(i < self.cell_count(), "cell index out of range");
        let cell = SweepCell::at(i, self.dims());
        let (model_name, model) = &self.models[cell.model];
        let (accel_name, accel) = &self.accelerators[cell.accelerator];
        let config = &self.configs[cell.config];
        let seed = self.seeds[cell.seed];
        let cap = self.caps[cell.cap];
        let request = model.as_ref().map_err(String::clone).and_then(|model| {
            let accelerator = *accel.as_ref().map_err(String::clone)?;
            let config = config.as_ref().map_err(String::clone)?.clone();
            Ok(SimRequest {
                model: model.clone(),
                accelerator,
                config,
                seed,
                max_weights_per_layer: cap,
            })
        });
        PlannedCell {
            meta: CellMeta {
                index: i,
                model: model_name.clone(),
                accelerator: accel_name.clone(),
                config: cell.config,
                seed,
                cap,
            },
            request,
        }
    }
}

/// How a finished sweep breaks down (also the trailing summary record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTally {
    /// Cells expanded.
    pub cells: usize,
    /// Cells that produced a result record.
    pub ok: usize,
    /// Cells that produced an error record.
    pub errors: usize,
    /// Result cells served straight from the cache.
    pub cache_hits: usize,
    /// Result cells that joined an in-flight computation.
    pub coalesced: usize,
    /// Result cells freshly simulated.
    pub simulated: usize,
}

impl SweepTally {
    /// Counts one result record by how it was served.
    pub fn count_ok(&mut self, served: Served) {
        self.ok += 1;
        match served {
            Served::Hit => self.cache_hits += 1,
            Served::Coalesced => self.coalesced += 1,
            Served::Fresh => self.simulated += 1,
        }
    }
}

/// The shared echo prefix of every record for a cell (unterminated — a
/// result or error tail closes the object).
fn cell_prefix(meta: &CellMeta) -> String {
    format!(
        "{{\"cell\":{},\"model\":{},\"accelerator\":{},\"config\":{},\
         \"seed\":{},\"max_weights_per_layer\":{}",
        meta.index,
        Json::str(&meta.model),
        Json::str(&meta.accelerator),
        meta.config,
        meta.seed,
        meta.cap,
    )
}

/// The NDJSON error record for a cell (newline included).
pub fn error_record(meta: &CellMeta, message: &str) -> String {
    format!("{},\"error\":{}}}\n", cell_prefix(meta), Json::str(message))
}

/// The NDJSON result record for a completed cell (newline included). The
/// cached payload is spliced in verbatim (never re-encoded), so byte
/// identity across hits and sweeps is structural.
pub fn result_record(meta: &CellMeta, key: u64, served: Served, result_text: &str) -> String {
    format!(
        "{},\"key\":\"{key:016x}\",\"served\":\"{}\",\"result\":{result_text}}}\n",
        cell_prefix(meta),
        served.label(),
    )
}

/// The trailing NDJSON summary record (newline included).
pub fn summary_record(tally: &SweepTally, wall_ms: f64) -> String {
    let summary = Json::obj(vec![(
        "summary",
        Json::obj(vec![
            ("cells", Json::from_usize(tally.cells)),
            ("ok", Json::from_usize(tally.ok)),
            ("errors", Json::from_usize(tally.errors)),
            ("cache_hits", Json::from_usize(tally.cache_hits)),
            ("coalesced", Json::from_usize(tally.coalesced)),
            ("simulated", Json::from_usize(tally.simulated)),
            ("wall_ms", Json::Num((wall_ms * 100.0).round() / 100.0)),
        ]),
    )]);
    format!("{summary}\n")
}

/// The per-connection sweep driver for the event loop: which cell goes
/// next, how many are in flight, and the running tally. The loop pulls
/// cells with [`take_next`](Self::take_next) while it has queue budget,
/// submits them through the service's non-blocking path, and feeds
/// completions back; records are formatted by [`result_record`] and
/// [`error_record`], which the client's resume path shares.
#[derive(Debug)]
pub struct SweepStream {
    plan: SweepPlan,
    next: usize,
    inflight: usize,
    tally: SweepTally,
    start: Instant,
}

impl SweepStream {
    /// A stream at cell zero with an empty tally; the wall clock for the
    /// summary record starts now.
    pub fn new(plan: SweepPlan) -> SweepStream {
        let cells = plan.cell_count();
        SweepStream {
            plan,
            next: 0,
            inflight: 0,
            tally: SweepTally {
                cells,
                ..SweepTally::default()
            },
            start: Instant::now(),
        }
    }

    /// The next unexpanded cell, advancing the cursor; `None` once every
    /// cell has been handed out.
    pub fn take_next(&mut self) -> Option<PlannedCell> {
        if self.next >= self.tally.cells {
            return None;
        }
        let cell = self.plan.cell(self.next);
        self.next += 1;
        Some(cell)
    }

    /// Cells submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inflight
    }

    /// Marks one cell as submitted to the service.
    pub fn begin_flight(&mut self) {
        self.inflight += 1;
    }

    /// Marks one submitted cell as completed.
    pub fn end_flight(&mut self) {
        debug_assert!(self.inflight > 0);
        self.inflight -= 1;
    }

    /// Tallies one finished cell and renders its record: the result as
    /// `(key, result text, how it was served)`, or the message of the
    /// error that replaced it.
    pub fn finish_cell(
        &mut self,
        meta: &CellMeta,
        outcome: Result<(u64, &str, Served), &str>,
    ) -> String {
        match outcome {
            Ok((key, result_text, served)) => {
                self.tally.count_ok(served);
                result_record(meta, key, served, result_text)
            }
            Err(message) => {
                self.tally.errors += 1;
                error_record(meta, message)
            }
        }
    }

    /// Whether every cell has been handed out *and* completed — time for
    /// the summary record.
    pub fn is_done(&self) -> bool {
        self.next >= self.tally.cells && self.inflight == 0
    }

    /// Renders the trailing summary from the running tally and the
    /// stream's own wall clock.
    pub fn summary_line(&self) -> String {
        summary_record(&self.tally, self.start.elapsed().as_secs_f64() * 1e3)
    }
}

/// A non-empty array field (shape validation — these errors 400 the whole
/// request, unlike per-entry resolution failures).
fn non_empty<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let items = field_arr(v, key)?;
    if items.is_empty() {
        return Err(format!("'{key}' must be a non-empty array"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_sim::json::{sim_request_key, sweep_spec_to_json};
    use bbs_sim::sweep::SweepSpec;

    fn parse_plan(body: &str) -> Result<SweepPlan, String> {
        SweepPlan::from_json(&Json::parse(body).unwrap(), 65536)
    }

    /// The spec's own encoding, decoded by the server, expands to the
    /// spec's cells in the spec's order.
    #[test]
    fn expansion_order_matches_sim_sweep_spec() {
        let spec = SweepSpec {
            models: vec![zoo::vit_small(), zoo::resnet34()],
            accelerators: vec!["stripes".into(), "bitwave".into(), "ant".into()],
            configs: vec![
                ArrayConfig::paper_16x32(),
                ArrayConfig::paper_16x32().with_pe_cols(8),
            ],
            seeds: vec![7, 8],
            caps: vec![128, 256],
        };
        let plan = SweepPlan::from_json(&sweep_spec_to_json(&spec), 65536).unwrap();
        assert_eq!(plan.cell_count(), spec.cell_count().unwrap());
        for cell in spec.cells() {
            let planned = plan.cell(cell.index);
            assert_eq!(planned.meta.config, cell.config);
            let request = planned.request.unwrap();
            assert_eq!(request.model, spec.models[cell.model]);
            assert_eq!(request.accelerator, spec.accelerators[cell.accelerator]);
            assert_eq!(request.config, spec.configs[cell.config]);
            assert_eq!(request.seed, spec.seeds[cell.seed]);
            assert_eq!(request.max_weights_per_layer, spec.caps[cell.cap]);
            // And the job key is the shared content address.
            let key = sim_request_key(
                &spec.models[cell.model],
                &spec.accelerators[cell.accelerator],
                &spec.configs[cell.config],
                spec.seeds[cell.seed],
                spec.caps[cell.cap],
            );
            assert_eq!(request.key(), key);
        }
    }

    #[test]
    fn unknown_entries_poison_cells_not_the_request() {
        let plan = parse_plan(
            "{\"models\":[\"ViT-Small\",\"NoSuchNet\"],\
             \"accelerators\":[\"stripes\",\"tpu\"]}",
        )
        .unwrap();
        assert_eq!(plan.cell_count(), 4);
        let ok: Vec<bool> = (0..4).map(|i| plan.cell(i).request.is_ok()).collect();
        // Only (ViT-Small, stripes) is runnable.
        assert_eq!(ok, [true, false, false, false]);
        let err = plan.cell(1).request.unwrap_err();
        assert!(err.contains("unknown accelerator"), "{err}");
        let err = plan.cell(2).request.unwrap_err();
        assert!(err.contains("unknown model"), "{err}");
    }

    #[test]
    fn shape_errors_reject_the_request() {
        for (body, needle) in [
            ("{\"accelerators\":[\"ant\"]}", "models"),
            ("{\"models\":[],\"accelerators\":[\"ant\"]}", "non-empty"),
            ("{\"models\":[\"VGG-16\"]}", "accelerators"),
            (
                "{\"models\":[\"VGG-16\"],\"accelerators\":[\"ant\"],\"seeds\":[1.5]}",
                "seeds",
            ),
            (
                "{\"models\":[\"VGG-16\"],\"accelerators\":[\"ant\"],\
                 \"max_weights_per_layer\":[0]}",
                "max_weights_per_layer",
            ),
            (
                "{\"models\":[\"VGG-16\"],\"accelerators\":[\"ant\"],\"configs\":{}}",
                "configs",
            ),
        ] {
            let err = parse_plan(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn oversized_grids_rejected() {
        let seeds: Vec<String> = (0..MAX_SWEEP_CELLS + 1).map(|s| s.to_string()).collect();
        let body = format!(
            "{{\"models\":[\"ViT-Small\"],\"accelerators\":[\"stripes\"],\
             \"seeds\":[{}]}}",
            seeds.join(",")
        );
        let err = parse_plan(&body).unwrap_err();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn caps_are_clamped_like_single_requests() {
        let plan = SweepPlan::from_json(
            &Json::parse(
                "{\"models\":[\"ViT-Small\"],\"accelerators\":[\"stripes\"],\
                 \"max_weights_per_layer\":[999999]}",
            )
            .unwrap(),
            8192,
        )
        .unwrap();
        assert_eq!(plan.cell(0).meta.cap, 8192);
    }
}
