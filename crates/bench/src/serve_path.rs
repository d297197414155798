//! The `--via-serve` figure path: run a whole grid through a `bbs-serve`
//! instance's `/sweep` route instead of calling the engine in-process.
//!
//! The wire carries [`bbs_sim::SimResult`]s through the workspace
//! serialization layer, whose f64/u64 round trips are bit-exact — so a
//! figure computed from served results is **byte-identical** to the
//! in-process grid (asserted in CI by diffing `fig12_speedup` output
//! against `fig12_speedup --via-serve`, and in `tests/grid.rs`).

use bbs_json::Json;
use bbs_serve::client::Client;
use bbs_serve::registry::canonical_id;
use bbs_serve::server::{start, ServeConfig, ServerHandle};
use bbs_sim::json::{sim_result_from_json, sweep_spec_to_json};
use bbs_sim::sweep::{SweepCell, SweepSpec};
use bbs_sim::SimResult;
use std::net::SocketAddr;
use std::process::ExitCode;

/// [`crate::grid_results`] at a server: POSTs the spec to `/sweep` and
/// reassembles the streamed cells into expansion order. Any cell error
/// (or a missing/duplicate cell) fails the whole figure — a
/// partially-served table would silently lie.
pub(crate) fn sweep_results(spec: &SweepSpec, addr: SocketAddr) -> Result<Vec<SimResult>, String> {
    let expected = spec.cell_count().ok_or("sweep grid is empty")?;
    let cells = spec.cells();
    let body = sweep_spec_to_json(spec).to_string();
    let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (status, lines) = client.sweep(&body).map_err(|e| e.to_string())?;

    let mut results: Vec<Option<SimResult>> = (0..expected).map(|_| None).collect();
    let mut saw_summary = false;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("sweep rejected (HTTP {status}): {line}"));
        }
        let v = Json::parse(&line).map_err(|e| format!("bad sweep record: {e}"))?;
        if let Some(summary) = v.get("summary") {
            if summary.get("cells").and_then(Json::as_usize) != Some(expected) {
                return Err(format!("summary cell count mismatch: {line}"));
            }
            saw_summary = true;
            continue;
        }
        let idx = v
            .get("cell")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("record without cell index: {line}"))?;
        if let Some(err) = v.get("error").and_then(Json::as_str) {
            return Err(format!("cell {idx} failed: {err}"));
        }
        let slot = results
            .get_mut(idx)
            .ok_or_else(|| format!("cell index {idx} out of range"))?;
        if slot.is_some() {
            return Err(format!("cell {idx} streamed twice"));
        }
        check_echo(spec, &cells[idx], &v)?;
        let result = v
            .get("result")
            .ok_or_else(|| format!("cell {idx} without result"))
            .and_then(|r| sim_result_from_json(r).map_err(|e| format!("cell {idx}: {e}")))?;
        *slot = Some(result);
    }
    if status != 200 {
        return Err(format!("sweep rejected (HTTP {status})"));
    }
    if !saw_summary {
        return Err("sweep stream ended without a summary record".to_string());
    }
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| format!("cell {i} missing from stream")))
        .collect()
}

/// Checks that a record filed under `cell` echoes that cell's model,
/// accelerator, config, seed and weight cap. A server that mislabelled a
/// cell would otherwise put a wrong result into the table silently.
fn check_echo(spec: &SweepSpec, cell: &SweepCell, record: &Json) -> Result<(), String> {
    let idx = cell.index;
    // A remote server with a lower `--max-cap` clamps the weight cap.
    let requested_cap = spec.caps[cell.cap];
    let served_cap = record.get("max_weights_per_layer").and_then(Json::as_usize);
    if served_cap != Some(requested_cap) {
        return Err(format!(
            "cell {idx}: server simulated cap {} instead of the requested {requested_cap} \
             (its --max-cap is lower than BBS_CAP); results would not match the \
             in-process sweep",
            served_cap.map_or("?".to_string(), |c| c.to_string()),
        ));
    }
    let str_of = |axis| record.get(axis).and_then(Json::as_str);
    let accelerator = spec.accelerators[cell.accelerator].as_str();
    let axes = [
        (
            "model",
            str_of("model") == Some(spec.models[cell.model].name),
        ),
        (
            "accelerator",
            str_of("accelerator") == Some(canonical_id(accelerator).unwrap_or(accelerator)),
        ),
        (
            "config",
            record.get("config").and_then(Json::as_usize) == Some(cell.config),
        ),
        (
            "seed",
            record.get("seed").and_then(Json::as_u64) == Some(spec.seeds[cell.seed]),
        ),
    ];
    match axes.iter().find(|(_, matches)| !matches) {
        Some((axis, _)) => Err(format!("cell {idx}: {axis} mismatch: {record}")),
        None => Ok(()),
    }
}

/// An ephemeral in-process server for self-hosted `--via-serve` runs.
/// `max_cap` is raised to the current `BBS_CAP` so the server never
/// clamps the figure's weight cap (which would silently change results).
pub fn self_hosted_server() -> Result<ServerHandle, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    config.service.max_cap = config.service.max_cap.max(crate::weight_cap());
    start(config).map_err(|e| format!("failed to start in-process server: {e}"))
}

/// The `main` of a figure binary. It computes `table` in process, or
/// through a `bbs-serve` `/sweep` route with `--via-serve` (an ephemeral
/// in-process server) or `--via-serve-addr HOST:PORT` (a running one).
/// It prints the table as text, or as JSON with `--json`; either path
/// prints the same bytes.
pub fn figure_main<T>(
    bin: &str,
    table: fn(Option<SocketAddr>) -> Result<T, String>,
    print: fn(&T),
    to_json: fn(&T) -> Json,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match table_from_args(&args, table) {
        Ok(t) if args.iter().any(|a| a == "--json") => println!("{}", to_json(&t).pretty(2)),
        Ok(t) => print(&t),
        Err(e) => {
            eprintln!("{bin}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `table` computed where the serve flags in `args` say.
fn table_from_args<T>(
    args: &[String],
    table: fn(Option<SocketAddr>) -> Result<T, String>,
) -> Result<T, String> {
    if let Some(pos) = args.iter().position(|a| a == "--via-serve-addr") {
        let addr = args
            .get(pos + 1)
            .ok_or("--via-serve-addr requires HOST:PORT")?;
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| format!("bad --via-serve-addr '{addr}': {e}"))?;
        return table(Some(addr));
    }
    if !args.iter().any(|a| a == "--via-serve") {
        return table(None);
    }
    let server = self_hosted_server()?;
    let out = table(Some(server.addr()));
    server.stop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::zoo;
    use bbs_serve::service::Served;
    use bbs_serve::sweep::{result_record, CellMeta};
    use bbs_sim::config::ArrayConfig;

    /// [`check_echo`] on a record for cell 3 of a 2×2 grid, built by the
    /// server's own formatter from that cell's echo with `edit` applied.
    fn echo_check(edit: impl FnOnce(&mut CellMeta)) -> Result<(), String> {
        let spec = SweepSpec::grid(
            vec![zoo::vgg16(), zoo::resnet34()],
            vec!["stripes".to_string(), "bitvert-mod".to_string()],
            ArrayConfig::paper_16x32(),
            7,
            256,
        );
        let cell = spec.cells()[3];
        let mut meta = CellMeta {
            index: 3,
            model: "ResNet-34".to_string(),
            accelerator: "bitvert-moderate".to_string(),
            config: 0,
            seed: 7,
            cap: 256,
        };
        edit(&mut meta);
        let record = result_record(&meta, 1, Served::Fresh, "{}");
        check_echo(&spec, &cell, &Json::parse(&record).expect("record parses"))
    }

    fn assert_rejected(axis: &str, edit: impl FnOnce(&mut CellMeta)) {
        let err = echo_check(edit).expect_err("a wrong echo must fail");
        assert!(err.starts_with("cell 3:"), "{err}");
        assert!(err.contains(axis), "{err}");
    }

    #[test]
    fn the_cells_own_echo_passes() {
        echo_check(|_| {}).expect("matching echo");
    }

    #[test]
    fn wrong_model_echo_is_rejected() {
        assert_rejected("model", |m| m.model = "VGG-16".to_string());
    }

    #[test]
    fn wrong_accelerator_echo_is_rejected() {
        assert_rejected("accelerator", |m| m.accelerator = "stripes".to_string());
    }

    #[test]
    fn wrong_config_echo_is_rejected() {
        assert_rejected("config", |m| m.config = 1);
    }

    #[test]
    fn wrong_seed_echo_is_rejected() {
        assert_rejected("seed", |m| m.seed = 8);
    }

    #[test]
    fn clamped_cap_echo_is_rejected() {
        assert_rejected("cap", |m| m.cap = 128);
    }
}
