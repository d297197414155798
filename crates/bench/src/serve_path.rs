//! The `--via-serve` figure path: run a whole grid through a `bbs-serve`
//! instance's `/sweep` route instead of calling the engine in-process,
//! and [`figure_main`], the command line of the figure binaries.
//!
//! The wire carries [`bbs_sim::SimResult`]s through the workspace
//! serialization layer, whose f64/u64 round trips are bit-exact — so a
//! figure computed from served results is **byte-identical** to the
//! in-process grid (asserted in CI by diffing the text and `--json`
//! output of `fig12_speedup` and `fig13_energy` against `--via-serve`,
//! and in `tests/grid.rs`).

use crate::{json_document, Table};
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

/// The flags [`figure_main`] accepts.
const FIGURE_FLAGS: &str = "--json, --via-serve, --via-serve-addr HOST:PORT";

/// A figure binary's flags; `--via-serve-addr` wins over `--via-serve`.
#[derive(Debug, Default, PartialEq)]
struct FigureArgs {
    json: bool,
    via_serve: bool,
    via_serve_addr: Option<SocketAddr>,
}

impl FigureArgs {
    /// Parses `args` (without the program name). Any other argument is an
    /// error that lists the known flags.
    fn parse(args: &[String]) -> Result<FigureArgs, String> {
        let mut out = FigureArgs::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => out.json = true,
                "--via-serve" => out.via_serve = true,
                "--via-serve-addr" => {
                    let addr = args.next().ok_or("--via-serve-addr requires HOST:PORT")?;
                    let addr = addr
                        .parse()
                        .map_err(|e| format!("bad --via-serve-addr '{addr}': {e}"))?;
                    out.via_serve_addr = Some(addr);
                }
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (known: {FIGURE_FLAGS})"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// `tables` computed where the serve flags say.
    fn compute(&self, tables: Tables) -> Result<Vec<Table>, String> {
        if let Some(addr) = self.via_serve_addr {
            return tables(Some(addr));
        }
        if !self.via_serve {
            return tables(None);
        }
        let server = self_hosted_server()?;
        let out = tables(Some(server.addr()));
        server.stop();
        out
    }
}

/// A figure's tables, computed in process (`None`) or by the server at
/// the given address.
type Tables = fn(Option<SocketAddr>) -> Result<Vec<Table>, String>;

/// The `main` of a figure binary. It computes `tables` in process, or
/// through a `bbs-serve` `/sweep` route with `--via-serve` (an ephemeral
/// in-process server) or `--via-serve-addr HOST:PORT` (a running one).
/// It prints them as text, or with `--json` as the one JSON document
/// ([`crate::json_document`]); either path prints the same bytes. Any
/// other argument fails the run.
pub fn figure_main(bin: &str, tables: Tables) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match FigureArgs::parse(&args).and_then(|args| Ok((args.json, args.compute(tables)?))) {
        Ok((true, t)) => println!("{}", json_document(&t).pretty(2)),
        Ok((false, t)) => t.iter().for_each(|t| print!("{}", t.render())),
        Err(e) => {
            eprintln!("{bin}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
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
        let spec = SweepSpec {
            models: vec![zoo::vgg16(), zoo::resnet34()],
            accelerators: vec!["stripes".to_string(), "bitvert-mod".to_string()],
            configs: vec![ArrayConfig::paper_16x32()],
            seeds: vec![7],
            caps: vec![256],
        };
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_parse() {
        let parsed = FigureArgs::parse(&args(&["--json", "--via-serve-addr", "127.0.0.1:9"]));
        let expected = FigureArgs {
            json: true,
            via_serve: false,
            via_serve_addr: Some("127.0.0.1:9".parse().unwrap()),
        };
        assert_eq!(parsed, Ok(expected));
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_known_ones() {
        let err = FigureArgs::parse(&args(&["--via-serve-adr", "127.0.0.1:9"]))
            .expect_err("a misspelt flag must fail");
        assert!(err.contains("'--via-serve-adr'"), "{err}");
        assert!(err.contains(FIGURE_FLAGS), "{err}");
    }

    #[test]
    fn via_serve_addr_without_a_value_is_rejected() {
        let err = FigureArgs::parse(&args(&["--json", "--via-serve-addr"]))
            .expect_err("a flag without its value must fail");
        assert!(err.contains("requires HOST:PORT"), "{err}");
    }
}
