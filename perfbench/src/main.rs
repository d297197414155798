//! The repository's benchmark: workloads over the batch reproduction and
//! the `bbs serve` simulation service. `BENCHMARK.json` judges `repro`,
//! `serve_cold` and `serve_coord`; `serve_warm` runs by hand.
//!
//! ```sh
//! bash perfbench/run.sh --workload repro|serve_cold|serve_coord|serve_warm \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced), named and unit-stamped as `BENCHMARK.json` at the
//! checkout root declares them. See `perfbench/README.md` for what each
//! workload and metric means.

mod http;
mod layers;
mod procs;
mod repro;
mod serve;
mod stats;

use bbs_json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the binaries are and what the command line asked for.
pub struct Env {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// The directory holding this binary, `bbs` and `repro`.
    pub bin_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Env {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// What one run measured. Units come from `BENCHMARK.json`.
pub struct Outcome {
    pub failed: u64,
    pub attempted: u64,
    e2e: Vec<(String, f64)>,
    layers: Vec<(String, f64)>,
    notes: Vec<String>,
    /// The server's lane backend, for the provenance block.
    pub simd_backend: Option<String>,
}

impl Outcome {
    pub fn new(failed: u64, attempted: u64) -> Outcome {
        Outcome {
            failed,
            attempted,
            e2e: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            simd_backend: None,
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A metric `BENCHMARK.json` declares: its name and unit.
type Declared = (String, String);

/// The `end_to_end` and `per_layer` metrics of `BENCHMARK.json`, in its
/// order.
fn declared_metrics(text: &str) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let v = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        v.get(key)?
            .as_arr()?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                Some((field("name")?, field("unit")?))
            })
            .collect::<Option<Vec<Declared>>>()
    };
    let e2e = list("end_to_end").ok_or("BENCHMARK.json: bad end_to_end")?;
    let layers = list("per_layer").ok_or("BENCHMARK.json: bad per_layer")?;
    Ok((e2e, layers))
}

/// The declared metrics with their measured values. A measured metric
/// must be declared; a declared one that was not measured is an error,
/// or reads 0 when `absent_is_zero` (a layer the workload does not
/// exercise).
fn report(
    declared: &[Declared],
    measured: &[(String, f64)],
    absent_is_zero: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    if let Some((name, _)) = measured
        .iter()
        .find(|(m, _)| !declared.iter().any(|(d, _)| d == m))
    {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    declared
        .iter()
        .map(|(name, unit)| {
            let value = match measured.iter().find(|(m, _)| m == name) {
                Some((_, v)) => *v,
                None if absent_is_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            Ok((name.clone(), value, unit.clone()))
        })
        .collect()
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    ))
}

/// One line of `$ cmd --version`-style output, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(env: &Env, workload: &str, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The vendored rayon caps its workers at RAYON_NUM_THREADS, else the
    // hardware thread count.
    let rayon_threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(nproc);
    let simd = out
        .simd_backend
        .clone()
        .unwrap_or_else(|| bbs_tensor::lanes::Backend::active().label().to_string());
    // Only the checkout's own history: git would otherwise report the
    // commit of any repository the checkout happens to sit inside.
    let commit = if env.root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "not a git checkout".to_string()
    };
    Json::obj(vec![(
        "provenance",
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::from_u64(env.seed)),
            ("nproc", Json::from_usize(nproc)),
            ("cpu", Json::str(&cpu)),
            ("rustc", Json::str(&command_line("rustc", &["--version"]))),
            ("git_commit", Json::str(&commit)),
            ("simd_backend", Json::str(&simd)),
            ("rayon_threads", Json::from_usize(rayon_threads)),
        ]),
    )])
    .to_string()
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(repro::CHILD_FLAG) {
        repro::child_main();
        return ExitCode::SUCCESS;
    }
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let declared = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| declared_metrics(&text));
    let (declared_e2e, declared_layers) = match declared {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = Env {
        root,
        bin_dir: std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .expect("binary directory"),
        seed,
        seconds,
        trace,
    };
    let result = match workload.as_str() {
        "repro" => repro::run(&env),
        "serve_cold" => serve::run(&env, serve::Kind::Cold),
        "serve_warm" => serve::run(&env, serve::Kind::Warm),
        "serve_coord" => serve::run(&env, serve::Kind::Coord),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if trace {
        report(&declared_layers, &out.layers, true)
    } else {
        report(&declared_e2e, &out.e2e, false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", provenance(&env, &workload, &out));
    if trace {
        println!("# per-layer ({workload}, traced)");
        for (name, value, unit) in &metrics {
            println!("#   {name:<40} {value:>14.3} {unit}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn declared_names_are_unique() {
        let (e2e, layers) = declared_metrics(&benchmark_json()).expect("parses");
        let mut names: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn report_follows_the_declaration() {
        let declared = vec![
            ("a_ms".to_string(), "ms".to_string()),
            ("b".to_string(), "count".to_string()),
        ];
        let measured = vec![("b".to_string(), 2.0)];
        let got = report(&declared, &measured, true).expect("layers may be absent");
        assert_eq!(
            got,
            vec![
                ("a_ms".to_string(), 0.0, "ms".to_string()),
                ("b".to_string(), 2.0, "count".to_string())
            ]
        );
        assert!(report(&declared, &measured, false).is_err(), "a_ms missing");
        let stray = vec![("c".to_string(), 1.0)];
        assert!(report(&declared, &stray, true).is_err(), "c undeclared");
    }
}
