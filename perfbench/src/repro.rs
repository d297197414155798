//! The `repro` workload: the batch reproduction at `BBS_CAP=256`, its
//! transcript diffed byte-for-byte against the repository's golden, and
//! one figure regenerated on its own a few times.

use crate::http::find;
use crate::procs::wait_with_peak_rss;
use crate::stats::{median, summarize};
use crate::{layers, Env, Outcome};
use std::io::{self, BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The cap the golden transcript was recorded at.
const CAP: &str = "256";

/// Set-ups measured per run; the median is reported. Each takes about a
/// millisecond, so many are cheap.
const SETUPS: usize = 15;

/// Runs of the single-figure binary per workload run (1.1–2.4 s each).
const FIGURE_RUNS: usize = 5;

/// The experiments of `bbs_bench::experiments::run_all`, in its order.
pub const EXPERIMENTS: [(&str, fn()); 16] = {
    use bbs_bench::experiments::*;
    [
        ("tab01", tab01::run),
        ("fig03", fig03::run),
        ("fig06", fig06::run),
        ("fig11", fig11::run),
        ("tab02", tab02::run),
        ("tab03", tab03::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("tab04", tab04::run),
        ("tab05", tab05::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("tab06", tab06::run),
        ("ablations", ablations::run),
    ]
};

/// One untraced repro run.
struct Run {
    wall_s: f64,
    peak_rss_kb: u64,
    correct: bool,
}

fn golden(env: &Env) -> io::Result<Vec<u8>> {
    std::fs::read(env.root.join("tests/golden/repro_cap256.txt"))
}

fn repro_cmd(env: &Env) -> Command {
    let mut cmd = Command::new(env.bin("repro"));
    cmd.env("BBS_CAP", CAP)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// Spawn to the transcript's first line, which `repro` prints before
/// any experiment runs.
fn setup_once(env: &Env) -> io::Result<f64> {
    let start = Instant::now();
    let mut child = repro_cmd(env).spawn()?;
    let mut first = Vec::new();
    BufReader::new(child.stdout.take().expect("piped stdout")).read_until(b'\n', &mut first)?;
    let elapsed = start.elapsed().as_secs_f64();
    child.kill()?;
    child.wait()?;
    if first.is_empty() {
        return Err(io::Error::other("repro printed nothing"));
    }
    Ok(elapsed)
}

fn run_once(env: &Env, golden: &[u8]) -> io::Result<Run> {
    let start = Instant::now();
    let mut child = repro_cmd(env).spawn()?;
    let mut transcript = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut transcript);
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let (ok, peak_rss_kb) = wait_with_peak_rss(child)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Run {
        wall_s,
        peak_rss_kb,
        correct: ok && transcript == golden,
    })
}

/// Regenerates one figure with its own binary: `fig12_speedup`, the
/// headline speedup sweep over all eight accelerators. Its table must
/// appear verbatim in the golden transcript. Returns seconds and whether
/// the output matched.
fn figure_once(env: &Env, golden: &[u8]) -> io::Result<(f64, bool)> {
    let start = Instant::now();
    let out = Command::new(env.bin("fig12_speedup"))
        .env("BBS_CAP", CAP)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()?;
    let secs = start.elapsed().as_secs_f64();
    let ok = out.status.success()
        && out.stdout.starts_with(b"\n## Fig. 12")
        && find(golden, &out.stdout).is_some();
    Ok((secs, ok))
}

pub fn run(env: &Env) -> io::Result<Outcome> {
    let golden = golden(env)?;
    if env.trace {
        return traced(&golden);
    }
    let setups = (0..SETUPS)
        .map(|_| setup_once(env))
        .collect::<io::Result<Vec<f64>>>()?;
    let run = run_once(env, &golden)?;
    let figures = (0..FIGURE_RUNS)
        .map(|_| figure_once(env, &golden))
        .collect::<io::Result<Vec<(f64, bool)>>>()?;
    let failed = u64::from(!run.correct) + figures.iter().filter(|(_, ok)| !ok).count() as u64;
    let mut out = Outcome::new(failed, 1 + FIGURE_RUNS as u64);

    let figure_ms: Vec<f64> = figures.iter().map(|(s, _)| s * 1e3).collect();
    let unit = summarize(&figure_ms);
    let figure_total_s = figure_ms.iter().sum::<f64>() / 1e3;
    out.e2e("setup_s", median(&setups));
    out.e2e("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0);
    out.e2e("unit_per_s", FIGURE_RUNS as f64 / figure_total_s);
    out.e2e("unit_p50_ms", unit.p50);
    out.e2e("unit_tail_ms", unit.tail);
    out.e2e("grid_cells_per_s", EXPERIMENTS.len() as f64 / run.wall_s);
    out.e2e("grid_p50_ms", run.wall_s * 1e3);
    out.e2e("grid_tail_ms", run.wall_s * 1e3);
    out.note(format!(
        "repro: {:.3} s; fig12_speedup: {} runs, tail at p{}",
        run.wall_s, unit.n, unit.tail_pct
    ));
    Ok(out)
}

/// The traced run: the experiments in-process with a span each, their
/// transcript diffed against the golden, then the models layer.
fn traced(golden: &[u8]) -> io::Result<Outcome> {
    let traced = traced_experiments(golden)?;
    let mut out = Outcome::new(u64::from(!traced.correct), 1);
    for (name, secs) in &traced.spans {
        out.layer(&format!("exp.{name}_s"), *secs);
    }
    // What tracing adds to the run is the span bookkeeping itself.
    out.layer(
        "trace.overhead_pct",
        traced.record_s / traced.wall_s * 100.0,
    );
    out.note(format!("experiments in-process: {:.3} s", traced.wall_s));
    layers::models(&mut out);
    Ok(out)
}

/// The traced run: every experiment in-process, one span each.
struct Traced {
    spans: Vec<(String, f64)>,
    /// Seconds the child spent recording its spans.
    record_s: f64,
    wall_s: f64,
    correct: bool,
}

/// Runs [`child_main`] in a child process of this binary, so its
/// transcript can be diffed like the `repro` binary's.
fn traced_experiments(golden: &[u8]) -> io::Result<Traced> {
    let start = Instant::now();
    let child = Command::new(std::env::current_exe()?)
        .arg(CHILD_FLAG)
        .env("BBS_CAP", CAP)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let output = child.wait_with_output()?;
    let wall_s = start.elapsed().as_secs_f64();
    let spans_line = String::from_utf8_lossy(&output.stderr)
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(SPANS_PREFIX).map(str::to_string))
        .ok_or_else(|| io::Error::other("experiment child reported no spans"))?;
    let mut spans = spans_line
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect::<Vec<(String, f64)>>();
    let record_s = match spans.pop() {
        Some((name, secs)) if name == RECORD_SPAN => secs,
        _ => return Err(io::Error::other("experiment child reported no record time")),
    };
    Ok(Traced {
        correct: output.status.success()
            && output.stdout == golden
            && spans.len() == EXPERIMENTS.len(),
        spans,
        record_s,
        wall_s,
    })
}

/// The hidden flag that turns this binary into the experiment child.
pub const CHILD_FLAG: &str = "--experiments-child";
const SPANS_PREFIX: &str = "perfbench-spans ";
/// The last entry of the spans line: the time spent recording spans.
const RECORD_SPAN: &str = "record";

/// Prints the repro transcript from in-process experiment calls, then
/// the per-experiment spans on stderr, kept in memory until the end.
pub fn child_main() {
    println!(
        "# BBS / BitVert — full reproduction run (seed {}, cap {})",
        bbs_bench::SEED,
        bbs_bench::weight_cap()
    );
    let mut spans = Vec::with_capacity(EXPERIMENTS.len() + 1);
    let mut record_s = 0.0;
    for (name, run) in EXPERIMENTS {
        let start = Instant::now();
        run();
        let end = Instant::now();
        spans.push(format!("{name}={}", (end - start).as_secs_f64()));
        record_s += end.elapsed().as_secs_f64();
    }
    spans.push(format!("{RECORD_SPAN}={record_s}"));
    eprintln!("{SPANS_PREFIX}{}", spans.join(","));
}
