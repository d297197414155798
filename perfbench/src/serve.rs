//! The service workloads: `bbs serve` child processes driven closed-loop
//! over `/simulate` (two client threads, each with one connection) and
//! 4×4 `/sweep` grids (one at a time).
//!
//! - `serve_cold`: every point is new, so every result-cache lookup
//!   misses; each (model, seed) is asked of all eight accelerators, as a
//!   design-space sweep would, so the lowering store still hits.
//! - `serve_warm`: one working set (4 models × 8 accelerators at one seed)
//!   is filled in set-up; the timed phases are all cache hits.
//! - `serve_coord`: the `serve_warm` mix through a `--shard-of`
//!   coordinator over two shard processes.

use crate::http::{self, find, Conn};
use crate::procs::Server;
use crate::stats::{median, summarize};
use crate::{layers, Env, Outcome};
use bbs_json::Json;
use bbs_serve::registry::accelerator_by_name;
use bbs_sim::engine::simulate_with;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::{ArrayConfig, WorkloadStore};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The serve models: two CNNs and two transformers.
pub const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"];

/// The accelerators of every timed sweep grid: the bit-serial family of
/// the paper's PE-column study (Stripes, Pragmatic, Bitlet, BitVert).
/// One fixed set gives every grid the same cost; grids over alternating
/// halves of the eight accelerators differed ~10× in cold cost, which
/// made the sweep median jump between the two. BitWave and
/// BitVert-moderate, the costliest models, are left to `/simulate`, so a
/// cold run completes enough grids for a median.
const GRID_ACCELS: [&str; 4] = ["stripes", "pragmatic", "bitlet", "bitvert-conservative"];

/// The per-layer weight cap requests get when they name none.
pub const CAP: usize = bbs_serve::request::DEFAULT_CAP;

/// `/simulate` client threads, each with one connection: the host's CPU
/// count.
const CLIENTS: usize = 2;

/// `/sweep` client threads. One sweep at a time, as a design-space script
/// sends them: two concurrent warm sweeps either overlapped (~8.5 ms) or
/// did not (~5.5 ms), so the sweep median jumped between the two.
const SWEEP_CLIENTS: usize = 1;

/// Cells in one sweep grid.
const GRID_CELLS: usize = MODELS.len() * GRID_ACCELS.len();

/// Shards behind the coordinator.
const SHARDS: usize = 2;

/// Seeds one phase's points may use before they reach the next phase's.
const SEED_SPAN: u64 = 1000;

/// The `/simulate` and `/sweep` phases alternate in slices of about this
/// many seconds, so both sample the whole run rather than one half each.
/// Each slice ends by waiting for the ops in flight (a cold grid takes
/// ~0.3 s), so slices much shorter than this would mostly measure that
/// wait.
const SLICE_S: f64 = 2.5;

/// The share of a run the `/simulate` phase gets. Its sub-millisecond
/// warm hits track the host's single-core speed, which swings most, so it
/// gets the longer average; sweeps hold sixteen cells each.
const SIMULATE_SHARE: f64 = 2.0 / 3.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
    Coord,
}

/// One request of the point space; `accel` indexes the server's list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Point {
    model: usize,
    accel: usize,
    seed: u64,
}

/// Point `i` of a sequence starting at `base_seed`: each (model, seed)
/// across every accelerator, then the next model, then the next seed.
fn point(i: usize, base_seed: u64, n_accels: usize) -> Point {
    let per_seed = MODELS.len() * n_accels;
    Point {
        model: (i % per_seed) / n_accels,
        accel: i % n_accels,
        seed: base_seed + (i / per_seed) as u64,
    }
}

pub fn simulate_body(model: &str, accel: &str, seed: u64) -> String {
    format!("{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\"seed\":{seed}}}")
}

/// A `/sweep` body: every model × `accels` at one seed.
fn sweep_body<S: AsRef<str>>(accels: &[S], seed: u64) -> String {
    let quoted = |items: &mut dyn Iterator<Item = &str>| {
        items
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"models\":[{}],\"accelerators\":[{}],\"seeds\":[{seed}]}}",
        quoted(&mut MODELS.iter().copied()),
        quoted(&mut accels.iter().map(AsRef::as_ref)),
    )
}

/// Expected `result` texts by point.
type Expected = HashMap<Point, String>;

/// `sim_result_to_json(..)` of the engine's result for every point, on
/// [`CLIENTS`] threads. `engine::simulate_with` on a store of this
/// process's own lowers each (model, seed) once instead of once per
/// accelerator, as `engine::simulate` would; the sim crate pins the two
/// bit-identical, and it halves the time a cold run spends checking.
fn expected_for(points: &[Point], accels: &[String]) -> Expected {
    let mut unique: Vec<Point> = points.to_vec();
    unique.sort_by_key(|p| (p.seed, p.model, p.accel));
    unique.dedup();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Expected::new());
    let cfg = ArrayConfig::paper_16x32();
    let store = WorkloadStore::default();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = unique.get(i) else { break };
                let model = bbs_models::zoo::by_name(MODELS[p.model]).expect("zoo model");
                let accel = accelerator_by_name(&accels[p.accel]).expect("registry id");
                let sim = simulate_with(&store, accel.as_ref(), &model, &cfg, p.seed, CAP);
                let text = sim_result_to_json(&sim).to_string();
                done.lock().expect("no panics").insert(*p, text);
            });
        }
    });
    done.into_inner().expect("no panics")
}

/// The `result` value of a `/simulate` body or a sweep record.
fn result_of(record: &[u8]) -> Option<&[u8]> {
    let i = find(record, b",\"result\":")?;
    record[i + 10..].strip_suffix(b"}")
}

/// The number after `key` in `text`.
fn number_after(text: &[u8], key: &[u8]) -> Option<f64> {
    let i = find(text, key)? + key.len();
    let end = text[i..]
        .iter()
        .position(|b| !(b.is_ascii_digit() || b"+-.eE".contains(b)))
        .map_or(text.len(), |n| i + n);
    std::str::from_utf8(&text[i..end]).ok()?.parse().ok()
}

/// Checks a sweep stream: cells 0..16 exactly once, each `result` equal
/// to `expect(cell)`, and a summary with `errors: 0`. Returns whether it
/// passed and the summary's `wall_ms`.
fn check_sweep<'a>(
    body: &[u8],
    expect: impl Fn(usize) -> Option<&'a String>,
) -> (bool, Option<f64>) {
    let mut seen = 0u32;
    let mut ok = true;
    let mut wall_ms = None;
    for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        if line.starts_with(b"{\"summary\"") {
            ok &= find(line, b"\"errors\":0,").is_some() && wall_ms.is_none();
            wall_ms = number_after(line, b"\"wall_ms\":");
            continue;
        }
        match number_after(line, b"{\"cell\":").map(|c| c as usize) {
            Some(c) if c < GRID_CELLS && seen & (1 << c) == 0 => {
                seen |= 1 << c;
                ok &= expect(c).is_some_and(|w| result_of(line) == Some(w.as_bytes()));
            }
            _ => ok = false,
        }
    }
    (
        ok && seen == (1 << GRID_CELLS) - 1 && wall_ms.is_some(),
        wall_ms,
    )
}

const STAGES: [&str; 7] = ["parse", "queue", "lower", "sim", "ser", "park", "total"];

/// The stage timings of an `x-bbs-trace` header, in [`STAGES`] order.
fn trace_stages(header: &str) -> Option<[f64; 7]> {
    let mut out = [0.0; 7];
    for (slot, stage) in out.iter_mut().zip(STAGES) {
        let key = format!("{stage}_us=");
        let at = header.find(&key)? + key.len();
        let digits: String = header[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        *slot = digits.parse().ok()?;
    }
    Some(out)
}

/// The servers of one workload: the front end the clients talk to, plus
/// the shards behind it in coordinator mode. Dropping it stops them all.
struct Fleet {
    front: Server,
    shards: Vec<Server>,
    /// The ids `GET /accelerators` lists.
    accels: Vec<String>,
}

impl Fleet {
    fn start(env: &Env, kind: Kind) -> io::Result<Fleet> {
        let bbs = env.bin("bbs");
        let mut shards = Vec::new();
        let mut extra = Vec::new();
        if kind == Kind::Coord {
            for _ in 0..SHARDS {
                shards.push(Server::spawn(&bbs, &[])?);
            }
            for shard in &shards {
                shard.wait_ready()?;
            }
            let addrs: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
            extra = vec!["--shard-of".to_string(), addrs.join(",")];
        }
        let front = Server::spawn(&bbs, &extra)?;
        front.wait_ready()?;
        let (status, body) = http::get(front.addr, "/accelerators")?;
        let accels: Vec<String> = Json::parse(&body)
            .ok()
            .and_then(|v| {
                v.get("accelerators")?
                    .as_arr()?
                    .iter()
                    .map(|a| a.as_str().map(str::to_string))
                    .collect()
            })
            .filter(|a: &Vec<String>| {
                status == 200
                    && a.len() == 8
                    && GRID_ACCELS.iter().all(|g| a.iter().any(|x| x == g))
            })
            .ok_or_else(|| io::Error::other(format!("bad /accelerators: {body}")))?;
        Ok(Fleet {
            front,
            shards,
            accels,
        })
    }

    /// The processes that run simulations (and own the caches).
    fn services(&self) -> Vec<&Server> {
        if self.shards.is_empty() {
            vec![&self.front]
        } else {
            self.shards.iter().collect()
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = std::iter::once(&self.front)
            .chain(&self.shards)
            .map(Server::peak_rss_kb)
            .sum();
        kb as f64 / 1024.0
    }

    /// Fills the caches with the warm working set (every model × every
    /// accelerator at `seed`) through the front end.
    fn warm_up(&self, seed: u64) -> io::Result<()> {
        let body = sweep_body(&self.accels, seed);
        let (r, _) = Conn::connect(self.front.addr)?.sweep(body.as_bytes())?;
        if r.status != 200 || find(&r.body, b"\"errors\":0,").is_none() {
            return Err(io::Error::other("warm-up sweep failed"));
        }
        Ok(())
    }
}

/// One timed operation's record.
#[derive(Default)]
struct Op {
    lat_ms: f64,
    ok: bool,
    /// Traced `/simulate`: the server's stage timings, and the seconds
    /// spent reading them.
    stages: Option<[f64; 7]>,
    trace_s: f64,
    /// Sweeps: the summary record's `wall_ms`.
    summary_wall_ms: Option<f64>,
    cells: usize,
    /// Checked after the run: the point or grid index and its bytes.
    later: Option<(usize, Vec<u8>)>,
}

/// Runs `op` closed-loop on `threads` threads until `dur` has passed,
/// numbering ops from `first`. Returns the records, the wall time and the
/// next unused number.
fn closed_loop<S>(
    threads: usize,
    first: usize,
    dur: Duration,
    init: impl Fn() -> io::Result<S> + Sync,
    op: impl Fn(&mut Option<S>, usize) -> Op + Sync,
) -> (Vec<Op>, f64, usize) {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + dur;
    let ops = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init().ok();
                    let mut ops = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        ops.push(op(&mut state, i));
                        if state.is_none() {
                            state = init().ok();
                        }
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (ops, start.elapsed().as_secs_f64(), next.into_inner())
}

/// One workload's traffic: which points and grids, and how replies are
/// checked.
struct Mix<'a> {
    addr: SocketAddr,
    accels: &'a [String],
    /// [`GRID_ACCELS`] as indices into `accels`.
    grid_accels: [usize; 4],
    sim_seed: u64,
    sweep_seed: u64,
    /// Warm: ops cycle over the working set instead of moving on.
    warm: bool,
    /// Warm: the expected results, checked right after each latency
    /// stamp. Cold: `None`, bodies are kept and checked after the run.
    expected: Option<&'a Expected>,
}

impl Mix<'_> {
    fn sim_point(&self, i: usize) -> Point {
        let n = self.accels.len();
        point(
            if self.warm { i % (MODELS.len() * n) } else { i },
            self.sim_seed,
            n,
        )
    }

    fn grid_seed(&self, g: usize) -> u64 {
        self.sweep_seed + if self.warm { 0 } else { g as u64 }
    }

    fn grid_cell(&self, g: usize, c: usize) -> Point {
        Point {
            model: c / GRID_ACCELS.len(),
            accel: self.grid_accels[c % GRID_ACCELS.len()],
            seed: self.grid_seed(g),
        }
    }

    fn simulate_slice(&self, first: usize, traced: bool, dur: Duration) -> (Vec<Op>, f64, usize) {
        closed_loop(
            CLIENTS,
            first,
            dur,
            || Conn::connect(self.addr),
            |conn, i| {
                let p = self.sim_point(i);
                let body = simulate_body(MODELS[p.model], &self.accels[p.accel], p.seed);
                let Some(c) = conn.as_mut() else {
                    return Op::default();
                };
                let start = Instant::now();
                let response = c.request("POST", "/simulate", body.as_bytes());
                let mut op = Op {
                    lat_ms: start.elapsed().as_secs_f64() * 1e3,
                    ..Op::default()
                };
                let Ok(r) = response else {
                    *conn = None;
                    return op;
                };
                op.ok = r.status == 200;
                if traced {
                    let start = Instant::now();
                    op.stages = r.header("x-bbs-trace").and_then(trace_stages);
                    op.trace_s = start.elapsed().as_secs_f64();
                }
                match self.expected {
                    Some(expected) => {
                        op.ok &= expected
                            .get(&p)
                            .is_some_and(|w| result_of(&r.body) == Some(w.as_bytes()));
                    }
                    None => op.later = Some((i, r.body)),
                }
                op
            },
        )
    }

    /// A sweep is timed from send to the arrival of its summary record.
    fn sweep_slice(&self, first: usize, dur: Duration) -> (Vec<Op>, f64, usize) {
        let grid_ids: Vec<&str> = self
            .grid_accels
            .iter()
            .map(|&a| self.accels[a].as_str())
            .collect();
        closed_loop(
            SWEEP_CLIENTS,
            first,
            dur,
            || Ok(()),
            |_, g| {
                let body = sweep_body(&grid_ids, self.grid_seed(g));
                let Ok(conn) = Conn::connect(self.addr) else {
                    return Op::default();
                };
                let start = Instant::now();
                let Ok((r, summary_at)) = conn.sweep(body.as_bytes()) else {
                    return Op {
                        lat_ms: start.elapsed().as_secs_f64() * 1e3,
                        ..Op::default()
                    };
                };
                let mut op = Op {
                    lat_ms: summary_at.duration_since(start).as_secs_f64() * 1e3,
                    ok: r.status == 200,
                    ..Op::default()
                };
                match self.expected {
                    Some(expected) => self.finish_sweep(&mut op, g, &r.body, expected),
                    None => op.later = Some((g, r.body)),
                }
                op
            },
        )
    }

    fn finish_sweep(&self, op: &mut Op, g: usize, body: &[u8], expected: &Expected) {
        let (ok, wall) = check_sweep(body, |c| expected.get(&self.grid_cell(g, c)));
        op.ok &= ok;
        op.cells = if op.ok { GRID_CELLS } else { 0 };
        op.summary_wall_ms = wall;
    }

    /// Alternates `/simulate` and `/sweep` slices for `seconds`, the
    /// former taking [`SIMULATE_SHARE`] of it.
    fn run(&self, seconds: f64, traced: bool) -> Phases {
        let sweep_s = seconds * (1.0 - SIMULATE_SHARE);
        let pairs = ((sweep_s / SLICE_S).round() as usize).max(1);
        let sim_dur = Duration::from_secs_f64(seconds * SIMULATE_SHARE / pairs as f64);
        let sweep_dur = Duration::from_secs_f64(sweep_s / pairs as f64);
        let mut p = Phases::default();
        let (mut next_sim, mut next_grid) = (0, 0);
        for _ in 0..pairs {
            let (ops, wall, next) = self.simulate_slice(next_sim, traced, sim_dur);
            p.sim.extend(ops);
            p.sim_wall += wall;
            next_sim = next;
            let (ops, wall, next) = self.sweep_slice(next_grid, sweep_dur);
            p.sweeps.extend(ops);
            p.sweep_wall += wall;
            next_grid = next;
        }
        p
    }

    /// Every point a cold run's kept ops need a result for.
    fn kept_points(&self, p: &Phases) -> Vec<Point> {
        let sims = p.sim.iter().filter_map(|op| op.later.as_ref());
        let grids = p.sweeps.iter().filter_map(|op| op.later.as_ref());
        sims.map(|(i, _)| self.sim_point(*i))
            .chain(grids.flat_map(|(g, _)| (0..GRID_CELLS).map(|c| self.grid_cell(*g, c))))
            .collect()
    }

    /// Checks what a cold run kept.
    fn check_kept(&self, p: &mut Phases, expected: &Expected) {
        for op in &mut p.sim {
            if let Some((i, body)) = op.later.take() {
                let want = expected.get(&self.sim_point(i));
                op.ok &= want.is_some_and(|w| result_of(&body) == Some(w.as_bytes()));
            }
        }
        for op in &mut p.sweeps {
            if let Some((g, body)) = op.later.take() {
                self.finish_sweep(op, g, &body, expected);
            }
        }
    }
}

/// What the two phases of one pass recorded.
#[derive(Default)]
struct Phases {
    sim: Vec<Op>,
    sim_wall: f64,
    sweeps: Vec<Op>,
    sweep_wall: f64,
}

/// Set-ups measured per run; the median is reported.
fn setups(kind: Kind) -> usize {
    match kind {
        // Spawn to ready takes milliseconds, so take many.
        Kind::Cold => 15,
        Kind::Warm | Kind::Coord => 5,
    }
}

/// Counters summed over the service processes' `/stats`.
fn stats_counters(fleet: &Fleet) -> io::Result<HashMap<&'static str, f64>> {
    let mut sums = HashMap::new();
    for server in fleet.services() {
        let (_, body) = http::get(server.addr, "/stats")?;
        let v = Json::parse(&body).map_err(|e| io::Error::other(e.to_string()))?;
        for key in [
            "cache_hits",
            "cache_misses",
            "workload_hits",
            "workload_misses",
            "sim_runs",
            "coalesced",
        ] {
            let n = v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            *sums.entry(key).or_insert(0.0) += n;
        }
    }
    Ok(sums)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(ops: &[Op], f: impl Fn(&Op) -> Option<f64>) -> f64 {
    let v: Vec<f64> = ops.iter().filter_map(f).collect();
    median(&v)
}

/// The first seed of the workload's points: distinct `--seed`s give
/// disjoint points.
fn base_seed(seed: u64) -> u64 {
    1 + seed.wrapping_mul(2 * SEED_SPAN) % (1 << 40)
}

pub fn run(env: &Env, kind: Kind) -> io::Result<Outcome> {
    let base = base_seed(env.seed);
    // Set-up: spawn to `/readyz` 200, plus the warm-up fill when warm.
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..setups(kind) {
        drop(fleet.take());
        let start = Instant::now();
        let f = Fleet::start(env, kind)?;
        if kind != Kind::Cold {
            f.warm_up(base)?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");
    let accels = fleet.accels.clone();
    let grid_accels = GRID_ACCELS.map(|g| {
        accels
            .iter()
            .position(|a| a == g)
            .expect("checked at start")
    });

    let warm = kind != Kind::Cold;
    let warm_expected = warm.then(|| {
        let working_set: Vec<Point> = (0..MODELS.len() * accels.len())
            .map(|i| point(i, base, accels.len()))
            .collect();
        expected_for(&working_set, &accels)
    });
    let mix = Mix {
        addr: fleet.front.addr,
        accels: &accels,
        grid_accels,
        sim_seed: base,
        sweep_seed: if warm { base } else { base + SEED_SPAN },
        warm,
        expected: warm_expected.as_ref(),
    };

    // A traced run is one pass that also keeps each reply's stage header;
    // the server sends that header whether or not anyone reads it.
    let before = env.trace.then(|| stats_counters(&fleet)).transpose()?;
    let mut pass = mix.run(env.seconds, env.trace);
    let mut server_layers: Vec<(&'static str, f64)> = Vec::new();
    if let Some(before) = before {
        let after = stats_counters(&fleet)?;
        let d =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        server_layers.push((
            "cache.hit_ratio",
            ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")),
        ));
        server_layers.push((
            "workload.hit_ratio",
            ratio(
                d("workload_hits"),
                d("workload_hits") + d("workload_misses"),
            ),
        ));
        server_layers.push(("service.sim_runs", d("sim_runs")));
        server_layers.push(("service.coalesced", d("coalesced")));
        server_layers.extend(front_stats(&fleet)?);
        let grid_ids: Vec<&str> = grid_accels.iter().map(|&a| accels[a].as_str()).collect();
        // A grid the server already holds: the pass's first.
        let held_grid = sweep_body(&grid_ids, mix.grid_seed(0));
        server_layers.push((
            "client.lib_sweep_ms",
            lib_sweep_ms(fleet.front.addr, &held_grid)?,
        ));
    }

    let peak_rss_mb = fleet.peak_rss_mb();
    let simd_backend = http::get(fleet.front.addr, "/stats")
        .ok()
        .and_then(|(_, body)| Json::parse(&body).ok())
        .and_then(|v| {
            v.get("simd_backend")
                .and_then(Json::as_str)
                .map(str::to_string)
        });
    drop(fleet);

    if kind == Kind::Cold {
        let expected = expected_for(&mix.kept_points(&pass), &accels);
        mix.check_kept(&mut pass, &expected);
    }

    let all_ops = pass.sim.iter().chain(&pass.sweeps);
    let (attempted, failed) =
        all_ops.fold((0u64, 0u64), |(a, f), op| (a + 1, f + u64::from(!op.ok)));
    let mut out = Outcome::new(failed, attempted);
    out.simd_backend = simd_backend;
    let unit = summarize(&pass.sim.iter().map(|o| o.lat_ms).collect::<Vec<_>>());
    let grid = summarize(&pass.sweeps.iter().map(|o| o.lat_ms).collect::<Vec<_>>());
    out.note(format!(
        "simulate: {} requests, tail at p{}; sweep: {} grids, tail at p{}; failed_ratio {}",
        unit.n,
        unit.tail_pct,
        grid.n,
        grid.tail_pct,
        ratio(failed as f64, attempted as f64)
    ));
    if env.trace {
        for (name, value) in server_layers {
            out.layer(name, value);
        }
        traced_layers(&pass, &mut out);
        if kind == Kind::Cold {
            layers::sim(base, &mut out);
        }
        layers::route_key(base, &mut out);
        return Ok(out);
    }
    let cells: usize = pass.sweeps.iter().map(|o| o.cells).sum();
    out.e2e("setup_s", median(&setup_s));
    out.e2e("peak_rss_mb", peak_rss_mb);
    out.e2e("unit_per_s", pass.sim.len() as f64 / pass.sim_wall);
    out.e2e("unit_p50_ms", unit.p50);
    out.e2e("unit_tail_ms", unit.tail);
    out.e2e("grid_cells_per_s", cells as f64 / pass.sweep_wall);
    out.e2e("grid_p50_ms", grid.p50);
    out.e2e("grid_tail_ms", grid.tail);
    Ok(out)
}

/// The layers a traced pass's own records give: the server's stages, the
/// sweep summaries, the client's share and the cost of tracing.
fn traced_layers(t: &Phases, out: &mut Outcome) {
    for (k, stage) in STAGES.iter().enumerate() {
        let v: Vec<f64> = t
            .sim
            .iter()
            .filter_map(|o| o.stages.map(|s| s[k]))
            .collect();
        let s = summarize(&v);
        out.layer(&format!("server.{stage}_us_p50"), s.p50);
        out.layer(&format!("server.{stage}_us_tail"), s.tail);
    }
    // `total` starts after parsing, so parse is not part of it.
    let unstaged: Vec<f64> = t
        .sim
        .iter()
        .filter_map(|o| o.stages)
        .map(|s| (s[6] - s[1..6].iter().sum::<f64>()).max(0.0))
        .collect();
    let s = summarize(&unstaged);
    out.layer("server.unstaged_us_p50", s.p50);
    out.layer("server.unstaged_us_tail", s.tail);
    out.layer(
        "server.sweep_wall_ms",
        median_of(&t.sweeps, |o| o.summary_wall_ms),
    );
    out.layer(
        "client.simulate_overhead_us",
        median_of(&t.sim, |o| o.stages.map(|s| o.lat_ms * 1e3 - s[6])),
    );
    out.layer(
        "client.sweep_overhead_ms",
        median_of(&t.sweeps, |o| o.summary_wall_ms.map(|w| o.lat_ms - w)),
    );
    // What tracing adds to a request is the client reading its stage
    // header, after the latency stamp; relative to the requests' time.
    let trace_s: f64 = t.sim.iter().map(|o| o.trace_s).sum();
    let request_s: f64 = t.sim.iter().map(|o| o.lat_ms / 1e3).sum();
    out.layer("trace.overhead_pct", ratio(trace_s, request_s) * 100.0);
}

/// Loop and coordinator metrics from the front end's `/stats`.
fn front_stats(fleet: &Fleet) -> io::Result<Vec<(&'static str, f64)>> {
    let (_, body) = http::get(fleet.front.addr, "/stats")?;
    let v = Json::parse(&body).map_err(|e| io::Error::other(e.to_string()))?;
    let p50 = |stage: &str| {
        v.get("latency_us")
            .and_then(|l| l.get(stage))
            .and_then(|s| s.get("p50"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut out = vec![
        ("loop.turn_us", p50("turn")),
        ("loop.poll_wait_us", p50("poll_wait")),
        ("loop.write_flush_us", p50("write_flush")),
        ("loop.out_depth_bytes", p50("out_depth")),
    ];
    if let Some(shards) = v
        .get("coordinator")
        .and_then(|c| c.get("shards"))
        .and_then(Json::as_arr)
    {
        let field = |s: &Json, path: &[&str]| {
            path.iter()
                .try_fold(s, |j, k| j.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let max = |path: &[&str]| shards.iter().map(|s| field(s, path)).fold(0.0, f64::max);
        let sum = |path: &[&str]| shards.iter().map(|s| field(s, path)).sum::<f64>();
        out.push(("coord.shard_latency_us_p50", max(&["latency_us", "p50"])));
        out.push(("coord.shard_latency_us_p99", max(&["latency_us", "p99"])));
        out.push((
            "coord.pool_reuse_ratio",
            ratio(sum(&["reuses"]), sum(&["reuses"]) + sum(&["dials"])),
        ));
        out.push(("coord.rerouted", sum(&["rerouted"])));
    }
    Ok(out)
}

/// The library client's sweep: `Client::sweep` plus draining its lines,
/// on a grid the server already holds; median of a few.
fn lib_sweep_ms(addr: SocketAddr, body: &str) -> io::Result<f64> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let (status, lines) = bbs_serve::client::Client::connect(addr)?.sweep(body)?;
        let lines = lines.collect_lines()?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if status != 200 || lines.len() != GRID_CELLS + 1 {
            return Err(io::Error::other("library sweep failed"));
        }
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_cover_every_accelerator_per_model_and_seed() {
        let p: Vec<Point> = (0..64).map(|i| point(i, 10, 8)).collect();
        assert_eq!(
            p[0],
            Point {
                model: 0,
                accel: 0,
                seed: 10
            }
        );
        assert_eq!(
            p[9],
            Point {
                model: 1,
                accel: 1,
                seed: 10
            }
        );
        assert_eq!(
            p[33],
            Point {
                model: 0,
                accel: 1,
                seed: 11
            }
        );
    }

    #[test]
    fn sweep_bodies_list_every_model() {
        assert_eq!(
            sweep_body(&["stripes", "ant"], 9),
            "{\"models\":[\"ViT-Small\",\"ResNet-34\",\"Bert-SST2\",\"VGG-16\"],\
             \"accelerators\":[\"stripes\",\"ant\"],\"seeds\":[9]}"
        );
    }

    #[test]
    fn sweep_check_needs_every_cell_once_and_a_clean_summary() {
        let want: Vec<String> = (0..GRID_CELLS).map(|c| format!("{{\"r\":{c}}}")).collect();
        let expect = |c: usize| want.get(c);
        let mut body = String::new();
        for c in (0..GRID_CELLS).rev() {
            body.push_str(&format!(
                "{{\"cell\":{c},\"model\":\"m\",\"key\":\"k\",\"result\":{{\"r\":{c}}}}}\n"
            ));
        }
        let summary = "{\"summary\":{\"cells\":16,\"errors\":0,\"wall_ms\":2.5}}\n";
        let (ok, wall) = check_sweep(format!("{body}{summary}").as_bytes(), expect);
        assert!(ok);
        assert_eq!(wall, Some(2.5));
        let (ok, _) = check_sweep(body.as_bytes(), expect);
        assert!(!ok, "no summary");
        let wrong = body.replace("\"r\":3}", "\"r\":4}");
        let (ok, _) = check_sweep(format!("{wrong}{summary}").as_bytes(), expect);
        assert!(!ok, "wrong result bytes");
        let twice = format!("{body}{{\"cell\":3,\"result\":{{\"r\":3}}}}\n{summary}");
        let (ok, _) = check_sweep(twice.as_bytes(), expect);
        assert!(!ok, "a cell twice");
        let errors = summary.replace("\"errors\":0", "\"errors\":1");
        let (ok, _) = check_sweep(format!("{body}{errors}").as_bytes(), expect);
        assert!(!ok, "summary with errors");
    }

    #[test]
    fn trace_header_stages_parse() {
        let h = "id=00000000deadbeef;served=cache;parse_us=5;queue_us=0;lower_us=0;\
                 sim_us=0;ser_us=0;park_us=0;total_us=120";
        assert_eq!(trace_stages(h), Some([5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 120.0]));
    }

    #[test]
    fn result_is_the_tail_of_the_record() {
        let body = b"{\"meta\":{\"cached\":true},\"result\":{\"a\":1}}";
        assert_eq!(result_of(body), Some(&b"{\"a\":1}"[..]));
    }
}
