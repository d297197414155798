//! Deterministic seeded fault injection.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (`bbs serve
//! --faults SPEC`, or a `ServiceConfig::faults` plan in tests) and
//! threaded through the disk tier, the worker pool and the event loop, so
//! adversarial tests exercise the *real* failure paths rather than mocks:
//!
//! ```text
//! --faults 'seed=7;disk_read_err=0.5;torn_write=0.25;panic_key=00c0ffee00c0ffee'
//! ```
//!
//! Directives are `;`-separated `site=arg` pairs:
//!
//! | directive            | effect at the injection site                       |
//! |----------------------|----------------------------------------------------|
//! | `seed=N`             | base seed for every probability draw (default 0)   |
//! | `disk_read_err=P`    | disk-tier reads fail with injected EIO             |
//! | `disk_write_err=P`   | disk-tier writes fail with injected EIO            |
//! | `torn_write=P`       | disk records are truncated mid-payload on write    |
//! | `bit_flip=P`         | one payload bit is flipped on write                |
//! | `panic_key=H[,H..]`  | workers panic on these 16-hex-digit cell keys      |
//! | `panic_hard_key=H[,H..]` | panic *outside* the per-job guard (kills the worker thread) |
//! | `sim_delay_ms=N[@P]` | sleep N ms before simulating (probability P, default 1) |
//! | `conn_reset=P`       | accepted connections are dropped immediately       |
//!
//! Probabilities `P` are in `[0, 1]`. Draws are deterministic: site `i`'s
//! `n`-th draw hashes `(seed, site-salt, n)` through SplitMix64, so a plan is
//! exactly reproducible across runs regardless of thread interleaving — the
//! *set* of injected faults is fixed even though which request observes them
//! can vary with scheduling. Every injection increments a per-site counter
//! surfaced through `/metrics` as `bbs_faults_injected_total{site=...}`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Injection sites, in the order they appear in counters and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    DiskReadErr = 0,
    DiskWriteErr = 1,
    TornWrite = 2,
    BitFlip = 3,
    Panic = 4,
    PanicHard = 5,
    SimDelay = 6,
    ConnReset = 7,
}

const SITES: usize = 8;

pub const SITE_NAMES: [&str; SITES] = [
    "disk_read_err",
    "disk_write_err",
    "torn_write",
    "bit_flip",
    "panic_key",
    "panic_hard_key",
    "sim_delay_ms",
    "conn_reset",
];

/// A parsed, seeded fault plan. Cheap to share behind an `Arc`; a
/// [`FaultPlan::none`] plan answers every query with one branch.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site probability scaled to u64: draw < prob[site] => inject.
    prob: [u64; SITES],
    /// Per-site draw counters (determinism) and injected-fault counters
    /// (observability).
    draws: [AtomicU64; SITES],
    injected: [AtomicU64; SITES],
    panic_keys: Vec<u64>,
    panic_hard_keys: Vec<u64>,
    delay_ms: u64,
    active: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64: a tiny, well-mixed stateless hash; `z -> u64` is bijective,
/// so distinct (seed, site, draw) triples give independent-looking draws.
/// Also the serve client's retry jitter and the coordinator's rendezvous
/// score.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn prob_to_u64(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * u64::MAX as f64) as u64
    }
}

impl FaultPlan {
    /// The inert plan: injects nothing, costs one branch per query.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            prob: [0; SITES],
            draws: Default::default(),
            injected: Default::default(),
            panic_keys: Vec::new(),
            panic_hard_keys: Vec::new(),
            delay_ms: 0,
            active: false,
        }
    }

    /// Parses a spec string (see module docs). Empty input yields the inert
    /// plan; malformed directives are errors, not silently ignored — a typo
    /// in a chaos test must not quietly disable the chaos.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault directive '{part}' is not site=arg"))?;
            let prob = |v: &str| -> Result<u64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault {key}: '{v}' is not a probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault {key}: probability {v} outside [0,1]"));
                }
                Ok(prob_to_u64(p))
            };
            let keys = |v: &str| -> Result<Vec<u64>, String> {
                v.split(',')
                    .map(|k| {
                        u64::from_str_radix(k.trim(), 16)
                            .map_err(|_| format!("fault {key}: '{k}' is not a hex cell key"))
                    })
                    .collect()
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed: '{value}' is not an integer"))?
                }
                "disk_read_err" => plan.prob[Site::DiskReadErr as usize] = prob(value)?,
                "disk_write_err" => plan.prob[Site::DiskWriteErr as usize] = prob(value)?,
                "torn_write" => plan.prob[Site::TornWrite as usize] = prob(value)?,
                "bit_flip" => plan.prob[Site::BitFlip as usize] = prob(value)?,
                "conn_reset" => plan.prob[Site::ConnReset as usize] = prob(value)?,
                "panic_key" => plan.panic_keys = keys(value)?,
                "panic_hard_key" => plan.panic_hard_keys = keys(value)?,
                "sim_delay_ms" => {
                    let (ms, p) = match value.split_once('@') {
                        Some((ms, p)) => (ms, Some(p)),
                        None => (value, None),
                    };
                    plan.delay_ms = ms
                        .parse()
                        .map_err(|_| format!("fault sim_delay_ms: '{ms}' is not an integer"))?;
                    plan.prob[Site::SimDelay as usize] = match p {
                        Some(p) => prob(p)?,
                        None => u64::MAX,
                    };
                }
                other => return Err(format!("unknown fault site '{other}'")),
            }
        }
        plan.active = plan.prob.iter().any(|&p| p > 0)
            || !plan.panic_keys.is_empty()
            || !plan.panic_hard_keys.is_empty();
        Ok(plan)
    }

    /// True if any directive can fire — callers may skip work when inert.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// One deterministic Bernoulli draw for `site`; counts the injection.
    fn draw(&self, site: Site) -> bool {
        let i = site as usize;
        if self.prob[i] == 0 {
            return false;
        }
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let salt = 0x5151_7e57_0000_0000u64 | ((i as u64) << 16);
        let hit = splitmix64(self.seed ^ salt ^ n) < self.prob[i];
        if hit {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this disk-tier read fail with an injected I/O error?
    pub fn disk_read_error(&self) -> bool {
        self.active && self.draw(Site::DiskReadErr)
    }

    /// Should this disk-tier write fail with an injected I/O error?
    pub fn disk_write_error(&self) -> bool {
        self.active && self.draw(Site::DiskWriteErr)
    }

    /// Corrupts an encoded record about to hit disk: truncation (torn write)
    /// and/or a single flipped payload bit. Returns true if it mangled
    /// anything, so the writer can count it.
    pub fn mangle_record(&self, bytes: &mut Vec<u8>) -> bool {
        if !self.active {
            return false;
        }
        let mut mangled = false;
        if self.draw(Site::TornWrite) && bytes.len() > 1 {
            // Deterministic cut point derived from the record itself.
            let cut = 1 + (splitmix64(self.seed ^ bytes.len() as u64) as usize) % (bytes.len() - 1);
            bytes.truncate(cut);
            mangled = true;
        }
        if self.draw(Site::BitFlip) && !bytes.is_empty() {
            let bit =
                (splitmix64(self.seed ^ (bytes.len() as u64) << 3) as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            mangled = true;
        }
        mangled
    }

    /// Should the worker panic on this cell key (inside the per-job guard)?
    pub fn panic_on(&self, key: u64) -> bool {
        if self.active && self.panic_keys.contains(&key) {
            self.injected[Site::Panic as usize].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Should the worker panic *outside* the per-job guard, killing the
    /// thread? Exercises pool replenishment. Fires at most once per key.
    pub fn hard_panic_on(&self, key: u64) -> bool {
        if self.active && self.panic_hard_keys.contains(&key) {
            // First observer wins: draws[PanicHard] doubles as a fired-keys
            // guard so a retried cell doesn't kill a second worker.
            let n = self.draws[Site::PanicHard as usize].fetch_add(1, Ordering::Relaxed);
            if (n as usize) < self.panic_hard_keys.len() {
                self.injected[Site::PanicHard as usize].fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Injected pre-simulation latency for this cell, if any.
    pub fn sim_delay(&self) -> Option<std::time::Duration> {
        if self.active && self.delay_ms > 0 && self.draw(Site::SimDelay) {
            Some(std::time::Duration::from_millis(self.delay_ms))
        } else {
            None
        }
    }

    /// Should this freshly accepted connection be dropped on the floor?
    pub fn reset_connection(&self) -> bool {
        self.active && self.draw(Site::ConnReset)
    }

    /// Per-site injected-fault counts, for `/metrics` and `/stats`.
    pub fn injected_counts(&self) -> [(&'static str, u64); SITES] {
        let mut out = [("", 0u64); SITES];
        for (i, name) in SITE_NAMES.iter().enumerate() {
            out[i] = (name, self.injected[i].load(Ordering::Relaxed));
        }
        out
    }

    /// Total injected faults across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for _ in 0..64 {
            assert!(!p.disk_read_error());
            assert!(!p.disk_write_error());
            assert!(!p.panic_on(42));
            assert!(!p.reset_connection());
            assert!(p.sim_delay().is_none());
            let mut b = vec![1, 2, 3, 4];
            assert!(!p.mangle_record(&mut b));
            assert_eq!(b, vec![1, 2, 3, 4]);
        }
        assert_eq!(p.injected_total(), 0);
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=9;disk_read_err=1;disk_write_err=0.5;torn_write=0.5;bit_flip=0.25;\
             panic_key=00c0ffee00c0ffee,1f;sim_delay_ms=5@0.5;conn_reset=0.125",
        )
        .unwrap();
        assert!(p.is_active());
        assert!(p.disk_read_error()); // probability 1
        assert!(p.panic_on(0x00c0_ffee_00c0_ffee));
        assert!(p.panic_on(0x1f));
        assert!(!p.panic_on(0x20));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("disk_read_err=1.5").is_err());
        assert!(FaultPlan::parse("disk_read_err=x").is_err());
        assert!(FaultPlan::parse("panic_key=zz").is_err());
        assert!(FaultPlan::parse("unknown_site=1").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn empty_spec_is_inert() {
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::parse(" ; ; ").unwrap().is_active());
    }

    #[test]
    fn draws_are_deterministic_across_plans() {
        let mk = || FaultPlan::parse("seed=3;disk_read_err=0.5").unwrap();
        let a: Vec<bool> = {
            let p = mk();
            (0..256).map(|_| p.disk_read_error()).collect()
        };
        let b: Vec<bool> = {
            let p = mk();
            (0..256).map(|_| p.disk_read_error()).collect()
        };
        assert_eq!(a, b);
        // Roughly half should fire.
        let hits = a.iter().filter(|&&h| h).count();
        assert!((64..=192).contains(&hits), "hits={hits}");
    }

    #[test]
    fn probability_extremes() {
        let p = FaultPlan::parse("conn_reset=1").unwrap();
        assert!((0..32).all(|_| p.reset_connection()));
        assert_eq!(p.injected_counts()[Site::ConnReset as usize].1, 32);

        let p = FaultPlan::parse("conn_reset=0;disk_read_err=1").unwrap();
        assert!((0..32).all(|_| !p.reset_connection()));
    }

    #[test]
    fn torn_write_truncates_and_bit_flip_flips() {
        let p = FaultPlan::parse("torn_write=1").unwrap();
        let mut b = vec![0u8; 64];
        assert!(p.mangle_record(&mut b));
        assert!(b.len() < 64 && !b.is_empty());

        let p = FaultPlan::parse("bit_flip=1").unwrap();
        let mut b = vec![0u8; 64];
        assert!(p.mangle_record(&mut b));
        assert_eq!(b.len(), 64);
        assert_eq!(b.iter().map(|x| x.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn hard_panic_fires_once_per_key() {
        let p = FaultPlan::parse("panic_hard_key=aa").unwrap();
        assert!(p.hard_panic_on(0xaa));
        assert!(!p.hard_panic_on(0xaa), "hard panic must not repeat forever");
        assert!(!p.hard_panic_on(0xbb));
    }

    #[test]
    fn sim_delay_parses_with_and_without_probability() {
        let p = FaultPlan::parse("sim_delay_ms=7").unwrap();
        assert_eq!(p.sim_delay(), Some(std::time::Duration::from_millis(7)));
        let p = FaultPlan::parse("sim_delay_ms=7@0").unwrap();
        assert_eq!(p.sim_delay(), None);
    }
}
