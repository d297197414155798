//! # bbs-telemetry — std-only observability primitives
//!
//! The instrumentation layer under `bbs-serve`'s `/metrics`, `/stats` and
//! `/logs/tail` routes. Everything here is dependency-free (std only) and
//! cheap enough for a per-request hot path:
//!
//! * [`hist::Histogram`] — a lock-free log-linear latency histogram over a
//!   fixed `AtomicU64` bucket array. Recording is one atomic add; merging
//!   and percentile extraction (p50/p90/p99/max) work on snapshots, so
//!   readers never stall writers.
//! * [`log::Logger`] — a leveled (`error|warn|info|debug`) structured
//!   logger emitting one NDJSON (or plain-text) line per event to stderr,
//!   while mirroring every accepted event into a bounded in-memory ring
//!   that `GET /logs/tail` reads back. Disabled levels cost one relaxed
//!   atomic load.
//! * [`trace`] — process-unique request trace ids: a scrambled global
//!   counter, formatted as 16 hex digits and echoed in the `x-bbs-trace`
//!   response header.
//! * [`prom`] — Prometheus text exposition format rendering for counters,
//!   gauges and the histograms above.
//! * [`faults`] — deterministic seeded fault injection ([`FaultPlan`]):
//!   disk I/O errors, torn/bit-flipped records, worker panics on chosen
//!   cell keys, injected latency and connection resets, driven by a
//!   `BBS_FAULTS=` spec so chaos tests exercise real failure paths.
//!
//! The simulation core stays dependency-free: `bbs-sim` hands back how
//! long a lowering took, `bbs-serve`'s workers time the simulation step
//! themselves, and both land in these histograms.
//!
//! ```
//! use bbs_telemetry::hist::Histogram;
//!
//! let h = Histogram::new();
//! for us in [120, 340, 890, 15_000] {
//!     h.record(us);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count, 4);
//! assert!(snap.percentile(0.5) >= 340);
//! assert_eq!(snap.max, 15_000);
//! ```

pub mod faults;
pub mod hist;
pub mod log;
pub mod prom;
pub mod trace;

pub use faults::FaultPlan;
pub use hist::{Histogram, Snapshot};
pub use log::{Format, Level, Logger, Value};
pub use trace::{next_trace_id, trace_hex};
