//! # bbs-serve — simulation-as-a-service
//!
//! A std-only concurrent service that turns the one-shot BBS simulation
//! sweep into a long-running server, amortizing design-space-exploration
//! workloads (BitWave-style column sweeps, SparseCol-style precision
//! sweeps) that are dominated by repeated evaluations of near-identical
//! `(model, accelerator, config)` points:
//!
//! ```text
//!   nonblocking TCP listener (hand-rolled HTTP/1.1 + JSON)
//!                 │ readiness event loop — one thread, all connections
//!                 │ (epoll on Linux, poll(2) elsewhere; see [`event_loop`])
//!                 ▼
//!   content-addressed lookup ──hit──▶ cached result (Arc<str> clone)
//!                 │ miss
//!                 ▼
//!   in-flight table ──duplicate──▶ coalesce: subscribe to the flight
//!                 │ first
//!                 ▼
//!   bounded MPMC job queue (full ⇒ park the connection, then 503)
//!                 │
//!                 ▼
//!   worker pool ──▶ bbs_sim::engine::simulate ──▶ sharded result cache
//!                 │ completion channel + waker
//!                 ▼
//!   event loop resumes the waiting connection and writes the response
//! ```
//!
//! Everything rides the workspace serialization layer (`bbs-json` +
//! `to_json`/`from_json` in `bbs-hw`/`bbs-models`/`bbs-sim`), so a cached
//! response decodes to a [`bbs_sim::SimResult`] bit-identical to calling
//! the engine directly — asserted end-to-end by `tests/integration.rs`
//! and property-tested in `tests/proptests.rs`.
//!
//! Whole grids go through `POST /sweep` (see [`sweep`]): a compact spec
//! (models × accelerators × configs × seeds × caps) expands server-side
//! into cells that each ride the pipeline above, streamed back as
//! newline-delimited JSON in completion order with a trailing summary.
//! The `fig12`/`fig13` binaries' `--via-serve` mode reproduces the
//! paper's sweep tables byte-identically over this route.
//!
//! # In-process quickstart
//!
//! ```
//! use bbs_serve::server::{start, ServeConfig};
//! use bbs_serve::client::Client;
//!
//! let server = start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let (status, body) = client
//!     .simulate(r#"{"model":"ViT-Small","accelerator":"stripes","max_weights_per_layer":256}"#)
//!     .unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"result\""));
//! server.stop();
//! ```

pub mod cache;
pub mod client;
pub mod coordinator;
pub mod event_loop;
pub mod http;
pub mod queue;
pub mod registry;
pub mod request;
pub mod server;
pub mod service;
pub mod sweep;
pub mod telemetry;

pub use cache::ShardedCache;
pub use request::SimRequest;
pub use server::{start, ServeConfig, ServerHandle};
pub use service::{ServiceConfig, SimService};
pub use sweep::{SweepPlan, MAX_SWEEP_CELLS};
pub use telemetry::Telemetry;
