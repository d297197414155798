//! # bbs-sim — cycle-accurate accelerator simulators
//!
//! Tile-level cycle-accurate performance and energy models for BitVert and
//! the paper's six baselines (Stripes, Pragmatic, Bitlet, BitWave, SparTen,
//! ANT), normalized to the same multiplier budget (one 8-bit multiplier =
//! eight bit-serial multipliers, §V-A).
//!
//! Group latencies are driven by the *actual bit patterns* of the
//! synthesized weights: every weight-group pass costs what its bit content
//! dictates for the given microarchitecture. Each layer's profile keeps
//! those costs summed per channel, and the array runs one channel tile at
//! a time: each PE column drains its channel at its own pace and the tile
//! ends with the slowest column — this produces the load-imbalance
//! behaviour of Figs. 14/15 mechanically rather than statistically.
//! (Lock-step synchronization after every group is only Ablation C's
//! contrast.)
//! DRAM/SRAM streaming is modelled at tile granularity with double
//! buffering (execution time = max(compute, memory) per layer).
//!
//! The [`bitvert_func`] module additionally contains *functional* (bit-
//! exact) models of the BitVert PE datapath (Fig. 7b) and scheduler
//! (Fig. 8), verified against reference dot products.
//!
//! # Lower once, simulate many
//!
//! [`engine::simulate`] lowers the model (synthesizes per-layer weights)
//! on every call. Sweeps that run several accelerators or array
//! geometries over the same `(model, seed, cap)` triple should share a
//! [`store::WorkloadStore`] and call [`engine::simulate_with`] instead:
//! the store is a thread-safe, content-addressed, bounded cache of
//! `Arc<[LayerWorkload]>` lowerings, concurrent misses on one key
//! coalesce onto a single lowering, and results stay bit-identical to
//! fresh lowering (property-tested). The `bbs-bench` figure sweeps and the
//! `bbs-serve` worker pool both read through one store.
//!
//! [`store::WorkloadStore::get_or_lower`] also returns how long lowering
//! took, on the one call that lowered (a hit, a coalesced wait or a
//! durable-tier load returns `None`). [`engine::simulate_lowered`] runs
//! the simulation step on workloads already in hand, so a caller can time
//! the two stages apart without this crate depending on a telemetry
//! crate: `bbs-serve`'s workers report them as the `lower` and `sim`
//! stages.
//!
//! Whole grids (models × accelerators × configs × seeds × caps) are
//! described by [`sweep::SweepSpec`], which expands into
//! [`sweep::SweepCell`]s in the one row-major order of
//! [`sweep::SweepCell::at`]. Run the cells with [`engine::simulate_with`]
//! over one shared store — or POST the spec's JSON
//! ([`json::sweep_spec_to_json`]) to a `bbs-serve` instance's `/sweep`
//! route, which expands it in the same order, keys each cell like a
//! single request ([`json::sim_request_key`]), runs it behind its result
//! cache and streams the cells back as NDJSON.
//!
//! # Example
//!
//! ```
//! use bbs_sim::accel::{bitvert::BitVert, stripes::Stripes};
//! use bbs_sim::config::ArrayConfig;
//! use bbs_sim::engine::simulate_with;
//! use bbs_sim::store::WorkloadStore;
//! use bbs_models::zoo;
//!
//! let cfg = ArrayConfig::paper_16x32();
//! let model = zoo::vit_small();
//! // One store, two simulations — ViT-Small is lowered exactly once.
//! let store = WorkloadStore::default();
//! let stripes = simulate_with(&store, &Stripes::new(), &model, &cfg, 7, 8 * 1024);
//! let bitvert = simulate_with(&store, &BitVert::moderate(), &model, &cfg, 7, 8 * 1024);
//! assert_eq!((store.misses(), store.hits()), (1, 1));
//! let speedup = stripes.total_cycles() as f64 / bitvert.total_cycles() as f64;
//! assert!(speedup > 1.5, "BitVert must beat dense bit-serial: {speedup}");
//! ```

pub mod accel;
pub mod bitvert_func;
pub mod config;
pub mod engine;
pub mod json;
pub mod persist;
pub mod store;
pub mod sweep;
pub mod workload;

pub use config::ArrayConfig;
pub use engine::{simulate, simulate_lowered, simulate_with, LayerSim, SimResult};
pub use store::WorkloadStore;
pub use sweep::{SweepCell, SweepSpec};
