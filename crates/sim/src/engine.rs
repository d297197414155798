//! The simulation engine: per-layer compute/memory overlap, stall
//! accounting and energy roll-up.

use crate::accel::{Accelerator, LayerPerf};
use crate::config::ArrayConfig;
use crate::store::WorkloadStore;
use crate::trace::{Recorder, Stage};
use crate::workload::{lower_model, LayerWorkload};
use bbs_hw::energy::{EnergyBreakdown, EnergyModel};
use bbs_models::layer::ModelSpec;
use rayon::prelude::*;
use std::fmt;
use std::time::Instant;

/// Simulation output for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub name: String,
    /// Compute cycles (array busy).
    pub compute_cycles: u64,
    /// DRAM streaming cycles.
    pub memory_cycles: u64,
    /// Layer makespan with double buffering: `max(compute, memory)`.
    pub total_cycles: u64,
    /// The accelerator's raw per-layer performance record.
    pub perf: LayerPerf,
    /// Energy split (Fig. 13 taxonomy).
    pub energy: EnergyBreakdown,
}

/// Simulation output for a whole model on one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Accelerator name.
    pub accelerator: String,
    /// Model name.
    pub model: String,
    /// Per-layer results.
    pub layers: Vec<LayerSim>,
}

impl SimResult {
    /// End-to-end cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.total_cycles).sum()
    }

    /// Total energy in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy.total_pj()).sum()
    }

    /// Aggregated energy breakdown.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for l in &self.layers {
            total.accumulate(&l.energy);
        }
        total
    }

    /// Energy-delay product (pJ · cycles).
    pub fn edp(&self) -> f64 {
        self.total_energy_pj() * self.total_cycles() as f64
    }

    /// Cycle-weighted useful / intra / inter fractions (Fig. 15 stacks).
    pub fn stall_breakdown(&self) -> (f64, f64, f64) {
        let total: f64 = self
            .layers
            .iter()
            .map(|l| l.compute_cycles as f64)
            .sum::<f64>()
            .max(1.0);
        let mut useful = 0.0;
        let mut intra = 0.0;
        let mut inter = 0.0;
        for l in &self.layers {
            let w = l.compute_cycles as f64 / total;
            useful += w * l.perf.useful_fraction;
            intra += w * l.perf.intra_fraction;
            inter += w * l.perf.inter_fraction;
        }
        (useful, intra, inter)
    }

    /// Fraction of execution time stalled on memory. An execution with no
    /// cycles at all (empty model, zero-position layers) has no stall —
    /// the division is guarded so this never returns NaN.
    pub fn memory_stall_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        let stall: u64 = self
            .layers
            .iter()
            .map(|l| l.total_cycles - l.compute_cycles.min(l.total_cycles))
            .sum();
        stall as f64 / total as f64
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} cycles, {:.2} uJ",
            self.accelerator,
            self.model,
            self.total_cycles(),
            self.total_energy_pj() / 1e6
        )
    }
}

/// Simulates one layer on one accelerator.
fn simulate_layer(accel: &dyn Accelerator, wl: &LayerWorkload, cfg: &ArrayConfig) -> LayerSim {
    let perf = accel.layer_performance(wl, cfg);
    let dram_bytes = (perf.weight_dram_bits + perf.act_dram_bits).div_ceil(8);
    let memory_cycles = cfg.dram.transfer_cycles(dram_bytes, cfg.tech.freq_mhz);
    let total_cycles = perf.compute_cycles.max(memory_cycles);

    let energy_model = EnergyModel {
        tech: cfg.tech,
        pe: accel.pe_model(),
        pe_count: cfg.pe_count(),
        weight_buffer: cfg.weight_buffer,
        act_buffer: cfg.act_buffer,
        dram: cfg.dram,
    };
    // PEs burn dynamic power while busy; inter-PE-stalled lanes are
    // clock-gated, intra-PE ineffectual lanes still toggle partially.
    let activity = (perf.useful_fraction + 0.5 * perf.intra_fraction).clamp(0.30, 1.0);
    let energy = energy_model.layer_energy(
        perf.weight_dram_bits + perf.act_dram_bits,
        perf.weight_sram_bits,
        perf.act_sram_bits,
        perf.compute_cycles,
        activity,
    );

    LayerSim {
        name: wl.name.clone(),
        compute_cycles: perf.compute_cycles,
        memory_cycles,
        total_cycles,
        perf,
        energy,
    }
}

/// Simulates pre-lowered workloads (the shared tail of [`simulate`] and
/// [`simulate_with`]).
fn simulate_lowered(
    accel: &dyn Accelerator,
    model_name: &str,
    workloads: &[LayerWorkload],
    cfg: &ArrayConfig,
) -> SimResult {
    // Layers are independent; the parallel map preserves input order, so
    // the result is bit-identical to the sequential sweep.
    let layers = workloads
        .par_iter()
        .map(|wl| simulate_layer(accel, wl, cfg))
        .collect();
    SimResult {
        accelerator: accel.name(),
        model: model_name.to_string(),
        layers,
    }
}

/// Simulates a whole model, lowering it fresh.
///
/// Sweeps that simulate the same `(model, seed, cap)` on several
/// accelerators or array configurations should use [`simulate_with`] and a
/// shared [`WorkloadStore`] instead — it skips the redundant weight
/// synthesis and produces bit-identical results.
pub fn simulate(
    accel: &dyn Accelerator,
    model: &ModelSpec,
    cfg: &ArrayConfig,
    seed: u64,
    max_weights_per_layer: usize,
) -> SimResult {
    let workloads = lower_model(model, seed, max_weights_per_layer);
    simulate_lowered(accel, model.name, &workloads, cfg)
}

/// Simulates a whole model, reusing (or populating) `store`'s lowered
/// workloads for `(model, seed, max_weights_per_layer)`.
///
/// Results are bit-identical to [`simulate`]; only the redundant lowering
/// work is skipped. The store is safe to share across threads — parallel
/// sweeps over accelerators and array geometries lower each model once.
pub fn simulate_with(
    store: &WorkloadStore,
    accel: &dyn Accelerator,
    model: &ModelSpec,
    cfg: &ArrayConfig,
    seed: u64,
    max_weights_per_layer: usize,
) -> SimResult {
    let workloads = store.get_or_lower(model, seed, max_weights_per_layer);
    simulate_lowered(accel, model.name, &workloads, cfg)
}

/// [`simulate_with`], reporting per-stage wall time to `rec`.
///
/// `rec` sees [`Stage::Lower`] only when the
/// store misses (a cache hit does no lowering) and
/// [`Stage::Simulate`] on every call. The
/// returned result is bit-identical to [`simulate_with`].
pub fn simulate_with_recorder(
    store: &WorkloadStore,
    accel: &dyn Accelerator,
    model: &ModelSpec,
    cfg: &ArrayConfig,
    seed: u64,
    max_weights_per_layer: usize,
    rec: &dyn Recorder,
) -> SimResult {
    let workloads = store.get_or_lower_recorded(model, seed, max_weights_per_layer, rec);
    let started = Instant::now();
    let result = simulate_lowered(accel, model.name, &workloads, cfg);
    rec.record(Stage::Simulate, started.elapsed().as_micros() as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::ant::Ant;
    use crate::accel::bitlet::Bitlet;
    use crate::accel::bitvert::BitVert;
    use crate::accel::bitwave::BitWave;
    use crate::accel::pragmatic::Pragmatic;
    use crate::accel::sparten::SparTen;
    use crate::accel::stripes::Stripes;
    use bbs_models::zoo;

    const CAP: usize = 8 * 1024;

    #[test]
    fn fig12_speedup_ordering_on_resnet50() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::resnet50();
        let stripes = simulate(&Stripes::new(), &model, &cfg, 7, CAP).total_cycles() as f64;
        let speedup = |r: SimResult| stripes / r.total_cycles() as f64;

        let prag = speedup(simulate(&Pragmatic::new(), &model, &cfg, 7, CAP));
        let bitlet = speedup(simulate(&Bitlet::new(), &model, &cfg, 7, CAP));
        let bitwave = speedup(simulate(&BitWave::new(), &model, &cfg, 7, CAP));
        let cons = speedup(simulate(&BitVert::conservative(), &model, &cfg, 7, CAP));
        let moderate = speedup(simulate(&BitVert::moderate(), &model, &cfg, 7, CAP));

        // The paper's qualitative ordering (Fig. 12).
        assert!(prag > 1.0, "Pragmatic {prag}");
        assert!(bitlet > prag * 0.85, "Bitlet {bitlet} vs Pragmatic {prag}");
        assert!(bitwave > 1.2, "BitWave {bitwave}");
        assert!(cons > bitwave, "BitVert cons {cons} vs BitWave {bitwave}");
        assert!(moderate > cons, "mod {moderate} vs cons {cons}");
        assert!(
            (1.8..=4.2).contains(&moderate),
            "BitVert mod speedup {moderate} outside plausible band"
        );
    }

    #[test]
    fn sparten_struggles_on_bert() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::bert_sst2();
        let stripes = simulate(&Stripes::new(), &model, &cfg, 7, CAP).total_cycles() as f64;
        let sp = simulate(&SparTen::new(), &model, &cfg, 7, CAP).total_cycles() as f64;
        assert!(stripes / sp < 1.1, "SparTen must not win on dense GeLU");
    }

    #[test]
    fn bitvert_energy_beats_sparten() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_small();
        let sp = simulate(&SparTen::new(), &model, &cfg, 7, CAP).total_energy_pj();
        let bv = simulate(&BitVert::moderate(), &model, &cfg, 7, CAP).total_energy_pj();
        let ratio = sp / bv;
        assert!(
            (1.4..=4.0).contains(&ratio),
            "paper reports ~2.4x energy advantage, got {ratio}"
        );
    }

    #[test]
    fn ant_sits_between_stripes_and_bitvert() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_base();
        let stripes = simulate(&Stripes::new(), &model, &cfg, 7, CAP).total_cycles();
        let ant = simulate(&Ant::new(), &model, &cfg, 7, CAP).total_cycles();
        let bv = simulate(&BitVert::moderate(), &model, &cfg, 7, CAP).total_cycles();
        assert!(ant < stripes);
        assert!(bv < ant);
    }

    #[test]
    fn stall_fractions_are_a_partition() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::resnet34();
        for accel in [
            &Stripes::new() as &dyn Accelerator,
            &Pragmatic::new(),
            &Bitlet::new(),
        ] {
            let r = simulate(accel, &model, &cfg, 7, CAP);
            let (u, a, e) = r.stall_breakdown();
            assert!(
                (u + a + e - 1.0).abs() < 1e-6,
                "{}: {u}+{a}+{e}",
                r.accelerator
            );
        }
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vgg16();
        let r = simulate(&Stripes::new(), &model, &cfg, 7, CAP);
        // fc6 (25088x4096 weights, one position) must be DRAM bound.
        let fc6 = r.layers.iter().find(|l| l.name == "fc6").expect("fc6");
        assert!(fc6.memory_cycles > fc6.compute_cycles);
        // Early convs are compute bound.
        let conv = r
            .layers
            .iter()
            .find(|l| l.name == "conv1.2")
            .expect("conv1.2");
        assert!(conv.memory_cycles <= conv.compute_cycles);
    }

    #[test]
    fn memory_stall_fraction_is_zero_not_nan_for_empty_results() {
        // An empty model (or one whose layers all collapse to zero cycles)
        // must report "no stall", not NaN.
        let empty = SimResult {
            accelerator: "Stripes".into(),
            model: "empty".into(),
            layers: Vec::new(),
        };
        assert_eq!(empty.total_cycles(), 0);
        assert_eq!(empty.memory_stall_fraction(), 0.0);

        let zero_layer = SimResult {
            layers: vec![LayerSim {
                name: "z".into(),
                compute_cycles: 0,
                memory_cycles: 0,
                total_cycles: 0,
                perf: LayerPerf {
                    compute_cycles: 0,
                    useful_fraction: 0.0,
                    intra_fraction: 0.0,
                    inter_fraction: 0.0,
                    weight_dram_bits: 0,
                    act_dram_bits: 0,
                    weight_sram_bits: 0,
                    act_sram_bits: 0,
                },
                energy: Default::default(),
            }],
            ..empty
        };
        assert!(!zero_layer.memory_stall_fraction().is_nan());
        assert_eq!(zero_layer.memory_stall_fraction(), 0.0);
    }

    #[test]
    fn simulate_with_matches_fresh_simulation() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vit_small();
        let store = WorkloadStore::default();
        let stripes = simulate_with(&store, &Stripes::new(), &model, &cfg, 7, 1024);
        assert_eq!(stripes, simulate(&Stripes::new(), &model, &cfg, 7, 1024));
        let lowered_only = store.bytes();
        for accel in [&BitVert::moderate() as &dyn Accelerator, &SparTen::new()] {
            let cached = simulate_with(&store, accel, &model, &cfg, 7, 1024);
            let fresh = simulate(accel, &model, &cfg, 7, 1024);
            assert_eq!(cached, fresh, "{}", accel.name());
        }
        // Three accelerators, one lowering.
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 2);
        // BitVert memoized its profile on the stored workloads; the byte
        // accounting must see that growth, not just the lowered data.
        assert!(
            store.bytes() > lowered_only,
            "memoized profiles must be accounted: {} vs {}",
            store.bytes(),
            lowered_only
        );
    }

    #[test]
    fn compression_helps_memory_bound_layers() {
        let cfg = ArrayConfig::paper_16x32();
        let model = zoo::vgg16();
        let stripes = simulate(&Stripes::new(), &model, &cfg, 7, CAP);
        let bv = simulate(&BitVert::moderate(), &model, &cfg, 7, CAP);
        let s_fc = stripes.layers.iter().find(|l| l.name == "fc6").unwrap();
        let b_fc = bv.layers.iter().find(|l| l.name == "fc6").unwrap();
        let speedup = s_fc.total_cycles as f64 / b_fc.total_cycles as f64;
        assert!(
            speedup > 1.3,
            "compressed weights must relieve the DRAM bottleneck: {speedup}"
        );
    }
}
