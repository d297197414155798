//! Accelerator-level energy roll-up (feeds the paper's Fig. 13 breakdown).

use crate::dram::Dram;
use crate::gates::Technology;
use crate::pe::PeModel;
use crate::sram::Sram;

/// Energy totals for one workload run, split the way Fig. 13 reports them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Off-chip DRAM transfer energy, pJ.
    pub dram_pj: f64,
    /// On-chip SRAM buffer energy, pJ.
    pub sram_pj: f64,
    /// PE-array compute energy, pJ.
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.sram_pj + self.compute_pj
    }

    /// On-chip share (SRAM + compute), pJ — Fig. 13's second stack segment.
    pub fn on_chip_pj(&self) -> f64 {
        self.sram_pj + self.compute_pj
    }

    /// Adds another breakdown (layer-wise accumulation).
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.dram_pj += other.dram_pj;
        self.sram_pj += other.sram_pj;
        self.compute_pj += other.compute_pj;
    }
}

/// The cost models an accelerator instance carries around.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Technology constants.
    pub tech: Technology,
    /// PE model (power is scaled by PE count and utilization).
    pub pe: PeModel,
    /// Number of PEs in the array.
    pub pe_count: usize,
    /// Weight buffer.
    pub weight_buffer: Sram,
    /// Activation buffer.
    pub act_buffer: Sram,
    /// Off-chip channel.
    pub dram: Dram,
}

impl EnergyModel {
    /// Compute energy of running the array for `cycles` with the given
    /// average PE utilization, in pJ.
    fn compute_energy_pj(&self, cycles: u64, utilization: f64) -> f64 {
        let pe_power_mw = self.pe.power_mw(&self.tech);
        // mW at freq MHz -> pJ/cycle = mW / MHz * 1e3... 1 mW = 1e9 pJ/s;
        // cycles/s = MHz * 1e6 -> pJ/cycle = power_mw * 1e9 / (freq*1e6)
        //           = power_mw * 1e3 / freq_mhz.
        let pj_per_cycle_per_pe = pe_power_mw * 1e3 / self.tech.freq_mhz;
        pj_per_cycle_per_pe * self.pe_count as f64 * cycles as f64 * utilization.clamp(0.05, 1.0)
    }

    /// Full breakdown for a layer: DRAM traffic, buffer traffic, compute.
    pub fn layer_energy(
        &self,
        dram_bits: u64,
        weight_buffer_bits: u64,
        act_buffer_bits: u64,
        cycles: u64,
        utilization: f64,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            dram_pj: self.dram.transfer_energy_pj(dram_bits),
            sram_pj: self.weight_buffer.access_energy_pj(weight_buffer_bits)
                + self.act_buffer.access_energy_pj(act_buffer_bits),
            compute_pj: self.compute_energy_pj(cycles, utilization),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::stripes_pe;

    fn model() -> EnergyModel {
        EnergyModel {
            tech: Technology::tsmc28(),
            pe: stripes_pe(),
            pe_count: 512,
            weight_buffer: Sram::new(256 * 1024),
            act_buffer: Sram::new(256 * 1024),
            dram: Dram::ddr3(),
        }
    }

    #[test]
    fn compute_energy_scales_with_cycles_and_utilization() {
        let m = model();
        let e1 = m.compute_energy_pj(1000, 1.0);
        let e2 = m.compute_energy_pj(2000, 1.0);
        let e3 = m.compute_energy_pj(1000, 0.5);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert!((e3 / e1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pj_per_cycle_is_sane() {
        // 512 Stripes PEs at ~0.37 mW / 800 MHz ~ 0.46 pJ/cycle each.
        let m = model();
        let per_pe = m.compute_energy_pj(1, 1.0) / 512.0;
        assert!((0.2..=1.0).contains(&per_pe), "{per_pe} pJ/cycle/PE");
    }

    #[test]
    fn breakdown_accumulates() {
        let m = model();
        let mut total = EnergyBreakdown::default();
        let layer = m.layer_energy(1_000_000, 2_000_000, 2_000_000, 10_000, 0.8);
        total.accumulate(&layer);
        total.accumulate(&layer);
        assert!((total.total_pj() - 2.0 * layer.total_pj()).abs() < 1e-6);
        assert!(layer.dram_pj > 0.0 && layer.sram_pj > 0.0 && layer.compute_pj > 0.0);
        assert!((layer.on_chip_pj() - (layer.sram_pj + layer.compute_pj)).abs() < 1e-9);
    }
}
