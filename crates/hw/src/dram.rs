//! DDR3 model standing in for DRAMSim3 (paper §V-A).
//!
//! Fixed per-bit transfer energy (activation + IO amortized) and a peak
//! bandwidth used to convert traffic into memory cycles at the accelerator
//! clock.

/// Off-chip DRAM channel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dram {
    /// Transfer energy per bit in pJ (DDR3 ≈ 20 pJ/bit end to end).
    pub energy_per_bit_pj: f64,
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl Dram {
    /// DDR3-1600 single channel: 12.8 GB/s, 20 pJ/bit.
    pub fn ddr3() -> Self {
        Dram {
            energy_per_bit_pj: 20.0,
            bandwidth_bytes_per_s: 12.8e9,
        }
    }

    /// Energy of transferring `bits`, in pJ.
    pub fn transfer_energy_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.energy_per_bit_pj
    }

    /// Bytes deliverable per accelerator cycle at `freq_mhz`.
    fn bytes_per_cycle(&self, freq_mhz: f64) -> f64 {
        self.bandwidth_bytes_per_s / (freq_mhz * 1e6)
    }

    /// Cycles needed to transfer `bytes` at `freq_mhz` (ceiling).
    pub fn transfer_cycles(&self, bytes: u64, freq_mhz: f64) -> u64 {
        (bytes as f64 / self.bytes_per_cycle(freq_mhz)).ceil() as u64
    }
}

impl Default for Dram {
    fn default() -> Self {
        Dram::ddr3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_bandwidth_at_800mhz() {
        let d = Dram::ddr3();
        // 12.8e9 / 800e6 = 16 bytes per cycle.
        assert!((d.bytes_per_cycle(800.0) - 16.0).abs() < 1e-9);
        assert_eq!(d.transfer_cycles(160, 800.0), 10);
        assert_eq!(d.transfer_cycles(161, 800.0), 11);
    }

    #[test]
    fn dram_energy_dwarfs_sram() {
        let d = Dram::ddr3();
        let s = crate::sram::Sram::new(256 * 1024);
        assert!(
            d.energy_per_bit_pj > 50.0 * s.energy_per_bit_pj(),
            "off-chip must be orders of magnitude above on-chip"
        );
    }
}
