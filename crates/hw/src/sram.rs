//! Analytic SRAM model standing in for CACTI (paper §V-A).
//!
//! Per-bit access energy follows the usual capacity scaling of 28 nm SRAM
//! macros (`E/bit ≈ 0.02 · KB^0.32 pJ`, ≈ 0.12 pJ/bit for the paper's
//! 256 KB buffers), and area follows a ~0.3 mm²/MB density.

/// An on-chip SRAM buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sram {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Number of banks (wider access, slight energy overhead).
    pub banks: usize,
}

impl Sram {
    /// Creates a buffer of the given capacity with one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(bytes: usize) -> Self {
        assert!(bytes > 0);
        Sram { bytes, banks: 1 }
    }

    /// Sets the bank count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn with_banks(mut self, banks: usize) -> Self {
        assert!(banks > 0);
        self.banks = banks;
        self
    }

    /// Capacity in KiB.
    fn kib(&self) -> f64 {
        self.bytes as f64 / 1024.0
    }

    /// Read/write energy per bit in pJ.
    pub fn energy_per_bit_pj(&self) -> f64 {
        // Banking splits the array: each access hits one smaller bank, with
        // a 10% routing overhead per doubling.
        let bank_kib = (self.kib() / self.banks as f64).max(0.25);
        let routing = 1.0 + 0.1 * (self.banks as f64).log2();
        0.02 * bank_kib.powf(0.32) * routing
    }

    /// Energy of transferring `bits` through this buffer, in pJ.
    pub fn access_energy_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.energy_per_bit_pj()
    }

    /// Macro area in µm² (≈ 0.3 mm² per MB at 28 nm).
    pub fn area_um2(&self) -> f64 {
        0.3e6 * self.bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_buffer_energy_in_published_band() {
        // 256 KB buffers: ~0.1-0.2 pJ/bit at 28nm.
        let e = Sram::new(256 * 1024).energy_per_bit_pj();
        assert!((0.08..=0.2).contains(&e), "{e} pJ/bit");
    }

    #[test]
    fn energy_grows_with_capacity() {
        let small = Sram::new(16 * 1024).energy_per_bit_pj();
        let big = Sram::new(1024 * 1024).energy_per_bit_pj();
        assert!(big > small);
    }

    #[test]
    fn banking_reduces_per_bit_energy_for_large_arrays() {
        let flat = Sram::new(1024 * 1024);
        let banked = Sram::new(1024 * 1024).with_banks(8);
        assert!(banked.energy_per_bit_pj() < flat.energy_per_bit_pj());
    }

    #[test]
    fn access_energy_scales_with_bits() {
        let s = Sram::new(256 * 1024);
        assert!((s.access_energy_pj(1000) - 1000.0 * s.energy_per_bit_pj()).abs() < 1e-9);
    }

    #[test]
    fn area_scales_with_capacity() {
        let a = Sram::new(1024 * 1024).area_um2();
        assert!((a - 0.3e6).abs() < 1.0);
    }
}
