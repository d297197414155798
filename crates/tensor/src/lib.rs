//! Numeric substrate for the BBS reproduction.
//!
//! This crate provides everything the bit-level sparsity work sits on top of:
//!
//! * [`Shape`] / [`Tensor`] — a small dense row-major tensor,
//! * [`rng`] — seeded random samplers (Gaussian, Student-t) used to
//!   synthesize DNN weights with realistic statistics,
//! * [`quant`] — symmetric post-training quantization (per-tensor and
//!   per-channel) to INT8 and below,
//! * [`metrics`] — MSE / SQNR / KL-divergence used throughout the paper's
//!   fidelity arguments (Figs. 1, 6, 11, 16, 17),
//! * [`bits`] — bit-plane views of `i8` groups, sign-magnitude conversion and
//!   the value/bit/BBS sparsity statistics behind Fig. 3,
//! * [`lanes`] — the wide-lane substrate the kernels batch their mask and
//!   byte arithmetic over (AVX2 when detected, else portable 4×`u64` and
//!   32×`i8` lanes; `BBS_SIMD=scalar` forces the portable build).
//!
//! # Example
//!
//! ```
//! use bbs_tensor::{bits::PackedGroup, rng::SeededRng};
//!
//! let mut rng = SeededRng::new(7);
//! let weights: Vec<i8> = (0..32).map(|_| rng.gaussian_i8(0.0, 20.0)).collect();
//! let group = PackedGroup::from_words(&weights);
//! // Every bit column of a group is at least 50% sparse bi-directionally.
//! for b in 0..8 {
//!     let ones = group.column_popcount(b);
//!     let sparse = ones.max(32 - ones);
//!     assert!(sparse * 2 >= 32);
//! }
//! ```

pub mod bits;
pub mod error;
pub mod lanes;
pub mod metrics;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
