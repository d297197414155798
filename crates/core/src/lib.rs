//! # bbs-core — the paper's primary contribution
//!
//! Bi-directional bit-level sparsity (BBS) and bit-level binary pruning, as
//! introduced in *"BBS: Bi-directional Bit-level Sparsity for Deep Learning
//! Acceleration"* (MICRO 2024):
//!
//! * [`bbs_math`] — the BBS theorem (Eqs. 1–3): a bit column with more ones
//!   than zeros can be inverted and its dot product recovered from the group
//!   activation sum, guaranteeing ≥ 50% sparsity in any bit vector.
//! * [`redundant`] — lossless removal of sign-extension ("redundant") bit
//!   columns (Fig. 4, step 1).
//! * [`averaging`] — binary pruning by *rounded column averaging* (Fig. 4).
//! * [`shifting`] — binary pruning by *zero-point shifting* (Fig. 5, Algo. 1).
//! * [`encoding`] — the 8-bit metadata format (2-bit redundant-column count +
//!   6-bit BBS constant) and the compressed group layout.
//! * [`prune`] — a unified compression front-end over both strategies.
//! * [`zero_col`] — the prior-art sign-magnitude zero-column pruning
//!   (BitWave-style) used as a baseline in Figs. 6 and 11.
//! * [`global`] — hardware-aware global binary pruning (Algo. 2).
//! * [`reorder`] — channel reordering with output unshuffling (Fig. 9).
//! * [`stats`] — storage accounting (compression ratio, effective bits).
//!
//! # Example
//!
//! ```
//! use bbs_core::prune::{BinaryPruner, PruneStrategy};
//!
//! let group: Vec<i8> = vec![-7, 1, -20, 81];
//! // Prune 4 bit columns with zero-point shifting (the paper's Fig. 5).
//! let pruner = BinaryPruner::new(PruneStrategy::ZeroPointShifting, 4);
//! let compressed = pruner.compress_group(&group);
//! assert_eq!(compressed.kept_column_count() + 4, 8);
//! // Reconstruction stays close to the original group.
//! let recon = compressed.decode();
//! assert!(compressed.mse(&group) < 64.0);
//! assert_eq!(recon.len(), group.len());
//! ```

pub mod averaging;
pub mod bbs_math;
pub mod encoding;
pub mod global;
pub mod prune;
pub mod redundant;
pub mod reorder;
pub mod shifting;
pub mod stats;
pub mod zero_col;

pub use encoding::{BbsMetadata, CompressedGroup, ConstantKind};
pub use prune::{BinaryPruner, PruneStrategy};
