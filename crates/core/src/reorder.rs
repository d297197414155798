//! **Channel reordering** with output unshuffling (paper §IV-C, Fig. 9).
//!
//! Global binary pruning leaves sensitive (8-bit) and normal (pruned)
//! channels interleaved, which would fragment memory accesses. BitVert
//! groups same-precision channels into contiguous chunks, remembers the
//! original index of each channel in a small index buffer, and restores the
//! original order when outputs are written back.
//!
//! Unshuffling *outputs* (instead of statically unshuffling the next layer's
//! weights, as SparTen does) keeps element-wise consumers correct: two
//! tensors multiplying the same input — e.g. the two branches feeding a
//! residual add — can use different channel orders and still line up after
//! write-back (Fig. 9b/c).

/// A permutation of weight channels: sensitive chunk first, then normal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelOrder {
    /// `order[pos]` = original channel stored at chunked position `pos`
    /// (this is the contents of BitVert's channel-index buffer).
    order: Vec<usize>,
    /// Number of sensitive channels (the size of the first chunk).
    sensitive_count: usize,
}

impl ChannelOrder {
    /// Builds the chunked order from a sensitivity mask: sensitive channels
    /// first (stable), then normal channels (stable).
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty.
    pub fn from_sensitivity(mask: &[bool]) -> Self {
        assert!(!mask.is_empty());
        let mut order: Vec<usize> = Vec::with_capacity(mask.len());
        order.extend((0..mask.len()).filter(|&c| mask[c]));
        let sensitive_count = order.len();
        order.extend((0..mask.len()).filter(|&c| !mask[c]));
        ChannelOrder {
            order,
            sensitive_count,
        }
    }

    /// The identity order over `n` channels.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0);
        ChannelOrder {
            order: (0..n).collect(),
            sensitive_count: 0,
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty (never true for a constructed order).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Size of the sensitive chunk.
    pub fn sensitive_count(&self) -> usize {
        self.sensitive_count
    }

    /// Original channel stored at chunked position `pos` (the index-buffer
    /// lookup used at write-back).
    pub fn original_index(&self, pos: usize) -> usize {
        self.order[pos]
    }

    /// Reorders per-channel data into chunked layout.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` differs from the channel count.
    pub fn reorder<T: Clone>(&self, rows: &[T]) -> Vec<T> {
        assert_eq!(rows.len(), self.order.len());
        self.order.iter().map(|&orig| rows[orig].clone()).collect()
    }

    /// Restores outputs produced in chunked order back to the original
    /// channel order (the write-back unshuffle of Fig. 9c).
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` differs from the channel count.
    pub fn unshuffle<T: Clone + Default>(&self, outputs: &[T]) -> Vec<T> {
        assert_eq!(outputs.len(), self.order.len());
        let mut restored = vec![T::default(); outputs.len()];
        for (pos, out) in outputs.iter().enumerate() {
            restored[self.order[pos]] = out.clone();
        }
        restored
    }

    /// Bits needed for the channel-index buffer (one index per channel).
    pub fn index_buffer_bits(&self) -> usize {
        let idx_bits = usize::BITS as usize - (self.len() - 1).leading_zeros() as usize;
        self.len() * idx_bits.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(rows: &[Vec<i32>], x: &[i32]) -> Vec<i32> {
        rows.iter()
            .map(|r| r.iter().zip(x).map(|(&w, &v)| w * v).sum())
            .collect()
    }

    #[test]
    fn chunked_order_puts_sensitive_first() {
        let mask = [false, true, false, true, true, false];
        let ord = ChannelOrder::from_sensitivity(&mask);
        assert_eq!(ord.sensitive_count(), 3);
        assert_eq!(
            (0..6).map(|p| ord.original_index(p)).collect::<Vec<_>>(),
            vec![1, 3, 4, 0, 2, 5]
        );
    }

    #[test]
    fn reorder_then_unshuffle_is_identity() {
        let mask = [true, false, true, false, false];
        let ord = ChannelOrder::from_sensitivity(&mask);
        let data: Vec<i32> = vec![10, 11, 12, 13, 14];
        let chunked = ord.reorder(&data);
        assert_eq!(chunked, vec![10, 12, 11, 13, 14]);
        assert_eq!(ord.unshuffle(&chunked), data);
    }

    #[test]
    fn identity_order() {
        let ord = ChannelOrder::identity(4);
        let data = vec![5i32, 6, 7, 8];
        assert_eq!(ord.reorder(&data), data);
        assert_eq!(ord.unshuffle(&data), data);
        assert_eq!(ord.sensitive_count(), 0);
    }

    #[test]
    fn fig9_residual_add_correctness() {
        // Two weight tensors multiply the same input; their outputs are
        // added element-wise (a ResNet residual block). Each tensor gets a
        // *different* channel reordering, as global pruning would produce.
        let w1: Vec<Vec<i32>> = vec![vec![1, 0], vec![0, 1], vec![1, 1], vec![2, 1]];
        let w2: Vec<Vec<i32>> = vec![vec![3, 1], vec![1, 3], vec![0, 2], vec![1, 1]];
        let x = vec![5i32, 7];

        let reference: Vec<i32> = matvec(&w1, &x)
            .iter()
            .zip(matvec(&w2, &x))
            .map(|(&a, b)| a + b)
            .collect();

        let ord1 = ChannelOrder::from_sensitivity(&[true, false, false, true]);
        let ord2 = ChannelOrder::from_sensitivity(&[false, false, true, true]);
        let y1 = matvec(&ord1.reorder(&w1), &x);
        let y2 = matvec(&ord2.reorder(&w2), &x);

        // SparTen-style positional add on differently-ordered outputs is
        // wrong (Fig. 9b)...
        let positional: Vec<i32> = y1.iter().zip(&y2).map(|(&a, &b)| a + b).collect();
        assert_ne!(positional, reference, "positional add must corrupt result");

        // ...while unshuffling at write-back restores correctness (Fig. 9c).
        let restored: Vec<i32> = ord1
            .unshuffle(&y1)
            .iter()
            .zip(ord2.unshuffle(&y2))
            .map(|(&a, b)| a + b)
            .collect();
        assert_eq!(restored, reference);
    }

    #[test]
    fn index_buffer_cost_is_trivial() {
        // One index per channel: for 512 channels of a conv layer holding
        // hundreds of weights each, the overhead is far below 1%.
        let mask = vec![true; 512];
        let ord = ChannelOrder::from_sensitivity(&mask);
        let weights_bits = 512 * 3 * 3 * 256 * 8;
        assert!((ord.index_buffer_bits() as f64) < 0.001 * weights_bits as f64);
    }
}
