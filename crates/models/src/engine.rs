//! Reference inference kernels.
//!
//! Plain f32 linear, activation and loss functions for the trainer, plus
//! the GEMM that tests check [`linear_f32`] against.

use bbs_tensor::{Shape, Tensor};

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or inputs are not rank 2.
pub fn matmul_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, kb, "inner dimensions must agree");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = a.row(i);
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(Shape::matrix(m, n), out).expect("shape matches")
}

/// Output rows [`linear_f32`] sums side by side.
const ROW_BLOCK: usize = 8;

/// `y[out] = W[out,in] · x[in] + b[out]`.
///
/// Every row adds its products in input order from `-0.0`, as
/// `Iterator::sum` does, then adds its bias. `ROW_BLOCK` rows are summed
/// side by side in one pass over `x`, so their additions overlap instead
/// of each waiting on the one before.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn linear_f32(w: &Tensor<f32>, x: &[f32], bias: &[f32]) -> Vec<f32> {
    assert_eq!(w.shape().rank(), 2);
    let (out_f, in_f) = (w.shape().dim(0), w.shape().dim(1));
    assert_eq!(x.len(), in_f);
    assert_eq!(bias.len(), out_f);
    let blocked = out_f - out_f % ROW_BLOCK;
    let mut out = Vec::with_capacity(out_f);
    for first in (0..blocked).step_by(ROW_BLOCK) {
        let rows: [&[f32]; ROW_BLOCK] = std::array::from_fn(|r| w.row(first + r));
        let mut acc = [-0.0f32; ROW_BLOCK];
        for (k, &xv) in x.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += row[k] * xv;
            }
        }
        out.extend(acc);
    }
    out.extend((blocked..out_f).map(|o| {
        w.row(o)
            .iter()
            .zip(x)
            .map(|(&wv, &xv)| wv * xv)
            .sum::<f32>()
    }));
    for (y, &b) in out.iter_mut().zip(bias) {
        *y += b;
    }
    out
}

/// ReLU in place.
pub fn relu(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Numerically stable softmax.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    assert!(!x.is_empty());
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Cross-entropy loss of softmax logits against a class label.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn cross_entropy(logits: &[f32], label: usize) -> f32 {
    assert!(label < logits.len());
    let p = softmax(logits);
    -(p[label].max(1e-12)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integer linear layer on INT8 codes, dequantized with per-channel weight
    /// scales and a single activation scale — the arithmetic every simulated
    /// accelerator performs.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    fn linear_i8(w_codes: &Tensor<i8>, w_scales: &[f32], x_codes: &[i8], x_scale: f32) -> Vec<f32> {
        assert_eq!(w_codes.shape().rank(), 2);
        let (out_f, in_f) = (w_codes.shape().dim(0), w_codes.shape().dim(1));
        assert_eq!(x_codes.len(), in_f);
        assert_eq!(w_scales.len(), out_f);
        (0..out_f)
            .map(|o| {
                let acc: i64 = w_codes
                    .row(o)
                    .iter()
                    .zip(x_codes)
                    .map(|(&wv, &xv)| wv as i64 * xv as i64)
                    .sum();
                acc as f32 * w_scales[o] * x_scale
            })
            .collect()
    }

    /// GeLU (tanh approximation) in place.
    fn gelu(x: &mut [f32]) {
        for v in x.iter_mut() {
            let c = 0.797_884_6_f32;
            *v = 0.5 * *v * (1.0 + (c * (*v + 0.044715 * v.powi(3))).tanh());
        }
    }

    fn t(rows: usize, cols: usize, data: Vec<f32>) -> Tensor<f32> {
        Tensor::from_vec(Shape::matrix(rows, cols), data).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul_f32(&a, &i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul_f32(&a, &b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn linear_matches_matmul() {
        let w = t(2, 3, vec![1.0, -1.0, 0.5, 2.0, 0.0, -0.5]);
        let y = linear_f32(&w, &[2.0, 4.0, 6.0], &[0.1, -0.1]);
        assert!((y[0] - (2.0 - 4.0 + 3.0 + 0.1)).abs() < 1e-6);
        assert!((y[1] - (4.0 - 3.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn linear_matches_one_sum_per_row_bit_for_bit() {
        // Shapes on both sides of the row block, signed zeros among the
        // weights and inputs, and rows whose products cancel exactly.
        let mut rng = bbs_tensor::rng::SeededRng::new(5);
        for out_f in [1usize, 7, 8, 9, 16, 20] {
            for in_f in [1usize, 3, 48, 64] {
                let mut pick = |n: usize| -> Vec<f32> {
                    (0..n)
                        .map(|_| match rng.uniform_usize(0, 5) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => 1.0,
                            3 => -1.0,
                            _ => rng.gaussian(0.0, 1.0) as f32,
                        })
                        .collect()
                };
                let w = t(out_f, in_f, pick(out_f * in_f));
                let x = pick(in_f);
                let bias = pick(out_f);
                let want: Vec<u32> = (0..out_f)
                    .map(|o| {
                        let dot = w.row(o).iter().zip(&x).map(|(&a, &b)| a * b).sum::<f32>();
                        (dot + bias[o]).to_bits()
                    })
                    .collect();
                let got: Vec<u32> = linear_f32(&w, &x, &bias)
                    .iter()
                    .map(|y| y.to_bits())
                    .collect();
                assert_eq!(got, want, "{out_f}x{in_f}");
            }
        }
    }

    #[test]
    fn int8_linear_matches_float_within_quant_error() {
        let codes = [100i8, -50, 25, -125];
        let acts = [10, 20, 30, -40];
        let w_codes = Tensor::from_vec(Shape::matrix(1, 4), codes.to_vec()).unwrap();
        let y = linear_i8(&w_codes, &[0.01], &acts, 0.1);
        let dot: i32 = codes
            .iter()
            .zip(&acts)
            .map(|(&w, &x)| w as i32 * x as i32)
            .sum();
        let expect = dot as f32 * 0.001;
        assert!((y[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn relu_and_gelu_behave() {
        let mut x = vec![-1.0f32, 0.0, 2.0];
        relu(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.0]);
        let mut g = vec![-10.0f32, 0.0, 10.0];
        gelu(&mut g);
        assert!(g[0].abs() < 1e-3, "large negatives vanish");
        assert_eq!(g[1], 0.0);
        assert!((g[2] - 10.0).abs() < 1e-3, "large positives pass");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn cross_entropy_prefers_correct_label() {
        let confident = cross_entropy(&[10.0, -10.0], 0);
        let wrong = cross_entropy(&[10.0, -10.0], 1);
        assert!(confident < 0.01);
        assert!(wrong > 5.0);
    }
}
