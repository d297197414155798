//! A small pure-Rust SGD trainer — the substrate for *honest* accuracy
//! measurements.
//!
//! The paper measures ImageNet/GLUE accuracy on pre-trained checkpoints we
//! do not have. Instead of fabricating accuracy numbers, we train a small
//! MLP from scratch on a synthetic Gaussian-blob classification task, then
//! compress its weights with each method and measure the *real* accuracy
//! drop. The task is tuned so INT8 per-channel quantization is lossless
//! (mirroring Table I) while aggressive sub-8-bit compression measurably
//! hurts — the regime Figs. 11/16 explore.

use crate::engine::{cross_entropy, linear_f32, relu, softmax};
use bbs_tensor::rng::SeededRng;
use bbs_tensor::{Shape, Tensor};

/// A labelled dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature vectors.
    pub x: Vec<Vec<f32>>,
    /// Class labels.
    pub y: Vec<usize>,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Generates a train/test pair of Gaussian-blob classification sets with
/// shared class centers.
///
/// # Panics
///
/// Panics if any size parameter is zero.
pub fn gaussian_blobs(
    classes: usize,
    dim: usize,
    train_per_class: usize,
    test_per_class: usize,
    noise: f64,
    seed: u64,
) -> (Dataset, Dataset) {
    assert!(classes > 0 && dim > 0 && train_per_class > 0 && test_per_class > 0);
    let mut rng = SeededRng::new(seed ^ 0xb10b_5eed);
    // Random unit-ish centers.
    let centers: Vec<Vec<f64>> = (0..classes)
        .map(|_| {
            let v = rng.gaussian_vec(dim, 0.0, 1.0);
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
            v.into_iter().map(|x| x / norm).collect()
        })
        .collect();
    let make = |per_class: usize, rng: &mut SeededRng| {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per_class {
                x.push(
                    center
                        .iter()
                        .map(|&m| (m + rng.gaussian(0.0, noise)) as f32)
                        .collect(),
                );
                y.push(c);
            }
        }
        Dataset { x, y, dim, classes }
    };
    let train = make(train_per_class, &mut rng);
    let test = make(test_per_class, &mut rng);
    (train, test)
}

/// Everything one training run depends on: the untrained model, its data
/// and its SGD schedule.
#[derive(Debug, Clone)]
pub(crate) struct Recipe {
    pub(crate) mlp: Mlp,
    pub(crate) train: Dataset,
    pub(crate) test: Dataset,
    pub(crate) epochs: usize,
    pub(crate) lr: f32,
    pub(crate) seed: u64,
}

impl Recipe {
    /// Trains the model, returning it with the held-out split.
    pub(crate) fn run(self) -> (Mlp, Dataset) {
        let mut mlp = self.mlp;
        mlp.train(&self.train, self.epochs, self.lr, self.seed);
        (mlp, self.test)
    }
}

/// A two-layer ReLU MLP classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// First layer weights `[hidden, in]`.
    pub w1: Tensor<f32>,
    /// First layer bias.
    pub b1: Vec<f32>,
    /// Second layer weights `[classes, hidden]`.
    pub w2: Tensor<f32>,
    /// Second layer bias.
    pub b2: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with Xavier-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && hidden > 0 && classes > 0);
        let mut rng = SeededRng::new(seed ^ 0x31f0_0d5e);
        let s1 = (2.0 / in_dim as f64).sqrt();
        let s2 = (2.0 / hidden as f64).sqrt();
        Mlp {
            w1: Tensor::from_vec(
                Shape::matrix(hidden, in_dim),
                rng.gaussian_vec_f32(hidden * in_dim, 0.0, s1 as f32),
            )
            .expect("shape matches"),
            b1: vec![0.0; hidden],
            w2: Tensor::from_vec(
                Shape::matrix(classes, hidden),
                rng.gaussian_vec_f32(classes * hidden, 0.0, s2 as f32),
            )
            .expect("shape matches"),
            b2: vec![0.0; classes],
        }
    }

    /// Forward pass returning the hidden activation and logits.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut h = linear_f32(&self.w1, x, &self.b1);
        relu(&mut h);
        let logits = linear_f32(&self.w2, &h, &self.b2);
        (h, logits)
    }

    /// Most likely class for one example.
    fn predict(&self, x: &[f32]) -> usize {
        let (_, logits) = self.forward(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
            .map(|(i, _)| i)
            .expect("non-empty logits")
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        assert!(!ds.is_empty());
        let correct =
            ds.x.iter()
                .zip(&ds.y)
                .filter(|(x, &y)| self.predict(x) == y)
                .count();
        correct as f64 / ds.len() as f64
    }

    /// Mean cross-entropy loss on a dataset.
    pub fn loss(&self, ds: &Dataset) -> f64 {
        ds.x.iter()
            .zip(&ds.y)
            .map(|(x, &y)| cross_entropy(&self.forward(x).1, y) as f64)
            .sum::<f64>()
            / ds.len() as f64
    }

    /// Trains with plain SGD (shuffled each epoch).
    pub fn train(&mut self, ds: &Dataset, epochs: usize, lr: f32, seed: u64) {
        self.train_with(ds, epochs, lr, seed, Mlp::sgd_step);
    }

    /// [`Mlp::train`] with the given per-example step.
    fn train_with(
        &mut self,
        ds: &Dataset,
        epochs: usize,
        lr: f32,
        seed: u64,
        step: fn(&mut Mlp, &[f32], usize, f32),
    ) {
        let mut rng = SeededRng::new(seed ^ 0x7a21_0001);
        let mut order: Vec<usize> = (0..ds.len()).collect();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step(self, &ds.x[i], ds.y[i], lr);
            }
        }
    }

    /// One SGD step on one example.
    ///
    /// The first layer's forward pass and update visit only the nonzero
    /// inputs (2 of 64 for the micro LM's one-hot rows).
    ///
    /// Matches the dense step (every input through [`linear_f32`] and the
    /// update) bit for bit while every value stays finite and the first
    /// layer holds no `-0.0` weight or bias. A skipped input is `±0.0`, so
    /// each skipped product or update term is `±0.0` as well: it can only
    /// flip the sign of an exact zero, and that sign reaches a stored value
    /// only through a `-0.0` weight (`-0.0 - -0.0 = +0.0`) or bias
    /// (`±0.0 + -0.0` keeps the sum's sign). Training never creates `-0.0`,
    /// because an exact zero difference rounds to `+0.0`.
    fn sgd_step(&mut self, x: &[f32], label: usize, lr: f32) {
        let active: Vec<usize> = (0..x.len()).filter(|&k| x[k] != 0.0).collect();

        // Forward, keeping intermediates.
        let mut z1: Vec<f32> = (0..self.b1.len())
            .map(|j| {
                let row = self.w1.row(j);
                active.iter().map(|&k| row[k] * x[k]).sum::<f32>() + self.b1[j]
            })
            .collect();
        let mut h = z1.clone();
        relu(&mut h);
        let logits = linear_f32(&self.w2, &h, &self.b2);
        let p = softmax(&logits);

        // dL/dz2 = p - onehot(label).
        let mut dz2 = p;
        dz2[label] -= 1.0;

        // Backprop through w2.
        let hidden = h.len();
        let mut dh = vec![0.0f32; hidden];
        for (o, &d2) in dz2.iter().enumerate() {
            let row = self.w2.row_mut(o);
            for (j, w) in row.iter_mut().enumerate() {
                dh[j] += *w * d2;
                *w -= lr * d2 * h[j];
            }
            self.b2[o] -= lr * d2;
        }

        // Through ReLU and w1.
        for (j, z) in z1.iter_mut().enumerate() {
            if *z <= 0.0 {
                dh[j] = 0.0;
            }
        }
        for (j, &d1) in dh.iter().enumerate() {
            if d1 == 0.0 {
                continue;
            }
            let row = self.w1.row_mut(j);
            for &k in &active {
                row[k] -= lr * d1 * x[k];
            }
            self.b1[j] -= lr * d1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense SGD step, every input through [`linear_f32`] and the
    /// update: the oracle [`Mlp::sgd_step`] must match.
    fn dense_sgd_step(mlp: &mut Mlp, x: &[f32], label: usize, lr: f32) {
        let mut z1 = linear_f32(&mlp.w1, x, &mlp.b1);
        let mut h = z1.clone();
        relu(&mut h);
        let logits = linear_f32(&mlp.w2, &h, &mlp.b2);
        let mut dz2 = softmax(&logits);
        dz2[label] -= 1.0;
        let mut dh = vec![0.0f32; h.len()];
        for (o, &d2) in dz2.iter().enumerate() {
            let row = mlp.w2.row_mut(o);
            for (j, w) in row.iter_mut().enumerate() {
                dh[j] += *w * d2;
                *w -= lr * d2 * h[j];
            }
            mlp.b2[o] -= lr * d2;
        }
        for (j, z) in z1.iter_mut().enumerate() {
            if *z <= 0.0 {
                dh[j] = 0.0;
            }
        }
        for (j, &d1) in dh.iter().enumerate() {
            if d1 == 0.0 {
                continue;
            }
            let row = mlp.w1.row_mut(j);
            for (k, w) in row.iter_mut().enumerate() {
                *w -= lr * d1 * x[k];
            }
            mlp.b1[j] -= lr * d1;
        }
    }

    /// Every weight and bias of the model, as bits.
    fn bits(mlp: &Mlp) -> Vec<u32> {
        [
            mlp.w1.as_slice(),
            &mlp.b1[..],
            mlp.w2.as_slice(),
            &mlp.b2[..],
        ]
        .concat()
        .iter()
        .map(|v| v.to_bits())
        .collect()
    }

    #[test]
    fn sparse_training_matches_the_dense_oracle() {
        let recipes = [
            crate::lm::lm_recipe(41),
            crate::lm::lm_recipe(71),
            crate::accuracy::classifier_recipe(21),
        ];
        for r in recipes {
            let mut sparse = r.mlp.clone();
            sparse.train(&r.train, r.epochs, r.lr, r.seed);
            let mut dense = r.mlp.clone();
            dense.train_with(&r.train, r.epochs, r.lr, r.seed, dense_sgd_step);
            assert!(bits(&sparse) == bits(&dense), "seed {}", r.seed);
        }
    }

    #[test]
    fn signed_zeros_follow_the_documented_contract() {
        // Ten classes: one full block of eight output rows plus two more.
        let base = Mlp::new(4, 3, 10, 3);
        let tiny = f32::from_bits(1);
        // Zero inputs of both signs between two tiny inputs, whose
        // products with tiny weights underflow to ±0.0.
        let x = [1e-20f32, 0.0, -0.0, 1e-20];
        let step = |mlp: &Mlp, sgd: fn(&mut Mlp, &[f32], usize, f32)| {
            let mut m = mlp.clone();
            sgd(&mut m, &x, 7, 0.1);
            m
        };

        // +0.0 weights and biases, and a first row whose sum is -0.0 over
        // the nonzero inputs but +0.0 over all of them: no -0.0 in the
        // first layer, so the steps agree bit for bit.
        let mut plus = base.clone();
        plus.w1
            .row_mut(0)
            .copy_from_slice(&[-tiny, 0.5, -0.5, -tiny]);
        plus.w1.row_mut(1).copy_from_slice(&[0.25, 0.0, 0.0, 0.0]);
        plus.w1.row_mut(2).copy_from_slice(&[-0.75, -0.5, 0.5, 0.0]);
        plus.b1 = vec![0.0, 0.0, 1.0];
        let row0 = |m: &Mlp, terms: &[usize]| terms.iter().map(|&k| m.w1.row(0)[k] * x[k]).sum();
        let (sparse_sum, dense_sum): (f32, f32) =
            (row0(&plus, &[0, 3]), row0(&plus, &[0, 1, 2, 3]));
        assert!(sparse_sum.is_sign_negative() && dense_sum.is_sign_positive());
        assert!(bits(&step(&plus, Mlp::sgd_step)) == bits(&step(&plus, dense_sgd_step)));

        // A -0.0 weight on a zero input is where they part: the dense
        // update subtracts ±0.0, which turns -0.0 into +0.0 when the term
        // is -0.0; the sparse step leaves it. With -0.0 under both zero
        // inputs, exactly one of the two terms is -0.0.
        let mut minus = plus.clone();
        minus
            .w1
            .row_mut(2)
            .copy_from_slice(&[-0.75, -0.0, -0.0, 0.0]);
        let sparse = step(&minus, Mlp::sgd_step);
        let dense = step(&minus, dense_sgd_step);
        assert_ne!(sparse.b1[2], minus.b1[2], "hidden unit 2 must be updated");
        let touched = [sparse.w1.row(2)[1], sparse.w1.row(2)[2]];
        assert!(touched.iter().all(|w| w.to_bits() == (-0.0f32).to_bits()));
        let flipped = [dense.w1.row(2)[1], dense.w1.row(2)[2]];
        assert_eq!(
            flipped
                .iter()
                .filter(|w| w.to_bits() == 0.0f32.to_bits())
                .count(),
            1,
            "dense step: {flipped:?}"
        );
        let mut healed = sparse.clone();
        healed.w1.row_mut(2)[1..3].copy_from_slice(&flipped);
        assert!(
            bits(&healed) == bits(&dense),
            "only the -0.0 weights differ"
        );
    }

    fn trained() -> (Mlp, Dataset, Dataset) {
        let (train, test) = gaussian_blobs(4, 16, 120, 60, 0.30, 42);
        let mut mlp = Mlp::new(16, 32, 4, 42);
        mlp.train(&train, 12, 0.05, 42);
        (mlp, train, test)
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let (mlp, train, test) = trained();
        assert!(
            mlp.accuracy(&train) > 0.95,
            "train {}",
            mlp.accuracy(&train)
        );
        assert!(mlp.accuracy(&test) > 0.90, "test {}", mlp.accuracy(&test));
    }

    #[test]
    fn training_reduces_loss() {
        let (train, _) = gaussian_blobs(3, 8, 80, 40, 0.25, 7);
        let mut mlp = Mlp::new(8, 16, 3, 7);
        let before = mlp.loss(&train);
        mlp.train(&train, 8, 0.05, 7);
        assert!(mlp.loss(&train) < before * 0.5);
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let (_, test) = gaussian_blobs(4, 16, 10, 100, 0.3, 9);
        let mlp = Mlp::new(16, 32, 4, 9);
        let acc = mlp.accuracy(&test);
        assert!(acc < 0.6, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn blobs_are_reproducible_and_split() {
        let (tr1, te1) = gaussian_blobs(3, 8, 50, 25, 0.2, 5);
        let (tr2, _) = gaussian_blobs(3, 8, 50, 25, 0.2, 5);
        assert_eq!(tr1, tr2);
        assert_eq!(tr1.len(), 150);
        assert_eq!(te1.len(), 75);
        assert_ne!(tr1.x[0], te1.x[0]);
    }

    #[test]
    fn predict_is_argmax_of_logits() {
        let (mlp, _, test) = trained();
        let x = &test.x[0];
        let (_, logits) = mlp.forward(x);
        let argmax = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(mlp.predict(x), argmax);
    }
}
