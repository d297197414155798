//! A small dense row-major tensor.

use crate::error::TensorError;
use crate::shape::Shape;
use std::fmt;

/// Dense row-major tensor over an element type `T`.
///
/// This is intentionally minimal: the reproduction only needs construction,
/// elementwise mapping, channel views and a handful of reductions. Weight
/// tensors are canonicalized to 2-D `[channels, elems_per_channel]` before
/// compression, so most of the bit-level machinery works on slices.
///
/// # Example
///
/// ```
/// use bbs_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_vec(Shape::matrix(2, 3), vec![1i32, 2, 3, 4, 5, 6]).unwrap();
/// assert_eq!(t[[1, 2]], 6);
/// assert_eq!(t.row(0), &[1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T> Tensor<T> {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of range.
    pub fn row(&self, r: usize) -> &[T] {
        assert_eq!(self.shape.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Applies `f` to every element, producing a new tensor of the same shape.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T: Clone + Default> Tensor<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(shape: Shape) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![T::default(); volume],
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape, value: T) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![value; volume],
        }
    }
}

impl<T, I: AsRef<[usize]>> std::ops::Index<I> for Tensor<T> {
    type Output = T;

    fn index(&self, index: I) -> &T {
        &self.data[self.shape.offset(index.as_ref())]
    }
}

impl<T, I: AsRef<[usize]>> std::ops::IndexMut<I> for Tensor<T> {
    fn index_mut(&mut self, index: I) -> &mut T {
        let off = self.shape.offset(index.as_ref());
        &mut self.data[off]
    }
}

impl<T: fmt::Display> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview = self.data.len().min(8);
        for (i, v) in self.data[..preview].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > preview {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Tensor<f32> {
    /// Elementwise mean-square difference against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mse(&self, other: &Tensor<f32>) -> Result<f64, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.to_string(),
                right: other.shape.to_string(),
            });
        }
        Ok(crate::metrics::mse_f32(&self.data, &other.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(Shape::matrix(2, 2), vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(t[[0, 1]], 2);
        assert_eq!(t[[1, 0]], 3);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = Tensor::from_vec(Shape::matrix(2, 2), vec![1u8, 2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(Shape::matrix(3, 2), vec![0i8, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(t.row(1), &[2, 3]);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::from_vec(Shape::matrix(2, 2), vec![1i8, -2, 3, -4]).unwrap();
        let u = t.map(|&x| x as f32 * 2.0);
        assert_eq!(u.shape(), t.shape());
        assert_eq!(u.as_slice(), &[2.0, -4.0, 6.0, -8.0]);
    }

    #[test]
    fn zeros_and_full() {
        let z: Tensor<i32> = Tensor::zeros(Shape::vector(4));
        assert_eq!(z.as_slice(), &[0, 0, 0, 0]);
        let f = Tensor::full(Shape::vector(3), 7u8);
        assert_eq!(f.as_slice(), &[7, 7, 7]);
    }

    #[test]
    fn mse_shape_check() {
        let a = Tensor::from_vec(Shape::vector(2), vec![1.0f32, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(3), vec![1.0f32, 2.0, 3.0]).unwrap();
        assert!(a.mse(&b).is_err());
    }

    #[test]
    fn display_preview() {
        let t = Tensor::from_vec(Shape::vector(2), vec![1, 2]).unwrap();
        assert_eq!(t.to_string(), "Tensor[2] [1, 2]");
    }
}
