//! The deterministic synthetic image set.

use agequant_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{INPUT_SHAPE, NUM_CLASSES};

/// The fixed seed defining the synthetic task's class prototypes.
pub const TASK_SEED: u64 = 0x0C1A_55E5;

/// A deterministic synthetic classification dataset.
///
/// Stands in for the ImageNet validation set (see `DESIGN.md`): each
/// of the [`NUM_CLASSES`] classes has a smooth low-frequency prototype
/// pattern; samples are prototypes plus Gaussian pixel noise. The
/// images exercise realistic activation statistics (smooth, spatially
/// correlated, bounded) for quantization calibration, while accuracy
/// itself is measured as agreement with the FP32 model's predictions.
///
/// # Example
///
/// ```
/// use agequant_nn::SyntheticDataset;
///
/// let data = SyntheticDataset::generate(32, 7);
/// assert_eq!(data.len(), 32);
/// assert_eq!(data.images()[0].shape(), &agequant_nn::INPUT_SHAPE);
/// assert!(data.labels().iter().all(|&l| l < agequant_nn::NUM_CLASSES));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates `samples` images with a fixed seed. Classes are
    /// assigned round-robin so every class is represented.
    ///
    /// The class prototypes are drawn from a *fixed task seed*
    /// ([`TASK_SEED`]) — every generated set (training, calibration,
    /// evaluation) shares the same ten classes; `seed` only controls
    /// the per-sample noise.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn generate(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        let mut proto_rng = StdRng::seed_from_u64(TASK_SEED);
        let prototypes: Vec<Tensor> = (0..NUM_CLASSES)
            .map(|_| Self::prototype(&mut proto_rng))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let class = i % NUM_CLASSES;
            let mut img = prototypes[class].clone();
            for v in img.data_mut() {
                *v += 0.08 * gaussian(&mut rng);
            }
            images.push(img);
            labels.push(class);
        }
        SyntheticDataset { images, labels }
    }

    /// Smooth low-frequency pattern: random 2-D sinusoids with a
    /// class-specific per-channel amplitude profile.
    ///
    /// The amplitude profile is the load-bearing design choice: class
    /// identity is encoded in per-channel *energy*, which survives the
    /// rectifying nonlinearities and global average pooling of deep
    /// feature extractors — spatial-phase-only differences would not.
    fn prototype(rng: &mut StdRng) -> Tensor {
        let [c, h, w] = INPUT_SHAPE;
        let mut data = Vec::with_capacity(c * h * w);
        for _ in 0..c {
            let (fx, fy) = (rng.random_range(0.5..2.5f64), rng.random_range(0.5..2.5f64));
            let (px, py) = (
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(0.0..std::f64::consts::TAU),
            );
            // Wide class-channel amplitude spread (energy signature).
            let amp = rng.random_range(0.15..1.6f64);
            let offset = rng.random_range(-0.4..0.4f64);
            for y in 0..h {
                for x in 0..w {
                    let vy = (fy * y as f64 / h as f64 * std::f64::consts::TAU + py).sin();
                    let vx = (fx * x as f64 / w as f64 * std::f64::consts::TAU + px).sin();
                    data.push((offset + amp * 0.5 * (vx + vy)) as f32);
                }
            }
        }
        Tensor::from_vec(&INPUT_SHAPE, data)
    }

    /// The images.
    #[must_use]
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// The ground-truth class labels (round-robin).
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the set is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// A smaller view: the first `n` images (for calibration subsets).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the set size.
    #[must_use]
    pub fn take(&self, n: usize) -> SyntheticDataset {
        assert!(n > 0 && n <= self.len(), "invalid subset size {n}");
        SyntheticDataset {
            images: self.images[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
        }
    }

    /// Splits into two disjoint sets: the first `n` samples and the
    /// remainder. The aging-aware flow uses this to carve one
    /// generated stream into a calibration split and an evaluation
    /// split that provably share no sample.
    ///
    /// # Panics
    ///
    /// Panics if either side would be empty.
    #[must_use]
    pub fn split_at(&self, n: usize) -> (SyntheticDataset, SyntheticDataset) {
        assert!(n > 0 && n < self.len(), "split {n} leaves an empty side");
        (
            SyntheticDataset {
                images: self.images[..n].to_vec(),
                labels: self.labels[..n].to_vec(),
            },
            SyntheticDataset {
                images: self.images[n..].to_vec(),
                labels: self.labels[n..].to_vec(),
            },
        )
    }
}

fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(20, 5);
        let b = SyntheticDataset::generate(20, 5);
        assert_eq!(a, b);
        let c = SyntheticDataset::generate(20, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn classes_are_balanced() {
        let d = SyntheticDataset::generate(40, 1);
        for class in 0..NUM_CLASSES {
            let count = d.labels().iter().filter(|&&l| l == class).count();
            assert_eq!(count, 4);
        }
    }

    #[test]
    fn images_are_bounded_and_finite() {
        let d = SyntheticDataset::generate(30, 2);
        for img in d.images() {
            let (lo, hi) = img.min_max();
            assert!(lo.is_finite() && hi.is_finite());
            assert!(lo > -4.0 && hi < 4.0, "unexpected range [{lo}, {hi}]");
        }
    }

    #[test]
    fn same_class_images_correlate() {
        // Two samples of class 0 are closer to each other than to a
        // different class's sample, on average.
        let d = SyntheticDataset::generate(30, 3);
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).powi(2))
                .sum()
        };
        // Samples 0, 10, 20 are class 0; sample 5 is class 5.
        let same = dist(&d.images()[0], &d.images()[10]);
        let diff = dist(&d.images()[0], &d.images()[5]);
        assert!(same < diff, "same-class {same} vs cross-class {diff}");
    }

    #[test]
    fn take_subsets() {
        let d = SyntheticDataset::generate(30, 3);
        let s = d.take(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.images()[3], d.images()[3]);
    }

    #[test]
    fn split_is_disjoint_and_exhaustive() {
        let d = SyntheticDataset::generate(30, 3);
        let (head, tail) = d.split_at(8);
        assert_eq!(head.len(), 8);
        assert_eq!(tail.len(), 22);
        assert_eq!(head.images(), &d.images()[..8]);
        assert_eq!(tail.images(), &d.images()[8..]);
        // No sample appears on both sides.
        for h in head.images() {
            assert!(!tail.images().contains(h));
        }
    }
}
