//! Seeded Gaussian-mixture generator for embedding-like pools.

use firal_linalg::{Matrix, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Dataset;

/// Sample a standard normal via Box–Muller (keeps the dependency surface at
/// `rand` alone — no `rand_distr`).
pub(crate) fn normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Configuration for a synthetic embedding-style dataset.
///
/// Defaults produce well-separated clusters, i.e. the "excellent feature
/// embeddings" regime in which the paper states FIRAL performs best (§V).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of classes `c`.
    pub classes: usize,
    /// Feature dimension `d`.
    pub dim: usize,
    /// Unlabeled pool size `n`.
    pub pool_size: usize,
    /// Initial labeled points per class (`|Xo| = classes × this`).
    pub initial_per_class: usize,
    /// Evaluation points (balanced across classes).
    pub eval_size: usize,
    /// Distance scale between class means (in units of within-class σ).
    pub separation: f64,
    /// Base within-class standard deviation.
    pub within_scale: f64,
    /// Anisotropy: per-axis σ varies log-uniformly in
    /// `[within_scale/anisotropy, within_scale·anisotropy]`.
    pub anisotropy: f64,
    /// Max class-size ratio in the pool (1 = balanced; the paper uses 10
    /// for imb-CIFAR-10/Caltech-101 and 8 for imb-ImageNet-50).
    pub imbalance_ratio: f64,
    /// Sub-clusters per class. Real self-supervised embeddings are
    /// multi-modal (a "dog" class has breeds/poses as separate lobes);
    /// `> 1` makes the pool geometry non-trivial for centroid methods.
    pub modes_per_class: usize,
    /// Spread of sub-cluster centres around the class mean, as a fraction
    /// of `separation`.
    pub mode_spread: f64,
    /// Confusable-pair geometry: when `> 0`, classes come in pairs sharing
    /// an anchor direction, with the two members only `pair_gap ×
    /// separation` apart (cats-vs-dogs fine distinctions). Density cores
    /// then straddle class boundaries, which is where representative
    /// (centroid) selection under-performs information-driven selection —
    /// the geometry self-supervised embeddings actually exhibit.
    pub pair_gap: f64,
    /// Per-class within-scale multiplier drawn log-uniformly in
    /// `[1/scale_spread, scale_spread]` (1 = all classes equally tight).
    pub scale_spread: f64,
    /// L2-normalize every generated point (SimCLR-style contrastive and
    /// spectral embeddings live on or near the unit sphere; this removes
    /// point-norm outliers, which otherwise dominate Fisher information
    /// through the `x xᵀ` factor).
    pub normalize: bool,
    /// RNG seed (everything is reproducible given the seed).
    pub seed: u64,
}

impl SyntheticConfig {
    /// Start a config with the mandatory shape parameters.
    pub fn new(classes: usize, dim: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(dim >= 1, "need at least one dimension");
        Self {
            classes,
            dim,
            pool_size: 100 * classes,
            initial_per_class: 1,
            eval_size: 50 * classes,
            separation: 4.0,
            within_scale: 1.0,
            anisotropy: 2.0,
            imbalance_ratio: 1.0,
            modes_per_class: 1,
            mode_spread: 0.5,
            pair_gap: 0.0,
            scale_spread: 1.0,
            normalize: false,
            seed: 0,
        }
    }

    /// Set the pool size `n`.
    pub fn with_pool_size(mut self, n: usize) -> Self {
        self.pool_size = n;
        self
    }

    /// Set initial labeled points per class.
    pub fn with_initial_per_class(mut self, m: usize) -> Self {
        self.initial_per_class = m;
        self
    }

    /// Set the evaluation-set size.
    pub fn with_eval_size(mut self, n: usize) -> Self {
        self.eval_size = n;
        self
    }

    /// Set the class-mean separation (higher = easier problem).
    pub fn with_separation(mut self, s: f64) -> Self {
        self.separation = s;
        self
    }

    /// Set the max class-size ratio (>1 gives an imbalanced pool).
    pub fn with_imbalance(mut self, r: f64) -> Self {
        assert!(r >= 1.0, "imbalance ratio must be ≥ 1");
        self.imbalance_ratio = r;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of sub-clusters per class (embedding multi-modality).
    pub fn with_modes(mut self, modes: usize) -> Self {
        assert!(modes >= 1, "need at least one mode per class");
        self.modes_per_class = modes;
        self
    }

    /// Enable confusable-pair geometry with the given within-pair gap
    /// (as a fraction of `separation`).
    pub fn with_pair_gap(mut self, gap: f64) -> Self {
        assert!(gap >= 0.0);
        self.pair_gap = gap;
        self
    }

    /// Set the per-class scale spread (≥ 1).
    pub fn with_scale_spread(mut self, spread: f64) -> Self {
        assert!(spread >= 1.0);
        self.scale_spread = spread;
        self
    }

    /// Set the base within-class standard deviation.
    pub fn with_within_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.within_scale = scale;
        self
    }

    /// Set the per-axis anisotropy factor (≥ 1).
    pub fn with_anisotropy(mut self, a: f64) -> Self {
        assert!(a >= 1.0);
        self.anisotropy = a;
        self
    }

    /// Enable L2 normalization of every generated point.
    pub fn with_normalize(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Per-class pool proportions: geometric profile whose extremes have
    /// ratio `imbalance_ratio` (matching the paper's "maximum ratio of
    /// points between two classes" description).
    pub fn class_proportions(&self) -> Vec<f64> {
        let c = self.classes;
        if self.imbalance_ratio <= 1.0 + 1e-12 || c == 1 {
            return vec![1.0 / c as f64; c];
        }
        let r = self.imbalance_ratio;
        let weights: Vec<f64> = (0..c)
            .map(|k| r.powf(-(k as f64) / (c as f64 - 1.0)))
            .collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Materialize the dataset.
    pub fn generate<T: Scalar>(&self) -> Dataset<T> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let c = self.classes;
        let d = self.dim;

        // Class means: random Gaussian directions normalized to `separation`.
        // In moderate-to-high dimension these are nearly orthogonal, which
        // mimics the geometry of self-supervised embeddings. With
        // confusable pairs enabled, classes 2j and 2j+1 share an anchor and
        // sit only `pair_gap · separation` apart.
        let mut means = Matrix::<T>::zeros(c, d);
        let unit = |rng: &mut StdRng| -> Vec<f64> {
            let raw: Vec<f64> = (0..d).map(|_| normal(rng)).collect();
            let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
            raw.into_iter().map(|v| v / norm).collect()
        };
        if self.pair_gap > 0.0 {
            let napairs = c.div_ceil(2);
            for a in 0..napairs {
                let anchor = unit(&mut rng);
                let split = unit(&mut rng);
                for member in 0..2 {
                    let k = 2 * a + member;
                    if k >= c {
                        break;
                    }
                    let sign = if member == 0 { 1.0 } else { -1.0 };
                    let row = means.row_mut(k);
                    for j in 0..d {
                        row[j] = T::from_f64(
                            anchor[j] * self.separation
                                + sign * split[j] * self.pair_gap * self.separation * 0.5,
                        );
                    }
                }
            }
        } else {
            for k in 0..c {
                let u = unit(&mut rng);
                let row = means.row_mut(k);
                for (j, v) in u.iter().enumerate() {
                    row[j] = T::from_f64(v * self.separation);
                }
            }
        }

        // Per-class anisotropic axis scales (diagonal covariance in a
        // class-specific random frame is overkill; axis-aligned anisotropy
        // already exercises the preconditioner's job).
        let mut sigmas = Matrix::<f64>::zeros(c, d);
        for k in 0..c {
            // Per-class global tightness (log-uniform in the spread range).
            let e: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let class_scale = self.within_scale * self.scale_spread.powf(e);
            for j in 0..d {
                let u: f64 = rng.gen::<f64>() * 2.0 - 1.0; // log-uniform exponent
                sigmas[(k, j)] = class_scale * self.anisotropy.powf(u);
            }
        }

        // Sub-cluster centres: each class is a mixture of `modes_per_class`
        // lobes offset from the class mean. Mode 0 sits at the mean so the
        // single-mode case reduces to a plain Gaussian class.
        let nmodes = self.modes_per_class.max(1);
        let mode_scale = self.separation * self.mode_spread;
        let mut mode_offsets = Matrix::<f64>::zeros(c * nmodes, d);
        for k in 0..c {
            for m in 1..nmodes {
                let raw: Vec<f64> = (0..d).map(|_| normal(&mut rng)).collect();
                let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
                let row = mode_offsets.row_mut(k * nmodes + m);
                for (j, v) in raw.iter().enumerate() {
                    row[j] = v / norm * mode_scale;
                }
            }
        }

        let normalize = self.normalize;
        let sample_point = |k: usize, rng: &mut StdRng, out: &mut [T]| {
            let m = if nmodes > 1 {
                rng.gen_range(0..nmodes)
            } else {
                0
            };
            let offset_row = k * nmodes + m;
            for j in 0..d {
                let z = normal(rng);
                out[j] =
                    means[(k, j)] + T::from_f64(mode_offsets[(offset_row, j)] + z * sigmas[(k, j)]);
            }
            if normalize {
                // Normalize to ‖x‖ = √d (unit-sphere direction, per-
                // coordinate variance ≈ 1) so logits keep a usable scale
                // against the default L2 penalty.
                let norm = out
                    .iter()
                    .map(|v| v.to_f64() * v.to_f64())
                    .sum::<f64>()
                    .sqrt()
                    .max(1e-12);
                let target = (d as f64).sqrt();
                for v in out.iter_mut() {
                    *v = T::from_f64(v.to_f64() / norm * target);
                }
            }
        };

        // Initial labeled set: `initial_per_class` per class, in class order
        // (the paper picks 1–2 random samples per class).
        let n_init = c * self.initial_per_class;
        let mut initial_features = Matrix::zeros(n_init, d);
        let mut initial_labels = Vec::with_capacity(n_init);
        for k in 0..c {
            for m in 0..self.initial_per_class {
                let row = k * self.initial_per_class + m;
                sample_point(k, &mut rng, initial_features.row_mut(row));
                initial_labels.push(k);
            }
        }

        // Pool: class sizes follow the (possibly imbalanced) proportions.
        let props = self.class_proportions();
        let mut class_sizes: Vec<usize> = props
            .iter()
            .map(|p| (p * self.pool_size as f64).floor() as usize)
            .collect();
        let mut assigned: usize = class_sizes.iter().sum();
        let mut k = 0;
        while assigned < self.pool_size {
            class_sizes[k % c] += 1;
            assigned += 1;
            k += 1;
        }

        let mut pool_features = Matrix::zeros(self.pool_size, d);
        let mut pool_labels = Vec::with_capacity(self.pool_size);
        {
            let mut row = 0usize;
            for (k, &sz) in class_sizes.iter().enumerate() {
                for _ in 0..sz {
                    sample_point(k, &mut rng, pool_features.row_mut(row));
                    pool_labels.push(k);
                    row += 1;
                }
            }
        }
        // Shuffle pool rows so class blocks are not contiguous.
        for i in (1..self.pool_size).rev() {
            let j = rng.gen_range(0..=i);
            if i != j {
                pool_labels.swap(i, j);
                for col in 0..d {
                    let tmp = pool_features[(i, col)];
                    pool_features[(i, col)] = pool_features[(j, col)];
                    pool_features[(j, col)] = tmp;
                }
            }
        }

        // Evaluation set: balanced (the paper evaluates on the full
        // training distribution).
        let eval_n = self.eval_size;
        let mut eval_features = Matrix::zeros(eval_n, d);
        let mut eval_labels = Vec::with_capacity(eval_n);
        for i in 0..eval_n {
            let k = i % c;
            sample_point(k, &mut rng, eval_features.row_mut(i));
            eval_labels.push(k);
        }

        Dataset {
            num_classes: c,
            initial_features,
            initial_labels,
            pool_features,
            pool_labels,
            eval_features,
            eval_labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_config() {
        let ds = SyntheticConfig::new(4, 6)
            .with_pool_size(100)
            .with_initial_per_class(2)
            .with_eval_size(40)
            .with_seed(3)
            .generate::<f64>();
        assert_eq!(ds.num_classes, 4);
        assert_eq!(ds.dim(), 6);
        assert_eq!(ds.pool_size(), 100);
        assert_eq!(ds.initial_features.rows(), 8);
        assert_eq!(ds.eval_features.rows(), 40);
        assert_eq!(ds.pool_labels.len(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticConfig::new(3, 5).with_seed(7).generate::<f64>();
        let b = SyntheticConfig::new(3, 5).with_seed(7).generate::<f64>();
        assert_eq!(a.pool_features, b.pool_features);
        assert_eq!(a.pool_labels, b.pool_labels);
        let c = SyntheticConfig::new(3, 5).with_seed(8).generate::<f64>();
        assert_ne!(a.pool_features, c.pool_features);
    }

    #[test]
    fn balanced_pool_is_balanced() {
        let ds = SyntheticConfig::new(5, 4)
            .with_pool_size(500)
            .with_seed(1)
            .generate::<f64>();
        let counts = ds.pool_class_counts();
        for &cnt in &counts {
            assert_eq!(cnt, 100);
        }
    }

    #[test]
    fn imbalance_ratio_is_respected() {
        let ds = SyntheticConfig::new(10, 4)
            .with_pool_size(3000)
            .with_imbalance(10.0)
            .with_seed(2)
            .generate::<f64>();
        let counts = ds.pool_class_counts();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        let ratio = max / min;
        assert!(
            (ratio - 10.0).abs() < 1.5,
            "expected ≈10x imbalance, got {ratio} ({counts:?})"
        );
    }

    #[test]
    fn separation_controls_difficulty() {
        // With huge separation, nearest-class-mean classification of pool
        // points should be nearly perfect.
        let ds = SyntheticConfig::new(3, 10)
            .with_pool_size(300)
            .with_separation(20.0)
            .with_seed(4)
            .generate::<f64>();
        // Recover per-class means from ground truth.
        let d = ds.dim();
        let mut means = vec![vec![0.0f64; d]; 3];
        let counts = ds.pool_class_counts();
        for i in 0..ds.pool_size() {
            let k = ds.pool_labels[i];
            for j in 0..d {
                means[k][j] += ds.pool_features[(i, j)] / counts[k] as f64;
            }
        }
        let mut correct = 0;
        for i in 0..ds.pool_size() {
            let mut best = (f64::INFINITY, 0usize);
            for (k, mk) in means.iter().enumerate() {
                let dist: f64 = (0..d)
                    .map(|j| (ds.pool_features[(i, j)] - mk[j]).powi(2))
                    .sum();
                if dist < best.0 {
                    best = (dist, k);
                }
            }
            if best.1 == ds.pool_labels[i] {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / ds.pool_size() as f64 > 0.99,
            "well-separated pool should be trivially classifiable"
        );
    }

    #[test]
    fn proportions_sum_to_one() {
        let cfg = SyntheticConfig::new(7, 3).with_imbalance(8.0);
        let p = cfg.class_proportions();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((p[0] / p[6] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
