//! Table V presets: the seven active-learning experiment configurations.
//!
//! Each preset mirrors one row of the paper's Table V — classes, dimension,
//! `|Xo|`, `|Xu|`, number of rounds, budget per round — with the real
//! dataset replaced by a synthetic embedding of matching shape (see the
//! crate-level substitution note). Separation values are tuned so the
//! logistic-regression accuracy bands land in the ranges the paper reports
//! (e.g. MNIST ≈ 65→97%, ImageNet-1k ≈ 40→50%).
//!
//! `scale(f)` shrinks pool/eval sizes for quick runs while preserving the
//! class/dimension shape; `paper` presets keep Table V sizes verbatim.

use crate::synthetic::SyntheticConfig;

/// Identifier for each Table V row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PresetName {
    Mnist,
    Cifar10,
    ImbCifar10,
    ImageNet50,
    ImbImageNet50,
    Caltech101,
    ImageNet1k,
}

impl PresetName {
    /// All seven presets in Table V order.
    pub fn all() -> [PresetName; 7] {
        [
            PresetName::Mnist,
            PresetName::Cifar10,
            PresetName::ImbCifar10,
            PresetName::ImageNet50,
            PresetName::ImbImageNet50,
            PresetName::Caltech101,
            PresetName::ImageNet1k,
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            PresetName::Mnist => "MNIST",
            PresetName::Cifar10 => "CIFAR-10",
            PresetName::ImbCifar10 => "imb-CIFAR-10",
            PresetName::ImageNet50 => "ImageNet-50",
            PresetName::ImbImageNet50 => "imb-ImageNet-50",
            PresetName::Caltech101 => "Caltech-101",
            PresetName::ImageNet1k => "ImageNet-1k",
        }
    }
}

/// A full experiment description: dataset generator + active-learning loop
/// shape (Table V's "# rounds" and "budget/round" columns).
#[derive(Debug, Clone)]
pub struct ExperimentPreset {
    /// Which Table V row this is.
    pub name: PresetName,
    /// Dataset generator configuration.
    pub config: SyntheticConfig,
    /// Number of active-learning rounds.
    pub rounds: usize,
    /// Points selected per round (`b`).
    pub budget_per_round: usize,
}

impl ExperimentPreset {
    /// Build the preset for a Table V row at paper-reported sizes.
    pub fn paper(name: PresetName) -> Self {
        match name {
            // MNIST: balanced, c=10, d=20, |Xo|=10, |Xu|=3000, 3 rounds × 10.
            PresetName::Mnist => Self {
                name,
                config: SyntheticConfig::new(10, 20)
                    .with_pool_size(3000)
                    .with_initial_per_class(1)
                    .with_eval_size(60_000)
                    .with_separation(5.0)
                    .with_modes(2)
                    .with_pair_gap(0.7)
                    .with_scale_spread(1.4)
                    .with_within_scale(0.7)
                    .with_normalize(true),
                rounds: 3,
                budget_per_round: 10,
            },
            // CIFAR-10: balanced, c=10, d=20, |Xo|=10, |Xu|=3000, 3 × 10.
            PresetName::Cifar10 => Self {
                name,
                config: SyntheticConfig::new(10, 20)
                    .with_pool_size(3000)
                    .with_initial_per_class(1)
                    .with_eval_size(50_000)
                    .with_separation(3.6)
                    .with_modes(3)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.6)
                    .with_within_scale(0.8)
                    .with_anisotropy(1.8)
                    .with_normalize(true),
                rounds: 3,
                budget_per_round: 10,
            },
            // imb-CIFAR-10: same, max class ratio 10.
            PresetName::ImbCifar10 => Self {
                name,
                config: SyntheticConfig::new(10, 20)
                    .with_pool_size(3000)
                    .with_initial_per_class(1)
                    .with_eval_size(50_000)
                    .with_separation(3.6)
                    .with_modes(3)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.6)
                    .with_within_scale(0.8)
                    .with_anisotropy(1.8)
                    .with_normalize(true)
                    .with_imbalance(10.0),
                rounds: 3,
                budget_per_round: 10,
            },
            // ImageNet-50: balanced, c=50, d=50, |Xo|=50, |Xu|=5000, 6 × 50.
            PresetName::ImageNet50 => Self {
                name,
                config: SyntheticConfig::new(50, 50)
                    .with_pool_size(5000)
                    .with_initial_per_class(1)
                    .with_eval_size(64_273)
                    .with_separation(4.2)
                    .with_modes(3)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.6)
                    .with_within_scale(0.8)
                    .with_anisotropy(1.8)
                    .with_normalize(true),
                rounds: 6,
                budget_per_round: 50,
            },
            // imb-ImageNet-50: max class ratio 8.
            PresetName::ImbImageNet50 => Self {
                name,
                config: SyntheticConfig::new(50, 50)
                    .with_pool_size(5000)
                    .with_initial_per_class(1)
                    .with_eval_size(64_273)
                    .with_separation(4.2)
                    .with_modes(3)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.6)
                    .with_within_scale(0.8)
                    .with_anisotropy(1.8)
                    .with_normalize(true)
                    .with_imbalance(8.0),
                rounds: 6,
                budget_per_round: 50,
            },
            // Caltech-101: imbalanced (ratio 10), c=101, d=100,
            // |Xo|=101, |Xu|=1715, 6 × 101.
            PresetName::Caltech101 => Self {
                name,
                config: SyntheticConfig::new(101, 100)
                    .with_pool_size(1715)
                    .with_initial_per_class(1)
                    .with_eval_size(8677)
                    .with_separation(4.5)
                    .with_modes(2)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.6)
                    .with_within_scale(0.8)
                    .with_normalize(true)
                    .with_imbalance(10.0),
                rounds: 6,
                budget_per_round: 101,
            },
            // ImageNet-1k: balanced, c=1000, d=383, |Xo|=2000 (2/class),
            // |Xu|=50000, 5 × 200.
            PresetName::ImageNet1k => Self {
                name,
                config: SyntheticConfig::new(1000, 383)
                    .with_pool_size(50_000)
                    .with_initial_per_class(2)
                    .with_eval_size(1_281_167)
                    .with_separation(2.4)
                    .with_modes(2)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.4)
                    .with_within_scale(0.8)
                    .with_normalize(true),
                rounds: 5,
                budget_per_round: 200,
            },
        }
    }

    /// Host-scaled preset: shrinks pool/eval (and for ImageNet-1k, the
    /// class count and dimension) so the full Fig. 2/3 sweeps run on a
    /// 2-core host in minutes. Class/dimension shape and imbalance profile
    /// are preserved for all but the 1k-class row, whose reduction is
    /// documented in ARCHITECTURE.md § Experiments.
    pub fn host_scaled(name: PresetName) -> Self {
        let mut p = Self::paper(name);
        match name {
            PresetName::Mnist | PresetName::Cifar10 | PresetName::ImbCifar10 => {
                p.config = p.config.with_pool_size(1500).with_eval_size(3000);
            }
            PresetName::ImageNet50 | PresetName::ImbImageNet50 => {
                p.config = p.config.with_pool_size(2500).with_eval_size(3000);
            }
            PresetName::Caltech101 => {
                p.config = p.config.with_pool_size(1715).with_eval_size(2020);
            }
            PresetName::ImageNet1k => {
                // c=1000,d=383,n=50k is out of reach for a 2-core CPU in a
                // figure sweep; keep the "many classes, wide features, hard
                // problem" character at c=100, d=96.
                p.config = SyntheticConfig::new(100, 96)
                    .with_pool_size(5000)
                    .with_initial_per_class(2)
                    .with_eval_size(5000)
                    .with_separation(2.4)
                    .with_modes(2)
                    .with_pair_gap(0.6)
                    .with_scale_spread(1.4)
                    .with_within_scale(0.8)
                    .with_normalize(true);
                p.budget_per_round = 100;
                p.rounds = 5;
            }
        }
        p
    }

    /// Shrink pool and eval sizes by an integer factor (≥1), keeping the
    /// class/dimension shape. Used for smoke tests.
    pub fn scale_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        let f = factor.max(1);
        self.config.pool_size = (self.config.pool_size / f).max(self.config.classes * 4);
        self.config.eval_size = (self.config.eval_size / f).max(self.config.classes * 2);
        self
    }

    /// Generate the dataset for this preset with the given seed.
    pub fn generate<T: firal_linalg::Scalar>(&self, seed: u64) -> crate::Dataset<T> {
        let mut cfg = self.config.clone();
        cfg.seed = seed;
        cfg.generate()
    }

    /// Total number of labels bought over the full run (the x-axis extent
    /// of the paper's accuracy plots).
    pub fn total_budget(&self) -> usize {
        self.rounds * self.budget_per_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table_v() {
        let p = ExperimentPreset::paper(PresetName::Mnist);
        assert_eq!(p.config.classes, 10);
        assert_eq!(p.config.dim, 20);
        assert_eq!(p.config.pool_size, 3000);
        assert_eq!(p.rounds, 3);
        assert_eq!(p.budget_per_round, 10);

        let p = ExperimentPreset::paper(PresetName::ImageNet50);
        assert_eq!(p.config.classes, 50);
        assert_eq!(p.config.dim, 50);
        assert_eq!(p.config.pool_size, 5000);
        assert_eq!(p.rounds, 6);
        assert_eq!(p.budget_per_round, 50);

        let p = ExperimentPreset::paper(PresetName::Caltech101);
        assert_eq!(p.config.classes, 101);
        assert_eq!(p.config.dim, 100);
        assert_eq!(p.config.pool_size, 1715);
        assert!(p.config.imbalance_ratio > 1.0);

        let p = ExperimentPreset::paper(PresetName::ImageNet1k);
        assert_eq!(p.config.classes, 1000);
        assert_eq!(p.config.dim, 383);
        assert_eq!(p.config.pool_size, 50_000);
        assert_eq!(p.config.initial_per_class, 2);
        assert_eq!(p.total_budget(), 1000);
    }

    #[test]
    fn imbalanced_presets_have_ratios() {
        assert_eq!(
            ExperimentPreset::paper(PresetName::ImbCifar10)
                .config
                .imbalance_ratio,
            10.0
        );
        assert_eq!(
            ExperimentPreset::paper(PresetName::ImbImageNet50)
                .config
                .imbalance_ratio,
            8.0
        );
    }

    #[test]
    fn host_scaled_generates_quickly() {
        let p = ExperimentPreset::host_scaled(PresetName::Cifar10);
        let ds = p.generate::<f32>(42);
        assert_eq!(ds.num_classes, 10);
        assert_eq!(ds.dim(), 20);
        assert!(ds.pool_size() <= 1500);
    }

    #[test]
    fn scale_down_keeps_shape() {
        let p = ExperimentPreset::paper(PresetName::ImageNet50).scale_down(10);
        assert_eq!(p.config.classes, 50);
        assert_eq!(p.config.dim, 50);
        assert_eq!(p.config.pool_size, 500);
    }

    #[test]
    fn all_presets_enumerate() {
        assert_eq!(PresetName::all().len(), 7);
        for name in PresetName::all() {
            assert!(!name.label().is_empty());
        }
    }
}
