//! Random forest: bootstrap-aggregated CART trees with per-split feature
//! subsampling and majority voting, mirroring the scikit-learn
//! `RandomForestClassifier` configuration the paper tuned (depth 10,
//! bootstrapping).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{stratified_kfold, Dataset};
use crate::tree::{DecisionTree, TreeParams};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth (paper: 10).
    pub max_depth: usize,
    /// Bootstrap sampling (paper: enabled).
    pub bootstrap: bool,
    /// Features considered per split; `None` = round(sqrt(d)).
    pub mtry: Option<usize>,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self { n_trees: 100, max_depth: 10, bootstrap: true, mtry: None, seed: 42 }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
    params: ForestParams,
}

impl RandomForest {
    /// Fit on a dataset.
    pub fn fit(ds: &Dataset, params: ForestParams) -> Self {
        Self::fit_rows(&ds.features, &ds.labels, ds.n_classes, params)
    }

    /// Fit on raw rows.
    pub fn fit_rows(x: &[Vec<f64>], y: &[usize], n_classes: usize, params: ForestParams) -> Self {
        assert!(!x.is_empty());
        let n_features = x[0].len();
        let mtry = params.mtry.unwrap_or((n_features as f64).sqrt().round().max(1.0) as usize);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_split: 2,
            max_features: Some(mtry),
        };
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trees = (0..params.n_trees)
            .map(|_| {
                let (bx, by): (Vec<Vec<f64>>, Vec<usize>) = if params.bootstrap {
                    (0..x.len())
                        .map(|_| {
                            let i = rng.gen_range(0..x.len());
                            (x[i].clone(), y[i])
                        })
                        .unzip()
                } else {
                    (x.to_vec(), y.to_vec())
                };
                DecisionTree::fit(&bx, &by, n_classes, tree_params, &mut rng)
            })
            .collect();
        Self { trees, n_classes, n_features, params }
    }

    /// Majority-vote prediction for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(row)] += 1;
        }
        votes.iter().enumerate().max_by_key(|(_, &v)| v).map(|(i, _)| i).unwrap_or(0)
    }

    /// Per-class vote fractions for one row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.n_classes];
        for t in &self.trees {
            votes[t.predict(row)] += 1.0;
        }
        let n = self.trees.len() as f64;
        votes.iter_mut().for_each(|v| *v /= n);
        votes
    }

    /// Majority-vote predictions for many rows. Serving-style callers
    /// train once and classify every (layer, hardware-config) point in one
    /// pass instead of re-fitting per query.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// The hyperparameters this forest was fitted with.
    pub fn params(&self) -> ForestParams {
        self.params
    }

    /// Accuracy on labeled rows.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[usize]) -> f64 {
        let correct = x.iter().zip(y).filter(|(r, &l)| self.predict(r) == l).count();
        correct as f64 / y.len() as f64
    }

    /// Mean-decrease-in-impurity feature importances, normalized to sum 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for t in &self.trees {
            for (a, &i) in acc.iter_mut().zip(&t.importances) {
                *a += i;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            acc.iter_mut().for_each(|a| *a /= total);
        }
        acc
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Result of a k-fold cross-validation.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// Per-fold accuracy.
    pub fold_accuracy: Vec<f64>,
    /// Mean accuracy (the paper reports 92.8%).
    pub mean_accuracy: f64,
    /// Row-level predictions across all test folds: `(row, predicted)`.
    pub predictions: Vec<(usize, usize)>,
}

/// Stratified k-fold cross-validation of a forest on a dataset
/// (the paper: 5-fold with shuffling).
pub fn cross_validate(ds: &Dataset, params: ForestParams, k: usize) -> CvReport {
    let folds = stratified_kfold(&ds.labels, k, params.seed);
    let mut fold_accuracy = Vec::with_capacity(k);
    let mut predictions = Vec::with_capacity(ds.len());
    for (train, test) in folds {
        let (tx, ty) = ds.subset(&train);
        let forest = RandomForest::fit_rows(&tx, &ty, ds.n_classes, params);
        let mut correct = 0usize;
        for &i in &test {
            let p = forest.predict(&ds.features[i]);
            predictions.push((i, p));
            if p == ds.labels[i] {
                correct += 1;
            }
        }
        fold_accuracy.push(correct as f64 / test.len() as f64);
    }
    let mean_accuracy = fold_accuracy.iter().sum::<f64>() / fold_accuracy.len() as f64;
    CvReport { fold_accuracy, mean_accuracy, predictions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_dataset(n: usize) -> Dataset {
        // Three well-separated 2-D blobs with deterministic jitter.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let (cx, cy) = [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)][c];
            let jx = ((i * 2654435761) % 100) as f64 / 50.0 - 1.0;
            let jy = ((i * 40503) % 100) as f64 / 50.0 - 1.0;
            features.push(vec![cx + jx, cy + jy]);
            labels.push(c);
        }
        Dataset::new(vec!["x".into(), "y".into()], features, labels)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let ds = blob_dataset(120);
        let f = RandomForest::fit(&ds, ForestParams { n_trees: 20, ..Default::default() });
        assert!(f.accuracy(&ds.features, &ds.labels) > 0.99);
        assert_eq!(f.predict(&[0.2, -0.3]), 0);
        assert_eq!(f.predict(&[10.4, 0.5]), 1);
        assert_eq!(f.predict(&[5.0, 9.5]), 2);
    }

    #[test]
    fn cross_validation_high_on_separable_data() {
        let ds = blob_dataset(150);
        let rep = cross_validate(&ds, ForestParams { n_trees: 15, ..Default::default() }, 5);
        assert_eq!(rep.fold_accuracy.len(), 5);
        assert!(rep.mean_accuracy > 0.95, "mean acc {}", rep.mean_accuracy);
        assert_eq!(rep.predictions.len(), ds.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blob_dataset(90);
        let p = ForestParams { n_trees: 10, seed: 7, ..Default::default() };
        let a = RandomForest::fit(&ds, p);
        let b = RandomForest::fit(&ds, p);
        for row in &ds.features {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn importances_normalized() {
        let ds = blob_dataset(90);
        let f = RandomForest::fit(&ds, ForestParams { n_trees: 10, ..Default::default() });
        let imp = f.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_prediction_matches_single() {
        let ds = blob_dataset(90);
        let p = ForestParams { n_trees: 10, seed: 3, ..Default::default() };
        let f = RandomForest::fit(&ds, p);
        let batch = f.predict_batch(&ds.features);
        for (row, &b) in ds.features.iter().zip(&batch) {
            assert_eq!(f.predict(row), b);
        }
        assert_eq!(f.params().n_trees, 10);
        assert_eq!(f.params().seed, 3);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = blob_dataset(90);
        let f = RandomForest::fit(&ds, ForestParams { n_trees: 10, ..Default::default() });
        let p = f.predict_proba(&[5.0, 5.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
