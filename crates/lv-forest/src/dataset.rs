//! Tabular dataset container and cross-validation splits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled tabular dataset (dense f64 features, integer class labels).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature names (column order).
    pub feature_names: Vec<String>,
    /// Row-major feature matrix: `rows x feature_names.len()`.
    pub features: Vec<Vec<f64>>,
    /// Class label per row.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Build a dataset, validating dimensions.
    pub fn new(feature_names: Vec<String>, features: Vec<Vec<f64>>, labels: Vec<usize>) -> Self {
        assert_eq!(features.len(), labels.len(), "row count mismatch");
        let d = feature_names.len();
        assert!(features.iter().all(|r| r.len() == d), "ragged feature rows");
        let n_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        Self { feature_names, features, labels, n_classes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Row view by indices (borrowing subset).
    pub fn subset(&self, idx: &[usize]) -> (Vec<Vec<f64>>, Vec<usize>) {
        (
            idx.iter().map(|&i| self.features[i].clone()).collect(),
            idx.iter().map(|&i| self.labels[i]).collect(),
        )
    }
}

/// Stratified k-fold split with shuffling (the paper uses 5-fold CV with
/// shuffling). Returns `(train_indices, test_indices)` per fold; every row
/// appears in exactly one test fold, and class proportions are preserved
/// per fold as closely as integer counts allow.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least 2 folds");
    let n_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class[l].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for class_rows in per_class.iter_mut() {
        class_rows.shuffle(&mut rng);
        for (j, &row) in class_rows.iter().enumerate() {
            folds[j % k].push(row);
        }
    }
    (0..k)
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> =
                (0..k).filter(|&g| g != f).flat_map(|g| folds[g].iter().copied()).collect();
            (train, test)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kfold_partitions_all_rows() {
        let labels: Vec<usize> = (0..97).map(|i| i % 3).collect();
        let folds = stratified_kfold(&labels, 5, 42);
        assert_eq!(folds.len(), 5);
        let mut seen = vec![false; labels.len()];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), labels.len());
            for &t in test {
                assert!(!seen[t], "row {t} in two test folds");
                seen[t] = true;
            }
            // No overlap between train and test.
            for &t in test {
                assert!(!train.contains(&t));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kfold_stratifies() {
        // 80 of class 0, 20 of class 1: each 5-fold test set should hold
        // exactly 16 + 4.
        let labels: Vec<usize> = (0..100).map(|i| usize::from(i >= 80)).collect();
        for (_, test) in stratified_kfold(&labels, 5, 7) {
            let ones = test.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(test.len(), 20);
            assert_eq!(ones, 4);
        }
    }

    #[test]
    fn dataset_validates() {
        let d = Dataset::new(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            vec![0, 1],
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_classes, 2);
    }
}
