//! CART decision tree with Gini impurity, the building block of the forest.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Tree hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (the paper tunes the forest to depth 10).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features considered per split: `None` = all (plain CART),
    /// `Some(k)` = random subset of k (random-forest style).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 10, min_samples_split: 2, max_features: None }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { class: usize },
    Split { feat: usize, thresh: f64, left: usize, right: usize },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Total Gini impurity decrease attributed to each feature
    /// (unnormalized; the forest aggregates and normalizes).
    pub importances: Vec<f64>,
    params: TreeParams,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap_or(0)
}

impl DecisionTree {
    /// Fit a tree on `(x, y)` with `n_classes` classes. `rng` drives the
    /// per-split feature subsampling when `max_features` is set.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        params: TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "cannot fit an empty dataset");
        let n_features = x[0].len();
        let mut tree = Self { nodes: Vec::new(), importances: vec![0.0; n_features], params };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, n_classes, &idx, 0, rng);
        tree
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        idx: &[usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let mut counts = vec![0usize; n_classes];
        for &i in idx {
            counts[y[i]] += 1;
        }
        let node_gini = gini(&counts, idx.len());
        let make_leaf = depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || node_gini == 0.0;
        if make_leaf {
            self.nodes.push(Node::Leaf { class: majority(&counts) });
            return self.nodes.len() - 1;
        }

        let n_features = x[0].len();
        let mut feats: Vec<usize> = (0..n_features).collect();
        if let Some(k) = self.params.max_features {
            feats.shuffle(rng);
            feats.truncate(k.clamp(1, n_features));
        }

        // Best split across candidate features: sort rows by the feature,
        // sweep thresholds between distinct values.
        let mut best: Option<(usize, f64, f64)> = None; // (feat, thresh, weighted gini)
        let mut order: Vec<usize> = idx.to_vec();
        for &f in &feats {
            order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut left = vec![0usize; n_classes];
            let mut right = counts.clone();
            for split in 1..order.len() {
                let prev = order[split - 1];
                left[y[prev]] += 1;
                right[y[prev]] -= 1;
                let (va, vb) = (x[prev][f], x[order[split]][f]);
                if va == vb {
                    continue;
                }
                let g = (split as f64 * gini(&left, split)
                    + (order.len() - split) as f64 * gini(&right, order.len() - split))
                    / order.len() as f64;
                if best.is_none_or(|(_, _, bg)| g < bg) {
                    best = Some((f, (va + vb) / 2.0, g));
                }
            }
        }

        let Some((feat, thresh, g)) = best else {
            self.nodes.push(Node::Leaf { class: majority(&counts) });
            return self.nodes.len() - 1;
        };
        // Importance: impurity decrease weighted by node size.
        self.importances[feat] += idx.len() as f64 * (node_gini - g);

        let (li, ri): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][feat] <= thresh);
        debug_assert!(!li.is_empty() && !ri.is_empty());
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { class: 0 }); // placeholder
        let left = self.grow(x, y, n_classes, &li, depth + 1, rng);
        let right = self.grow(x, y, n_classes, &ri, depth + 1, rng);
        self.nodes[slot] = Node::Split { feat, thresh, left, right };
        slot
    }

    /// Predict the class of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut n = 0usize;
        loop {
            match &self.nodes[n] {
                Node::Leaf { class } => return *class,
                Node::Split { feat, thresh, left, right } => {
                    n = if row[*feat] <= *thresh { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (for inspection/tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn learns_a_threshold() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 25)).collect();
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), &mut rng());
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[30.0]), 1);
        assert_eq!(t.predict(&[24.0]), 0);
        assert_eq!(t.predict(&[25.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..10 {
                    x.push(vec![a as f64, b as f64]);
                    y.push(a ^ b);
                }
            }
        }
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), &mut rng());
        assert_eq!(t.predict(&[0.0, 0.0]), 0);
        assert_eq!(t.predict(&[1.0, 0.0]), 1);
        assert_eq!(t.predict(&[0.0, 1.0]), 1);
        assert_eq!(t.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    fn depth_limit_respected() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..64).map(|i| i % 2).collect(); // needs deep tree
        let t = DecisionTree::fit(
            &x,
            &y,
            2,
            TreeParams { max_depth: 2, ..Default::default() },
            &mut rng(),
        );
        // Depth 2 -> at most 7 nodes.
        assert!(t.node_count() <= 7);
    }

    #[test]
    fn importance_assigned_to_informative_feature() {
        // Feature 1 is pure noise, feature 0 decides.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * 7919 % 13) as f64]).collect();
        let y: Vec<usize> = (0..50).map(|i| usize::from(i >= 25)).collect();
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), &mut rng());
        assert!(t.importances[0] > t.importances[1]);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::fit(&x, &y, 2, TreeParams::default(), &mut rng());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[9.0]), 1);
    }
}
