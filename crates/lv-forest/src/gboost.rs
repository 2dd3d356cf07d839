//! Gradient-boosted trees — the last of the paper's §4.3 candidate
//! classifiers. One-vs-rest boosting of shallow regression trees on the
//! logistic gradient (a compact LogitBoost-style scheme sufficient for the
//! 448-point selection dataset).

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GboostParams {
    /// Boosting rounds per class.
    pub rounds: usize,
    /// Tree depth.
    pub depth: usize,
    /// Shrinkage (learning rate).
    pub shrinkage: f64,
}

impl Default for GboostParams {
    fn default() -> Self {
        Self { rounds: 60, depth: 3, shrinkage: 0.2 }
    }
}

#[derive(Debug, Clone)]
enum RNode {
    Leaf(f64),
    Split { feat: usize, thresh: f64, left: usize, right: usize },
}

/// A shallow regression tree fit to residuals with squared loss.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RNode>,
}

impl RegTree {
    fn fit(x: &[Vec<f64>], r: &[f64], idx: &[usize], depth: usize) -> Self {
        let mut t = Self { nodes: Vec::new() };
        t.grow(x, r, idx, depth);
        t
    }

    fn grow(&mut self, x: &[Vec<f64>], r: &[f64], idx: &[usize], depth: usize) -> usize {
        let mean = idx.iter().map(|&i| r[i]).sum::<f64>() / idx.len().max(1) as f64;
        if depth == 0 || idx.len() < 4 {
            self.nodes.push(RNode::Leaf(mean));
            return self.nodes.len() - 1;
        }
        // Best squared-error split.
        let d = x[0].len();
        let mut best: Option<(usize, f64, f64)> = None; // feat, thresh, sse
        let mut order = idx.to_vec();
        for f in 0..d {
            order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let total: f64 = order.iter().map(|&i| r[i]).sum();
            let mut lsum = 0.0;
            for split in 1..order.len() {
                lsum += r[order[split - 1]];
                let (va, vb) = (x[order[split - 1]][f], x[order[split]][f]);
                if va == vb {
                    continue;
                }
                let (nl, nr) = (split as f64, (order.len() - split) as f64);
                let rsum = total - lsum;
                // Maximize variance reduction = minimize -(L^2/nl + R^2/nr).
                let score = -(lsum * lsum / nl + rsum * rsum / nr);
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, (va + vb) / 2.0, score));
                }
            }
        }
        let Some((feat, thresh, _)) = best else {
            self.nodes.push(RNode::Leaf(mean));
            return self.nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][feat] <= thresh);
        if li.is_empty() || ri.is_empty() {
            self.nodes.push(RNode::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let slot = self.nodes.len();
        self.nodes.push(RNode::Leaf(0.0));
        let left = self.grow(x, r, &li, depth - 1);
        let right = self.grow(x, r, &ri, depth - 1);
        self.nodes[slot] = RNode::Split { feat, thresh, left, right };
        slot
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let mut n = 0;
        loop {
            match &self.nodes[n] {
                RNode::Leaf(v) => return *v,
                RNode::Split { feat, thresh, left, right } => {
                    n = if row[*feat] <= *thresh { *left } else { *right };
                }
            }
        }
    }
}

/// A trained gradient-boosting classifier (one score ensemble per class).
pub struct Gboost {
    per_class: Vec<Vec<RegTree>>,
    shrinkage: f64,
    base: Vec<f64>,
}

impl Gboost {
    /// Train one-vs-rest boosted trees.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, p: GboostParams) -> Self {
        assert!(!x.is_empty());
        let n = x.len();
        let idx: Vec<usize> = (0..n).collect();
        let mut per_class = Vec::with_capacity(n_classes);
        let mut base = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let targets: Vec<f64> = y.iter().map(|&l| if l == c { 1.0 } else { 0.0 }).collect();
            let prior = targets.iter().sum::<f64>() / n as f64;
            let b0 = ((prior + 1e-6) / (1.0 - prior + 1e-6)).ln();
            let mut score = vec![b0; n];
            let mut trees = Vec::with_capacity(p.rounds);
            for _ in 0..p.rounds {
                // Logistic gradient: residual = target - sigmoid(score).
                let resid: Vec<f64> = score
                    .iter()
                    .zip(&targets)
                    .map(|(&s, &t)| t - 1.0 / (1.0 + (-s).exp()))
                    .collect();
                let tree = RegTree::fit(x, &resid, &idx, p.depth);
                for (i, s) in score.iter_mut().enumerate() {
                    *s += p.shrinkage * tree.predict(&x[i]);
                }
                trees.push(tree);
            }
            per_class.push(trees);
            base.push(b0);
        }
        Self { per_class, shrinkage: p.shrinkage, base }
    }

    /// Predict the highest-scoring class.
    pub fn predict(&self, row: &[f64]) -> usize {
        self.per_class
            .iter()
            .zip(&self.base)
            .map(|(trees, b)| {
                b + self.shrinkage * trees.iter().map(|t| t.predict(row)).sum::<f64>()
            })
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Accuracy on labeled rows.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[usize]) -> f64 {
        let ok = x.iter().zip(y).filter(|(r, &l)| self.predict(r) == l).count();
        ok as f64 / y.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_threshold() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..80).map(|i| usize::from(i >= 50)).collect();
        let g = Gboost::fit(&x, &y, 2, GboostParams::default());
        assert!(g.accuracy(&x, &y) > 0.97);
        assert_eq!(g.predict(&[10.0]), 0);
        assert_eq!(g.predict(&[70.0]), 1);
    }

    #[test]
    fn learns_three_classes() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let c = i % 3;
            x.push(vec![c as f64 * 4.0 + ((i * 13) % 10) as f64 / 10.0, (i % 7) as f64]);
            y.push(c);
        }
        let g = Gboost::fit(&x, &y, 3, GboostParams::default());
        assert!(g.accuracy(&x, &y) > 0.95, "acc {}", g.accuracy(&x, &y));
    }

    #[test]
    fn depth_enables_interactions() {
        // XOR needs depth >= 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..160 {
            let a = (i / 2) % 2;
            let b = i % 2;
            x.push(vec![a as f64 + ((i * 7) % 10) as f64 / 100.0, b as f64]);
            y.push(a ^ b);
        }
        let g = Gboost::fit(&x, &y, 2, GboostParams { depth: 3, ..Default::default() });
        assert!(g.accuracy(&x, &y) > 0.95, "acc {}", g.accuracy(&x, &y));
    }
}
