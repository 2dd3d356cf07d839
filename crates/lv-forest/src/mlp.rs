//! Multilayer perceptron classifier — one of the alternatives the paper
//! evaluated before choosing random forests (§4.3). A single-hidden-layer
//! network with ReLU, softmax cross-entropy and plain mini-batch SGD with
//! momentum; features are z-score normalized internally.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct MlpParams {
    /// Hidden units.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self { hidden: 32, epochs: 200, lr: 0.05, momentum: 0.9, batch: 32, seed: 17 }
    }
}

/// A trained MLP.
pub struct Mlp {
    w1: Vec<f64>, // hidden x d
    b1: Vec<f64>,
    w2: Vec<f64>, // classes x hidden
    b2: Vec<f64>,
    mean: Vec<f64>,
    std: Vec<f64>,
    d: usize,
    h: usize,
    k: usize,
}

impl Mlp {
    /// Train on rows `x` with labels `y` over `n_classes`.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, p: MlpParams) -> Self {
        assert!(!x.is_empty());
        let d = x[0].len();
        let (h, k) = (p.hidden, n_classes);
        let n = x.len() as f64;
        // Normalization.
        let mut mean = vec![0.0; d];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for row in x {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m).powi(2) / n;
            }
        }
        for s in std.iter_mut() {
            *s = s.sqrt().max(1e-12);
        }
        let xn: Vec<Vec<f64>> = x
            .iter()
            .map(|r| r.iter().zip(&mean).zip(&std).map(|((v, m), s)| (v - m) / s).collect())
            .collect();

        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut init = |n_in: usize, len: usize| -> Vec<f64> {
            let scale = (2.0 / n_in as f64).sqrt();
            (0..len).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        let mut w1 = init(d, h * d);
        let mut b1 = vec![0.0; h];
        let mut w2 = init(h, k * h);
        let mut b2 = vec![0.0; k];
        let (mut vw1, mut vb1, mut vw2, mut vb2) =
            (vec![0.0; h * d], vec![0.0; h], vec![0.0; k * h], vec![0.0; k]);

        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut hid = vec![0.0; h];
        let mut logits = vec![0.0; k];
        for _ in 0..p.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(p.batch) {
                let (mut gw1, mut gb1, mut gw2, mut gb2) =
                    (vec![0.0; h * d], vec![0.0; h], vec![0.0; k * h], vec![0.0; k]);
                for &i in chunk {
                    let row = &xn[i];
                    // Forward.
                    for j in 0..h {
                        let z: f64 = b1[j] + (0..d).map(|f| w1[j * d + f] * row[f]).sum::<f64>();
                        hid[j] = z.max(0.0);
                    }
                    for c in 0..k {
                        logits[c] = b2[c] + (0..h).map(|j| w2[c * h + j] * hid[j]).sum::<f64>();
                    }
                    let mx = logits.iter().cloned().fold(f64::MIN, f64::max);
                    let exps: Vec<f64> = logits.iter().map(|&z| (z - mx).exp()).collect();
                    let sum: f64 = exps.iter().sum();
                    // Backward (softmax CE).
                    for c in 0..k {
                        let delta = exps[c] / sum - f64::from(c == y[i]);
                        gb2[c] += delta;
                        for j in 0..h {
                            gw2[c * h + j] += delta * hid[j];
                        }
                    }
                    for j in 0..h {
                        if hid[j] <= 0.0 {
                            continue;
                        }
                        let dh: f64 = (0..k)
                            .map(|c| (exps[c] / sum - f64::from(c == y[i])) * w2[c * h + j])
                            .sum();
                        gb1[j] += dh;
                        for f in 0..d {
                            gw1[j * d + f] += dh * row[f];
                        }
                    }
                }
                let bs = chunk.len() as f64;
                let step = |w: &mut [f64], v: &mut [f64], g: &[f64]| {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = p.momentum * *vi - p.lr * gi / bs;
                        *wi += *vi;
                    }
                };
                step(&mut w1, &mut vw1, &gw1);
                step(&mut b1, &mut vb1, &gb1);
                step(&mut w2, &mut vw2, &gw2);
                step(&mut b2, &mut vb2, &gb2);
            }
        }
        Self { w1, b1, w2, b2, mean, std, d, h, k }
    }

    /// Predict the class of one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let rn: Vec<f64> =
            row.iter().zip(&self.mean).zip(&self.std).map(|((v, m), s)| (v - m) / s).collect();
        let mut best = (0usize, f64::MIN);
        let mut hid = vec![0.0; self.h];
        for j in 0..self.h {
            let z: f64 =
                self.b1[j] + (0..self.d).map(|f| self.w1[j * self.d + f] * rn[f]).sum::<f64>();
            hid[j] = z.max(0.0);
        }
        for c in 0..self.k {
            let z: f64 =
                self.b2[c] + (0..self.h).map(|j| self.w2[c * self.h + j] * hid[j]).sum::<f64>();
            if z > best.1 {
                best = (c, z);
            }
        }
        best.0
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

    fn blobs(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let (cx, cy) = [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)][c];
            x.push(vec![
                cx + ((i * 37) % 100) as f64 / 100.0,
                cy + ((i * 61) % 100) as f64 / 100.0,
            ]);
            y.push(c);
        }
        (x, y)
    }

    #[test]
    fn learns_blobs() {
        let (x, y) = blobs(150);
        let mlp = Mlp::fit(&x, &y, 3, MlpParams { epochs: 120, ..Default::default() });
        assert!(mlp.accuracy(&x, &y) > 0.95, "acc {}", mlp.accuracy(&x, &y));
    }

    #[test]
    fn learns_xor_nonlinearity() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let jx = ((i * 131) % 50) as f64 / 500.0;
            x.push(vec![a as f64 + jx, b as f64 - jx]);
            y.push(a ^ b);
        }
        let mlp = Mlp::fit(&x, &y, 2, MlpParams { epochs: 400, hidden: 16, ..Default::default() });
        assert!(mlp.accuracy(&x, &y) > 0.95, "acc {}", mlp.accuracy(&x, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(60);
        let a = Mlp::fit(&x, &y, 3, MlpParams::default());
        let b = Mlp::fit(&x, &y, 3, MlpParams::default());
        for r in &x {
            assert_eq!(a.predict(r), b.predict(r));
        }
    }
}
