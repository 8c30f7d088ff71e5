//! Stochastic gradient descent trainer.
//!
//! The paper's authors "implemented \[their\] own model, with a specialized
//! feature extraction pipeline and optimization routines such as stochastic
//! gradient descent". This SGD exploits the sparsity of per-record
//! gradients: only the features active in the current record (plus the
//! `n²` transition block) are touched, and the L2 penalty is applied with
//! the classic weight-scaling trick so each step costs `O(active)` instead
//! of `O(d)`. The inference buffers (score table, α/β lattices, node/edge
//! marginals) are allocated once per run and reused across every step,
//! and the score table is built **directly from the scaled representation**
//! (`θ = scale · v`, see [`Crf::score_table_with_into`]) so no dense `θ`
//! copy is materialized per step.

use crate::inference::{backward_into, edge_marginals_into, forward_into, node_marginals_into};
use crate::model::{Crf, ScoreTable};
use crate::sequence::Instance;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for [`train_sgd`].
#[derive(Clone, Debug)]
pub struct SgdConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate `η₀`.
    pub eta0: f64,
    /// Learning-rate decay: `η_t = η₀ / (1 + decay · t)` with `t` the
    /// global step count.
    pub decay: f64,
    /// L2 regularization strength λ (per record).
    pub l2: f64,
    /// Seed for the per-epoch shuffle.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            epochs: 10,
            eta0: 0.1,
            decay: 1e-3,
            l2: 1e-4,
            seed: 7,
        }
    }
}

/// Outcome of an SGD run.
#[derive(Clone, Debug)]
pub struct SgdReport {
    /// Epochs completed.
    pub epochs: usize,
    /// Total gradient steps taken.
    pub steps: usize,
    /// Mean per-record negative log-likelihood observed during the final
    /// epoch (an online estimate, measured before each step).
    pub final_mean_nll: f64,
}

/// Train `crf` in place with SGD.
pub fn train_sgd(crf: &mut Crf, data: &[Instance], cfg: &SgdConfig) -> SgdReport {
    let n = crf.num_states();
    // Scale trick: true weights = scale * v.
    let mut scale = 1.0f64;
    let mut v = crf.weights().to_vec();
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);

    // Inference buffers, reused across every gradient step.
    let mut table = ScoreTable::default();
    let mut alpha = Vec::new();
    let mut beta = Vec::new();
    let mut nm = Vec::new();
    let mut em = Vec::new();
    let mut tmp = Vec::new();

    let mut step = 0usize;
    let mut last_epoch_nll_sum = 0.0;
    let mut last_epoch_count = 0usize;

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut nll_sum = 0.0;
        let mut count = 0usize;
        for &idx in &order {
            let inst = &data[idx];
            if inst.is_empty() {
                continue;
            }
            let eta = cfg.eta0 / (1.0 + cfg.decay * step as f64);
            step += 1;

            // Potentials straight from the scaled representation — no
            // dense θ = scale·v copy per step.
            let seq = &inst.seq;
            crf.score_table_with_into(seq, &v, scale, &mut table);
            let log_z = forward_into(&table, &mut alpha, &mut tmp);
            backward_into(&table, &mut beta, &mut tmp);
            node_marginals_into(&table, &alpha, log_z, &beta, &mut nm);
            edge_marginals_into(&table, &alpha, log_z, &beta, &mut em);
            nll_sum += log_z - table.path_score(&inst.labels);
            count += 1;

            // L2 shrink via the scale factor.
            scale *= 1.0 - eta * cfg.l2;
            if scale < 1e-9 {
                for vi in v.iter_mut() {
                    *vi *= scale;
                }
                scale = 1.0;
            }
            let lr = eta / scale;

            // Sparse descent step on (expected − observed) counts.
            for (t, feats) in seq.obs.iter().enumerate() {
                let gold = inst.labels[t];
                for &f in feats {
                    let base = crf.emit_index(f, 0);
                    for j in 0..n {
                        v[base + j] -= lr * nm[t * n + j];
                    }
                    v[base + gold] += lr;
                }
                if t > 0 {
                    let prev_gold = inst.labels[t - 1];
                    let edges = &em[(t - 1) * n * n..t * n * n];
                    for i in 0..n {
                        for j in 0..n {
                            v[crf.trans_index(i, j)] -= lr * edges[i * n + j];
                        }
                    }
                    v[crf.trans_index(prev_gold, gold)] += lr;
                    for &f in feats {
                        if let Some(base) = crf.pair_index(f, 0, 0) {
                            for (vk, &e) in v[base..base + n * n].iter_mut().zip(edges) {
                                *vk -= lr * e;
                            }
                            let pidx = crf.pair_index(f, prev_gold, gold).unwrap();
                            v[pidx] += lr;
                        }
                    }
                }
            }
        }
        if epoch + 1 == cfg.epochs {
            last_epoch_nll_sum = nll_sum;
            last_epoch_count = count;
        }
    }

    // Install final true weights in place (the only O(d) pass per run).
    for (wi, &vi) in crf.weights_mut().iter_mut().zip(&v) {
        *wi = scale * vi;
    }

    SgdReport {
        epochs: cfg.epochs,
        steps: step,
        final_mean_nll: if last_epoch_count == 0 {
            0.0
        } else {
            last_epoch_nll_sum / last_epoch_count as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    /// Separable toy task: feature 0 ⇒ state 0, feature 1 ⇒ state 1.
    fn toy_data(copies: usize) -> Vec<Instance> {
        let mut out = Vec::new();
        for _ in 0..copies {
            out.push(Instance::new(
                Sequence::new(vec![vec![0], vec![1], vec![0]]),
                vec![0, 1, 0],
            ));
            out.push(Instance::new(
                Sequence::new(vec![vec![1], vec![1]]),
                vec![1, 1],
            ));
        }
        out
    }

    #[test]
    fn sgd_learns_separable_task() {
        let data = toy_data(20);
        let mut crf = Crf::without_pair_features(2, 2);
        let report = train_sgd(
            &mut crf,
            &data,
            &SgdConfig {
                epochs: 20,
                eta0: 0.5,
                ..Default::default()
            },
        );
        assert!(report.steps > 0);
        assert!(
            report.final_mean_nll < 0.1,
            "should fit the data, got NLL {}",
            report.final_mean_nll
        );
        // Decoding recovers gold labels.
        let seq = Sequence::new(vec![vec![0], vec![1], vec![0]]);
        let (path, _) = crate::inference::viterbi(&crf.score_table(&seq));
        assert_eq!(path, vec![0, 1, 0]);
    }

    #[test]
    fn sgd_decreases_objective() {
        let data = toy_data(10);
        let mut crf = Crf::without_pair_features(2, 2);
        let mut obj = crate::objective::Objective::new(crf.clone(), &data, 0.0, 1);
        let w0 = vec![0.0; crf.dim()];
        let mut g = vec![0.0; crf.dim()];
        let before = obj.eval(&w0, &mut g);
        train_sgd(&mut crf, &data, &SgdConfig::default());
        let after = obj.eval(crf.weights(), &mut g);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn sgd_is_deterministic_for_fixed_seed() {
        let data = toy_data(5);
        let mut a = Crf::without_pair_features(2, 2);
        let mut b = Crf::without_pair_features(2, 2);
        train_sgd(&mut a, &data, &SgdConfig::default());
        train_sgd(&mut b, &data, &SgdConfig::default());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn sgd_with_pair_features_learns_transition_cue() {
        // Feature 0 is ambiguous alone; the pair rule is "feature 1 after
        // state 0 means state 1".
        let data = vec![
            Instance::new(Sequence::new(vec![vec![0], vec![1]]), vec![0, 1]),
            Instance::new(Sequence::new(vec![vec![0], vec![0]]), vec![0, 0]),
        ];
        let mut crf = Crf::new(2, 2, &[false, true]);
        train_sgd(
            &mut crf,
            &data,
            &SgdConfig {
                epochs: 50,
                eta0: 0.5,
                l2: 1e-5,
                ..Default::default()
            },
        );
        let (p1, _) =
            crate::inference::viterbi(&crf.score_table(&Sequence::new(vec![vec![0], vec![1]])));
        assert_eq!(p1, vec![0, 1]);
        let (p2, _) =
            crate::inference::viterbi(&crf.score_table(&Sequence::new(vec![vec![0], vec![0]])));
        assert_eq!(p2, vec![0, 0]);
    }

    #[test]
    fn empty_dataset_is_benign() {
        let mut crf = Crf::without_pair_features(2, 2);
        let report = train_sgd(&mut crf, &[], &SgdConfig::default());
        assert_eq!(report.steps, 0);
        assert_eq!(report.final_mean_nll, 0.0);
    }
}
