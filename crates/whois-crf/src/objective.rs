//! The training objective: regularized negative conditional
//! log-likelihood and its analytic gradient.
//!
//! For training data `{(x_r, y_r)}` the paper maximizes the
//! log-likelihood `L(θ) = Σ_r ln Pr_θ(y_r | x_r)` (eq. 4). We minimize the
//! equivalent *mean* negative log-likelihood with an L2 penalty:
//!
//! ```text
//! f(θ) = -(1/R) Σ_r [ score(x_r, y_r) - log Z(x_r) ] + (λ/2)‖θ‖²
//! ```
//!
//! The gradient (eq. 12 territory) is `expected - observed` feature counts,
//! obtained from the forward–backward marginals.
//!
//! Two implementations live here:
//!
//! * [`Objective`] — the production path, backed by
//!   [`TrainEngine`]: persistent workers,
//!   pooled scratch buffers, unique-line dedup, and observed counts
//!   precomputed once. Steady-state evaluations are allocation-free.
//! * [`NaiveObjective`] — the transparent reference implementation
//!   (allocating inference per record, observed counts re-derived every
//!   call, scoped threads re-spawned per evaluation). It is kept as the
//!   oracle for the engine's equivalence tests and as the baseline of the
//!   `crf_training` bench; don't optimize it.

use crate::engine::TrainEngine;
use crate::inference::{backward, edge_marginals, forward, node_marginals};
use crate::model::Crf;
use crate::sequence::Instance;

/// Evaluates `f(θ)` and `∇f(θ)` over a training set — engine-backed.
#[derive(Debug)]
pub struct Objective {
    engine: TrainEngine,
}

impl Objective {
    /// Create an objective.
    ///
    /// * `crf` — defines the model structure (state count, feature space,
    ///   pair eligibility); its current weights are irrelevant because
    ///   [`Objective::eval`] overwrites them.
    /// * `data` — compiled into the engine's per-worker shards; the
    ///   borrow ends when `new` returns.
    /// * `l2` — L2 regularization strength λ (≥ 0).
    /// * `threads` — worker count; `0` means use available parallelism.
    pub fn new(crf: Crf, data: &[Instance], l2: f64, threads: usize) -> Self {
        Objective {
            engine: TrainEngine::new(crf, data, l2, threads),
        }
    }

    /// [`Objective::new`] with an explicit SIMD kernel level (bit-exact
    /// across levels; the differential-testing/bench hook).
    pub fn with_kernel(
        crf: Crf,
        data: &[Instance],
        l2: f64,
        threads: usize,
        kernel: crate::kernels::KernelLevel,
    ) -> Self {
        Objective {
            engine: TrainEngine::with_kernel(crf, data, l2, threads, kernel),
        }
    }

    /// The SIMD kernel level the engine's accumulation loops run on.
    pub fn kernel_level(&self) -> crate::kernels::KernelLevel {
        self.engine.kernel_level()
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.engine.dim()
    }

    /// Number of training records.
    pub fn num_records(&self) -> usize {
        self.engine.num_records()
    }

    /// The model structure (with whatever weights were last evaluated).
    pub fn crf(&self) -> &Crf {
        self.engine.crf()
    }

    /// Consume the objective, returning the CRF with weights `w`
    /// installed (copied in place — no fresh `Vec<f64>`).
    pub fn into_crf(self, w: &[f64]) -> Crf {
        self.engine.take_crf(w)
    }

    /// Evaluate the objective value at `w`, writing `∇f(w)` into `grad`.
    ///
    /// Steady-state allocation-free; repeated calls at the same `w` are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics if `w.len()` or `grad.len()` differ from [`Objective::dim`].
    pub fn eval(&mut self, w: &[f64], grad: &mut [f64]) -> f64 {
        self.engine.eval(w, grad)
    }

    /// Log-likelihood (mean, unregularized) of the data at `w` without
    /// computing a gradient. Used for reporting held-out likelihoods;
    /// runs parallel over the engine's shards.
    pub fn mean_log_likelihood(&mut self, w: &[f64]) -> f64 {
        self.engine.mean_log_likelihood(w)
    }
}

/// The reference implementation: correct, simple, slow. One allocating
/// forward–backward per record, observed counts re-derived per call,
/// scoped worker threads re-spawned per evaluation, and a full weight
/// clone per install — exactly what [`TrainEngine`] optimizes away.
pub struct NaiveObjective<'a> {
    crf: Crf,
    data: &'a [Instance],
    l2: f64,
    threads: usize,
}

impl<'a> NaiveObjective<'a> {
    /// Create a naive objective (same contract as [`Objective::new`]).
    pub fn new(crf: Crf, data: &'a [Instance], l2: f64, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        NaiveObjective {
            crf,
            data,
            l2,
            threads,
        }
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.crf.dim()
    }

    /// Evaluate the objective value at `w`, writing `∇f(w)` into `grad`.
    pub fn eval(&mut self, w: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(w.len(), self.dim(), "weight dimension mismatch");
        assert_eq!(grad.len(), self.dim(), "gradient dimension mismatch");
        self.crf.set_weights(w.to_vec());
        let crf = &self.crf;
        let r = self.data.len().max(1) as f64;

        grad.fill(0.0);
        let mut total_ll = 0.0;

        let threads = self.threads.min(self.data.len().max(1));
        if threads <= 1 {
            total_ll = accumulate_chunk(crf, self.data, grad);
        } else {
            let chunk_size = self.data.len().div_ceil(threads);
            let results: Vec<(f64, Vec<f64>)> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .data
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move |_| {
                            let mut local = vec![0.0; crf.dim()];
                            let ll = accumulate_chunk(crf, chunk, &mut local);
                            (ll, local)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .expect("gradient worker panicked");
            for (ll, local) in results {
                total_ll += ll;
                for (g, l) in grad.iter_mut().zip(&local) {
                    *g += l;
                }
            }
        }

        // Scale to mean NLL and add the L2 term.
        for (g, &wi) in grad.iter_mut().zip(w) {
            *g = *g / r + self.l2 * wi;
        }
        -total_ll / r + 0.5 * self.l2 * w.iter().map(|x| x * x).sum::<f64>()
    }

    /// Sequential, allocating mean log-likelihood.
    pub fn mean_log_likelihood(&mut self, w: &[f64]) -> f64 {
        self.crf.set_weights(w.to_vec());
        let crf = &self.crf;
        let r = self.data.len().max(1) as f64;
        let ll: f64 = self
            .data
            .iter()
            .map(|inst| {
                let table = crf.score_table(&inst.seq);
                let fwd = forward(&table);
                crf.path_score(&inst.seq, &inst.labels) - fwd.log_z
            })
            .sum();
        ll / r
    }
}

/// Accumulate `Σ ll_r` for a chunk and add `Σ (expected − observed)`
/// feature counts into `grad` (the gradient of the summed **negative**
/// log-likelihood, unscaled).
fn accumulate_chunk(crf: &Crf, chunk: &[Instance], grad: &mut [f64]) -> f64 {
    let n = crf.num_states();
    let mut ll = 0.0;
    for inst in chunk {
        if inst.is_empty() {
            continue;
        }
        let seq = &inst.seq;
        let table = crf.score_table(seq);
        let fwd = forward(&table);
        let beta = backward(&table);
        let nm = node_marginals(&table, &fwd, &beta);
        let em = edge_marginals(&table, &fwd, &beta);

        ll += crf.path_score(seq, &inst.labels) - fwd.log_z;

        for (t, feats) in seq.obs.iter().enumerate() {
            let gold = inst.labels[t];
            // Emission features: expected − observed.
            for &f in feats {
                let base = crf.emit_index(f, 0);
                for j in 0..n {
                    grad[base + j] += nm[t * n + j];
                }
                grad[base + gold] -= 1.0;
            }
            if t > 0 {
                let prev_gold = inst.labels[t - 1];
                let edges = &em[(t - 1) * n * n..t * n * n];
                // Transition features.
                for i in 0..n {
                    for j in 0..n {
                        grad[crf.trans_index(i, j)] += edges[i * n + j];
                    }
                }
                grad[crf.trans_index(prev_gold, gold)] -= 1.0;
                // Pair features.
                for &f in feats {
                    if let Some(base) = crf.pair_index(f, 0, 0) {
                        for (g, &e) in grad[base..base + n * n].iter_mut().zip(edges) {
                            *g += e;
                        }
                        let idx = crf.pair_index(f, prev_gold, gold).unwrap();
                        grad[idx] -= 1.0;
                    }
                }
            }
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    fn toy_data() -> Vec<Instance> {
        vec![
            Instance::new(
                Sequence::new(vec![vec![0], vec![1], vec![0, 2]]),
                vec![0, 1, 1],
            ),
            Instance::new(Sequence::new(vec![vec![2], vec![0, 1]]), vec![1, 0]),
            Instance::new(Sequence::new(vec![vec![1]]), vec![0]),
        ]
    }

    fn toy_crf() -> Crf {
        Crf::new(2, 3, &[true, false, true])
    }

    #[test]
    fn zero_weights_objective_is_mean_log_num_paths() {
        // With θ = 0 every path has score 0, so -ll_r = T_r · ln n.
        let data = toy_data();
        let mut obj = Objective::new(toy_crf(), &data, 0.0, 1);
        let w = vec![0.0; obj.dim()];
        let mut g = vec![0.0; obj.dim()];
        let v = obj.eval(&w, &mut g);
        let expected = (3.0 + 2.0 + 1.0) * 2.0_f64.ln() / 3.0;
        assert!((v - expected).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data = toy_data();
        let mut obj = Objective::new(toy_crf(), &data, 0.1, 1);
        let dim = obj.dim();
        let w: Vec<f64> = (0..dim)
            .map(|i| ((i * 13 % 7) as f64 - 3.0) * 0.1)
            .collect();
        let mut g = vec![0.0; dim];
        obj.eval(&w, &mut g);

        let eps = 1e-6;
        let mut scratch = vec![0.0; dim];
        for k in (0..dim).step_by(3) {
            let mut wp = w.clone();
            wp[k] += eps;
            let fp = obj.eval(&wp, &mut scratch);
            wp[k] -= 2.0 * eps;
            let fm = obj.eval(&wp, &mut scratch);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - g[k]).abs() < 1e-5,
                "param {k}: finite diff {fd} vs analytic {}",
                g[k]
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let data: Vec<Instance> = (0..20)
            .map(|r| {
                let t = 1 + r % 5;
                Instance::new(
                    Sequence::new((0..t).map(|p| vec![((r + p) % 3) as u32]).collect()),
                    (0..t).map(|p| (r + p) % 2).collect(),
                )
            })
            .collect();
        let mut serial = Objective::new(toy_crf(), &data, 0.05, 1);
        let mut parallel = Objective::new(toy_crf(), &data, 0.05, 4);
        let dim = serial.dim();
        let w: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.11).cos() * 0.3).collect();
        let mut gs = vec![0.0; dim];
        let mut gp = vec![0.0; dim];
        let vs = serial.eval(&w, &mut gs);
        let vp = parallel.eval(&w, &mut gp);
        assert!((vs - vp).abs() < 1e-10);
        for (a, b) in gs.iter().zip(&gp) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn engine_matches_naive_oracle() {
        let data: Vec<Instance> = (0..15)
            .map(|r| {
                let t = 1 + r % 4;
                Instance::new(
                    Sequence::new(
                        (0..t)
                            .map(|p| ((r + p) % 3..3).map(|f| f as u32).collect())
                            .collect(),
                    ),
                    (0..t).map(|p| (r + 2 * p) % 2).collect(),
                )
            })
            .collect();
        let dim = Objective::new(toy_crf(), &data, 0.0, 1).dim();
        let w: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.19).sin() * 0.4).collect();
        for threads in [1, 3] {
            let mut engine = Objective::new(toy_crf(), &data, 0.02, threads);
            let mut naive = NaiveObjective::new(toy_crf(), &data, 0.02, 1);
            let mut ge = vec![0.0; dim];
            let mut gn = vec![0.0; dim];
            let ve = engine.eval(&w, &mut ge);
            let vn = naive.eval(&w, &mut gn);
            assert!((ve - vn).abs() < 1e-9, "threads={threads}: {ve} vs {vn}");
            for (a, b) in ge.iter().zip(&gn) {
                assert!((a - b).abs() < 1e-9, "threads={threads}");
            }
            assert!((engine.mean_log_likelihood(&w) - naive.mean_log_likelihood(&w)).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_evals_are_bit_identical() {
        let data = toy_data();
        for threads in [1, 2] {
            let mut obj = Objective::new(toy_crf(), &data, 0.1, threads);
            let dim = obj.dim();
            let w: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).sin()).collect();
            let mut g1 = vec![0.0; dim];
            let mut g2 = vec![0.0; dim];
            let v1 = obj.eval(&w, &mut g1);
            let v2 = obj.eval(&w, &mut g2);
            assert_eq!(v1.to_bits(), v2.to_bits(), "threads={threads}");
            for (a, b) in g1.iter().zip(&g2) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn l2_pulls_gradient_toward_weights() {
        let data = toy_data();
        let mut obj0 = Objective::new(toy_crf(), &data, 0.0, 1);
        let mut obj1 = Objective::new(toy_crf(), &data, 1.0, 1);
        let dim = obj0.dim();
        let w = vec![0.5; dim];
        let mut g0 = vec![0.0; dim];
        let mut g1 = vec![0.0; dim];
        let v0 = obj0.eval(&w, &mut g0);
        let v1 = obj1.eval(&w, &mut g1);
        assert!(v1 > v0, "penalty increases objective");
        for (a, b) in g0.iter().zip(&g1) {
            assert!((b - a - 0.5).abs() < 1e-9, "grad shifted by λw");
        }
    }

    #[test]
    fn empty_instances_are_skipped() {
        let data = vec![Instance::new(Sequence::default(), vec![])];
        let mut obj = Objective::new(toy_crf(), &data, 0.0, 1);
        let w = vec![0.0; obj.dim()];
        let mut g = vec![0.0; obj.dim()];
        let v = obj.eval(&w, &mut g);
        assert_eq!(v, 0.0);
        assert!(g.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mean_log_likelihood_matches_eval() {
        let data = toy_data();
        let mut obj = Objective::new(toy_crf(), &data, 0.0, 1);
        let dim = obj.dim();
        let w: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut g = vec![0.0; dim];
        let v = obj.eval(&w, &mut g);
        let ll = obj.mean_log_likelihood(&w);
        assert!((v + ll).abs() < 1e-10, "value is -mean ll when λ=0");
    }

    #[test]
    fn into_crf_installs_weights() {
        let data = toy_data();
        let obj = Objective::new(toy_crf(), &data, 0.0, 2);
        let dim = obj.dim();
        let w: Vec<f64> = (0..dim).map(|i| i as f64).collect();
        let crf = obj.into_crf(&w);
        assert_eq!(crf.weights(), w.as_slice());
    }
}
