//! Multi-layer perceptrons with handwritten derivative kernels.
//!
//! Implements the embedding (`E₂∘E₁∘E₀`) and fitting (`F₃∘F₂∘F₁∘F₀`)
//! networks of the paper with four sweeps:
//!
//! * [`Mlp::forward`] — primal evaluation,
//! * [`Mlp::backward`] — reverse-mode: input gradients + parameter
//!   gradients (the paper's Opt1 handwritten derivative kernels),
//! * [`Mlp::jvp`] — forward-tangent (JVP) propagation: given input
//!   tangents `ẋ` produce output tangents `ẏ` with parameters held
//!   fixed. Because the atomic *forces* are position-tangents of the
//!   energy, this sweep is how the model evaluates `cᵀF` directly,
//! * [`Mlp::dual_backward`] — reverse-mode *over the JVP*: gradients of
//!   a scalar function of `(y, ẏ)` with respect to inputs, input
//!   tangents and parameters. This gives the exact `∇_θ (cᵀF)` the
//!   Kalman-filter force updates need without `create_graph`-style
//!   double backprop (§3.4).
//!
//! Elementwise chains are fused into single loops (one kernel launch
//! each); matrix products use the substrate GEMM kernels. The
//! [`dp_tensor::kernel::fused`] wrappers around whole sweeps model the
//! paper's Opt2 (`torch.compile`) on top.

use dp_tensor::kernel;
use dp_tensor::Mat;
use rand::Rng;

/// Layer flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// `y = tanh(xW + b)`.
    Tanh,
    /// `y = x + tanh(xW + b)` (requires square `W`).
    TanhResidual,
    /// `y = xW + b`.
    Linear,
}

/// One dense layer.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Weight matrix, `in × out`.
    pub w: Mat,
    /// Bias row, `1 × out`.
    pub b: Mat,
    /// Flavour.
    pub kind: LayerKind,
}

impl Layer {
    /// Number of parameters (weights + biases).
    pub fn n_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A feed-forward network.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// The layers, applied in order.
    pub layers: Vec<Layer>,
}

/// Forward-pass cache: layer inputs and tanh outputs.
#[derive(Clone, Debug)]
pub struct MlpCache {
    /// `xs[l]` is the input to layer `l`.
    xs: Vec<Mat>,
    /// `ts[l]` is `tanh(z_l)` for tanh layers (zero-sized for linear).
    ts: Vec<Mat>,
}

/// JVP cache: layer input tangents and `ż = ẋW` products.
#[derive(Clone, Debug)]
pub struct MlpDual {
    xdots: Vec<Mat>,
    zdots: Vec<Mat>,
}

/// Per-layer parameter gradients, shaped like the network.
#[derive(Clone, Debug)]
pub struct MlpGrads {
    /// `(gW, gb)` per layer.
    pub layers: Vec<(Mat, Mat)>,
}

impl MlpGrads {
    /// Zeroed gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        MlpGrads {
            layers: mlp
                .layers
                .iter()
                .map(|l| {
                    (
                        Mat::zeros(l.w.rows(), l.w.cols()),
                        Mat::zeros(l.b.rows(), l.b.cols()),
                    )
                })
                .collect(),
        }
    }

    /// Reset every gradient entry to zero in place (buffer reuse —
    /// the frame-parallel gradient engine recycles one `MlpGrads` per
    /// worker block instead of reallocating per sample).
    pub fn zero(&mut self) {
        for (gw, gb) in &mut self.layers {
            gw.as_mut_slice().fill(0.0);
            gb.as_mut_slice().fill(0.0);
        }
    }
}

impl Mlp {
    /// Build an MLP from `(in, out, kind)` layer specs with scaled
    /// normal initialization (`σ = 1/√fan_in`), biases zero.
    pub fn init(specs: &[(usize, usize, LayerKind)], rng: &mut impl Rng) -> Self {
        let layers = specs
            .iter()
            .map(|&(n_in, n_out, kind)| {
                if kind == LayerKind::TanhResidual {
                    assert_eq!(n_in, n_out, "residual layers must be square");
                }
                let scale = 1.0 / (n_in as f64).sqrt();
                let w = Mat::from_fn(n_in, n_out, |_, _| normal(rng) * scale);
                Layer { w, b: Mat::zeros(1, n_out), kind }
            })
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.layers.last().unwrap().w.cols()
    }

    /// Total parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Layer::n_params).sum()
    }

    /// Primal forward pass over a batch of rows.
    pub fn forward(&self, x: &Mat) -> (Mat, MlpCache) {
        kernel::fused("mlp_forward", || {
            let mut xs = Vec::with_capacity(self.layers.len());
            let mut ts = Vec::with_capacity(self.layers.len());
            let mut cur = x.clone();
            for layer in &self.layers {
                xs.push(cur.clone());
                let z = cur.matmul(&layer.w).add_row_broadcast(&layer.b);
                match layer.kind {
                    LayerKind::Linear => {
                        ts.push(Mat::zeros(0, 0));
                        cur = z;
                    }
                    LayerKind::Tanh => {
                        let t = z.tanh();
                        ts.push(t.clone());
                        cur = t;
                    }
                    LayerKind::TanhResidual => {
                        let t = z.tanh();
                        ts.push(t.clone());
                        cur = cur.add(&t);
                    }
                }
            }
            (cur, MlpCache { xs, ts })
        })
    }

    /// Reverse sweep: returns the input gradient; accumulates parameter
    /// gradients into `grads` when given.
    pub fn backward(&self, cache: &MlpCache, gy: &Mat, mut grads: Option<&mut MlpGrads>) -> Mat {
        kernel::fused("mlp_backward", || {
            let mut gy = gy.clone();
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let x = &cache.xs[l];
                let gz = match layer.kind {
                    LayerKind::Linear => gy.clone(),
                    LayerKind::Tanh | LayerKind::TanhResidual => {
                        // gz = gy ⊙ (1 − t²) — fused single loop.
                        kernel::launch("tanh_bwd_fused");
                        let t = &cache.ts[l];
                        let mut gz = gy.clone();
                        for (g, &tv) in gz.as_mut_slice().iter_mut().zip(t.as_slice()) {
                            *g *= 1.0 - tv * tv;
                        }
                        gz
                    }
                };
                if let Some(gr) = grads.as_deref_mut() {
                    let (gw, gb) = &mut gr.layers[l];
                    gw.axpy(1.0, &x.t_matmul(&gz));
                    gb.axpy(1.0, &col_sum(&gz));
                }
                let gx = gz.matmul_t(&layer.w);
                gy = match layer.kind {
                    LayerKind::TanhResidual => gy.add(&gx),
                    _ => gx,
                };
            }
            gy
        })
    }

    /// Forward-tangent sweep: propagate input tangents `ẋ` (parameters
    /// held fixed). Requires the primal cache.
    pub fn jvp(&self, cache: &MlpCache, xdot: &Mat) -> (Mat, MlpDual) {
        kernel::fused("mlp_jvp", || {
            let mut xdots = Vec::with_capacity(self.layers.len());
            let mut zdots = Vec::with_capacity(self.layers.len());
            let mut cur = xdot.clone();
            for (l, layer) in self.layers.iter().enumerate() {
                xdots.push(cur.clone());
                let zdot = cur.matmul(&layer.w);
                match layer.kind {
                    LayerKind::Linear => {
                        zdots.push(zdot.clone());
                        cur = zdot;
                    }
                    LayerKind::Tanh | LayerKind::TanhResidual => {
                        // ẏ = (1 − t²) ⊙ ż (+ ẋ for residual) — fused.
                        kernel::launch("tanh_jvp_fused");
                        let t = &cache.ts[l];
                        let mut ydot = zdot.clone();
                        for (y, &tv) in ydot.as_mut_slice().iter_mut().zip(t.as_slice()) {
                            *y *= 1.0 - tv * tv;
                        }
                        if layer.kind == LayerKind::TanhResidual {
                            ydot.axpy(1.0, &cur);
                        }
                        zdots.push(zdot);
                        cur = ydot;
                    }
                }
            }
            (cur, MlpDual { xdots, zdots })
        })
    }

    /// Reverse sweep over the JVP: given gradients of a scalar with
    /// respect to the outputs `(gy, gydot)`, return `(gx, gxdot)` and
    /// accumulate parameter gradients.
    ///
    /// Layer rules (h = 1 − t², ż = ẋW):
    /// `gt = gy − 2·gẏ⊙ż⊙t`, `gz = gt⊙h`,
    /// `gx = gz·Wᵀ (+ gy)`, `gẋ = (gẏ⊙h)·Wᵀ (+ gẏ)`,
    /// `gW += xᵀgz + ẋᵀ(gẏ⊙h)`, `gb += Σ_rows gz`.
    pub fn dual_backward(
        &self,
        cache: &MlpCache,
        dual: &MlpDual,
        gy: &Mat,
        gydot: &Mat,
        mut grads: Option<&mut MlpGrads>,
    ) -> (Mat, Mat) {
        kernel::fused("mlp_dual_backward", || {
            let mut gy = gy.clone();
            let mut gydot = gydot.clone();
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let x = &cache.xs[l];
                let xdot = &dual.xdots[l];
                match layer.kind {
                    LayerKind::Linear => {
                        if let Some(gr) = grads.as_deref_mut() {
                            let (gw, gb) = &mut gr.layers[l];
                            gw.axpy(1.0, &x.t_matmul(&gy));
                            gw.axpy(1.0, &xdot.t_matmul(&gydot));
                            gb.axpy(1.0, &col_sum(&gy));
                        }
                        gy = gy.matmul_t(&layer.w);
                        gydot = gydot.matmul_t(&layer.w);
                    }
                    LayerKind::Tanh | LayerKind::TanhResidual => {
                        let t = &cache.ts[l];
                        let zdot = &dual.zdots[l];
                        // Fused elementwise: gz and gydot⊙h in one pass.
                        kernel::launch("tanh_dual_bwd_fused");
                        let mut gz = Mat::zeros(gy.rows(), gy.cols());
                        let mut gyh = Mat::zeros(gy.rows(), gy.cols());
                        {
                            let gz_s = gz.as_mut_slice();
                            let gyh_s = gyh.as_mut_slice();
                            let gy_s = gy.as_slice();
                            let gyd_s = gydot.as_slice();
                            let t_s = t.as_slice();
                            let zd_s = zdot.as_slice();
                            for i in 0..gz_s.len() {
                                let h = 1.0 - t_s[i] * t_s[i];
                                let gt = gy_s[i] - 2.0 * gyd_s[i] * zd_s[i] * t_s[i];
                                gz_s[i] = gt * h;
                                gyh_s[i] = gyd_s[i] * h;
                            }
                        }
                        if let Some(gr) = grads.as_deref_mut() {
                            let (gw, gb) = &mut gr.layers[l];
                            gw.axpy(1.0, &x.t_matmul(&gz));
                            gw.axpy(1.0, &xdot.t_matmul(&gyh));
                            gb.axpy(1.0, &col_sum(&gz));
                        }
                        let gx = gz.matmul_t(&layer.w);
                        let gxdot = gyh.matmul_t(&layer.w);
                        if layer.kind == LayerKind::TanhResidual {
                            gy = gy.add(&gx);
                            gydot = gydot.add(&gxdot);
                        } else {
                            gy = gx;
                            gydot = gxdot;
                        }
                    }
                }
            }
            (gy, gydot)
        })
    }
}

/// Column-wise sum producing `1 × n` (one fused kernel).
fn col_sum(m: &Mat) -> Mat {
    kernel::launch("colsum");
    let mut out = Mat::zeros(1, m.cols());
    for r in 0..m.rows() {
        for (o, v) in out.row_mut(0).iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
    out
}

/// Standard normal deviate (Box–Muller).
fn normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_mlp(seed: u64) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mlp::init(
            &[
                (3, 5, LayerKind::Tanh),
                (5, 5, LayerKind::TanhResidual),
                (5, 1, LayerKind::Linear),
            ],
            &mut rng,
        )
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Scalar objective over the network outputs: Σ y².
    fn objective(y: &Mat) -> f64 {
        y.as_slice().iter().map(|v| v * v).sum()
    }

    fn objective_grad(y: &Mat) -> Mat {
        y.scale(2.0)
    }

    #[test]
    fn backward_input_gradient_matches_fd() {
        let mlp = test_mlp(1);
        let x = rand_mat(4, 3, 2);
        let (y, cache) = mlp.forward(&x);
        let gx = mlp.backward(&cache, &objective_grad(&y), None);
        let h = 1e-6;
        for e in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[e] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[e] -= h;
            let fd = (objective(&mlp.forward(&xp).0) - objective(&mlp.forward(&xm).0)) / (2.0 * h);
            assert!(
                (fd - gx.as_slice()[e]).abs() < 1e-5 * (1.0 + fd.abs()),
                "entry {e}: fd {fd} vs {}",
                gx.as_slice()[e]
            );
        }
    }

    #[test]
    fn backward_param_gradient_matches_fd() {
        let mlp = test_mlp(3);
        let x = rand_mat(4, 3, 4);
        let (y, cache) = mlp.forward(&x);
        let mut grads = MlpGrads::zeros_like(&mlp);
        mlp.backward(&cache, &objective_grad(&y), Some(&mut grads));
        let h = 1e-6;
        for l in 0..mlp.layers.len() {
            for e in 0..mlp.layers[l].w.len() {
                let eval = |delta: f64| {
                    let mut m = mlp.clone();
                    m.layers[l].w.as_mut_slice()[e] += delta;
                    objective(&m.forward(&x).0)
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let an = grads.layers[l].0.as_slice()[e];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "layer {l} w[{e}]: fd {fd} vs {an}"
                );
            }
            for e in 0..mlp.layers[l].b.len() {
                let eval = |delta: f64| {
                    let mut m = mlp.clone();
                    m.layers[l].b.as_mut_slice()[e] += delta;
                    objective(&m.forward(&x).0)
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let an = grads.layers[l].1.as_slice()[e];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "layer {l} b[{e}]: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn jvp_matches_directional_finite_difference() {
        let mlp = test_mlp(5);
        let x = rand_mat(4, 3, 6);
        let xdot = rand_mat(4, 3, 7);
        let (_, cache) = mlp.forward(&x);
        let (ydot, _) = mlp.jvp(&cache, &xdot);
        let h = 1e-6;
        let mut xp = x.clone();
        xp.axpy(h, &xdot);
        let mut xm = x.clone();
        xm.axpy(-h, &xdot);
        let yp = mlp.forward(&xp).0;
        let ym = mlp.forward(&xm).0;
        for e in 0..ydot.len() {
            let fd = (yp.as_slice()[e] - ym.as_slice()[e]) / (2.0 * h);
            assert!(
                (fd - ydot.as_slice()[e]).abs() < 1e-5 * (1.0 + fd.abs()),
                "output {e}: fd {fd} vs {}",
                ydot.as_slice()[e]
            );
        }
    }

    /// Scalar over `(y, ẏ)` for dual-backward tests: Σ ẏ² + Σ y·ẏ.
    fn dual_objective(y: &Mat, ydot: &Mat) -> f64 {
        y.as_slice()
            .iter()
            .zip(ydot.as_slice())
            .map(|(a, b)| b * b + a * b)
            .sum()
    }

    #[test]
    fn dual_backward_param_gradient_matches_fd() {
        let mlp = test_mlp(8);
        let x = rand_mat(3, 3, 9);
        let xdot = rand_mat(3, 3, 10);
        let (y, cache) = mlp.forward(&x);
        let (ydot, dual) = mlp.jvp(&cache, &xdot);
        // gy = ∂φ/∂y = ẏ ; gẏ = 2ẏ + y.
        let gy = ydot.clone();
        let gydot = ydot.scale(2.0).add(&y);
        let mut grads = MlpGrads::zeros_like(&mlp);
        mlp.dual_backward(&cache, &dual, &gy, &gydot, Some(&mut grads));

        let eval = |m: &Mlp| {
            let (y, cache) = m.forward(&x);
            let (ydot, _) = m.jvp(&cache, &xdot);
            dual_objective(&y, &ydot)
        };
        let h = 1e-6;
        for l in 0..mlp.layers.len() {
            for e in 0..mlp.layers[l].w.len() {
                let mut mp = mlp.clone();
                mp.layers[l].w.as_mut_slice()[e] += h;
                let mut mm = mlp.clone();
                mm.layers[l].w.as_mut_slice()[e] -= h;
                let fd = (eval(&mp) - eval(&mm)) / (2.0 * h);
                let an = grads.layers[l].0.as_slice()[e];
                assert!(
                    (fd - an).abs() < 2e-5 * (1.0 + fd.abs()),
                    "layer {l} w[{e}]: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn dual_backward_input_gradients_match_fd() {
        let mlp = test_mlp(11);
        let x = rand_mat(3, 3, 12);
        let xdot = rand_mat(3, 3, 13);
        let (y, cache) = mlp.forward(&x);
        let (ydot, dual) = mlp.jvp(&cache, &xdot);
        let gy = ydot.clone();
        let gydot = ydot.scale(2.0).add(&y);
        let (gx, gxdot) = mlp.dual_backward(&cache, &dual, &gy, &gydot, None);

        let eval = |x: &Mat, xdot: &Mat| {
            let (y, cache) = mlp.forward(x);
            let (ydot, _) = mlp.jvp(&cache, xdot);
            dual_objective(&y, &ydot)
        };
        let h = 1e-6;
        for e in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[e] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[e] -= h;
            let fd = (eval(&xp, &xdot) - eval(&xm, &xdot)) / (2.0 * h);
            assert!(
                (fd - gx.as_slice()[e]).abs() < 2e-5 * (1.0 + fd.abs()),
                "gx[{e}]: fd {fd} vs {}",
                gx.as_slice()[e]
            );
            let mut dp = xdot.clone();
            dp.as_mut_slice()[e] += h;
            let mut dm = xdot.clone();
            dm.as_mut_slice()[e] -= h;
            let fd = (eval(&x, &dp) - eval(&x, &dm)) / (2.0 * h);
            assert!(
                (fd - gxdot.as_slice()[e]).abs() < 2e-5 * (1.0 + fd.abs()),
                "gxdot[{e}]: fd {fd} vs {}",
                gxdot.as_slice()[e]
            );
        }
    }

    #[test]
    fn param_count_matches_paper_formula() {
        // The paper's single-species net: embedding [1→25, 25→25, 25→25]
        // and fitting [400→50, 50→50, 50→50, 50→1]:
        // 1350 + 25251 = 26601 weights+biases.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let emb = Mlp::init(
            &[
                (1, 25, LayerKind::Tanh),
                (25, 25, LayerKind::TanhResidual),
                (25, 25, LayerKind::TanhResidual),
            ],
            &mut rng,
        );
        let fit = Mlp::init(
            &[
                (400, 50, LayerKind::Tanh),
                (50, 50, LayerKind::TanhResidual),
                (50, 50, LayerKind::TanhResidual),
                (50, 1, LayerKind::Linear),
            ],
            &mut rng,
        );
        assert_eq!(emb.n_params(), 50 + 650 + 650);
        assert_eq!(fit.n_params(), 20050 + 2550 + 2550 + 51);
        // Total 26551 ≈ the paper's 26651 (the 100-parameter difference
        // is their type-embedding bookkeeping).
        assert_eq!(emb.n_params() + fit.n_params(), 26551);
    }

    #[test]
    #[should_panic(expected = "residual layers must be square")]
    fn non_square_residual_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = Mlp::init(&[(3, 5, LayerKind::TanhResidual)], &mut rng);
    }
}
