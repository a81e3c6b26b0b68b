"""Training objective: NIG negative log-likelihood, evidence regularizer,
monotone prior hinge, and the soft-conformal surrogate, each with analytic
gradients.  total_loss chains everything through the head's backward pass.

Every term also takes its per-node inputs with a leading arm axis (a stack
of heads, see head.HeadParams) and then returns one value per arm: what
each arm's own call returns, as an array instead of a float.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi

from . import head as head_mod
from .numerics import arm_column, per_arm, rng_stream, soft_quantile_and_grad, softplus_sigmoid


@dataclass(frozen=True)
class ObjectiveConfig:
    gamma: float = 10.0
    kappa: float = 0.1
    lambda_evid: float = 0.01
    lambda_prior: float = 0.1
    lambda_conf: float = 0.05
    stopgrad_epochs: int = 10
    monotone_hidden: int = 8
    mu_only: bool = False     # ablation: plain squared-error point head

    def validate(self):
        # comparisons that NaN fails, as a JSON config may hold NaN or Infinity
        if not (0.0 < self.gamma < math.inf and 0.0 < self.kappa < math.inf):
            raise ValueError("gamma and kappa must be positive finite numbers")
        # zero weights are allowed so ablations can switch terms off
        if not (0.0 <= self.lambda_evid < math.inf and 0.0 <= self.lambda_prior < math.inf
                and 0.0 <= self.lambda_conf < math.inf):
            raise ValueError("objective weights must be nonnegative finite numbers")
        if self.stopgrad_epochs < 0:
            raise ValueError("stopgrad_epochs must be >= 0")
        if self.monotone_hidden < 1:
            raise ValueError("monotone_hidden must be >= 1")
        return self


class MonotoneMap:
    """Two-layer map m(b), nondecreasing on [0, 1] by construction: both
    weight layers are reparameterized through softplus, so effective weights
    are nonnegative and the composition with ReLU is monotone.  A map viewed
    on an (arms, size) array is a stack of maps, one per row."""

    def __init__(self, w1_raw, b1, w2_raw, b2):
        self._bind(np.concatenate([np.asarray(w1_raw, dtype=float), np.asarray(b1, dtype=float),
                                   np.asarray(w2_raw, dtype=float), [float(b2)]]))

    def _bind(self, vec):
        """Take the weights as views into the vector vec (or its rows, one
        per arm), laid out [w1_raw, b1, w2_raw, b2]."""
        h = (vec.shape[-1] - 1) // 3
        self._vec = vec
        self.w1_raw, self.b1, self.w2_raw = vec[..., :h], vec[..., h:2 * h], vec[..., 2 * h:3 * h]
        # rows w1_raw, w2_raw
        self._raw = vec[..., :3 * h].reshape(vec.shape[:-1] + (3, h))[..., ::2, :]
        return self

    @property
    def b2(self):
        return per_arm(self._vec[..., -1])

    @property
    def size(self):
        """Number of weights of one map, the length of to_vector()'s rows."""
        return self._vec.shape[-1]

    @classmethod
    def init(cls, hidden=8, seed=0):
        rng = rng_stream(seed, 11)
        return cls(rng.uniform(-1.0, 1.0, hidden), np.zeros(hidden),
                   rng.uniform(-1.0, 1.0, hidden), 0.0)

    def to_vector(self):
        return self._vec.copy()

    def view(self, vec):
        """MonotoneMap of the same size whose weights are views into the
        float array vec, or a stack of maps for a vec of shape (arms, size):
        writing into vec moves the weights."""
        if vec.shape[-1] != self.size:
            raise ValueError("vector length mismatch")
        return MonotoneMap.__new__(MonotoneMap)._bind(vec)

    def from_vector(self, vec):
        return self.view(np.array(vec, dtype=float))

    def value_and_grads(self, b):
        """m(b) plus gradients of sum-weighted outputs w.r.t. raw params.

        Returns (values, vjp) where vjp(d_out) gives a MonotoneMap-shaped
        gradient for a downstream gradient d_out per input.
        """
        b = np.asarray(b, dtype=float)[..., :, None]
        sp, sig = softplus_sigmoid(self._raw)
        w1, w2 = sp[..., None, 0, :], sp[..., 1, :, None]
        pre = b * w1 + self.b1[..., None, :]
        hidden = np.maximum(pre, 0.0)
        out = (hidden @ w2)[..., 0] + arm_column(self.b2)

        def vjp(d_out):
            d_out = np.asarray(d_out, dtype=float)
            d_col = d_out[..., :, None]
            d_pre = d_col * w2.swapaxes(-1, -2) * (pre > 0)
            return self.view(np.concatenate([
                (d_pre * b).sum(axis=-2) * sig[..., 0, :], d_pre.sum(axis=-2),
                (hidden * d_col).sum(axis=-2) * sig[..., 1, :],
                d_out.sum(axis=-1, keepdims=True)], axis=-1))

        return out, vjp


def nig_nll(p: head_mod.NIGParams, y):
    """Per-node NIG negative log-likelihood, averaged over nodes, and its
    gradients (d_mu, d_nu, d_alpha, d_beta) per node.

    L_i = 0.5 log(nu/pi) - alpha log(2 beta) + log Gamma(alpha)
          + (alpha + 0.5) log(nu (y - mu)^2 + 2 beta) - log Gamma(alpha + 0.5)
    """
    mu, nu, alpha, beta, y = (np.asarray(v, dtype=float)
                              for v in (p.mu, p.nu, p.alpha, p.beta, y))
    e = y - mu
    e2 = e ** 2
    a_term = nu * e2 + 2.0 * beta
    log_2b, log_a, ap = np.log(2.0 * beta), np.log(a_term), alpha + 0.5
    vals = (0.5 * np.log(nu / np.pi) - alpha * log_2b
            + gammaln(alpha) + ap * log_a - gammaln(ap))
    n = mu.shape[-1]
    d_mu = -ap * 2.0 * nu * e / a_term / n
    d_nu = (0.5 / nu + ap * e2 / a_term) / n
    d_alpha = (-log_2b + psi(alpha) + log_a - psi(ap)) / n
    d_beta = (-alpha / beta + ap * 2.0 / a_term) / n
    return per_arm(vals.sum(axis=-1) / n), (d_mu, d_nu, d_alpha, d_beta)


def evidence_reg(alphas):
    """Sum of exp(-alpha), which penalizes low evidence, and its gradient."""
    e = np.exp(-np.asarray(alphas, dtype=float))
    return per_arm(e.sum(axis=-1)), -e


def prior_penalty(b, u, m: MonotoneMap):
    """Mean hinge max(0, m(b) - u): prior volatility must be matched
    by at least that much epistemic variance.  Returns (value, d_u, d_m),
    d_m MonotoneMap shaped.  For a stack of maps b is shared by the arms or
    has a leading arm axis."""
    b = np.asarray(b, dtype=float)
    if not (b.min() >= 0.0 and b.max() <= 1.0):
        raise ValueError("prior inputs must lie in [0, 1]")
    mb, vjp = m.value_and_grads(b)
    gap = mb - np.asarray(u, dtype=float)
    red = 1.0 / b.shape[-1]
    weight = (gap > 0) * red
    return per_arm(np.maximum(gap, 0.0).sum(axis=-1) * red), -weight, vjp(weight)


def soft_conf_loss(scores, cfg: ObjectiveConfig, stopgrad=False):
    """Mean softplus((s_i - Q_gamma(s)) / kappa) with the log-sum-exp soft
    quantile, and its gradient w.r.t. the scores; with stopgrad the quantile
    is treated as a constant."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("soft_conf_loss of empty scores")
    q, q_grad = soft_quantile_and_grad(s, cfg.gamma)
    sp, sig = softplus_sigmoid((s - arm_column(q)) / cfg.kappa)
    sig /= cfg.kappa
    n = s.shape[-1]
    d_s = sig / n
    if not stopgrad:
        d_s = d_s - arm_column(sig.sum(axis=-1) / n) * q_grad
    return per_arm(sp.sum(axis=-1) / n), d_s


def _arm_weights(cfg):
    """(first config, (lambda_evid, lambda_prior, lambda_conf), the same as
    per-node factors, mu_only, any mu_only, all mu_only) of total_loss's cfg,
    after validating it: one config's own values, or for a sequence of
    configs one value per arm, as an array (and as an (arms, 1) column)."""
    if isinstance(cfg, ObjectiveConfig):
        cfg.validate()
        lam = cfg.lambda_evid, cfg.lambda_prior, cfg.lambda_conf
        return cfg, lam, lam, cfg.mu_only, cfg.mu_only, cfg.mu_only
    for c in cfg:
        c.validate()
    lam = [np.array([getattr(c, k) for c in cfg])
           for k in ("lambda_evid", "lambda_prior", "lambda_conf")]
    mu_only = np.array([c.mu_only for c in cfg])
    return (cfg[0], lam, [w[:, None] for w in lam], mu_only,
            bool(mu_only.any()), bool(mu_only.all()))


def total_loss(head_params, monotone, ds, cfg: ObjectiveConfig, epoch=0, out=None):
    """Composite objective on one dataset/batch.

    Returns (value, parts, head_grads, monotone_grads) where the gradients
    are HeadParams / MonotoneMap shaped views into the flat array out: the
    head's to_vector() followed by the map's (a new array when None).  The
    views are made once per out and head_params, which a training keeps.

    For a stack of heads and maps (one row of out per arm), cfg may be a
    sequence of configs, one per arm, that differ only in the lambda_*
    weights and mu_only, and ds.prior_b may hold one column per arm.  The
    value and each part are then arrays over the arms.
    """
    base, lam, (lam_evid, lam_prior, lam_conf), mu_only, any_mu, all_mu = head_mod._kept(
        head_params, "_weights", cfg, _arm_weights)
    if out is None:
        out = np.empty(head_params.arms + (head_params.size + monotone.size,))
    out_head, mono_out = head_mod._kept(head_params, "_grad_split", out, lambda o: (
        o[..., :-monotone.size], monotone.view(o[..., -monotone.size:])))
    nig, cache = head_mod.forward(head_params, ds, with_cache=True)
    y = ds.target_y
    resid = y - nig.mu

    if any_mu:      # the ablation's plain squared-error point head
        sq = resid ** 2
        mse = per_arm(sq.sum(axis=-1) / y.size)
        d_mse = 2.0 * (nig.mu - y) / y.size
        if all_mu:
            zero = per_arm(np.zeros(head_params.arms))
            parts = {"nig": mse, "evidence": zero, "prior": zero, "soft_conf": zero}
            zeros = np.zeros_like(d_mse)
            head_grads = head_mod.backward(head_params, cache, d_mse, zeros, zeros, zeros,
                                           out=out_head)
            mono_out._vec.fill(0.0)
            return mse, parts, head_grads, mono_out

    l_nig, (d_mu, d_nu, d_alpha, d_beta) = nig_nll(nig, y)
    l_evid, d_alpha_evid = evidence_reg(nig.alpha)
    l_prior, d_u, mono_grads = prior_penalty(ds.prior_b.T, head_mod.epistemic_variance(nig),
                                             monotone)
    l_conf, d_s = soft_conf_loss(np.abs(resid), base, stopgrad=epoch < base.stopgrad_epochs)
    total = l_nig + lam[0] * l_evid + lam[1] * l_prior + lam[2] * l_conf
    parts = {"nig": l_nig, "evidence": l_evid, "prior": l_prior, "soft_conf": l_conf}

    d_alpha = d_alpha + lam_evid * d_alpha_evid
    # epistemic u = beta / (nu (alpha - 1)) feeding the hinge
    am1 = nig.alpha - 1.0
    d_u = lam_prior * d_u
    d_nu = d_nu + d_u * (-nig.beta / (nig.nu ** 2 * am1))
    d_alpha = d_alpha + d_u * (-nig.beta / (nig.nu * am1 ** 2))
    d_beta = d_beta + d_u * (1.0 / (nig.nu * am1))
    # scores s = |y - mu|
    d_mu = d_mu + lam_conf * d_s * (-np.sign(resid))

    np.multiply(lam_prior, mono_grads._vec, out=mono_out._vec)
    if any_mu:      # a stack mixing both objectives: each arm takes its own
        node = mu_only[:, None]
        total = np.where(mu_only, mse, total)
        parts = {k: np.where(mu_only, mse if k == "nig" else 0.0, v) for k, v in parts.items()}
        d_mu = np.where(node, d_mse, d_mu)
        d_nu, d_alpha, d_beta = (np.where(node, 0.0, d) for d in (d_nu, d_alpha, d_beta))
        mono_out._vec[mu_only] = 0.0
    head_grads = head_mod.backward(head_params, cache, d_mu, d_nu, d_alpha, d_beta,
                                   out=out_head)
    return total, parts, head_grads, mono_out
