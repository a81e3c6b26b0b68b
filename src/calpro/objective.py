"""Training objective: NIG negative log-likelihood, evidence regularizer,
monotone prior hinge, and the soft-conformal surrogate, each with analytic
gradients.  total_loss chains everything through the head's backward pass.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi

from . import head as head_mod
from .numerics import rng_stream, soft_quantile_and_grad, softplus_sigmoid


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
    are nonnegative and the composition with ReLU is monotone."""

    def __init__(self, w1_raw, b1, w2_raw, b2):
        self._bind(np.concatenate([np.asarray(w1_raw, dtype=float), np.asarray(b1, dtype=float),
                                   np.asarray(w2_raw, dtype=float), [float(b2)]]))

    def _bind(self, vec):
        """Take the weights as views into the flat vector vec, laid out
        [w1_raw, b1, w2_raw, b2]."""
        h = (vec.size - 1) // 3
        self._vec = vec
        self.w1_raw, self.b1, self.w2_raw = vec[:h], vec[h:2 * h], vec[2 * h:3 * h]
        self._raw = vec[:3 * h].reshape(3, h)[::2]     # rows w1_raw, w2_raw
        return self

    @property
    def b2(self):
        return float(self._vec[-1])

    @property
    def size(self):
        return self._vec.size

    @classmethod
    def init(cls, hidden=8, seed=0):
        rng = rng_stream(seed, 11)
        return cls(rng.uniform(-1.0, 1.0, hidden), np.zeros(hidden),
                   rng.uniform(-1.0, 1.0, hidden), 0.0)

    def to_vector(self):
        return self._vec.copy()

    def view(self, vec):
        """MonotoneMap of the same size whose weights are views into the flat
        float array vec: writing into vec moves the weights."""
        if vec.size != self.size:
            raise ValueError("vector length mismatch")
        return MonotoneMap.__new__(MonotoneMap)._bind(vec)

    def from_vector(self, vec):
        return self.view(np.array(vec, dtype=float))

    def value_and_grads(self, b):
        """m(b) plus gradients of sum-weighted outputs w.r.t. raw params.

        Returns (values, vjp) where vjp(d_out) gives a MonotoneMap-shaped
        gradient for a downstream gradient d_out per input.
        """
        b = np.asarray(b, dtype=float)
        (w1, w2), (sig1, sig2) = softplus_sigmoid(self._raw)
        pre = b[:, None] * w1 + self.b1
        hidden = np.maximum(pre, 0.0)
        out = hidden @ w2 + self.b2

        def vjp(d_out):
            d_out = np.asarray(d_out, dtype=float)
            d_pre = d_out[:, None] * w2 * (pre > 0)
            return self.view(np.concatenate([
                (d_pre * b[:, None]).sum(axis=0) * sig1, d_pre.sum(axis=0),
                (hidden * d_out[:, None]).sum(axis=0) * sig2, [d_out.sum()]]))

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
    n = mu.size
    d_mu = -ap * 2.0 * nu * e / a_term / n
    d_nu = (0.5 / nu + ap * e2 / a_term) / n
    d_alpha = (-log_2b + psi(alpha) + log_a - psi(ap)) / n
    d_beta = (-alpha / beta + ap * 2.0 / a_term) / n
    return float(vals.sum() / vals.size), (d_mu, d_nu, d_alpha, d_beta)


def evidence_reg(alphas):
    """Sum of exp(-alpha), which penalizes low evidence, and its gradient."""
    e = np.exp(-np.asarray(alphas, dtype=float))
    return float(e.sum()), -e


def prior_penalty(b, u, m: MonotoneMap):
    """Mean hinge max(0, m(b) - u): prior volatility must be matched
    by at least that much epistemic variance.  Returns (value, d_u, d_m),
    d_m MonotoneMap shaped."""
    b = np.asarray(b, dtype=float)
    if not (b.min() >= 0.0 and b.max() <= 1.0):
        raise ValueError("prior inputs must lie in [0, 1]")
    mb, vjp = m.value_and_grads(b)
    gap = mb - np.asarray(u, dtype=float)
    red = 1.0 / b.size
    weight = (gap > 0) * red
    return float(np.maximum(gap, 0.0).sum() * red), -weight, vjp(weight)


def soft_conf_loss(scores, cfg: ObjectiveConfig, stopgrad=False):
    """Mean softplus((s_i - Q_gamma(s)) / kappa) with the log-sum-exp soft
    quantile, and its gradient w.r.t. the scores; with stopgrad the quantile
    is treated as a constant."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("soft_conf_loss of empty scores")
    q, q_grad = soft_quantile_and_grad(s, cfg.gamma)
    sp, sig = softplus_sigmoid((s - q) / cfg.kappa)
    sig /= cfg.kappa
    d_s = sig / s.size
    if not stopgrad:
        d_s = d_s - sig.sum() / s.size * q_grad
    return float(sp.sum() / s.size), d_s


def total_loss(head_params, monotone, ds, cfg: ObjectiveConfig, epoch=0, out=None):
    """Composite objective on one dataset/batch.

    Returns (value, parts, head_grads, monotone_grads) where the gradients
    are HeadParams / MonotoneMap shaped views into the flat array out: the
    head's to_vector() followed by the map's (a new array when None).  The
    views are made once per out and head_params, which a training keeps.
    """
    cfg.validate()
    if out is None:
        out = np.empty(head_params.size + monotone.size)
    out_head, mono_out = head_mod._kept(head_params, "_grad_split", out, lambda o: (
        o[:-monotone.size], monotone.view(o[-monotone.size:])))
    nig, cache = head_mod.forward(head_params, ds, with_cache=True)
    y = ds.target_y
    resid = y - nig.mu

    if cfg.mu_only:
        sq = resid ** 2
        mse = float(sq.sum() / sq.size)
        parts = {"nig": mse, "evidence": 0.0, "prior": 0.0, "soft_conf": 0.0}
        d_mu = 2.0 * (nig.mu - y) / y.size
        zeros = np.zeros_like(d_mu)
        head_grads = head_mod.backward(head_params, cache, d_mu, zeros, zeros, zeros,
                                       out=out_head)
        mono_out._vec.fill(0.0)
        return mse, parts, head_grads, mono_out

    l_nig, (d_mu, d_nu, d_alpha, d_beta) = nig_nll(nig, y)
    l_evid, d_alpha_evid = evidence_reg(nig.alpha)
    l_prior, d_u, mono_grads = prior_penalty(ds.prior_b, head_mod.epistemic_variance(nig),
                                             monotone)
    l_conf, d_s = soft_conf_loss(np.abs(resid), cfg, stopgrad=epoch < cfg.stopgrad_epochs)
    total = (l_nig + cfg.lambda_evid * l_evid + cfg.lambda_prior * l_prior
             + cfg.lambda_conf * l_conf)
    parts = {"nig": l_nig, "evidence": l_evid, "prior": l_prior, "soft_conf": l_conf}

    d_alpha = d_alpha + cfg.lambda_evid * d_alpha_evid
    # epistemic u = beta / (nu (alpha - 1)) feeding the hinge
    am1 = nig.alpha - 1.0
    d_u = cfg.lambda_prior * d_u
    d_nu = d_nu + d_u * (-nig.beta / (nig.nu ** 2 * am1))
    d_alpha = d_alpha + d_u * (-nig.beta / (nig.nu * am1 ** 2))
    d_beta = d_beta + d_u * (1.0 / (nig.nu * am1))
    # scores s = |y - mu|
    d_mu = d_mu + cfg.lambda_conf * d_s * (-np.sign(resid))

    head_grads = head_mod.backward(head_params, cache, d_mu, d_nu, d_alpha, d_beta,
                                   out=out_head)
    np.multiply(cfg.lambda_prior, mono_grads._vec, out=mono_out._vec)
    return total, parts, head_grads, mono_out
