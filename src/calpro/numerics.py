"""Smooth operators, quantile routines and rank correlation.

Everything here is pure and deterministic; randomized helpers draw from an
explicit (seed, stream) pair so results are reproducible bit-for-bit.
"""

import math

import numpy as np


def per_arm(values):
    """Per-arm values as the caller of one arm expects them: a 0-d array or
    numpy scalar (one arm) as a Python float, an array over arms as is."""
    return values if values.ndim else float(values)


def arm_column(values):
    """Per-arm values against per-node arrays: an array over arms as a
    column, one arm's value as a Python float (numpy's scalars are the
    slower operand)."""
    if isinstance(values, np.ndarray) and values.ndim:
        return values[..., None]
    return float(values)


def arm_list(values):
    """Per-arm values as a list of Python floats, one arm's in a list."""
    return values.tolist() if isinstance(values, np.ndarray) else [float(values)]


def rng_stream(seed, stream=0):
    """Deterministic generator for a (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))


def softplus(z):
    """Numerically stable log(1 + exp(z))."""
    t = np.asarray(z, dtype=float)
    out = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    if np.ndim(z) == 0:
        return float(out)
    return out


def sigmoid(z):
    """Logistic function, stable for large |z|."""
    t = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e) / (1.0 + e)
    if np.ndim(z) == 0:
        return float(out)
    return out


def softplus_sigmoid(z):
    """(softplus(z), sigmoid(z)) of an array from one exp(-|z|): the same
    bits as the two functions, for a function and its derivative."""
    t = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(t))
    return np.maximum(t, 0.0) + np.log1p(e), np.where(t >= 0, 1.0, e) / (1.0 + e)


def soft_quantile_and_grad(scores, gamma):
    """Temperature-controlled log-sum-exp upper quantile surrogate of the
    scores and its gradient w.r.t. them (a softmax), from one exp.

    Q = (1/gamma) * log((1/n) * sum_i exp(gamma * s_i)), stabilized by
    max-subtraction.  Monotone in gamma and satisfies
    max(s) - Q <= log(n)/gamma.  Scores with a leading arm axis give one
    quantile per arm; each arm's log is math.log's, as for a single one.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("soft quantile of empty scores")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    m = s.max(axis=-1)
    w = np.exp(gamma * (s - arm_column(m)))
    total = w.sum(axis=-1)
    n = s.shape[-1]
    q = [mi + math.log(ti / n) / gamma for mi, ti in zip(arm_list(m), arm_list(total))]
    return (q[0] if s.ndim == 1 else np.array(q)), w / arm_column(total)


def conformal_quantiles(scores, alphas):
    """Conservative finite-sample quantile of the scores at each alpha, from
    one sort: the k-th smallest with k = ceil((n+1)(1-alpha)), or +inf when
    the rank exceeds n."""
    s = np.asarray(scores, dtype=float)
    n = s.size
    if n == 0:
        raise ValueError("conformal_quantiles of empty scores")
    s = np.sort(s)
    out = []
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        k = math.ceil((n + 1) * (1.0 - alpha))
        out.append(math.inf if k > n else float(s[k - 1]))
    return out


def _average_ranks(v):
    """1-based ranks; tied values share the mean of the ranks they span.
    (Vectorized here because importing scipy.stats costs about 0.5 s.)"""
    _, inv, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inv]


def spearman(u, v):
    """Spearman rank correlation with midrank tie handling.

    Returns nan when either input has zero rank variance.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.size < 2:
        raise ValueError("spearman requires two equal-length vectors of size >= 2")
    ru = _average_ranks(u)
    rv = _average_ranks(v)
    su = np.std(ru)
    sv = np.std(rv)
    if su == 0.0 or sv == 0.0:
        return math.nan
    return float(np.mean((ru - np.mean(ru)) * (rv - np.mean(rv))) / (su * sv))
