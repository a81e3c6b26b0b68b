"""Message-passing evidential head.

Produces per-node Normal-Inverse-Gamma parameters (mu, nu, alpha, beta).
Forward and backward passes are written out explicitly; backward consumes
gradients w.r.t. the four constrained outputs and returns gradients w.r.t.
all weights (the vector-Jacobian contract used by the objective).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .numerics import rng_stream, softplus, softplus_sigmoid

HEAD_VERSION = "calpro-head/2"


@dataclass(frozen=True)
class NIGParams:
    """Evidential output; invariants nu > 0, alpha > 1, beta > 0."""
    mu: np.ndarray
    nu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def validate(self):
        if np.any(self.nu <= 0) or np.any(self.alpha <= 1) or np.any(self.beta <= 0):
            raise ValueError("NIG constraint violation")
        return self


@dataclass(frozen=True)
class HeadConfig:
    widths: tuple[int, ...] = (16, 32, 16)

    def validate(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")
        return self


@dataclass
class HeadParams:
    """Per-layer self/message/bias weights plus a 5-column readout, of which
    forward reads the first four (see init_head).

    Every weight array may carry a leading arm axis: a stack of heads of one
    shape (see view), which forward and backward evaluate arm by arm in one
    pass.  One head is a HeadParams without it."""
    layers: list                 # dicts with w_self, w_msg, b
    w_out: np.ndarray
    b_out: np.ndarray
    config: HeadConfig = field(default_factory=HeadConfig)
    feature_dim: int = 16

    @property
    def arms(self):
        """The leading arm shape: () for one head, (arms,) for a stack."""
        return self.b_out.shape[:-1]

    def to_vector(self):
        """The weights as one flat array, or one row per arm for a stack."""
        parts = [lay[key] for lay in self.layers for key in ("w_self", "w_msg", "b")]
        parts += [self.w_out, self.b_out]
        return np.concatenate([a.reshape(self.arms + (-1,)) for a in parts], axis=-1)

    @property
    def size(self):
        """Number of weights of one arm, the length of to_vector()'s rows."""
        return (sum(a.size for lay in self.layers for a in lay.values())
                + self.w_out.size + self.b_out.size) // math.prod(self.arms)

    def view(self, vec):
        """HeadParams of the same layer shapes whose weights are views into
        the float array vec, in to_vector() order: writing into vec moves
        the weights.  A vec of shape (arms, size) gives a stack of heads,
        one per row."""
        pos = 0
        arms = vec.shape[:-1]
        skip = len(self.arms)

        def take(shape):
            nonlocal pos
            shape = shape[skip:]
            n = math.prod(shape)
            part = vec[..., pos:pos + n].reshape(arms + shape)
            pos += n
            return part

        layers = [{key: take(lay[key].shape) for key in ("w_self", "w_msg", "b")}
                  for lay in self.layers]
        w_out = take(self.w_out.shape)
        b_out = take(self.b_out.shape)
        if pos != vec.shape[-1]:
            raise ValueError("vector length mismatch")
        return HeadParams(layers, w_out, b_out, self.config, self.feature_dim)

    def from_vector(self, vec):
        """New HeadParams with the same shapes, weights copied from vec."""
        return self.view(np.array(vec, dtype=float))


def init_head(config: HeadConfig, feature_dim, seed) -> HeadParams:
    """Symmetric uniform init scaled by fan-in, drawn from seed's stream 10."""
    config.validate()
    rng = rng_stream(seed, 10)
    dims = [feature_dim] + list(config.widths)
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        s = 1.0 / np.sqrt(din)
        layers.append({
            "w_self": rng.uniform(-s, s, size=(din, dout)),
            "w_msg": rng.uniform(-s, s, size=(din, dout)),
            "b": np.zeros(dout),
        })
    s = 1.0 / np.sqrt(dims[-1])
    # column 4 feeds no output, but dropping it rounds the readout product
    # differently and changes the weights the bound's KL counts (ROADMAP
    # item 4), so it stays until the KL changes anyway
    w_out = rng.uniform(-s, s, size=(dims[-1], 5))
    return HeadParams(layers, w_out, np.zeros(5), config, feature_dim)


def mean_adjacency(n_nodes, edges):
    """Row-normalized neighbor matrix; empty neighborhoods give zero rows."""
    if len(edges) == 0:
        return sparse.csr_matrix((n_nodes, n_nodes))
    e = np.asarray(edges, dtype=int)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    deg = np.bincount(rows, minlength=n_nodes).astype(float)
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    vals = inv[rows]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))


def _kept(owner, key, source, build):
    """build(source), kept on owner under key until a call passes another
    source object: a training hands the same gradient buffer to every step."""
    kept = owner.__dict__.get(key)
    if kept is None or kept[0] is not source:
        kept = owner.__dict__[key] = (source, build(source))
    return kept[1]


def _adjacency(ds):
    """(ds's mean_adjacency, its transpose as a CSC view), built once per
    graph and kept in ds's graph memo (see datagen.Dataset)."""
    def build(d):
        adj = mean_adjacency(d.n_nodes, d.edges)
        return adj, adj.T
    return ds.structural("adjacency", build)


def _spmm(adj, x):
    """adj @ x for x of shape (n, d), or for each arm of x (arms, n, d): the
    arms are taken as extra columns of one sparse product, which computes
    every column as it would alone."""
    if x.ndim == 2:
        return adj @ x
    arms, n, d = x.shape
    cols = x.transpose(1, 0, 2).reshape(n, arms * d)
    return (adj @ cols).reshape(n, arms, d).transpose(1, 0, 2)


def forward(params: HeadParams, ds, with_cache=False):
    """Evaluate the head on a dataset.

    Returns NIGParams or, with_cache, (NIGParams, cache) where the cache
    dict feeds the backward pass.  A stack of heads gives NIGParams whose
    arrays have a leading arm axis.

    Without the cache, the prediction is kept on ds (the dataset is
    immutable) under the head's config, weight shape and weight bytes, and
    a call with the same head returns it again: a report predicts each set
    once, however many of its parts ask.  Its arrays are read-only.  With
    the cache (training) nothing is kept or looked up.
    """
    if ds.features.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {ds.features.shape[1]} does not match head "
                         f"({params.feature_dim})")
    if not with_cache:
        # bytes, not values: -0.0 and 0.0 are different weights here
        w = params.to_vector()
        key = (params.config, w.shape, w.tobytes())
        kept = ds.__dict__.get("_forward")
        if kept is not None and kept[0] == key:
            return kept[1]
    adj, adj_t = _adjacency(ds)
    # layer 0's message sees no weights: kept per instance, as it reads the features
    message0 = _kept(ds, "_message0", None, lambda _: adj @ ds.features)
    h = ds.features
    cache = {"adj": adj, "adj_t": adj_t, "hs": [h], "ms": [], "zs": []}
    for li, lay in enumerate(params.layers):
        m = message0 if li == 0 else _spmm(adj, h)
        cache["ms"].append(m)
        # summed in place, in the order of h @ w_self + m @ w_msg + b
        z = h @ lay["w_self"]
        z += m @ lay["w_msg"]
        z += lay["b"][..., None, :]
        cache["zs"].append(z)
        h = np.maximum(z, 0.0)
        cache["hs"].append(h)
    raw = h @ params.w_out
    raw += params.b_out[..., None, :]
    cache["raw"] = raw
    # softplus underflows to 0 for very negative inputs; floor far enough
    # above zero that the strict constraints hold and downstream terms like
    # beta / (nu^2 (alpha - 1)) stay finite
    floor = 1e-10
    if with_cache:      # backward's derivatives of the three softplus
        sp, cache["sig"] = softplus_sigmoid(raw[..., 1:4])
    else:
        sp = softplus(raw[..., 1:4])
    nig = NIGParams(
        mu=raw[..., 0],
        nu=np.maximum(sp[..., 0], floor),
        alpha=np.maximum(1.0 + sp[..., 1], 1.0 + floor),
        beta=np.maximum(sp[..., 2], floor),
    )
    if with_cache:
        return nig, cache
    for a in (nig.mu, nig.nu, nig.alpha, nig.beta):
        a.flags.writeable = False
    object.__setattr__(ds, "_forward", (key, nig))
    return nig


def backward(params: HeadParams, cache, d_mu, d_nu, d_alpha, d_beta, out=None):
    """Vector-Jacobian product: gradients of a scalar loss w.r.t. HeadParams
    given its gradients w.r.t. the constrained outputs.

    The gradients are written into the array out (to_vector() order, one
    row per arm for a stack; a new one when None) and returned as a
    HeadParams view of it, the same view while params and out are the same
    objects.
    """
    raw = cache["raw"]
    d_raw = np.zeros_like(raw)
    d_raw[..., 0] = d_mu
    sig = cache["sig"]
    d_raw[..., 1] = d_nu * sig[..., 0]
    d_raw[..., 2] = d_alpha * sig[..., 1]
    d_raw[..., 3] = d_beta * sig[..., 2]
    if out is None:
        out = np.empty(params.arms + (params.size,))
    out.fill(0.0)
    grads = _kept(params, "_grad_view", out, params.view)
    h_last = cache["hs"][-1]
    grads.w_out += h_last.swapaxes(-1, -2) @ d_raw
    grads.b_out += d_raw.sum(axis=-2)
    d_h = d_raw @ params.w_out.swapaxes(-1, -2)
    adj_t = cache["adj_t"]     # CSC view; the same products as its CSR copy
    for li in reversed(range(len(params.layers))):
        lay = params.layers[li]
        d_z = d_h * (cache["zs"][li] > 0)
        g = grads.layers[li]
        g["w_self"] += cache["hs"][li].swapaxes(-1, -2) @ d_z
        g["w_msg"] += cache["ms"][li].swapaxes(-1, -2) @ d_z
        g["b"] += d_z.sum(axis=-2)
        if li > 0:      # no gradient w.r.t. the input features
            d_h = d_z @ lay["w_self"].swapaxes(-1, -2)
            d_h += _spmm(adj_t, d_z @ lay["w_msg"].swapaxes(-1, -2))
    return grads


def epistemic_variance(p: NIGParams):
    """Var[mu] = beta / (nu * (alpha - 1)), the variance of the mean under the
    NIG."""
    return p.beta / (p.nu * (p.alpha - 1.0))


def aleatoric_variance(p: NIGParams):
    """Expected observation variance beta / (alpha - 1)."""
    return p.beta / (p.alpha - 1.0)


def save_head(params: HeadParams, path):
    doc = {
        "version": HEAD_VERSION,
        "config": {"widths": list(params.config.widths)},
        "feature_dim": params.feature_dim,
        "shapes": [[list(lay["w_self"].shape), list(lay["w_msg"].shape), len(lay["b"])]
                   for lay in params.layers],
        "weights": [float(v) for v in params.to_vector()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_head(path) -> HeadParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed head file at byte offset {exc.pos}: {exc.msg}") from exc
    if doc.get("version") != HEAD_VERSION:
        raise ValueError(f"unsupported head version {doc.get('version')!r}, expected {HEAD_VERSION!r}")
    cfg = HeadConfig(widths=tuple(doc["config"]["widths"]))
    template = init_head(cfg, doc["feature_dim"], 0)    # weights replaced below
    expected = [[list(lay["w_self"].shape), list(lay["w_msg"].shape), len(lay["b"])]
                for lay in template.layers]
    if doc["shapes"] != expected:
        raise ValueError("head config does not match stored weight shapes")
    return template.from_vector(np.array(doc["weights"], dtype=float))
