"""Synthetic graph-structured regression data.

Chains of 3D points stand in for protein-like structures: a reference chain
plus a noised "predicted" chain, with the per-node displacement as the
regression target.  A tabular generator with covariate-dependent noise covers
the non-geometric case.  All generators are deterministic in (config, seed).
"""

import json
import math
import numbers
import weakref
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy.spatial import cKDTree

from .numerics import rng_stream

DATASET_VERSION = "calpro-dataset/1"

GROUP_TAGS = ("helix-analog", "sheet-analog", "loop-analog")

SPLITS = ("train", "calibration", "test")

# the prior corruptions corrupt_priors applies
CORRUPTION_MODES = ("shuffle", "invert", "noise")

# perturb(kind="segment_swap") makes round(magnitude) swaps of loop runs, one
# Python step each (about 30 µs); past a few swaps per run they only reshuffle
# the same runs, so a swap count above this is rejected (about 0.3 s).
MAX_SEGMENT_SWAPS = 10_000

# a generator's feature matrix holds n_chains * chain_length * feature_dim
# float64 entries, and the other columns and the edges grow with the node
# count.  Past this many (800 MB of features alone) a run exhausts a desk
# machine's memory or does not finish (n_chains 10^12 ran until stopped), so
# validate rejects the config before anything is drawn.
MAX_FEATURE_ENTRIES = 10**8


@dataclass(frozen=True)
class GeneratorConfig:
    n_chains: int = 12
    chain_length: int = 40
    feature_dim: int = 16
    ordered_noise_scale: float = 0.3
    disordered_noise_scale: float = 1.5
    informativeness_eta: float = 1.0
    prior_noise: float = 0.1
    seed: int = 0

    def validate(self):
        if self.n_chains < 1 or self.chain_length < 4:
            raise ValueError("need at least one chain of length >= 4")
        if self.feature_dim < 8:
            raise ValueError("feature_dim must be >= 8")
        entries = self.n_chains * self.chain_length * self.feature_dim
        if entries > MAX_FEATURE_ENTRIES:
            raise ValueError(f"n_chains * chain_length * feature_dim is {entries}, above the "
                             f"limit of {MAX_FEATURE_ENTRIES} feature entries (MAX_FEATURE_ENTRIES)")
        if not (0.0 < self.ordered_noise_scale < math.inf
                and 0.0 < self.disordered_noise_scale < math.inf):
            raise ValueError("noise scales must be positive finite numbers")
        if not 0.0 <= self.informativeness_eta <= 1.0:
            raise ValueError("informativeness_eta must be in [0, 1]")
        if self.informativeness_eta > 0 and self.disordered_noise_scale < self.ordered_noise_scale:
            raise ValueError("disordered_noise_scale must be >= ordered_noise_scale when eta > 0")
        if not 0.0 <= self.prior_noise <= 1.0:
            raise ValueError("prior_noise must be in [0, 1]")


# the fields of Dataset that hold one row per node
_NODE_COLUMNS = ("features", "prior_b", "target_y", "group_tags", "disorder_flags", "splits",
                 "chain_coords", "chain_ids", "reference_coords")


@dataclass(frozen=True)
class Dataset:
    """Immutable graph-structured regression corpus.

    Every per-node column is a numpy array with one row per node:
    features (n, F); prior_b, target_y, disorder_flags, chain_ids (n,);
    group_tags and splits (n,) string arrays, splits in
    {train, calibration, test}; chain_coords and reference_coords (n, 3)
    predicted and reference coordinates, or None.  edges: (m, 2), one row
    per undirected edge, no edge twice; build_edges writes the rows sorted,
    with i < j, and subset relabels the rows it keeps but leaves them in
    their old order and orientation, so a subset on an index that is not
    ascending may hold unsorted rows with i > j.  metadata carries the
    generator echo.  group_tags and splits may be given as any sequence of
    strings; construction turns them into arrays.

    Values that depend only on the graph's structure are built once and kept
    in a graph memo (the mean adjacency head.forward uses, and the
    generator's feature noise for the graph's nodes, which perturb reuses).
    perturb and corrupt_priors change node values only, so their result
    shares its source's memo; dataclasses.replace gives a dataset of its
    own, as it may change the structure.  An inference head.forward keeps
    its latest prediction on the instance.  A dataset's arrays are
    therefore never written in place; derive a new dataset instead.
    """
    features: np.ndarray
    prior_b: np.ndarray
    target_y: np.ndarray
    group_tags: np.ndarray
    disorder_flags: np.ndarray
    edges: np.ndarray
    splits: np.ndarray
    chain_coords: np.ndarray | None
    chain_ids: np.ndarray
    reference_coords: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "group_tags", np.asarray(self.group_tags, dtype=str))
        object.__setattr__(self, "splits", np.asarray(self.splits, dtype=str))

    @property
    def n_nodes(self):
        return self.features.shape[0]

    def __getstate__(self):
        # the fields only: the graph memo holds weak references, which do not
        # pickle, and what other modules keep on the instance is the sender's
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def structural(self, key, build):
        """build(self) for a value that depends only on the graph's
        structure, built on first use and kept in the graph memo under key."""
        values = _graph_memo(self).values
        value = values.get(key)
        if value is None:
            value = values[key] = build(self)
        return value

    def split_indices(self, tag):
        """Ascending indices of the nodes whose split is tag."""
        return np.flatnonzero(self.splits == tag)

    def subset(self, idx):
        """Induced sub-dataset on the given node indices (edges relabeled).

        While a sub-dataset on the same idx of a dataset sharing this one's
        graph memo is alive, the result takes its edge rows and graph memo
        instead of scanning the edges again; otherwise the result is
        registered, weakly, for the next such call."""
        idx = np.asarray(idx, dtype=int)
        children = _graph_memo(self).children
        key = (idx.shape, idx.tobytes())
        twin = children.get(key)
        if twin is None:
            pos = -np.ones(self.n_nodes, dtype=int)
            pos[idx] = np.arange(idx.size)
            # a row survives, in place and orientation, when both ends are in
            # idx; two column tests, not .all(axis=1), slow over a length-2 axis
            rel = pos[self.edges]
            edges = np.compress((rel[:, 0] >= 0) & (rel[:, 1] >= 0), rel, axis=0)
        else:
            edges = twin.edges
        columns = {name: getattr(self, name) for name in _NODE_COLUMNS}
        sub = Dataset(**{name: None if column is None else column[idx]
                         for name, column in columns.items()},
                      edges=edges, metadata=dict(self.metadata))
        if twin is None:
            children[key] = sub
            return sub
        return _sharing_graph(twin, sub)

    def validate(self):
        n = self.n_nodes
        for name in ("features", "prior_b", "target_y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite {name}")
        if np.any(self.prior_b < 0) or np.any(self.prior_b > 1):
            raise ValueError("prior_b out of [0, 1]")
        if np.any(self.target_y < 0):
            raise ValueError("negative target_y")
        if self.edges.size:
            if np.any(self.edges < 0) or np.any(self.edges >= n):
                raise ValueError("edge index out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ValueError("self-loop edge")
        bad = self.splits[~np.isin(self.splits, SPLITS)]
        if bad.size:
            raise ValueError(f"bad split tag {str(bad[0])!r}")
        return self


class _GraphMemo:
    """One graph's structure-only values (values, by key) and the
    sub-datasets already taken from it (children, by index key, held
    weakly so that none outlives its holder's own references)."""

    def __init__(self):
        self.values = {}
        self.children = weakref.WeakValueDictionary()


def _graph_memo(ds):
    """ds's graph memo, made on first use.  An attribute, not a field, so
    dataclasses.replace does not carry it over."""
    memo = ds.__dict__.get("_graph")
    if memo is None:
        memo = _GraphMemo()
        object.__setattr__(ds, "_graph", memo)
    return memo


def _sharing_graph(source, derived):
    """derived, given source's graph memo: for a dataset with source's
    structure that differs from it in node values only."""
    object.__setattr__(derived, "_graph", _graph_memo(source))
    return derived


def _dedupe_edges(pairs):
    """Canonicalize to sorted unique (i, j) rows with i < j.  Sorts the int64
    keys i * n + j (n > every index): far faster than np.unique(axis=0)."""
    arr = np.sort(np.asarray(pairs, dtype=int).reshape(-1, 2), axis=1)
    arr = arr[arr[:, 0] != arr[:, 1]]
    if arr.size == 0:
        return np.zeros((0, 2), dtype=int)
    n = int(arr[:, 1].max()) + 1
    key = np.sort(arr[:, 0] * n + arr[:, 1])
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return np.column_stack((key // n, key % n))


def _segment_layout(length, rng):
    """Contiguous segments of length 5-12 with cycling group tags; loop
    segments carry the disorder flag."""
    tags = []
    disorder = []
    pos = 0
    while pos < length:
        seg_len = min(int(rng.integers(5, 13)), length - pos)
        tag = GROUP_TAGS[int(rng.integers(0, 3))]
        dis = tag == "loop-analog" and rng.random() < 0.8
        tags.extend([tag] * seg_len)
        disorder.extend([dis] * seg_len)
        pos += seg_len
    return tags, np.array(disorder, dtype=bool)


def _feature_noise(rng, n, feature_dim):
    """The generator's feature noise for n nodes, drawn from rng in this
    order: column 6's normals (n,), then the padding columns' (n,
    feature_dim - 8)."""
    return rng.standard_normal(n), rng.standard_normal((n, feature_dim - 8))


def _chain_features(pred_coords, target_y, onehots, noise):
    """Per-node features: local geometry from the predicted chain, segment
    one-hots (the masks of GROUP_TAGS, in order), a noisy copy of the target
    magnitude, and noise padding.

    The geometry is taken over pred_coords as one walk, all chains end to
    end: columns 0-2 (step forward, step back, curvature) of the nodes at a
    seam between two chains span it, and are 0 only at the first and last
    node of the whole array; column 7 is the distance from the centroid of
    all chains, not of the node's own chain.

    noise is _feature_noise's pair of draws, the only random part; perturb
    reuses the generator's draws so feature noise stays fixed and measured
    shifts reflect geometry/target changes only.
    """
    target_noise, padding = noise
    n = pred_coords.shape[0]
    feats = np.zeros((n, 8 + padding.shape[1]))
    step_fwd = np.zeros(n)
    step_fwd[:-1] = np.linalg.norm(np.diff(pred_coords, axis=0), axis=1)
    step_bwd = np.roll(step_fwd, 1)
    step_bwd[0] = 0.0
    curv = np.zeros(n)
    if n >= 3:
        v1 = pred_coords[1:-1] - pred_coords[:-2]
        v2 = pred_coords[2:] - pred_coords[1:-1]
        curv[1:-1] = np.linalg.norm(v2 - v1, axis=1)
    feats[:, 0] = step_fwd
    feats[:, 1] = step_bwd
    feats[:, 2] = curv
    for j, mask in enumerate(onehots):
        feats[:, 3 + j] = mask
    feats[:, 6] = target_y + 0.5 * target_noise
    feats[:, 7] = np.linalg.norm(pred_coords - pred_coords.mean(axis=0), axis=1)
    feats[:, 8:] = padding
    return feats


def gen_chain_dataset(cfg: GeneratorConfig) -> Dataset:
    """Chains of 3D points with ordered/disordered segments.

    The reference chain is a unit-step random walk; the predicted chain adds
    per-node Gaussian displacement whose scale is ordered_noise_scale on
    ordered nodes and interpolates toward disordered_noise_scale on
    disordered nodes as eta grows.  target_y is the realized displacement.
    """
    cfg.validate()
    rng = rng_stream(cfg.seed, 0)
    ref_list, pred_list, tags, dis_list, y_list, chain_ids = [], [], [], [], [], []
    for c in range(cfg.n_chains):
        n = cfg.chain_length
        steps = rng.standard_normal((n - 1, 3))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        ref = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        ref = ref + rng.standard_normal(3) * 5.0
        seg_tags, seg_dis = _segment_layout(n, rng)
        scale = cfg.ordered_noise_scale + cfg.informativeness_eta * (
            cfg.disordered_noise_scale - cfg.ordered_noise_scale) * seg_dis
        disp = scale[:, None] * rng.standard_normal((n, 3))
        pred = ref + disp
        ref_list.append(ref)
        pred_list.append(pred)
        tags.extend(seg_tags)
        dis_list.append(seg_dis)
        y_list.append(np.linalg.norm(disp, axis=1))
        chain_ids.extend([c] * n)
    pred_coords = np.vstack(pred_list)
    tags = np.array(tags)
    disorder = np.concatenate(dis_list)
    target_y = np.concatenate(y_list)
    prior_b = (1.0 - cfg.prior_noise) * disorder + cfg.prior_noise * rng.random(disorder.size)
    prior_b = np.clip(prior_b, 0.0, 1.0)
    feats = _chain_features(pred_coords, target_y, [tags == t for t in GROUP_TAGS],
                            _feature_noise(rng_stream(cfg.seed, 5), tags.size, cfg.feature_dim))
    ds = Dataset(
        features=feats,
        prior_b=prior_b,
        target_y=target_y,
        group_tags=tags,
        disorder_flags=disorder,
        edges=np.zeros((0, 2), dtype=int),
        splits=np.full(tags.size, "train"),
        chain_coords=pred_coords,
        chain_ids=np.array(chain_ids, dtype=int),
        reference_coords=np.vstack(ref_list),
        metadata={"generator": "chain", "config": asdict(cfg)},
    )
    ds = build_edges(ds, chain_window=5, spatial_radius=2.5)
    ds = split(ds, (0.6, 0.2, 0.2), mode="family_aware", seed=cfg.seed)
    return ds.validate()


def gen_tabular_dataset(cfg: GeneratorConfig) -> Dataset:
    """Tabular regression with covariate-dependent noise; the prior flags
    extreme covariate magnitude.  Edges are 5-NN in covariate space (all
    other nodes when there are fewer than 6)."""
    cfg.validate()
    rng = rng_stream(cfg.seed, 1)
    n = cfg.n_chains * cfg.chain_length
    d_cov = max(2, cfg.feature_dim - 2)
    x = rng.standard_normal((n, d_cov))
    extreme = np.max(np.abs(x), axis=1) > 1.7
    scale = cfg.ordered_noise_scale + cfg.informativeness_eta * (
        cfg.disordered_noise_scale - cfg.ordered_noise_scale) * extreme
    target_y = scale * np.abs(rng.standard_normal(n))
    prior_b = (1.0 - cfg.prior_noise) * extreme + cfg.prior_noise * rng.random(n)
    prior_b = np.clip(prior_b, 0.0, 1.0)
    feats = np.zeros((n, cfg.feature_dim))
    feats[:, :d_cov] = x
    feats[:, d_cov] = target_y + 0.5 * rng.standard_normal(n)
    feats[:, d_cov + 1:] = rng.standard_normal((n, cfg.feature_dim - d_cov - 1))
    tree = cKDTree(x)
    # past the n - 1 other nodes the tree pads with index n, out of range
    k = min(6, n)
    _, nn = tree.query(x, k=k)
    pairs = np.column_stack((np.repeat(np.arange(n), k - 1), nn[:, 1:].ravel()))
    ds = Dataset(
        features=feats,
        prior_b=prior_b,
        target_y=target_y,
        group_tags=np.where(extreme, "extreme", "core"),
        disorder_flags=extreme,
        edges=_dedupe_edges(pairs),
        splits=np.full(n, "train"),
        chain_coords=None,
        chain_ids=np.arange(n) // 50,
        metadata={"generator": "tabular", "config": asdict(cfg)},
    )
    ds = split(ds, (0.6, 0.2, 0.2), mode="random", seed=cfg.seed)
    return ds.validate()


def build_edges(ds: Dataset, chain_window=5, spatial_radius=2.5) -> Dataset:
    """Edge set = same-chain pairs within chain_window, plus all pairs within
    spatial_radius of each other (predicted coordinates)."""
    if chain_window < 1 or spatial_radius < 0:
        raise ValueError("chain_window must be >= 1 and spatial_radius >= 0")
    if spatial_radius > 0 and ds.chain_coords is None:
        raise ValueError("spatial edges require chain_coords")
    # an infinite radius joins every same-chain pair: a window no chain exceeds
    window = ds.n_nodes if math.isinf(spatial_radius) else chain_window
    pairs = [_chain_window_pairs(ds.chain_ids, window)]
    if 0 < spatial_radius < math.inf:
        tree = cKDTree(ds.chain_coords)
        pairs.append(tree.query_pairs(spatial_radius, output_type="ndarray"))
    return replace(ds, edges=_dedupe_edges(np.concatenate(pairs)))


def _chain_window_pairs(chain_ids, window):
    """(a, b) for nodes a before b in the same chain with at most window - 1
    chain members between them; a chain's members are its nodes in index
    order."""
    order = np.argsort(chain_ids, kind="stable")
    ids = chain_ids[order]
    pairs = [np.zeros((0, 2), dtype=int)]
    for w in range(1, window + 1):
        same = ids[:-w] == ids[w:]
        if not same.any():
            break   # chains are contiguous in order: no pair at any larger w
        pairs.append(np.column_stack((order[:-w][same], order[w:][same])))
    return np.concatenate(pairs)


def check_magnitude(magnitude, name="magnitude"):
    """Raise ValueError, naming the value `name`, unless magnitude is a
    finite, positive number."""
    if (isinstance(magnitude, bool) or not isinstance(magnitude, numbers.Real)
            or not math.isfinite(magnitude)):
        raise ValueError(f"{name} must be a finite number, got {magnitude!r}")
    if magnitude <= 0:
        raise ValueError(f"{name} must be positive")


def perturb(ds: Dataset, kind, magnitude, seed=0) -> Dataset:
    """Perturb the predicted chain and recompute target_y as the displacement
    from the reference chain.  Features are rebuilt from the perturbed chain
    so downstream predictions see the perturbed geometry; the result shares
    ds's graph memo.

    The feature noise is the generator's, drawn from its stream once per
    graph memo (_generator_noise), so a dataset that carries its generator
    config must hold the generator's whole node set in generator order: a
    node count other than n_chains * chain_length, or a chain id below its
    predecessor's, raises ValueError.  Nodes reordered within one chain go
    undetected.  A magnitude whose coordinates or targets overflow to a
    non-finite value raises ValueError too, with no numpy warning."""
    if ds.chain_coords is None or ds.reference_coords is None:
        raise ValueError("perturb requires chain_coords and reference coordinates")
    cfg = ds.metadata.get("config")
    if cfg is not None and (ds.n_nodes != cfg["n_chains"] * cfg["chain_length"]
                            or np.any(ds.chain_ids[1:] < ds.chain_ids[:-1])):
        raise ValueError("perturb requires the generator's whole node set in generator order "
                         "(the feature noise is the generator's stream)")
    check_magnitude(magnitude)
    with np.errstate(over="ignore", invalid="ignore"):
        coords, target_y, feats = _perturbed(ds, kind, magnitude, seed)
    # column 6 holds target_y plus noise, so this covers the targets too
    if not np.isfinite(feats).all():
        raise ValueError(f"{kind} perturbation of magnitude {magnitude!r} gives non-finite "
                         "coordinates or targets")
    meta = dict(ds.metadata)
    meta["perturbation"] = {"kind": kind, "magnitude": magnitude, "seed": seed}
    return _sharing_graph(ds, replace(ds, chain_coords=coords, target_y=target_y,
                                      features=feats, metadata=meta))


def _perturbed(ds, kind, magnitude, seed):
    """perturb's (chain_coords, target_y, features), unchecked."""
    rng = rng_stream(seed, 2)
    coords = np.array(ds.chain_coords)
    ids = ds.chain_ids
    if kind == "gaussian":
        coords = coords + magnitude * rng.standard_normal(coords.shape)
    elif kind == "segment_swap":
        n_swaps = max(1, int(round(magnitude)))
        if n_swaps > MAX_SEGMENT_SWAPS:
            raise ValueError(f"segment_swap magnitude {magnitude!r} asks for {n_swaps} swaps, "
                             f"above the limit of {MAX_SEGMENT_SWAPS} (MAX_SEGMENT_SWAPS)")
        runs = _loop_runs(ds)
        for _ in range(n_swaps):
            if len(runs) < 2:
                break
            i, j = rng.choice(len(runs), size=2, replace=False)
            a, b = runs[i], runs[j]
            L = min(len(a), len(b))
            a, b = a[:L], b[:L]
            coords[a], coords[b] = coords[b].copy(), coords[a].copy()
    elif kind == "block_rotate":
        c = int(rng.integers(0, np.max(ids) + 1))
        idx = np.flatnonzero(ids == c)
        blk_len = max(3, idx.size // 4)
        start = int(rng.integers(0, idx.size - blk_len + 1))
        blk = idx[start:start + blk_len]
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = _rotation_matrix(axis, magnitude)
        centroid = coords[blk].mean(axis=0)
        coords[blk] = (coords[blk] - centroid) @ rot.T + centroid
    elif kind == "blur":
        # a window never leaves its chain: no half-width past the node count differs
        coords = _blur(coords, ids, min(max(1, int(round(magnitude))), ds.n_nodes))
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    target_y = np.linalg.norm(coords - ds.reference_coords, axis=1)
    feats = _chain_features(coords, target_y, [ds.group_tags == t for t in GROUP_TAGS],
                            _generator_noise(ds))
    return coords, target_y, feats


def _generator_noise(ds):
    """The feature noise the generator drew for ds's nodes, from the stream
    of its config's seed (0 without a config), at ds's feature width.  Kept
    in ds's graph memo under (seed, width), so the perturbations of one
    dataset, and of the datasets sharing its memo, draw it once."""
    seed = int(ds.metadata.get("config", {}).get("seed", 0))
    fdim = ds.features.shape[1]
    return ds.structural(("feature_noise", seed, fdim),
                         lambda d: _feature_noise(rng_stream(seed, 5), d.n_nodes, fdim))


def _blur(coords, ids, half):
    """Each node's coordinates replaced by the mean over the nodes at most
    `half` places from it along its chain.  The window's rows are added in
    chain order and the sum divided by the row count, which is what
    `coords[window].mean(axis=0)` does, so the result is bitwise the same."""
    order = np.argsort(ids, kind="stable")    # chain by chain, node order within
    sorted_ids = ids[order]
    n = order.size
    first = np.ones(n, dtype=bool)            # first node of its chain
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    chain = np.cumsum(first) - 1
    limits = np.r_[np.flatnonzero(first), n]  # chain c holds [limits[c], limits[c + 1])
    pos = np.arange(n)
    lo = np.maximum(limits[chain], pos - half)
    hi = np.minimum(limits[chain + 1], pos + half + 1)
    width = hi - lo
    rows = coords[order]
    # numpy's sum starts from +0.0, so a window of -0.0 rows sums to +0.0
    acc = rows[lo] + 0.0
    for step in range(1, int(width.max(initial=1))):
        take = width > step
        acc[take] += rows[lo[take] + step]
    out = np.empty_like(coords)
    out[order] = acc / width[:, None]
    return out


def _loop_runs(ds):
    """Maximal runs of consecutive node indices, at least 3 long, that are
    loop-analog and on one chain, as int arrays in index order."""
    loop = ds.group_tags == "loop-analog"
    ids = ds.chain_ids
    n = loop.size
    # joined[i]: node i continues node i - 1's run (for 0 < i < n)
    joined = np.zeros(n + 1, dtype=bool)
    joined[1:n] = loop[1:] & loop[:-1] & (ids[1:] == ids[:-1])
    starts = np.flatnonzero(loop & ~joined[:n])
    stops = np.flatnonzero(loop & ~joined[1:]) + 1
    return [np.arange(a, b) for a, b in zip(starts.tolist(), stops.tolist()) if b - a >= 3]


def _rotation_matrix(axis, theta):
    """Rodrigues rotation about a unit axis."""
    ux, uy, uz = axis
    c, s = math.cos(theta), math.sin(theta)
    k = np.array([[0, -uz, uy], [uz, 0, -ux], [-uy, ux, 0]])
    return np.eye(3) * c + s * k + (1 - c) * np.outer(axis, axis)


def check_corruption_mode(mode):
    """Raise ValueError unless mode is one of CORRUPTION_MODES."""
    if mode not in CORRUPTION_MODES:
        raise ValueError(f"unknown corruption mode {mode!r}")


def corrupt_priors(ds: Dataset, mode, seed=0, sigma=0.2) -> Dataset:
    """Replace prior_b per the corruption mode; all other fields untouched,
    and the result shares ds's graph memo."""
    check_corruption_mode(mode)
    # checked in every mode, though only noise reads it: a bad value is an error
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a nonnegative finite number, got {sigma!r}")
    rng = rng_stream(seed, 3)
    b = np.array(ds.prior_b)
    if mode == "shuffle":
        b = b[rng.permutation(b.size)]
    elif mode == "invert":
        b = 1.0 - b
    else:
        b = np.clip(b + sigma * rng.standard_normal(b.size), 0.0, 1.0)
    return with_priors(ds, b)


def with_priors(ds: Dataset, prior_b) -> Dataset:
    """ds with its prior_b replaced; the result shares ds's graph memo."""
    return _sharing_graph(ds, replace(ds, prior_b=prior_b))


def split(ds: Dataset, fractions, mode="family_aware", seed=0) -> Dataset:
    """Assign train/calibration/test tags.  family_aware assigns whole chains
    to one split; random assigns nodes independently."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three nonnegative values summing to 1")
    rng = rng_stream(seed, 4)
    # a unit (a chain, or a node in random mode) takes one tag
    if mode == "family_aware":
        chains, node_unit = np.unique(ds.chain_ids, return_inverse=True)
        n_units = chains.size
    elif mode == "random":
        n_units = ds.n_nodes
        node_unit = np.arange(n_units)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    order = rng.permutation(n_units)
    tags = np.repeat(SPLITS, _allocate(n_units, fractions))
    unit_tags = np.empty_like(tags)
    unit_tags[order] = tags
    return replace(ds, splits=unit_tags[node_unit])


def _allocate(total, fractions):
    """Largest-remainder allocation of total items to the three fractions."""
    raw = [f * total for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    rem = total - sum(counts)
    order = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in range(rem):
        counts[order[i]] += 1
    return counts


def _float_lists(a):
    return np.asarray(a, dtype=float).tolist()


def save_dataset(ds: Dataset, path):
    """UTF-8 JSON, schema calpro-dataset/1."""
    rows = zip(_float_lists(ds.features), _float_lists(ds.prior_b), _float_lists(ds.target_y),
               ds.group_tags.tolist(), np.asarray(ds.disorder_flags, dtype=bool).tolist())
    doc = {
        "version": DATASET_VERSION,
        "nodes": [f + [p, y, tag, flag] for f, p, y, tag, flag in rows],
        "edges": np.asarray(ds.edges, dtype=int).tolist(),
        "splits": ds.splits.tolist(),
        "chain_coords": None if ds.chain_coords is None else _float_lists(ds.chain_coords),
        "metadata": {
            **ds.metadata,
            "chain_ids": np.asarray(ds.chain_ids, dtype=int).tolist(),
            "reference_coords": (None if ds.reference_coords is None
                                 else _float_lists(ds.reference_coords)),
        },
    }
    # one json.dumps: json.dump streams through the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed dataset file at byte offset {exc.pos}: {exc.msg}") from exc
    _check_schema(doc)
    rows = doc["nodes"]
    n, fdim = len(rows), len(rows[0]) - 4
    meta = dict(doc["metadata"])
    ref = meta.pop("reference_coords", None)
    # an empty edge list is [], which numpy reads as floats of shape (0,)
    edges = (np.zeros((0, 2), dtype=int) if doc["edges"] == [] else
             _column(doc["edges"], _INTEGERS, (None, 2), "edges must be [i, j] pairs of integers"))
    ds = Dataset(
        features=_column([r[:fdim] for r in rows], _NUMBERS, (n, fdim),
                         "node features must be numbers"),
        prior_b=_column([r[fdim] for r in rows], _NUMBERS, (n,), "prior_b must be numbers"),
        target_y=_column([r[fdim + 1] for r in rows], _NUMBERS, (n,), "target_y must be numbers"),
        group_tags=_column([r[fdim + 2] for r in rows], "U", (n,), "group tags must be strings"),
        disorder_flags=_column([r[fdim + 3] for r in rows], "b", (n,),
                               "disorder flags must be booleans"),
        edges=edges,
        splits=_column(doc["splits"], "U", (n,), "splits must be strings"),
        chain_coords=(None if doc["chain_coords"] is None else _column(
            doc["chain_coords"], _NUMBERS, (n, 3), "chain_coords must be n [x, y, z] numbers")),
        chain_ids=_column(meta.pop("chain_ids"), _INTEGERS, (n,), "chain_ids must be integers"),
        reference_coords=(None if ref is None else _column(
            ref, _NUMBERS, (n, 3), "reference_coords must be n [x, y, z] numbers")),
        metadata=meta,
    )
    return ds.validate()


# the numpy dtype kinds of a column of numbers (floats, or integers within
# uint64) and of a column of integers (within int64)
_NUMBERS, _INTEGERS = "fiu", "i"


def _column(values, kinds, shape, message):
    """values, a JSON array, as a numpy array of one of the dtype kinds and of
    shape (None matches any length), a number column as floats; else
    ValueError(message).  numpy picks the dtype from the values, so a value
    of another kind is an error, never a conversion: "no" is no disorder
    flag, 0.5 no chain id, and an integer beyond int64 (read as a float or
    an object) no edge index."""
    try:
        arr = np.asarray(values)
    except ValueError:      # ragged nesting
        raise ValueError(message) from None
    if (arr.dtype.kind not in kinds or arr.ndim != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, arr.shape))):
        raise ValueError(message)
    return arr.astype(float, copy=False) if "f" in kinds else arr


def _check_schema(doc):
    """Raise ValueError unless doc has the calpro-dataset/1 layout that
    load_dataset indexes into."""
    if not isinstance(doc, dict):
        raise ValueError("dataset file must hold a JSON object")
    if doc.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset schema version {doc.get('version')!r}, "
                         f"expected {DATASET_VERSION!r}")
    missing = sorted({"nodes", "edges", "splits", "chain_coords", "metadata"} - set(doc))
    if not isinstance(doc.get("metadata"), dict) or "chain_ids" not in doc["metadata"]:
        missing.append("metadata.chain_ids")
    if missing:
        raise ValueError(f"dataset file lacks keys: {', '.join(missing)}")
    rows = doc["nodes"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("dataset file has no nodes")
    if any(not isinstance(r, list) or len(r) != len(rows[0]) for r in rows) or len(rows[0]) < 5:
        raise ValueError("node rows must be lists of one length >= 5")
    for key, seq in (("splits", doc["splits"]), ("chain_ids", doc["metadata"]["chain_ids"])):
        if not isinstance(seq, list) or len(seq) != len(rows):
            raise ValueError(f"{key} must list one entry per node ({len(rows)})")
