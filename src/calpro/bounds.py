"""Shift-robustness bounds: local Lipschitz estimation of the nonconformity
score, the Gaussian PAC-Bayes complexity term, the worst-case coverage
lower bound, and the calibration-size and bound-vs-empirical sweeps."""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import conformal as conf_mod
from . import head as head_mod
from . import metrics as metrics_mod

METRIC_DESCRIPTION = "euclidean distance on standardized (features + target) space"

# k-d tree leaf size for the k-NN queries.  The standardized embedding has 17
# columns and near-isotropic spread, so a query visits nearly every point
# whatever the tree, and larger leaves than scipy's default 16 cut the
# traversal overhead.  estimate_lipschitz queries each block of rows with
# equal one-hot columns against a tree of its own, and the rows whose k-NN
# ball may leave their block against a tree of all points.  The six searches
# of a bound sweep plus an n_cal sweep on a 100x100 graph (250 to 4000
# points, blocks of about a third of them), run on the sweeps' helper thread
# beside their calibration, take 100-106 ms with 64-point leaves, 94-99 ms
# with 128, 94-99 ms with 256 and 94-102 ms with 512 (medians of 20 runs at
# seeds 0 and 3, 2-core x86-64): no size beats 128 beyond the noise.
KNN_LEAFSIZE = 128

# every CPU the process may run on: the threads of a k-NN query, and the
# training workers of the experiment recipes (experiments._train_runs).
# scipy answers each query row on its own, with the same distance code in
# every thread, so the estimate does not depend on the count.  The sweeps'
# helper thread, which runs their k-NN searches, is one thread whatever the
# count.
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

# a k-NN query of fewer (query row, tree point) pairs than this runs on one
# thread: there, starting the threads costs more than they save.  On the
# calibration sets of a 100x100 graph (2-core x86-64), with the searches on
# the sweeps' helper thread beside their calibration, the 4000-point search
# takes 52-57 ms with its queries on two threads against 58-62 ms on one, the
# 2000-point one 19-21 ms on either, and the 1000-point one, whose largest
# query holds 252,000 pairs, 6-7 ms on either (medians of 40 runs at seeds 0
# and 3).
KNN_THREAD_PAIRS = 300_000

# confidence parameter of the PAC-Bayes term, the k of the Lipschitz
# estimate's k-NN balls, and the calibration-set sizes ncal_sweep walks through
DEFAULT_DELTA = 0.05
DEFAULT_K_NEIGHBORS = 5
DEFAULT_NCAL_SIZES = (250, 500, 1000, 2000, 4000)


@dataclass(frozen=True)
class BoundReport:
    kl: float
    lipschitz: float
    delta: float
    n_cal: int
    epsilons: tuple
    bounds: tuple             # clamped values
    raw_bounds: tuple         # pre-clamp values
    vacuous: tuple
    empirical_coverage: tuple
    conservative: tuple       # bound <= empirical per condition
    metric: str = METRIC_DESCRIPTION

    def to_dict(self):
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _embed(ds, mean=None, std=None):
    """(features + target) rows, optionally standardized by given stats."""
    x = np.column_stack([ds.features, ds.target_y])
    if mean is None:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return (x - mean) / std, mean, std
    return (x - mean) / std


def _query(tree, x, k):
    """tree.query(x, k), on CPUS threads unless the query is small."""
    workers = CPUS if x.shape[0] * tree.n >= KNN_THREAD_PAIRS else 1
    return tree.query(x, k=k, workers=workers)


def _ball_slopes(x, s, rows, k, limit=math.inf):
    """Query rows of the distinct points x against a tree of x: the max slope
    |s_i - s_j| / d_ij over the inclusive k-NN ball of each row whose k-th
    distance lies below limit, and the rows whose k-th distance does not."""
    n = x.shape[0]
    tree = cKDTree(x, leafsize=KNN_LEAFSIZE)
    best, m = 0.0, k + 2
    dist, nn = _query(tree, x[rows], min(m, n))
    near = dist[:, k] < limit
    far, rows, dist, nn = rows[~near], rows[near], dist[near], nn[near]
    while True:
        # column 0 is each point itself, column k its k-th neighbour
        pair = (dist > 0) & (dist <= dist[:, k:k + 1])
        slopes = np.abs(s[rows, None] - s[nn])[pair] / dist[pair]
        best = max(best, float(slopes.max(initial=0.0)))
        # a row whose last column still ties its k-th distance may have more
        # ties beyond it: query those rows again, twice as deep
        rows = rows[dist[:, -1] == dist[:, k]] if m < n else rows[:0]
        if not rows.size:
            return best, far
        m *= 2
        dist, nn = _query(tree, x[rows], min(m, n))


def estimate_lipschitz(scores, cal_ds, k_neighbors=DEFAULT_K_NEIGHBORS, standardize=True):
    """Max local slope of the per-node nonconformity scores over k-NN pairs
    on the calibration set.  Exact duplicate points are collapsed first,
    which realizes the zero-distance skip.

    A point's neighbours are all points at a distance no greater than its
    k-th nearest (the inclusive k-NN ball), so points tied at the k-th
    distance all count and the estimate depends on the point set alone, not
    on the order in which the tree meets them.

    Rows that agree on every two-valued column (each entry its column's min
    or max, min < max: one-hot indicators, say) form a block.  A point
    outside block b lies at least gap_b from every point in it, gap_b being
    the distance over those columns alone from b's key to the nearest other
    key, since the other columns only add nonnegative terms.  So a row of a
    block of more than k rows whose k-th distance in a tree of its own block
    lies below gap_b (less a 1e-9 share for rounding) has the same inclusive
    ball, hence the same slopes, as in a tree of all points.  Every other
    row is queried against all points.  With no two-valued column that is
    every row, in one query."""
    if standardize:
        x, _, _ = _embed(cal_ds)
    else:
        x = np.column_stack([cal_ds.features, cal_ds.target_y])
    return _max_ball_slope(*_distinct(x, scores), k_neighbors)


def _distinct(x, scores):
    """The first occurrence of each distinct row of x, in their original
    order, and its score."""
    first = np.sort(np.unique(x, axis=0, return_index=True)[1])
    return x[first], scores[first]


def _max_ball_slope(x, s, k_neighbors=DEFAULT_K_NEIGHBORS):
    """estimate_lipschitz's k-NN search over the distinct points x with
    scores s: a function of numpy arrays alone, so the sweeps can run it on
    their helper thread."""
    n = x.shape[0]
    if n < 2:
        raise ValueError("all calibration pairs are zero-distance")
    k = min(k_neighbors, n - 1)
    lo, hi = x.min(axis=0), x.max(axis=0)
    two = np.flatnonzero((lo < hi) & ((x == lo) | (x == hi)).all(axis=0))
    if not two.size:
        return _ball_slopes(x, s, np.arange(n), k)[0]
    # rows sorted by their key (which columns sit at their max); a block
    # starts wherever the key changes
    bits = x[:, two] == hi[two]
    order = np.lexsort(bits.T)
    bits = bits[order]
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    keys = bits[starts]
    span2 = (hi[two] - lo[two]) ** 2
    best, rest = 0.0, []
    for b, members in enumerate(np.split(order, starts[1:])):
        if members.size <= k:
            rest.append(members)
            continue
        gap2 = (keys != keys[b]) @ span2
        gap2[b] = math.inf
        slope, far = _ball_slopes(x[members], s[members], np.arange(members.size), k,
                                  math.sqrt(gap2.min()) * (1.0 - 1e-9))
        best = max(best, slope)
        rest.append(members[far])
    rest = np.concatenate(rest)
    if rest.size:
        best = max(best, _ball_slopes(x, s, rest, k)[0])
    return best


def _kl(head_params):
    """The KL term of the sweeps: the isotropic Gaussian posterior N(w_hat, I)
    around the trained weights against the prior N(0, I), |w_hat|^2 / 2.  The
    posterior scale equals the prior's, where the KL is smallest whatever the
    weights."""
    w = head_params.to_vector()
    return float(np.sum(w * w) / 2.0)


def _check_confidence(delta, n_cal):
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if n_cal < 1:
        raise ValueError("n_cal must be >= 1")


def coverage_lower_bound(alpha, kl, delta, n_cal, lipschitz, epsilon):
    """Worst-case coverage 1 - alpha - sqrt((KL + log(1/delta)) / (2 n_cal))
    - L_s * epsilon, clamped to [0, 1 - alpha].

    Returns (clamped value, raw value, vacuous flag).
    """
    _check_confidence(delta, n_cal)
    raw = 1.0 - alpha - math.sqrt((kl + math.log(1.0 / delta)) / (2.0 * n_cal)) - lipschitz * epsilon
    clamped = min(max(raw, 0.0), 1.0 - alpha)
    return clamped, raw, raw <= 0.0


def epsilon_proxy(ref_ds, shifted_ds, mean, std):
    """Mean standardized displacement between aligned node embeddings."""
    a = _embed(ref_ds, mean, std)
    b = _embed(shifted_ds, mean, std)
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def bound_vs_empirical_sweep(head_params, cal_ds, calib, ref_test_ds, shifted_series,
                             tau=conf_mod.DEFAULT_TAU, delta=DEFAULT_DELTA) -> BoundReport:
    """Bound value and empirical coverage per shift condition.

    shifted_series is a list of shifted test datasets aligned with
    ref_test_ds; the reference itself is included as the epsilon = 0
    condition.  Conditions are reported in increasing epsilon order.

    The Lipschitz estimate's k-NN search runs on a helper thread while this
    thread predicts each condition.  The error raised, if any, is that of a
    sweep that estimates first: the estimate's comes before any other.
    """
    if len(shifted_series) == 0:
        raise ValueError("empty shift series")
    if calib.n_cal != cal_ds.n_nodes:
        raise ValueError(f"calibration holds {calib.n_cal} scores but cal_ds has "
                         f"{cal_ds.n_nodes} nodes")
    x, mean, std = _embed(cal_ds)
    with ThreadPoolExecutor(max_workers=1) as helper:
        search = helper.submit(_max_ball_slope, *_distinct(x, calib.scores))
        try:
            kl = _kl(head_params)
            conditions = [(0.0, ref_test_ds)]
            for ds in shifted_series:
                conditions.append((epsilon_proxy(ref_test_ds, ds, mean, std), ds))
            conditions.sort(key=lambda t: t[0])
            # the first condition's bound checks these before its forward
            _check_confidence(delta, calib.n_cal)
            coverages = [metrics_mod.coverage(
                conf_mod.intervals(head_mod.forward(head_params, ds), calib, tau), ds.target_y)
                for _, ds in conditions]
        finally:
            lip = search.result()
    rows = []       # (epsilon, bound, raw bound, vacuous, empirical, conservative)
    for (eps, _), cov in zip(conditions, coverages):
        b, raw, v = coverage_lower_bound(1.0 - tau, kl, delta, calib.n_cal, lip, eps)
        rows.append((eps, b, raw, v, cov, b <= cov))
    epsilons, bnds, raws, vac, emp, cons = zip(*rows)
    return BoundReport(kl=kl, lipschitz=lip, delta=delta, n_cal=calib.n_cal,
                       epsilons=epsilons, bounds=bnds, raw_bounds=raws, vacuous=vac,
                       empirical_coverage=emp, conservative=cons)


def ncal_sweep(head_params, cal_pool_ds, ref_test_ds, shifted_test_ds,
               sizes=DEFAULT_NCAL_SIZES, tau=conf_mod.DEFAULT_TAU, delta=DEFAULT_DELTA,
               score_mode="absolute"):
    """Bound vs empirical shifted coverage for nested calibration subsets.

    Returns rows of {n_cal, bound, empirical, gap}, one per entry of sizes,
    in their order.  Subsets are nested prefixes of the pool so empirical
    coverage varies smoothly with size.

    This thread calibrates each distinct size, largest first, and hands its
    Lipschitz estimate's k-NN search to a helper thread, so the longest
    search starts first and runs while the smaller sizes are calibrated.
    The rows, and the error raised if any, are those of a walk in the order
    of sizes: an error is raised at the first size that meets one.
    """
    if cal_pool_ds.n_nodes < max(sizes):
        raise ValueError(f"calibration pool too small for size {max(sizes)}")
    _, mean, std = _embed(cal_pool_ds)
    kl = _kl(head_params)
    eps = epsilon_proxy(ref_test_ds, shifted_test_ds, mean, std)
    nig = head_mod.forward(head_params, shifted_test_ds)
    staged = {}
    with ThreadPoolExecutor(max_workers=1) as helper:
        for size in sorted(set(sizes), reverse=True):
            try:
                sub = cal_pool_ds.subset(np.arange(size))
                calib = conf_mod.calibrate(head_params, sub, levels=(tau,), mode=score_mode)
                x, _, _ = _embed(sub)
                staged[size] = calib, helper.submit(_max_ball_slope,
                                                    *_distinct(x, calib.scores))
            except Exception as exc:      # raised below, at its size's place in sizes
                staged[size] = exc
        out = []
        for size in sizes:
            if isinstance(staged[size], Exception):
                raise staged[size]
            calib, search = staged[size]
            b, raw, v = coverage_lower_bound(1.0 - tau, kl, delta, size, search.result(), eps)
            cov = metrics_mod.coverage(conf_mod.intervals(nig, calib, tau),
                                       shifted_test_ds.target_y)
            out.append({"n_cal": size, "bound": b, "raw_bound": raw, "vacuous": v,
                        "empirical": cov, "gap": abs(cov - b)})
    return out
