"""Shift-robustness bounds: local Lipschitz estimation of the nonconformity
score, the Gaussian PAC-Bayes complexity term, the worst-case coverage
lower bound, and the calibration-size and bound-vs-empirical sweeps."""

import math
import os
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
# equal one-hot columns against a tree of its own, then the rows whose k-NN
# ball may leave their block against a tree of all points.  Timed as the six
# searches of a bound sweep plus an n_cal sweep on a 100x100 graph (250 to
# 4000 points, blocks of about a third of them), each query on one thread:
# 100-106 ms with 64-point leaves, 94-99 ms with 128, 94-99 ms with 256 and
# 94-102 ms with 512 (medians of 20 runs at seeds 0 and 3, 2-core x86-64):
# no size beats 128 beyond the noise.  A one-leaf tree (a brute-force scan
# of each block) used 17% more CPU than 128-point leaves at feature_dim 8
# for 5% less at the default 16: not worth a second size.
KNN_LEAFSIZE = 128

# every CPU the process may run on: the threads scipy splits each k-NN
# query's rows over (workers=CPUS, joined before the query returns), and the
# training workers of the experiment recipes (experiments._train_runs).
# scipy answers each query row on its own, with the same distance code in
# every thread, so the estimate does not depend on the count.
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

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
    """The (features + target) rows of ds standardized by their own stats,
    with the stats; or by the given ones."""
    x = np.column_stack([ds.features, ds.target_y])
    if mean is None:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return (x - mean) / std, mean, std
    return (x - mean) / std


def _max_slope(s_q, s_tree, dist, nn, k, near):
    """The max slope |s_i - s_j| / d_ij over one query's balls, the rows
    not near taking none; s_q the scores of the query's rows, s_tree those
    of the tree's points."""
    # column 0 is each point itself, column k its k-th neighbour
    pair = (dist > 0) & (dist <= dist[:, k:k + 1]) & near
    return float((np.abs(s_q[:, None] - s_tree[nn])[pair] / dist[pair]).max(initial=0.0))


def _balls(tree, q, s_q, s_tree, k, limit=math.inf):
    """The max slope over the inclusive k-NN balls of the points q in tree,
    and the rows of q whose k-th distance does not lie below limit, which
    take no ball here.  s_q holds the scores of q's rows, s_tree those of
    tree's points.  The first query reads k + 2 neighbours; each row whose
    last one still ties its k-th distance is queried again, twice as deep,
    until none does.  Each query splits its rows over CPUS threads and
    returns when every row is answered."""
    n, m = tree.n, k + 2
    dist, nn = tree.query(q, k=min(m, n), workers=CPUS)
    near = dist[:, k] < limit
    far = np.flatnonzero(~near)
    best = _max_slope(s_q, s_tree, dist, nn, k, near[:, None])
    rows = np.flatnonzero(near & (dist[:, -1] == dist[:, k])) if m < n else far[:0]
    while rows.size:
        m *= 2
        dist, nn = tree.query(q[rows], k=min(m, n), workers=CPUS)
        best = max(best, _max_slope(s_q[rows], s_tree, dist, nn, k, True))
        rows = rows[dist[:, -1] == dist[:, k]] if m < n else rows[:0]
    return best, far


def _first_rows(x):
    """The index of the first occurrence of each distinct row of x, in their
    original order: np.unique(x, axis=0)'s, which compares values.  A row
    whose first column's value no other row has is distinct, so only the
    rest go through that sort of whole rows, a sixth of the time on 4000
    embedded rows."""
    _, inverse, counts = np.unique(x[:, 0], return_inverse=True, return_counts=True)
    shared = counts[inverse] > 1
    first, shared = np.flatnonzero(~shared), np.flatnonzero(shared)
    if shared.size:
        first = np.r_[first, shared[np.unique(x[shared], axis=0, return_index=True)[1]]]
    return np.sort(first)


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
    row falls back: after the blocks, the rows that fall back go in one
    query against a tree of all points.  With no two-valued column that is
    every row.  Every query runs on the calling thread, its rows split over
    CPUS threads by scipy."""
    if standardize:
        x, _, _ = _embed(cal_ds)
    else:
        x = np.column_stack([cal_ds.features, cal_ds.target_y])
    first = _first_rows(x)
    x, s = x[first], scores[first]
    n = x.shape[0]
    if n < 2:
        raise ValueError("all calibration pairs are zero-distance")
    k = min(k_neighbors, n - 1)
    whole = cKDTree(x, leafsize=KNN_LEAFSIZE)
    lo, hi = x.min(axis=0), x.max(axis=0)
    two = np.flatnonzero((lo < hi) & ((x == lo) | (x == hi)).all(axis=0))
    if not two.size:
        return _balls(whole, x, s, s, k)[0]
    # rows sorted by their key (which columns sit at their max); a block
    # starts wherever the key changes, and its points are a slice of xs
    bits = x[:, two] == hi[two]
    order = np.lexsort(bits.T)
    bits, xs = bits[order], x[order]
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    keys = bits[starts]
    span2 = (hi[two] - lo[two]) ** 2
    best, rest = 0.0, []
    for b, (start, end) in enumerate(zip(starts, np.r_[starts[1:], n])):
        members = order[start:end]
        if end - start <= k:
            rest.append(members)
            continue
        gap2 = (keys != keys[b]) @ span2
        gap2[b] = math.inf
        limit = math.sqrt(gap2.min()) * (1.0 - 1e-9)
        own, s_own = xs[start:end], s[members]
        slope, far = _balls(cKDTree(own, leafsize=KNN_LEAFSIZE), own, s_own, s_own, k, limit)
        best = max(best, slope)
        rest.append(members[far])
    rest = np.concatenate(rest)
    if rest.size:
        best = max(best, _balls(whole, x[rest], s[rest], s, k)[0])
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
    if shifted_ds.n_nodes != ref_ds.n_nodes:
        raise ValueError(f"shifted set has {shifted_ds.n_nodes} nodes but the reference "
                         f"has {ref_ds.n_nodes}")
    a = _embed(ref_ds, mean, std)
    b = _embed(shifted_ds, mean, std)
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def bound_vs_empirical_sweep(head_params, cal_ds, calib, ref_test_ds, shifted_series,
                             tau=conf_mod.DEFAULT_TAU, delta=DEFAULT_DELTA) -> BoundReport:
    """Bound value and empirical coverage per shift condition.

    shifted_series is a list of shifted test datasets aligned with
    ref_test_ds; the reference itself is included as the epsilon = 0
    condition.  Conditions are reported in increasing epsilon order.

    One walk on the calling thread: the Lipschitz estimate first, then each
    condition's bound, forward and coverage in turn.
    """
    if len(shifted_series) == 0:
        raise ValueError("empty shift series")
    if calib.n_cal != cal_ds.n_nodes:
        raise ValueError(f"calibration holds {calib.n_cal} scores but cal_ds has "
                         f"{cal_ds.n_nodes} nodes")
    lip = estimate_lipschitz(calib.scores, cal_ds)
    kl = _kl(head_params)
    _, mean, std = _embed(cal_ds)
    conditions = sorted([(0.0, ref_test_ds)] + [
        (epsilon_proxy(ref_test_ds, ds, mean, std), ds) for ds in shifted_series],
        key=lambda t: t[0])
    rows = []       # (epsilon, bound, raw bound, vacuous, empirical, conservative)
    for eps, ds in conditions:
        b, raw, v = coverage_lower_bound(1.0 - tau, kl, delta, calib.n_cal, lip, eps)
        cov = metrics_mod.coverage(
            conf_mod.intervals(head_mod.forward(head_params, ds), calib, tau), ds.target_y)
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

    One walk on the calling thread: each distinct size's subset is cut
    first, then the shifted set is predicted, then each distinct size, in
    the order sizes first gives it, is calibrated, its Lipschitz constant
    estimated and its bound and coverage taken, once.
    """
    if len(sizes) == 0:
        raise ValueError("no calibration sizes")
    if cal_pool_ds.n_nodes < max(sizes):
        raise ValueError(f"calibration pool too small for size {max(sizes)}")
    _, mean, std = _embed(cal_pool_ds)
    kl = _kl(head_params)
    # largest size first, each size's subset cut from the last one's: the
    # same rows, edges and order as the pool's prefix, from fewer edges
    subsets, sub = {}, cal_pool_ds
    for size in sorted(set(sizes), reverse=True):
        sub = subsets[size] = sub.subset(np.arange(size))
    eps = epsilon_proxy(ref_test_ds, shifted_test_ds, mean, std)
    nig = head_mod.forward(head_params, shifted_test_ds)
    rows = {}
    for size in dict.fromkeys(sizes):
        sub = subsets.pop(size)
        calib = conf_mod.calibrate(head_params, sub, levels=(tau,), mode=score_mode)
        lip = estimate_lipschitz(calib.scores, sub)
        b, raw, v = coverage_lower_bound(1.0 - tau, kl, delta, size, lip, eps)
        cov = metrics_mod.coverage(conf_mod.intervals(nig, calib, tau), shifted_test_ds.target_y)
        rows[size] = {"n_cal": size, "bound": b, "raw_bound": raw, "vacuous": v,
                      "empirical": cov, "gap": abs(cov - b)}
    return [dict(rows[size]) for size in sizes]
