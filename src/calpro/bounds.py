"""Shift-robustness bounds: local Lipschitz estimation of the nonconformity
score, the Gaussian PAC-Bayes complexity term, the worst-case coverage
lower bound, and the calibration-size and bound-vs-empirical sweeps."""

import contextlib
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
# equal one-hot columns against a tree of its own, in chunk tasks on the
# pool's threads, and each task queries the rows whose k-NN ball may leave
# their block again against a tree of all points.  Timed as the six
# searches of a bound sweep plus an n_cal sweep on a 100x100 graph (250 to
# 4000 points, blocks of about a third of them), each block one task, one
# after another on one thread: 100-106 ms with 64-point leaves, 94-99 ms
# with 128, 94-99 ms with 256 and 94-102 ms with 512 (medians of 20 runs at
# seeds 0 and 3, 2-core x86-64): no size beats 128 beyond the noise.  The
# timed schedule predates the chunk tasks; every row still meets the same
# trees.  A one-leaf tree (a brute-force scan of each block) used 17% more
# CPU than 128-point leaves at feature_dim 8 for 5% less at the default 16:
# not worth a second size.
KNN_LEAFSIZE = 128

# every CPU the process may run on: the threads of a call's k-NN pool
# (_knn_pool), and the training workers of the experiment recipes
# (experiments._train_runs).  scipy answers each query row on its own, with
# the same distance code in every thread, so the estimate does not depend on
# the count.
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
    """(features + target) rows, optionally standardized by given stats."""
    return _standardize(np.column_stack([ds.features, ds.target_y]), mean, std)


def _standardize(x, mean=None, std=None):
    """The rows x standardized by their own stats, with the stats, or by the
    given ones."""
    if mean is None:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return (x - mean) / std, mean, std
    return (x - mean) / std


@contextlib.contextmanager
def _knn_pool():
    """A pool of CPUS threads for one call's k-NN queries, each query a task
    on one thread.  Closed, its queued tasks cancelled, before the call
    returns or raises: the recipes fork training workers, and a thread alive
    at a fork can leave the child a lock it never releases."""
    pool = ThreadPoolExecutor(max_workers=CPUS)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _balls(tree, q, k, limit=math.inf):
    """Query the points q against tree for their inclusive k-NN balls:
    (rows of q, dist, nn) per query, the first of every row (rows None),
    each other of the rows whose last column still tied their k-th distance,
    twice as deep; and the rows whose k-th distance does not lie below
    limit, which take no ball here.

    Few numpy calls, and the pair arithmetic is left to max_slope: a pool
    thread takes the GIL back after each call that releases it, and waits
    for it while the calling thread runs Python.  A 1400-row block query
    that takes 15 ms alone took 130-160 ms beside a thread running Python
    with the pair arithmetic here, 45-55 ms without (2-core x86-64)."""
    n, m = tree.n, k + 2
    dist, nn = tree.query(q, k=min(m, n))
    near = dist[:, k] < limit
    balls, far = [(None, dist, nn)], np.flatnonzero(~near)
    rows = np.flatnonzero(near & (dist[:, -1] == dist[:, k])) if m < n else far[:0]
    while rows.size:
        m *= 2
        dist, nn = tree.query(q[rows], k=min(m, n))
        balls.append((rows, dist, nn))
        rows = rows[dist[:, -1] == dist[:, k]] if m < n else rows[:0]
    return balls, far


def _chunk_balls(tree, q, index, tree_index, k, limit, whole):
    """A task: the chunk q of rows queried against tree, as _balls does, and
    its rows whose k-th distance reaches limit again against whole, the
    tree of all points.  index holds the distinct points' index of each row
    of q, tree_index that of each point of tree (None when tree is whole).
    Returns (index, tree_index, balls, far rows) per tree queried."""
    balls, far = _balls(tree, q, k, limit)
    found = [(index, tree_index, balls, far)]
    if far.size:
        found.append((index[far], None, _balls(whole, q[far], k)[0], far[:0]))
    return found


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


class _Search:
    """estimate_lipschitz's k-NN search over the distinct rows of the
    embedding x, as tasks on pool, none of which waits on another.  The
    calling thread builds a tree of all points and one of each block of
    more than k rows.  min(CPUS, rows) tasks query a chunk of a block's
    rows each against the block's tree, then the chunk's rows that fall
    back against the tree of all points; min(CPUS, rows) more query a
    chunk each of the other rows against the tree of all points.  The
    search reads the points alone; max_slope takes the scores, on the
    calling thread."""

    def __init__(self, pool, x, k_neighbors=DEFAULT_K_NEIGHBORS):
        self.first = _first_rows(x)
        x = x[self.first]
        n = x.shape[0]
        if n < 2:
            raise ValueError("all calibration pairs are zero-distance")
        k = self.k = min(k_neighbors, n - 1)
        whole, self.tasks = cKDTree(x, leafsize=KNN_LEAFSIZE), []

        def submit(tree, q, index, tree_index, limit=math.inf):
            for chunk in np.array_split(np.arange(index.size), min(CPUS, index.size)):
                rows = slice(chunk[0], chunk[-1] + 1)      # views, not copies
                self.tasks.append(pool.submit(_chunk_balls, tree, q[rows], index[rows],
                                              tree_index, k, limit, whole))

        lo, hi = x.min(axis=0), x.max(axis=0)
        two = np.flatnonzero((lo < hi) & ((x == lo) | (x == hi)).all(axis=0))
        if not two.size:
            submit(whole, x, np.arange(n), None)
            return
        # rows sorted by their key (which columns sit at their max); a block
        # starts wherever the key changes, and its points are a slice of xs
        bits = x[:, two] == hi[two]
        order = np.lexsort(bits.T)
        bits, xs = bits[order], x[order]
        starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
        keys = bits[starts]
        span2 = (hi[two] - lo[two]) ** 2
        rest = [order[:0]]
        for b, (start, end) in enumerate(zip(starts, np.r_[starts[1:], n])):
            if end - start <= k:
                rest.append(order[start:end])
                continue
            gap2 = (keys != keys[b]) @ span2
            gap2[b] = math.inf
            limit = math.sqrt(gap2.min()) * (1.0 - 1e-9)
            own, members = xs[start:end], order[start:end]
            submit(cKDTree(own, leafsize=KNN_LEAFSIZE), own, members, members, limit)
        rest = np.concatenate(rest)
        if rest.size:
            submit(whole, x[rest], rest, None)

    def max_slope(self, scores):
        """The max slope |s_i - s_j| / d_ij over the balls the tasks found,
        s_i the score of distinct row i; scores has one per row of x."""
        s, k, best = scores[self.first], self.k, 0.0
        for task in self.tasks:
            for index, tree_index, balls, far in task.result():
                for rows, dist, nn in balls:
                    # column 0 is each point itself, column k its k-th neighbour
                    pair = (dist > 0) & (dist <= dist[:, k:k + 1])
                    if rows is None:
                        pair[far] = False
                        rows = slice(None)
                    j = nn if tree_index is None else tree_index[nn]
                    slopes = np.abs(s[index[rows], None] - s[j])[pair] / dist[pair]
                    best = max(best, float(slopes.max(initial=0.0)))
        return best


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
    row falls back: its task queries it against a tree of all points.  With
    no two-valued column that is every row."""
    if standardize:
        x, _, _ = _embed(cal_ds)
    else:
        x = np.column_stack([cal_ds.features, cal_ds.target_y])
    with _knn_pool() as pool:
        return _Search(pool, x, k_neighbors).max_slope(scores)


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the exception it raises, to raise in turn."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _done(outcome):
    """outcome, an _attempt's result; raises it if it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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

    The Lipschitz estimate's k-NN search (a _Search) runs on a pool of
    CPUS threads while this thread predicts each condition.  The error
    raised, if any, is that of a sweep that estimates first: the estimate's
    comes before any other.
    """
    if len(shifted_series) == 0:
        raise ValueError("empty shift series")
    if calib.n_cal != cal_ds.n_nodes:
        raise ValueError(f"calibration holds {calib.n_cal} scores but cal_ds has "
                         f"{cal_ds.n_nodes} nodes")
    x, mean, std = _embed(cal_ds)
    with _knn_pool() as pool:
        search = _Search(pool, x)
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
            lip = search.max_slope(calib.scores)
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

    This thread first submits the Lipschitz estimate's k-NN search of each
    distinct size, largest first, to a pool of CPUS threads (a _Search
    each), then calibrates each size while the pool searches, then predicts
    the shifted set.  The rows, and the error raised if any, are those of a walk that
    predicts first and then takes the sizes in their order: an error is
    raised at the first size that meets one.
    """
    if cal_pool_ds.n_nodes < max(sizes):
        raise ValueError(f"calibration pool too small for size {max(sizes)}")
    kl = _kl(head_params)
    # a size's subset embeds as the pool's first rows, standardized by
    # their own stats
    x = np.column_stack([cal_pool_ds.features, cal_pool_ds.target_y])
    distinct = sorted(set(sizes), reverse=True)
    with _knn_pool() as pool:
        # a size below 1 has an empty calibration set, which raises first
        searches = {size: _attempt(_Search, pool, _standardize(x[:size])[0])
                    for size in distinct if size > 0}
        _, mean, std = _standardize(x)

        # largest size first, each size's subset cut from the last one's:
        # the same rows, edges and order as the pool's prefix, from fewer
        # edges.  A size's subset or calibration error comes before its
        # search's.
        calibs, sub = {}, cal_pool_ds
        for size in distinct:
            sub = sub.subset(np.arange(size))
            calibs[size] = _attempt(conf_mod.calibrate, head_params, sub, levels=(tau,),
                                    mode=score_mode)
        eps = epsilon_proxy(ref_test_ds, shifted_test_ds, mean, std)
        nig = head_mod.forward(head_params, shifted_test_ds)
        out = []
        for size in sizes:
            calib = _done(calibs[size])
            lip = _done(searches[size]).max_slope(calib.scores)
            b, raw, v = coverage_lower_bound(1.0 - tau, kl, delta, size, lip, eps)
            cov = metrics_mod.coverage(conf_mod.intervals(nig, calib, tau),
                                       shifted_test_ds.target_y)
            out.append({"n_cal": size, "bound": b, "raw_bound": raw, "vacuous": v,
                        "empirical": cov, "gap": abs(cov - b)})
    return out
