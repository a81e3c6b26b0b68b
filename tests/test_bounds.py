import contextlib
import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from calpro import bounds, conformal, datagen, head, metrics


def _abs_scores(params, ds):
    """Absolute nonconformity scores of the head on ds."""
    return conformal.scores_from_nig(head.forward(params, ds), ds.target_y, "absolute")


def _head_with(weights):
    """A 27-weight head (8 features, one hidden unit) holding weights."""
    template = head.init_head(head.HeadConfig(widths=(1,)), 8, 0)
    return template.from_vector(np.asarray(weights, dtype=float))


class TestKlGaussian:
    """The sweeps' KL: N(w_hat, I) against N(0, I)."""

    def test_identical_distributions(self):
        assert bounds._kl(_head_with(np.zeros(27))) == 0.0

    def test_single_weight(self):
        w = np.zeros(27)
        w[5] = 1.0
        assert bounds._kl(_head_with(w)) == 0.5

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert bounds._kl(_head_with(rng.normal(size=27))) >= 0.0

    def test_larger_center_larger_kl(self):
        assert bounds._kl(_head_with(np.full(27, 2.0))) > bounds._kl(_head_with(np.full(27, 0.5)))


class TestCoverageLowerBound:
    def test_corollary_arithmetic(self):
        val, raw, vac = bounds.coverage_lower_bound(0.1, 0.0, 0.05, 1000, 0.0, 0.0)
        expected = 0.9 - math.sqrt(math.log(20.0) / 2000.0)
        assert val == pytest.approx(expected, abs=1e-12)
        assert not vac

    def test_limit_is_one_minus_alpha(self):
        val, raw, vac = bounds.coverage_lower_bound(0.1, 0.0, 0.999999, 10 ** 12, 0.0, 0.0)
        assert val == pytest.approx(0.9, abs=1e-5)

    def test_strictly_decreasing_in_epsilon(self):
        vals = [bounds.coverage_lower_bound(0.1, 1.0, 0.05, 2000, 2.0, e)[1]
                for e in (0.0, 0.1, 0.2)]
        assert vals[0] > vals[1] > vals[2]

    def test_clamped_and_vacuous(self):
        val, raw, vac = bounds.coverage_lower_bound(0.1, 100.0, 0.05, 10, 5.0, 3.0)
        assert val == 0.0 and raw < 0.0 and vac

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            bounds.coverage_lower_bound(0.1, 0.0, 1.5, 100, 0.0, 0.0)


class TestEstimateLipschitz:
    def test_constant_scores_zero(self, trained):
        """Zero-weight head predicts mu = 0 everywhere; absolute scores then
        equal target_y, so use a truly constant synthetic check instead."""
        ds = trained["cal_ds"]
        flat = datagen.replace(ds, target_y=np.zeros(ds.n_nodes))
        params = trained["params"].from_vector(np.zeros(trained["params"].size))
        # mu = 0 and y = 0: scores constant zero
        assert bounds.estimate_lipschitz(_abs_scores(params, flat), flat) == 0.0

    def test_duplicated_dataset_invariant(self, trained):
        """Two disjoint copies of the graph: every point appears twice, and
        the zero-distance pairs are skipped, leaving L_s unchanged."""
        ds = trained["cal_ds"]
        L = bounds.estimate_lipschitz(_abs_scores(trained["params"], ds), ds)
        n = ds.n_nodes
        doubled = datagen.Dataset(
            features=np.vstack([ds.features, ds.features]),
            prior_b=np.concatenate([ds.prior_b, ds.prior_b]),
            target_y=np.concatenate([ds.target_y, ds.target_y]),
            group_tags=np.concatenate([ds.group_tags, ds.group_tags]),
            disorder_flags=np.concatenate([ds.disorder_flags, ds.disorder_flags]),
            edges=np.vstack([ds.edges, ds.edges + n]),
            splits=np.concatenate([ds.splits, ds.splits]),
            chain_coords=np.vstack([ds.chain_coords, ds.chain_coords]),
            chain_ids=np.concatenate([ds.chain_ids, ds.chain_ids + ds.chain_ids.max() + 1]),
            metadata={},
        )
        L2 = bounds.estimate_lipschitz(_abs_scores(trained["params"], doubled), doubled)
        assert L2 == pytest.approx(L)

    def test_linear_slope_oracle(self, trained):
        """Scores 2x along a 1-D grid embedded via target_y with features
        fixed: slope must come out near 2 without standardization."""
        ds = trained["cal_ds"]
        n = ds.n_nodes
        x = np.linspace(0.0, 1.0, n)
        # head with zero weights gives mu = 0, so absolute score = target_y
        feats = np.zeros_like(ds.features)
        feats[:, 0] = x
        ds2 = datagen.replace(ds, features=feats, target_y=2.0 * x)
        params = trained["params"].from_vector(np.zeros(trained["params"].size))
        L = bounds.estimate_lipschitz(_abs_scores(params, ds2), ds2, standardize=False)
        # metric includes the target coordinate: d = sqrt(dx^2 + (2 dx)^2)
        expected = 2.0 / math.sqrt(5.0)
        assert L == pytest.approx(expected, rel=0.05)

    def test_score_scale_covariance(self, trained):
        ds = trained["cal_ds"]
        L1 = bounds.estimate_lipschitz(_abs_scores(trained["params"], ds), ds,
                                       standardize=False)
        scaled = datagen.replace(ds, target_y=ds.target_y)  # same data
        assert bounds.estimate_lipschitz(_abs_scores(trained["params"], scaled), scaled,
                                         standardize=False) == pytest.approx(L1)


def _lipschitz_loop(scores, cal_ds, k_neighbors=5, standardize=True):
    """Reference: estimate_lipschitz as a double loop over every pair, with
    the inclusive rule written out: j is a neighbour of i when their
    distance is positive and at most i's k-th nearest distance.  The
    distances come from a one-leaf tree, a brute-force scan."""
    x = np.column_stack([cal_ds.features, cal_ds.target_y])
    if standardize:
        x, _, _ = bounds._embed(cal_ds)
    _, inv = np.unique(x, axis=0, return_index=True)
    x = x[np.sort(inv)]
    s = scores[np.sort(inv)]
    n = x.shape[0]
    if n < 2:
        raise ValueError("all calibration pairs are zero-distance")
    k = min(k_neighbors, n - 1)
    dist, nn = cKDTree(x, leafsize=n).query(x, k=n)
    best = 0.0
    for i in range(n):
        for d, j in zip(dist[i], nn[i]):
            if 0 < d <= dist[i][k]:
                best = max(best, abs(s[i] - s[j]) / d)
    return float(best)


def _point_ds(feats, y):
    """A graphless calibration set of the given feature rows and targets."""
    n = feats.shape[0]
    return datagen.Dataset(features=feats, prior_b=np.zeros(n), target_y=y,
                           group_tags=("core",) * n, disorder_flags=np.zeros(n, dtype=bool),
                           edges=np.zeros((0, 2), dtype=int), splits=("calibration",) * n,
                           chain_coords=None, chain_ids=np.zeros(n, dtype=int))


@st.composite
def _lipschitz_case(draw, min_n=1, max_n=40):
    n = draw(st.integers(min_n, max_n))
    # a coarse grid makes duplicate points and tied distances common
    grid = st.integers(-3, 3).map(float)
    feats = draw(hnp.arrays(float, (n, draw(st.integers(1, 3))), elements=grid))
    y = draw(hnp.arrays(float, n, elements=grid))
    scores = draw(hnp.arrays(float, n, elements=st.floats(-5, 5)))
    return scores, _point_ds(feats, y), draw(st.integers(1, 6)), draw(st.booleans())


@st.composite
def _one_hot_case(draw):
    """A drawn category per row, expanded to indicator columns, beside grid
    columns fine enough that many k-NN balls stay inside one category.  The
    scores step by 10 between categories, so a ball that wrongly stays in
    its category misses the steepest slopes."""
    n = draw(st.integers(20, 150))
    n_cat = draw(st.integers(2, 4))
    cat = draw(hnp.arrays(int, n, elements=st.integers(0, n_cat - 1)))
    grid = st.integers(-3, 3).map(lambda v: v / 4)
    cont = draw(hnp.arrays(float, (n, draw(st.integers(1, 3))), elements=grid))
    y = draw(hnp.arrays(float, n, elements=grid))
    scores = draw(hnp.arrays(float, n, elements=st.floats(-5, 5))) + 10.0 * cat
    return (scores, _point_ds(np.column_stack([np.eye(n_cat)[cat], cont]), y),
            draw(st.integers(1, 6)), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_lipschitz_case())
def test_estimate_lipschitz_matches_pair_loop(case):
    scores, ds, k, standardize = case
    try:
        expected = _lipschitz_loop(scores, ds, k, standardize)
    except ValueError:
        with pytest.raises(ValueError):
            bounds.estimate_lipschitz(scores, ds, k, standardize)
        return
    assert bounds.estimate_lipschitz(scores, ds, k, standardize) == expected


@settings(max_examples=60, deadline=None)
@given(_lipschitz_case(min_n=65, max_n=300))
def test_estimate_lipschitz_independent_of_tree(case):
    """Past one 64-point leaf, with ties at the k-th distance common: the
    estimate follows the inclusive rule and is the same for every leaf
    size and pool size (8 threads: more than the blocks), so which tied
    neighbour a tree meets first, and which thread answers a row, does not
    matter."""
    scores, ds, k, standardize = case
    try:
        expected = _lipschitz_loop(scores, ds, k, standardize)
    except ValueError:
        return
    for leafsize in (1, 16, 64, 128, ds.n_nodes):
        for workers in (1, 2, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bounds, "KNN_LEAFSIZE", leafsize)
                mp.setattr(bounds, "CPUS", workers)
                assert bounds.estimate_lipschitz(scores, ds, k, standardize) == expected


@settings(max_examples=60, deadline=None)
@given(_one_hot_case())
def test_estimate_lipschitz_one_hot_blocks_match_pair_loop(case):
    """Rows of one category form a block, queried against a tree of its own
    rows, and the rows whose k-NN ball may leave it against all points: the
    estimate is the pair loop's for every leaf size and pool size (8
    threads: more than the blocks)."""
    scores, ds, k, standardize = case
    try:
        expected = _lipschitz_loop(scores, ds, k, standardize)
    except ValueError:
        return
    for leafsize in (1, 16, 128):
        for workers in (1, 2, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bounds, "KNN_LEAFSIZE", leafsize)
                mp.setattr(bounds, "CPUS", workers)
                assert bounds.estimate_lipschitz(scores, ds, k, standardize) == expected


def _counting_kdtree(monkeypatch):
    """Patch bounds.cKDTree, as benchmarks/tracer.py does, with a subclass
    that logs the size of each tree built and (tree size, rows) per query."""
    log = {"trees": [], "queries": []}

    class CountingKDTree(bounds.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            log["trees"].append(self.n)

        def query(self, x, *args, **kwargs):
            log["queries"].append((self.n, len(x)))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(bounds, "cKDTree", CountingKDTree)
    return log


def _blocks_case(sizes, indicator_scale, seed=0):
    """One block of rows per entry of sizes: a scaled one-hot column per
    block beside two uniform columns in [0, 1), with uniform scores."""
    rng = np.random.default_rng(seed)
    cat = np.repeat(np.arange(len(sizes)), sizes)
    n = cat.size
    feats = np.column_stack([indicator_scale * np.eye(len(sizes))[cat], rng.random((n, 2))])
    return rng.random(n), _point_ds(feats, np.zeros(n))


def test_estimate_lipschitz_without_two_valued_column_is_one_query(monkeypatch):
    """Every row falls back: one tree of all points, queried in CPUS chunks."""
    monkeypatch.setattr(bounds, "CPUS", 1)
    log = _counting_kdtree(monkeypatch)
    scores, ds = _blocks_case([60], 1.0)
    assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == \
        _lipschitz_loop(scores, ds, 3, standardize=False)
    assert log == {"trees": [60], "queries": [(60, 60)]}


@pytest.mark.parametrize("scale", [0.01, 10.0], ids=["all_fall_back", "none_fall_back"])
def test_knn_queries_run_one_thread_each_block_tree_shared_by_chunk_tasks(monkeypatch, scale):
    """Every query runs on one thread.  The calling thread builds one tree
    of all points and each block's tree once; min(CPUS, rows) tasks query a
    chunk of the block's rows each against it, the deeper queries for ties
    included, then the chunk's rows that fall back against the tree of all
    points.  A block of 2 rows (at most k) falls back whole, in min(CPUS, 2)
    chunk tasks of its own.  Blocks of 5 rows are smaller than 8 CPUS."""
    sizes = [40, 25, 5, 2]
    scores, ds = _blocks_case(sizes, scale)
    expected = _lipschitz_loop(scores, ds, 3, standardize=False)
    caller = threading.get_ident()

    class LoggingKDTree(bounds.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            # the log holds the tree, so no later tree takes its id
            built.append((id(self), self.n, threading.get_ident(), self))

        def query(self, x, *args, **kwargs):
            queries.append((id(self), len(x), kwargs.get("workers", 1),
                            threading.get_ident()))
            return super().query(x, *args, **kwargs)

    chunk_balls = bounds._chunk_balls

    def logging_chunk_balls(tree, q, *args, **kwargs):
        tasks.append((id(tree), len(q), threading.get_ident()))
        return chunk_balls(tree, q, *args, **kwargs)

    monkeypatch.setattr(bounds, "cKDTree", LoggingKDTree)
    monkeypatch.setattr(bounds, "_chunk_balls", logging_chunk_balls)
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(bounds, "CPUS", cpus)
        queries, built, tasks = [], [], []
        threads = threading.active_count()
        assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == expected
        assert threading.active_count() == threads
        assert all(workers == 1 for _, _, workers, _ in queries)
        assert all(thread != caller for *_, thread in queries + tasks)
        assert all(thread == caller for _, _, thread, _ in built)
        (whole,) = [tree for tree, n, _, _ in built if n == ds.n_nodes]
        blocks = [(tree, n) for tree, n, _, _ in built if tree != whole]
        assert sorted(n for _, n in blocks) == [5, 25, 40]
        for tree, n in blocks:
            # each task one chunk of the block's rows; the tree's queries,
            # the deeper ones for ties included, run on its tasks' threads
            chunks = [(rows, thread) for t, rows, thread in tasks if t == tree]
            assert sorted(rows for rows, _ in chunks) == sorted(
                len(c) for c in np.array_split(np.arange(n), min(cpus, n)))
            assert {th for t, _, _, th in queries if t == tree} <= {th for _, th in chunks}
        assert sorted(rows for t, rows, _ in tasks if t == whole) == ([2] if cpus == 1 else [1, 1])
        # the block tasks query their far rows, every row or none, against
        # the tree of all points; the 2-row block's tasks query 2 rows
        again = sum(rows for t, rows, _, _ in queries if t == whole) - 2
        assert again == (sum(sizes[:3]) if scale < 1 else 0)


def test_search_tasks_under_frequent_thread_switches(monkeypatch):
    """More pool threads than CPUs, switching every few microseconds: the
    tasks finish, the estimate is the pair loop's, and no thread outlives
    a call."""
    monkeypatch.setattr(bounds, "CPUS", 8)
    cases = [_blocks_case([40, 25, 35], scale, seed) for scale, seed in
             ((0.01, 0), (0.3, 1), (10.0, 2))]
    expected = [_lipschitz_loop(scores, ds, 3, standardize=False) for scores, ds in cases]
    interval = sys.getswitchinterval()
    threads = threading.active_count()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            assert [bounds.estimate_lipschitz(scores, ds, 3, standardize=False)
                    for scores, ds in cases] == expected
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


class _ReversedPool:
    """A stand-in for the k-NN pool that runs no task until a result is
    asked for, then every task submitted so far, last first, on the calling
    thread.  A task that asks for the result of one that has not run yet
    raises."""

    def __init__(self):
        self.queued, self.running = [], False

    def submit(self, fn, *args):
        task = _ReversedTask(self, fn, args)
        self.queued.append(task)
        return task

    def run(self):
        self.running = True
        for task in reversed(self.queued):
            task.value, task.done = task.fn(*task.args), True
        self.queued, self.running = [], False


class _ReversedTask:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args, self.done = pool, fn, args, False

    def result(self):
        if not self.done:
            if self.pool.running:
                raise RuntimeError("a task asked for the result of one not run yet")
            self.pool.run()
        return self.value


@pytest.mark.parametrize("scale", [0.01, 0.3, 10.0])
def test_search_tasks_run_in_reverse_order(monkeypatch, scale):
    """No task of a search waits on another: run last first, before any
    result is asked for, they give the pair loop's estimate."""
    pools = []

    @contextlib.contextmanager
    def reversed_pool():
        pools.append(_ReversedPool())
        yield pools[-1]

    monkeypatch.setattr(bounds, "_knn_pool", reversed_pool)
    scores, ds = _blocks_case([40, 25, 5, 2], scale)
    expected = _lipschitz_loop(scores, ds, 3, standardize=False)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(bounds, "CPUS", cpus)
        assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == expected
        assert pools[-1].queued == []


def test_estimate_lipschitz_wide_gap_queries_each_row_once(monkeypatch):
    """Blocks 10 apart: every k-NN ball stays in its block, so each block's
    own tree answers all its rows; the tree of all points is built once,
    and no row queries it."""
    log = _counting_kdtree(monkeypatch)
    scores, ds = _blocks_case([40, 25, 35], 10.0)
    assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == \
        _lipschitz_loop(scores, ds, 3, standardize=False)
    assert sorted(log["trees"]) == [25, 35, 40, ds.n_nodes]
    assert sum(rows for _, rows in log["queries"]) == ds.n_nodes
    assert all(n < ds.n_nodes for n, _ in log["queries"])


def test_estimate_lipschitz_gap_below_every_kth_distance(monkeypatch):
    """Blocks 0.01 apart: no k-NN ball fits in its block, so every row is
    queried once more against all points."""
    log = _counting_kdtree(monkeypatch)
    scores, ds = _blocks_case([40, 25, 35], 0.01)
    assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == \
        _lipschitz_loop(scores, ds, 3, standardize=False)
    assert sum(rows for n, rows in log["queries"] if n == ds.n_nodes) == ds.n_nodes


def test_estimate_lipschitz_ball_reaching_the_gap_leaves_its_block():
    """Two blocks 10 apart, each a row of points 10 apart: each end point's
    nearest neighbours (k = 1) are its block neighbour and, tied at the gap,
    the other block's end point, whose score is 5 higher.  Only the tie
    across the gap gives a nonzero slope."""
    feats = np.array([[0.0, 0.0], [0.0, 10.0], [0.0, 20.0],
                      [10.0, 0.0], [10.0, 10.0], [10.0, 20.0]])
    scores = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    ds = _point_ds(feats[:, :1], feats[:, 1])
    assert bounds.estimate_lipschitz(scores, ds, 1, standardize=False) == 0.5


def test_estimate_lipschitz_far_row_takes_no_slope_from_its_block():
    """Two blocks 1 apart, each two points 5 apart: a point's nearest
    neighbour (k = 1) is its twin in the other block, of equal score, and
    not its block partner, whose score is 100 higher.  A row whose k-th
    distance in its block reaches the gap takes its ball from the tree of
    all points alone, so the estimate is 0."""
    feats = np.array([[0.0, 0.0], [0.0, 5.0], [1.0, 0.1], [1.0, 5.1]])
    scores = np.array([0.0, 100.0, 0.0, 100.0])
    ds = _point_ds(feats, np.zeros(4))
    assert _lipschitz_loop(scores, ds, 1, standardize=False) == 0.0
    assert bounds.estimate_lipschitz(scores, ds, 1, standardize=False) == 0.0


def test_estimate_lipschitz_block_of_at_most_k_rows(monkeypatch):
    """A block of k rows has no k-th neighbour of its own: its rows go to
    the tree of all points, and the large block answers its own rows."""
    monkeypatch.setattr(bounds, "CPUS", 1)      # the fall-back rows in one chunk
    log = _counting_kdtree(monkeypatch)
    scores, ds = _blocks_case([30, 3], 10.0)
    assert bounds.estimate_lipschitz(scores, ds, 3, standardize=False) == \
        _lipschitz_loop(scores, ds, 3, standardize=False)
    assert log["queries"] == [(30, 30), (33, 3)]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(0, 40), st.integers(1, 3)),
                  elements=st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, math.nan])))
def test_first_rows_are_numpy_unique_first_occurrences(x):
    """Signed zeros count as one value, and rows with a NaN are all distinct,
    as in np.unique(axis=0)."""
    expected = np.sort(np.unique(x, axis=0, return_index=True)[1])
    assert np.array_equal(bounds._first_rows(x), expected)


def test_prefix_embedding_is_the_subset_embedding(trained):
    """ncal_sweep embeds a size's subset as the first rows of the pool's
    rows, standardized by their own stats: the bits of embedding the subset."""
    pool = _whole_pool(trained["ds"])
    rows = np.column_stack([pool.features, pool.target_y])
    for size in (1, 2, 37, 100, pool.n_nodes):
        whole = bounds._embed(pool.subset(np.arange(size)))
        prefix = bounds._standardize(rows[:size])
        for a, b in zip(whole, prefix):
            assert a.tobytes() == b.tobytes()


def test_cpus_follows_cpu_affinity():
    assert bounds.CPUS >= 1
    if hasattr(os, "sched_getaffinity"):
        assert bounds.CPUS == len(os.sched_getaffinity(0))


def test_estimate_lipschitz_counts_every_tie():
    """Points 1 and 2 are both at distance 1 from point 0; with k = 1 both
    are its neighbours, whichever the tree returns first.  Every other
    nearest pair has equal scores, so a tie-break that drops either one
    reads 0 for one of the two score vectors."""
    feats = np.array([[0.0], [1.0], [-1.0], [1.5], [-1.5]])
    ds = _point_ds(feats, np.zeros(feats.shape[0]))
    for scores in ([0.0, 3.0, 0.0, 3.0, 0.0], [0.0, 0.0, 3.0, 0.0, 3.0]):
        assert bounds.estimate_lipschitz(np.array(scores), ds, 1, standardize=False) == 3.0


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.0, 0.5), kl=st.floats(0.0, 1e3), delta=st.floats(1e-6, 0.999),
       lipschitz=st.floats(0.0, 1e3), n_cal=st.integers(1, 10 ** 7),
       eps=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2),
       dn=st.integers(0, 10 ** 7))
def test_coverage_lower_bound_monotone(alpha, kl, delta, lipschitz, n_cal, eps, dn):
    """Clamped and raw bound: nonincreasing in epsilon, nondecreasing in n_cal."""
    e_lo, e_hi = sorted(eps)
    at = lambda n, e: bounds.coverage_lower_bound(alpha, kl, delta, n, lipschitz, e)[:2]
    for a, b in zip(at(n_cal, e_lo), at(n_cal, e_hi)):
        assert b <= a
    for a, b in zip(at(n_cal, e_lo), at(n_cal + dn, e_lo)):
        assert b >= a


class TestSweeps:
    def test_bound_vs_empirical_shapes(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,), mode="absolute")
        ds = trained["ds"]
        shifted = []
        for mag in (0.2, 0.6):
            pert = datagen.perturb(ds, "gaussian", mag, seed=1)
            shifted.append(pert.subset(pert.split_indices("test")))
        rep = bounds.bound_vs_empirical_sweep(trained["params"], trained["cal_ds"],
                                              calib, trained["test_ds"], shifted)
        assert len(rep.epsilons) == 3          # reference + two conditions
        assert rep.epsilons[0] == 0.0
        assert list(rep.epsilons) == sorted(rep.epsilons)
        # bound nonincreasing in epsilon (same kl/L_s across conditions)
        assert all(b >= c - 1e-12 for b, c in zip(rep.bounds, rep.bounds[1:]))
        d = rep.to_dict()
        assert "metric" in d and "vacuous" in d

    def test_empty_series_rejected(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"], levels=(0.9,))
        with pytest.raises(ValueError):
            bounds.bound_vs_empirical_sweep(trained["params"], trained["cal_ds"],
                                            calib, trained["test_ds"], [])

    def test_ncal_sweep_single_size(self, trained):
        ds = trained["ds"]
        pool = datagen.replace(trained["cal_ds"],
                               splits=tuple(["calibration"] * trained["cal_ds"].n_nodes))
        pert = datagen.perturb(ds, "gaussian", 0.3, seed=2)
        shifted = pert.subset(pert.split_indices("test"))
        rows = bounds.ncal_sweep(trained["params"], pool, trained["test_ds"], shifted,
                                 sizes=(20,))
        assert len(rows) == 1 and rows[0]["n_cal"] == 20
        assert set(rows[0]) >= {"bound", "empirical", "gap"}

    def test_calibration_size_mismatch_rejected(self, trained):
        part = trained["cal_ds"].subset(np.arange(10))
        calib = conformal.calibrate(trained["params"], part, levels=(0.9,))
        with pytest.raises(ValueError, match="calibration holds"):
            bounds.bound_vs_empirical_sweep(trained["params"], trained["cal_ds"], calib,
                                            trained["test_ds"], [trained["test_ds"]])

    def test_ncal_sweep_predicts_once_per_size(self, trained, forward_calls):
        """One forward per calibration subset plus one for the shifted set."""
        pool = datagen.replace(trained["cal_ds"],
                               splits=tuple(["calibration"] * trained["cal_ds"].n_nodes))
        shifted = trained["test_ds"]
        bounds.ncal_sweep(trained["params"], pool, trained["test_ds"], shifted,
                          sizes=(10, 20))
        assert len(forward_calls) == 3
        assert sum(ds is shifted for ds in forward_calls) == 1

    def test_ncal_sweep_pool_too_small(self, trained):
        pool = trained["cal_ds"]
        with pytest.raises(ValueError):
            bounds.ncal_sweep(trained["params"], pool, trained["test_ds"],
                              trained["test_ds"], sizes=(10 ** 6,))

    def test_ncal_sweep_empty_sizes_rejected(self, trained):
        with pytest.raises(ValueError, match="^no calibration sizes$"):
            bounds.ncal_sweep(trained["params"], trained["cal_ds"], trained["test_ds"],
                              trained["test_ds"], sizes=())

    def test_bound_sweep_estimates_first_on_the_calling_thread(self, trained, monkeypatch):
        """One bounds.estimate_lipschitz call, looked up on the module as a
        tracer hooks it, on the calling thread, before the first forward."""
        calls, estimate, forward = [], bounds.estimate_lipschitz, head.forward

        def logging_estimate(*args, **kwargs):
            calls.append(("estimate", threading.get_ident()))
            return estimate(*args, **kwargs)

        def logging_forward(*args, **kwargs):
            calls.append(("forward", threading.get_ident()))
            return forward(*args, **kwargs)

        monkeypatch.setattr(bounds, "estimate_lipschitz", logging_estimate)
        monkeypatch.setattr(head, "forward", logging_forward)
        calib = conformal.calibrate(trained["params"], trained["cal_ds"], levels=(0.9,))
        calls.clear()
        bounds.bound_vs_empirical_sweep(trained["params"], trained["cal_ds"], calib,
                                        trained["test_ds"], [_shifted_test(trained["ds"], 0.3, 1)])
        assert [name for name, _ in calls] == ["estimate", "forward", "forward"]
        assert calls[0][1] == threading.get_ident()

    def test_bound_increases_with_ncal_fixed_terms(self):
        vals = [bounds.coverage_lower_bound(0.1, 1.0, 0.05, n, 0.0, 0.0)[0]
                for n in (250, 500, 1000, 2000, 4000)]
        assert all(b < c for b, c in zip(vals, vals[1:]))


def test_epsilon_proxy_zero_for_identical(trained):
    _, mean, std = bounds._embed(trained["cal_ds"])
    assert bounds.epsilon_proxy(trained["test_ds"], trained["test_ds"], mean, std) == 0.0


def test_epsilon_proxy_rejects_misaligned_sets(trained):
    _, mean, std = bounds._embed(trained["cal_ds"])
    test = trained["test_ds"]
    short = test.subset(np.arange(test.n_nodes - 1))
    with pytest.raises(ValueError, match=f"^shifted set has {test.n_nodes - 1} nodes but "
                                         f"the reference has {test.n_nodes}$"):
        bounds.epsilon_proxy(test, short, mean, std)


def test_epsilon_proxy_grows_with_magnitude(trained):
    ds = trained["ds"]
    _, mean, std = bounds._embed(trained["cal_ds"])
    eps = []
    for mag in (0.2, 0.5, 1.0):
        pert = datagen.perturb(ds, "gaussian", mag, seed=4)
        eps.append(bounds.epsilon_proxy(trained["test_ds"],
                                        pert.subset(pert.split_indices("test")), mean, std))
    assert eps[0] < eps[1] < eps[2]


def _ncal_sweep_serial(params, pool, ref_test_ds, shifted, sizes, tau=conformal.DEFAULT_TAU,
                       delta=bounds.DEFAULT_DELTA, score_mode="absolute"):
    """Reference: ncal_sweep as one walk over sizes in their order, each
    size calibrated and its Lipschitz constant estimated in turn."""
    _, mean, std = bounds._embed(pool)
    kl = bounds._kl(params)
    eps = bounds.epsilon_proxy(ref_test_ds, shifted, mean, std)
    nig = head.forward(params, shifted)
    out = []
    for size in sizes:
        sub = pool.subset(np.arange(size))
        calib = conformal.calibrate(params, sub, levels=(tau,), mode=score_mode)
        lip = bounds.estimate_lipschitz(calib.scores, sub)
        b, raw, v = bounds.coverage_lower_bound(1.0 - tau, kl, delta, size, lip, eps)
        cov = metrics.coverage(conformal.intervals(nig, calib, tau), shifted.target_y)
        out.append({"n_cal": size, "bound": b, "raw_bound": raw, "vacuous": v,
                    "empirical": cov, "gap": abs(cov - b)})
    return out


def _bound_sweep_serial(params, cal_ds, calib, ref_test_ds, series, tau=conformal.DEFAULT_TAU,
                        delta=bounds.DEFAULT_DELTA):
    """Reference: bound_vs_empirical_sweep with the estimate first, then
    each condition's bound, forward and coverage in turn."""
    _, mean, std = bounds._embed(cal_ds)
    lip = bounds.estimate_lipschitz(calib.scores, cal_ds)
    kl = bounds._kl(params)
    conditions = sorted([(0.0, ref_test_ds)] + [
        (bounds.epsilon_proxy(ref_test_ds, ds, mean, std), ds) for ds in series],
        key=lambda t: t[0])
    rows = []
    for eps, ds in conditions:
        b, raw, v = bounds.coverage_lower_bound(1.0 - tau, kl, delta, calib.n_cal, lip, eps)
        cov = metrics.coverage(conformal.intervals(head.forward(params, ds), calib, tau),
                               ds.target_y)
        rows.append((eps, b, raw, v, cov, b <= cov))
    epsilons, bnds, raws, vac, emp, cons = zip(*rows)
    return bounds.BoundReport(kl=kl, lipschitz=lip, delta=delta, n_cal=calib.n_cal,
                              epsilons=epsilons, bounds=bnds, raw_bounds=raws, vacuous=vac,
                              empirical_coverage=emp, conservative=cons)


def _whole_pool(ds):
    """Every node of ds tagged calibration: a 180-node calibration pool."""
    return datagen.replace(ds, splits=("calibration",) * ds.n_nodes)


def _shifted_test(ds, magnitude, seed):
    pert = datagen.perturb(ds, "gaussian", magnitude, seed=seed)
    return pert.subset(pert.split_indices("test"))


class TestSweepContract:
    """The sweeps search on a pool of CPUS threads; their results and
    errors are those of the serial walk, and no thread outlives a call.
    8 threads are more than the blocks of a search."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_ncal_sweep_rows_follow_sizes(self, trained, monkeypatch, cpus):
        monkeypatch.setattr(bounds, "CPUS", cpus)
        pool = _whole_pool(trained["ds"])
        shifted = _shifted_test(trained["ds"], 0.3, 2)
        sizes = (150, 50, 100, 50)
        threads = threading.active_count()
        rows = bounds.ncal_sweep(trained["params"], pool, trained["test_ds"], shifted,
                                 sizes=sizes, score_mode="normalized")
        assert threading.active_count() == threads
        assert [row["n_cal"] for row in rows] == list(sizes)
        assert rows == _ncal_sweep_serial(trained["params"], pool, trained["test_ds"], shifted,
                                          sizes, score_mode="normalized")

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bound_sweep_report_is_the_serial_one(self, trained, monkeypatch, cpus):
        monkeypatch.setattr(bounds, "CPUS", cpus)
        calib = conformal.calibrate(trained["params"], trained["cal_ds"], levels=(0.9,),
                                    mode="absolute")
        series = [_shifted_test(trained["ds"], mag, 1) for mag in (0.6, 0.2)]
        threads = threading.active_count()
        rep = bounds.bound_vs_empirical_sweep(trained["params"], trained["cal_ds"], calib,
                                              trained["test_ds"], series)
        assert threading.active_count() == threads
        assert rep == _bound_sweep_serial(trained["params"], trained["cal_ds"], calib,
                                          trained["test_ds"], series)

    def test_ncal_sweep_cuts_each_size_from_the_last(self, trained, monkeypatch):
        """Largest size first, each size's subset is taken from the previous
        size's subset, and it is the pool's prefix subset field by field, so
        the rows are those of the walk over pool prefixes."""
        pool = _whole_pool(trained["ds"])
        shifted = _shifted_test(trained["ds"], 0.4, 3)
        sizes = (100, 30, 150, 30, 60, 150)
        expected = _ncal_sweep_serial(trained["params"], pool, trained["test_ds"], shifted,
                                      sizes)
        sources, calibrated = [], []
        subset, calibrate = datagen.Dataset.subset, conformal.calibrate

        def logging_subset(ds, idx):
            sources.append(ds.n_nodes)
            return subset(ds, idx)

        def logging_calibrate(params, ds, *args, **kwargs):
            calibrated.append(ds)
            return calibrate(params, ds, *args, **kwargs)

        monkeypatch.setattr(datagen.Dataset, "subset", logging_subset)
        monkeypatch.setattr(conformal, "calibrate", logging_calibrate)
        rows = bounds.ncal_sweep(trained["params"], pool, trained["test_ds"], shifted, sizes)
        monkeypatch.undo()
        assert rows == expected
        assert sources == [pool.n_nodes, 150, 100, 60]
        assert [ds.n_nodes for ds in calibrated] == [150, 100, 60, 30]
        for ds in calibrated:
            prefix = pool.subset(np.arange(ds.n_nodes))
            for f in dataclasses.fields(datagen.Dataset):
                a, b = getattr(ds, f.name), getattr(prefix, f.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                else:
                    assert a == b, f.name

    def test_ncal_sweep_zero_distance_size_raises(self, trained):
        """The pool's first 60 rows are one point: sizes 20 and 50 hold no
        pair at a positive distance, and the sweep raises as the serial walk."""
        ds = trained["ds"]
        feats, y = ds.features.copy(), ds.target_y.copy()
        feats[:60], y[:60] = feats[0], y[0]
        pool = _whole_pool(datagen.replace(ds, features=feats, target_y=y))
        args = (trained["params"], pool, trained["test_ds"], trained["test_ds"], (100, 20, 50))
        with pytest.raises(ValueError, match="all calibration pairs are zero-distance"):
            _ncal_sweep_serial(*args)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="all calibration pairs are zero-distance"):
            bounds.ncal_sweep(*args)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("search_fails, calibrate_fails, message", [
        ({50, 20}, set(), "search at 50"),
        ({50}, {100}, "search at 50"),
        ({20}, {100}, "calibrate at 100"),
        ({100, 20}, {150}, "calibrate at 150"),
        ({150, 50}, {20}, "search at 150"),
    ])
    def test_ncal_sweep_raises_at_the_first_failing_size(self, trained, monkeypatch,
                                                         search_fails, calibrate_fails,
                                                         message):
        """Every size's search is submitted, largest first, before any
        size is calibrated, yet the error raised is that of the first size,
        in the order of sizes, whose calibration or search raises."""
        search, calibrate = bounds._Search, conformal.calibrate

        def failing_search(pool, x, *args):
            if x.shape[0] in search_fails:
                raise ValueError(f"search at {x.shape[0]}")
            return search(pool, x, *args)

        def failing_calibrate(params, ds, *args, **kwargs):
            if ds.n_nodes in calibrate_fails:
                raise ValueError(f"calibrate at {ds.n_nodes}")
            return calibrate(params, ds, *args, **kwargs)

        monkeypatch.setattr(bounds, "_Search", failing_search)
        monkeypatch.setattr(conformal, "calibrate", failing_calibrate)
        # the pool's rows are distinct, so a size's search sees size points
        pool = _whole_pool(trained["ds"])
        args = (trained["params"], pool, trained["test_ds"], trained["test_ds"],
                (150, 50, 100, 20))
        assert np.unique(bounds._embed(pool)[0], axis=0).shape[0] == pool.n_nodes
        with pytest.raises(ValueError, match=f"^{message}$"):
            _ncal_sweep_serial(*args)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^{message}$"):
            bounds.ncal_sweep(*args)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("one_point, delta, message", [
        (True, 1.5, "all calibration pairs are zero-distance"),
        (False, 1.5, r"delta must be in \(0, 1\)"),
        (False, 0.05, "forward"),
    ], ids=["estimate", "delta", "forward"])
    def test_bound_sweep_raises_as_the_serial_sweep(self, trained, monkeypatch, one_point,
                                                    delta, message):
        """Every forward raising, with an invalid delta, and with every
        calibration row one point: the error raised is the serial sweep's,
        which estimates first, then checks delta at the first condition's
        bound, before its forward."""
        cal = trained["cal_ds"]
        if one_point:
            cal = datagen.replace(cal, features=np.tile(cal.features[0], (cal.n_nodes, 1)),
                                  target_y=np.full(cal.n_nodes, cal.target_y[0]))
        calib = conformal.calibrate(trained["params"], cal, levels=(0.9,))

        def failing_forward(*args, **kwargs):
            raise ValueError("forward")

        monkeypatch.setattr(head, "forward", failing_forward)
        args = (trained["params"], cal, calib, trained["test_ds"], [trained["test_ds"]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            _bound_sweep_serial(*args, delta=delta)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^{message}$"):
            bounds.bound_vs_empirical_sweep(*args, delta=delta)
        assert threading.active_count() == threads
