import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, psi

from calpro.numerics import (
    conformal_quantiles,
    rng_stream,
    sigmoid,
    soft_quantile_and_grad,
    softplus,
    softplus_sigmoid,
    spearman,
)

from conformal_reference import conformal_quantile
from finite_differences import finite_difference_gradient


class TestLgamma:
    """scipy.special.gammaln, the log-gamma function the NIG likelihood uses."""

    def test_integers(self):
        assert gammaln(1.0) == pytest.approx(0.0, abs=1e-12)
        assert gammaln(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        # log Gamma(1/2) = log sqrt(pi)
        assert gammaln(0.5) == pytest.approx(0.5723649429247001, abs=1e-10)

    def test_grid_against_reference(self):
        for x in np.linspace(0.5, 50.0, 120):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert abs(gammaln(float(x)) - ref) <= 1e-10, x

    def test_recurrence(self):
        for x in np.linspace(0.5, 49.0, 60):
            assert abs(gammaln(x + 1.0) - gammaln(x) - math.log(x)) <= 1e-10


class TestDigamma:
    """scipy.special.psi, the derivative of log Gamma in the likelihood's gradient."""

    def test_euler(self):
        assert psi(1.0) == pytest.approx(-0.5772156649015329, abs=1e-9)

    def test_two(self):
        assert psi(2.0) == pytest.approx(0.4227843350984671, abs=1e-9)

    def test_recurrence(self):
        for x in np.linspace(0.5, 40.0, 50):
            assert abs(psi(x + 1.0) - psi(x) - 1.0 / x) <= 1e-12

    def test_grid_against_reference(self):
        for x in np.linspace(0.5, 50.0, 120):
            ref = float(mpmath.psi(0, mpmath.mpf(float(x))))
            assert abs(psi(float(x)) - ref) <= 1e-9, x


class TestSoftplus:
    def test_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_positive(self):
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
        assert np.isfinite(softplus(1e6))

    def test_large_negative(self):
        assert softplus(-50.0) <= 1e-20


class TestSoftQuantile:
    def test_constant_input(self):
        s = np.full(17, 3.25)
        assert soft_quantile_and_grad(s, 10.0)[0] == pytest.approx(3.25, abs=1e-12)

    def test_two_point(self):
        ref = float(mpmath.log((1 + mpmath.e ** 10) / 2) / 10)
        assert soft_quantile_and_grad(np.array([0.0, 1.0]), 10.0)[0] == pytest.approx(ref, abs=1e-10)

    def test_bracketing_and_bound(self):
        rng = rng_stream(0, 0)
        for _ in range(200):
            s = rng.normal(size=rng.integers(2, 40))
            g = float(rng.uniform(0.5, 30.0))
            q = soft_quantile_and_grad(s, g)[0]
            assert np.mean(s) - 1e-12 <= q <= np.max(s) + 1e-12
            assert np.max(s) - q <= math.log(s.size) / g + 1e-12

    def test_gradient_is_softmax(self):
        rng = rng_stream(1, 0)
        s = rng.normal(size=12)
        q, g = soft_quantile_and_grad(s, 10.0)
        assert q == soft_quantile_and_grad(s, 10.0)[0]
        assert g.min() >= 0 and abs(g.sum() - 1.0) < 1e-12
        fd = finite_difference_gradient(lambda v: soft_quantile_and_grad(v, 10.0)[0], s, 1e-6)
        assert np.allclose(g, fd, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_quantile_and_grad(np.array([]), 10.0)


def _one_level(scores, alpha):
    return conformal_quantiles(scores, (alpha,))[0]


class TestConformalQuantile:
    def test_rank_rule_nine(self):
        assert _one_level(np.arange(1.0, 10.0), 0.1) == 9.0

    def test_rank_rule_nineteen(self):
        assert _one_level(np.arange(1.0, 20.0), 0.05) == 19.0

    def test_infinite_sentinel(self):
        # k = ceil((n+1)(1-alpha)) > n
        assert _one_level(np.array([1.0, 2.0]), 0.05) == float("inf")

    def test_permutation_invariance(self):
        rng = rng_stream(2, 0)
        s = rng.normal(size=31)
        q = _one_level(s, 0.1)
        for _ in range(10):
            assert _one_level(rng.permutation(s), 0.1) == q

    def test_monte_carlo_coverage(self):
        # n_cal=10 makes the conservative rank's expected coverage 10/11,
        # leaving real margin above 0.9 for the Monte-Carlo estimate
        rng = rng_stream(3, 0)
        covs = []
        for _ in range(500):
            cal = rng.normal(size=10)
            test = rng.normal(size=200)
            q = _one_level(cal, 0.1)
            covs.append(np.mean(test <= q))
        assert np.mean(covs) >= 0.9


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       st.lists(st.sampled_from((0.5, 0.8, 0.9, 0.95, 0.99)) | st.floats(0.001, 0.999),
                min_size=1, max_size=12))
def test_conformal_quantiles_rank_rule(values, taus):
    """Scores from a few integers (so with ties); sizes from 1, where any
    tau above 1/2 gives k > n and so inf."""
    s = np.array(values, dtype=float) / 4.0
    n = s.size
    alphas = [1.0 - tau for tau in taus]
    qs = conformal_quantiles(s, alphas)
    ref = [conformal_quantile(s, a) for a in alphas]
    assert np.array(qs).tobytes() == np.array(ref).tobytes()
    for alpha, q in zip(alphas, qs):
        k = math.ceil((n + 1) * (1.0 - alpha))
        if k > n:
            assert q == math.inf
        else:
            assert q in s and np.sum(s <= q) >= k
    by_tau = [q for _, q in sorted(zip(taus, qs))]
    assert all(a <= b for a, b in zip(by_tau, by_tau[1:]))


def test_conformal_quantiles_checks():
    with pytest.raises(ValueError, match="empty"):
        conformal_quantiles(np.array([]), [0.1])
    with pytest.raises(ValueError, match="alpha"):
        conformal_quantiles(np.arange(5.0), [0.1, 1.0])


def _softplus_three_expressions(z):
    """Reference: softplus as written with exp(-|t|) in each branch."""
    t = np.asarray(z, dtype=float)
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(-np.abs(t))))


def _sigmoid_three_expressions(z):
    """Reference: sigmoid as written with exp(-|t|) three times."""
    t = np.asarray(z, dtype=float)
    return np.where(t >= 0, 1.0 / (1.0 + np.exp(-np.abs(t))),
                    np.exp(-np.abs(t)) / (1.0 + np.exp(-np.abs(t))))


_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         -2.2250738585072014e-308, 1e-300, -1e-300, 1e-12, -1e-12,
                         1.0, -1.0, 36.7, -36.7, 700.0, -700.0, 709.0, -709.0, 745.2, -745.2,
                         1e3, -1e3, 1e300, -1e300, 1e308, -1e308, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_softplus_sigmoid_block_bitwise(n, seed):
    """On a strided (n, 3) block, as forward and backward pass raw[:, 1:4],
    each column gets the very bits of the three-expression formulas, and
    softplus_sigmoid the very bits of softplus and sigmoid."""
    rng = rng_stream(seed, 0)
    raw = rng.standard_normal((n, 5)) * 10.0 ** rng.uniform(-8, 3, size=(n, 5))
    edges = rng.random((n, 5)) < 0.3
    raw[edges] = rng.choice(_EDGE_VALUES, size=int(edges.sum()))
    block = raw[:, 1:4]
    sp = softplus(block)
    sg = sigmoid(block)
    both = softplus_sigmoid(block)
    assert both[0].tobytes() == sp.tobytes() and both[1].tobytes() == sg.tobytes()
    for j in range(3):
        col = np.ascontiguousarray(block[:, j])
        assert sp[:, j].tobytes() == _softplus_three_expressions(col).tobytes()
        assert sg[:, j].tobytes() == _sigmoid_three_expressions(col).tobytes()
    for v in _EDGE_VALUES:
        assert np.float64(softplus(v)).tobytes() == _softplus_three_expressions(v).tobytes()
        assert np.float64(sigmoid(v)).tobytes() == _sigmoid_three_expressions(v).tobytes()


class TestFiniteDifference:
    def test_square(self):
        g = finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_difference_gradient(lambda v: 1.5, np.zeros(4), 1e-5)
        assert np.all(g == 0.0)


class TestSpearman:
    def test_identity(self):
        u = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(u, u) == pytest.approx(1.0)

    def test_reversal(self):
        u = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(u, -u) == pytest.approx(-1.0)

    def test_ties_share_average_rank(self):
        assert spearman(np.array([1.0, 2.0, 2.0, 4.0]),
                        np.array([10.0, 20.0, 20.0, 40.0])) == pytest.approx(1.0)

    def test_matches_average_rank_definition(self):
        """Reference ranks by definition: 1 + #smaller + (#equal - 1) / 2."""
        def ranks(x):
            return np.array([1 + np.sum(x < t) + (np.sum(x == t) - 1) / 2 for t in x])

        rng = rng_stream(5, 0)
        for _ in range(50):
            u = rng.integers(0, 6, size=12).astype(float)
            v = rng.integers(0, 6, size=12).astype(float)
            ru, rv = ranks(u), ranks(v)
            expected = np.mean((ru - ru.mean()) * (rv - rv.mean())) / (ru.std() * rv.std())
            assert spearman(u, v) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_sentinel(self):
        assert math.isnan(spearman(np.ones(5), np.arange(5.0)))


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 3).normal(size=10)
        b = rng_stream(42, 3).normal(size=10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(42, 0).normal(size=10)
        b = rng_stream(42, 1).normal(size=10)
        assert not np.array_equal(a, b)


def test_sigmoid_matches_softplus_derivative():
    for z in np.linspace(-20, 20, 41):
        fd = (softplus(z + 1e-6) - softplus(z - 1e-6)) / 2e-6
        assert abs(sigmoid(z) - fd) < 1e-6
