import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, psi

from calpro.numerics import (
    conformal_quantile,
    finite_difference_gradient,
    rng_stream,
    sigmoid,
    soft_quantile,
    soft_quantile_grad,
    softplus,
    spearman,
)


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

    def test_scale(self):
        # (1/s) log(1 + exp(s z))
        assert softplus(0.0, scale=4.0) == pytest.approx(math.log(2.0) / 4.0, abs=1e-12)


class TestSoftQuantile:
    def test_constant_input(self):
        s = np.full(17, 3.25)
        assert soft_quantile(s, 10.0) == pytest.approx(3.25, abs=1e-12)

    def test_two_point(self):
        ref = float(mpmath.log((1 + mpmath.e ** 10) / 2) / 10)
        assert soft_quantile(np.array([0.0, 1.0]), 10.0) == pytest.approx(ref, abs=1e-10)

    def test_bracketing_and_bound(self):
        rng = rng_stream(0, 0)
        for _ in range(200):
            s = rng.normal(size=rng.integers(2, 40))
            g = float(rng.uniform(0.5, 30.0))
            q = soft_quantile(s, g)
            assert np.mean(s) - 1e-12 <= q <= np.max(s) + 1e-12
            assert np.max(s) - q <= math.log(s.size) / g + 1e-12

    def test_gradient_is_softmax(self):
        rng = rng_stream(1, 0)
        s = rng.normal(size=12)
        g = soft_quantile_grad(s, 10.0)
        assert g.min() >= 0 and abs(g.sum() - 1.0) < 1e-12
        fd = finite_difference_gradient(lambda v: soft_quantile(v, 10.0), s, 1e-6)
        assert np.allclose(g, fd, atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_quantile(np.array([]), 10.0)


class TestConformalQuantile:
    def test_rank_rule_nine(self):
        assert conformal_quantile(np.arange(1.0, 10.0), 0.1) == 9.0

    def test_rank_rule_nineteen(self):
        assert conformal_quantile(np.arange(1.0, 20.0), 0.05) == 19.0

    def test_infinite_sentinel(self):
        # k = ceil((n+1)(1-alpha)) > n
        assert conformal_quantile(np.array([1.0, 2.0]), 0.05) == float("inf")

    def test_permutation_invariance(self):
        rng = rng_stream(2, 0)
        s = rng.normal(size=31)
        q = conformal_quantile(s, 0.1)
        for _ in range(10):
            assert conformal_quantile(rng.permutation(s), 0.1) == q

    def test_monte_carlo_coverage(self):
        # n_cal=10 makes the conservative rank's expected coverage 10/11,
        # leaving real margin above 0.9 for the Monte-Carlo estimate
        rng = rng_stream(3, 0)
        covs = []
        for _ in range(500):
            cal = rng.normal(size=10)
            test = rng.normal(size=200)
            q = conformal_quantile(cal, 0.1)
            covs.append(np.mean(test <= q))
        assert np.mean(covs) >= 0.9


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
