import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calpro import datagen, head
from calpro.head import HeadConfig, NIGParams
from calpro.numerics import rng_stream, sigmoid, softplus
from calpro.objective import (
    MonotoneMap,
    ObjectiveConfig,
    evidence_reg,
    nig_nll,
    prior_penalty,
    soft_conf_loss,
    total_loss,
)

from finite_differences import finite_difference_gradient


def _random_nig(rng, n):
    """Valid NIG parameters away from constraint boundaries."""
    return NIGParams(
        mu=rng.normal(size=n),
        nu=rng.uniform(0.2, 3.0, n),
        alpha=1.0 + rng.uniform(0.2, 3.0, n),
        beta=rng.uniform(0.2, 3.0, n),
    )


def _nll_reference(mu, nu, alpha, beta, y):
    """High-precision evaluation of the likelihood formula."""
    mu, nu, alpha, beta, y = map(mpmath.mpf, (mu, nu, alpha, beta, y))
    a = nu * (y - mu) ** 2 + 2 * beta
    val = (mpmath.mpf(1) / 2 * mpmath.log(nu / mpmath.pi) - alpha * mpmath.log(2 * beta)
           + mpmath.loggamma(alpha) + (alpha + mpmath.mpf(1) / 2) * mpmath.log(a)
           - mpmath.loggamma(alpha + mpmath.mpf(1) / 2))
    return float(val)


class TestNigNll:
    def test_spot_value(self):
        p = NIGParams(np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([1.0]))
        ref = _nll_reference(0, 1, 2, 1, 0)
        assert nig_nll(p, np.array([0.0]))[0] == pytest.approx(ref, abs=1e-12)
        assert nig_nll(p, np.array([0.0]))[0] == pytest.approx(-0.5104742, abs=1e-6)

    def test_matches_reference_on_random_points(self):
        rng = rng_stream(0, 0)
        for _ in range(20):
            p = _random_nig(rng, 1)
            y = rng.normal()
            ref = _nll_reference(p.mu[0], p.nu[0], p.alpha[0], p.beta[0], y)
            assert nig_nll(p, np.array([y]))[0] == pytest.approx(ref, rel=1e-10)

    def test_even_in_residual(self):
        rng = rng_stream(1, 0)
        p = _random_nig(rng, 1)
        d = 0.73
        assert nig_nll(p, p.mu + d)[0] == pytest.approx(nig_nll(p, p.mu - d)[0], rel=1e-12)

    def test_gradients(self):
        rng = rng_stream(2, 0)
        worst = 0.0
        for _ in range(100):
            p = _random_nig(rng, 1)
            y = rng.normal()
            _, (dm, dn, da, db) = nig_nll(p, np.array([y]))
            x0 = np.array([p.mu[0], p.nu[0], p.alpha[0], p.beta[0]])
            fd = finite_difference_gradient(
                lambda v: nig_nll(NIGParams(*[np.array([c]) for c in v]), np.array([y]))[0],
                x0, 1e-6)
            g = np.array([dm[0], dn[0], da[0], db[0]])
            worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd)))))
        assert worst < 1e-4


class TestEvidenceReg:
    def test_single_alpha(self):
        assert evidence_reg(np.array([1.0]))[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_vanishes_for_large_alpha(self):
        assert evidence_reg(np.array([1e4]))[0] == 0.0

    def test_monotone_decreasing(self):
        a = np.linspace(1.1, 5.0, 20)
        vals = [evidence_reg(np.array([x]))[0] for x in a]
        assert all(b < c for b, c in zip(vals[1:], vals))

    def test_gradient(self):
        a = np.array([1.3, 2.7])
        _, g = evidence_reg(a)
        fd = finite_difference_gradient(lambda v: evidence_reg(v)[0], a, 1e-6)
        assert np.allclose(g, fd, atol=1e-8)


class TestMonotoneMap:
    def test_nondecreasing_random_weights(self):
        grid = np.linspace(0.0, 1.0, 50)
        for seed in range(1000):
            m = MonotoneMap.init(hidden=4, seed=seed)
            out = m.value_and_grads(grid)[0]
            assert np.all(np.diff(out) >= -1e-12)

    def test_zero_effective_weights_constant(self):
        # raw weights at -40 push the reparameterized weights to ~0
        m = MonotoneMap(np.full(8, -40.0), np.zeros(8), np.full(8, -40.0), 1.25)
        out = m.value_and_grads(np.linspace(0, 1, 11))[0]
        assert np.allclose(out, 1.25, atol=1e-15)

    def test_hand_evaluated_tiny_network(self):
        # raw weights 0 => effective weights log 2 everywhere, biases 0:
        # m(b) = H * relu(log2 * b) * log2 = H * (log 2)^2 * b
        m = MonotoneMap(np.zeros(3), np.zeros(3), np.zeros(3), 0.0)
        log2 = math.log(2.0)
        out = m.value_and_grads(np.array([0.0, 1.0]))[0]
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(3 * log2 * log2, abs=1e-12)

    def test_domain_check(self):
        m = MonotoneMap.init(hidden=4, seed=1)
        with pytest.raises(ValueError):
            prior_penalty(np.array([1.5]), np.array([0.0]), m)


def _monotone_outer(m, b, d_out):
    """Reference: MonotoneMap.value_and_grads as written with np.outer and one
    softplus and sigmoid call per raw weight vector; returns the values and
    the flat gradient."""
    w1 = softplus(m.w1_raw)
    w2 = softplus(m.w2_raw)
    pre = np.outer(b, w1) + m.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ w2 + m.b2
    d_pre = np.outer(d_out, w2) * (pre > 0)
    grad = np.concatenate([(d_pre * b[:, None]).sum(axis=0) * sigmoid(m.w1_raw),
                           d_pre.sum(axis=0),
                           (hidden * d_out[:, None]).sum(axis=0) * sigmoid(m.w2_raw),
                           [d_out.sum()]])
    return out, grad


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 50), st.integers(0, 2**31 - 1))
def test_monotone_map_bitwise_reference(hidden, n, seed):
    rng = rng_stream(seed, 0)
    m = MonotoneMap.init(hidden=hidden, seed=seed).from_vector(
        rng.normal(size=3 * hidden + 1) * 10.0 ** rng.uniform(-3, 2))
    b = rng.uniform(0.0, 1.0, n)
    d_out = rng.normal(size=n)
    out, vjp = m.value_and_grads(b)
    ref_out, ref_grad = _monotone_outer(m, b, d_out)
    assert out.tobytes() == ref_out.tobytes()
    assert vjp(d_out).to_vector().tobytes() == ref_grad.tobytes()


class TestMonotoneMapVector:
    def test_from_vector_copies_and_view_shares(self):
        m = MonotoneMap.init(hidden=5, seed=3)
        vec = m.to_vector()
        copied, viewed = m.from_vector(vec), m.view(vec)
        assert not any(np.shares_memory(a, vec) for a in (copied.w1_raw, copied.b1,
                                                          copied.w2_raw))
        assert all(np.shares_memory(a, vec) for a in (viewed.w1_raw, viewed.b1, viewed.w2_raw))
        vec[-1] = 2.5
        assert viewed.b2 == 2.5 and copied.b2 == m.b2
        assert m.to_vector()[-1] == m.b2 and not np.shares_memory(m.to_vector(), m.w1_raw)

    def test_length_mismatch(self):
        m = MonotoneMap.init(hidden=5, seed=3)
        with pytest.raises(ValueError, match="vector length mismatch"):
            m.from_vector(np.zeros(m.size + 1))


class TestPriorPenalty:
    def _flat_map(self, c):
        """Map that outputs the constant c for any b."""
        m = MonotoneMap(np.full(1, -40.0), np.zeros(1), np.full(1, -40.0), c)
        return m

    def test_satisfied_hinge_zero(self):
        m = self._flat_map(0.0)
        val = prior_penalty(np.array([0.5]), np.array([2.0]), m)[0]
        assert val == 0.0

    def test_single_node_sum(self):
        """One node: the mean hinge is the node's own 1.0 - 0.4."""
        m = self._flat_map(1.0)
        val = prior_penalty(np.array([0.5]), np.array([0.4]), m)[0]
        assert val == pytest.approx(0.6, abs=1e-10)

    def test_increasing_u_never_increases(self):
        m = MonotoneMap.init(hidden=4, seed=2)
        b = rng_stream(3, 0).uniform(0, 1, 20)
        u = rng_stream(3, 1).uniform(0, 1, 20)
        v0 = prior_penalty(b, u, m)[0]
        v1 = prior_penalty(b, u + 0.3, m)[0]
        assert v1 <= v0 + 1e-12

    def test_gradients(self):
        m = MonotoneMap.init(hidden=4, seed=5)
        rng = rng_stream(6, 0)
        b = rng.uniform(0, 1, 15)
        u = rng.uniform(0, 0.5, 15)
        _, d_u, d_m = prior_penalty(b, u, m)
        fd_u = finite_difference_gradient(lambda v: prior_penalty(b, v, m)[0], u, 1e-6)
        assert np.allclose(d_u, fd_u, atol=1e-6)
        x0 = m.to_vector()
        fd_m = finite_difference_gradient(
            lambda v: prior_penalty(b, u, m.from_vector(v))[0], x0, 1e-6)
        assert np.allclose(d_m.to_vector(), fd_m, atol=1e-6)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            prior_penalty(np.array([-0.1]), np.array([1.0]), MonotoneMap.init())


class TestSoftConfLoss:
    def test_equal_scores(self):
        cfg = ObjectiveConfig()
        val = soft_conf_loss(np.full(9, 1.7), cfg)[0]
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_small_kappa_limit(self):
        from calpro.numerics import soft_quantile_and_grad
        cfg = ObjectiveConfig(kappa=1e-4, gamma=10.0)
        s = np.array([0.0, 0.0, 0.0, 10.0])
        # kappa -> 0: scores below the quantile vanish, the rest approach
        # their positive part over kappa
        q = soft_quantile_and_grad(s, cfg.gamma)[0]
        expected = float(np.mean(np.maximum(s - q, 0.0))) / cfg.kappa
        assert soft_conf_loss(s, cfg)[0] == pytest.approx(expected, rel=1e-3)

    def test_permutation_invariance(self):
        cfg = ObjectiveConfig()
        rng = rng_stream(7, 0)
        s = rng.uniform(0, 3, 25)
        v = soft_conf_loss(s, cfg)[0]
        assert soft_conf_loss(rng.permutation(s), cfg)[0] == pytest.approx(v, rel=1e-12)

    def test_gradient_without_stopgrad(self):
        cfg = ObjectiveConfig()
        s = rng_stream(8, 0).uniform(0, 3, 12)
        _, g = soft_conf_loss(s, cfg, stopgrad=False)
        fd = finite_difference_gradient(lambda v: soft_conf_loss(v, cfg)[0], s, 1e-6)
        assert np.max(np.abs(g - fd)) < 1e-6

    def test_stopgrad_drops_quantile_path(self):
        from calpro.numerics import sigmoid, soft_quantile_and_grad
        cfg = ObjectiveConfig()
        s = rng_stream(9, 0).uniform(0, 3, 12)
        _, g = soft_conf_loss(s, cfg, stopgrad=True)
        q = soft_quantile_and_grad(s, cfg.gamma)[0]
        expected = sigmoid((s - q) / cfg.kappa) / cfg.kappa / s.size
        assert np.allclose(g, expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_conf_loss(np.array([]), ObjectiveConfig())


class TestTotalLoss:
    def _setup(self, seed=0):
        ds = datagen.gen_chain_dataset(
            datagen.GeneratorConfig(n_chains=2, chain_length=10, seed=seed))
        params = head.init_head(HeadConfig(widths=(6, 6)), ds.features.shape[1], seed)
        mono = MonotoneMap.init(hidden=4, seed=seed)
        return ds, params, mono

    def test_all_lambda_zero_equals_nll(self):
        ds, params, mono = self._setup()
        cfg = ObjectiveConfig(lambda_evid=0.0, lambda_prior=0.0, lambda_conf=0.0)
        total, parts, _, _ = total_loss(params, mono, ds, cfg)
        nig = head.forward(params, ds)
        assert total == pytest.approx(nig_nll(nig, ds.target_y)[0], rel=1e-12)

    def test_prior_term_scales_linearly(self):
        ds, params, mono = self._setup(seed=3)
        base = ObjectiveConfig(lambda_evid=0.0, lambda_conf=0.0, lambda_prior=0.1)
        dbl = ObjectiveConfig(lambda_evid=0.0, lambda_conf=0.0, lambda_prior=0.2)
        t1, p1, _, _ = total_loss(params, mono, ds, base)
        t2, p2, _, _ = total_loss(params, mono, ds, dbl)
        assert (t2 - p2["nig"]) == pytest.approx(2 * (t1 - p1["nig"]), rel=1e-9)

    def test_end_to_end_gradient(self):
        ds, params, mono = self._setup(seed=4)
        cfg = ObjectiveConfig()
        epoch = 50   # past the stop-gradient phase, so FD sees the true loss
        _, _, hg, mg = total_loss(params, mono, ds, cfg, epoch=epoch)
        g = np.concatenate([hg.to_vector(), mg.to_vector()])
        theta0 = np.concatenate([params.to_vector(), mono.to_vector()])
        n_head = params.to_vector().size

        def scalar(v):
            return total_loss(params.from_vector(v[:n_head]),
                              mono.from_vector(v[n_head:]), ds, cfg, epoch=epoch)[0]

        idx = rng_stream(12, 0).choice(theta0.size, 60, replace=False)
        h = 1e-6
        for i in idx:
            up = theta0.copy()
            up[i] += h
            dn = theta0.copy()
            dn[i] -= h
            fd = (scalar(up) - scalar(dn)) / (2 * h)
            assert abs(g[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_stopgrad_epoch_gradient_freezes_quantile(self):
        """During the stop-gradient phase the analytic gradient must match
        finite differences of a loss whose conformal quantile is frozen."""
        from calpro.numerics import soft_quantile_and_grad
        ds, params, mono = self._setup(seed=13)
        cfg = ObjectiveConfig()
        _, _, hg, mg = total_loss(params, mono, ds, cfg, epoch=0)
        g = np.concatenate([hg.to_vector(), mg.to_vector()])
        nig0 = head.forward(params, ds)
        q0 = soft_quantile_and_grad(np.abs(ds.target_y - nig0.mu), cfg.gamma)[0]
        n_head = params.to_vector().size

        def frozen_q_loss(v):
            p = params.from_vector(v[:n_head])
            m = mono.from_vector(v[n_head:])
            nig = head.forward(p, ds)
            s = np.abs(ds.target_y - nig.mu)
            conf = float(np.mean(softplus((s - q0) / cfg.kappa)))
            val, parts, _, _ = total_loss(p, m, ds, cfg, epoch=0)
            return val - cfg.lambda_conf * parts["soft_conf"] + cfg.lambda_conf * conf

        theta0 = np.concatenate([params.to_vector(), mono.to_vector()])
        idx = rng_stream(14, 0).choice(theta0.size, 40, replace=False)
        h = 1e-6
        for i in idx:
            up = theta0.copy()
            up[i] += h
            dn = theta0.copy()
            dn[i] -= h
            fd = (frozen_q_loss(up) - frozen_q_loss(dn)) / (2 * h)
            assert abs(g[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_parts_reported(self):
        ds, params, mono = self._setup(seed=5)
        _, parts, _, _ = total_loss(params, mono, ds, ObjectiveConfig())
        assert set(parts) == {"nig", "evidence", "prior", "soft_conf"}
        assert parts["evidence"] >= 0 and parts["prior"] >= 0 and parts["soft_conf"] >= 0

    def test_mu_only_is_mse(self):
        ds, params, mono = self._setup(seed=6)
        cfg = ObjectiveConfig(mu_only=True)
        total, parts, _, _ = total_loss(params, mono, ds, cfg)
        nig = head.forward(params, ds)
        assert total == pytest.approx(float(np.mean((ds.target_y - nig.mu) ** 2)))


@pytest.mark.parametrize("mu_only", [False, True])
def test_total_loss_into_buffer_bitwise(mu_only):
    """with out=, the gradients land in out with the bits of a fresh call,
    and the returned gradients are views of it."""
    ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(n_chains=3, chain_length=12, seed=7))
    params = head.init_head(HeadConfig(), ds.features.shape[1], 7)
    mono = MonotoneMap.init(hidden=4, seed=7)
    cfg = ObjectiveConfig(mu_only=mu_only)
    val, parts, hg, mg = total_loss(params, mono, ds, cfg, epoch=20)
    fresh = np.concatenate([hg.to_vector(), mg.to_vector()])
    buf = np.full(fresh.size, np.nan)
    val_b, parts_b, hg_b, mg_b = total_loss(params, mono, ds, cfg, epoch=20, out=buf)
    assert (val_b, parts_b) == (val, parts)
    assert buf.tobytes() == fresh.tobytes()
    assert np.shares_memory(hg_b.w_out, buf) and np.shares_memory(mg_b.w1_raw, buf)


def test_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(gamma=0.0).validate()
    with pytest.raises(ValueError):
        ObjectiveConfig(lambda_prior=-0.1).validate()
    ObjectiveConfig(lambda_prior=0.0).validate()   # ablations allowed
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma and kappa"):
            ObjectiveConfig(kappa=bad).validate()
        with pytest.raises(ValueError, match="objective weights"):
            ObjectiveConfig(lambda_conf=bad).validate()
    # no hidden unit: m(b) would be the constant b2, reading no prior
    for hidden in (0, -1):
        with pytest.raises(ValueError, match="monotone_hidden must be >= 1"):
            ObjectiveConfig(monotone_hidden=hidden).validate()
