import numpy as np
import pytest

from calpro import conformal, datagen, head
from calpro.head import NIGParams
from calpro.numerics import rng_stream

from conformal_reference import conformal_quantile


def _nig(mu, var):
    """NIG parameters with the requested mean and predictive variance."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    return NIGParams(mu=mu, nu=np.ones_like(mu), alpha=np.full_like(mu, 2.0), beta=var)


class TestScores:
    def test_zero_residual(self):
        nig = _nig([1.0], [4.0])
        assert conformal.scores_from_nig(nig, np.array([1.0]), "absolute")[0] == 0.0
        assert conformal.scores_from_nig(nig, np.array([1.0]), "normalized")[0] == 0.0

    def test_absolute(self):
        nig = _nig([1.0], [1.0])
        assert conformal.scores_from_nig(nig, np.array([3.0]), "absolute")[0] == 2.0

    def test_normalized(self):
        nig = _nig([0.0], [4.0])
        assert conformal.scores_from_nig(nig, np.array([2.0]), "normalized")[0] == 1.0

    def test_variance_floor(self):
        nig = _nig([0.0], [0.0])
        s = conformal.scores_from_nig(nig, np.array([1.0]), "normalized")
        assert np.isfinite(s[0])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            conformal.scores_from_nig(_nig([0.0], [1.0]), np.array([0.0]), "weird")


class TestCalibrate:
    def test_rank_rule(self, small_chain_ds, random_head):
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        calib = conformal.calibrate(random_head, cal, levels=(0.9,), mode="absolute")
        s = conformal.scores_from_nig(head.forward(random_head, cal), cal.target_y,
                                      "absolute")
        assert calib.quantiles[0.9] == conformal_quantile(s, 0.1)
        assert calib.n_cal == cal.n_nodes

    def test_quantiles_nondecreasing(self, small_chain_ds, random_head):
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        calib = conformal.calibrate(random_head, cal)
        q = [calib.quantiles[t] for t in calib.levels]
        assert q == sorted(q)

    def test_train_overlap_rejected(self, small_chain_ds, random_head):
        tr = small_chain_ds.subset(small_chain_ds.split_indices("train"))
        with pytest.raises(ValueError, match="train"):
            conformal.calibrate(random_head, tr)

    def test_coverage_simulation(self):
        """Exchangeable scores: mean test coverage over resamples stays at or
        above the nominal level."""
        rng = rng_stream(21, 0)
        covs = []
        for _ in range(200):
            scores = rng.exponential(size=60)
            q = conformal_quantile(scores[:30], 0.1)
            covs.append(np.mean(scores[30:] <= q))
        assert np.mean(covs) >= 0.9 - 0.01


class TestIntervals:
    def test_degenerate_quantile(self):
        calib = conformal.ConformalCalibration((0.9,), {0.9: 0.0}, "absolute", 5,
                                               np.zeros(5))
        nig = _nig([1.0, 2.0], [1.0, 1.0])
        iv = conformal.intervals(nig, calib, 0.9)
        assert np.allclose(iv[:, 0], iv[:, 1])

    def test_absolute_constant_width(self, small_chain_ds, random_head):
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        test = small_chain_ds.subset(small_chain_ds.split_indices("test"))
        calib = conformal.calibrate(random_head, cal, levels=(0.9,), mode="absolute")
        iv = conformal.intervals(head.forward(random_head, test), calib, 0.9)
        widths = iv[:, 1] - iv[:, 0]
        assert np.allclose(widths, 2 * calib.quantiles[0.9])

    def test_unknown_level_rejected(self, small_chain_ds, random_head):
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        calib = conformal.calibrate(random_head, cal, levels=(0.9,))
        with pytest.raises(ValueError):
            conformal.intervals(head.forward(random_head, cal), calib, 0.85)

    def test_nested_across_levels(self, small_chain_ds, random_head):
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        test = small_chain_ds.subset(small_chain_ds.split_indices("test"))
        for mode in ("absolute", "normalized"):
            calib = conformal.calibrate(random_head, cal, mode=mode)
            nig = head.forward(random_head, test)
            iv80 = conformal.intervals(nig, calib, 0.8)
            iv95 = conformal.intervals(nig, calib, 0.95)
            assert np.all(iv95[:, 0] <= iv80[:, 0] + 1e-12)
            assert np.all(iv80[:, 1] <= iv95[:, 1] + 1e-12)

    def test_normalized_wider_on_disordered(self, trained):
        """Width tracks predicted variance, which the prior hinge pushes up
        on disordered nodes."""
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,), mode="normalized")
        test = trained["test_ds"]
        iv = conformal.intervals(head.forward(trained["params"], test), calib, 0.9)
        w = iv[:, 1] - iv[:, 0]
        dis = test.disorder_flags
        if dis.any() and (~dis).any():
            assert w[dis].mean() > 0
            assert w.std() > 0   # widths genuinely vary in normalized mode


class TestMonotoneTransformInvariance:
    def test_coverage_invariant(self):
        """Applying a strictly increasing transform to all scores before
        calibration and evaluation leaves coverage unchanged."""
        rng = rng_stream(22, 0)
        cal_s = rng.exponential(size=50)
        test_s = rng.exponential(size=50)
        q = conformal_quantile(cal_s, 0.1)
        cov = np.mean(test_s <= q)
        f = lambda s: np.log1p(3.0 * s)
        q_t = conformal_quantile(f(cal_s), 0.1)
        cov_t = np.mean(f(test_s) <= q_t)
        assert cov == cov_t


class TestSerialization:
    def test_save_calibration(self, small_chain_ds, random_head, tmp_path):
        import json
        cal = small_chain_ds.subset(small_chain_ds.split_indices("calibration"))
        calib = conformal.calibrate(random_head, cal)
        p = tmp_path / "calib.json"
        conformal.save_calibration(calib, p)
        doc = json.loads(p.read_text())
        assert doc["n_cal"] == calib.n_cal
        assert doc["score_mode"] == "absolute"
