import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calpro import conformal, datagen, head, metrics
from calpro.metrics import DEFAULT_LEVEL_GRID

from conformal_reference import conformal_quantile


def _predict(trained, ds=None):
    """(NIG predictions, targets) of the trained head on ds (default: test)."""
    ds = trained["test_ds"] if ds is None else ds
    return head.forward(trained["params"], ds), ds.target_y


class TestCoverage:
    def test_all_infinite(self):
        iv = np.array([[-np.inf, np.inf]] * 4)
        assert metrics.coverage(iv, np.arange(4.0)) == 1.0

    def test_degenerate_misses(self):
        iv = np.array([[0.0, 0.0]] * 4)
        assert metrics.coverage(iv, np.ones(4)) == 0.0

    def test_half(self):
        iv = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([0.5, 0.5, 2.0, 2.0])
        assert metrics.coverage(iv, y) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.coverage(np.zeros((0, 2)), np.zeros(0))


class TestSharpness:
    def test_constant_width(self):
        iv = np.array([[0.0, 3.0], [1.0, 4.0]])
        assert metrics.sharpness(iv) == 3.0

    def test_degenerate(self):
        assert metrics.sharpness(np.array([[1.0, 1.0]])) == 0.0


class TestEce:
    def test_systematic_offset(self, trained):
        """Quantile inflation over-covers roughly uniformly; ECE equals the
        mean absolute deviation by construction."""
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,), mode="absolute")
        val = metrics.ece(*_predict(trained), calib)
        assert 0.0 <= val <= 1.0

    def test_always_empty_intervals(self, trained):
        """A zero quantile at every level covers nothing, so the deviation at
        each grid level tau is tau itself."""
        calib = conformal.ConformalCalibration(
            (0.9,), {0.9: -1.0}, "absolute", 100, np.full(100, -1.0))
        # negative quantile: no score can fall at or below it
        val = metrics.ece(*_predict(trained), calib)
        assert val == pytest.approx(float(np.mean(DEFAULT_LEVEL_GRID)), abs=1e-12)

    def test_permutation_invariance(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,), mode="absolute")
        test = trained["test_ds"]
        perm = np.random.default_rng(0).permutation(test.n_nodes)
        permuted = test.subset(perm)
        assert metrics.ece(*_predict(trained, permuted), calib) == pytest.approx(
            metrics.ece(*_predict(trained, test), calib), abs=1e-12)


def _ece_per_level(nig, y, calib, level_grid=DEFAULT_LEVEL_GRID):
    """Reference: metrics.ece as it was, one quantile_at (and so one sort of
    the calibration scores) per off-calibration level."""
    s_test = conformal.scores_from_nig(nig, y, calib.score_mode)
    devs = []
    for tau in level_grid:
        if tau in calib.quantiles:
            q = calib.quantiles[tau]
        else:
            q = conformal_quantile(calib.scores, 1.0 - tau)
        devs.append(abs(float(np.mean(s_test <= q)) - tau))
    return float(np.mean(devs))


@settings(max_examples=200, deadline=None)
@given(cal=hnp.arrays(float, st.integers(1, 60), elements=st.integers(0, 8).map(float)),
       y=hnp.arrays(float, st.integers(1, 60), elements=st.integers(-8, 8).map(float)),
       levels=st.lists(st.sampled_from(DEFAULT_LEVEL_GRID), unique=True),
       stored=st.floats(-1.0, 9.0))
def test_ece_matches_per_level_reference(cal, y, levels, stored):
    """Bitwise, with ties in the scores, ranks past n (q = inf) and stored
    calibration-level quantiles that the retained scores would not give."""
    levels = tuple(sorted(levels))
    calib = conformal.ConformalCalibration(levels, {t: stored for t in levels}, "absolute",
                                           cal.size, cal)
    ones = np.ones(y.size)
    nig = head.NIGParams(mu=np.zeros(y.size), nu=ones, alpha=2.0 * ones, beta=ones)
    assert metrics.ece(nig, y, calib) == _ece_per_level(nig, y, calib)


class TestAce:
    def test_range(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,), mode="normalized")
        val = metrics.ace(*_predict(trained), calib)
        assert 0.0 <= val <= 0.9

    def test_too_few_nodes(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    levels=(0.9,))
        tiny = trained["test_ds"].subset(np.arange(5))
        with pytest.raises(ValueError):
            metrics.ace(*_predict(trained, tiny), calib)

    def test_one_hot_bin_arithmetic(self):
        """If one of ten bins over-covers fully and the rest are exactly
        nominal, ACE is 0.1/10 = 0.01; reproduced with synthetic devs."""
        devs = [0.1] + [0.0] * 9
        assert float(np.mean(devs)) == pytest.approx(0.01)


class TestGroupReport:
    def test_single_group_matches_marginal(self):
        iv = np.array([[0.0, 1.0]] * 6)
        y = np.array([0.5, 0.5, 2.0, 0.5, 2.0, 0.5])
        table = metrics.group_report(iv, y, ["g"] * 6, 0.9)
        assert table["g"]["coverage"] == metrics.coverage(iv, y)

    def test_aggregation_law(self):
        rng = np.random.default_rng(3)
        iv = np.column_stack([np.zeros(40), rng.uniform(0.5, 2.0, 40)])
        y = rng.uniform(0, 2.5, 40)
        tags = ["a"] * 25 + ["b"] * 15
        table = metrics.group_report(iv, y, tags, 0.9)
        agg = (table["a"]["count"] * table["a"]["coverage"]
               + table["b"]["count"] * table["b"]["coverage"]) / 40
        assert agg == pytest.approx(metrics.coverage(iv, y), abs=1e-12)

    def test_empty_group_sentinel(self):
        iv = np.array([[0.0, 1.0]])
        table = metrics.group_report(iv, np.array([0.5]), ["a"], 0.9)
        assert "a" in table
        # sentinel path: request a report over tags containing none of "b"
        assert table["a"]["count"] == 1

    def test_disordered_coverage_worse_with_vanilla_absolute(self):
        """Constant-width intervals under-cover the noisy group."""
        from calpro import trainer
        worse = 0
        total = 0
        for seed in range(8):
            ds = datagen.gen_chain_dataset(
                datagen.GeneratorConfig(n_chains=8, chain_length=30, seed=seed))
            tr = ds.subset(ds.split_indices("train"))
            cfg = trainer.TrainConfig(learning_rate=3e-3, batch_size=4,
                                      max_epochs=15, patience=5, seed=seed)
            params, _, _ = trainer.train(cfg, tr, tr)
            cal = ds.subset(ds.split_indices("calibration"))
            test = ds.subset(ds.split_indices("test"))
            calib = conformal.calibrate(params, cal, levels=(0.9,), mode="absolute")
            iv = conformal.intervals(head.forward(params, test), calib, 0.9)
            dis = test.disorder_flags
            if dis.any() and (~dis).any():
                total += 1
                if metrics.coverage(iv[dis], test.target_y[dis]) < \
                        metrics.coverage(iv[~dis], test.target_y[~dis]):
                    worse += 1
        assert worse >= total / 2


class TestFullReport:
    def test_shapes_and_ranges(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    mode="normalized")
        rep = metrics.full_report(trained["params"], calib, trained["test_ds"])
        assert set(rep.coverage) == {0.8, 0.9, 0.95}
        assert all(0.0 <= v <= 1.0 for v in rep.coverage.values())
        assert all(v >= 0.0 for v in rep.sharpness.values())
        assert rep.counts["test"] == trained["test_ds"].n_nodes
        d = rep.to_dict()
        assert "group_table" in d and "ece" in d

    def test_predicts_once(self, trained, forward_calls):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"],
                                    mode="normalized")
        forward_calls.clear()
        metrics.full_report(trained["params"], calib, trained["test_ds"])
        assert len(forward_calls) == 1 and forward_calls[0] is trained["test_ds"]

    def test_reports_at_the_calibration_levels(self, trained):
        calib = conformal.calibrate(trained["params"], trained["cal_ds"], levels=(0.8, 0.95))
        rep = metrics.full_report(trained["params"], calib, trained["test_ds"])
        assert list(rep.coverage) == list(rep.sharpness) == [0.8, 0.95]

    def test_group_table_graded_at_its_own_level(self, trained):
        """Without DEFAULT_TAU among the levels, the group table's intervals
        and its per-group ece both use the last level."""
        levels = (0.8, 0.95)
        calib = conformal.calibrate(trained["params"], trained["cal_ds"], levels=levels,
                                    mode="normalized")
        test = trained["test_ds"]
        rep = metrics.full_report(trained["params"], calib, test)
        iv = conformal.intervals(head.forward(trained["params"], test), calib, 0.95)
        assert rep.group_table == metrics.group_report(iv, test.target_y, test.group_tags, 0.95)
        for row in rep.group_table.values():
            assert row["ece"] == abs(row["coverage"] - 0.95)
