"""Calibration, sharpness, correlation and group-conditional reporting."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal as conf_mod
from . import head as head_mod
from .numerics import spearman

DEFAULT_LEVEL_GRID = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))

UNDEFINED = float("nan")


@dataclass(frozen=True)
class MetricsReport:
    coverage: dict            # level -> fraction
    ece: float
    ace: float
    sharpness: dict           # level -> mean width
    spearman_uncertainty_error: float
    group_table: dict         # tag -> {count, coverage, ece}
    counts: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "coverage": {str(k): v for k, v in self.coverage.items()},
            "ece": self.ece,
            "ace": self.ace,
            "sharpness": {str(k): v for k, v in self.sharpness.items()},
            "spearman_uncertainty_error": self.spearman_uncertainty_error,
            "group_table": self.group_table,
            "counts": self.counts,
        }


def coverage(ivals, y):
    """Fraction of targets inside their interval (inclusive bounds)."""
    ivals = np.asarray(ivals, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("coverage of empty input")
    return float(np.mean((ivals[:, 0] <= y) & (y <= ivals[:, 1])))


def sharpness(ivals):
    """Mean interval width."""
    ivals = np.asarray(ivals, dtype=float)
    if ivals.size == 0:
        raise ValueError("sharpness of empty input")
    return float(np.mean(ivals[:, 1] - ivals[:, 0]))


def ece(nig, y, calib, level_grid=DEFAULT_LEVEL_GRID):
    """Mean absolute deviation of empirical coverage from the nominal level
    over a grid; quantiles for off-calibration levels come from the retained
    calibration scores."""
    if y.size == 0:
        raise ValueError("empty test set")
    s_test = conf_mod.scores_from_nig(nig, y, calib.score_mode)
    devs = [abs(float(np.mean(s_test <= q)) - tau)
            for q, tau in zip(calib.quantiles_at(level_grid), level_grid)]
    return float(np.mean(devs))


def ace(nig, y, calib, n_bins=10, tau=0.9):
    """Adaptive calibration error: equal-mass bins by predicted variance,
    mean absolute coverage deviation at tau within bins."""
    if y.size < n_bins:
        raise ValueError("too few nodes for the requested number of bins")
    var = head_mod.epistemic_variance(nig)
    s_test = conf_mod.scores_from_nig(nig, y, calib.score_mode)
    q = calib.quantile_at(tau)
    order = np.argsort(var, kind="stable")
    bins = np.array_split(order, n_bins)
    devs = [abs(float(np.mean(s_test[b] <= q)) - tau) for b in bins if b.size]
    return float(np.mean(devs))


def group_report(ivals, y, group_tags, tau):
    """Per-group conditional coverage and a single-level group ECE
    (|coverage - tau|) for each tag present."""
    ivals = np.asarray(ivals, dtype=float)
    y = np.asarray(y, dtype=float)
    tags = np.asarray(group_tags, dtype=str)
    table = {}
    for tag in np.unique(tags).tolist():
        mask = tags == tag
        cov = coverage(ivals[mask], y[mask])
        table[tag] = {"count": int(mask.sum()), "coverage": cov, "ece": abs(cov - tau)}
    return table


def full_report(head_params, calib, test_ds, levels=conf_mod.DEFAULT_LEVELS) -> MetricsReport:
    """Standard report on the head's predictions for test_ds."""
    nig = head_mod.forward(head_params, test_ds)
    return report_from_nig(nig, calib, test_ds, levels)


def report_from_nig(nig, calib, test_ds, levels) -> MetricsReport:
    """Standard report of the predictions nig for test_ds: coverage/sharpness
    per level, ECE, ACE, uncertainty-error correlation and a group table at
    tau=0.9."""
    y = test_ds.target_y
    cov = {}
    shp = {}
    for tau in levels:
        iv = conf_mod.intervals(nig, calib, tau)
        cov[float(tau)] = coverage(iv, y)
        shp[float(tau)] = sharpness(iv)
    unc = np.sqrt(np.maximum(head_mod.epistemic_variance(nig), 0.0))
    err = np.abs(y - nig.mu)
    rho = spearman(unc, err)
    iv90 = conf_mod.intervals(nig, calib, 0.9 if 0.9 in [float(t) for t in levels]
                              else levels[-1])
    groups = group_report(iv90, y, test_ds.group_tags, 0.9)
    return MetricsReport(
        coverage=cov,
        ece=ece(nig, y, calib),
        ace=ace(nig, y, calib) if test_ds.n_nodes >= 10 else UNDEFINED,
        sharpness=shp,
        spearman_uncertainty_error=rho if not math.isnan(rho) else UNDEFINED,
        group_table=groups,
        counts={"test": int(test_ds.n_nodes), "cal": int(calib.n_cal)},
    )


def export_calibration_curve(path, nig, y, calib, level_grid=DEFAULT_LEVEL_GRID):
    """CSV of (nominal level, empirical coverage)."""
    s_test = conf_mod.scores_from_nig(nig, y, calib.score_mode)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["nominal_level", "empirical_coverage"])
        for q, tau in zip(calib.quantiles_at(level_grid), level_grid):
            w.writerow([tau, float(np.mean(s_test <= q))])
