"""Split-conformal calibration and interval construction.

Two score modes: absolute |y - mu| (constant-width intervals, the strict
split-conformal construction) and variance-normalized |y - mu| / sqrt(Var)
(width follows the predicted variance).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import head as head_mod
from .numerics import conformal_quantiles

VAR_FLOOR = 1e-8

DEFAULT_LEVELS = (0.8, 0.9, 0.95)


@dataclass(frozen=True)
class ConformalCalibration:
    levels: tuple
    quantiles: dict           # level -> q_hat
    score_mode: str
    n_cal: int
    scores: np.ndarray        # retained calibration scores (for bounds / ECE)

    def validate(self):
        if self.n_cal < 1:
            raise ValueError("n_cal must be >= 1")
        lv = list(self.levels)
        if lv != sorted(lv) or len(set(lv)) != len(lv):
            raise ValueError("levels must be strictly increasing")
        qs = [self.quantiles[t] for t in lv]
        if any(b < a for a, b in zip(qs, qs[1:])):
            raise ValueError("quantiles must be nondecreasing in the level")
        return self

    def quantile_at(self, tau):
        """Quantile for tau, computed from the retained scores if the level
        was not part of the calibration."""
        return self.quantiles_at((tau,))[0]

    def quantiles_at(self, taus):
        """quantile_at for each tau; the levels that were not part of the
        calibration share one sort of the retained scores."""
        off = [t for t in taus if t not in self.quantiles]
        known = dict(self.quantiles)
        if off:
            known.update(zip(off, conformal_quantiles(self.scores, [1.0 - t for t in off])))
        return [known[t] for t in taus]


def scores_from_nig(nig, y, mode):
    """Per-node nonconformity scores of targets y under predictions nig."""
    resid = np.abs(y - nig.mu)
    if mode == "absolute":
        return resid
    if mode == "normalized":
        var = np.maximum(head_mod.epistemic_variance(nig), VAR_FLOOR)
        return resid / np.sqrt(var)
    raise ValueError(f"unknown score mode {mode!r}")


def calibrate(head_params, cal_ds, levels=DEFAULT_LEVELS, mode="absolute") -> ConformalCalibration:
    """Conformal quantiles on a held-out calibration set."""
    if cal_ds.n_nodes == 0:
        raise ValueError("empty calibration set")
    if np.any(cal_ds.splits == "train"):
        raise ValueError("calibration set overlaps the train split")
    nig = head_mod.forward(head_params, cal_ds)
    s = scores_from_nig(nig, cal_ds.target_y, mode)
    qs = dict(zip((float(tau) for tau in levels),
                  conformal_quantiles(s, [1.0 - tau for tau in levels])))
    return ConformalCalibration(tuple(float(t) for t in levels), qs, mode,
                                int(s.size), s).validate()


def intervals(nig, calib: ConformalCalibration, tau):
    """Per-node [lo, hi] at level tau around the predictions nig.  Absolute
    mode: mu +/- q; normalized: mu +/- q * sqrt(Var)."""
    if tau not in calib.levels:
        raise ValueError(f"level {tau} not in calibration levels {calib.levels}")
    q = calib.quantiles[float(tau)]
    if calib.score_mode == "absolute":
        half = np.full(nig.mu.shape, q)
    else:
        var = np.maximum(head_mod.epistemic_variance(nig), VAR_FLOOR)
        half = q * np.sqrt(var)
    return np.column_stack([nig.mu - half, nig.mu + half])


def save_calibration(calib: ConformalCalibration, path):
    doc = {
        "levels": list(calib.levels),
        "quantiles": {str(k): float(v) for k, v in calib.quantiles.items()},
        "score_mode": calib.score_mode,
        "n_cal": calib.n_cal,
        "scores": [float(v) for v in calib.scores],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def export_intervals_csv(path, ivals, y):
    """CSV of (node_id, lo, hi, covered)."""
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "lo", "hi", "covered"])
        for i, ((lo, hi), yi) in enumerate(zip(ivals, y)):
            w.writerow([i, float(lo), float(hi), int(lo <= yi <= hi)])
