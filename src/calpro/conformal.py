"""Split-conformal calibration and interval construction.

Two score modes: absolute |y - mu| (constant-width intervals, the strict
split-conformal construction) and variance-normalized |y - mu| / sqrt(Var)
(width follows the predicted variance).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import head as head_mod
from .numerics import conformal_quantiles

VAR_FLOOR = 1e-8

SCORE_MODES = ("absolute", "normalized")

DEFAULT_LEVELS = (0.8, 0.9, 0.95)

# the level of every single-level interval: reports' group tables, ACE,
# sweeps, bounds and active selection
DEFAULT_TAU = 0.9


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

    def quantiles_at(self, taus):
        """The quantile for each tau; the levels that were not part of the
        calibration are computed from one sort of the retained scores."""
        off = [t for t in taus if t not in self.quantiles]
        known = dict(self.quantiles)
        if off:
            known.update(zip(off, conformal_quantiles(self.scores, [1.0 - t for t in off])))
        return [known[t] for t in taus]


def _scale(nig, mode):
    """Per-node scale of the scores and interval half-widths: 1 for absolute
    scores, the floored epistemic sd sqrt(max(Var, VAR_FLOOR)) for
    normalized ones."""
    if mode == "absolute":
        return 1.0
    if mode == "normalized":
        return np.sqrt(np.maximum(head_mod.epistemic_variance(nig), VAR_FLOOR))
    raise ValueError(f"unknown score mode {mode!r}")


def scores_from_nig(nig, y, mode):
    """Per-node nonconformity scores |y - mu| / scale of targets y under
    predictions nig."""
    return np.abs(y - nig.mu) / _scale(nig, mode)


def band(nig, q, mode):
    """Per-node [lo, hi] = mu -/+ q * scale: the intervals of score quantile q."""
    half = q * _scale(nig, mode)
    return np.column_stack([nig.mu - half, nig.mu + half])


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
    """Per-node [lo, hi] at the calibrated level tau around the predictions
    nig: the band of the level's quantile."""
    if tau not in calib.levels:
        raise ValueError(f"level {tau} not in calibration levels {calib.levels}")
    return band(nig, calib.quantiles[float(tau)], calib.score_mode)


def _json_float(v):
    """v as a float, or, when it is not finite, as the string cli._sanitize
    writes ("inf"), so the file stays strict JSON."""
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def save_calibration(calib: ConformalCalibration, path):
    """UTF-8 strict JSON.  A quantile past the largest score (too few
    calibration scores for its level) is infinite: the string "inf"."""
    doc = {
        "levels": list(calib.levels),
        "quantiles": {str(k): _json_float(v) for k, v in calib.quantiles.items()},
        "score_mode": calib.score_mode,
        "n_cal": calib.n_cal,
        "scores": [float(v) for v in calib.scores],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, allow_nan=False)
