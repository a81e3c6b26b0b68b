"""Output checks for benchmark runs.

Each check returns a list of problem strings; an empty list means the output
passed.  A run with any problem counts as a failed run.
"""

import json
import math
from fractions import Fraction

import numpy as np

from calpro import conformal


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(data):
    """Parse bytes or str as strict JSON (no NaN or Infinity)."""
    return json.loads(data, parse_constant=_reject_constant)


def strict_json_files(out_dir):
    """Parse every *.json artifact in out_dir strictly; returns (docs, problems)."""
    docs, problems = {}, []
    for path in sorted(out_dir.glob("*.json")):
        try:
            docs[path.name] = strict_json(path.read_bytes())
        except ValueError as exc:
            problems.append(f"{path.name}: not strict JSON ({exc})")
    return docs, problems


def in_unit_interval(label, value, upper=1.0):
    """Problem unless value is a finite number in [0, upper]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return [f"{label}: {value!r} is not a number"]
    if not math.isfinite(value) or not 0.0 <= value <= upper:
        return [f"{label}: {value!r} outside [0, {upper}]"]
    return []


def report_values(label, report):
    """Coverage per level and ECE of a MetricsReport dict lie in [0, 1]."""
    problems = in_unit_interval(f"{label}.ece", report["ece"])
    for level, cov in report["coverage"].items():
        problems += in_unit_interval(f"{label}.coverage[{level}]", cov)
    return problems


def rank_rule(label, levels, quantiles, scores):
    """Each quantile equals the ceil((n+1) tau)-th smallest score, or +inf
    when that rank exceeds n."""
    s = np.sort(np.asarray(scores, dtype=float))
    n = s.size
    problems = []
    for tau in levels:
        k = math.ceil((n + 1) * Fraction(repr(float(tau))))
        expected = math.inf if k > n else float(s[k - 1])
        got = float(quantiles[tau])
        if got != expected:
            problems.append(f"{label}: q({tau}) = {got!r}, rank rule gives {expected!r}"
                            f" (k={k}, n={n})")
    return problems


def calibration(label, calib):
    if calib.n_cal != calib.scores.size:
        return [f"{label}: n_cal {calib.n_cal} != {calib.scores.size} retained scores"]
    return rank_rule(label, calib.levels, calib.quantiles, calib.scores)


def coverage_bound(label, value, tau):
    """A coverage bound lies in [0, 1 - alpha] with alpha = 1 - tau."""
    return in_unit_interval(label, value, upper=1.0 - (1.0 - tau))


def sanitize(obj):
    """Plain-JSON copy: tuples become lists, numpy scalars become Python
    numbers, non-finite floats become their repr strings."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


class CalibrationCapture:
    """Context manager that keeps every ConformalCalibration that
    conformal.calibrate returns, so the rank rule can be checked after the
    timed region.  The cost is one extra Python call per calibration."""

    def __init__(self):
        self.calibrations = []

    def __enter__(self):
        self._orig = conformal.calibrate
        orig, kept = self._orig, self.calibrations

        def capture(*args, **kwargs):
            calib = orig(*args, **kwargs)
            kept.append(calib)
            return calib

        conformal.calibrate = capture
        return self

    def __exit__(self, *exc):
        conformal.calibrate = self._orig
        return False
