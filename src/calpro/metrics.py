"""Calibration, sharpness, correlation and group-conditional reporting."""

from dataclasses import asdict, dataclass, field

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
        doc = asdict(self)
        for key in ("coverage", "sharpness"):
            doc[key] = {str(k): v for k, v in doc[key].items()}
        return doc


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


def calibration_curve(nig, y, calib, level_grid=DEFAULT_LEVEL_GRID):
    """Empirical coverage of targets y at each nominal level of the grid;
    quantiles for off-calibration levels come from the retained calibration
    scores."""
    s_test = conf_mod.scores_from_nig(nig, y, calib.score_mode)
    return [float(np.mean(s_test <= q)) for q in calib.quantiles_at(level_grid)]


def ece(nig, y, calib, level_grid=DEFAULT_LEVEL_GRID):
    """Mean absolute deviation of empirical coverage from the nominal level
    over a grid."""
    if y.size == 0:
        raise ValueError("empty test set")
    curve = calibration_curve(nig, y, calib, level_grid)
    return float(np.mean([abs(cov - tau) for cov, tau in zip(curve, level_grid)]))


def ace(nig, y, calib):
    """Adaptive calibration error: 10 equal-mass bins by predicted variance,
    mean absolute coverage deviation at DEFAULT_TAU within bins."""
    if y.size < 10:
        raise ValueError("too few nodes for 10 bins")
    var = head_mod.epistemic_variance(nig)
    s_test = conf_mod.scores_from_nig(nig, y, calib.score_mode)
    tau = conf_mod.DEFAULT_TAU
    q = calib.quantiles_at((tau,))[0]
    order = np.argsort(var, kind="stable")
    bins = np.array_split(order, 10)
    devs = [abs(float(np.mean(s_test[b] <= q)) - tau) for b in bins if b.size]
    return float(np.mean(devs))


def group_report(ivals, y, group_tags, tau):
    """Per-group conditional coverage and a single-level group ECE
    (|coverage - tau|) for each tag present."""
    ivals = np.asarray(ivals, dtype=float)
    y = np.asarray(y, dtype=float)
    tags = np.asarray(group_tags, dtype=str)
    table = {}
    # the tags present in code-point order, np.unique's, without its sort of
    # every string
    for tag in sorted(dict.fromkeys(tags.tolist())):
        mask = tags == tag
        cov = coverage(ivals[mask], y[mask])
        table[tag] = {"count": int(mask.sum()), "coverage": cov, "ece": abs(cov - tau)}
    return table


def uncertainty_error_spearman(nig, y):
    """Spearman correlation of the predicted sd sqrt(Var[mu]) with the
    realized error |y - mu|.  The variance is floored at 0, not at VAR_FLOOR,
    which would tie the smallest variances and move their ranks."""
    return spearman(np.sqrt(np.maximum(head_mod.epistemic_variance(nig), 0.0)),
                    np.abs(y - nig.mu))


def full_report(head_params, calib, test_ds) -> MetricsReport:
    """Standard report on the head's predictions for test_ds: coverage and
    sharpness at each of calib's levels, ECE, ACE, uncertainty-error
    correlation and a group table graded at DEFAULT_TAU, or at the last
    level if calib lacks it."""
    nig = head_mod.forward(head_params, test_ds)
    y = test_ds.target_y
    ivals = {tau: conf_mod.intervals(nig, calib, tau) for tau in calib.levels}
    group_tau = conf_mod.DEFAULT_TAU if conf_mod.DEFAULT_TAU in ivals else calib.levels[-1]
    return MetricsReport(
        coverage={tau: coverage(iv, y) for tau, iv in ivals.items()},
        ece=ece(nig, y, calib),
        ace=ace(nig, y, calib) if test_ds.n_nodes >= 10 else UNDEFINED,
        sharpness={tau: sharpness(iv) for tau, iv in ivals.items()},
        spearman_uncertainty_error=uncertainty_error_spearman(nig, y),
        group_table=group_report(ivals[group_tau], y, test_ds.group_tags, group_tau),
        counts={"test": int(test_ds.n_nodes), "cal": int(calib.n_cal)},
    )
