"""Budgeted active-selection simulation: acquisition by calibrated interval
width or epistemic variance against a random baseline."""

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import conformal as conf_mod
from . import head as head_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .numerics import rng_stream

STRATEGIES = ("calpro_width", "epistemic_var", "random")


@dataclass(frozen=True)
class ActiveConfig:
    seed_set_size: int = 40
    batch_size: int = 10
    rounds: int = 3
    strategy: str = "calpro_width"
    retrain: trainer_mod.TrainConfig = field(default_factory=trainer_mod.TrainConfig)
    seed: int = 0

    def validate(self, pool_size=None):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.seed_set_size < 8 or self.batch_size < 1 or self.rounds < 0:
            raise ValueError("invalid active-selection config")
        if pool_size is not None and self.seed_set_size + self.batch_size * self.rounds > pool_size:
            raise ValueError("budget exceeds pool size")
        return self


@dataclass
class ActiveCurve:
    strategy: str
    rounds: list              # per-round {round, queried, best_found, coverage, ece}
    seed: int

    def to_dict(self):
        return {"strategy": self.strategy, "rounds": self.rounds, "seed": self.seed}


def _acquisition(strategy, head_params, calib, pool_ds, idx, rng):
    """Scores for the unlabeled indices; higher means queried first."""
    if strategy == "random":
        return rng.random(idx.size)
    sub = pool_ds.subset(idx)
    nig = head_mod.forward(head_params, sub)
    if strategy == "epistemic_var":
        return head_mod.epistemic_variance(nig)
    iv = conf_mod.intervals(nig, calib, conf_mod.DEFAULT_TAU)
    return iv[:, 1] - iv[:, 0]


def run_active(pool: "Dataset", cfg: ActiveConfig) -> ActiveCurve:
    """Iterated select-label-retrain loop.

    Nodes tagged test in the pool are held out for coverage/ECE reporting;
    all others are selectable.  Each round trains on 75% of the labeled set
    and calibrates (normalized scores) on the remaining 25%.
    """
    cfg.validate()
    rng = rng_stream(cfg.seed, 30)
    test_idx = pool.split_indices("test")
    selectable = np.flatnonzero(pool.splits != "test")
    cfg.validate(pool_size=selectable.size)
    order = rng.permutation(selectable.size)
    labeled = list(selectable[order[:cfg.seed_set_size]])
    unlabeled = [int(i) for i in selectable[order[cfg.seed_set_size:]]]
    test_ds = pool.subset(test_idx) if test_idx.size else None

    rounds = []
    for rnd in range(cfg.rounds + 1):
        lab = np.array(sorted(labeled), dtype=int)
        n_train = max(4, int(round(0.75 * lab.size)))
        perm = rng_stream(cfg.seed, 31 + rnd).permutation(lab.size)
        train_idx = lab[perm[:n_train]]
        cal_idx = lab[perm[n_train:]]
        if cal_idx.size == 0:
            cal_idx = train_idx[-4:]
        train_ds = _retag(pool.subset(train_idx), "train")
        cal_ds = _retag(pool.subset(cal_idx), "calibration")
        retrain = dc_replace(cfg.retrain, seed=cfg.seed)
        params, _mono, _rec = trainer_mod.train(retrain, train_ds, cal_ds)
        calib = conf_mod.calibrate(params, cal_ds, levels=(conf_mod.DEFAULT_TAU,),
                                   mode="normalized")

        entry = {"round": rnd, "queried": sorted(int(i) for i in labeled),
                 "best_found": float(np.max(pool.target_y[lab]))}
        if test_ds is not None:
            nig = head_mod.forward(params, test_ds)
            iv = conf_mod.intervals(nig, calib, conf_mod.DEFAULT_TAU)
            entry["coverage"] = metrics_mod.coverage(iv, test_ds.target_y)
            entry["ece"] = metrics_mod.ece(nig, test_ds.target_y, calib)
        rounds.append(entry)

        if rnd == cfg.rounds or not unlabeled:
            break
        idx = np.array(unlabeled, dtype=int)
        scores = _acquisition(cfg.strategy, params, calib, pool, idx,
                              rng_stream(cfg.seed, 40 + rnd))
        # descending by score, ties broken by node index
        pick = idx[np.lexsort((idx, -np.asarray(scores)))][:cfg.batch_size]
        for i in pick:
            labeled.append(int(i))
            unlabeled.remove(int(i))
    return ActiveCurve(cfg.strategy, rounds, cfg.seed)


def _retag(ds, tag):
    return dc_replace(ds, splits=np.full(ds.n_nodes, tag))


def queries_to_top_fraction(curve: ActiveCurve, pool, fraction=0.05):
    """Acquired queries (seed set excluded) until a node in the top fraction
    of the initially-unlabeled pool targets is first labeled; inf when never
    reached.  The threshold ignores seed nodes so the statistic reflects the
    acquisition policy rather than the seed draw."""
    seed_ids = set(curve.rounds[0]["queried"])
    candidates = pool.splits != "test"
    candidates[curve.rounds[0]["queried"]] = False
    thresh = np.quantile(pool.target_y[candidates], 1.0 - fraction)
    for entry in curve.rounds[1:]:
        acquired = [i for i in entry["queried"] if i not in seed_ids]
        if any(pool.target_y[i] >= thresh for i in acquired):
            return len(acquired)
    return float("inf")


def compare_strategies(pool, configs, seeds):
    """Median curves with interquartile bands per strategy plus a query-
    savings statistic at the top-5% attainment threshold.  "curves" holds
    each strategy's ActiveCurve per seed, in seeds order."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if not configs:
        raise ValueError("strategies must be non-empty")
    budgets = {cfg.seed_set_size + cfg.batch_size * cfg.rounds for cfg in configs}
    if len(budgets) != 1:
        raise ValueError("strategies must share the same budget")
    table, all_curves = {}, {}
    for cfg in configs:
        curves = []
        for seed in seeds:
            curves.append(run_active(pool, dc_replace(cfg, seed=seed)))
        all_curves[cfg.strategy] = curves
        per_round = {}
        for rnd in range(cfg.rounds + 1):
            vals = [c.rounds[rnd]["best_found"] for c in curves if rnd < len(c.rounds)]
            per_round[rnd] = {
                "best_found_median": float(np.median(vals)),
                "best_found_q25": float(np.quantile(vals, 0.25)),
                "best_found_q75": float(np.quantile(vals, 0.75)),
            }
        queries = [queries_to_top_fraction(c, pool) for c in curves]
        auc = [float(np.sum([e["best_found"] for e in c.rounds])) for c in curves]
        table[cfg.strategy] = {
            "rounds": per_round,
            "median_queries_to_top5": float(np.median(queries)),
            "median_attainment_auc": float(np.median(auc)),
        }
    order = sorted(table, key=lambda s: -table[s]["median_attainment_auc"])
    return {"strategies": table, "ordering": order, "curves": all_curves}
