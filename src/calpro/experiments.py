"""Experiment recipes: in-distribution calibration, shift evaluation,
perturbation correlation, ablations, prior corruption, and the prior-aware
efficiency comparison.  Everything is deterministic in (spec, seeds)."""

import collections
import contextlib
import itertools
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from . import bounds as bounds_mod
from . import conformal as conf_mod
from . import datagen
from . import head as head_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .objective import ObjectiveConfig

ABLATIONS = ("full", "no_conformal", "no_evidential", "no_priors")

PERTURBATION_KINDS = ("gaussian", "segment_swap", "block_rotate", "blur")

DEFAULT_PERTURBATION_MAGNITUDE = {
    "gaussian": 0.5, "segment_swap": 2.0, "block_rotate": 0.8, "blur": 2.0,
}

# gaussian perturbation magnitudes of the bound sweep (and of `calpro bound`)
DEFAULT_MAGNITUDES = (0.1, 0.25, 0.5, 1.0)


def _check_unit(name, value):
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def desk_train_config(seed=0):
    """Fast desk-scale training defaults used by the experiment recipes.

    A fixed 40-epoch budget with selection pinned to the final epoch: on
    datasets this small the validation-ECE signal is mostly binomial noise,
    so a fixed budget inside the stable training window is more repeatable
    than early stopping.
    """
    return trainer_mod.TrainConfig(
        learning_rate=1e-3, batch_size=16, max_epochs=40, patience=0,
        warmup_epochs=39, seed=seed,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "calibration"
    generator: datagen.GeneratorConfig = field(default_factory=datagen.GeneratorConfig)
    shifted_generator: datagen.GeneratorConfig | None = None
    shift_perturbation: dict | None = None      # {"kind", "magnitude"}
    train: trainer_mod.TrainConfig = field(default_factory=desk_train_config)
    ablations: tuple[str, ...] | None = None  # None: the recipe's default configurations
    corruption_modes: tuple[str, ...] = datagen.CORRUPTION_MODES
    corruption_sigma: float = 0.2
    seeds: tuple[int, ...] = (0,)
    levels: tuple[float, ...] = conf_mod.DEFAULT_LEVELS
    score_mode: str = "normalized"

    def validate(self):
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not self.levels or any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be non-empty and strictly increasing")
        for level in self.levels:
            _check_unit("levels", level)
        if self.ablations is not None and not self.ablations:
            raise ValueError("ablations must be non-empty")
        for a in self.ablations or ():
            if a not in ABLATIONS:
                raise ValueError(f"unknown ablation toggle {a!r}")
        for gen in (self.generator, self.shifted_generator):
            if gen is not None:
                gen.validate()
        if self.score_mode not in conf_mod.SCORE_MODES:
            raise ValueError(f"unknown score mode {self.score_mode!r}")
        for mode in self.corruption_modes:
            datagen.check_corruption_mode(mode)
        # a repeated arm would train twice and report once
        for key in ("ablations", "corruption_modes"):
            arms = getattr(self, key) or ()
            if len(set(arms)) < len(arms):
                raise ValueError(f"{key} must not repeat an entry, got {list(arms)}")
        shift = self.shift_perturbation
        if shift is not None:
            if not isinstance(shift, dict) or set(shift) != {"kind", "magnitude"}:
                raise ValueError("shift_perturbation must be an object with exactly the keys "
                                 "kind and magnitude")
            if shift["kind"] not in PERTURBATION_KINDS:
                raise ValueError(f"unknown perturbation kind {shift['kind']!r}")
            datagen.check_magnitude(shift["magnitude"])
        return self

    def echo(self):
        doc = asdict(self)
        doc["train"] = trainer_mod._config_echo(self.train)
        return doc


def _train_val(ds):
    """75/25 chain split of the train tag: fitting and validation node indices."""
    train_idx = ds.split_indices("train")
    chains = np.unique(ds.chain_ids[train_idx])
    n_fit = max(1, int(math.ceil(0.75 * chains.size)))
    in_fit = np.isin(ds.chain_ids[train_idx], chains[:n_fit])
    fit = train_idx[in_fit]
    val = train_idx[~in_fit]
    if val.size == 0:
        val = fit
    return fit, val


def _test_split(ds):
    return ds.subset(ds.split_indices("test"))


def _objective_for(config_name, base: ObjectiveConfig) -> ObjectiveConfig:
    if config_name == "full":
        return base
    if config_name == "no_conformal":
        return replace(base, lambda_conf=0.0)
    if config_name == "no_evidential":
        return replace(base, mu_only=True)
    if config_name == "no_priors":
        return replace(base, lambda_prior=0.0)
    if config_name == "vanilla":
        return replace(base, lambda_prior=0.0, lambda_conf=0.0, lambda_evid=0.0)
    raise ValueError(f"unknown configuration {config_name!r}")


def _stacked(stack):
    """trainer.train's arguments for the jobs (spec, configuration, seed,
    ds) of stack, all on one seed's dataset or its prior corruptions: the
    seed's config, its fitting set (one prior_b column per job where a job's
    dataset differs) and validation set, and each job's objective."""
    spec, _, seed, ds = stack[0]
    fit, val = _train_val(ds)
    fit_ds = ds.subset(fit)
    if any(job[3] is not ds for job in stack):
        fit_ds = datagen.with_priors(fit_ds, np.stack([job[3].prior_b[fit] for job in stack],
                                                      axis=-1))
    return (replace(spec.train, seed=seed), fit_ds, ds.subset(val),
            [_objective_for(config, spec.train.objective) for _, config, _, _ in stack])


def _train(args):
    """A worker's task: trainer.train(*args)."""
    return trainer_mod.train(*args)


def _runs(stack, trained):
    """Yield the run of each job of stack from trained, its stacked
    training's per-job results: the trained pieces plus the standard dataset
    slices.  A training that raised re-raises here, at its job's place."""
    for (_, config_name, seed, ds), result in zip(stack, trained):
        if isinstance(result, Exception):
            raise result
        params, mono, record = result
        yield {"ds": ds, "params": params, "mono": mono, "record": record,
               "cal_ds": ds.subset(ds.split_indices("calibration")),
               "test_ds": _test_split(ds), "config": config_name, "seed": seed}


def train_config_run(spec: ExperimentSpec, config_name, seed, ds=None):
    """Train one configuration on one seed, as a stack of one job; returns
    its run (see _runs)."""
    if ds is None:
        ds = datagen.gen_chain_dataset(replace(spec.generator, seed=seed))
    stack = [(spec, config_name, seed, ds)]
    (run,) = _runs(stack, _train(_stacked(stack)))
    return run


def _train_runs(seed_jobs, n_seeds):
    """Yield train_config_run(*job) for each job (spec, configuration, seed,
    ds) of each of the n_seeds lists of one seed's jobs in seed_jobs, in job
    order.

    A seed's jobs train as one stacked training (_stacked).  On more than
    one CPU (bounds.CPUS, which also sizes the k-NN query threads) only
    trainer.train runs elsewhere, on a pool of forked workers, one per CPU,
    and each stack is one task; when there are fewer seeds than CPUs, a
    seed's jobs are split into ceil(CPUS / n_seeds) stacks of consecutive
    jobs, so that no worker sits idle.  Stacks are drawn (and their datasets
    made) here, at most one beyond those the workers hold, as soon as a
    stack's training comes back and before the caller evaluates it; each
    keeps its seed's dataset alive until its runs are evaluated, so up to
    CPUS + 2 seeds' datasets are (247 MB in this process at 200x100, 4
    seeds, 10 epochs, 2 CPUs).  The caller evaluates each run here as it
    arrives.  A training that raises re-raises here, at its job's place.  On
    one CPU, or without fork, the stacks train here, one after another."""
    workers = bounds_mod.CPUS
    parallel = workers > 1 and hasattr(os, "fork")
    n_stacks = -(-workers // n_seeds) if parallel else 1

    def stacks():
        for jobs in seed_jobs:
            cuts = [len(jobs) * k // n_stacks for k in range(n_stacks + 1)]
            yield from (jobs[a:b] for a, b in zip(cuts, cuts[1:]) if a < b)

    if not parallel:
        for stack in stacks():
            yield from _runs(stack, _train(_stacked(stack)))
        return
    # imported here, so that importing calpro does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: two spawned workers first import numpy, scipy and
    # calpro, 0.76-0.83 s against 0.01-0.02 s forked (2-core x86-64), about a
    # whole desk recipe.  A fork executor forks every worker before it starts
    # a thread of its own.
    stacks = stacks()
    pending = collections.deque()       # (stack, future) in job order
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))

    def refill():
        for stack in itertools.islice(stacks, workers + 1 - len(pending)):
            pending.append((stack, pool.submit(_train, _stacked(stack))))

    try:
        refill()
        while pending:
            stack, future = pending.popleft()
            trained = future.result()
            refill()        # so that a worker that has finished waits for no evaluation
            yield from _runs(stack, trained)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _arm_rule(run, levels, score_mode):
    """The interval rule of the run's arm, which every recipe follows, at
    each level: (score mode, {level: score quantile}, calibration or None).
    no_conformal: the uncalibrated Gaussian band ndtri((1 + tau) / 2) on the
    normalized scale; no_evidential (a point head) and vanilla: split
    conformal on the absolute score; any other arm: in score_mode."""
    if run["config"] == "no_conformal":
        return "normalized", {float(tau): ndtri(0.5 * (1.0 + tau)) for tau in levels}, None
    mode = "absolute" if run["config"] in ("no_evidential", "vanilla") else score_mode
    calib = conf_mod.calibrate(run["params"], run["cal_ds"], levels=levels, mode=mode)
    return mode, calib.quantiles, calib


def _evaluate(run, spec: ExperimentSpec):
    """Coverage/sharpness per level, ECE and the uncertainty-error Spearman
    of one trained configuration; no_conformal's ECE is over spec.levels."""
    mode, quantiles, calib = _arm_rule(run, spec.levels, spec.score_mode)
    nig = head_mod.forward(run["params"], run["test_ds"])
    ivals = {tau: conf_mod.band(nig, q, mode) for tau, q in quantiles.items()}
    y = run["test_ds"].target_y
    cov = {tau: metrics_mod.coverage(iv, y) for tau, iv in ivals.items()}
    return {"coverage": cov,
            "sharpness": {tau: metrics_mod.sharpness(iv) for tau, iv in ivals.items()},
            "ece": (metrics_mod.ece(nig, y, calib) if calib is not None
                    else float(np.mean([abs(c - tau) for tau, c in cov.items()]))),
            "spearman": metrics_mod.uncertainty_error_spearman(nig, y)}


def _scored(run, test_ds, tau, score_mode):
    """The tau-intervals of the run's arm (_arm_rule) for test_ds, predicted
    once, scored: ({coverage, degradation, sharpness}, intervals)."""
    mode, quantiles, _ = _arm_rule(run, (tau,), score_mode)
    iv = conf_mod.band(head_mod.forward(run["params"], test_ds), quantiles[float(tau)], mode)
    cov = metrics_mod.coverage(iv, test_ds.target_y)
    return {"coverage": cov, "degradation": tau - cov,
            "sharpness": metrics_mod.sharpness(iv)}, iv


def _configured(spec: ExperimentSpec, default):
    """spec with the recipe's default configurations if it sets none."""
    return spec if spec.ablations is not None else replace(spec, ablations=default)


def _per_seed(spec: ExperimentSpec, arms, one_seed):
    """Validate spec, then one_seed(runs) for each seed, where runs yields,
    in order, the run (see _runs) of each arm (configuration,
    corruption mode or None) of arms: the configuration trained on the
    seed's generated dataset, its priors corrupted by the mode, if any.  The
    trainings run ahead of one_seed, across seeds, and a seed's arms train
    as one stack (_train_runs).  Returns spec's echo, which names the
    configurations the arms train as its ablations, and the per-seed list."""
    spec.validate()

    def seed_jobs():
        for seed in spec.seeds:
            ds = datagen.gen_chain_dataset(replace(spec.generator, seed=seed))
            yield [(spec, config, seed, ds if mode is None else datagen.corrupt_priors(
                ds, mode, seed=seed, sigma=spec.corruption_sigma)) for config, mode in arms]

    # not validated: efficiency's vanilla arm is no ablation toggle
    echo = replace(spec, ablations=tuple(dict.fromkeys(config for config, _ in arms))).echo()
    with contextlib.closing(_train_runs(seed_jobs(), len(spec.seeds))) as runs:
        return echo, [one_seed(itertools.islice(runs, len(arms))) for _ in spec.seeds]


def _seed_median(per_seed):
    """Median across seeds of same-shaped nested dicts, leaf by leaf; keys
    become strings, as in the JSON artifacts."""
    if isinstance(per_seed[0], dict):
        return {str(k): _seed_median([s[k] for s in per_seed]) for k in per_seed[0]}
    return float(np.median(per_seed))


def run_calibration_experiment(spec: ExperimentSpec):
    """Table-1-shaped rows: per configuration (default: every ablation),
    median coverage/ECE/sharpness across seeds at the requested levels."""
    spec = _configured(spec, ABLATIONS)
    echo, per_seed = _per_seed(
        spec, [(name, None) for name in spec.ablations],
        lambda runs: {run["config"]: _evaluate(run, spec) for run in runs})
    rows = _seed_median(per_seed)
    for row in rows.values():
        del row["spearman"]     # reported per seed only
    return {"experiment": "calibration", "spec": echo, "rows": rows, "per_seed": per_seed}


def _shifted_test(spec: ExperimentSpec, ds, seed):
    """Shifted test condition: regenerated from the shifted generator and/or
    perturbed from the source structures."""
    if spec.shifted_generator is not None:
        return _test_split(datagen.gen_chain_dataset(
            replace(spec.shifted_generator, seed=seed + 10000)))
    return _test_split(datagen.perturb(ds, spec.shift_perturbation["kind"],
                                       spec.shift_perturbation["magnitude"], seed=seed))


def run_shift_experiment(spec: ExperimentSpec, tau=conf_mod.DEFAULT_TAU):
    """Coverage and degradation on a shifted test condition for each
    configuration (default: full and no_priors)."""
    spec = _configured(spec, ("full", "no_priors"))
    if spec.shifted_generator is None and spec.shift_perturbation is None:
        raise ValueError("shift experiment needs a shifted generator or a perturbation")
    _check_unit("tau", tau)

    def one_seed(runs):
        out = {}
        for run in runs:
            if not out:     # the seed's shifted test set, from its first run's dataset
                shifted = _shifted_test(spec, run["ds"], run["seed"])
            out[run["config"]] = _scored(run, shifted, tau, spec.score_mode)[0]
        return out

    echo, per_seed = _per_seed(spec, [(name, None) for name in spec.ablations], one_seed)
    return {"experiment": "shift", "spec": echo, "tau": tau,
            "rows": _seed_median(per_seed), "per_seed": per_seed}


def run_perturbation_correlation(spec: ExperimentSpec):
    """Spearman(predicted sqrt(Var), realized error) per perturbation kind,
    each at its DEFAULT_PERTURBATION_MAGNITUDE, for full and no_priors
    configurations."""
    def one_seed(runs):
        out = {}
        for run in runs:
            if not out:     # the seed's perturbed test sets, from its first run's dataset
                tests = {kind: _test_split(datagen.perturb(
                    run["ds"], kind, DEFAULT_PERTURBATION_MAGNITUDE[kind], seed=run["seed"]))
                         for kind in PERTURBATION_KINDS}
            row = {}
            for kind, test_ds in tests.items():
                row[kind] = metrics_mod.uncertainty_error_spearman(
                    head_mod.forward(run["params"], test_ds), test_ds.target_y)
            row["overall"] = float(np.mean([row[k] for k in PERTURBATION_KINDS]))
            out[run["config"]] = row
        return out

    echo, per_seed = _per_seed(spec, [("full", None), ("no_priors", None)], one_seed)
    return {"experiment": "perturbation_correlation", "spec": echo,
            "rows": _seed_median(per_seed), "per_seed": per_seed}


def run_prior_corruption(spec: ExperimentSpec, tau=conf_mod.DEFAULT_TAU):
    """Retrain under corrupted priors with identical settings; report
    coverage, degradation and sharpness per corruption mode."""
    _check_unit("tau", tau)
    modes = (None, *spec.corruption_modes)

    def one_seed(runs):
        return {mode or "full": _scored(run, run["test_ds"], tau, spec.score_mode)[0]
                for mode, run in zip(modes, runs)}

    echo, per_seed = _per_seed(spec, [("full", mode) for mode in modes], one_seed)
    return {"experiment": "prior_corruption", "spec": echo, "tau": tau,
            "rows": _seed_median(per_seed), "per_seed": per_seed}


def run_efficiency_experiment(spec: ExperimentSpec, tau=conf_mod.DEFAULT_TAU):
    """Stable-region width of prior-aware normalized conformal vs vanilla
    absolute conformal on an unregularized head, at matched coverage."""
    _check_unit("tau", tau)

    def one_seed(runs):
        cov, width = {}, {}
        for run in runs:
            row, iv = _scored(run, run["test_ds"], tau, "normalized")
            stable = ~run["test_ds"].disorder_flags
            cov[run["config"]] = row["coverage"]
            width[run["config"]] = float(np.mean(iv[stable, 1] - iv[stable, 0]))
        slack = 1.96 * math.sqrt(tau * (1 - tau) / run["test_ds"].n_nodes)
        return {"width_ratio": width["full"] / width["vanilla"],
                "stable_width_full": width["full"], "stable_width_vanilla": width["vanilla"],
                "coverage_full": cov["full"], "coverage_vanilla": cov["vanilla"],
                "coverage_slack": slack,
                "inconclusive": abs(cov["full"] - cov["vanilla"]) > 2 * slack}

    echo, per_seed = _per_seed(spec, [("full", None), ("vanilla", None)], one_seed)
    medians = _seed_median(per_seed)
    return {
        "experiment": "efficiency", "spec": echo, "tau": tau,
        **{f"median_{k}": medians[k] for k in ("width_ratio", "coverage_full",
                                               "coverage_vanilla")},
        "per_seed": per_seed,
    }


def bound_report(run, magnitudes, tau, score_mode, delta=bounds_mod.DEFAULT_DELTA):
    """Bound vs empirical coverage of a trained run (as train_config_run
    returns it): calibrate at tau by its arm's rule (_arm_rule), then shift
    its test split by a gaussian perturbation at the run's seed per magnitude."""
    calib = _arm_rule(run, (tau,), score_mode)[2]
    shifted = [_test_split(datagen.perturb(run["ds"], "gaussian", mag, seed=run["seed"]))
               for mag in magnitudes]
    return bounds_mod.bound_vs_empirical_sweep(run["params"], run["cal_ds"], calib,
                                               run["test_ds"], shifted, tau=tau, delta=delta)


def run_bound_sweep(spec: ExperimentSpec, magnitudes=DEFAULT_MAGNITUDES,
                    tau=conf_mod.DEFAULT_TAU):
    """Fig.-1-style bound-vs-empirical series over gaussian perturbations of
    increasing magnitude, one report per seed."""
    _check_unit("tau", tau)
    if not magnitudes:
        raise ValueError("magnitudes must be non-empty")
    for magnitude in magnitudes:
        datagen.check_magnitude(magnitude, "magnitudes")

    def one_seed(runs):
        (run,) = runs
        return bound_report(run, magnitudes, tau, spec.score_mode).to_dict()

    echo, per_seed = _per_seed(spec, [("full", None)], one_seed)
    return {"experiment": "bound_sweep", "spec": echo, "tau": tau, "per_seed": per_seed}
