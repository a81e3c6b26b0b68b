"""Command-line entry points.

Every subcommand reads an optional JSON config, takes --seed / --out
overrides, and writes its artifacts under the output directory.  The config
is read by json.load, which also takes NaN and Infinity; each value's range
check refuses them.  A config key the command does not read, or one the run
sets itself, is rejected, and each value is read as its dataclass field's
annotation (_read).  Reports embed the artifact version, a hash of the
effective config, and the seed; no wall-clock timestamps, so reruns are
byte-identical.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from typing import get_args, get_origin

import numpy as np

from . import active as active_mod
from . import bounds as bounds_mod
from . import conformal as conf_mod
from . import datagen
from . import experiments as exp_mod
from . import head as head_mod
from . import metrics as metrics_mod
from . import objective as obj_mod
from . import trainer as trainer_mod

REPORT_VERSION = "calpro-report/1"

# scalar annotation -> its JSON kind's name, the types json.load gives it, and
# the range a JSON integer given for it must lie in, if any: beyond int64 no
# numpy array holds it, and beyond the float range float() raises
_KINDS = {int: ("integer", int, ("int64", 2**63 - 1)),
          float: ("number", (int, float), ("float", sys.float_info.max)),
          str: ("string", str, None)}

# fields a run sets itself: each run trains with its own seed, which also draws
# the head's init, the no_evidential ablation trains the mu_only point head,
# and `active` runs active.strategies with the train section
SET_BY_RUN = {trainer_mod.TrainConfig: {"seed"}, obj_mod.ObjectiveConfig: {"mu_only"},
              active_mod.ActiveConfig: {"strategy", "seed", "retrain"}}


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: malformed config at byte offset {exc.pos}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise SystemExit("error: config must be a JSON object")
    return cfg


def _check_keys(cfg, allowed, where="config"):
    if not isinstance(cfg, dict):
        raise SystemExit(f"error: {where} must be a JSON object")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise SystemExit(f"error: unknown {where} keys: {', '.join(unknown)}")


def _read(tp, value, key, where="config"):
    """Config key `key` of `where`, read as its annotation tp: int takes a JSON
    integer in the int64 range, float any number (stored as a float; an
    integer must lie in the float range), str a string, tuple[T, ...] an
    array of T, T | None also null, and a dataclass an object of its fields
    less SET_BY_RUN's, each read the same way.  dict is left to its owner's
    validate.  Any other value is one error line that names the key."""
    if type(None) in get_args(tp):
        if value is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        _check_keys(value, {f.name for f in fields(tp)} - SET_BY_RUN.get(tp, set()), key)
        return tp(**{f.name: _read(f.type, value[f.name], f.name, key)
                     for f in fields(tp) if f.name in value})
    if tp is dict:
        return value
    item = get_args(tp)[0] if get_origin(tp) is tuple else None
    kind, types, bound = _KINDS[item or tp]
    items = value if item else [value]
    what = f"array of {kind}s" if item else kind
    # bool is a subclass of int, but a JSON boolean is no number
    if not (isinstance(items, list) and all(
            isinstance(v, types) and not isinstance(v, bool) for v in items)):
        raise SystemExit(f"error: {where} key {key} must be a JSON {what}")
    if bound and any(type(v) is int and abs(v) > bound[1] for v in items):
        raise SystemExit(f"error: {where} key {key} must be a JSON {what} within the "
                         f"{bound[0]} range")
    return tuple(map(item, value)) if item else tp(value)


def _value(cfg, key, tp, default, where="config"):
    """cfg[key] read as tp, or default if cfg has no such key."""
    return _read(tp, cfg[key], key, where) if key in cfg else default


def _in_unit(value, key, where="config"):
    if not 0.0 < value < 1.0:
        raise SystemExit(f"error: {where} key {key} must be in (0, 1), got {value!r}")
    return value


def _generator_config(cfg, seed):
    gen = _read(datagen.GeneratorConfig, cfg.get("generator", {}), "generator")
    return gen if seed is None else replace(gen, seed=seed)


def _train_config(cfg, seed):
    # the --seed override reaches the echoed train config too
    tcfg = _read(trainer_mod.TrainConfig, cfg.get("train", {}), "train")
    return tcfg if seed is None else replace(tcfg, seed=seed)


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _stamp(doc, cfg, seed, artifact):
    doc = dict(doc)
    doc.update({"artifact": artifact, "version": REPORT_VERSION,
                "config_hash": _config_hash(cfg), "seed": seed})
    return doc


def _sanitize(obj):
    """Replace non-finite floats so artifacts stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _sanitize(obj.item())
    return obj


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(doc), fh, sort_keys=True, indent=1, allow_nan=False)
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_gen_data(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator"})
    gen = _generator_config(cfg, args.seed)
    ds = datagen.gen_chain_dataset(gen)
    out = _out_dir(args)
    datagen.save_dataset(ds, os.path.join(out, "dataset.json"))
    _write_csv(os.path.join(out, "dataset.csv"),
               ["node_id", "chain_id", "prior_b", "target_y", "group_tag", "disorder_flag",
                "split"],
               ([i, int(ds.chain_ids[i]), float(ds.prior_b[i]), float(ds.target_y[i]),
                 ds.group_tags[i], int(ds.disorder_flags[i]), ds.splits[i]]
                for i in range(ds.n_nodes)))
    _write_json(os.path.join(out, "gen_report.json"),
                _stamp({"n_nodes": ds.n_nodes, "n_edges": int(ds.edges.shape[0]),
                        "generator": asdict(gen)},
                       cfg, gen.seed, "gen-data"))
    return 0


def _tau(cfg):
    return _in_unit(_value(cfg, "tau", float, conf_mod.DEFAULT_TAU), "tau")


def _delta(cfg):
    return _in_unit(_value(cfg, "delta", float, bounds_mod.DEFAULT_DELTA), "delta")


def _checked_magnitudes(values, key):
    """values, the gaussian perturbation magnitudes of config key `key`,
    unless it holds none or one that is not a positive finite number."""
    if not values:
        raise SystemExit(f"error: config key {key} must be non-empty")
    for value in values:
        if value <= 0:
            raise SystemExit(f"error: config key {key} must be positive, got {value!r}")
        datagen.check_magnitude(value)      # NaN and infinity
    return values


def _magnitudes(cfg):
    return _checked_magnitudes(
        _value(cfg, "magnitudes", tuple[float, ...], exp_mod.DEFAULT_MAGNITUDES), "magnitudes")


def _pipeline_pieces(cfg, seed, check=None):
    """Shared generate/train path for pipeline, bound and ncal-sweep; check,
    if given, sees the generated dataset before the head trains."""
    gen = _generator_config(cfg, seed)
    spec = exp_mod.ExperimentSpec(generator=gen, train=_train_config(cfg, seed))
    ds = datagen.gen_chain_dataset(gen)
    if check is not None:
        check(ds)
    return gen, exp_mod.train_config_run(spec, "full", gen.seed, ds=ds)


def cmd_pipeline(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train"})
    gen, run = _pipeline_pieces(cfg, args.seed)
    calib = conf_mod.calibrate(run["params"], run["cal_ds"],
                               levels=conf_mod.DEFAULT_LEVELS, mode=args.score_mode)
    out = _out_dir(args)
    datagen.save_dataset(run["ds"], os.path.join(out, "dataset.json"))
    head_mod.save_head(run["params"], os.path.join(out, "head.json"))
    conf_mod.save_calibration(calib, os.path.join(out, "calibration.json"))
    report = metrics_mod.full_report(run["params"], calib, run["test_ds"])
    nig = head_mod.forward(run["params"], run["test_ds"])     # the report's, kept on test_ds
    y = run["test_ds"].target_y
    grid = metrics_mod.DEFAULT_LEVEL_GRID
    _write_csv(os.path.join(out, "calibration_curve.csv"),
               ["nominal_level", "empirical_coverage"],
               zip(grid, metrics_mod.calibration_curve(nig, y, calib, grid)))
    ivals = conf_mod.intervals(nig, calib, conf_mod.DEFAULT_TAU)
    _write_csv(os.path.join(out, "intervals.csv"), ["node_id", "lo", "hi", "covered"],
               ([i, float(lo), float(hi), int(lo <= yi <= hi)]
                for i, ((lo, hi), yi) in enumerate(zip(ivals, y))))
    _write_json(os.path.join(out, "report.json"),
                _stamp({"metrics": report.to_dict(),
                        "train_record": run["record"].to_dict(),
                        "score_mode": args.score_mode},
                       cfg, gen.seed, "pipeline"))
    return 0


def cmd_bound(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train", "magnitudes", "tau", "delta"})
    magnitudes, tau, delta = _magnitudes(cfg), _tau(cfg), _delta(cfg)
    gen, run = _pipeline_pieces(cfg, args.seed)
    report = exp_mod.bound_report(run, magnitudes, tau, args.score_mode, delta=delta)
    out = _out_dir(args)
    _write_csv(os.path.join(out, "bound_curve.csv"), ["epsilon", "bound", "empirical_coverage"],
               zip(report.epsilons, report.bounds, report.empirical_coverage))
    _write_json(os.path.join(out, "bound_report.json"),
                _stamp(report.to_dict(), cfg, gen.seed, "bound"))
    return 0


def cmd_ncal_sweep(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train", "sizes", "tau", "delta", "magnitude"})
    sizes = _value(cfg, "sizes", tuple[int, ...], bounds_mod.DEFAULT_NCAL_SIZES)
    if not sizes or min(sizes) < 1:
        raise SystemExit("error: config key sizes must be a non-empty array of positive "
                         "integers")
    (magnitude,) = _checked_magnitudes(
        (_value(cfg, "magnitude", float, exp_mod.DEFAULT_PERTURBATION_MAGNITUDE["gaussian"]),),
        "magnitude")
    tau, delta = _tau(cfg), _delta(cfg)

    def pool_indices(ds):
        return np.concatenate([ds.split_indices("calibration"), ds.split_indices("train")])

    def check_pool(ds):
        n_pool = pool_indices(ds).size
        if n_pool < max(sizes):
            raise SystemExit(f"error: config key sizes asks for {max(sizes)} calibration "
                             f"nodes, but the pool holds {n_pool}")

    gen, run = _pipeline_pieces(cfg, args.seed, check_pool)
    ds = run["ds"]
    pool = ds.subset(pool_indices(ds))
    pool = replace(pool, splits=np.full(pool.n_nodes, "calibration"))
    pert = datagen.perturb(ds, "gaussian", magnitude, seed=gen.seed)
    rows = bounds_mod.ncal_sweep(run["params"], pool, run["test_ds"],
                                 pert.subset(pert.split_indices("test")),
                                 sizes=sizes, tau=tau, delta=delta, score_mode=args.score_mode)
    out = _out_dir(args)
    _write_json(os.path.join(out, "ncal_sweep.json"),
                _stamp({"rows": rows}, cfg, gen.seed, "ncal-sweep"))
    return 0


def cmd_active(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train", "active", "seeds"})
    gen = _generator_config(cfg, args.seed)
    tcfg = _train_config(cfg, args.seed)
    sub = cfg.get("active", {})
    _check_keys(sub, {f.name for f in fields(active_mod.ActiveConfig)} | {"strategies"}, "active")
    strategies = _value(sub, "strategies", tuple[str, ...], active_mod.STRATEGIES, "active")
    acfg = _read(active_mod.ActiveConfig, {k: sub[k] for k in set(sub) - {"strategies"}}, "active")
    seeds = _value(cfg, "seeds", tuple[int, ...], (gen.seed,))
    pool = datagen.gen_chain_dataset(gen)
    table = active_mod.compare_strategies(
        pool, [replace(acfg, strategy=s, retrain=tcfg) for s in strategies], seeds)
    out = _out_dir(args)
    for s, curves in table.pop("curves").items():
        # a pool without test nodes grades no round: coverage and ece are empty
        _write_csv(os.path.join(out, f"active_{s}.csv"),
                   ["round", "queries", "best_found", "coverage", "ece"],
                   ([e["round"], len(e["queried"]), e["best_found"], e.get("coverage", ""),
                     e.get("ece", "")] for e in curves[0].rounds))
    _write_json(os.path.join(out, "active_report.json"),
                _stamp(table, cfg, gen.seed, "active"))
    return 0


def _shift(spec, cfg):
    """The shift recipe; a gaussian perturbation of the default magnitude
    unless the config defines a shift."""
    if spec.shifted_generator is None and spec.shift_perturbation is None:
        spec = replace(spec, shift_perturbation={
            "kind": "gaussian", "magnitude": exp_mod.DEFAULT_PERTURBATION_MAGNITUDE["gaussian"]})
    return exp_mod.run_shift_experiment(spec, tau=_tau(cfg))


# experiment name -> (the config keys its recipe reads besides generator, train
# and seeds, recipe(spec, cfg)); each recipe looks its function up when it runs
EXPERIMENTS = {
    "calibration": ({"ablations", "levels", "score_mode"},
                    lambda spec, cfg: exp_mod.run_calibration_experiment(spec)),
    "shift": ({"ablations", "shifted_generator", "shift_perturbation", "score_mode", "tau"},
              _shift),
    "perturbation": (set(), lambda spec, cfg: exp_mod.run_perturbation_correlation(spec)),
    "prior_corruption": ({"corruption_modes", "corruption_sigma", "score_mode", "tau"},
                         lambda spec, cfg: exp_mod.run_prior_corruption(spec, tau=_tau(cfg))),
    "efficiency": ({"tau"}, lambda spec, cfg: exp_mod.run_efficiency_experiment(
        spec, tau=_tau(cfg))),
    "bound_sweep": ({"magnitudes", "score_mode", "tau"},
                    lambda spec, cfg: exp_mod.run_bound_sweep(
                        spec, magnitudes=_magnitudes(cfg), tau=_tau(cfg))),
}


def cmd_experiment(args):
    cfg = _load_config(args.config)
    reads, recipe = EXPERIMENTS[args.name]
    _check_keys(cfg, {"generator", "train", "seeds"} | reads, f"{args.name} experiment")
    if args.score_mode is not None and "score_mode" not in reads:
        raise SystemExit(f"error: the {args.name} experiment takes no --score-mode")
    gen = _generator_config(cfg, args.seed)
    doc = {"name": args.name, "seeds": [gen.seed],
           "score_mode": args.score_mode or exp_mod.ExperimentSpec.score_mode}
    # the spec's own keys; generator and train are read as their sections
    doc.update((f.name, cfg[f.name]) for f in fields(exp_mod.ExperimentSpec)
               if f.name in cfg and f.name not in ("generator", "train"))
    spec = replace(_read(exp_mod.ExperimentSpec, doc, "experiment"),
                   generator=gen, train=_train_config(cfg, args.seed))
    for level in spec.levels:
        _in_unit(level, "levels", "experiment")
    result = recipe(spec, cfg)
    out = _out_dir(args)
    _write_json(os.path.join(out, f"experiment_{args.name}.json"),
                _stamp(result, cfg, gen.seed, f"experiment:{args.name}"))
    return 0


def cmd_corrupt_priors(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "dataset", "mode", "sigma"})
    mode, sigma = _value(cfg, "mode", str, "shuffle"), _value(cfg, "sigma", float, 0.2)
    seed = args.seed if args.seed is not None else 0
    if "dataset" in cfg and "generator" in cfg:
        raise SystemExit("error: config keys dataset and generator exclude each other")
    if "dataset" in cfg:
        ds = datagen.load_dataset(_read(str, cfg["dataset"], "dataset"))
    else:
        ds = datagen.gen_chain_dataset(_generator_config(cfg, args.seed))
        seed = ds.metadata["config"]["seed"]
    corrupted = datagen.corrupt_priors(ds, mode, seed=seed, sigma=sigma)
    out = _out_dir(args)
    datagen.save_dataset(corrupted, os.path.join(out, "dataset_corrupted.json"))
    _write_json(os.path.join(out, "corrupt_report.json"),
                _stamp({"mode": mode, "n_nodes": corrupted.n_nodes}, cfg, seed,
                       "corrupt-priors"))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="calpro",
                                description="prior-aware evidential-conformal toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    # --score-mode default per command that reads one; None: the recipe's own
    score_modes = {cmd_pipeline: "normalized", cmd_bound: "normalized",
                   cmd_ncal_sweep: "normalized", cmd_experiment: None}
    for name, fn in [("gen-data", cmd_gen_data), ("pipeline", cmd_pipeline),
                     ("bound", cmd_bound), ("ncal-sweep", cmd_ncal_sweep),
                     ("active", cmd_active), ("corrupt-priors", cmd_corrupt_priors),
                     ("experiment", cmd_experiment)]:
        sp = sub.add_parser(name)
        if fn is cmd_experiment:
            sp.add_argument("name", choices=EXPERIMENTS)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--out", default=".", help="output directory")
        if fn in score_modes:
            sp.add_argument("--score-mode", choices=conf_mod.SCORE_MODES,
                            default=score_modes[fn], help="nonconformity score mode")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a file in the output directory's place would fail only after the run
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise SystemExit(f"error: --out {args.out} is not a directory")
    try:
        return args.fn(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
