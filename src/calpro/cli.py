"""Command-line entry points.

Every subcommand reads an optional strict JSON config (a key the command
does not read is rejected), takes --seed / --out overrides, and writes its
artifacts under the output directory.  Reports embed the artifact version, a
hash of the effective config, and the seed; no wall-clock timestamps, so
reruns are byte-identical.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import active as active_mod
from . import bounds as bounds_mod
from . import conformal as conf_mod
from . import datagen
from . import experiments as exp_mod
from . import head as head_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .objective import ObjectiveConfig

REPORT_VERSION = "calpro-report/1"


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


def _json_kind(value):
    """"boolean", "number", "string" or "array" for a config value, else None."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, (list, tuple)) else None


def _value(cfg, key, default, where="config"):
    """cfg[key], or default if absent.  A value whose JSON kind differs from
    default's, or an array with items of another kind than default's first
    item, is an error; a default of no JSON kind (None) checks nothing."""
    value = cfg.get(key, default)
    kind = _json_kind(default)
    item = _json_kind(default[0]) if kind == "array" and default else None
    if kind and (_json_kind(value) != kind
                 or item and any(_json_kind(v) != item for v in value)):
        raise SystemExit(f"error: {where} key {key} must be a JSON {kind}"
                         + (f" of {item}s" if item else ""))
    return value


def _dataclass_from(cls, cfg, where):
    _check_keys(cfg, {f.name for f in fields(cls)}, where)
    kwargs = {f.name: _value(cfg, f.name, f.default, where) for f in fields(cls) if f.name in cfg}
    for key in ("widths", "seeds", "ablations", "corruption_modes", "levels"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    return cls(**kwargs)


def _generator_config(cfg, seed):
    gen = _dataclass_from(datagen.GeneratorConfig, cfg.get("generator", {}), "generator")
    if seed is not None:
        gen = replace(gen, seed=seed)
    return gen


def _train_config(cfg, seed):
    sub = cfg.get("train", {})
    _check_keys(sub, {f.name for f in fields(trainer_mod.TrainConfig)}, "train")
    obj = _dataclass_from(ObjectiveConfig, sub.get("objective", {}), "objective")
    head_cfg = sub.get("head", {})
    # the trainer seeds the head's init with the training seed
    _check_keys(head_cfg, {f.name for f in fields(head_mod.HeadConfig)} - {"init_seed"}, "head")
    head = _dataclass_from(head_mod.HeadConfig, head_cfg, "head")
    tcfg = _dataclass_from(trainer_mod.TrainConfig,
                           dict(sub, objective=obj, head=head), "train")
    if seed is not None:
        tcfg = replace(tcfg, seed=seed)
    return tcfg


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


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_gen_data(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "kind"})
    kind = cfg.get("kind", "chain")
    if kind not in ("chain", "tabular"):
        raise SystemExit(f"error: kind must be chain or tabular, got {kind!r}")
    gen = _generator_config(cfg, args.seed)
    maker = datagen.gen_tabular_dataset if kind == "tabular" else datagen.gen_chain_dataset
    ds = maker(gen)
    out = _out_dir(args)
    datagen.save_dataset(ds, os.path.join(out, "dataset.json"))
    datagen.export_csv(ds, os.path.join(out, "dataset.csv"))
    _write_json(os.path.join(out, "gen_report.json"),
                _stamp({"n_nodes": ds.n_nodes, "n_edges": int(ds.edges.shape[0]),
                        "generator": asdict(gen)},
                       cfg, gen.seed, "gen-data"))
    return 0


def _tau(cfg):
    return float(_value(cfg, "tau", conf_mod.DEFAULT_TAU))


def _delta(cfg):
    return float(_value(cfg, "delta", bounds_mod.DEFAULT_DELTA))


def _magnitudes(cfg):
    return tuple(float(m) for m in _value(cfg, "magnitudes", exp_mod.DEFAULT_MAGNITUDES))


def _pipeline_pieces(cfg, seed, score_mode):
    """Shared generate/train path for pipeline, bound and ncal-sweep."""
    gen = _generator_config(cfg, seed)
    tcfg = _train_config(cfg, seed)
    spec = exp_mod.ExperimentSpec(generator=gen, train=tcfg, score_mode=score_mode,
                                  seeds=(gen.seed,))
    return gen, exp_mod.train_config_run(spec, "full", gen.seed)


def cmd_pipeline(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train"})
    gen, run = _pipeline_pieces(cfg, args.seed, args.score_mode)
    calib = conf_mod.calibrate(run["params"], run["cal_ds"],
                               levels=conf_mod.DEFAULT_LEVELS, mode=args.score_mode)
    out = _out_dir(args)
    datagen.save_dataset(run["ds"], os.path.join(out, "dataset.json"))
    head_mod.save_head(run["params"], os.path.join(out, "head.json"))
    conf_mod.save_calibration(calib, os.path.join(out, "calibration.json"))
    nig = head_mod.forward(run["params"], run["test_ds"])
    report = metrics_mod.report_from_nig(nig, calib, run["test_ds"], conf_mod.DEFAULT_LEVELS)
    y = run["test_ds"].target_y
    metrics_mod.export_calibration_curve(os.path.join(out, "calibration_curve.csv"),
                                         nig, y, calib)
    conf_mod.export_intervals_csv(os.path.join(out, "intervals.csv"),
                                  conf_mod.intervals(nig, calib, conf_mod.DEFAULT_TAU), y)
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
    gen, run = _pipeline_pieces(cfg, args.seed, args.score_mode)
    report = exp_mod.bound_report(run, magnitudes, tau, args.score_mode, delta=delta)
    out = _out_dir(args)
    bounds_mod.export_bound_curve(os.path.join(out, "bound_curve.csv"), report)
    _write_json(os.path.join(out, "bound_report.json"),
                _stamp(report.to_dict(), cfg, gen.seed, "bound"))
    return 0


def cmd_ncal_sweep(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "train", "sizes", "tau", "delta", "magnitude"})
    sizes = tuple(int(s) for s in _value(cfg, "sizes", bounds_mod.DEFAULT_NCAL_SIZES))
    magnitude = _value(cfg, "magnitude", exp_mod.DEFAULT_PERTURBATION_MAGNITUDE["gaussian"])
    tau, delta = _tau(cfg), _delta(cfg)
    gen, run = _pipeline_pieces(cfg, args.seed, args.score_mode)
    ds = run["ds"]
    pool_idx = np.concatenate([ds.split_indices("calibration"), ds.split_indices("train")])
    pool = ds.subset(pool_idx)
    pool = datagen.replace(pool, splits=np.full(pool.n_nodes, "calibration"))
    pert = datagen.perturb(ds, "gaussian", float(magnitude), seed=gen.seed)
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
    strategies = tuple(_value(sub, "strategies", active_mod.STRATEGIES, "active"))
    sub = {k: v for k, v in sub.items() if k != "strategies"}
    acfg = _dataclass_from(active_mod.ActiveConfig, dict(sub, retrain=tcfg), "active")
    pool = datagen.gen_chain_dataset(gen)
    seeds = tuple(_value(cfg, "seeds", (gen.seed,)))
    table = active_mod.compare_strategies(
        pool, [replace(acfg, strategy=s) for s in strategies], seeds)
    out = _out_dir(args)
    for s, curves in table.pop("curves").items():
        active_mod.export_curve_csv(os.path.join(out, f"active_{s}.csv"), curves[0])
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
    spec_keys = {f.name for f in fields(exp_mod.ExperimentSpec)} - {"name"}
    reads, recipe = EXPERIMENTS[args.name]
    _check_keys(cfg, {"generator", "train", "seeds"} | reads, f"{args.name} experiment")
    gen = _generator_config(cfg, args.seed)
    sub = {k: cfg[k] for k in spec_keys & set(cfg)}
    if "shifted_generator" in cfg:
        sub["shifted_generator"] = _dataclass_from(
            datagen.GeneratorConfig, cfg["shifted_generator"], "shifted_generator")
    if "corruption_sigma" in cfg:
        sigma = _value(cfg, "corruption_sigma", exp_mod.ExperimentSpec.corruption_sigma,
                       "experiment")
        sub["corruption_sigma"] = float(sigma)
    if "ablations" in cfg:
        _value(cfg, "ablations", exp_mod.ABLATIONS, "experiment")
    spec = _dataclass_from(exp_mod.ExperimentSpec, dict(
        sub, name=args.name, generator=gen, train=_train_config(cfg, args.seed),
        seeds=cfg.get("seeds", [gen.seed]), score_mode=cfg.get("score_mode", args.score_mode)),
        "experiment")
    result = recipe(spec, cfg)
    out = _out_dir(args)
    _write_json(os.path.join(out, f"experiment_{args.name}.json"),
                _stamp(result, cfg, gen.seed, f"experiment:{args.name}"))
    return 0


def cmd_corrupt_priors(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"generator", "dataset", "mode", "sigma"})
    mode = cfg.get("mode", "shuffle")
    seed = args.seed if args.seed is not None else 0
    if "dataset" in cfg:
        ds = datagen.load_dataset(cfg["dataset"])
    else:
        ds = datagen.gen_chain_dataset(_generator_config(cfg, args.seed))
        seed = ds.metadata["config"]["seed"]
    corrupted = datagen.corrupt_priors(ds, mode, seed=seed,
                                       sigma=float(_value(cfg, "sigma", 0.2)))
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

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--score-mode", choices=("absolute", "normalized"),
                        default="normalized", help="nonconformity score mode")

    for name, fn in [("gen-data", cmd_gen_data), ("pipeline", cmd_pipeline),
                     ("bound", cmd_bound), ("ncal-sweep", cmd_ncal_sweep),
                     ("active", cmd_active), ("corrupt-priors", cmd_corrupt_priors)]:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("experiment")
    sp.add_argument("name", choices=EXPERIMENTS)
    common(sp)
    sp.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
