"""The benchmark's workloads.

Each workload drives calpro from outside: the CLI workloads call
calpro.cli.main(argv) in-process, shift_eval calls the public functions the
bound and ncal-sweep commands use.  A workload object has

    setup(seed, work)        untimed preparation; returns the state
    fingerprint(state)       bytes that must match across repeated set-ups
    run(state, out)          the timed region; returns its result
    outputs(state, out, result) -> (primary bytes, ece, problems)

and is deterministic in the seed.  The sizes the self-test shrinks are
fields; everything else is a class constant.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

import checks
from calpro import bounds, cli, conformal, datagen, experiments, metrics

TAU = 0.9


def _train_section(epochs):
    """Desk training settings with selection pinned to the final epoch."""
    return {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": epochs,
            "patience": 0, "warmup_epochs": epochs - 1}


def _write_config(work, name, doc):
    path = work / name
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return {"config": str(path)}


def _config_bytes(self, state):
    with open(state["config"], "rb") as fh:
        return fh.read()


def _run_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"calpro {' '.join(argv)} returned {rc}")


@dataclass(frozen=True)
class DeskAblation:
    """`calpro experiment calibration`: 4 ablations x n_seeds trainings."""
    name = "desk_ablation"
    primary = "experiment_calibration.json"
    n_chains: int = 12
    chain_length: int = 40
    n_seeds: int = 4
    epochs: int = 40

    @property
    def input_nodes(self):
        return self.n_chains * self.chain_length * self.n_seeds

    def describe(self, seed):
        seeds = self._seeds(seed)
        return (f"{self.n_chains}x{self.chain_length} = {self.n_chains * self.chain_length} nodes"
                f" x {self.n_seeds} seeds {seeds[0]}..{seeds[-1]}, {self.epochs} epochs")

    def _seeds(self, seed):
        return [self.n_seeds * seed + k for k in range(self.n_seeds)]

    def setup(self, seed, work):
        state = _write_config(work, "desk_ablation.json", {
            "generator": {"n_chains": self.n_chains, "chain_length": self.chain_length},
            "train": _train_section(self.epochs),
            "seeds": self._seeds(seed),
        })
        state["seed"] = seed
        return state

    fingerprint = _config_bytes

    def run(self, state, out):
        _run_cli(["experiment", "calibration", "--config", state["config"],
                  "--seed", str(state["seed"]), "--out", str(out)])

    def outputs(self, state, out, result):
        docs, problems = checks.strict_json_files(out)
        doc = docs.get(self.primary)
        if doc is None:
            return None, None, problems + [f"{self.primary} missing or unreadable"]
        for name in experiments.ABLATIONS:
            row = doc["rows"][name]
            problems += checks.report_values(f"rows.{name}", row)
            for i, per_seed in enumerate(doc["per_seed"]):
                problems += checks.report_values(f"per_seed[{i}].{name}", per_seed[name])
        return (out / self.primary).read_bytes(), doc["rows"]["full"]["ece"], problems


@dataclass(frozen=True)
class LargeGraph:
    """`calpro pipeline` at large scale: generate, train, calibrate, report."""
    name = "large_graph"
    primary = "report.json"
    n_chains: int = 200
    chain_length: int = 100
    epochs: int = 3

    @property
    def input_nodes(self):
        return self.n_chains * self.chain_length

    def describe(self, seed):
        return (f"{self.n_chains}x{self.chain_length} = {self.input_nodes} nodes x 1 seed ({seed}),"
                f" {self.epochs} epochs")

    def setup(self, seed, work):
        state = _write_config(work, "large_graph.json", {
            "generator": {"n_chains": self.n_chains, "chain_length": self.chain_length},
            "train": _train_section(self.epochs),
        })
        state["seed"] = seed
        return state

    fingerprint = _config_bytes

    def run(self, state, out):
        _run_cli(["pipeline", "--config", state["config"], "--seed", str(state["seed"]),
                  "--out", str(out)])

    def outputs(self, state, out, result):
        docs, problems = checks.strict_json_files(out)
        doc = docs.get(self.primary)
        calib = docs.get("calibration.json")
        if doc is None or calib is None:
            return None, None, problems + ["report.json or calibration.json missing or unreadable"]
        rep = doc["metrics"]
        problems += checks.report_values("metrics", rep)
        if isinstance(rep["ace"], float):
            problems += checks.in_unit_interval("metrics.ace", rep["ace"])
        for tag, row in rep["group_table"].items():
            problems += checks.in_unit_interval(f"group_table.{tag}.coverage", row["coverage"])
        problems += checks.rank_rule("calibration.json", calib["levels"],
                                     {float(k): v for k, v in calib["quantiles"].items()},
                                     calib["scores"])
        return (out / self.primary).read_bytes(), rep["ece"], problems


# (kind, magnitude): the gaussian series of `calpro bound`, then the other
# perturbation kinds at the experiment recipes' default magnitudes.
SHIFT_CONDITIONS = (
    ("gaussian", 0.1), ("gaussian", 0.25), ("gaussian", 0.5), ("gaussian", 1.0),
    ("segment_swap", 2.0), ("block_rotate", 0.8), ("blur", 2.0),
)


@dataclass(frozen=True)
class ShiftEval:
    """Evaluation half of `calpro bound` plus `calpro ncal-sweep` on a head
    trained in setup: inference only, no backward pass.

    The graph comes from a fixed generator seed; the workload seed drives
    the head's training and the perturbations.  Edge counts vary by about
    +-10% between generator seeds at this size, and that variation, not the
    program, would otherwise dominate the spread between runs.
    """
    name = "shift_eval"
    graph_seed = 0
    epochs = 2
    ncal_magnitude = 0.5
    n_chains: int = 100
    chain_length: int = 100
    ncal_sizes: tuple = (250, 500, 1000, 2000, 4000)

    @property
    def conditions(self):
        return 1 + len(SHIFT_CONDITIONS)

    @property
    def input_nodes(self):
        return self.n_chains * self.chain_length * self.conditions

    def describe(self, seed):
        return (f"{self.n_chains}x{self.chain_length} = {self.n_chains * self.chain_length} nodes"
                f" (graph seed {self.graph_seed}) x {self.conditions} conditions (reference +"
                f" {len(SHIFT_CONDITIONS)} perturbed), seed {seed} for training and perturbations,"
                f" head trained {self.epochs} epochs in setup")

    def setup(self, seed, work):
        gen = datagen.GeneratorConfig(n_chains=self.n_chains, chain_length=self.chain_length,
                                      seed=self.graph_seed)
        ds = datagen.gen_chain_dataset(gen)
        train = replace(experiments.desk_train_config(seed), max_epochs=self.epochs,
                        warmup_epochs=self.epochs - 1)
        spec = experiments.ExperimentSpec(generator=gen, train=train, seeds=(seed,))
        run = experiments.train_config_run(spec, "full", seed, ds=ds)
        return {"seed": seed, "ds": ds, "params": run["params"], "cal_ds": run["cal_ds"],
                "test_ds": run["test_ds"]}

    def fingerprint(self, state):
        return state["params"].to_vector().tobytes()

    def run(self, state, out):
        seed, ds, params = state["seed"], state["ds"], state["params"]
        calib = conformal.calibrate(params, state["cal_ds"], levels=conformal.DEFAULT_LEVELS,
                                    mode="normalized")
        conditions = [("reference", 0.0, state["test_ds"])]
        for kind, magnitude in SHIFT_CONDITIONS:
            pert = datagen.perturb(ds, kind, magnitude, seed=seed)
            conditions.append((kind, magnitude, pert.subset(pert.split_indices("test"))))
        reports = [dict(metrics.full_report(params, calib, test).to_dict(),
                        kind=kind, magnitude=magnitude)
                   for kind, magnitude, test in conditions]
        gaussian = [test for kind, _, test in conditions if kind == "gaussian"]
        bound = bounds.bound_vs_empirical_sweep(params, state["cal_ds"], calib, state["test_ds"],
                                                gaussian, tau=TAU)
        pool = ds.subset(np.concatenate([ds.split_indices("calibration"),
                                         ds.split_indices("train")]))
        pool = replace(pool, splits=("calibration",) * pool.n_nodes)
        shifted = next(test for kind, magnitude, test in conditions
                       if kind == "gaussian" and magnitude == self.ncal_magnitude)
        rows = bounds.ncal_sweep(params, pool, state["test_ds"], shifted,
                                 sizes=self.ncal_sizes, tau=TAU, score_mode="normalized")
        return {"conditions": reports, "bound": bound.to_dict(), "ncal_sweep": rows}

    def outputs(self, state, out, result):
        primary = json.dumps(checks.sanitize(result), sort_keys=True,
                             allow_nan=False).encode("utf-8")
        doc = checks.strict_json(primary)
        problems = []
        for rep in doc["conditions"]:
            problems += checks.report_values(f"{rep['kind']}@{rep['magnitude']}", rep)
        for i, (b, cov) in enumerate(zip(doc["bound"]["bounds"],
                                         doc["bound"]["empirical_coverage"])):
            problems += checks.coverage_bound(f"bound[{i}]", b, TAU)
            problems += checks.in_unit_interval(f"bound[{i}].empirical", cov)
        for row in doc["ncal_sweep"]:
            problems += checks.coverage_bound(f"ncal[{row['n_cal']}].bound", row["bound"], TAU)
            problems += checks.in_unit_interval(f"ncal[{row['n_cal']}].empirical",
                                                row["empirical"])
        return primary, doc["conditions"][0]["ece"], problems


WORKLOADS = {wl.name: wl for wl in (DeskAblation(), LargeGraph(), ShiftEval())}


def tiny():
    """Small copies of every workload for the self-test."""
    return {
        "desk_ablation": DeskAblation(n_chains=5, chain_length=12, n_seeds=2, epochs=3),
        "large_graph": LargeGraph(n_chains=8, chain_length=20, epochs=2),
        "shift_eval": ShiftEval(n_chains=10, chain_length=30, ncal_sizes=(50, 100, 200)),
    }
