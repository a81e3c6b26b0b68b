import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from calpro import active, cli, datagen, experiments, head, metrics, trainer

FAST_TRAIN = {"max_epochs": 5, "batch_size": 4, "learning_rate": 0.003, "patience": 3}

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _gen_cfg(tmp_path, **extra):
    """The config file of a 5x20 generator and extra; an extra key set to
    None is left out."""
    doc = {"generator": {"n_chains": 5, "chain_length": 20, "seed": 1}}
    doc.update(extra)
    return _write(tmp_path, "cfg.json", {k: v for k, v in doc.items() if v is not None})


class TestGenData:
    def test_writes_artifacts(self, tmp_path):
        cfg = _gen_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "dataset.json").exists()
        assert (out / "dataset.csv").exists()
        report = json.loads((out / "gen_report.json").read_text())
        assert report["version"] == "calpro-report/1"
        assert {"artifact", "config_hash", "seed"} <= set(report)

    def test_identical_rerun_identical_bytes(self, tmp_path):
        cfg = _gen_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["gen-data", "--config", cfg, "--out", str(out)])
            outs.append((out / "dataset.json").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", {"generator": {"n_chains": 3}, "oops": 1})
        with pytest.raises(SystemExit, match="unknown"):
            cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")])

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", {"generator": {"n_chain": 3}})
        with pytest.raises(SystemExit, match="generator"):
            cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")])

    def test_invalid_config_value_nonzero_exit(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", {"generator": {"n_chains": 0}})
        assert cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(SystemExit, match="byte offset"):
            cli.main(["gen-data", "--config", str(p), "--out", str(tmp_path / "x")])

    def test_unknown_kind_rejected(self, tmp_path):
        """kind chose a second generator, now gone: an unknown key."""
        cfg = _gen_cfg(tmp_path, kind="chain")
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")])
        assert exc.value.code == "error: unknown config keys: kind"
        assert not (tmp_path / "x").exists()

    def test_split_mode_rejected(self, tmp_path):
        """split_mode was accepted and never read."""
        cfg = _gen_cfg(tmp_path, split_mode="chain")
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")])
        assert exc.value.code == "error: unknown config keys: split_mode"


class TestPipeline:
    @pytest.mark.parametrize("doc, where", [({"generator": 5}, "generator"),
                                            ({"train": {"head": [1]}}, "head")],
                             ids=["generator_int", "head_list"])
    def test_non_object_section_rejected(self, tmp_path, doc, where):
        cfg = _write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "run")])
        assert exc.value.code == f"error: {where} must be a JSON object"
        assert not (tmp_path / "run").exists()

    def test_end_to_end(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", cfg, "--out", str(out),
                         "--score-mode", "normalized"]) == 0
        for name in ("dataset.json", "head.json", "calibration.json",
                     "report.json", "calibration_curve.csv", "intervals.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["score_mode"] == "normalized"
        assert "metrics" in report and "train_record" in report

    def test_calibration_with_an_infinite_quantile_is_strict_json(self, tmp_path):
        """12 calibration scores are too few for the 0.95 level, whose
        quantile is infinite: calibration.json writes it as the string
        "inf", and a parser that rejects NaN and Infinity reads the file."""
        cfg = _write(tmp_path, "cfg.json", {
            "generator": {"n_chains": 5, "chain_length": 12},
            "train": {"max_epochs": 2, "patience": 0, "warmup_epochs": 1}})
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", cfg, "--out", str(out)]) == 0

        def reject(literal):
            raise ValueError(f"non-strict JSON literal {literal}")

        doc = json.loads((out / "calibration.json").read_text(), parse_constant=reject)
        assert doc["n_cal"] == 12
        assert doc["quantiles"]["0.95"] == "inf"
        assert all(isinstance(doc["quantiles"][k], float) for k in ("0.8", "0.9"))

    def test_seed_override(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.main(["pipeline", "--config", cfg, "--out", str(out_a), "--seed", "7"])
        cli.main(["pipeline", "--config", cfg, "--out", str(out_b), "--seed", "8"])
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["seed"] == 7 and b["seed"] == 8
        assert a["metrics"] != b["metrics"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN)
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cli.main(["pipeline", "--config", cfg, "--out", str(out)])
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_head_init_seed_rejected(self, tmp_path):
        """The trainer seeds the head's init with the training seed, so a
        head init_seed would be ignored."""
        cfg = _gen_cfg(tmp_path, train=dict(FAST_TRAIN, head={"init_seed": 7}))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "calpro.cli", "pipeline",
                               "--config", cfg, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == "error: unknown head keys: init_seed\n"

    def test_predicts_test_set_once(self, tmp_path, monkeypatch):
        """The report and the CSV files share one prediction of the test
        set: every head.forward call on it returns the one kept on it."""
        predictions, forward = [], head.forward

        def logging_forward(params, ds, *args, **kwargs):
            nig = forward(params, ds, *args, **kwargs)
            if set(ds.splits) == {"test"}:
                predictions.append(nig)
            return nig

        monkeypatch.setattr(head, "forward", logging_forward)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN)
        assert cli.main(["pipeline", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert predictions and all(nig is predictions[0] for nig in predictions)


class TestBoundCommands:
    def test_bound(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, magnitudes=[0.3], tau=0.9)
        out = tmp_path / "run"
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert len(rep["epsilons"]) == 2   # reference + one condition
        assert (out / "bound_curve.csv").exists()

    def test_bound_at_a_level_outside_the_default_grid(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, magnitudes=[0.3], tau=0.85)
        out = tmp_path / "run"
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "bound_report.json").read_text())
        assert len(rep["bounds"]) == 2 and all(b <= 0.85 for b in rep["bounds"])

    def test_bound_builds_each_adjacency_once(self, tmp_path, adjacency_builds):
        """Desk scale: one build each for fit, validation, calibration and
        test; the four shifted test sets reuse the held test set's."""
        cfg = _write(tmp_path, "cfg.json", {
            "generator": {"n_chains": 12, "chain_length": 40},
            "train": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 3,
                      "patience": 0, "warmup_epochs": 2}})
        assert cli.main(["bound", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert [n for n, _ in adjacency_builds] == [240, 40, 120, 80]

    def test_ncal_sweep(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, sizes=[15, 30])
        out = tmp_path / "run"
        assert cli.main(["ncal-sweep", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "ncal_sweep.json").read_text())
        assert [r["n_cal"] for r in rep["rows"]] == [15, 30]

    @pytest.mark.parametrize("command, extra", [
        ("bound", {"magnitudes": [float("nan"), 0.5]}),
        ("ncal-sweep", {"sizes": [15, 30], "magnitude": float("inf")}),
    ], ids=["bound_nan", "ncal_sweep_inf"])
    def test_non_finite_magnitude_exits_1_with_one_error_line(self, tmp_path, command, extra):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, **extra)   # json writes NaN / Infinity
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "calpro.cli", command,
                               "--config", cfg, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: magnitude must be a finite number")
        assert not (tmp_path / "run").exists()

    def test_overflowing_magnitude_exits_1_with_one_error_line(self, tmp_path):
        """A finite magnitude whose perturbation overflows is refused, and
        numpy's overflow warnings do not reach stderr."""
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, magnitudes=[1e308])
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "calpro.cli", "bound",
                               "--config", cfg, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: gaussian perturbation of magnitude 1e+308 gives non-finite coordinates or "
            "targets"]
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, extra, message", [
    (["bound"], {"magnitudes": 5}, "config key magnitudes must be a JSON array of numbers"),
    (["bound"], {"tau": [1]}, "config key tau must be a JSON number"),
    (["bound"], {"delta": [1]}, "config key delta must be a JSON number"),
    (["ncal-sweep"], {"sizes": 5}, "config key sizes must be a JSON array of integers"),
    (["ncal-sweep"], {"magnitude": [1]}, "config key magnitude must be a JSON number"),
    (["experiment", "calibration"], {"seeds": 5},
     "experiment key seeds must be a JSON array of integers"),
    (["experiment", "calibration"], {"levels": 0.9},
     "experiment key levels must be a JSON array of numbers"),
    (["experiment", "bound_sweep"], {"magnitudes": 5},
     "config key magnitudes must be a JSON array of numbers"),
    (["active"], {"active": {"strategies": 5}},
     "active key strategies must be a JSON array of strings"),
    (["corrupt-priors"], {"sigma": [1]}, "config key sigma must be a JSON number"),
    (["pipeline"], {"generator": {"n_chains": "4"}},
     "generator key n_chains must be a JSON integer"),
    # integer keys given a fraction
    (["pipeline"], {"generator": {"n_chains": 4.5}},
     "generator key n_chains must be a JSON integer"),
    (["pipeline"], {"generator": {"feature_dim": 4.5}},
     "generator key feature_dim must be a JSON integer"),
    (["pipeline"], {"train": {"max_epochs": 4.5}}, "train key max_epochs must be a JSON integer"),
    (["pipeline"], {"train": {"head": {"widths": [4.5]}}},
     "head key widths must be a JSON array of integers"),
    (["pipeline"], {"train": {"objective": {"monotone_hidden": 2.5}}},
     "objective key monotone_hidden must be a JSON integer"),
    (["experiment", "calibration"], {"seeds": [0.5]},
     "experiment key seeds must be a JSON array of integers"),
    (["active"], {"seeds": [0.5]}, "config key seeds must be a JSON array of integers"),
    (["ncal-sweep"], {"sizes": [10.5]}, "config key sizes must be a JSON array of integers"),
    # keys the run sets itself
    (["pipeline"], {"train": {"seed": 99}}, "unknown train keys: seed"),
    (["pipeline"], {"train": {"head": {"init_seed": 7}}}, "unknown head keys: init_seed"),
    (["pipeline"], {"train": {"objective": {"mu_only": True}}},
     "unknown objective keys: mu_only"),
    # keys of variants no recipe trains
    (["pipeline"], {"train": {"head": {"layer_norm": True}}}, "unknown head keys: layer_norm"),
    (["pipeline"], {"train": {"objective": {"prior_penalty_reduction": "sum"}}},
     "unknown objective keys: prior_penalty_reduction"),
    (["active"], {"active": {"strategy": "bogus"}}, "unknown active keys: strategy"),
    (["active"], {"active": {"seed": 1}}, "unknown active keys: seed"),
    (["active"], {"active": {"retrain": {}}}, "unknown active keys: retrain"),
    # keys that must lie in (0, 1)
    (["bound"], {"tau": 1.5}, "config key tau must be in (0, 1), got 1.5"),
    (["bound"], {"delta": 0}, "config key delta must be in (0, 1), got 0.0"),
    (["experiment", "shift"], {"tau": 1}, "config key tau must be in (0, 1), got 1.0"),
    (["experiment", "calibration"], {"levels": [0.9, 1.0]},
     "experiment key levels must be in (0, 1), got 1.0"),
    # --score-mode on a recipe that reads none
    (["experiment", "perturbation", "--score-mode", "absolute"], {},
     "the perturbation experiment takes no --score-mode"),
    (["experiment", "efficiency", "--score-mode", "normalized"], {},
     "the efficiency experiment takes no --score-mode"),
    # paths: "." is the test's working directory, cfg.json its config file
    (["pipeline", "--config", "."], {}, "[Errno 21] Is a directory: '.'"),
    (["corrupt-priors"], {"dataset": ".", "generator": None},
     "[Errno 21] Is a directory: '.'"),
    (["pipeline", "--out", "cfg.json"], {}, "--out cfg.json is not a directory"),
    (["corrupt-priors"], {"dataset": 0, "generator": None},
     "config key dataset must be a JSON string"),
    (["corrupt-priors"], {"dataset": 7, "generator": None},
     "config key dataset must be a JSON string"),
    # a dataset to corrupt comes from a file or a generator, not both
    (["corrupt-priors"], {"dataset": "dataset.json"},
     "config keys dataset and generator exclude each other"),
    # integers beyond what the key's type holds
    (["pipeline"], {"train": {"learning_rate": 10**400}},
     "train key learning_rate must be a JSON number within the float range"),
    (["experiment", "calibration"], {"levels": [0.9, -10**309]},
     "experiment key levels must be a JSON array of numbers within the float range"),
    (["pipeline"], {"generator": {"n_chains": 10**400}},
     "generator key n_chains must be a JSON integer within the int64 range"),
    (["experiment", "calibration"], {"seeds": [0, 2**63]},
     "experiment key seeds must be a JSON array of integers within the int64 range"),
    # a generator too large to hold: 12 x 40 nodes of 10^15 features
    (["gen-data"], {"generator": {"feature_dim": 10**15}},
     "n_chains * chain_length * feature_dim is 480000000000000000, above the limit of "
     "100000000 feature entries (MAX_FEATURE_ENTRIES)"),
    # a score mode no calibration knows, before any training
    (["experiment", "calibration"], {"score_mode": "bogus"}, "unknown score mode 'bogus'"),
    (["experiment", "bound_sweep"], {"score_mode": "bogus"}, "unknown score mode 'bogus'"),
    # levels and ablations a recipe cannot report on
    (["experiment", "calibration"], {"levels": []},
     "levels must be non-empty and strictly increasing"),
    (["experiment", "calibration"], {"levels": [0.9, 0.8]},
     "levels must be non-empty and strictly increasing"),
    (["experiment", "calibration"], {"levels": [0.9, 0.9]},
     "levels must be non-empty and strictly increasing"),
    (["experiment", "calibration"], {"ablations": []}, "ablations must be non-empty"),
    # an arm named twice would train twice and report once
    (["experiment", "calibration"], {"ablations": ["full", "no_priors", "full"]},
     "ablations must not repeat an entry, got ['full', 'no_priors', 'full']"),
    (["experiment", "prior_corruption"], {"corruption_modes": ["shuffle", "shuffle"]},
     "corruption_modes must not repeat an entry, got ['shuffle', 'shuffle']"),
    # sweeps with no point, or a point no run can make
    (["ncal-sweep"], {"sizes": []},
     "config key sizes must be a non-empty array of positive integers"),
    (["ncal-sweep"], {"sizes": [0, 10]},
     "config key sizes must be a non-empty array of positive integers"),
    (["ncal-sweep"], {"sizes": [10, 1000]},
     "config key sizes asks for 1000 calibration nodes, but the pool holds 80"),
    (["ncal-sweep"], {"magnitude": 0}, "config key magnitude must be positive, got 0.0"),
    (["bound"], {"magnitudes": []}, "config key magnitudes must be non-empty"),
    (["bound"], {"magnitudes": [0.5, -1]}, "config key magnitudes must be positive, got -1.0"),
    (["experiment", "bound_sweep"], {"magnitudes": []},
     "config key magnitudes must be non-empty"),
    (["experiment", "bound_sweep"], {"magnitudes": [0]},
     "config key magnitudes must be positive, got 0.0"),
    (["experiment", "shift"], {"shifted_generator": {"n_chains": 0, "chain_length": 20}},
     "need at least one chain of length >= 4"),
], ids=["bound_magnitudes", "bound_tau", "bound_delta", "ncal_sweep_sizes",
        "ncal_sweep_magnitude", "calibration_seeds", "calibration_levels",
        "bound_sweep_magnitudes", "active_strategies", "corrupt_priors_sigma",
        "pipeline_n_chains", "fractional_n_chains", "fractional_feature_dim",
        "fractional_max_epochs", "fractional_head_widths", "fractional_monotone_hidden",
        "fractional_calibration_seeds", "fractional_active_seeds", "fractional_sizes",
        "train_seed", "head_init_seed", "objective_mu_only", "head_layer_norm",
        "objective_prior_penalty_reduction", "active_strategy", "active_seed", "active_retrain",
        "tau_above_1", "delta_0", "shift_tau_1", "level_1", "perturbation_score_mode",
        "efficiency_score_mode", "config_directory", "dataset_directory", "out_file",
        "dataset_0", "dataset_7", "dataset_and_generator", "float_overflow",
        "float_array_overflow", "int64_overflow", "int64_array_overflow", "gen_data_size",
        "calibration_score_mode", "bound_sweep_score_mode", "levels_empty",
        "levels_decreasing", "levels_repeated", "ablations_empty", "ablations_repeated",
        "corruption_modes_repeated", "ncal_sweep_sizes_empty",
        "ncal_sweep_size_0", "ncal_sweep_size_above_pool", "ncal_sweep_magnitude_0",
        "bound_magnitudes_empty", "bound_magnitude_negative", "bound_sweep_magnitudes_empty",
        "bound_sweep_magnitude_0", "shifted_generator_n_chains"])
def test_value_of_the_wrong_json_kind_names_the_key(tmp_path, monkeypatch, capsys, argv, extra,
                                                     message):
    """Each bad value or path is one error line and exit code 1, before any
    training.  argv's options follow --config and --out, so they override
    them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a head was trained")

    monkeypatch.setattr(trainer, "train", refuse)
    monkeypatch.chdir(tmp_path)
    cfg = _gen_cfg(tmp_path, **extra)
    try:
        code = cli.main([argv[0], "--config", cfg, "--out", str(tmp_path / "run"), *argv[1:]])
        err = capsys.readouterr().err
    except SystemExit as exc:   # a process exits 1 and prints the message
        code, err = 1, f"{exc.code}\n"
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, extra, message", [
    (["pipeline"], {"train": {"learning_rate": float("nan")}},
     "learning_rate must be a positive finite number"),
    (["pipeline"], {"train": {"learning_rate": float("inf")}},
     "learning_rate must be a positive finite number"),
    (["pipeline"], {"train": {"objective": {"gamma": float("nan")}}},
     "gamma and kappa must be positive finite numbers"),
    (["pipeline"], {"train": {"objective": {"lambda_prior": float("nan")}}},
     "objective weights must be nonnegative finite numbers"),
    (["experiment", "calibration"], {"train": {"objective": {"lambda_evid": float("-inf")}}},
     "objective weights must be nonnegative finite numbers"),
    (["gen-data"], {"generator": {"n_chains": 5, "ordered_noise_scale": float("nan")}},
     "noise scales must be positive finite numbers"),
    (["corrupt-priors"], {"mode": "noise", "sigma": float("nan")},
     "sigma must be a nonnegative finite number, got nan"),
    (["corrupt-priors"], {"mode": "shuffle", "sigma": float("nan")},
     "sigma must be a nonnegative finite number, got nan"),
    (["corrupt-priors"], {"mode": "invert", "sigma": -0.5},
     "sigma must be a nonnegative finite number, got -0.5"),
    (["pipeline"], {"train": {"objective": {"monotone_hidden": 0}}},
     "monotone_hidden must be >= 1"),
    (["pipeline"], {"train": {"objective": {"monotone_hidden": -1}}},
     "monotone_hidden must be >= 1"),
], ids=["learning_rate_nan", "learning_rate_infinity", "gamma_nan", "lambda_prior_nan",
        "experiment_lambda_evid_minus_infinity", "ordered_noise_scale_nan", "sigma_nan",
        "sigma_nan_shuffle", "sigma_negative_invert",
        "monotone_hidden_0", "monotone_hidden_minus_1"])
def test_config_value_out_of_range_is_one_error_line(tmp_path, monkeypatch, capsys, argv, extra,
                                                     message):
    """json.load reads the literals NaN, Infinity and -Infinity, which pass a
    plain `x <= 0` check; each config's validate refuses them, and a prior map
    without a hidden unit, before any training step."""
    def refuse(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "total_loss", refuse)
    cfg = _gen_cfg(tmp_path, **extra)     # json.dumps writes NaN and Infinity
    code = cli.main([*argv, "--config", cfg, "--out", str(tmp_path / "run")])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not (tmp_path / "run").exists()


def _settable(tp):
    """Dotted keys cli._read accepts in a tp object: tp's fields less
    cli.SET_BY_RUN's, a nested dataclass's keys under its field's name."""
    keys = set()
    for f in fields(tp):
        if f.name in cli.SET_BY_RUN.get(tp, set()):
            continue
        keys |= {f"{f.name}.{k}" for k in _settable(f.type)} if is_dataclass(f.type) else {f.name}
    return keys


def _dotted(doc):
    """Dotted leaf keys of a nested dict."""
    keys = set()
    for k, v in doc.items():
        keys |= {f"{k}.{sub}" for sub in _dotted(v)} if isinstance(v, dict) else {k}
    return keys


def test_echo_names_every_settable_train_key():
    """Every key a config may set under train shows in a report's config
    echo, so no setting changes a run unseen.  The echo also names the seed,
    which the run sets (--seed)."""
    echo = trainer._config_echo(trainer.TrainConfig())
    assert _dotted(echo) == _settable(trainer.TrainConfig) | {"seed"}
    # and reading the echo back as a config gives the same run
    doc = json.loads(json.dumps({k: v for k, v in echo.items() if k != "seed"}))
    assert cli._read(trainer.TrainConfig, doc, "train") == trainer.TrainConfig()


@pytest.mark.parametrize("command", ["gen-data", "active", "corrupt-priors"])
def test_command_that_reads_no_score_mode_has_no_flag(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--score-mode", "absolute", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


class TestActiveCommand:
    def test_runs(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN,
                       active={"seed_set_size": 20, "batch_size": 5, "rounds": 1,
                               "strategies": ["random"]},
                       seeds=[0])
        out = tmp_path / "run"
        assert cli.main(["active", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "active_report.json").read_text())
        assert "random" in rep["strategies"]
        assert (out / "active_random.csv").exists()

    def test_one_loop_per_strategy_and_seed(self, tmp_path, monkeypatch):
        """The CSV curves are the comparison's own first-seed curves."""
        calls = []
        run_active = active.run_active

        def counting(pool, cfg):
            calls.append((cfg.strategy, cfg.seed))
            return run_active(pool, cfg)

        monkeypatch.setattr(active, "run_active", counting)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN,
                       active={"seed_set_size": 20, "batch_size": 5, "rounds": 1}, seeds=[0])
        out = tmp_path / "run"
        assert cli.main(["active", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(calls) == sorted((s, 0) for s in active.STRATEGIES)
        for s in active.STRATEGIES:
            assert len((out / f"active_{s}.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("extra, message", [
        ({"seeds": []}, "seeds must be non-empty"),
        ({"active": {"strategies": []}}, "strategies must be non-empty"),
    ], ids=["seeds", "strategies"])
    def test_empty_list_exits_1_before_any_loop(self, tmp_path, monkeypatch, capsys,
                                                extra, message):
        def refuse(pool, cfg):
            raise AssertionError("an active loop ran")

        monkeypatch.setattr(active, "run_active", refuse)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, **extra)
        assert cli.main(["active", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()


def _csv_rows(path):
    """The rows of a CSV artifact as dicts of its header's columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCsvArtifacts:
    """Each CSV artifact agrees with the JSON artifact written beside it."""

    @pytest.fixture(scope="class")
    def pipeline_out(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pipeline")
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", _gen_cfg(tmp_path, train=FAST_TRAIN),
                         "--out", str(out)]) == 0
        return out, json.loads((out / "report.json").read_text())["metrics"]

    def test_dataset_csv_lists_the_dataset_json_nodes(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--config", _gen_cfg(tmp_path), "--out", str(out)]) == 0
        rows = _csv_rows(out / "dataset.csv")
        assert len(rows) == json.loads((out / "gen_report.json").read_text())["n_nodes"]
        # a node row of dataset.json ends in prior_b, target_y, group_tag, disorder_flag
        nodes = json.loads((out / "dataset.json").read_text())["nodes"]
        assert [[float(r["prior_b"]), float(r["target_y"])] for r in rows] == [
            node[-4:-2] for node in nodes]

    def test_intervals_csv_covered_mean_is_the_report_coverage(self, pipeline_out):
        out, report = pipeline_out
        covered = [int(r["covered"]) for r in _csv_rows(out / "intervals.csv")]
        assert covered and set(covered) <= {0, 1}
        assert sum(covered) / len(covered) == report["coverage"]["0.9"]

    def test_calibration_curve_csv_mean_gap_is_the_report_ece(self, pipeline_out):
        out, report = pipeline_out
        rows = _csv_rows(out / "calibration_curve.csv")
        assert [float(r["nominal_level"]) for r in rows] == list(metrics.DEFAULT_LEVEL_GRID)
        gaps = [abs(float(r["empirical_coverage"]) - float(r["nominal_level"])) for r in rows]
        assert float(np.mean(gaps)) == report["ece"]

    def test_bound_curve_csv_is_the_bound_report_curve(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, magnitudes=[0.3, 0.6])
        out = tmp_path / "run"
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "bound_report.json").read_text())
        rows = _csv_rows(out / "bound_curve.csv")
        assert [[float(v) for v in r.values()] for r in rows] == [
            list(t) for t in zip(rep["epsilons"], rep["bounds"], rep["empirical_coverage"])]

    def test_active_csv_best_found_is_the_one_seed_median(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, seeds=[0],
                       active={"seed_set_size": 20, "batch_size": 5, "rounds": 2})
        out = tmp_path / "run"
        assert cli.main(["active", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "active_report.json").read_text())
        for s, table in rep["strategies"].items():
            rows = _csv_rows(out / f"active_{s}.csv")
            assert [int(r["round"]) for r in rows] == [0, 1, 2]
            assert [int(r["queries"]) for r in rows] == [20, 25, 30]
            assert [float(r["best_found"]) for r in rows] == [
                table["rounds"][r["round"]]["best_found_median"] for r in rows]


class TestExperimentCommand:
    def test_efficiency_dispatch(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, seeds=[0])
        out = tmp_path / "run"
        assert cli.main(["experiment", "efficiency", "--config", cfg,
                         "--out", str(out)]) == 0
        rep = json.loads((out / "experiment_efficiency.json").read_text())
        assert rep["artifact"] == "experiment:efficiency"
        assert "median_width_ratio" in rep

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "nonsense", "--out", str(tmp_path)])

    def _experiment(self, tmp_path, name, **extra):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, seeds=[0], **extra)
        out = tmp_path / "run"
        assert cli.main(["experiment", name, "--config", cfg, "--out", str(out)]) == 0
        return json.loads((out / f"experiment_{name}.json").read_text())

    def test_calibration_runs_explicit_ablations(self, tmp_path):
        rep = self._experiment(tmp_path, "calibration", ablations=["full"])
        assert set(rep["rows"]) == {"full"}
        assert rep["spec"]["ablations"] == ["full"]
        rep = self._experiment(tmp_path, "calibration")
        assert set(rep["rows"]) == {"full", "no_conformal", "no_evidential", "no_priors"}

    def test_shift_echoes_the_configurations_it_ran(self, tmp_path):
        rep = self._experiment(tmp_path, "shift")
        assert rep["spec"]["ablations"] == ["full", "no_priors"]
        assert set(rep["rows"]) == {"full", "no_priors"}
        rep = self._experiment(tmp_path, "shift", ablations=["full"])
        assert rep["spec"]["ablations"] == ["full"]
        assert set(rep["rows"]) == {"full"}

    @pytest.mark.parametrize("name, configurations", [
        ("perturbation", ["full", "no_priors"]),
        ("efficiency", ["full", "vanilla"]),
        ("prior_corruption", ["full"]),
        ("bound_sweep", ["full"]),
    ], ids=["perturbation", "efficiency", "prior_corruption", "bound_sweep"])
    def test_fixed_arm_recipe_echoes_the_configurations_it_ran(self, tmp_path, monkeypatch,
                                                               name, configurations):
        trained = []
        objective = experiments._objective_for

        def spy(config_name, base):
            trained.append(config_name)
            return objective(config_name, base)

        monkeypatch.setattr(experiments, "_objective_for", spy)
        rep = self._experiment(tmp_path, name)
        assert rep["spec"]["ablations"] == configurations
        assert list(dict.fromkeys(trained)) == configurations

    @pytest.mark.parametrize("name", ["shift", "prior_corruption", "efficiency"])
    def test_tau_is_the_level_run(self, tmp_path, name):
        rep = self._experiment(tmp_path, name, tau=0.8)
        assert rep["tau"] == 0.8
        for row in rep["per_seed"][0].values():
            if isinstance(row, dict):
                assert row["degradation"] == pytest.approx(0.8 - row["coverage"])
        if name == "efficiency":
            ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(
                n_chains=5, chain_length=20, seed=0))
            n_test = ds.split_indices("test").size
            assert rep["per_seed"][0]["coverage_slack"] == pytest.approx(
                1.96 * (0.8 * 0.2 / n_test) ** 0.5)

    @pytest.mark.parametrize("name,key,value", [
        ("calibration", "tau", 0.8),
        ("calibration", "magnitudes", [0.5]),
        ("shift", "magnitudes", [0.5]),
        ("perturbation", "tau", 0.8),
        ("perturbation", "magnitudes", [0.5]),
        ("perturbation", "ablations", ["no_priors"]),
        ("prior_corruption", "ablations", ["no_priors"]),
        ("prior_corruption", "magnitudes", [0.5]),
        ("efficiency", "ablations", ["no_priors"]),
        ("efficiency", "magnitudes", [0.5]),
        ("bound_sweep", "ablations", ["no_priors"]),
        ("calibration", "corruption_modes", ["shuffle"]),
        ("calibration", "shifted_generator", {"n_chains": 5}),
        ("shift", "levels", [0.8]),
        ("perturbation", "score_mode", "absolute"),
        ("prior_corruption", "shift_perturbation", {"kind": "gaussian", "magnitude": 0.5}),
        ("efficiency", "score_mode", "absolute"),
        ("efficiency", "corruption_sigma", 0.3),
        ("bound_sweep", "levels", [0.8]),
    ])
    def test_key_the_recipe_does_not_read_rejected(self, tmp_path, name, key, value):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, seeds=[0], **{key: value})
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", name, "--config", cfg, "--out", str(tmp_path / "run")])
        assert exc.value.code == f"error: unknown {name} experiment keys: {key}"
        assert not (tmp_path / "run").exists()

    def test_rejected_key_exits_1_with_one_error_line(self, tmp_path):
        cfg = _gen_cfg(tmp_path, tau=0.8)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "calpro.cli", "experiment", "calibration",
                               "--config", cfg, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: unknown calibration experiment keys: tau"]

    def test_unread_spec_keys_rejected_before_training(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a head was trained")

        monkeypatch.setattr(trainer, "train", refuse)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN,
                       shift_perturbation={"kind": "gaussian", "magnitude": 0.5},
                       corruption_modes=["nonsense"])
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "calibration", "--config", cfg,
                      "--out", str(tmp_path / "run")])
        assert exc.value.code == ("error: unknown calibration experiment keys: "
                                  "corruption_modes, shift_perturbation")
        assert not (tmp_path / "run").exists()

    def test_unknown_corruption_mode_exits_1_before_training(self, tmp_path, monkeypatch,
                                                              capsys):
        # trainer.train, which every recipe calls on one CPU or several
        def refuse(*args, **kwargs):
            raise AssertionError("a head was trained")

        monkeypatch.setattr(trainer, "train", refuse)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, corruption_modes=["shuffle", "nonsense"])
        assert cli.main(["experiment", "prior_corruption", "--config", cfg,
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown corruption mode 'nonsense'"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("shift, message", [
        ({"kind": "gaussian"},
         "shift_perturbation must be an object with exactly the keys kind and magnitude"),
        ([1], "shift_perturbation must be an object with exactly the keys kind and magnitude"),
        ({"kind": "gaussian", "magnitude": 0.5, "extra": 1},
         "shift_perturbation must be an object with exactly the keys kind and magnitude"),
        ({"kind": "twist", "magnitude": 0.5}, "unknown perturbation kind 'twist'"),
        ({"kind": "gaussian", "magnitude": "0.5"}, "magnitude must be a finite number, got '0.5'"),
        ({"kind": "gaussian", "magnitude": True}, "magnitude must be a finite number, got True"),
        ({"kind": "gaussian", "magnitude": 0}, "magnitude must be positive"),
    ], ids=["no_magnitude", "array", "extra_key", "unknown_kind", "string_magnitude",
            "boolean_magnitude", "zero_magnitude"])
    def test_malformed_shift_perturbation_exits_1_before_training(self, tmp_path, monkeypatch,
                                                                   capsys, shift, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a head was trained")

        monkeypatch.setattr(trainer, "train", refuse)
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN, shift_perturbation=shift)
        assert cli.main(["experiment", "shift", "--config", cfg,
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    def test_segment_swap_count_above_limit_exits_1_with_one_error_line(self, tmp_path):
        cfg = _gen_cfg(tmp_path, train=FAST_TRAIN,
                       shift_perturbation={"kind": "segment_swap", "magnitude": 1e9})
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "calpro.cli", "experiment", "shift",
                               "--config", cfg, "--out", str(tmp_path / "run")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: segment_swap magnitude 1000000000.0 asks for ")
        assert f"limit of {datagen.MAX_SEGMENT_SWAPS}" in proc.stderr
        assert not (tmp_path / "run").exists()


class TestCorruptPriors:
    def test_generate_and_corrupt(self, tmp_path):
        cfg = _gen_cfg(tmp_path, mode="invert")
        out = tmp_path / "run"
        assert cli.main(["corrupt-priors", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "dataset_corrupted.json").exists()

    def test_corrupt_existing_file(self, tmp_path):
        gen_cfg = _gen_cfg(tmp_path)
        gen_out = tmp_path / "gen"
        cli.main(["gen-data", "--config", gen_cfg, "--out", str(gen_out)])
        cfg = _write(tmp_path, "cor.json",
                     {"dataset": str(gen_out / "dataset.json"), "mode": "shuffle"})
        out = tmp_path / "run"
        assert cli.main(["corrupt-priors", "--config", cfg, "--out", str(out)]) == 0

    def test_corrupt_file_without_coords(self, tmp_path):
        """calpro-dataset/1 lets chain_coords and reference_coords be null:
        such a file is corrupted as any other, and perturbing it is refused."""
        ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(n_chains=5, chain_length=20))
        src = tmp_path / "bare.json"
        datagen.save_dataset(datagen.replace(ds, chain_coords=None, reference_coords=None), src)
        cfg = _write(tmp_path, "cor.json", {"dataset": str(src), "mode": "invert"})
        out = tmp_path / "run"
        assert cli.main(["corrupt-priors", "--config", cfg, "--out", str(out)]) == 0
        corrupted = datagen.load_dataset(out / "dataset_corrupted.json")
        assert corrupted.chain_coords is None and corrupted.reference_coords is None
        np.testing.assert_array_equal(corrupted.prior_b, 1.0 - ds.prior_b)
        with pytest.raises(ValueError, match="requires chain_coords"):
            datagen.perturb(corrupted, "gaussian", 0.5)

    @pytest.mark.parametrize("mangle, message", [
        (lambda d: {**d, "nodes": []}, "dataset file has no nodes"),
        (lambda d: {k: v for k, v in d.items() if k != "nodes"}, "dataset file lacks keys: nodes"),
        (lambda d: {**d, "metadata": {k: v for k, v in d["metadata"].items() if k != "chain_ids"}},
         "dataset file lacks keys: metadata.chain_ids"),
        (lambda d: {**d, "nodes": d["nodes"][:1] + [d["nodes"][1][:-1]] + d["nodes"][2:]},
         "node rows must be lists of one length >= 5"),
        (lambda d: {**d, "nodes": [r[-4:] for r in d["nodes"]]},
         "node rows must be lists of one length >= 5"),
        (lambda d: {**d, "splits": d["splits"][:-1]},
         "splits must list one entry per node (100)"),
        (lambda d: {**d, "metadata": {**d["metadata"], "chain_ids": d["metadata"]["chain_ids"][:-1]}},
         "chain_ids must list one entry per node (100)"),
        (lambda d: [d], "dataset file must hold a JSON object"),
        (lambda d: {**d, "edges": None}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [[0, 2**70]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [[0, 2**63]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [[0, 1.7]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [["0", "1"]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [[[0], [1]]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [0, 1]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "edges": [[0, 1], [2]]}, "edges must be [i, j] pairs of integers"),
        (lambda d: {**d, "metadata": {**d["metadata"],
                                      "chain_ids": [0.5] + d["metadata"]["chain_ids"][1:]}},
         "chain_ids must be integers"),
        (lambda d: {**d, "nodes": [d["nodes"][0][:-1] + ["no"]] + d["nodes"][1:]},
         "disorder flags must be booleans"),
        (lambda d: {**d, "nodes": [r[:-1] + [1] for r in d["nodes"]]},
         "disorder flags must be booleans"),
        (lambda d: {**d, "nodes": [["0.5"] + d["nodes"][0][1:]] + d["nodes"][1:]},
         "node features must be numbers"),
        (lambda d: {**d, "nodes": [r[:-2] + [7, r[-1]] for r in d["nodes"]]},
         "group tags must be strings"),
        (lambda d: {**d, "nodes": [d["nodes"][0][:-4] + [True] + d["nodes"][0][-3:]]
                    + d["nodes"][1:]},
         "prior_b must be numbers"),
        (lambda d: {**d, "chain_coords": d["chain_coords"][:-1]},
         "chain_coords must be n [x, y, z] numbers"),
    ], ids=["empty_nodes", "missing_nodes", "missing_chain_ids", "ragged_rows", "short_rows",
            "short_splits", "short_chain_ids", "not_an_object", "null_edges", "edge_past_uint64",
            "edge_past_int64", "fractional_edge", "string_edge", "nested_edge", "flat_edges",
            "ragged_edges", "fractional_chain_id", "string_flag", "integer_flags",
            "string_feature", "integer_tags", "true_prior_b", "short_chain_coords"])
    def test_malformed_dataset_clean_error(self, tmp_path, capsys, mangle, message):
        """A malformed file is one error line that says what is wrong; each
        column is read as the one kind it holds, never converted."""
        gen_out = tmp_path / "gen"
        assert cli.main(["gen-data", "--config", _gen_cfg(tmp_path), "--out", str(gen_out)]) == 0
        bad = _write(tmp_path, "bad.json", mangle(json.loads((gen_out / "dataset.json").read_text())))
        cfg = _write(tmp_path, "cor.json", {"dataset": bad, "mode": "shuffle"})
        capsys.readouterr()
        assert cli.main(["corrupt-priors", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()


def test_artifacts_match_pinned_digests(tmp_path):
    """Every artifact of the tools/cli_digests.py matrix at seed 0 has the
    sha256 pinned in tools/cli_digests_seed0.json.  A change that alters an
    artifact on purpose re-pins the file and says why."""
    spec = importlib.util.spec_from_file_location("cli_digests", TOOLS / "cli_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    expected = json.loads((TOOLS / "cli_digests_seed0.json").read_text(encoding="utf-8"))
    got = tool.digests(cli, 0, tmp_path)
    assert sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k)) == []
