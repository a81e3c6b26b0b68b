import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calpro import bounds, cli, conformal, datagen, experiments, trainer
from calpro.experiments import ExperimentSpec


def _spec(**kw):
    base = dict(
        generator=datagen.GeneratorConfig(n_chains=6, chain_length=24, seed=0),
        train=trainer.TrainConfig(learning_rate=3e-3, batch_size=4, max_epochs=6,
                                  patience=3),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(seeds=()).validate()
        with pytest.raises(ValueError):
            _spec(ablations=("no_dropout",)).validate()

    def test_echo_is_serializable(self):
        import json
        json.dumps(_spec().echo())


class TestCalibrationExperiment:
    def test_rows_per_ablation(self):
        out = experiments.run_calibration_experiment(
            _spec(ablations=("full", "no_conformal")))
        assert set(out["rows"]) == {"full", "no_conformal"}
        row = out["rows"]["full"]
        assert set(row["coverage"]) == {"0.8", "0.9", "0.95"}
        assert 0.0 <= row["ece"] <= 1.0

    def test_deterministic(self):
        a = experiments.run_calibration_experiment(_spec())
        b = experiments.run_calibration_experiment(_spec())
        assert a == b


class TestShiftExperiment:
    def test_perturbation_shift(self):
        spec = _spec(shift_perturbation={"kind": "gaussian", "magnitude": 0.5})
        out = experiments.run_shift_experiment(spec)
        assert set(out["rows"]) == {"full", "no_priors"}
        for row in out["rows"].values():
            assert row["degradation"] == pytest.approx(0.9 - row["coverage"])

    def test_requires_shift_definition(self):
        with pytest.raises(ValueError):
            experiments.run_shift_experiment(_spec())


class TestPerturbationCorrelation:
    def test_table_shape(self):
        out = experiments.run_perturbation_correlation(_spec())
        for cfg in ("full", "no_priors"):
            row = out["rows"][cfg]
            assert set(row) == {"gaussian", "segment_swap", "block_rotate", "blur",
                                "overall"}


class TestPriorCorruption:
    def test_modes_reported(self):
        out = experiments.run_prior_corruption(_spec(corruption_modes=("shuffle",)))
        assert set(out["rows"]) == {"full", "shuffle"}
        assert all("coverage" in r for r in out["rows"].values())


class TestEfficiencyExperiment:
    def test_report_fields(self):
        out = experiments.run_efficiency_experiment(_spec())
        assert "median_width_ratio" in out
        seed_row = out["per_seed"][0]
        assert {"width_ratio", "coverage_full", "coverage_vanilla",
                "inconclusive"} <= set(seed_row)
        assert seed_row["width_ratio"] > 0


class TestBoundSweepExperiment:
    def test_rows(self):
        out = experiments.run_bound_sweep(_spec(), magnitudes=(0.3, 0.6))
        rep = out["per_seed"][0]
        assert len(rep["epsilons"]) == 3
        assert rep["epsilons"] == sorted(rep["epsilons"])


def _fan_out_config(tmp_path, **extra):
    """A 4-seed experiment config on a 6x24 graph, 3 epochs per head."""
    doc = {"generator": {"n_chains": 6, "chain_length": 24},
           "train": {"learning_rate": 3e-3, "batch_size": 4, "max_epochs": 3,
                     "patience": 0, "warmup_epochs": 2},
           "seeds": [0, 1, 2, 3], **extra}
    path = tmp_path / "fan_out.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestTrainingFanOut:
    """Each recipe trains its heads on one forked worker per CPU
    (bounds.CPUS) and evaluates them in this process."""

    @pytest.mark.parametrize("name", ["calibration", "prior_corruption"])
    def test_artifact_independent_of_cpu_count(self, tmp_path, monkeypatch, name):
        cfg = _fan_out_config(tmp_path)
        artifacts, here = [], []
        train = trainer.train
        monkeypatch.setattr(trainer, "train",
                            lambda cfgs, *args: here.append(len(cfgs)) or train(cfgs, *args))
        for cpus in (1, 2):
            monkeypatch.setattr(bounds, "CPUS", cpus)
            here.clear()
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["experiment", name, "--config", cfg, "--out", str(out)]) == 0
            artifacts.append((out / f"experiment_{name}.json").read_bytes())
            # on one CPU each seed's 4 heads train here as one stack; on two
            # CPUs no head trains in this process
            assert here == ([4] * 4 if cpus == 1 else [])
        assert artifacts[0] == artifacts[1]
        assert multiprocessing.active_children() == []

    def test_one_seed_trains_on_every_worker(self, tmp_path, monkeypatch):
        """With fewer seeds than CPUs a seed's arms are split into one stack
        per worker, and the stacks train at the same time."""
        cfg = _fan_out_config(tmp_path, seeds=[0])
        monkeypatch.setattr(bounds, "CPUS", 1)
        assert cli.main(["experiment", "calibration", "--config", cfg,
                         "--out", str(tmp_path / "cpus1")]) == 0
        stacks = tmp_path / "stacks"
        # each stack waits for the other: one worker alone never gets past
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
        train = trainer.train

        def meet(cfgs, *args):
            with open(stacks, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {len(cfgs)}\n")
            barrier.wait()
            return train(cfgs, *args)

        monkeypatch.setattr(trainer, "train", meet)
        monkeypatch.setattr(bounds, "CPUS", 2)
        assert cli.main(["experiment", "calibration", "--config", cfg,
                         "--out", str(tmp_path / "cpus2")]) == 0
        rows = [line.split() for line in stacks.read_text(encoding="utf-8").splitlines()]
        assert sorted(int(size) for _, size in rows) == [2, 2]
        pids = {int(pid) for pid, _ in rows}
        assert len(pids) == 2 and os.getpid() not in pids
        assert ((tmp_path / "cpus1" / "experiment_calibration.json").read_bytes()
                == (tmp_path / "cpus2" / "experiment_calibration.json").read_bytes())
        assert multiprocessing.active_children() == []

    def test_arms_on_one_dataset_share_their_training_sets(self):
        """A stack's jobs on one dataset get one fitting and one validation
        set, made and sent to the worker once; a dataset with corrupted
        priors gets its own."""
        spec = _spec()
        ds = datagen.gen_chain_dataset(spec.generator)
        noisy = datagen.corrupt_priors(ds, "noise", seed=0)
        jobs = [(spec, name, 0, ds) for name in experiments.ABLATIONS] + [(spec, "full", 0, noisy)]
        cfgs, fits, vals = experiments._stacked(jobs)
        assert [c.objective for c in cfgs] == [
            experiments._training(*job)[0].objective for job in jobs]
        assert len({id(f) for f in fits[:4]}) == 1 and len({id(v) for v in vals[:4]}) == 1
        assert fits[4] is not fits[0] and vals[4] is not vals[0]
        assert fits[4].features.tobytes() == fits[0].features.tobytes()

    def test_every_calibration_runs_in_this_process(self, tmp_path, monkeypatch):
        calls = []
        calibrate = conformal.calibrate
        monkeypatch.setattr(conformal, "calibrate",
                            lambda *args, **kwargs: calls.append(1) or calibrate(*args, **kwargs))
        monkeypatch.setattr(bounds, "CPUS", 2)
        cfg = _fan_out_config(tmp_path, ablations=list(experiments.ABLATIONS))
        assert cli.main(["experiment", "shift", "--config", cfg,
                         "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 4 * 4
        assert multiprocessing.active_children() == []

    def test_training_error_is_the_serial_loops(self, tmp_path, monkeypatch, capsys):
        train = trainer.train

        def fail_on_seed_2(cfgs, *args):     # a stack: one seed's arms
            if cfgs[0].seed == 2:
                raise ValueError(f"no head for seed {cfgs[0].seed}")
            return train(cfgs, *args)

        monkeypatch.setattr(trainer, "train", fail_on_seed_2)
        cfg = _fan_out_config(tmp_path)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(bounds, "CPUS", cpus)
            assert cli.main(["experiment", "calibration", "--config", cfg,
                             "--out", str(tmp_path / f"cpus{cpus}")]) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"cpus{cpus}").exists()
        assert errors == ["error: no head for seed 2\n"] * 2
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_training_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        """A finite learning rate that overflows the weights ends in the
        trainer's own message, whether the head trains here or on a worker,
        and numpy warns of nothing on the way."""
        cfg = _fan_out_config(tmp_path, train={"learning_rate": 1e308, "max_epochs": 3,
                                               "patience": 0})
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(bounds, "CPUS", cpus)
            assert cli.main(["experiment", "calibration", "--config", cfg,
                             "--out", str(tmp_path / f"cpus{cpus}")]) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"cpus{cpus}").exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: non-finite training loss; offending terms: [")
        assert errors[0].count("\n") == 1
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv, cpus", [(["pipeline"], 1), (["experiment", "calibration"], 1),
                                        (["experiment", "calibration"], 2)],
                         ids=["pipeline", "recipe_here", "recipe_on_workers"])
def test_diverging_training_prints_only_its_error_line(tmp_path, argv, cpus):
    """The process's whole stderr, a forked worker's included, is the
    trainer's one error line."""
    cfg = tmp_path / "diverging.json"
    cfg.write_text(json.dumps({"generator": {"n_chains": 6, "chain_length": 20},
                               "train": {"learning_rate": 1e308, "max_epochs": 2,
                                         "patience": 0}}))
    code = ("import sys; from calpro import bounds, cli; "
            f"bounds.CPUS = {cpus}; sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--config", str(cfg),
                           "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: non-finite training loss; offending terms: [")
