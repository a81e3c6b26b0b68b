import json
import multiprocessing
import warnings

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
        monkeypatch.setattr(trainer, "train", lambda *args: here.append(1) or train(*args))
        for cpus in (1, 2):
            monkeypatch.setattr(bounds, "CPUS", cpus)
            here.clear()
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["experiment", name, "--config", cfg, "--out", str(out)]) == 0
            artifacts.append((out / f"experiment_{name}.json").read_bytes())
            # on two CPUs no head trains in this process
            assert len(here) == (16 if cpus == 1 else 0)
        assert artifacts[0] == artifacts[1]
        assert multiprocessing.active_children() == []

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

        def fail_on_seed_2(cfg, *args):
            if cfg.seed == 2:
                raise ValueError(f"no head for seed {cfg.seed}")
            return train(cfg, *args)

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

    def test_diverging_training_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        """A finite learning rate that overflows the weights ends in the
        trainer's own message, whether the head trains here or on a worker."""
        cfg = _fan_out_config(tmp_path, train={"learning_rate": 1e308, "max_epochs": 3,
                                               "patience": 0})
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(bounds, "CPUS", cpus)
            with warnings.catch_warnings():     # numpy's overflow warnings
                warnings.simplefilter("ignore", RuntimeWarning)
                assert cli.main(["experiment", "calibration", "--config", cfg,
                                 "--out", str(tmp_path / f"cpus{cpus}")]) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"cpus{cpus}").exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: non-finite training loss; offending terms: [")
        assert errors[0].count("\n") == 1
        assert multiprocessing.active_children() == []
