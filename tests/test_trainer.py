import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calpro import conformal, datagen, experiments, head, trainer
from calpro.head import HeadConfig
from calpro.metrics import DEFAULT_LEVEL_GRID
from calpro.objective import MonotoneMap, ObjectiveConfig
from calpro.numerics import rng_stream
from calpro.trainer import TrainConfig

from conformal_reference import conformal_quantile


def _ds(seed=0, n_chains=6):
    return datagen.gen_chain_dataset(
        datagen.GeneratorConfig(n_chains=n_chains, chain_length=30, seed=seed))


def _fast_cfg(seed=0, **kw):
    base = dict(learning_rate=3e-3, batch_size=4, max_epochs=15, patience=5, seed=seed)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        ds = _ds()
        tr = ds.subset(ds.split_indices("train"))
        cfg = _fast_cfg(max_epochs=0, patience=0)
        params, mono, record = trainer.train(cfg, tr, tr)
        init = head.init_head(HeadConfig(), ds.features.shape[1], cfg.seed)
        assert np.array_equal(params.to_vector(), init.to_vector())
        assert record.epochs == []

    def test_deterministic_record(self):
        ds = _ds(seed=2)
        tr = ds.subset(ds.split_indices("train"))
        outs = [trainer.train(_fast_cfg(seed=5, max_epochs=6), tr, tr) for _ in range(2)]
        assert np.array_equal(outs[0][0].to_vector(), outs[1][0].to_vector())
        assert outs[0][2].to_dict() == outs[1][2].to_dict()

    def test_loss_decreases(self):
        wins = 0
        for seed in range(10):
            ds = _ds(seed=seed)
            tr = ds.subset(ds.split_indices("train"))
            _, _, rec = trainer.train(_fast_cfg(seed=seed), tr, tr)
            if rec.epochs[-1]["loss"] < rec.epochs[0]["loss"]:
                wins += 1
        assert wins >= 9

    def test_overflowing_weighted_term_is_named(self):
        """Every part of the loss is finite, and lambda_evid * evidence
        overflows: the error names that weighted term."""
        ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(n_chains=6, chain_length=20))
        tr = ds.subset(ds.split_indices("train"))
        cfg = _fast_cfg(max_epochs=2, patience=0, objective=ObjectiveConfig(lambda_evid=1e308))
        with pytest.raises(FloatingPointError, match=r"^non-finite training loss; offending "
                                                     r"terms: \['lambda_evid \* evidence'\]$"):
            trainer.train(cfg, tr, tr)

    @pytest.mark.parametrize("parts, weights, named", [
        ({"nig": math.inf, "evidence": math.nan}, {}, ["nig", "evidence"]),
        ({}, {"lambda_prior": 1e308, "lambda_conf": 1e308},
         ["lambda_prior * prior", "lambda_conf * soft_conf"]),
        ({"nig": 1e308, "evidence": 1.0}, {"lambda_evid": 1e308},
         ["nig + lambda_evid * evidence + lambda_prior * prior + lambda_conf * soft_conf"]),
    ], ids=["parts", "weighted_terms", "weighted_sum"])
    def test_offending_terms(self, parts, weights, named):
        parts = {"nig": 1.0, "evidence": 2.0, "prior": 3.0, "soft_conf": 4.0, **parts}
        assert trainer._offending_terms(parts, ObjectiveConfig(**weights)) == named

    def test_returns_best_epoch_params(self):
        ds = _ds(seed=3)
        tr = ds.subset(ds.split_indices("train"))
        val = ds.subset(ds.split_indices("calibration"))
        params, _, rec = trainer.train(_fast_cfg(seed=3, max_epochs=20, patience=20), tr, val)
        eces = [e["val_ece"] for e in rec.epochs]
        assert rec.selected_epoch == int(np.argmin(eces))

    def test_does_not_mutate_dataset(self):
        ds = _ds(seed=4)
        tr = ds.subset(ds.split_indices("train"))
        before = tr.features.copy()
        trainer.train(_fast_cfg(seed=4, max_epochs=3, patience=2), tr, tr)
        assert np.array_equal(tr.features, before)

    def test_empty_dataset_rejected(self):
        ds = _ds()
        tr = ds.subset(ds.split_indices("train"))
        empty = ds.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            trainer.train(_fast_cfg(), empty, tr)

    def test_record_excludes_wall_clock(self):
        ds = _ds(seed=5)
        tr = ds.subset(ds.split_indices("train"))
        _, _, rec = trainer.train(_fast_cfg(seed=5, max_epochs=2, patience=1), tr, tr)
        assert rec.wall_clock > 0
        assert "wall_clock" not in rec.to_dict()


# sha256 of the trained head weights, monotone-map weights and record JSON
# of a desk-scale training (experiments.train_config_run on the default
# 12x40 generator) at seed 0.  The weight digests were computed before the
# trainer updated one flat weight vector in place; the record digests after
# the config echo lost head.layer_norm and objective.prior_penalty_reduction
# (the record otherwise unchanged).  The no_conformal and no_priors pins,
# whose zero lambda_conf and lambda_prior leave a loss term out of the
# gradient, were computed before the training step's per-call work was cut.
# Pinned with numpy 2.4 on x86-64; another BLAS or CPU may round differently.
TRAIN_PINS = {
    ("full", 16): ("fc19a7c0c1ee732d1e65c19dd2fec8d5be54270bb702830516ff572e1960a126",
                   "f9c96a0e09f517cc005cfafb048937b0cb0b3d77f7e1c07660e4ab751d9f98b7",
                   "6f7eecb9daf1857c355d95f6439a0d8c5d146913c1d65e43c616c198a9aeb386"),
    ("full", 2): ("653081d78740464cd669e773e464dc34527a2a4242b02ae5118617ac22c22d80",
                  "9d97bb1f6dd353ce402af3767b985dd7001fbb74e4467b2d975ced6f16187182",
                  "9f1667281654e14059601f9c41231f8c32458d8645532559fcbc9965b89150d9"),
    ("no_evidential", 16): ("1e19f0b3010d15c2a4e91a979f5e7cab4344962393998c70aac7ddb86fe54f31",
                            "3046351b8ee59cefb0a1722c52ff325681d51fc09cd7c41c401e4b689bc9c664",
                            "7306ac94a762c54e9f1c3c3054de045daa04048b7f404a2ce25533499719085b"),
    ("no_conformal", 16): ("9ed89fd3d227a4765e403a3e54a33be6de5e384ed6c8e42953efb74d07bfa3f4",
                           "f9c96a0e09f517cc005cfafb048937b0cb0b3d77f7e1c07660e4ab751d9f98b7",
                           "49b31ee4f5c2577ab9ac3017f4991cba92bc903a8a1358cae743868662812229"),
    ("no_priors", 16): ("1f13935855393bc245de79e47b543256dcf735e47c9f21abd56180fac65bc34e",
                        "3046351b8ee59cefb0a1722c52ff325681d51fc09cd7c41c401e4b689bc9c664",
                        "d741322fad0f56b00e0fe34faad11a789762b0e2c95d33dea78ed49c64487689"),
}


@pytest.mark.parametrize("config,batch_size", sorted(TRAIN_PINS))
def test_train_pinned(config, batch_size):
    """One batch per epoch (16), several (6 fitting chains in batches of 2),
    the mu-only objective, and the objectives without the soft-conformal
    term and without the prior hinge."""
    spec = experiments.ExperimentSpec(
        train=replace(experiments.desk_train_config(), batch_size=batch_size))
    run = experiments.train_config_run(spec, config, seed=0)
    got = (hashlib.sha256(run["params"].to_vector().tobytes()).hexdigest(),
           hashlib.sha256(run["mono"].to_vector().tobytes()).hexdigest(),
           hashlib.sha256(json.dumps(run["record"].to_dict(), sort_keys=True)
                          .encode()).hexdigest())
    assert got == TRAIN_PINS[(config, batch_size)]


def _outcome(result):
    """A training's result as bytes, or its exception's type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    params, mono, record = result
    return (params.to_vector().tobytes(), mono.to_vector().tobytes(),
            json.dumps(record.to_dict(), sort_keys=True), record.grad_norms,
            record.clip_events)


def _jobs(train_cfg, arms, seed=0):
    """The recipe jobs (spec, configuration, seed, dataset) of the
    (configuration, corruption mode or None) arms on the default desk
    dataset."""
    spec = experiments.ExperimentSpec(train=train_cfg)
    ds = datagen.gen_chain_dataset(datagen.GeneratorConfig(seed=seed))
    return [(spec, config, seed, ds if mode is None else
             datagen.corrupt_priors(ds, mode, seed=seed)) for config, mode in arms]


def _alone(job):
    """trainer.train's arguments for the job trained on its own as one
    head: cfg carries the job's objective, and no list of objectives."""
    spec, config, seed, ds = job
    fit, val = experiments._train_val(ds)
    cfg = replace(spec.train, seed=seed,
                  objective=experiments._objective_for(config, spec.train.objective))
    return cfg, ds.subset(fit), ds.subset(val)


_DESK = experiments.desk_train_config()
_ABLATIONS = [(name, None) for name in experiments.ABLATIONS]


class TestStackedTraining:
    """A stack of arms trains each arm exactly as its own training does."""

    @staticmethod
    def _check(stack, alone):
        """trainer.train's results of the stacked arguments stack, checked
        against those of each arm's arguments in alone."""
        stacked = trainer.train(*stack)
        own = []
        for args in alone:
            try:
                own.append(trainer.train(*args))
            except FloatingPointError as exc:
                own.append(exc)
        assert [_outcome(r) for r in stacked] == [_outcome(r) for r in own]
        return stacked

    def _check_jobs(self, jobs):
        return self._check(experiments._stacked(jobs), [_alone(job) for job in jobs])

    @pytest.mark.parametrize("batch_size", [16, 2])
    def test_ablation_arms(self, batch_size):
        """One batch per epoch, and 3 batches of 2 of the 6 fitting chains."""
        self._check_jobs(_jobs(replace(_DESK, batch_size=batch_size), _ABLATIONS))

    def test_prior_corruption_arms(self):
        """Arms with different priors, one of them the mu-only objective."""
        jobs = _jobs(_DESK, [("full", None), ("full", "shuffle"), ("no_evidential", "invert"),
                             ("full", "noise")])
        prior_b = experiments._stacked(jobs)[1].prior_b
        assert prior_b.shape[1] == 4 and len({column.tobytes() for column in prior_b.T}) == 4
        self._check_jobs(jobs)

    @pytest.mark.parametrize("batch_size, patience, arms", [
        (4, 3, _ABLATIONS + [("vanilla", None)]),
        # the last arm left has a prior of its own
        (2, 2, [("full", None), ("no_priors", None), ("full", "shuffle"),
                ("no_conformal", "invert"), ("full", "noise")]),
    ])
    def test_arms_stopping_at_different_epochs(self, batch_size, patience, arms):
        cfg = replace(_DESK, batch_size=batch_size, max_epochs=30, patience=patience,
                      warmup_epochs=0)
        stacked = self._check_jobs(_jobs(cfg, arms))
        assert len({len(record.epochs) for _, _, record in stacked}) > 1

    def test_diverging_arm_leaves_the_others(self):
        jobs = _jobs(replace(_DESK, max_epochs=10), _ABLATIONS)
        cfg, fit_ds, val_ds, objectives = experiments._stacked(jobs)
        objectives[1] = replace(objectives[1], lambda_evid=1e308)
        alone = [_alone(job) for job in jobs]
        alone[1] = (replace(alone[1][0], objective=objectives[1]),) + alone[1][1:]
        stacked = self._check((cfg, fit_ds, val_ds, objectives), alone)
        assert [isinstance(r, FloatingPointError) for r in stacked] == [False, True, False, False]

    def test_mu_only_arms(self):
        """A stack whose every arm is mu_only: their priors differ, which
        the squared error does not read, and no map weight moves."""
        stacked = self._check_jobs(_jobs(_DESK, [("no_evidential", None),
                                                 ("no_evidential", "shuffle")]))
        init = MonotoneMap.init(_DESK.objective.monotone_hidden, seed=0).to_vector()
        assert [mono.to_vector().tobytes() for _, mono, _ in stacked] == [init.tobytes()] * 2

    def test_diverging_arm_leaves_arms_stopping_at_different_epochs(self):
        """One arm fails in its first step, and the others stop early, not
        all at one epoch."""
        cfg = replace(_DESK, batch_size=4, max_epochs=30, patience=3, warmup_epochs=0)
        jobs = _jobs(cfg, _ABLATIONS + [("vanilla", None)])
        cfg, fit_ds, val_ds, objectives = experiments._stacked(jobs)
        objectives[1] = replace(objectives[1], lambda_evid=1e308)
        alone = [_alone(job) for job in jobs]
        alone[1] = (replace(alone[1][0], objective=objectives[1]),) + alone[1][1:]
        stacked = self._check((cfg, fit_ds, val_ds, objectives), alone)
        assert isinstance(stacked[1], FloatingPointError)
        assert len({len(r[2].epochs) for r in stacked if not isinstance(r, Exception)}) > 1

    def test_invalid_arm_is_its_own_error(self):
        jobs = _jobs(replace(_DESK, max_epochs=2), _ABLATIONS[:2])
        cfg, fit_ds, val_ds, objectives = experiments._stacked(jobs)
        objectives[0] = replace(objectives[0], lambda_conf=float("nan"))
        stacked = trainer.train(cfg, fit_ds, val_ds, objectives)
        assert str(stacked[0]) == "objective weights must be nonnegative finite numbers"
        assert _outcome(stacked[1]) == _outcome(trainer.train(*_alone(jobs[1])))

    def test_invalid_shared_config_or_set_is_the_calls_error(self):
        jobs = _jobs(replace(_DESK, max_epochs=2), _ABLATIONS[:2])
        cfg, fit_ds, val_ds, objectives = experiments._stacked(jobs)
        with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
            trainer.train(replace(cfg, learning_rate=float("nan")), fit_ds, val_ds, objectives)
        with pytest.raises(ValueError, match="must be non-empty"):
            trainer.train(cfg, fit_ds, fit_ds.subset([]), objectives)
        with pytest.raises(ValueError, match="one column per arm"):
            trainer.train(cfg, datagen.with_priors(
                fit_ds, np.stack([fit_ds.prior_b] * 3, axis=-1)), val_ds, objectives)

    def test_arms_must_differ_only_in_weights_and_priors(self):
        jobs = _jobs(replace(_DESK, max_epochs=1), _ABLATIONS[:2])
        cfg, fit_ds, val_ds, objectives = experiments._stacked(jobs)
        objectives[1] = replace(objectives[1], gamma=5.0)
        with pytest.raises(ValueError, match="differ only in the objective"):
            trainer.train(cfg, fit_ds, val_ds, objectives)


@pytest.fixture
def loss_calls(monkeypatch):
    """(head params, monotone map, gradient buffer, pre-clip gradient norm)
    of every training step."""
    calls = []
    total_loss = trainer.total_loss

    def spy(params, mono, *args, out, **kwargs):
        result = total_loss(params, mono, *args, out=out, **kwargs)
        calls.append((params, mono, out, float(np.linalg.norm(out))))
        return result

    monkeypatch.setattr(trainer, "total_loss", spy)
    return calls


def _weight_arrays(params, mono):
    return ([a for lay in params.layers for a in lay.values()]
            + [params.w_out, params.b_out, mono.w1_raw, mono.b1, mono.w2_raw])


class TestFlatBuffers:
    """The trainer updates one flat weight vector in place; what it returns
    must not alias it."""

    @pytest.mark.parametrize("max_epochs,warmup_epochs", [(3, 0), (3, 3)])
    def test_returned_weights_share_no_buffer(self, max_epochs, warmup_epochs, loss_calls):
        ds = _ds(seed=7)
        tr = ds.subset(ds.split_indices("train"))
        cfg = _fast_cfg(seed=7, max_epochs=max_epochs, patience=0, warmup_epochs=warmup_epochs)
        params, mono, rec = trainer.train(cfg, tr, tr)
        assert (rec.selected_epoch < 0) == (warmup_epochs == max_epochs)
        step_params, step_mono, grad, _ = loss_calls[-1]
        buffers = _weight_arrays(step_params, step_mono) + [grad]
        returned = _weight_arrays(params, mono)
        for a in returned:
            assert not any(np.shares_memory(a, b) for b in buffers)
            assert not any(np.shares_memory(a, b) for b in returned if b is not a)

    @pytest.mark.parametrize("max_epochs", [3, 0])
    def test_writing_returned_weights_changes_no_later_training(self, max_epochs):
        ds = _ds(seed=7)
        tr = ds.subset(ds.split_indices("train"))
        cfg = _fast_cfg(seed=7, max_epochs=max_epochs, patience=0)
        params, mono, _ = trainer.train(cfg, tr, tr)
        ref = params.to_vector(), mono.to_vector()
        for a in _weight_arrays(params, mono):
            a[...] = 1e6
        again, mono_again, _ = trainer.train(cfg, tr, tr)
        assert again.to_vector().tobytes() == ref[0].tobytes()
        assert mono_again.to_vector().tobytes() == ref[1].tobytes()


class TestTrainingHealth:
    @staticmethod
    def _setup():
        ds = _ds(seed=8)
        tr = ds.subset(ds.split_indices("train"))
        n_batches = -(-np.unique(tr.chain_ids).size // 2)
        assert n_batches > 1
        return tr, _fast_cfg(seed=8, batch_size=2, max_epochs=3, patience=0), n_batches

    def test_grad_norms_are_per_epoch_maxima(self, loss_calls):
        tr, cfg, n_batches = self._setup()
        _, _, rec = trainer.train(cfg, tr, tr)
        norms = [norm for *_, norm in loss_calls]
        assert len(norms) == 3 * n_batches
        assert rec.grad_norms == [max(norms[i:i + n_batches])
                                  for i in range(0, len(norms), n_batches)]
        assert rec.clip_events == sum(n > trainer.GRAD_CLIP_NORM for n in norms)
        assert set(rec.to_dict()) == {"epochs", "selected_epoch", "seed", "config_echo"}

    def test_tiny_clip_norm_clips_every_step(self, monkeypatch):
        tr, cfg, n_batches = self._setup()
        _, _, rec = trainer.train(cfg, tr, tr)
        monkeypatch.setattr(trainer, "GRAD_CLIP_NORM", 1e-12)
        _, _, clipped = trainer.train(cfg, tr, tr)
        assert clipped.clip_events == 3 * n_batches
        assert set(clipped.to_dict()) == set(rec.to_dict())
        assert clipped.to_dict() != rec.to_dict()


class TestGraphPerEpoch:
    """What the trainer builds per epoch: datasets and their adjacencies."""

    @pytest.fixture
    def sets(self):
        ds = _ds(seed=6)      # 6 chains: 4 train, 1 calibration, 1 test
        return (ds.subset(ds.split_indices("train")),
                ds.subset(ds.split_indices("calibration")))

    @pytest.fixture
    def subset_sizes(self, monkeypatch, sets):
        """Sizes of the subsets taken after sets are made."""
        sizes = []
        subset = datagen.Dataset.subset

        def counting(ds, idx):
            sizes.append(len(idx))
            return subset(ds, idx)

        monkeypatch.setattr(datagen.Dataset, "subset", counting)
        return sizes

    def test_one_batch_trains_on_the_set_itself(self, sets, subset_sizes, adjacency_builds,
                                                forward_calls):
        tr, val = sets
        trainer.train(_fast_cfg(batch_size=16, max_epochs=4, patience=0), tr, val)
        assert subset_sizes == []
        assert len(forward_calls) == 8 and all(d is tr or d is val for d in forward_calls)
        assert [n for n, _ in adjacency_builds] == [tr.n_nodes, val.n_nodes]

    def test_multi_batch_subsets_each_batch(self, sets, subset_sizes, adjacency_builds):
        tr, val = sets
        n_chains = np.unique(tr.chain_ids).size
        trainer.train(_fast_cfg(batch_size=2, max_epochs=3, patience=0), tr, val)
        batches_per_epoch = -(-n_chains // 2)
        assert batches_per_epoch > 1
        assert len(subset_sizes) == 3 * batches_per_epoch
        assert sum(subset_sizes) == 3 * tr.n_nodes
        # one build per batch, plus one for the validation set
        assert len(adjacency_builds) == len(subset_sizes) + 1


def _batches_loop(chain_ids, train_idx, batch_size, rng):
    """Reference: the per-node membership loop trainer._batches used to run."""
    chains = np.unique(chain_ids[train_idx])
    order = rng.permutation(chains.size)
    for start in range(0, chains.size, batch_size):
        sel = set(chains[order[start:start + batch_size]].tolist())
        yield np.array([i for i in train_idx if chain_ids[i] in sel], dtype=int)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=60), st.data(),
       st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_batches_partition_whole_chains_in_order(chain_ids, data, batch_size, seed):
    chain_ids = np.array(chain_ids)
    # any subset of the nodes, in any order
    train_idx = np.array(data.draw(st.permutations(range(chain_ids.size)))[
        :data.draw(st.integers(0, chain_ids.size))], dtype=int)
    got = list(trainer._batches(chain_ids, train_idx, batch_size)(rng_stream(seed, 20)))
    expected = list(_batches_loop(chain_ids, train_idx, batch_size, rng_stream(seed, 20)))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)
    # each chain of train_idx in exactly one batch
    batch_chains = [c for b in got for c in set(chain_ids[b].tolist())]
    assert len(batch_chains) == len(set(batch_chains)) == len(set(chain_ids[train_idx].tolist()))
    for b in got:
        # every node of a batch's chains, in train_idx order
        assert np.array_equal(b, train_idx[np.isin(chain_ids[train_idx], chain_ids[b])])


def _validation_ece_sort_per_level(head_params, val_ds, level_grid=DEFAULT_LEVEL_GRID):
    """Reference: validation_ece as it sorted once per level and took one
    boolean mean per level."""
    nig = head.forward(head_params, val_ds)
    s = conformal.scores_from_nig(nig, val_ds.target_y, "normalized")
    half_a = s[0::2]
    half_b = s[1::2]
    if half_a.size == 0 or half_b.size == 0:
        half_a = half_b = s
    devs = []
    for tau in level_grid:
        q = conformal_quantile(half_a, 1.0 - tau)
        devs.append(abs(float(np.mean(half_b <= q)) - tau))
    return float(np.mean(devs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 60),
       st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12) | st.just(DEFAULT_LEVEL_GRID))
def test_validation_ece_matches_per_level_reference(small_chain_ds, seed, n_nodes, grid):
    val = small_chain_ds.subset(rng_stream(seed, 0).choice(small_chain_ds.n_nodes, n_nodes,
                                                           replace=False))
    params = head.init_head(HeadConfig(), small_chain_ds.features.shape[1], seed % 1000)
    got = trainer.validation_ece(params, val, tuple(grid))
    assert np.float64(got).tobytes() == np.float64(
        _validation_ece_sort_per_level(params, val, tuple(grid))).tobytes()


class TestValidationEce:
    def test_range(self, trained):
        val = trainer.validation_ece(trained["params"], trained["test_ds"])
        assert 0.0 <= val <= 1.0

    def test_empty_rejected(self, trained, small_chain_ds):
        empty = small_chain_ds.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            trainer.validation_ece(trained["params"], empty)

    def test_trained_beats_random(self):
        """Early stopping is only meaningful if the proxy ranks a trained
        head ahead of an untrained one most of the time."""
        wins = 0
        for seed in range(10):
            ds = _ds(seed=seed + 100, n_chains=8)
            tr = ds.subset(ds.split_indices("train"))
            val = ds.subset(ds.split_indices("calibration"))
            trained_p, _, _ = trainer.train(_fast_cfg(seed=seed, max_epochs=25), tr, val)
            random_p = head.init_head(HeadConfig(), ds.features.shape[1], seed + 50)
            if trainer.validation_ece(trained_p, val) <= trainer.validation_ece(random_p, val):
                wins += 1
        assert wins >= 6


class TestConfigValidation:
    def test_bad_values(self):
        for lr in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be a positive finite"):
                TrainConfig(learning_rate=lr).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=10, patience=20).validate()
