import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calpro import datagen, head, trainer
from calpro.head import HeadConfig
from calpro.numerics import rng_stream
from calpro.trainer import TrainConfig


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
        init = head.init_head(HeadConfig(init_seed=cfg.seed), ds.features.shape[1])
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
    got = list(trainer._batches(chain_ids, train_idx, batch_size, rng_stream(seed, 20)))
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
            random_p = head.init_head(HeadConfig(init_seed=seed + 50), ds.features.shape[1])
            if trainer.validation_ece(trained_p, val) <= trainer.validation_ece(random_p, val):
                wins += 1
        assert wins >= 6


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=10, patience=20).validate()
