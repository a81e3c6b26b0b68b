import numpy as np
import pytest

from calpro import datagen, head, trainer


@pytest.fixture(scope="session")
def small_chain_ds():
    cfg = datagen.GeneratorConfig(n_chains=6, chain_length=30, seed=11)
    return datagen.gen_chain_dataset(cfg)


@pytest.fixture(scope="session")
def default_chain_ds():
    return datagen.gen_chain_dataset(datagen.GeneratorConfig(seed=0))


@pytest.fixture(scope="session")
def random_head(small_chain_ds):
    return head.init_head(head.HeadConfig(), small_chain_ds.features.shape[1], 7)


@pytest.fixture(scope="session")
def trained(small_chain_ds):
    """One trained head on the small fixture, shared across tests."""
    ds = small_chain_ds
    tr = ds.subset(ds.split_indices("train"))
    cfg = trainer.TrainConfig(learning_rate=3e-3, batch_size=4, max_epochs=30,
                              patience=10, seed=1)
    params, mono, record = trainer.train(cfg, tr, tr)
    return {"ds": ds, "params": params, "mono": mono, "record": record,
            "cal_ds": ds.subset(ds.split_indices("calibration")),
            "test_ds": ds.subset(ds.split_indices("test"))}


@pytest.fixture
def forward_calls(monkeypatch):
    """Datasets of every head.forward call made while the test runs."""
    calls = []
    forward = head.forward

    def counting(params, ds, *args, **kwargs):
        calls.append(ds)
        return forward(params, ds, *args, **kwargs)

    monkeypatch.setattr(head, "forward", counting)
    return calls


@pytest.fixture
def adjacency_builds(monkeypatch):
    """(n_nodes, edges) of every head.mean_adjacency build made while the
    test runs."""
    builds = []
    build = head.mean_adjacency

    def counting(n_nodes, edges):
        builds.append((n_nodes, edges))
        return build(n_nodes, edges)

    monkeypatch.setattr(head, "mean_adjacency", counting)
    return builds
