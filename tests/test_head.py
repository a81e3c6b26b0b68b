import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calpro import datagen, head
from calpro.head import HeadConfig, NIGParams
from calpro.numerics import rng_stream

from finite_differences import finite_difference_gradient


def _tiny_ds(seed=0, n_chains=2, chain_length=10):
    return datagen.gen_chain_dataset(
        datagen.GeneratorConfig(n_chains=n_chains, chain_length=chain_length, seed=seed))


class TestForward:
    def test_zero_weights_forced_outputs(self, small_chain_ds):
        params = head.init_head(HeadConfig(), small_chain_ds.features.shape[1], 0)
        params = params.from_vector(np.zeros(params.size))
        nig = head.forward(params, small_chain_ds)
        log2 = math.log(2.0)
        assert np.allclose(nig.mu, 0.0)
        assert np.allclose(nig.nu, log2)
        assert np.allclose(nig.alpha - 1.0, log2)
        assert np.allclose(nig.beta, log2)

    def test_isolated_node_uses_own_features_only(self):
        ds = _tiny_ds()
        isolated = datagen.replace(ds, edges=np.zeros((0, 2), dtype=int))
        params = head.init_head(HeadConfig(), ds.features.shape[1], 3)
        nig_a = head.forward(params, isolated)
        # changing another node's features must not affect node 0
        feats = np.array(isolated.features)
        feats[5] += 10.0
        nig_b = head.forward(params, datagen.replace(isolated, features=feats))
        assert nig_a.mu[0] == nig_b.mu[0]
        assert nig_b.mu[5] != nig_a.mu[5]

    def test_constraints_hold_for_random_params(self, small_chain_ds):
        for seed in range(10):
            params = head.init_head(HeadConfig(), small_chain_ds.features.shape[1], seed)
            scale = 10.0 ** rng_stream(seed, 0).uniform(-1, 1)
            params = params.from_vector(scale * params.to_vector())
            nig = head.forward(params, small_chain_ds)
            nig.validate()

    def test_feature_dim_mismatch(self, small_chain_ds):
        params = head.init_head(HeadConfig(), small_chain_ds.features.shape[1] + 1, 0)
        with pytest.raises(ValueError, match="feature dim"):
            head.forward(params, small_chain_ds)

    def test_permutation_equivariance(self):
        ds = _tiny_ds(seed=4)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 1)
        nig = head.forward(params, ds)
        perm = rng_stream(5, 0).permutation(ds.n_nodes)
        pos = np.argsort(perm)
        edges = np.sort(pos[ds.edges], axis=1) if ds.edges.size else ds.edges
        permuted = datagen.replace(
            ds,
            features=ds.features[perm],
            prior_b=ds.prior_b[perm],
            target_y=ds.target_y[perm],
            group_tags=tuple(ds.group_tags[i] for i in perm),
            disorder_flags=ds.disorder_flags[perm],
            splits=tuple(ds.splits[i] for i in perm),
            chain_coords=ds.chain_coords[perm],
            chain_ids=ds.chain_ids[perm],
            edges=edges,
        )
        nig_p = head.forward(params, permuted)
        assert np.allclose(nig_p.mu, nig.mu[perm])
        assert np.allclose(nig_p.beta, nig.beta[perm])


class TestBackward:
    def test_matches_finite_differences(self):
        """Gradient of a composite scalar of all four outputs."""
        ds = _tiny_ds(seed=8, n_chains=2, chain_length=8)
        params = head.init_head(HeadConfig(widths=(6, 6)), ds.features.shape[1], 9)
        w = rng_stream(10, 0).normal(size=(4, ds.n_nodes))

        def scalar(vec):
            nig = head.forward(params.from_vector(vec), ds)
            return float(w[0] @ nig.mu + w[1] @ nig.nu + w[2] @ nig.alpha + w[3] @ nig.beta)

        nig, cache = head.forward(params, ds, with_cache=True)
        g = head.backward(params, cache, w[0], w[1], w[2], w[3]).to_vector()
        x0 = params.to_vector()
        idx = rng_stream(11, 0).choice(x0.size, 50, replace=False)
        fd = finite_difference_gradient(scalar, x0, 1e-6)
        rel = np.abs(g[idx] - fd[idx]) / np.maximum(1.0, np.abs(fd[idx]))
        assert rel.max() < 1e-4


class TestFlatParameters:
    """HeadParams over one flat vector: view shares it, from_vector copies."""

    @staticmethod
    def _arrays(p):
        return [a for lay in p.layers for a in lay.values()] + [p.w_out, p.b_out]

    def test_from_vector_shares_no_memory(self, random_head):
        vec = random_head.to_vector()
        p = random_head.from_vector(vec)
        assert not any(np.shares_memory(a, vec) for a in self._arrays(p))
        assert p.to_vector().tobytes() == vec.tobytes()
        assert p.size == vec.size

    def test_view_writes_through(self, random_head):
        vec = random_head.to_vector()
        p = random_head.view(vec)
        assert all(np.shares_memory(a, vec) for a in self._arrays(p))
        vec *= 3.0
        assert p.to_vector().tobytes() == vec.tobytes()

    @pytest.mark.parametrize("size_delta", [-1, 1])
    def test_length_mismatch(self, random_head, size_delta):
        with pytest.raises(ValueError):
            random_head.from_vector(np.zeros(random_head.size + size_delta))

    def test_backward_into_buffer_bitwise(self):
        ds = _tiny_ds(seed=12, n_chains=3, chain_length=12)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 13)
        w = rng_stream(14, 0).normal(size=(4, ds.n_nodes))
        _, cache = head.forward(params, ds, with_cache=True)
        fresh = head.backward(params, cache, *w).to_vector()
        buf = np.full(params.size, np.nan)      # stale contents must not leak in
        into = head.backward(params, cache, *w, out=buf)
        assert buf.tobytes() == fresh.tobytes()
        assert all(np.shares_memory(a, buf) for a in self._arrays(into))


class TestAdjacencyPerDataset:
    def test_two_forwards_build_once(self, small_chain_ds, adjacency_builds):
        ds = datagen.replace(small_chain_ds)    # a new instance, nothing built yet
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        first = head.forward(params, ds)
        second = head.forward(params.from_vector(2 * params.to_vector()), ds)
        assert len(adjacency_builds) == 1
        assert adjacency_builds[0][0] == ds.n_nodes
        assert not np.array_equal(first.mu, second.mu)

    def test_derived_datasets_build_their_own(self, small_chain_ds, adjacency_builds):
        """A subset and a replace build their own adjacency; perturb and
        corrupt_priors change node values only and reuse their source's."""
        ds = datagen.replace(small_chain_ds)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        source = head.forward(params, ds, with_cache=True)[1]
        derived = [ds.subset(np.arange(ds.n_nodes)),
                   datagen.replace(ds, edges=ds.edges[::2]),
                   datagen.perturb(ds, "gaussian", 0.5, seed=1),
                   datagen.corrupt_priors(ds, "invert")]
        caches = [[head.forward(params, d, with_cache=True)[1] for _ in range(2)]
                  for d in derived]
        assert [n for n, _ in adjacency_builds] == [ds.n_nodes] * 3
        assert adjacency_builds[2][1] is derived[1].edges
        for pair in caches[2:]:
            assert all(c["adj"] is source["adj"] and c["adj_t"] is source["adj_t"]
                       for c in pair)

    def test_build_edges_gets_a_fresh_adjacency(self, small_chain_ds):
        pert = datagen.perturb(datagen.replace(small_chain_ds), "gaussian", 0.5, seed=1)
        adj = head._adjacency(pert)[0]
        rebuilt = datagen.build_edges(pert, chain_window=2, spatial_radius=0.0)
        fresh = head._adjacency(rebuilt)[0]
        assert fresh is not adj
        assert (fresh != head.mean_adjacency(rebuilt.n_nodes, rebuilt.edges)).nnz == 0
        assert (fresh != adj).nnz > 0

    def test_live_subset_lends_its_adjacency(self, small_chain_ds, adjacency_builds):
        """perturb(ds).subset(test) of a ds whose test subset is held: the
        shifted test set of every shift evaluation."""
        ds = datagen.replace(small_chain_ds)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        test = ds.subset(ds.split_indices("test"))
        first = head.forward(params, test, with_cache=True)[1]
        for mag in (0.1, 0.5):
            pert = datagen.perturb(ds, "gaussian", mag, seed=3)
            shifted = pert.subset(pert.split_indices("test"))
            assert shifted.edges is test.edges
            cache = head.forward(params, shifted, with_cache=True)[1]
            assert cache["adj"] is first["adj"]
            assert np.array_equal(cache["ms"][0], cache["adj"] @ shifted.features)
        assert [n for n, _ in adjacency_builds] == [test.n_nodes]

    def test_transpose_view_kept_beside_adjacency(self, small_chain_ds):
        ds = datagen.replace(small_chain_ds)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        first = head.forward(params, ds, with_cache=True)[1]
        second = head.forward(params, ds, with_cache=True)[1]
        assert second["adj_t"] is first["adj_t"]
        assert (first["adj_t"] != first["adj"].T).nnz == 0

    def test_layer0_message_kept_per_dataset(self, small_chain_ds):
        ds = datagen.replace(small_chain_ds)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        first = head.forward(params, ds, with_cache=True)[1]
        second = head.forward(params.from_vector(2 * params.to_vector()), ds,
                              with_cache=True)[1]
        assert second["ms"][0] is first["ms"][0]
        assert np.array_equal(first["ms"][0], first["adj"] @ ds.features)
        moved = datagen.replace(ds, features=ds.features + 1.0)
        cache = head.forward(params, moved, with_cache=True)[1]
        assert np.array_equal(cache["ms"][0], cache["adj"] @ moved.features)
        assert not np.array_equal(cache["ms"][0], first["ms"][0])

    def test_replaced_edges_not_stale(self, small_chain_ds):
        ds = datagen.replace(small_chain_ds)
        params = head.init_head(HeadConfig(), ds.features.shape[1], 2)
        full = head.forward(params, ds, with_cache=True)[1]["adj"]
        thinned = datagen.replace(ds, edges=ds.edges[::2])
        adj = head.forward(params, thinned, with_cache=True)[1]["adj"]
        assert (adj != head.mean_adjacency(ds.n_nodes, thinned.edges)).nnz == 0
        assert (adj != full).nnz > 0


def _fresh_forward(params, ds):
    """The prediction on a copy of ds with no memo of its own."""
    return head.forward(params, datagen.replace(ds))


def _bits(nig):
    return [a.tobytes() for a in (nig.mu, nig.nu, nig.alpha, nig.beta)]


class TestKeptPrediction:
    """An inference forward keeps its prediction on the dataset, keyed by
    the head's config, weight shape and weight bytes."""

    def test_same_weights_return_the_kept_prediction(self, small_chain_ds, random_head):
        ds = datagen.replace(small_chain_ds)
        nig = head.forward(random_head, ds)
        assert head.forward(random_head, ds) is nig
        # a copy of the weights has the same bytes
        assert head.forward(random_head.from_vector(random_head.to_vector()), ds) is nig
        assert _bits(nig) == _bits(_fresh_forward(random_head, ds))

    def test_in_place_update_is_seen(self, small_chain_ds, random_head):
        """Weights that are views of a vector written in place, as Adam
        writes theta: the next forward predicts with the new weights."""
        ds = datagen.replace(small_chain_ds)
        theta = random_head.to_vector()
        params = random_head.view(theta)
        before = head.forward(params, ds)
        theta -= 1e-2 * np.sign(theta)
        after = head.forward(params, ds)
        assert after is not before
        assert _bits(after) == _bits(_fresh_forward(params, ds))
        assert _bits(after) != _bits(before)

    def test_signed_zero_weights_are_different_keys(self, small_chain_ds, random_head):
        ds = datagen.replace(small_chain_ds)
        zeros = np.zeros(random_head.size)
        positive = head.forward(random_head.from_vector(zeros), ds)
        zeros[0] = -0.0
        negative = head.forward(random_head.from_vector(zeros), ds)
        assert negative is not positive
        assert _bits(negative) == _bits(positive)

    def test_configs_with_equal_weight_bytes_do_not_collide(self, small_chain_ds):
        ds = datagen.replace(small_chain_ds)
        dim = ds.features.shape[1]
        one = head.init_head(HeadConfig(widths=(2,)), dim, 0)
        two = head.init_head(HeadConfig(widths=(2, 1)), dim, 0)
        assert one.size == two.size
        one, two = one.from_vector(np.ones(one.size)), two.from_vector(np.ones(two.size))
        first = head.forward(one, ds)
        second = head.forward(two, ds)
        assert second is not first
        assert _bits(second) == _bits(_fresh_forward(two, ds))
        assert _bits(second) != _bits(first)

    def test_training_forward_neither_reads_nor_writes(self, small_chain_ds, random_head):
        ds = datagen.replace(small_chain_ds)
        head.forward(random_head, ds, with_cache=True)
        assert "_forward" not in ds.__dict__
        kept = head.forward(random_head, ds)
        trained, _ = head.forward(random_head, ds, with_cache=True)
        assert trained is not kept
        assert head.forward(random_head, ds) is kept

    def test_kept_prediction_is_read_only(self, small_chain_ds, random_head):
        nig = head.forward(random_head, datagen.replace(small_chain_ds))
        for a in (nig.mu, nig.nu, nig.alpha, nig.beta):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_pickled_dataset_carries_no_kept_prediction(self, small_chain_ds, random_head):
        ds = datagen.replace(small_chain_ds)
        head.forward(random_head, ds)
        assert "_forward" in ds.__dict__
        clone = pickle.loads(pickle.dumps(ds))
        assert "_forward" not in clone.__dict__
        assert _bits(head.forward(random_head, clone)) == _bits(head.forward(random_head, ds))


@st.composite
def _graph_and_vectors(draw):
    """A random graph over n nodes (possibly edgeless, possibly with isolated
    nodes) and an (n, k) block of vectors spanning many magnitudes."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=120))
    edges = np.unique(np.sort(np.array(edges, dtype=int).reshape(-1, 2), axis=1), axis=0)
    rng = rng_stream(draw(st.integers(0, 2**31 - 1)), 0)
    k = draw(st.integers(1, 6))
    x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    return n, edges, x


@settings(max_examples=300, deadline=None)
@given(_graph_and_vectors())
def test_transpose_view_products_bitwise_equal(case):
    """backward multiplies by the CSC view adj.T; it must give the very bits
    of the CSR copy adj.T.tocsr()."""
    n, edges, x = case
    adj = head.mean_adjacency(n, edges)
    assert np.array_equal(adj.T @ x, adj.T.tocsr() @ x)
    assert np.array_equal(adj.T @ x[:, 0], adj.T.tocsr() @ x[:, 0])


class TestVariances:
    def test_predictive_substitution(self):
        p = NIGParams(np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([3.0]))
        assert head.epistemic_variance(p)[0] == pytest.approx(3.0)

    def test_beta_linearity(self):
        p1 = NIGParams(np.zeros(1), np.array([2.0]), np.array([3.0]), np.array([4.0]))
        p2 = NIGParams(np.zeros(1), np.array([2.0]), np.array([3.0]), np.array([8.0]))
        assert head.epistemic_variance(p2)[0] == pytest.approx(2 * head.epistemic_variance(p1)[0])

    def test_alpha_limit(self):
        p = NIGParams(np.zeros(1), np.ones(1), np.array([1e9]), np.ones(1))
        assert head.epistemic_variance(p)[0] < 1e-8

    def test_decomposition(self):
        p = NIGParams(np.zeros(1), np.array([2.0]), np.array([3.0]), np.array([4.0]))
        assert head.epistemic_variance(p)[0] == pytest.approx(1.0)
        assert head.aleatoric_variance(p)[0] == pytest.approx(2.0)

    def test_nu_one_equates(self):
        p = NIGParams(np.zeros(1), np.array([1.0]), np.array([5.0]), np.array([2.0]))
        assert head.epistemic_variance(p)[0] == pytest.approx(head.aleatoric_variance(p)[0])

    def test_large_nu_kills_epistemic_only(self):
        p = NIGParams(np.zeros(1), np.array([1e12]), np.array([2.0]), np.array([1.0]))
        assert head.epistemic_variance(p)[0] < 1e-10
        assert head.aleatoric_variance(p)[0] == pytest.approx(1.0)


@st.composite
def _head_case(draw):
    """A head of drawn shape and config whose weights are any non-NaN
    floats: ±0.0, subnormals, huge values and ±inf included."""
    cfg = HeadConfig(widths=tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))))
    template = head.init_head(cfg, draw(st.integers(1, 6)), 0)
    weights = draw(hnp.arrays(float, template.size,
                              elements=st.floats(allow_nan=False, allow_subnormal=True)))
    return template.from_vector(weights)


class TestCheckpoint:
    @settings(max_examples=100, deadline=None)
    @given(_head_case())
    def test_save_load_round_trip_bitwise(self, params):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "head.json"
            head.save_head(params, path)
            back = head.load_head(path)
        assert back.config == params.config and back.feature_dim == params.feature_dim
        assert back.to_vector().tobytes() == params.to_vector().tobytes()

    def test_round_trip_bitwise(self, small_chain_ds, random_head, tmp_path):
        p = tmp_path / "head.json"
        head.save_head(random_head, p)
        back = head.load_head(p)
        nig_a = head.forward(random_head, small_chain_ds)
        nig_b = head.forward(back, small_chain_ds)
        assert np.array_equal(nig_a.mu, nig_b.mu)
        assert np.array_equal(nig_a.beta, nig_b.beta)

    def test_shape_mismatch_rejected(self, random_head, tmp_path):
        import json
        p = tmp_path / "head.json"
        head.save_head(random_head, p)
        doc = json.loads(p.read_text())
        doc["config"]["widths"] = [4, 4]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="config"):
            head.load_head(p)

    def test_corrupted_payload(self, random_head, tmp_path):
        p = tmp_path / "head.json"
        head.save_head(random_head, p)
        p.write_bytes(p.read_bytes()[:50])
        with pytest.raises(ValueError, match="byte offset"):
            head.load_head(p)

    def test_version_mismatch(self, random_head, tmp_path):
        """Any other version is refused; a calpro-head/1 file may hold a
        layer-norm head, which this head would evaluate differently."""
        import json
        p = tmp_path / "head.json"
        head.save_head(random_head, p)
        doc = json.loads(p.read_text())
        for version in ("calpro-head/9", "calpro-head/1"):
            doc["version"] = version
            p.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"unsupported head version '{version}'"):
                head.load_head(p)
