import gc
import hashlib
import json
import math
import pickle
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from calpro import datagen, head
from calpro.datagen import Dataset, GeneratorConfig
from calpro.numerics import rng_stream


PERTURB_KINDS = ("gaussian", "segment_swap", "block_rotate", "blur")


def _cfg(**kw):
    base = dict(n_chains=6, chain_length=30, seed=0)
    base.update(kw)
    return GeneratorConfig(**base)


class TestChainGenerator:
    def test_exact_priors_when_noise_free(self):
        ds = datagen.gen_chain_dataset(_cfg(informativeness_eta=1.0, prior_noise=0.0))
        assert np.array_equal(ds.prior_b, ds.disorder_flags.astype(float))

    def test_equal_scales_remove_group_gap(self):
        """With matched noise scales the two disorder groups draw target_y
        from the same distribution; compare group means over seeds."""
        diffs = []
        for seed in range(20):
            ds = datagen.gen_chain_dataset(_cfg(
                ordered_noise_scale=0.8, disordered_noise_scale=0.8, seed=seed))
            if ds.disorder_flags.any() and (~ds.disorder_flags).any():
                diffs.append(ds.target_y[ds.disorder_flags].mean()
                             - ds.target_y[~ds.disorder_flags].mean())
        assert abs(np.median(diffs)) < 0.15

    def test_disordered_targets_larger(self):
        wins = 0
        for seed in range(30):
            ds = datagen.gen_chain_dataset(_cfg(seed=seed))
            if ds.target_y[ds.disorder_flags].mean() > ds.target_y[~ds.disorder_flags].mean():
                wins += 1
        assert wins >= 29

    def test_stochastic_dominance_eta_one(self):
        """Ordered-segment error CDF dominates the disordered one."""
        ds = datagen.gen_chain_dataset(_cfg(n_chains=30, seed=3))
        qs = np.linspace(0.01, 0.99, 100)
        ordered = np.quantile(ds.target_y[~ds.disorder_flags], qs)
        disordered = np.quantile(ds.target_y[ds.disorder_flags], qs)
        assert np.mean(ordered <= disordered) > 0.95

    def test_split_fractions(self):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=10))
        counts = {t: len(ds.split_indices(t)) for t in ("train", "calibration", "test")}
        assert counts == {"train": 180, "calibration": 60, "test": 60}

    def test_validates(self):
        ds = datagen.gen_chain_dataset(_cfg())
        ds.validate()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_chains=0).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(ordered_noise_scale=2.0, disordered_noise_scale=1.0).validate()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise scales must be positive finite"):
                GeneratorConfig(ordered_noise_scale=bad).validate()
        # more feature entries than MAX_FEATURE_ENTRIES: refused before drawing
        with pytest.raises(ValueError, match="MAX_FEATURE_ENTRIES"):
            GeneratorConfig(n_chains=10**12).validate()
        at_bound = datagen.MAX_FEATURE_ENTRIES // (40 * 16)
        assert at_bound * 40 * 16 == datagen.MAX_FEATURE_ENTRIES
        GeneratorConfig(n_chains=at_bound).validate()
        with pytest.raises(ValueError, match="MAX_FEATURE_ENTRIES"):
            GeneratorConfig(n_chains=at_bound + 1).validate()

    @pytest.mark.xfail(
        strict=True,
        reason="_chain_features takes steps and curvature over all chains end "
        "to end, across the seams between them, and column 7 from the centroid "
        "of all chains; making them chain-local changes every artifact")
    def test_geometry_features_are_chain_local(self):
        """Columns 0-2 (step forward, step back, curvature) and 7 (distance
        from the centroid) of each chain are those of the chain alone: 0
        past either end of it.  On 4x10 at seed 0, node 9 (the end of chain
        0) reads a forward step of 7.26 to node 10."""
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, chain_length=10, seed=0))
        for c in range(4):
            rows = np.flatnonzero(ds.chain_ids == c)
            p = ds.chain_coords[rows]
            step = np.linalg.norm(np.diff(p, axis=0), axis=1)
            curv = np.linalg.norm(np.diff(p, n=2, axis=0), axis=1)
            alone = np.column_stack([np.r_[step, 0.0], np.r_[0.0, step], np.r_[0.0, curv, 0.0],
                                     np.linalg.norm(p - p.mean(axis=0), axis=1)])
            np.testing.assert_allclose(ds.features[rows][:, [0, 1, 2, 7]], alone,
                                       rtol=1e-12, atol=1e-12)


class TestPerturb:
    def test_tiny_gaussian_is_near_identity(self, small_chain_ds):
        out = datagen.perturb(small_chain_ds, "gaussian", 1e-13, seed=0)
        assert np.allclose(out.target_y, small_chain_ds.target_y, atol=1e-12)

    def test_block_rotate_is_local(self, small_chain_ds):
        out = datagen.perturb(small_chain_ds, "block_rotate", 0.7, seed=1)
        changed = ~np.isclose(out.target_y, small_chain_ds.target_y, atol=1e-9)
        # exactly one contiguous block of one chain moves
        assert 0 < changed.sum() < small_chain_ds.n_nodes / 2

    def test_larger_sigma_larger_error(self):
        deltas = []
        for seed in range(50):
            ds = datagen.gen_chain_dataset(_cfg(n_chains=3, seed=seed))
            lo = datagen.perturb(ds, "gaussian", 0.5, seed=seed).target_y.mean()
            hi = datagen.perturb(ds, "gaussian", 1.0, seed=seed).target_y.mean()
            deltas.append(hi - lo)
        assert np.median(deltas) > 0

    def test_does_not_mutate_input(self, small_chain_ds):
        before = small_chain_ds.target_y.copy()
        datagen.perturb(small_chain_ds, "blur", 2.0, seed=0)
        assert np.array_equal(small_chain_ds.target_y, before)

    def test_all_kinds_run(self, small_chain_ds):
        for kind in PERTURB_KINDS:
            out = datagen.perturb(small_chain_ds, kind, 1.0, seed=2)
            out.validate()

    def test_errors(self, small_chain_ds):
        with pytest.raises(ValueError):
            datagen.perturb(small_chain_ds, "gaussian", 0.0)
        with pytest.raises(ValueError):
            datagen.perturb(small_chain_ds, "melt", 1.0)

    @pytest.mark.parametrize("kind", PERTURB_KINDS)
    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf, "2"])
    def test_magnitude_not_a_finite_number_rejected(self, small_chain_ds, kind, magnitude):
        with pytest.raises(ValueError, match="magnitude must be a finite number"):
            datagen.perturb(small_chain_ds, kind, magnitude)

    @pytest.mark.parametrize("magnitude", [0.2, 1.0, 2.0, 7.4, 250.0,
                                           datagen.MAX_SEGMENT_SWAPS])
    def test_segment_swap_matches_run_loop(self, small_chain_ds, magnitude):
        out = datagen.perturb(small_chain_ds, "segment_swap", magnitude, seed=3)
        expected = _segment_swap_loop(small_chain_ds, magnitude, seed=3)
        assert out.chain_coords.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("magnitude", [datagen.MAX_SEGMENT_SWAPS + 1, 1e6, 1e9, 1e300])
    def test_segment_swap_count_above_limit_rejected(self, small_chain_ds, magnitude):
        with pytest.raises(ValueError, match=f"limit of {datagen.MAX_SEGMENT_SWAPS} "):
            datagen.perturb(small_chain_ds, "segment_swap", magnitude)

    def test_blur_half_width_past_the_chains_is_one_window(self):
        """A blur window never leaves its chain, so every half-width from
        the chain length up gives the same coordinates, 1e300 included."""
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, chain_length=10, seed=0))
        whole = datagen.perturb(ds, "blur", 40.0).chain_coords.tobytes()
        for magnitude in (1e6, 1e300):
            assert datagen.perturb(ds, "blur", magnitude).chain_coords.tobytes() == whole

    def test_overflowing_magnitude_rejected_without_warnings(self, small_chain_ds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^gaussian perturbation of magnitude 1e\\+308 "
                                                 "gives non-finite coordinates or targets$"):
                datagen.perturb(small_chain_ds, "gaussian", 1e308)

    def test_blur_matches_window_loop(self, small_chain_ds):
        out = datagen.perturb(small_chain_ds, "blur", 2.0, seed=0)
        expected = _blur_loop(np.asarray(small_chain_ds.chain_coords),
                              small_chain_ds.chain_ids, 2)
        assert out.chain_coords.tobytes() == expected.tobytes()


def _blur_loop(coords, ids, half):
    """Reference: the per-chain, per-node loop `perturb` ran for "blur"."""
    out = np.array(coords)
    for c in np.unique(ids):
        idx = np.flatnonzero(ids == c)
        for k, i in enumerate(idx):
            lo = max(0, k - half)
            hi = min(idx.size, k + half + 1)
            out[i] = coords[idx[lo:hi]].mean(axis=0)
    return out


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.just(3)),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_row_norms_bitwise_match_linalg_norm(v):
    with np.errstate(over="ignore", invalid="ignore"):
        assert datagen._row_norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()


@st.composite
def _blur_case(draw):
    # chain lengths from 1, so single-node chains occur; labels are drawn
    # sparse and nodes shuffled, so chain ids are neither contiguous nor sorted
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    labels = draw(st.lists(st.integers(0, 1000), min_size=len(lengths),
                           max_size=len(lengths), unique=True))
    ids = np.repeat(np.array(labels), lengths)
    ids = ids[draw(st.permutations(range(ids.size)))] if draw(st.booleans()) else ids
    coords = draw(hnp.arrays(float, (ids.size, 3),
                             elements=st.floats(-1e6, 1e6, allow_subnormal=True)))
    # half-windows up to past the longest chain
    return coords, ids, draw(st.integers(1, 14))


@settings(max_examples=200, deadline=None)
@given(_blur_case())
def test_blur_bitwise_matches_window_loop(case):
    coords, ids, half = case
    assert datagen._blur(coords, ids, half).tobytes() == _blur_loop(coords, ids, half).tobytes()


def _rng_chain_features(pred_coords, target_y, onehots, feature_dim, rng):
    """Reference: the features as the generator built them when every call
    drew its own feature noise from rng."""
    n = pred_coords.shape[0]
    feats = np.zeros((n, feature_dim))
    step_fwd = np.zeros(n)
    step_fwd[:-1] = np.linalg.norm(np.diff(pred_coords, axis=0), axis=1)
    step_bwd = np.roll(step_fwd, 1)
    step_bwd[0] = 0.0
    curv = np.zeros(n)
    if n >= 3:
        v1 = pred_coords[1:-1] - pred_coords[:-2]
        v2 = pred_coords[2:] - pred_coords[1:-1]
        curv[1:-1] = np.linalg.norm(v2 - v1, axis=1)
    feats[:, 0] = step_fwd
    feats[:, 1] = step_bwd
    feats[:, 2] = curv
    for j, mask in enumerate(onehots):
        feats[:, 3 + j] = mask
    feats[:, 6] = target_y + 0.5 * rng.standard_normal(n)
    feats[:, 7] = np.linalg.norm(pred_coords - pred_coords.mean(axis=0), axis=1)
    if feature_dim > 8:
        feats[:, 8:] = rng.standard_normal((n, feature_dim - 8))
    return feats


def _fresh_features(ds):
    """ds's features rebuilt from its chain with a fresh draw of the feature
    noise from its config seed's stream (seed 0 without a config)."""
    seed = ds.metadata.get("config", {}).get("seed", 0)
    return _rng_chain_features(ds.chain_coords, ds.target_y,
                               [ds.group_tags == t for t in datagen.GROUP_TAGS],
                               ds.features.shape[1], rng_stream(seed, 5))


@pytest.fixture
def noise_draws(monkeypatch):
    """(n, feature_dim) of every draw of the generator's feature noise made
    while the test runs."""
    draws = []
    draw = datagen._feature_noise

    def counting(rng, n, feature_dim):
        draws.append((n, feature_dim))
        return draw(rng, n, feature_dim)

    monkeypatch.setattr(datagen, "_feature_noise", counting)
    return draws


class TestGeneratorNoise:
    """The generator draws its feature noise once per dataset's graph memo;
    the features are bitwise those of a fresh draw on every call."""

    @pytest.mark.parametrize("feature_dim", [8, 9, 10, 16])
    def test_generated_features_are_a_fresh_draw(self, feature_dim):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, feature_dim=feature_dim, seed=5))
        assert ds.features.tobytes() == _fresh_features(ds).tobytes()

    @pytest.mark.parametrize("feature_dim", [8, 9, 10])
    @pytest.mark.parametrize("gen_seed", [0, 3])
    def test_perturb_features_are_a_fresh_draw(self, feature_dim, gen_seed):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, feature_dim=feature_dim, seed=gen_seed))
        child = datagen.corrupt_priors(ds, "shuffle", seed=1)
        for source in (ds, child, datagen.perturb(ds, "blur", 1.0, seed=4)):
            for kind in PERTURB_KINDS:
                for seed, magnitude in ((0, 0.3), (2, 1.0), (7, 2.5)):
                    out = datagen.perturb(source, kind, magnitude, seed=seed)
                    assert out.features.tobytes() == _fresh_features(out).tobytes()

    def test_perturb_of_a_subset_without_config_is_a_fresh_draw(self, small_chain_ds):
        meta = {k: v for k, v in small_chain_ds.metadata.items() if k != "config"}
        ds = replace(small_chain_ds, metadata=meta)
        sub = ds.subset(ds.split_indices("test"))
        for kind in PERTURB_KINDS:
            out = datagen.perturb(sub, kind, 1.0, seed=3)
            assert out.features.tobytes() == _fresh_features(out).tobytes()

    def test_seven_perturbations_of_one_source_draw_once(self, noise_draws):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, feature_dim=10))
        assert noise_draws == [(120, 10)]
        series = [datagen.perturb(ds, "gaussian", m, seed=1) for m in (0.1, 0.25, 0.5, 1.0)]
        series += [datagen.perturb(ds, kind, 2.0, seed=1)
                   for kind in ("segment_swap", "block_rotate", "blur")]
        series.append(datagen.perturb(series[0], "blur", 1.0))
        series.append(datagen.perturb(datagen.corrupt_priors(ds, "invert"), "gaussian", 0.5))
        assert noise_draws == [(120, 10)] * 2
        for out in series:
            assert out.features.tobytes() == _fresh_features(out).tobytes()

    def test_a_dataset_naming_another_seed_draws_again(self, noise_draws):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=4, feature_dim=9))
        first = datagen.perturb(ds, "gaussian", 0.5, seed=1)
        meta = dict(ds.metadata, config=dict(ds.metadata["config"], seed=8))
        other = datagen.perturb(replace(ds, metadata=meta), "gaussian", 0.5, seed=1)
        assert noise_draws == [(120, 9)] * 3
        assert other.features.tobytes() == _fresh_features(other).tobytes()
        assert not np.array_equal(other.features, first.features)


class TestCorruptPriors:
    def test_invert_is_involution(self, small_chain_ds):
        twice = datagen.corrupt_priors(datagen.corrupt_priors(small_chain_ds, "invert"), "invert")
        # 1 - (1 - b) can differ from b by one ulp
        assert np.allclose(twice.prior_b, small_chain_ds.prior_b, atol=1e-15)

    def test_shuffle_preserves_multiset(self, small_chain_ds):
        out = datagen.corrupt_priors(small_chain_ds, "shuffle", seed=4)
        assert np.array_equal(np.sort(out.prior_b), np.sort(small_chain_ds.prior_b))

    def test_noise_stays_clipped(self, small_chain_ds):
        out = datagen.corrupt_priors(small_chain_ds, "noise", seed=4, sigma=0.2)
        assert out.prior_b.min() >= 0.0 and out.prior_b.max() <= 1.0

    def test_only_priors_change(self, small_chain_ds):
        out = datagen.corrupt_priors(small_chain_ds, "shuffle", seed=4)
        assert np.array_equal(out.target_y, small_chain_ds.target_y)
        assert np.array_equal(out.features, small_chain_ds.features)
        assert np.array_equal(out.splits, small_chain_ds.splits)

    def test_bad_mode(self, small_chain_ds):
        with pytest.raises(ValueError):
            datagen.corrupt_priors(small_chain_ds, "scramble")

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_bad_sigma(self, small_chain_ds, sigma):
        with pytest.raises(ValueError, match="sigma must be a nonnegative finite number"):
            datagen.corrupt_priors(small_chain_ds, "noise", sigma=sigma)


class TestSplit:
    def test_family_aware_chain_counts(self):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=10, chain_length=50))
        out = datagen.split(ds, (0.6, 0.2, 0.2), seed=1)
        by_tag = {}
        for t in ("train", "calibration", "test"):
            by_tag[t] = set(out.chain_ids[out.split_indices(t)].tolist())
        assert (len(by_tag["train"]), len(by_tag["calibration"]), len(by_tag["test"])) == (6, 2, 2)

    def test_family_aware_no_chain_straddles(self, small_chain_ds):
        out = datagen.split(small_chain_ds, (0.5, 0.25, 0.25), seed=2)
        for c in np.unique(out.chain_ids):
            tags = {out.splits[i] for i in np.flatnonzero(out.chain_ids == c)}
            assert len(tags) == 1

    def test_bad_fractions(self, small_chain_ds):
        with pytest.raises(ValueError):
            datagen.split(small_chain_ds, (0.5, 0.2, 0.2))


def _reference_save_dataset(ds, path):
    """The per-element writer save_dataset replaced: the byte reference."""
    meta = dict(ds.metadata)
    ref = ds.reference_coords
    doc = {
        "version": datagen.DATASET_VERSION,
        "nodes": [
            list(map(float, ds.features[i])) + [float(ds.prior_b[i]), float(ds.target_y[i]),
                                                ds.group_tags[i], bool(ds.disorder_flags[i])]
            for i in range(ds.n_nodes)
        ],
        "edges": [[int(a), int(b)] for a, b in ds.edges],
        "splits": list(ds.splits),
        "chain_coords": None if ds.chain_coords is None
        else [list(map(float, r)) for r in ds.chain_coords],
        "metadata": {
            **meta,
            "chain_ids": [int(c) for c in ds.chain_ids],
            "reference_coords": None if ref is None
            else [list(map(float, r)) for r in np.asarray(ref)],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _chain_dataset_without_coords(cfg):
    """A generated chain dataset with null chain_coords and reference_coords,
    as calpro-dataset/1 allows."""
    return replace(datagen.gen_chain_dataset(cfg), chain_coords=None, reference_coords=None)


@st.composite
def _round_trip_case(draw):
    """A small generated dataset as it comes, an induced subset of it, a
    perturbation of it, or it without coordinates."""
    cfg = GeneratorConfig(n_chains=draw(st.integers(1, 4)), chain_length=draw(st.integers(4, 15)),
                          feature_dim=draw(st.integers(8, 10)), seed=draw(st.integers(0, 2**16)))
    ds = datagen.gen_chain_dataset(cfg)
    variant = draw(st.sampled_from(("generated", "subset", "perturbed", "without_coords")))
    if variant == "subset":
        idx = draw(st.lists(st.integers(0, ds.n_nodes - 1), min_size=1, unique=True))
        return ds.subset(idx)
    if variant == "perturbed":
        return datagen.perturb(ds, draw(st.sampled_from(PERTURB_KINDS)),
                               draw(st.floats(0.05, 3.0)), seed=draw(st.integers(0, 99)))
    if variant == "without_coords":
        return _chain_dataset_without_coords(cfg)
    return ds


class TestRoundTrip:
    def test_save_load_identity(self, small_chain_ds, tmp_path):
        p = tmp_path / "ds.json"
        datagen.save_dataset(small_chain_ds, p)
        back = datagen.load_dataset(p)
        assert np.allclose(back.features, small_chain_ds.features)
        assert np.allclose(back.target_y, small_chain_ds.target_y)
        assert np.array_equal(back.group_tags, small_chain_ds.group_tags)
        assert np.array_equal(back.splits, small_chain_ds.splits)
        assert np.array_equal(back.edges, small_chain_ds.edges)
        assert np.array_equal(back.chain_ids, small_chain_ds.chain_ids)

    @settings(max_examples=60, deadline=None)
    @given(_round_trip_case())
    def test_save_load_every_field(self, ds):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "ds.json"
            datagen.save_dataset(ds, path)
            _assert_same_fields(datagen.load_dataset(path), ds)

    def test_truncated_file_names_offset(self, small_chain_ds, tmp_path):
        p = tmp_path / "ds.json"
        datagen.save_dataset(small_chain_ds, p)
        p.write_bytes(p.read_bytes()[:200])
        with pytest.raises(ValueError, match="byte offset"):
            datagen.load_dataset(p)

    @pytest.mark.parametrize("make", [datagen.gen_chain_dataset, _chain_dataset_without_coords])
    def test_bytes_match_reference_writer(self, make, tmp_path):
        ds = make(_cfg(seed=4))
        datagen.save_dataset(ds, tmp_path / "ds.json")
        _reference_save_dataset(ds, tmp_path / "ref.json")
        assert (tmp_path / "ds.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("column, value", [(-4, float("nan")), (-3, float("nan")),
                                               (-4, float("inf")), (-3, float("-inf"))],
                             ids=["prior_b_nan", "target_y_nan", "prior_b_inf", "target_y_inf"])
    def test_non_finite_value_rejected(self, small_chain_ds, tmp_path, column, value):
        """json.load reads NaN and Infinity, and NaN passes every range
        check; a loaded file with one in prior_b or target_y is refused."""
        p = tmp_path / "ds.json"
        datagen.save_dataset(small_chain_ds, p)
        doc = json.loads(p.read_text())
        doc["nodes"][3][column] = value     # a row ends prior_b, target_y, tag, flag
        p.write_text(json.dumps(doc))
        name = "prior_b" if column == -4 else "target_y"
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            datagen.load_dataset(p)

    @pytest.mark.parametrize("where, value, message", [
        (("nodes", 1, -2), 7, "group tags must be strings"),
        (("metadata", "chain_ids", 1), True, "chain_ids must be integers"),
        (("edges", 1, 0), True, "edges must be [i, j] pairs of integers"),
        (("nodes", 1, 0), True, "node features must be numbers"),
        (("nodes", 1, -4), True, "prior_b must be numbers"),
    ], ids=["integer_tag", "true_chain_id", "true_edge_index", "true_feature", "true_prior_b"])
    def test_value_of_another_json_kind_rejected(self, tmp_path, where, value, message):
        """One value numpy would read into its column's kind ("7", 1 or 1.0)
        among the others: the file is refused with the column's message."""
        p = tmp_path / "ds.json"
        datagen.save_dataset(datagen.gen_chain_dataset(_cfg(n_chains=3, chain_length=6)), p)
        doc = json.loads(p.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            datagen.load_dataset(p)
        assert str(exc.value) == message

    def test_version_mismatch(self, small_chain_ds, tmp_path):
        p = tmp_path / "ds.json"
        datagen.save_dataset(small_chain_ds, p)
        doc = json.loads(p.read_text())
        doc["version"] = "calpro-dataset/99"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            datagen.load_dataset(p)


def _build_edges_reference(ds, window, radius):
    """build_edges by its docstring, from the two pair sources as they come
    (query_pairs as a set) and the np.unique(axis=0) canonicalization: the
    chain window, every same-chain pair at an infinite radius, and the
    pairs within a finite positive radius."""
    n = ds.n_nodes
    pairs = [datagen._chain_window_pairs(ds.chain_ids, n if math.isinf(radius) else window)]
    if 0 < radius < math.inf:
        spatial = cKDTree(ds.chain_coords).query_pairs(radius, output_type="set")
        pairs.append(np.array(sorted(spatial), dtype=int).reshape(-1, 2))
    return _dedupe_edges_unique(np.concatenate(pairs))


@st.composite
def _spatial_graph(draw):
    """A graph of 0-40 nodes on 1-4 chains (one chain about a quarter of
    the time), coordinates on a coarse grid so that points coincide and
    spatial pairs repeat chain-window pairs, a window, and a radius: 0,
    infinite, or finite and positive."""
    n = draw(st.integers(0, 40))
    n_chains = draw(st.sampled_from((1, 1, 2, 4)))
    chain_ids = draw(st.lists(st.integers(0, n_chains - 1), min_size=n, max_size=n))
    ds = _graph(sorted(chain_ids) if draw(st.booleans()) else chain_ids, ())
    coords = draw(hnp.arrays(float, (n, 3), elements=st.integers(-3, 3).map(float)))
    radius = draw(st.one_of(st.sampled_from((0.0, math.inf)), st.floats(0.1, 6.0)))
    return replace(ds, chain_coords=coords), draw(st.integers(1, 6)), radius


class TestBuildEdges:
    def test_path_graph(self, small_chain_ds):
        out = datagen.build_edges(small_chain_ds, chain_window=1, spatial_radius=0.0)
        n_chains = np.unique(small_chain_ds.chain_ids).size
        assert out.edges.shape[0] == small_chain_ds.n_nodes - n_chains
        assert np.all(out.edges[:, 1] - out.edges[:, 0] == 1)

    def test_infinite_radius_complete_per_chain(self):
        ds = datagen.gen_chain_dataset(_cfg(n_chains=2, chain_length=10))
        out = datagen.build_edges(ds, chain_window=1, spatial_radius=float("inf"))
        assert out.edges.shape[0] == 2 * (10 * 9 // 2)

    def test_default_degree(self, default_chain_ds):
        deg = np.zeros(default_chain_ds.n_nodes, dtype=int)
        for a, b in default_chain_ds.edges:
            deg[a] += 1
            deg[b] += 1
        assert deg.min() >= 2

    def test_bad_args(self, small_chain_ds):
        with pytest.raises(ValueError):
            datagen.build_edges(small_chain_ds, chain_window=0)

    @pytest.mark.parametrize("radius", [float("nan"), -0.5, -math.inf])
    def test_nan_or_negative_radius_refused(self, small_chain_ds, radius):
        """NaN fails every comparison, so a `radius < 0` test would let it
        through to chain-window edges only."""
        with pytest.raises(ValueError, match="spatial_radius >= 0"):
            datagen.build_edges(small_chain_ds, spatial_radius=radius)

    @settings(max_examples=300, deadline=None)
    @given(_spatial_graph())
    def test_matches_both_pair_sources_deduplicated(self, case):
        ds, window, radius = case
        out = datagen.build_edges(ds, chain_window=window, spatial_radius=radius)
        expected = _build_edges_reference(ds, window, radius)
        assert out.edges.dtype == expected.dtype and out.edges.shape == expected.shape
        assert out.edges.flags.c_contiguous and out.edges.tobytes() == expected.tobytes()


def test_generators_deterministic():
    a = datagen.gen_chain_dataset(_cfg(seed=9))
    b = datagen.gen_chain_dataset(_cfg(seed=9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.target_y, b.target_y)
    assert np.array_equal(a.splits, b.splits)


# sha256 of GeneratorConfig(seed=0)'s edges.tobytes(), recorded before
# build_edges and _dedupe_edges became index arithmetic
DEFAULT_EDGES_SHA256 = "538de0555d897465d6f42d86ea092b1f4410c76c05288dfa228e6e26047fcbaa"


def test_default_edges_pinned(default_chain_ds):
    edges = default_chain_ds.edges
    assert edges.shape == (5361, 2) and edges.dtype == np.int64
    assert hashlib.sha256(edges.tobytes()).hexdigest() == DEFAULT_EDGES_SHA256


# sha256 of GeneratorConfig(n_chains=100, chain_length=100, seed=0)'s
# edges.tobytes(), the benchmark's shift_eval graph, recorded before
# build_edges turned each pair source straight into keys
SHIFT_EVAL_EDGES_SHA256 = "20ed3a929f1ab90fd117adf88072f440971ec9369284d4e4374cf66659932281"


@pytest.fixture(scope="module")
def shift_eval_ds():
    return datagen.gen_chain_dataset(GeneratorConfig(n_chains=100, chain_length=100, seed=0))


def test_shift_eval_edges_pinned(shift_eval_ds):
    edges = shift_eval_ds.edges
    assert edges.shape == (347350, 2) and edges.dtype == np.int64
    assert hashlib.sha256(edges.tobytes()).hexdigest() == SHIFT_EVAL_EDGES_SHA256


def _traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEdgeMemory:
    """Edge lists are built and cut without full-size temporaries: on the
    100x100 graph build_edges peaks at about 1.5 times the edge array it
    builds (4.8 times when it kept its pair arrays), and the test split's
    subset at about 0.3 times its parent's edges (1.2 times when it
    relabeled every row)."""

    def test_build_edges_peak(self, shift_eval_ds):
        bare = replace(shift_eval_ds, edges=np.zeros((0, 2), dtype=int))
        out, peak = _traced_peak(lambda: datagen.build_edges(bare))
        assert out.edges.shape == shift_eval_ds.edges.shape
        assert peak <= 2 * out.edges.nbytes

    def test_subset_peak(self, shift_eval_ds):
        # a dataset of its own, so no live sub-dataset lends its edges
        ds = replace(shift_eval_ds)
        idx = ds.split_indices("test")
        sub, peak = _traced_peak(lambda: ds.subset(idx))
        assert sub.edges.shape[0] > 0
        assert peak <= ds.edges.nbytes // 2


def _graph(chain_ids, edges, splits=None, group_tags=None):
    """Minimal Dataset over the given chain ids: per-node values that tell
    every node apart, the given edge rows, all-train splits and all
    loop-analog tags by default."""
    chain_ids = np.asarray(chain_ids, dtype=int)
    n = chain_ids.size
    node = np.arange(n, dtype=float)
    return Dataset(features=np.arange(8.0 * n).reshape(n, 8), prior_b=node / max(n, 1),
                   target_y=node + 0.5, disorder_flags=node % 2 == 1,
                   group_tags=tuple(group_tags) if group_tags is not None
                   else ("loop-analog",) * n,
                   edges=np.asarray(edges, dtype=int).reshape(-1, 2),
                   splits=tuple(splits) if splits is not None else ("train",) * n,
                   chain_coords=-np.arange(3.0 * n).reshape(n, 3), chain_ids=chain_ids,
                   reference_coords=np.arange(3.0 * n).reshape(n, 3) + 0.25,
                   metadata={"generator": "chain"})


def _subset_loop(ds, idx):
    """Reference: the whole sub-dataset as Dataset.subset used to build it,
    with the per-edge loop and per-node generator expressions."""
    return Dataset(
        features=ds.features[idx], prior_b=ds.prior_b[idx], target_y=ds.target_y[idx],
        group_tags=tuple(ds.group_tags[i] for i in idx),
        disorder_flags=ds.disorder_flags[idx], edges=_subset_edges_loop(ds, idx),
        splits=tuple(ds.splits[i] for i in idx),
        chain_coords=None if ds.chain_coords is None else ds.chain_coords[idx],
        chain_ids=ds.chain_ids[idx],
        reference_coords=None if ds.reference_coords is None else ds.reference_coords[idx],
        metadata=dict(ds.metadata))


def _loop_runs_loop(ds):
    """Reference: the per-node loop perturb's segment_swap used to find its
    loop runs."""
    runs = []
    cur = []
    for i in range(ds.n_nodes):
        if ds.group_tags[i] == "loop-analog" and (not cur or (ds.chain_ids[i] == ds.chain_ids[cur[-1]] and i == cur[-1] + 1)):
            cur.append(i)
        else:
            if len(cur) >= 3:
                runs.append(np.array(cur))
            cur = [i] if ds.group_tags[i] == "loop-analog" else []
    if len(cur) >= 3:
        runs.append(np.array(cur))
    return runs


def _segment_swap_loop(ds, magnitude, seed):
    """Reference: the chain coordinates perturb's segment_swap produced with
    the per-node run loop."""
    rng = rng_stream(seed, 2)
    coords = np.array(ds.chain_coords)
    runs = _loop_runs_loop(ds)
    for _ in range(max(1, int(round(magnitude)))):
        if len(runs) < 2:
            break
        i, j = rng.choice(len(runs), size=2, replace=False)
        a, b = runs[i], runs[j]
        L = min(len(a), len(b))
        a, b = a[:L], b[:L]
        coords[a], coords[b] = coords[b].copy(), coords[a].copy()
    return coords


def _subset_edges_loop(ds, idx):
    """Reference: the per-edge loop Dataset.subset used to run."""
    pos = -np.ones(ds.n_nodes, dtype=int)
    pos[idx] = np.arange(idx.size)
    keep = []
    if ds.edges.size:
        for a, b in ds.edges:
            if pos[a] >= 0 and pos[b] >= 0:
                keep.append((pos[a], pos[b]))
    return np.array(keep, dtype=int).reshape(-1, 2)


def _dedupe_edges_unique(pairs):
    """Reference: pairs as sorted unique (i, j) rows with i < j, by np.unique(axis=0)."""
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=int)
    arr = np.sort(np.asarray(pairs, dtype=int), axis=1)
    arr = arr[arr[:, 0] != arr[:, 1]]
    return np.unique(arr, axis=0)


def _chain_window_brute_force(chain_ids, window):
    """Every (a, b), a < b, in one chain with at most window - 1 chain
    members between them, in lexicographic order."""
    rank = {}
    for c in set(chain_ids.tolist()):
        for r, i in enumerate(np.flatnonzero(chain_ids == c)):
            rank[int(i)] = r
    n = chain_ids.size
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if chain_ids[a] == chain_ids[b] and rank[b] - rank[a] <= window]
    return np.array(pairs, dtype=int).reshape(-1, 2)


def _assert_same_fields(a, b):
    """Every field of a equals b's: arrays in dtype, shape and values; string
    arrays in shape and values, whatever width their dtype has."""
    def same(x, y):
        if isinstance(x, dict):
            return isinstance(y, dict) and x.keys() == y.keys() and all(
                same(x[k], y[k]) for k in x)
        if isinstance(x, np.ndarray):
            return (isinstance(y, np.ndarray)
                    and (x.dtype == y.dtype or x.dtype.kind == y.dtype.kind == "U")
                    and np.array_equal(x, y))
        return type(x) is type(y) and x == y

    for f in fields(Dataset):
        assert same(getattr(a, f.name), getattr(b, f.name)), f.name


def _tags_and_chains(draw, n):
    """n group tags, loop-analog about half the time so that loop runs
    occur, and n chain ids: sorted into contiguous chains, or drawn per node."""
    tags = draw(st.lists(st.sampled_from(datagen.GROUP_TAGS + ("loop-analog",) * 2),
                         min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return tags, sorted(ids) if draw(st.booleans()) else ids


@st.composite
def _graph_and_index(draw):
    n = draw(st.integers(0, 30))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=80)) if n else []
    splits = draw(st.lists(st.sampled_from(("train", "calibration", "test")),
                           min_size=n, max_size=n))
    tags, chain_ids = _tags_and_chains(draw, n)
    idx = draw(st.lists(node, unique=True, max_size=n)) if n else []
    return _graph(chain_ids, edges, splits, tags), np.array(idx, dtype=int)


@st.composite
def _tagged_graph(draw):
    tags, chain_ids = _tags_and_chains(draw, draw(st.integers(0, 40)))
    return _graph(chain_ids, (), group_tags=tags)


class TestVectorizedDataPlane:
    """The index-arithmetic data plane against the loops it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_graph_and_index())
    def test_subset_matches_edge_loop(self, case):
        ds, idx = case
        sub = ds.subset(idx)
        _assert_same_fields(sub, _subset_loop(ds, idx))
        # relabeled rows name the same original edges, in the same order
        kept = [(a, b) for a, b in ds.edges.tolist() if a in idx and b in idx]
        assert idx[sub.edges].tolist() == [list(e) for e in kept]

    @pytest.mark.parametrize("idx", [[], [7], [3, 0, 9, 4], [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]],
                             ids=["empty", "one", "unsorted", "reversed"])
    def test_subset_edge_cases(self, idx):
        ds = _graph([0, 0, 0, 1, 1, 1, 1, 2, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 9), (4, 0)],
                    splits=["train", "test", "calibration"] * 3 + ["test"],
                    group_tags=datagen.GROUP_TAGS * 3 + ("loop-analog",))
        idx = np.array(idx, dtype=int)
        _assert_same_fields(ds.subset(idx), _subset_loop(ds, idx))

    @settings(max_examples=300, deadline=None)
    @given(_tagged_graph())
    def test_loop_runs_match_node_loop(self, ds):
        got = datagen._loop_runs(ds)
        expected = _loop_runs_loop(ds)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_graph_and_index(), st.integers(0, 2**31 - 1))
    def test_subset_of_every_node_is_the_same_dataset(self, case, seed):
        """The trainer uses a dataset itself for a batch of all its nodes."""
        ds, _ = case
        rng = rng_stream(seed, 0)
        ds = replace(ds, features=rng.standard_normal(ds.features.shape),
                     chain_coords=rng.standard_normal((ds.n_nodes, 3)),
                     reference_coords=rng.standard_normal((ds.n_nodes, 3)),
                     metadata={"config": {"seed": seed}})
        _assert_same_fields(ds.subset(np.arange(ds.n_nodes)), ds)

    @settings(max_examples=100, deadline=None)
    @given(_graph_and_index())
    def test_split_indices_matches_loop(self, case):
        ds, _ = case
        for tag in ("train", "calibration", "test"):
            expected = np.array([i for i, t in enumerate(ds.splits) if t == tag], dtype=int)
            got = ds.split_indices(tag)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=40), st.integers(1, 8))
    def test_chain_window_edges_brute_force(self, chain_ids, window):
        ds = _graph(chain_ids, edges=())
        out = datagen.build_edges(ds, chain_window=window, spatial_radius=0.0)
        expected = _chain_window_brute_force(ds.chain_ids, window)
        assert out.edges.dtype == expected.dtype and np.array_equal(out.edges, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=40))
    def test_infinite_radius_is_every_same_chain_pair(self, chain_ids):
        ds = _graph(chain_ids, edges=())
        out = datagen.build_edges(ds, chain_window=1, spatial_radius=float("inf"))
        assert np.array_equal(out.edges, _chain_window_brute_force(ds.chain_ids, ds.n_nodes))



@st.composite
def _held_subset_case(draw):
    """A graph of at least one node, an index into it, and a perturbation of
    the graph's node values."""
    ds, idx = draw(_graph_and_index().filter(lambda case: case[0].n_nodes > 0))
    kind = draw(st.sampled_from(("gaussian", "segment_swap", "blur")))
    return ds, idx, kind, draw(st.floats(0.05, 3.0)), draw(st.integers(0, 99))


class TestGraphMemo:
    """Structure-only values are built once per graph and shared by the
    derivations that change node values alone."""

    @settings(max_examples=150, deadline=None)
    @given(_held_subset_case())
    def test_subset_of_a_perturbation_beside_a_held_subset(self, case):
        ds, idx, kind, magnitude, seed = case
        held = ds.subset(idx)
        pert = datagen.perturb(ds, kind, magnitude, seed=seed)
        sub = pert.subset(idx)
        _assert_same_fields(sub, _subset_loop(pert, idx))
        assert sub.edges is held.edges

    @pytest.mark.parametrize("idx", [[], [7], [3, 0, 9, 4]], ids=["empty", "one", "unsorted"])
    def test_held_subset_edge_cases(self, idx):
        ds = _graph([0, 0, 0, 1, 1, 1, 1, 2, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 9), (4, 0)],
                    splits=["train", "test", "calibration"] * 3 + ["test"],
                    group_tags=datagen.GROUP_TAGS * 3 + ("loop-analog",))
        idx = np.array(idx, dtype=int)
        held = ds.subset(idx)
        for derived in (datagen.perturb(ds, "gaussian", 0.5, seed=1),
                        datagen.corrupt_priors(ds, "invert")):
            sub = derived.subset(idx)
            _assert_same_fields(sub, _subset_loop(derived, idx))
            assert sub.edges is held.edges

    def test_registry_holds_subsets_weakly(self, small_chain_ds):
        ds = replace(small_chain_ds)
        idx = ds.split_indices("test")
        children = datagen._graph_memo(ds).children
        child = ds.subset(idx)
        assert list(children.values()) == [child]
        del child
        gc.collect()
        assert len(children) == 0
        again = datagen.perturb(ds, "gaussian", 0.5).subset(idx)    # scans again
        assert list(children.values()) == [again]
        _assert_same_fields(again, _subset_loop(datagen.perturb(ds, "gaussian", 0.5), idx))

    def test_split_indices_shared_by_value_derivations(self, small_chain_ds):
        ds = replace(small_chain_ds)
        test = ds.split_indices("test")
        assert np.array_equal(datagen.perturb(ds, "blur", 2.0).split_indices("test"), test)
        assert np.array_equal(datagen.corrupt_priors(ds, "shuffle").split_indices("test"), test)

    def test_new_splits_get_fresh_split_indices(self, small_chain_ds):
        pert = datagen.perturb(replace(small_chain_ds), "gaussian", 0.5)
        stale = pert.split_indices("test")
        retagged = replace(pert, splits=("test",) * pert.n_nodes)
        assert np.array_equal(retagged.split_indices("test"), np.arange(pert.n_nodes))
        resplit = datagen.split(pert, (0.2, 0.2, 0.6), seed=5)
        expected = np.array([i for i, t in enumerate(resplit.splits) if t == "test"])
        assert np.array_equal(resplit.split_indices("test"), expected)
        assert not np.array_equal(expected, stale)

    def test_pickles_its_fields_only(self, small_chain_ds, random_head):
        """Whatever head.forward keeps on a dataset, by inference or by
        training, stays with the sender."""
        ds = replace(small_chain_ds)
        head.forward(random_head, ds)
        head.forward(random_head, ds, with_cache=True)
        back = pickle.loads(pickle.dumps(ds))
        assert set(back.__dict__) == {f.name for f in fields(datagen.Dataset)}
        _assert_same_fields(back, ds)

    def test_pickles_without_its_graph_memo(self, small_chain_ds):
        ds = replace(small_chain_ds)
        held = ds.subset(ds.split_indices("test"))
        back = pickle.loads(pickle.dumps(ds))
        _assert_same_fields(back, ds)
        assert "_graph" not in back.__dict__
        assert back.subset(back.split_indices("test")).edges is not held.edges

    def test_perturb_rejects_a_split_subset(self, small_chain_ds):
        """Features are redrawn from the generator's noise stream, which only
        lines up with the generator's own node set."""
        sub = small_chain_ds.subset(small_chain_ds.split_indices("test"))
        with pytest.raises(ValueError, match="whole node set in generator order"):
            datagen.perturb(sub, "gaussian", 1e-13)

    def test_perturb_rejects_chains_out_of_generator_order(self, small_chain_ds):
        ds = small_chain_ds
        reordered = ds.subset(np.argsort(-ds.chain_ids, kind="stable"))
        with pytest.raises(ValueError, match="whole node set in generator order"):
            datagen.perturb(reordered, "gaussian", 1e-13)

    def test_perturb_of_a_subset_without_config_runs(self, small_chain_ds):
        meta = {k: v for k, v in small_chain_ds.metadata.items() if k != "config"}
        ds = replace(small_chain_ds, metadata=meta)
        sub = ds.subset(ds.split_indices("test"))
        assert datagen.perturb(sub, "gaussian", 0.5).n_nodes == sub.n_nodes


def test_subset_preserves_structure(small_chain_ds):
    idx = small_chain_ds.split_indices("test")
    sub = small_chain_ds.subset(idx)
    assert sub.n_nodes == idx.size
    sub.validate()
    assert np.array_equal(sub.target_y, small_chain_ds.target_y[idx])


def test_subset_of_every_node_generated(small_chain_ds):
    tr = small_chain_ds.subset(small_chain_ds.split_indices("train"))
    _assert_same_fields(tr.subset(np.arange(tr.n_nodes)), tr)
    _assert_same_fields(small_chain_ds.subset(np.arange(small_chain_ds.n_nodes)),
                        small_chain_ds)
