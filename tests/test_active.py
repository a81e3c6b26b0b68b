import numpy as np
import pytest

from calpro import active, datagen, trainer


def _pool(seed=0, n_chains=8):
    return datagen.gen_chain_dataset(
        datagen.GeneratorConfig(n_chains=n_chains, chain_length=30, seed=seed))


def _cfg(**kw):
    base = dict(seed_set_size=30, batch_size=8, rounds=2, strategy="calpro_width",
                retrain=trainer.TrainConfig(learning_rate=3e-3, batch_size=4,
                                            max_epochs=8, patience=4),
                seed=0)
    base.update(kw)
    return active.ActiveConfig(**base)


class TestRunActive:
    def test_zero_rounds_seed_metrics_only(self):
        curve = active.run_active(_pool(), _cfg(rounds=0))
        assert len(curve.rounds) == 1
        assert len(curve.rounds[0]["queried"]) == 30

    def test_deterministic(self):
        curves = [active.run_active(_pool(seed=1), _cfg(strategy="random", seed=3))
                  for _ in range(2)]
        assert curves[0].to_dict() == curves[1].to_dict()

    def test_queried_sets_grow_and_stay_disjoint(self):
        pool = _pool(seed=2)
        curve = active.run_active(pool, _cfg(rounds=3))
        sizes = [len(r["queried"]) for r in curve.rounds]
        assert sizes == [30, 38, 46, 54]
        for prev, cur in zip(curve.rounds, curve.rounds[1:]):
            assert set(prev["queried"]) <= set(cur["queried"])
        final = curve.rounds[-1]["queried"]
        assert len(final) == len(set(final))              # no repeats
        test_ids = set(pool.split_indices("test").tolist())
        assert not (set(final) & test_ids)                # held-out respected

    def test_best_found_nondecreasing(self):
        curve = active.run_active(_pool(seed=3), _cfg(rounds=3, strategy="epistemic_var"))
        best = [r["best_found"] for r in curve.rounds]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_budget_check(self):
        with pytest.raises(ValueError, match="budget"):
            active.run_active(_pool(seed=0, n_chains=2), _cfg(rounds=50))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            _cfg(strategy="oracle").validate()


class TestQueriesToTop:
    def test_inf_when_never_reached(self):
        pool = _pool(seed=4)
        curve = active.run_active(pool, _cfg(rounds=0))
        assert active.queries_to_top_fraction(curve, pool) == float("inf")

    def test_counts_acquired_only(self):
        pool = _pool(seed=5)
        curve = active.run_active(pool, _cfg(rounds=3))
        q = active.queries_to_top_fraction(curve, pool, fraction=0.5)
        assert q == float("inf") or q <= 3 * 8


class TestCompareStrategies:
    def test_identical_strategy_identical_medians(self):
        pool = _pool(seed=6)
        cfg = _cfg(strategy="random")
        out = active.compare_strategies(pool, [cfg], seeds=[0, 1])
        table = out["strategies"]["random"]
        out2 = active.compare_strategies(pool, [cfg], seeds=[0, 1])
        assert out == out2

    def test_single_seed_bands_collapse(self):
        pool = _pool(seed=7)
        out = active.compare_strategies(pool, [_cfg(strategy="random")], seeds=[2])
        for row in out["strategies"]["random"]["rounds"].values():
            assert row["best_found_q25"] == row["best_found_median"] == row["best_found_q75"]

    def test_mismatched_budgets_rejected(self):
        pool = _pool(seed=8)
        with pytest.raises(ValueError, match="budget"):
            active.compare_strategies(pool, [_cfg(), _cfg(rounds=1)], seeds=[0])

    def test_repeated_strategy_rejected_before_any_loop(self, monkeypatch):
        def refuse(pool, cfg):
            raise AssertionError("an active loop ran")

        monkeypatch.setattr(active, "run_active", refuse)
        with pytest.raises(ValueError, match=r"^strategies must not repeat an entry, got "
                                             r"\['random', 'calpro_width', 'random'\]$"):
            active.compare_strategies(
                _pool(), [_cfg(strategy=s) for s in ("random", "calpro_width", "random")],
                seeds=[0])

    @pytest.mark.parametrize("configs, message", [
        ([_cfg(strategy="random"), _cfg(strategy="bogus")], "unknown strategy 'bogus'"),
        # 200 + 8 * 2 labels from the pool's 210 selectable nodes
        ([_cfg(strategy=s, seed_set_size=200) for s in ("random", "calpro_width")],
         "budget exceeds pool size"),
    ], ids=["strategy", "budget"])
    def test_every_config_checked_before_any_loop(self, monkeypatch, configs, message):
        calls = []
        monkeypatch.setattr(active, "run_active", lambda pool, cfg: calls.append(cfg))
        with pytest.raises(ValueError, match=message):
            active.compare_strategies(_pool(), configs, seeds=[0, 1])
        assert calls == []

    def test_ordering_emitted(self):
        pool = _pool(seed=9)
        out = active.compare_strategies(
            pool, [_cfg(strategy="calpro_width"), _cfg(strategy="random")], seeds=[0])
        assert set(out["ordering"]) == {"calpro_width", "random"}
