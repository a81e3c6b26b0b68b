"""Spans and counters around calls into calpro's public functions.

The tracer patches each function under the name its caller looks it up by
(a module attribute, an imported name or a method), records one span per
call (name, start, end, parent) in memory, and restores the originals on
exit.  Nothing inside calpro changes; all spans sit at layer boundaries as
seen from outside.
"""

import time
from collections import Counter, defaultdict

from calpro import bounds, cli, conformal, datagen, experiments, head, metrics, objective, trainer

# (owner, attribute, span name).  The span name is the defining module and
# function; the owner is where the caller finds it.
HOOKS = (
    (datagen, "gen_chain_dataset", "datagen.gen_chain_dataset"),
    (datagen, "build_edges", "datagen.build_edges"),
    (datagen.Dataset, "subset", "datagen.subset"),
    (datagen, "save_dataset", "datagen.save_dataset"),
    (datagen, "perturb", "datagen.perturb"),
    (trainer, "total_loss", "objective.total_loss"),
    (objective, "nig_nll", "objective.nig_nll"),
    (objective, "prior_penalty", "objective.prior_penalty"),
    (objective, "soft_conf_loss", "objective.soft_conf_loss"),
    (trainer, "train", "trainer.train"),
    (trainer, "validation_ece", "trainer.validation_ece"),
    (head, "forward", "head.forward"),
    (head, "mean_adjacency", "head.mean_adjacency"),
    (head, "backward", "head.backward"),
    (conformal, "calibrate", "conformal.calibrate"),
    (conformal, "intervals", "conformal.intervals"),
    (metrics, "full_report", "metrics.full_report"),
    (metrics, "ece", "metrics.ece"),
    (metrics, "ace", "metrics.ace"),
    (metrics, "spearman", "numerics.spearman"),
    (experiments, "spearman", "numerics.spearman"),
    (bounds, "estimate_lipschitz", "bounds.estimate_lipschitz"),
    (bounds, "choose_posterior_scale", "bounds.choose_posterior_scale"),
    (bounds, "ncal_sweep", "bounds.ncal_sweep"),
    (bounds, "bound_vs_empirical_sweep", "bounds.bound_vs_empirical_sweep"),
    (experiments, "train_config_run", "experiments.train_config_run"),
    (experiments, "run_calibration_experiment", "experiments.run_calibration_experiment"),
    (cli, "main", "cli.main"),
)

LAYERS = ("numerics", "datagen", "head", "objective", "trainer", "conformal", "metrics",
          "bounds", "experiments", "cli")


def _count_subset(tr, args, kwargs, result):
    tr.counts["datagen.subset.calls"] += 1
    tr.counts["datagen.subset.edges_scanned"] += int(args[0].edges.shape[0])
    tr.counts["datagen.subset.edges_kept"] += int(result.edges.shape[0])


def _count_build_edges(tr, args, kwargs, result):
    tr.counts["datagen.build_edges.edges"] += int(result.edges.shape[0])


def _count_forward(tr, args, kwargs, result):
    params, ds = args[0], args[1]
    tr.counts["head.forward.calls"] += 1
    tr.counts["head.forward.nodes"] += int(ds.n_nodes)
    # hold both objects so their ids cannot be reused while tracing
    tr.forward_pairs[(id(params), id(ds))] = (params, ds)


def _count_calls(key):
    def count(tr, args, kwargs, result):
        tr.counts[key] += 1
    return count


def _pair_counting_kdtree(tr):
    """The k-d tree bounds.estimate_lipschitz builds, counting the k-NN
    pairs each query returns: the pairs its per-pair loop then walks."""
    class PairCountingKDTree(bounds.cKDTree):
        def query(self, x, k=1, **kwargs):
            dist, nn = super().query(x, k=k, **kwargs)
            # column 0 is each point itself; the loop skips it
            tr.counts["bounds.estimate_lipschitz.pairs"] += nn.shape[0] * (nn.shape[1] - 1)
            return dist, nn
    return PairCountingKDTree


def _count_train_config_run(tr, args, kwargs, result):
    seed = args[2] if len(args) > 2 else kwargs["seed"]
    tr.seeds.add(int(seed))


COUNTERS = {
    "datagen.subset": _count_subset,
    "datagen.build_edges": _count_build_edges,
    "head.forward": _count_forward,
    "head.mean_adjacency": _count_calls("head.mean_adjacency.calls"),
    "conformal.intervals": _count_calls("conformal.intervals.calls"),
    "objective.total_loss": _count_calls("trainer.steps"),
    "experiments.train_config_run": _count_train_config_run,
}


class Tracer:
    """Context manager: patches HOOKS on entry, restores them on exit.

    spans holds [name, start, end, parent index] rows in call order; counts
    holds the integer counters of COUNTERS.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seeds = set()
        self.forward_pairs = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name in HOOKS:
            if attr in vars(owner):
                orig = vars(owner)[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
        self._saved.append((bounds, "cKDTree", bounds.cKDTree))
        bounds.cKDTree = _pair_counting_kdtree(self)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        # count the pairs, then let go of the datasets they hold
        self.counts["head.forward.distinct_pairs"] = len(self.forward_pairs)
        self.forward_pairs.clear()
        return False

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def final_counts(self):
        """Integer counters, including the ones derived at the end."""
        out = dict(self.counts)
        out["experiments.seeds"] = len(self.seeds)
        return out

    def self_times(self):
        """Seconds per span name with the time of child spans removed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def to_json(self):
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": self.final_counts()}

