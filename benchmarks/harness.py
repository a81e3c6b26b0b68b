"""Set-up, timed loop, output checks and metrics of one benchmark run.

Import this only after calpro is importable from the checkout (run.py's
import_calpro), and after the thread settings are pinned.
"""

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import scipy.special

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
MIN_TRACED_PAIRS = 2           # counts must repeat across two traced iterations
MIN_TOP_COVERAGE = 0.95        # top-level spans / timed wall
# Reported times are expressed at the machine speed at which one pass of
# reference_seconds() takes this long (close to its median on the host the
# README's results come from).
REFERENCE_S = 0.4


def environment():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}}


def source_hash(wl):
    """Hash of the workload's parameters and of the program and benchmark
    sources, keying stored digests."""
    h = hashlib.sha256(repr(wl).encode())
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def reference_seconds():
    """Seconds one pass of a fixed kernel takes: the machine's current speed.

    On a shared host the speed of this process drifts by tens of percent over
    minutes with the load of other tenants, and CPU time drifts with it.  The
    kernel never calls calpro, so no change to calpro moves it; it mixes the
    kinds of work calpro's per-step time goes to: small-array masked edge
    filtering and lgamma/digamma, and interpreter-bound dict work.  Its
    arrays stay small: a variant that also filtered a 400k-edge array ran in
    a fast or a slow mode for a whole process, unrelated to the machine's
    speed.
    """
    rng = numpy.random.default_rng(0)
    x = rng.standard_normal(512)
    edges = rng.integers(0, 4096, size=(6000, 2))
    keep = rng.random(4096) < 0.9
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += edges[keep[edges[:, 0]] & keep[edges[:, 1]]].shape[0]
        y = scipy.special.gammaln(numpy.abs(x) + 3.0) - scipy.special.digamma(x * x + 1.0)
        acc += float(y.sum()) + float(numpy.exp(-x).mean())
        d = {}
        for j in range(200):
            d[j % 17] = d.get(j % 17, 0) + j * i
        acc += sum(d.values())
    return time.perf_counter() - t0


def child_import():
    """Import calpro in a fresh interpreter, as a user's process would.

    No timeout: with one, subprocess polls the child every 50 ms, and the
    poll interval, not the import, would set the resolution of setup_s.
    """
    subprocess.run([sys.executable, "-c", "import calpro.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)


def measure_setups(wl, seed, work, refs):
    """Time SETUP_REPEATS complete set-ups, each after a pass of the reference
    kernel (its seconds go to refs); returns (seconds list, last state, problems)."""
    times, prints, state = [], [], None
    for _ in range(SETUP_REPEATS):
        refs.append(reference_seconds())
        t0 = time.perf_counter()
        child_import()
        state = wl.setup(seed, work)
        times.append(time.perf_counter() - t0)
        prints.append(wl.fingerprint(state))
    problems = [] if len(set(prints)) == 1 else ["repeated set-ups gave different states"]
    return times, state, problems


class Iteration:
    def __init__(self, index):
        self.index = index
        self.wall = None
        self.out = None
        self.result = None
        self.tracer = None
        self.calibrations = []
        self.problems = []
        self.primary = None
        self.ece = None


def run_iteration(wl, state, work, index, traced):
    """One timed region, with or without tracing.  Output checks come later."""
    it = Iteration(index)
    it.out = work / f"iter{index}"
    it.out.mkdir(parents=True)
    spans = tracer.Tracer() if traced else contextlib.nullcontext()
    with checks.CalibrationCapture() as cap, spans as tr:
        t0 = time.perf_counter()
        try:
            it.result = wl.run(state, it.out)
        except Exception:
            traceback.print_exc()
            it.problems.append("workload raised")
        it.wall = time.perf_counter() - t0
    it.calibrations = cap.calibrations
    it.tracer = tr
    return it


def run_loop(wl, state, work, seconds, trace, refs):
    """Closed loop for `seconds`; returns (untraced, traced) iterations.

    Each untraced iteration follows a pass of the reference kernel (its
    seconds go to refs).  Traced iterations alternate with untraced ones, so
    each traced sample has an untraced neighbour taken under the same
    machine conditions.
    """
    plain, traced = [], []
    min_plain = MIN_TRACED_PAIRS if trace else 1
    t_start = time.perf_counter()
    while len(plain) < min_plain or time.perf_counter() - t_start < seconds:
        refs.append(reference_seconds())
        plain.append(run_iteration(wl, state, work, len(plain) + len(traced), False))
        if trace:
            traced.append(run_iteration(wl, state, work, len(plain) + len(traced), True))
    return plain, traced


def check_iteration(wl, state, it):
    if it.problems:
        return
    try:
        it.primary, it.ece, problems = wl.outputs(state, it.out, it.result)
    except (KeyError, TypeError, ValueError) as exc:
        traceback.print_exc()
        it.problems.append(f"output check raised {exc!r}")
        return
    it.problems += problems
    for i, calib in enumerate(it.calibrations):
        it.problems += checks.calibration(f"calibration #{i}", calib)
    if not it.calibrations:
        it.problems.append("no calibration was returned")


def artifact_bytes(out):
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def layer_metrics(it):
    """Per-layer metrics of one traced iteration."""
    tr = it.tracer
    selfs = tr.self_times()
    counts = tr.final_counts()

    def ratio(num, den):
        return num / den if den else 0.0

    losses = sorted(tr.durations("objective.total_loss"))
    m = {}
    for name in ("datagen.subset", "datagen.build_edges", "datagen.gen_chain_dataset",
                 "datagen.perturb", "objective.total_loss",
                 "objective.nig_nll", "objective.prior_penalty", "objective.soft_conf_loss",
                 "trainer.train", "trainer.validation_ece", "head.forward",
                 "head.mean_adjacency", "head.backward", "conformal.calibrate",
                 "conformal.intervals", "metrics.full_report", "metrics.ece", "metrics.ace",
                 "numerics.spearman", "bounds.estimate_lipschitz",
                 "bounds.choose_posterior_scale", "bounds.ncal_sweep",
                 "bounds.bound_vs_empirical_sweep", "experiments.train_config_run"):
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name in ("datagen.subset.calls", "datagen.subset.edges_scanned",
                 "datagen.build_edges.edges", "trainer.steps",
                 "head.forward.calls", "head.forward.nodes", "head.mean_adjacency.calls",
                 "conformal.intervals.calls", "bounds.estimate_lipschitz.pairs",
                 "experiments.seeds"):
        m[name] = counts.get(name, 0)
    m["datagen.subset.edge_keep_ratio"] = ratio(counts.get("datagen.subset.edges_kept", 0),
                                                counts.get("datagen.subset.edges_scanned", 0))
    m["head.forward.distinct_ratio"] = ratio(counts["head.forward.distinct_pairs"],
                                             counts.get("head.forward.calls", 0))
    m["objective.total_loss.p50_ms"] = 1e3 * percentile(losses, 0.50)
    m["objective.total_loss.p99_ms"] = 1e3 * percentile(losses, 0.99)
    m["cli.artifact_bytes"] = artifact_bytes(it.out) if "cli.main" in selfs else 0
    for layer in tracer.LAYERS:
        m[f"layer.{layer}.self_s"] = sum((v for k, v in selfs.items()
                                          if k.startswith(layer + ".")), 0.0)
    m["trace.top_coverage"] = tr.top_level_seconds() / it.wall
    m["metrics.ece_full"] = it.ece if it.ece is not None else 0.0
    return m


def percentile(sorted_values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def integer_counts(m):
    return {k: v for k, v in m.items() if isinstance(v, int)}


def crosscheck(tr):
    """Traced figures next to the ROADMAP baseline table; informative only."""
    def total(name):
        return sum(tr.durations(name))

    out = {}
    n_tcr = len(tr.durations("experiments.train_config_run"))
    if n_tcr:
        out["train_config_run_s_per_run"] = total("experiments.train_config_run") / n_tcr
        out["subset_share_of_train_config_run"] = (total("datagen.subset")
                                                   / total("experiments.train_config_run"))
    subsets = tr.durations("datagen.subset")
    if subsets:
        out["subset_s_per_call"] = sum(subsets) / len(subsets)
        out["subset_s_max_call"] = max(subsets)
    if tr.durations("datagen.gen_chain_dataset"):
        out["gen_chain_dataset_s"] = total("datagen.gen_chain_dataset")
    return out


def check_digest(wl, seed, primary, counts):
    """Compare with what an earlier process recorded for the same workload,
    seed and sources; record what is new."""
    store = OUT / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{wl.name}-seed{seed}-{source_hash(wl)}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    digest = hashlib.sha256(primary).hexdigest()
    if record.get("primary_sha256", digest) != digest:
        problems.append(f"primary artifact differs from an earlier process with seed {seed}")
    if counts is not None and record.get("counts", counts) != counts:
        problems.append(f"trace counts differ from an earlier process with seed {seed}")
    record["primary_sha256"] = digest
    if counts is not None:
        record["counts"] = counts
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return problems


def run_workload(wl, seed, seconds, trace):
    """Set up, run, check.  Returns (report dict, last-line result dict)."""
    work = OUT / f"work-{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        refs = []
        setup_times, state, setup_problems = measure_setups(wl, seed, work, refs)
        plain, traced = run_loop(wl, state, work, seconds, trace, refs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        its = plain + traced
        for it in its:
            check_iteration(wl, state, it)
        its[0].problems += setup_problems
        first = next((it.primary for it in its if it.primary is not None), None)
        for it in its:
            if it.primary is not None and it.primary != first:
                it.problems.append(f"primary artifact of iteration {it.index} differs"
                                   " from the first")
        layer = [layer_metrics(it) for it in traced]
        counts = integer_counts(layer[0]) if layer else None
        for it, m in zip(traced[1:], layer[1:]):
            if integer_counts(m) != counts:
                it.problems.append("trace counts differ between traced iterations")
        for it, m in zip(traced, layer):
            if m["trace.top_coverage"] < MIN_TOP_COVERAGE:
                it.problems.append(f"top-level spans cover {m['trace.top_coverage']:.3f}"
                                   f" of the timed wall")
        if first is not None:
            its[0].problems += check_digest(wl, seed, first, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [it.wall for it in plain]
    reference_s = statistics.median(refs)
    scale = REFERENCE_S / reference_s
    wall_s = scale * statistics.median(walls)
    setup_s = scale * statistics.median(setup_times)
    failed = sum(1 for it in its if it.problems)
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "input": wl.describe(seed), "input_nodes": wl.input_nodes,
        "environment": environment(),
        "reference_s": reference_s, "reference_samples": len(refs), "scale": scale,
        "wall_s": wall_s, "wall_samples": len(walls), "walls": walls,
        "setup_s": setup_s, "setup_samples": len(setup_times), "setups": setup_times,
        "peak_rss_mb": peak_rss_mb, "nodes_per_s": wl.input_nodes / wall_s,
        "attempted": len(its), "failed": failed, "error_rate": failed / len(its),
        "ece": next((it.ece for it in its if it.ece is not None), None),
        "problems": [f"iteration {it.index}: {p}" for it in its for p in it.problems],
    }
    if trace:
        # counts are equal across traced iterations (checked above); times vary
        per_layer = {k: statistics.median(m[k] for m in layer) if isinstance(v, float) else v
                     for k, v in layer[0].items()}
        per_layer["trace.overhead_s"] = statistics.median(t.wall - p.wall
                                                          for p, t in zip(plain, traced))
        report["per_layer"] = per_layer
        report["crosscheck"] = crosscheck(traced[0].tracer)
        report["trace_samples"] = len(traced)
        write_trace(wl, seed, report, traced)
        values = per_layer
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "nodes_per_s": report["nodes_per_s"]}
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json by "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
    result = {"correct": failed == 0, "attempted": len(its), "failed": failed,
              "metrics": metrics}
    return report, result


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def write_trace(wl, seed, report, traced):
    OUT.mkdir(parents=True, exist_ok=True)
    doc = dict(report, iterations=[dict(it.tracer.to_json(), wall_s=it.wall) for it in traced])
    (OUT / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(doc, sort_keys=True))


def print_report(r):
    env = r["environment"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {r['trace']}",
        f"  input        {r['input']}; {r['input_nodes']} input nodes per sample",
        f"  environment  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']},"
        f" nproc {env['nproc']}, " + ", ".join(f"{k}={v}" for k, v in env["threads"].items()),
        f"  reference    {r['reference_s']:.4f} s      median of {r['reference_samples']}"
        f" passes of the reference kernel; times below are scaled by"
        f" {REFERENCE_S} / {r['reference_s']:.4f} = {r['scale']:.4f}",
        f"  wall_s       {r['wall_s']:.4f} s      median of {r['wall_samples']} samples,"
        " tracing off; unscaled: " + " ".join(f"{w:.3f}" for w in r["walls"]),
        f"  setup_s      {r['setup_s']:.4f} s      median of {r['setup_samples']} set-ups;"
        " unscaled: " + " ".join(f"{t:.3f}" for t in r["setups"]),
        f"  peak_rss_mb  {r['peak_rss_mb']:.1f} MB"
        + ("       includes the traced samples" if r["trace"] else ""),
        f"  nodes_per_s  {r['nodes_per_s']:.1f} 1/s   {r['input_nodes']} input nodes / wall_s",
        f"  error_rate   {r['error_rate']:.3f}        {r['failed']} failed of"
        f" {r['attempted']} runs",
        "  ece          " + ("n/a" if r["ece"] is None else f"{r['ece']:.6f}")
        + "     test-set ECE of the full configuration",
    ]
    if "per_layer" in r:
        pl = r["per_layer"]
        lines.append(f"  tracing      {r['trace_samples']} traced samples, overhead"
                     f" {pl['trace.overhead_s']:+.4f} s, top-level spans cover"
                     f" {pl['trace.top_coverage']:.4f} of the wall")
        for k in sorted(pl):
            if k.startswith("layer."):
                lines.append(f"    {k:<28} {pl[k]:.4f} s")
        for k, v in sorted(r["crosscheck"].items()):
            lines.append(f"    crosscheck {k:<36} {v:.4f}")
    lines += [f"  problem: {p}" for p in r["problems"]]
    print("\n".join(lines), flush=True)
