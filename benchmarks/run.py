"""calpro benchmark: one workload per process, closed loop, outputs checked.

Run from the repository root:

    python3 benchmarks/run.py --workload desk_ablation --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 40 --trace 0

A run sets the workload up three times (setup_s is the median), then repeats
its timed region until --seconds have passed, and checks every iteration's
outputs afterwards.  A pass of a fixed reference kernel precedes each set-up
and each timed iteration; wall_s and setup_s are scaled by the ratio of the
reference's nominal to its measured seconds, so that the drift of a shared
host's speed cancels.  With --trace 1 it alternates untraced and traced
iterations and reports per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; "all" runs each workload in its own process,
one after another.
"""

import os

# Single-threaded BLAS and seed fan-out, fixed before numpy is first imported.
THREAD_ENV = {"CALPRO_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("desk_ablation", "large_graph", "shift_eval")
DEFAULT_SEED = 0


def import_calpro():
    """Import calpro from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import calpro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import calpro from {SRC}: {exc}")
    if Path(calpro.__file__).resolve().parent != (SRC / "calpro").resolve():
        raise SystemExit(f"error: calpro imported from {calpro.__file__}, not from {SRC}")


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        rc = rc or proc.returncode
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    import_calpro()
    import harness
    import workloads
    report, result = harness.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                          args.seconds, args.trace)
    harness.print_report(report)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
