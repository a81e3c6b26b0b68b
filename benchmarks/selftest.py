"""Tiny-size self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at a tiny size, untraced and traced, and exits non-zero
unless each run is correct (run.py itself refuses metrics that differ from
BENCHMARK.json).  It also feeds the output checks known-bad values.  It is a script,
not a pytest module, so the repository's test suite does not collect it.
"""

import math
import sys

import run

run.import_calpro()

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def check_the_checks():
    """Each output check must flag a value it exists to reject."""
    failures = []
    try:
        checks.strict_json(b'{"x": NaN}')
        failures.append("strict_json accepted NaN")
    except ValueError:
        pass
    scores = [0.5, 0.1, 0.4, 0.2, 0.3]            # n = 5, tau = 0.5 -> k = 3 -> 0.3
    if checks.rank_rule("ok", [0.5], {0.5: 0.3}, scores):
        failures.append("rank_rule rejected the correct quantile")
    if not checks.rank_rule("off by one", [0.5], {0.5: 0.4}, scores):
        failures.append("rank_rule accepted an off-by-one quantile")
    if checks.rank_rule("beyond n", [0.9], {0.9: math.inf}, scores):
        failures.append("rank_rule rejected +inf when the rank exceeds n")
    if not checks.coverage_bound("bound", 0.95, 0.9):
        failures.append("coverage_bound accepted a bound above 1 - alpha")
    if not checks.in_unit_interval("coverage", float("nan")):
        failures.append("in_unit_interval accepted NaN")
    return failures


def main():
    failures = check_the_checks()
    for name, wl in workloads.tiny().items():
        for trace in (0, 1):
            report, result = harness.run_workload(wl, seed=3, seconds=0, trace=trace)
            harness.print_report(report)
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: not correct")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
