"""End-to-end walk through the core pipeline: generate a synthetic chain
dataset, train the evidential head, calibrate split-conformal quantiles on
held-out chains, and print the resulting coverage/sharpness report.
"""

import numpy as np

from calpro import conformal, datagen, experiments, metrics
from calpro.experiments import ExperimentSpec

spec = ExperimentSpec(generator=datagen.GeneratorConfig(n_chains=8, seed=0))

print("generating chains and training the head (fixed 40-epoch budget)...")
run = experiments.train_config_run(spec, "full", seed=0)
ds = run["ds"]
print(f"dataset: {ds.n_nodes} nodes, {ds.edges.shape[0]} edges, "
      f"{int(ds.disorder_flags.sum())} disordered")

calib = conformal.calibrate(run["params"], run["cal_ds"],
                            levels=(0.8, 0.9, 0.95), mode="normalized")
report = metrics.full_report(run["params"], calib, run["test_ds"])

print("\ncoverage by level (target -> empirical):")
for level in (0.8, 0.9, 0.95):
    print(f"  {level:.2f} -> {report.coverage[level]:.3f} "
          f"(mean width {report.sharpness[level]:.2f})")
print(f"\nECE {report.ece:.3f}  ACE {report.ace:.3f}  "
      f"spearman(uncertainty, error) {report.spearman_uncertainty_error:.3f}")

print("\nper-group coverage at 0.9:")
for group, row in report.group_table.items():
    print(f"  {group:>14}: coverage {row['coverage']:.3f}  n={row['count']}")
