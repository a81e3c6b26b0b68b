"""sha256 of every artifact of the desk-scale calpro CLI matrix.

Runs each command of MATRIX in-process, against the calpro package found
under --src, each in its own output directory, and writes
{"<label>/<file>": sha256} as sorted JSON.  To check that a change leaves
the artifacts byte-identical, run it once on a checkout of the parent and
once on the change, then diff the two files:

    python3 tools/cli_digests.py --src ../parent/src --out parent.json
    python3 tools/cli_digests.py --src src --out change.json
    diff parent.json change.json

or check the change against the saved file directly: --check lists every
artifact whose digest differs, is missing or is new, and exits 1 if any does:

    python3 tools/cli_digests.py --src src --check parent.json

Uses the standard library and calpro only; the matrix takes a few seconds
on one core.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

GENERATOR = {"n_chains": 12, "chain_length": 40}
# experiments.desk_train_config: a fixed 40-epoch budget, last epoch selected
TRAIN = {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 40,
         "patience": 0, "warmup_epochs": 39}
PIPED = {"generator": GENERATOR, "train": TRAIN}
SMALL = {"n_chains": 6, "chain_length": 20}
SHORT = dict(TRAIN, max_epochs=4, warmup_epochs=3)

RECIPES = ("calibration", "shift", "perturbation", "prior_corruption",
           "efficiency", "bound_sweep")

# (label, argv before --config/--seed/--out, config document)
MATRIX = (
    ("pipeline", ["pipeline"], PIPED),
    ("pipeline_absolute", ["pipeline", "--score-mode", "absolute"], PIPED),
    # 6 fitting chains in batches of 2: the trainer's multi-batch path
    ("pipeline_multibatch", ["pipeline"],
     {"generator": GENERATOR, "train": dict(TRAIN, batch_size=2)}),
    ("bound", ["bound"], PIPED),
    # 40x40 = 1600 nodes, 2 epochs: a 320-node calibration set, at seed 0 in
    # blocks of 56, 125 and 139 rows, so the bound sweep's tree of all points
    # and its largest block's hold more than one 128-point leaf
    ("bound_multileaf", ["bound"],
     {"generator": {"n_chains": 40, "chain_length": 40},
      "train": dict(TRAIN, max_epochs=2, warmup_epochs=1)}),
    ("ncal_sweep", ["ncal-sweep"], dict(PIPED, sizes=[50, 100, 150])),
    # sizes out of order and repeated: the rows follow sizes, one per entry
    ("ncal_sweep_unsorted", ["ncal-sweep"], dict(PIPED, sizes=[150, 50, 100, 50])),
    # 40x40 = 1600 nodes: calibration sets of several hundred, so the k-NN
    # trees of estimate_lipschitz, per block and of all points, hold several
    # 128-point leaves, and some rows of each block leave it
    ("ncal_sweep_multileaf", ["ncal-sweep"],
     {"generator": {"n_chains": 40, "chain_length": 40},
      "train": dict(TRAIN, max_epochs=2, warmup_epochs=1), "sizes": [300, 600, 900]}),
    *((f"experiment_{name}", ["experiment", name], PIPED) for name in RECIPES),
    # every strategy's select-label-retrain loop, 2 acquisition rounds
    ("active", ["active"],
     {"generator": GENERATOR, "train": dict(TRAIN, max_epochs=10, warmup_epochs=9),
      "active": {"rounds": 2}}),
    ("gen_data_chain", ["gen-data"], {"generator": GENERATOR}),
    ("gen_data_tabular", ["gen-data"], {"generator": GENERATOR, "kind": "tabular"}),
    ("corrupt_priors", ["corrupt-priors"], {"generator": GENERATOR}),
    # config shapes no entry above sets, each on a 6x20 graph with 4 epochs:
    # nested head and objective keys, two seeds, levels, ablations, a shifted
    # generator, corruption modes and sigma, a strategy subset, and the score
    # mode flag of a recipe that reads it
    ("pipeline_nested", ["pipeline"],
     {"generator": SMALL, "train": dict(SHORT, head={"widths": [8, 8]},
                                        objective={"gamma": 5.0, "kappa": 0.2,
                                                   "lambda_evid": 0.02, "lambda_prior": 0.2,
                                                   "lambda_conf": 0.1, "stopgrad_epochs": 1,
                                                   "monotone_hidden": 4})}),
    ("experiment_calibration_levels", ["experiment", "calibration", "--score-mode", "absolute"],
     {"generator": SMALL, "train": SHORT, "seeds": [0, 1], "levels": [0.8, 0.95],
      "ablations": ["full", "no_priors"]}),
    ("experiment_shift_generator", ["experiment", "shift"],
     {"generator": SMALL, "train": SHORT, "ablations": ["full"],
      "shifted_generator": {"n_chains": 6, "chain_length": 20, "ordered_noise_scale": 0.6,
                            "disordered_noise_scale": 2.0}}),
    # every arm of the shift recipe, each by its own interval rule
    ("experiment_shift_arms", ["experiment", "shift"],
     {"generator": SMALL, "train": SHORT,
      "ablations": ["full", "no_conformal", "no_evidential", "no_priors"]}),
    ("experiment_prior_corruption_modes", ["experiment", "prior_corruption"],
     {"generator": SMALL, "train": SHORT, "corruption_modes": ["shuffle", "invert"],
      "corruption_sigma": 0.4}),
    # early stopping in a stack: at seed 0 the four arms stop after 6, 6, 11
    # and 6 epochs, so the stack drops arms, and the last arm left (invert)
    # trains on a prior of its own; it selects epoch 5, so the artifact does
    # not show the epochs it trained alone
    ("experiment_prior_corruption_early_stop", ["experiment", "prior_corruption"],
     {"generator": SMALL, "train": {"batch_size": 2, "max_epochs": 30, "patience": 5,
                                    "warmup_epochs": 0}}),
    # the same with a larger step: the arms stop after 8, 12, 11 and 8 epochs
    # and select epochs 4, 8, 7 and 4, so two arms select weights trained
    # after a stack-mate left, on the prior columns the stack kept for them
    ("experiment_prior_corruption_late_best", ["experiment", "prior_corruption"],
     {"generator": SMALL, "train": {"learning_rate": 1e-2, "batch_size": 2, "max_epochs": 30,
                                    "patience": 3, "warmup_epochs": 4}}),
    ("active_strategies", ["active"],
     {"generator": SMALL, "train": SHORT,
      "active": {"seed_set_size": 20, "batch_size": 5, "rounds": 1,
                 "strategies": ["random", "calpro_width"]}}),
    # 2 chains hold no test chain, so no round has a coverage or ece: the
    # curves' last two columns are empty
    ("active_no_test", ["active"],
     {"generator": {"n_chains": 2, "chain_length": 40}, "train": SHORT,
      "active": {"rounds": 1}}),
)


def digests(cli, seed, work):
    out = {}
    for label, argv, doc in MATRIX:
        config = work / f"{label}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        target = work / label
        rc = cli.main(argv + ["--config", str(config), "--seed", str(seed),
                              "--out", str(target)])
        if rc != 0:
            raise SystemExit(f"calpro {' '.join(argv)} returned {rc}")
        for path in sorted(target.iterdir()):
            out[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory that holds the calpro package")
    p.add_argument("--out", help="JSON file to write the digests to")
    p.add_argument("--check", help="digest JSON file to compare the run with; "
                   "exit 1 on any mismatch")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.out is None and args.check is None:
        p.error("give --out, --check or both")
    expected = None
    if args.check is not None:
        # read before the run, so a missing or malformed file fails at once
        expected = json.loads(Path(args.check).read_text(encoding="utf-8"))
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from calpro import cli
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported calpro from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as work:
        out = digests(cli, args.seed, Path(work))
    if args.out is not None:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"{len(out)} artifacts -> {args.out}")
    if expected is None:
        return 0
    # a label only one side has differs too
    labels = expected.keys() | out.keys()
    bad = sorted(k for k in labels if expected.get(k) != out.get(k))
    for label in bad:
        print(f"differs: {label}")
    print(f"{len(labels) - len(bad)}/{len(labels)} artifacts match {args.check}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
