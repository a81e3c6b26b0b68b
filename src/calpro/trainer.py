"""Minibatch training of the evidential head with adaptive-moment updates
and validation-ECE early stopping."""

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import conformal as conf_mod
from . import datagen
from . import head as head_mod
from .metrics import DEFAULT_LEVEL_GRID
from .numerics import arm_list, conformal_quantiles, rng_stream
from .objective import MonotoneMap, ObjectiveConfig, total_loss

GRAD_CLIP_NORM = 10.0

# see _keep_freed_heap; below glibc's cap of 32 MiB for its dynamic threshold
HEAP_BLOCK_BYTES = 16 << 20


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 20
    warmup_epochs: int = 0    # epochs ineligible for best-epoch selection
    seed: int = 0
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    head: head_mod.HeadConfig = field(default_factory=head_mod.HeadConfig)

    def validate(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a positive finite number")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("invalid training config")
        if self.patience < 0 or self.patience > self.max_epochs and self.max_epochs > 0:
            raise ValueError("patience must be in [0, max_epochs]")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        self.objective.validate()
        self.head.validate()
        return self


@dataclass
class TrainRecord:
    epochs: list                # per-epoch {epoch, loss, parts, val_ece}
    selected_epoch: int
    seed: int
    config_echo: dict
    # wall time and training health, all excluded from serialized reports
    wall_clock: float = 0.0
    grad_norms: list = field(default_factory=list)   # per epoch, largest pre-clip norm
    clip_events: int = 0                             # steps whose gradient was clipped

    def to_dict(self):
        return {
            "epochs": self.epochs,
            "selected_epoch": self.selected_epoch,
            "seed": self.seed,
            "config_echo": self.config_echo,
        }


def validation_ece(head_params, val_ds, level_grid=DEFAULT_LEVEL_GRID):
    """Self-calibrated calibration-error proxy on the validation set.

    The validation nodes are split deterministically in half (even/odd
    order); normalized-mode quantiles fitted on one half are evaluated on the
    other, so the score reflects how well the predicted variance ranks the
    residuals without touching the held-out conformal set.  A stack of heads
    gives one value per arm.
    """
    if val_ds.n_nodes == 0:
        raise ValueError("empty validation set")
    nig = head_mod.forward(head_params, val_ds)
    s = conf_mod.scores_from_nig(nig, val_ds.target_y, "normalized")
    if s.ndim > 1:
        return np.array([_split_half_ece(arm, level_grid) for arm in s])
    return _split_half_ece(s, level_grid)


def _split_half_ece(s, level_grid):
    """validation_ece of the scores s of one head."""
    half_a = s[0::2]
    half_b = s[1::2]
    if half_a.size == 0 or half_b.size == 0:
        half_a = half_b = s
    qs = conformal_quantiles(half_a, [1.0 - tau for tau in level_grid])
    devs = np.abs((half_b <= np.array(qs)[:, None]).mean(axis=1) - level_grid)
    return float(devs.sum() / devs.size)


def _batches(chain_ids, train_idx, batch_size):
    """Minibatches of whole chains restricted to the given node indices, as
    a function of an epoch's rng that lists them."""
    train_chains = chain_ids[train_idx]
    chains = np.unique(train_chains)
    if chains.size <= batch_size:
        # one batch of every chain (if any), in train_idx order: no rng draw
        return lambda rng: [train_idx][:chains.size]

    def epoch(rng):
        order = rng.permutation(chains.size)
        return [train_idx[np.isin(train_chains, chains[order[start:start + batch_size]])]
                for start in range(0, chains.size, batch_size)]
    return epoch


def train(cfg: TrainConfig, train_ds, val_ds, objectives=None):
    """Adam training on total_loss with early stopping on validation ECE.

    Returns (HeadParams, MonotoneMap, TrainRecord) with the parameters from
    the best-ECE epoch.

    Given objectives, one ObjectiveConfig per arm that may differ from
    cfg.objective only in its lambda_* weights and mu_only, the arms train
    as one stack of heads on train_ds, whose prior_b is either the arms' one
    prior or holds one column per arm, and train returns a list holding, per
    arm, what train on cfg with that objective (and prior) alone gives: its
    (params, mono, record), or the exception it raises.  An arm that stops
    early or whose loss turns non-finite leaves the stack, and the others go
    on.  An invalid cfg or dataset raises for the whole call.
    """
    shared = _shared(cfg.objective)
    replace(cfg, objective=shared).validate()
    if train_ds.n_nodes == 0 or val_ds.n_nodes == 0:
        raise ValueError("train and validation datasets must be non-empty")
    arms = [cfg.objective] if objectives is None else list(objectives)
    if any(_shared(objective) != shared for objective in arms):
        raise ValueError("the arms of a stacked training may differ only in the objective's "
                         "lambda_* weights and mu_only")
    if train_ds.prior_b.ndim > 1 and train_ds.prior_b.shape[1] != len(arms):
        raise ValueError("prior_b must hold one column per arm")
    results = _train_stack(cfg, train_ds, val_ds, arms)
    if objectives is not None:
        return results
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


class _Arm:
    """One arm of a stacked training: its place in the caller's list, its
    objective, and its record, filled in as it trains."""

    def __init__(self, index, cfg):
        self.index, self.objective = index, cfg.objective
        self.record = TrainRecord(epochs=[], selected_epoch=-1, seed=cfg.seed,
                                  config_echo=_config_echo(cfg))
        self.best_ece, self.bad_epochs = np.inf, 0


def _shared(objective: ObjectiveConfig):
    """objective less what the arms of one stack may set apart."""
    return replace(objective, lambda_evid=0.0, lambda_prior=0.0, lambda_conf=0.0, mu_only=False)


def _keep_freed_heap():
    """Allocate and free one HEAP_BLOCK_BYTES block, so that glibc keeps up
    to twice that much freed heap memory instead of handing it back.

    A stacked step allocates a few MB of arrays (2.7 MB for the four arms of
    the desk recipe) and frees them all at its end.  Freed memory at the top
    of the heap beyond glibc's trim threshold (at first 128 kB) goes back to
    the system, and the next step faults it in again: about 760 page faults
    a step, a third of that training's time on 2-core x86-64.  Freeing a
    large block raises the threshold to twice its size (glibc's dynamic mmap
    threshold), and it stays raised for the rest of the process; under
    another allocator this only allocates and frees an untouched block."""
    np.empty(HEAP_BLOCK_BYTES // 8)


def _train_stack(cfg, fit_ds, val_ds, objectives):
    """train on cfg with each of objectives as one stack, after the checks
    of the whole call; the per-arm results (see train)."""
    results = [None] * len(objectives)
    arms = []
    for index, objective in enumerate(objectives):
        try:
            objective.validate()
        except ValueError as exc:
            results[index] = exc
        else:
            arms.append(_Arm(index, replace(cfg, objective=objective)))
    if not arms:
        return results

    if len(arms) > 1:
        _keep_freed_heap()
    t0 = time.perf_counter()
    params = head_mod.init_head(cfg.head, fit_ds.features.shape[1], cfg.seed)
    mono = MonotoneMap.init(hidden=cfg.objective.monotone_hidden, seed=cfg.seed)
    rng = rng_stream(cfg.seed, 20)
    n_head = params.size
    # one row of weights per arm, which each step updates in place
    theta = np.tile(np.concatenate([params.to_vector(), mono.to_vector()]), (len(arms), 1))
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    best_theta = theta.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    def finish(row):
        """The result of the arm at row: copies, so that the returned
        weights share no memory with theta."""
        arm = arms[row]
        final = best_theta[row] if arm.record.selected_epoch >= 0 else theta[row]
        arm.record.wall_clock = time.perf_counter() - t0
        results[arm.index] = (params.from_vector(final[:n_head]),
                              mono.from_vector(final[n_head:]), arm.record)

    def restack(keep):
        """Keep the arms at rows keep, and rebuild what a step reads: the
        weights' views, the buffers, and the fitting set, with the prior_b
        columns of the arms left if it holds one per arm."""
        nonlocal theta, m1, m2, best_theta, arms, g, mhat, vhat, stack, out, objectives, data
        theta, m1, m2, best_theta = (a[keep] for a in (theta, m1, m2, best_theta))
        arms = [arms[row] for row in keep]
        g, mhat, vhat = (np.empty_like(theta) for _ in range(3))
        columns = [arm.index for arm in arms]
        if len(arms) == 1:      # one head, without the arm axis: the same bits, sooner
            rows, out, objectives, columns = theta[0], g[0], arms[0].objective, columns[0]
        else:
            rows, out, objectives = theta, g, [arm.objective for arm in arms]
        stack = params.view(rows[..., :n_head]), mono.view(rows[..., n_head:])
        data = fit_ds if fit_ds.prior_b.ndim == 1 else datagen.with_priors(
            fit_ds, np.ascontiguousarray(fit_ds.prior_b[:, columns]))

    g = mhat = vhat = stack = out = objectives = data = None
    restack(list(range(len(arms))))
    batches = _batches(fit_ds.chain_ids, np.arange(fit_ds.n_nodes), cfg.batch_size)
    # a diverging training ends in its own error below, not in numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.max_epochs):
            for arm in arms:
                arm.losses, arm.norms = [], []
                arm.parts = dict.fromkeys(("nig", "evidence", "prior", "soft_conf"), 0.0)
            for batch_idx in batches(rng):
                # a batch of every node is the fitting set itself, in order, with its adjacency
                batch = data if batch_idx.size == data.n_nodes else data.subset(batch_idx)
                val, parts, _, _ = total_loss(*stack, batch, objectives, epoch=epoch, out=out)
                val, parts = arm_list(val), {k: arm_list(v) for k, v in parts.items()}
                if not all(map(math.isfinite, val)):
                    keep = []
                    for row, arm in enumerate(arms):
                        if math.isfinite(val[row]):
                            keep.append(row)
                            continue
                        bad = [k for k, v in parts.items() if not math.isfinite(v[row])]
                        results[arm.index] = FloatingPointError(
                            f"non-finite training loss; offending terms: {bad}")
                    if not keep:
                        return results
                    grads = g[keep]
                    val, parts = [val[r] for r in keep], {k: [v[r] for r in keep]
                                                           for k, v in parts.items()}
                    restack(keep)
                    g[:] = grads
                step += 1
                for row, arm in enumerate(arms):
                    grad = g[row]
                    norm = math.sqrt(grad.dot(grad))      # np.linalg.norm(grad), bit for bit
                    arm.norms.append(norm)
                    if norm > GRAD_CLIP_NORM:
                        grad *= GRAD_CLIP_NORM / norm
                        arm.record.clip_events += 1
                    arm.losses.append(val[row])
                    for k in arm.parts:
                        arm.parts[k] += parts[k][row]
                # Adam in place, in the operation order of
                # m1 = beta1 * m1 + (1 - beta1) * g, m2 = beta2 * m2 + (1 - beta2) * g * g,
                # theta = theta - lr * mhat / (sqrt(vhat) + eps), so every bit is kept
                m1 *= beta1
                np.multiply(g, 1 - beta1, out=mhat)     # mhat as scratch
                m1 += mhat
                m2 *= beta2
                np.multiply(g, 1 - beta2, out=mhat)
                mhat *= g
                m2 += mhat
                np.divide(m1, 1 - beta1 ** step, out=mhat)
                np.divide(m2, 1 - beta2 ** step, out=vhat)
                mhat *= cfg.learning_rate
                np.sqrt(vhat, out=vhat)
                vhat += eps
                mhat /= vhat
                theta -= mhat
            eces = arm_list(validation_ece(stack[0], val_ds))
            for arm, ece_val in zip(arms, eces):
                arm.record.epochs.append({
                    "epoch": epoch,
                    "loss": float(np.mean(arm.losses)),     # every epoch has a batch
                    "parts": {k: v / len(arm.losses) for k, v in arm.parts.items()},
                    "val_ece": ece_val,
                })
                arm.record.grad_norms.append(max(arm.norms))
            if epoch < cfg.warmup_epochs:
                continue
            keep = []
            for row, (arm, ece_val) in enumerate(zip(arms, eces)):
                if ece_val < arm.best_ece - 1e-12:
                    arm.best_ece = ece_val
                    best_theta[row] = theta[row]
                    arm.record.selected_epoch = epoch
                    arm.bad_epochs = 0
                else:
                    arm.bad_epochs += 1
                    if arm.bad_epochs >= cfg.patience > 0:
                        finish(row)
                        continue
                keep.append(row)
            if not keep:
                return results
            if len(keep) < len(arms):
                restack(keep)
    for row in range(len(arms)):
        finish(row)
    return results


def _config_echo(cfg: TrainConfig):
    doc = asdict(cfg)
    # never echoed: mu_only is set only by the no_evidential ablation, which a
    # report names.  Echoing it would change the bytes of every report.
    del doc["objective"]["mu_only"]
    return doc
