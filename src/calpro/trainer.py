"""Minibatch training of the evidential head with adaptive-moment updates
and validation-ECE early stopping."""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import head as head_mod
from .metrics import DEFAULT_LEVEL_GRID
from .numerics import conformal_quantiles, rng_stream
from .objective import MonotoneMap, ObjectiveConfig, total_loss

GRAD_CLIP_NORM = 10.0


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
    residuals without touching the held-out conformal set.
    """
    if val_ds.n_nodes == 0:
        raise ValueError("empty validation set")
    from . import conformal as conf_mod
    nig = head_mod.forward(head_params, val_ds)
    s = conf_mod.scores_from_nig(nig, val_ds.target_y, "normalized")
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


def train(cfg: TrainConfig, train_ds, val_ds):
    """Adam training on total_loss with early stopping on validation ECE.

    Returns (HeadParams, MonotoneMap, TrainRecord) with the parameters from
    the best-ECE epoch.
    """
    cfg.validate()
    if train_ds.n_nodes == 0 or val_ds.n_nodes == 0:
        raise ValueError("train and validation datasets must be non-empty")
    t0 = time.perf_counter()
    params = head_mod.init_head(cfg.head, train_ds.features.shape[1], cfg.seed)
    mono = MonotoneMap.init(hidden=cfg.objective.monotone_hidden, seed=cfg.seed)
    rng = rng_stream(cfg.seed, 20)

    theta = np.concatenate([params.to_vector(), mono.to_vector()])
    n_head = params.size
    # the weights are views into theta, which each step updates in place
    params, mono = params.view(theta[:n_head]), mono.view(theta[n_head:])
    g = np.empty_like(theta)        # total_loss writes the gradient here
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    mhat = np.empty_like(theta)
    vhat = np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    batches = _batches(train_ds.chain_ids, np.arange(train_ds.n_nodes), cfg.batch_size)
    best_ece = np.inf
    best_theta = theta.copy()
    best_epoch = -1
    bad_epochs = 0
    records = []
    grad_norms = []
    clip_events = 0

    for epoch in range(cfg.max_epochs):
        losses = []
        norms = []
        parts_acc = {"nig": 0.0, "evidence": 0.0, "prior": 0.0, "soft_conf": 0.0}
        for batch_idx in batches(rng):
            # a batch of every node is train_ds itself, in order, with its adjacency
            batch = (train_ds if batch_idx.size == train_ds.n_nodes
                     else train_ds.subset(batch_idx))
            val, parts, _, _ = total_loss(params, mono, batch, cfg.objective,
                                          epoch=epoch, out=g)
            if not math.isfinite(val):
                bad = [k for k, v in parts.items() if not math.isfinite(v)]
                raise FloatingPointError(f"non-finite training loss; offending terms: {bad}")
            norm = math.sqrt(g.dot(g))      # np.linalg.norm(g), bit for bit
            norms.append(norm)
            if norm > GRAD_CLIP_NORM:
                g *= GRAD_CLIP_NORM / norm
                clip_events += 1
            step += 1
            # Adam in place, in the operation order of
            # m1 = beta1 * m1 + (1 - beta1) * g, m2 = beta2 * m2 + (1 - beta2) * g * g,
            # theta = theta - lr * mhat / (sqrt(vhat) + eps), so every bit is kept
            m1 *= beta1
            m1 += (1 - beta1) * g
            m2 *= beta2
            m2 += (1 - beta2) * g * g
            np.divide(m1, 1 - beta1 ** step, out=mhat)
            np.divide(m2, 1 - beta2 ** step, out=vhat)
            mhat *= cfg.learning_rate
            np.sqrt(vhat, out=vhat)
            vhat += eps
            mhat /= vhat
            theta -= mhat
            losses.append(val)
            for k in parts_acc:
                parts_acc[k] += parts[k]
        ece_val = validation_ece(params, val_ds)
        records.append({
            "epoch": epoch,
            "loss": float(np.mean(losses)),     # every epoch has a batch
            "parts": {k: v / len(losses) for k, v in parts_acc.items()},
            "val_ece": ece_val,
        })
        grad_norms.append(max(norms))
        if epoch < cfg.warmup_epochs:
            continue
        if ece_val < best_ece - 1e-12:
            best_ece = ece_val
            best_theta[:] = theta
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience > 0:
                break

    # copies: the returned weights share no memory with theta
    final = best_theta if best_epoch >= 0 else theta
    params, mono = params.from_vector(final[:n_head]), mono.from_vector(final[n_head:])
    record = TrainRecord(
        epochs=records,
        selected_epoch=best_epoch,
        seed=cfg.seed,
        config_echo=_config_echo(cfg),
        wall_clock=time.perf_counter() - t0,
        grad_norms=grad_norms,
        clip_events=clip_events,
    )
    return params, mono, record


def _config_echo(cfg: TrainConfig):
    doc = asdict(cfg)
    # never echoed: mu_only is set only by the no_evidential ablation, which a
    # report names.  Echoing it would change the bytes of every report.
    del doc["objective"]["mu_only"]
    return doc
