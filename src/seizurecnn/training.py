"""Training: weighted cross-entropy, L1/L2 penalties, ADAM, the epoch loop.

The loop is deliberately plain. Exactly ``epochs`` passes over the data,
a fresh shuffle per epoch, no early stopping, no schedules, no model
selection. Everything random comes from the stream handed to ``fit``, so
a run is a pure function of its seed.

Class imbalance is handled by per-class loss weights w_c = N / (2 n_c)
and the batch loss normalizes by the total weight of the batch rather
than the batch size. On a class-weighted full batch the two
normalizations coincide (the weights sum to N by construction), and the
weighted form makes an integer weight k exactly equivalent to
duplicating each positive segment k times.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .layers import TRAIN, Network
from .tensor import RngStream, Tensor
from .topologies import input_grid, reshape_batch

BCE_CLAMP = 1e-7

# Every run trains with these: Kingma & Ba's ADAM defaults and the paper's
# tiny L1/L2 penalties. Classes are always weighted by class_weights.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
L1_PENALTY = 1e-9
L2_PENALTY = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    topology: str = "nv1x16"
    seed: int = 0
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.001

    def validate(self) -> "TrainConfig":
        input_grid(self.topology)  # the one check for an unknown topology
        for name in ("seed", "epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.learning_rate, bool) or not isinstance(self.learning_rate,
                                                                  numbers.Real):
            raise ConfigError(f"learning_rate must be a number, got {self.learning_rate!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        try:
            rate = float(self.learning_rate)
        except OverflowError:  # an integer too large for a float
            rate = math.inf
        if not 0 < rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        return self

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs).validate()


def class_weights(n_preictal: int, n_interictal: int) -> tuple[float, float]:
    """(w_pos, w_neg) with w_c = N / (2 n_c), so both classes carry equal mass."""
    if n_preictal < 1 or n_interictal < 1:
        raise DataError(f"training set needs both classes, got "
                        f"{n_preictal} preictal and {n_interictal} interictal")
    total = n_preictal + n_interictal
    return total / (2.0 * n_preictal), total / (2.0 * n_interictal)


def weighted_bce(p, y, w_pos: float, w_neg: float):
    """Per-element weighted binary cross entropy with probability clamping."""
    p = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=np.asarray(p).dtype)
    return -(w_pos * y * np.log(p) + w_neg * (1.0 - y) * np.log1p(-p))


def regularization(params: dict[str, Tensor], regularized: list[str],
                   l1: float, l2: float) -> tuple[float, dict[str, Tensor]]:
    """L1/L2 penalty and its gradient over the named weight arrays only."""
    penalty = 0.0
    grads: dict[str, Tensor] = {}
    for name in regularized:
        w = params[name]
        penalty += l1 * float(np.abs(w).sum()) + l2 * float((w * w).sum())
        grads[name] = l1 * np.sign(w) + (2.0 * l2) * w
    return penalty, grads


class AdamState:
    """First and second moment estimates plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(w) for name, w in params.items()}
        self.v = {name: np.zeros_like(w) for name, w in params.items()}
        self.t = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, Tensor],
              state: AdamState, cfg: TrainConfig) -> None:
    """One ADAM update, in place on the parameter arrays."""
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for name, w in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        w -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPSILON)


def batch_loss_and_grads(network: Network, x: Tensor, y: Tensor,
                         w_pos: float, w_neg: float, l1: float, l2: float,
                         rng: RngStream | None) -> tuple[float, dict[str, Tensor]]:
    """Forward, loss, and a full backward pass over one batch.

    ``x`` is already arranged on the topology grid. The data term is the
    weighted mean of per-segment cross entropies (normalized by total
    weight); the penalty term and its gradient cover the regularized
    weights. Returns the scalar batch loss and per-parameter gradients.
    """
    probs = network.forward(x, TRAIN, rng)
    p = probs[:, 0]
    y = np.asarray(y)
    w = np.where(y == 1, p.dtype.type(w_pos), p.dtype.type(w_neg))
    total_weight = w.sum()
    losses = weighted_bce(p, y, w_pos, w_neg)
    data_loss = float(losses.sum() / total_weight)

    clamped = (p < BCE_CLAMP) | (p > 1.0 - BCE_CLAMP)
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    yf = y.astype(p.dtype)
    d_p = np.where(clamped, p.dtype.type(0),
                   (-w * yf / pc + w * (1.0 - yf) / (1.0 - pc)).astype(p.dtype))
    # weights already fold in w_pos or w_neg per element; normalize once
    network.backward((d_p / total_weight)[:, None])

    grads = dict(network.grads())
    penalty, reg_grads = regularization(network.params(), network.regularized_names(), l1, l2)
    for name, contrib in reg_grads.items():
        grads[name] = grads[name] + contrib
    return data_loss + penalty, grads


@dataclass
class RunHistory:
    """Per-epoch training record, one row per completed epoch."""
    mean_loss: list[float]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_loss"])
            for i, loss in enumerate(self.mean_loss, start=1):
                writer.writerow([i, repr(loss)])

    @classmethod
    def from_csv(cls, path) -> "RunHistory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][:2] != ["epoch", "mean_loss"]:
            raise ValueError(f"{path} is not a run history file")
        return cls([float(r[1]) for r in rows[1:]])


def fit(network: Network, train, cfg: TrainConfig, rng: RngStream,
        layout=None) -> tuple[dict[str, Tensor], RunHistory]:
    """Train a network on preprocessed segments.

    ``train`` carries ``segments`` of shape (n, 16, 3000) and per-segment
    ``labels`` in {0, 1}; nothing else of it is read, so no test data can
    leak in.

    A non-finite batch loss or gradient raises TrainingDivergedError before
    that batch updates any parameter, and an update that leaves any state
    array non-finite raises it after, so diverged parameters are never
    returned.

    Returns the final network state and the run history.
    """
    labels = np.asarray(train.labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    w_pos, w_neg = class_weights(n_pos, n_neg)  # raises unless both classes are present

    n = train.segments.shape[0]
    shuffle_rng = rng.split("shuffle")
    dropout_rng = rng.split("dropout")
    adam = AdamState(network.params())

    mean_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                break  # batch norm cannot train on a single segment
            # only this batch goes on the topology grid, never a copy of the subject
            x = reshape_batch(train.segments[idx], cfg.topology, layout)
            loss, grads = batch_loss_and_grads(
                network, x, labels[idx], w_pos, w_neg, L1_PENALTY, L2_PENALTY, dropout_rng)
            where = f"at epoch {epoch}, batch {len(batch_losses) + 1}"
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss {loss} {where}")
            for name, grad in grads.items():
                if not np.isfinite(grad).all():
                    raise TrainingDivergedError(f"non-finite gradient for {name} {where}")
            adam_step(network.params(), grads, adam, cfg)
            for name, value in network.state().items():
                if not np.isfinite(value).all():
                    raise TrainingDivergedError(f"non-finite {name} after the update {where}")
            batch_losses.append(loss)
        mean_losses.append(float(np.mean(batch_losses)))

    return network.state(), RunHistory(mean_losses)
