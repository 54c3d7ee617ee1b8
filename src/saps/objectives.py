"""Loss/gradient oracles and synthetic data shards.

Desk-scale stand-ins for the distributed objective
f(x) = (1/n) sum_i E_xi F_i(x; xi): a quadratic with a closed-form optimum,
regularised binary logistic regression on Gaussian clusters, and a small
one-hidden-layer tanh network.  Each worker holds one shard and evaluates
mini-batch losses and gradients on it.

`loss_and_grad(x, rng)` returns `(loss, grad)` with `grad` a fresh, writable
float64 array of `x`'s shape that shares no memory with `x` or with the
objective's own arrays.  The caller owns it and may overwrite it:
`Worker.local_sgd_step` scales it in place by the learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterVector
from .errors import ValidationError

_REG = 1e-4  # l2 coefficient for the logistic objective


@dataclass(frozen=True)
class DataShard:
    features: np.ndarray
    labels: np.ndarray
    scheme: str  # "iid" | "label-skew"

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValidationError("features and labels disagree on sample count")
        if self.features.shape[0] == 0:
            raise ValidationError("shard must be non-empty")


class QuadraticObjective:
    """f_i(x) = 1/2 ||x - b_i||^2; deterministic, gradient x - b_i."""

    def __init__(self, target: np.ndarray) -> None:
        self.target = np.asarray(target, dtype=np.float64)
        self.dim = self.target.size

    def loss_and_grad(self, x: ParameterVector, rng: np.random.Generator) -> tuple[float, np.ndarray]:
        d = x - self.target
        return 0.5 * float(d @ d), d

    def full_loss(self, x: ParameterVector) -> float:
        d = x - self.target
        return 0.5 * float(d @ d)


class LogisticObjective:
    """Binary cross-entropy over one shard with (reg/2)||w||^2."""

    def __init__(self, shard: DataShard, batch_size: int = 32, reg: float = _REG) -> None:
        self.shard = shard
        self.batch_size = min(batch_size, shard.features.shape[0])
        self.reg = reg
        self.dim = shard.features.shape[1]

    def _loss_grad(self, w: ParameterVector, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        z = X @ w
        # log(1 + exp(-y*z)) with labels in {0,1}: stable via logaddexp
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * self.reg * float(w @ w)
        with np.errstate(over="ignore"):  # exp(-z) = inf for z < -709 gives p = 0.0
            p = 1.0 / (1.0 + np.exp(-z))
        grad = X.T @ (p - y) / X.shape[0] + self.reg * w
        return loss, grad

    def loss_and_grad(self, w: ParameterVector, rng: np.random.Generator) -> tuple[float, np.ndarray]:
        idx = rng.integers(0, self.shard.features.shape[0], size=self.batch_size)
        return self._loss_grad(w, self.shard.features[idx], self.shard.labels[idx])

    def full_loss(self, w: ParameterVector) -> float:
        return self._loss_grad(w, self.shard.features, self.shard.labels)[0]


class MlpObjective:
    """One hidden tanh layer, sigmoid output, binary cross-entropy.

    Parameters are a flat vector [W1 (f x h), b1 (h), w2 (h), b2 (1)].
    """

    def __init__(self, shard: DataShard, hidden: int, batch_size: int = 32) -> None:
        self.shard = shard
        self.hidden = hidden
        self.batch_size = min(batch_size, shard.features.shape[0])
        self.n_features = shard.features.shape[1]
        self.dim = self.n_features * hidden + hidden + hidden + 1

    def _unpack(self, theta: ParameterVector):
        f, h = self.n_features, self.hidden
        w1 = theta[: f * h].reshape(f, h)
        b1 = theta[f * h : f * h + h]
        w2 = theta[f * h + h : f * h + 2 * h]
        b2 = theta[-1]
        return w1, b1, w2, b2

    def _loss_grad(self, theta: ParameterVector, X: np.ndarray, y: np.ndarray):
        w1, b1, w2, b2 = self._unpack(theta)
        a = np.tanh(X @ w1 + b1)
        z = a @ w2 + b2
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        m = X.shape[0]
        with np.errstate(over="ignore"):  # exp(-z) = inf for z < -709 gives 0.0
            dz = (1.0 / (1.0 + np.exp(-z)) - y) / m
        gw2 = a.T @ dz
        gb2 = float(dz.sum())
        da = np.outer(dz, w2) * (1.0 - a * a)
        gw1 = X.T @ da
        gb1 = da.sum(axis=0)
        grad = np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])
        return loss, grad

    def loss_and_grad(self, theta: ParameterVector, rng: np.random.Generator) -> tuple[float, np.ndarray]:
        idx = rng.integers(0, self.shard.features.shape[0], size=self.batch_size)
        return self._loss_grad(theta, self.shard.features[idx], self.shard.labels[idx])

    def full_loss(self, theta: ParameterVector) -> float:
        return self._loss_grad(theta, self.shard.features, self.shard.labels)[0]


@dataclass
class ObjectiveSet:
    """Per-worker objectives plus whatever exact oracles the family admits."""

    objectives: list
    initial_models: list[np.ndarray]
    x_star: np.ndarray | None = None
    f_star: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.objectives[0].dim


def make_quadratic(
    n_workers: int,
    n_dims: int,
    rng: np.random.Generator,
    heterogeneity: float = 1.0,
    init_spread: float = 1.0,
) -> ObjectiveSet:
    """Quadratics with targets b_i = b + heterogeneity * noise_i.

    The global optimum mean(b_i) and its value are exact oracles.  Initial
    models are spread around zero so that consensus work is visible.
    """
    if n_dims < 1:
        raise ValidationError("n_dims must be >= 1")
    base = rng.normal(size=n_dims)
    targets = [base + heterogeneity * rng.normal(size=n_dims) for _ in range(n_workers)]
    x_star = np.mean(targets, axis=0)
    f_star = float(np.mean([0.5 * np.sum((x_star - b) ** 2) for b in targets]))
    inits = [init_spread * rng.normal(size=n_dims) for _ in range(n_workers)]
    return ObjectiveSet(
        objectives=[QuadraticObjective(b) for b in targets],
        initial_models=inits,
        x_star=x_star,
        f_star=f_star,
        meta={"targets": targets},
    )


def _partition(
    X: np.ndarray, y: np.ndarray, n_workers: int, scheme: str, rng: np.random.Generator
) -> list[DataShard]:
    n = X.shape[0]
    if scheme == "iid":
        order = rng.permutation(n)
    elif scheme == "label-skew":
        # sort by label, stable-shuffled within, so each chunk is label-dominated
        order = rng.permutation(n)
        order = order[np.argsort(y[order], kind="stable")]
    else:
        raise ValidationError(f"unknown partition scheme {scheme!r}")
    chunks = np.array_split(order, n_workers)
    return [DataShard(X[c], y[c], scheme) for c in chunks]


def make_logistic(
    n_workers: int,
    n_samples: int,
    n_dims: int,
    partition: str,
    rng: np.random.Generator,
    batch_size: int = 32,
    separation: float = 2.0,
) -> ObjectiveSet:
    """Two Gaussian class clusters at +-separation, split across workers."""
    if n_samples < n_workers:
        raise ValidationError("need at least one sample per worker")
    if separation <= 0:
        raise ValidationError("separation must be positive")
    y = (rng.random(n_samples) < 0.5).astype(np.float64)
    mu = rng.normal(size=n_dims)
    mu *= separation / np.linalg.norm(mu)
    X = rng.normal(size=(n_samples, n_dims)) + np.where(y[:, None] > 0.5, mu, -mu)
    shards = _partition(X, y, n_workers, partition, rng)
    x0 = 0.01 * rng.normal(size=n_dims)
    return ObjectiveSet(
        objectives=[LogisticObjective(s, batch_size) for s in shards],
        initial_models=[x0.copy() for _ in range(n_workers)],
    )


def make_mlp(
    n_workers: int,
    n_samples: int,
    n_features: int,
    hidden: int,
    partition: str,
    rng: np.random.Generator,
    batch_size: int = 32,
) -> ObjectiveSet:
    """Non-convex stand-in: XOR-like two-cluster-per-class data, shared init."""
    if n_samples < n_workers:
        raise ValidationError("need at least one sample per worker")
    y = (rng.random(n_samples) < 0.5).astype(np.float64)
    sign = np.where(rng.random(n_samples) < 0.5, 1.0, -1.0)
    X = 0.5 * rng.normal(size=(n_samples, n_features))
    X[:, 0] += sign * 2.0
    X[:, 1] += sign * np.where(y > 0.5, 2.0, -2.0)
    shards = _partition(X, y, n_workers, partition, rng)
    objs = [MlpObjective(s, hidden, batch_size) for s in shards]
    theta0 = 0.1 * rng.normal(size=objs[0].dim)
    return ObjectiveSet(
        objectives=objs,
        initial_models=[theta0.copy() for _ in range(n_workers)],
    )

