"""Theory verification and run metrics.

Spectral estimation of the mixing factor rho, measurement of the sparsified
consensus contraction, the consensus/convergence bound constants, bandwidth
utilisation statistics, and CSV export of per-round records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import TheoryConstants
from .errors import ValidationError
from .sparsify import generate_mask

CSV_HEADER = "round,pairs,bytes_per_worker,min_bw,mean_bw,consensus_err,mean_loss,cum_time"


@dataclass(frozen=True)
class RoundRecord:
    """Metrics of one synchronous round."""

    round: int
    seed: int  # the round's mask seed; not a CSV column
    pairs: tuple[tuple[int, int], ...]
    bytes_per_worker: float  # payload-frame bytes sent+received, averaged over workers
    min_bw: float  # bottleneck bandwidth over matched pairs (0 if none matched)
    mean_bw: float
    consensus_err: float  # sum_i ||x_i - xbar||^2
    mean_loss: float
    cum_time: float  # cumulative virtual communication time, seconds


@dataclass(frozen=True)
class SpectralEstimate:
    rho: float
    n_samples: int
    std_error: float


# coordinates per pass of `consensus_error`: an (n x block) slice of a
# 16-worker model matrix and its deviations stay in the CPU caches
_CONSENSUS_BLOCK = 4096


def consensus_error(models: np.ndarray) -> float:
    """sum_i ||x_i - xbar||^2 for models stacked as columns (N x n).

    Walks the coordinates in blocks of 4096 and sums the blocks' squared
    deviations in block order; within a block the sum runs in the array's
    memory order, so the fabrics' worker-major snapshots (an n x N stack seen
    through a transpose) are never copied into column order. With N <= 4096
    this is the one-pass sum over all coordinates, bit for bit.
    """
    rows = models.T
    total = 0.0
    for start in range(0, rows.shape[1], _CONSENSUS_BLOCK):
        blk = rows[:, start : start + _CONSENSUS_BLOCK]
        d = (blk - blk.mean(axis=0)).ravel(order="K")
        total += float(d @ d)
    return total


def second_eigenvalue(mean_matrix: np.ndarray) -> float:
    """Second-largest eigenvalue of a symmetric doubly stochastic mean matrix.

    Deflates the known top eigenpair (eigenvalue 1, eigenvector 1/sqrt(n))
    and takes the largest eigenvalue of the remainder, clipped at 0.
    """
    m = np.asarray(mean_matrix, dtype=np.float64)
    return max(0.0, float(np.linalg.eigvalsh(m - 1.0 / m.shape[0])[-1]))


def estimate_rho(selector, n_samples: int, warmup: int | None = None) -> SpectralEstimate:
    """Sample gossip matrices from a selector in stationary operation.

    Averages W^T W over the samples and extracts the second-largest
    eigenvalue; the standard error comes from batch means over 10 chunks.
    """
    if n_samples < 100:
        raise ValidationError(f"need n_samples >= 100, got {n_samples}")
    if warmup is None:
        warmup = getattr(selector, "suggested_warmup", 0)
    for _ in range(warmup):
        selector.next_round()
    n = selector.n
    total = np.zeros((n, n))
    n_batches = 10
    batch_tot = np.zeros((n_batches, n, n))
    for k in range(n_samples):
        w, _ = selector.next_round()
        # a matching's W is symmetric and idempotent, so W^T W is W bit for bit
        total += w.weights
        batch_tot[k * n_batches // n_samples] += w.weights
    rho = second_eigenvalue(total / n_samples)
    batch_sizes = np.bincount(
        [k * n_batches // n_samples for k in range(n_samples)], minlength=n_batches
    )
    batch_rhos = [second_eigenvalue(batch_tot[b] / batch_sizes[b]) for b in range(n_batches)]
    se = float(np.std(batch_rhos, ddof=1) / math.sqrt(n_batches))
    return SpectralEstimate(rho, n_samples, se)


def measure_contraction(
    n: int,
    c: int,
    selector,
    t_max: int,
    n_trials: int,
    rng: np.random.Generator,
    n_dims: int = 16,
) -> np.ndarray:
    """Mean e_t / e_0 over trials of pure sparsified gossip (gamma = 0).

    Each trial starts from fresh random models and consumes the next t_max
    rounds of the (stationary, continuing) selector stream.  Returns the
    array of mean ratios indexed by t = 0..t_max; comparison against a bound
    is the caller's job (see `check_contraction_bound`).
    """
    if n_trials < 1 or t_max < 1:
        raise ValidationError("need n_trials >= 1 and t_max >= 1")
    ratios = np.zeros((n_trials, t_max + 1))
    seed_stream = rng.integers(0, 1 << 63, size=(n_trials, t_max))
    for trial in range(n_trials):
        x = rng.normal(size=(n_dims, n))
        e0 = consensus_error(x)
        ratios[trial, 0] = 1.0
        for t in range(1, t_max + 1):
            w, _ = selector.next_round()
            mask = generate_mask(int(seed_stream[trial, t - 1]), c, n_dims)
            idx = mask.indices
            x[idx] = x[idx] @ w.weights
            ratios[trial, t] = consensus_error(x) / e0
    return ratios.mean(axis=0)


def contraction_bound(p: float, rho: float, t_max: int, *, squared: bool = True) -> np.ndarray:
    """(q + p*rho^2)^t (as stated) or (q + p*rho)^t (the rate the sampled
    process provably follows) for t = 0..t_max."""
    factor = (1.0 - p) + p * (rho * rho if squared else rho)
    return factor ** np.arange(t_max + 1)


def d_constants(p: float, rho: float) -> tuple[float, float]:
    """Consensus-bound constants D1 = 2/(1 - sqrt(q + p*rho))^2 and
    D2 = 2/(1 - (q + p*rho^2))."""
    if not (0 < p <= 1):
        raise ValidationError(f"p must be in (0, 1], got {p}")
    if not (0 <= rho < 1):
        raise ValidationError(f"rho must be in [0, 1), got {rho}")
    q = 1.0 - p
    base1 = 1.0 - math.sqrt(q + p * rho)
    base2 = 1.0 - (q + p * rho * rho)
    if base1 <= 0 or base2 <= 0:
        raise ValidationError("degenerate mixing: q + p*rho reaches 1")
    return 2.0 / (base1 * base1), 2.0 / base2


def theorem_bound(
    k: TheoryConstants,
    n: int,
    t_rounds: int,
    d1: float,
    d2: float,
    x0_consensus: float,
) -> float:
    """Closed-form bound on the running average of ||grad f(xbar_t)||^2.

    Four terms: stochastic noise O(1/sqrt(nT)), optimality-gap and mixing
    O(1/T), heterogeneity O(1/T), and the initial-consensus term, which
    vanishes when all workers start from the same model.
    """
    if k.sigma == 0:
        raise ValidationError(
            "sigma must be positive: the bound's step size divides by sigma"
        )
    if t_rounds < 1:
        raise ValidationError("need T >= 1")
    if x0_consensus < 0:
        raise ValidationError("x0_consensus is a squared norm and must be >= 0")
    sigma, zeta, lip, gap = k.sigma, k.zeta, k.lipschitz, k.f0_minus_fstar
    term1 = (6.0 * sigma * gap + 3.0 * sigma) / (2.0 * math.sqrt(n * t_rounds))
    term2 = (6.0 * math.sqrt(3.0) * lip * gap + 2.0 * lip**2 * d1 * n) / t_rounds
    term3 = 3.0 * lip**2 * d1 * n * zeta**2 / (sigma**2 * t_rounds)
    term4 = 2.0 * lip**2 * d2 * x0_consensus / (n * t_rounds)
    return term1 + term2 + term3 + term4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def export_csv(records: list[RoundRecord], path: str | Path) -> None:
    """One row per round, deterministic 17-significant-digit formatting."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.round),
                    str(len(r.pairs)),
                    _fmt(r.bytes_per_worker),
                    _fmt(r.min_bw),
                    _fmt(r.mean_bw),
                    _fmt(r.consensus_err),
                    _fmt(r.mean_loss),
                    _fmt(r.cum_time),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
