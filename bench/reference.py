"""Independent reference computations and the output checks built on them.

Nothing here imports the package under test: the SplitMix64 stream, the
mask-size rule, the gossip matrices and the closed forms are written out
again from their definitions, so a check cannot pass by sharing a bug with
the code it checks.  Every check raises `CheckFailed` with a message naming
what was wrong.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# First outputs of SplitMix64 seeded with 0, as published with the generator.
PUBLISHED_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Wire size of a MODEL_VALUES frame: 10-byte header, round u64, sender u32,
# count u32, the values, crc32.
FRAME_OVERHEAD = 10 + 8 + 4 + 4 + 4
VALUE_BYTES = 8


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def splitmix64(seed: int, count: int) -> list[int]:
    """The first `count` outputs of SplitMix64(seed), one at a time."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_block(seed: int, count: int) -> np.ndarray:
    """The same outputs as `splitmix64`, computed for all positions at once.

    Output j (from 0) finalises the state seed + (j + 1) * GOLDEN; uint64
    arithmetic wraps modulo 2**64 as the generator requires.
    """
    with np.errstate(over="ignore"):
        state = np.uint64(seed & MASK64) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        z = (state ^ (state >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def mask_size(seed: int, c: int, n_dims: int) -> int:
    """How many of the n_dims coordinates a round with this seed exchanges.

    Coordinate j is included iff the j-th output is below 2**64 // c; with
    c = 1 that bound exceeds every output, so all coordinates are included.
    """
    if c == 1:
        return n_dims
    return int(np.count_nonzero(splitmix64_block(seed, n_dims) < np.uint64((1 << 64) // c)))


def frame_bytes(k: int) -> int:
    return FRAME_OVERHEAD + VALUE_BYTES * k


def gossip_matrix(n: int, pairs) -> np.ndarray:
    """Pairs average 1/2-1/2, every other worker keeps its own model."""
    w = np.eye(n)
    for i, j in pairs:
        w[i, i] = w[j, j] = w[i, j] = w[j, i] = 0.5
    return w


def check_mean_model(models: np.ndarray, targets: np.ndarray, x0: np.ndarray,
                     gamma: float, rounds: int, rtol: float = 1e-9) -> None:
    """The workers' mean model after `rounds` quadratic steps with pair averaging.

    Arrays are (workers, N).  Averaging preserves the mean and the step
    x <- x - gamma (x - b_i) moves it to b + (1 - gamma) (mean - b), so after
    T rounds the mean is b + (1 - gamma)**T (x0 - b).
    """
    b_bar = targets.mean(axis=0)
    want = b_bar + (1.0 - gamma) ** rounds * (x0.mean(axis=0) - b_bar)
    got = models.mean(axis=0)
    err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    if not err <= rtol:
        raise CheckFailed(f"mean model is off the closed form by a relative {err:.3g} > {rtol:g}")


def check_matching(pairs, n: int, speeds: np.ndarray) -> None:
    """n // 2 vertex-disjoint pairs of distinct workers, each on a positive link."""
    seen: set[int] = set()
    for i, j in pairs:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise CheckFailed(f"pair ({i}, {j}) is not a pair of workers 0..{n - 1}")
        if i in seen or j in seen:
            raise CheckFailed(f"pair ({i}, {j}) shares a worker with another pair")
        if not speeds[i, j] > 0:
            raise CheckFailed(f"pair ({i}, {j}) has no bandwidth")
        seen.update((i, j))
    if len(seen) != 2 * (n // 2):
        raise CheckFailed(f"matching has {len(seen) // 2} pairs, want {n // 2}")


def check_round_frames(frame_lens: list[int], matched: int, k: int) -> None:
    """One frame of 30 + 8k bytes per matched worker; each is sent and received once,
    so the round moves 2 (30 + 8k) bytes per matched worker."""
    want = frame_bytes(k)
    if len(frame_lens) != matched:
        raise CheckFailed(f"{len(frame_lens)} frames for {matched} matched workers")
    if 2 * sum(frame_lens) != 2 * want * matched or any(size != want for size in frame_lens):
        raise CheckFailed(f"frame sizes {sorted(set(frame_lens))}, want {want} (k={k})")


def check_contraction_curve(ratios: np.ndarray) -> None:
    """The mean consensus-error ratio starts at 1 and never rises."""
    if ratios[0] != 1.0:
        raise CheckFailed(f"contraction curve starts at {ratios[0]!r}, not 1")
    rises = np.nonzero(np.diff(ratios) > 0)[0]
    if rises.size:
        t = int(rises[0])
        raise CheckFailed(f"contraction curve rises at t={t + 1}: {ratios[t]:.6g} -> {ratios[t + 1]:.6g}")


def second_eigenvalue(n: int, matchings) -> float:
    """Second-largest eigenvalue of the mean W^T W over the given matchings."""
    total = np.zeros((n, n))
    for pairs in matchings:
        w = gossip_matrix(n, pairs)
        total += w.T @ w
    return float(np.linalg.eigvalsh(total / len(matchings))[-2])


def check_rho(rho: float, n: int, matchings, atol: float = 1e-6) -> None:
    want = second_eigenvalue(n, matchings)
    if not abs(rho - want) <= atol:
        raise CheckFailed(f"rho {rho!r} differs from eigvalsh {want!r} by more than {atol:g}")


def check_unsquared_envelope(ratios: np.ndarray, rho: float, c: int, n_dims: int,
                             n_trials: int) -> None:
    """Mean ratio <= 1.1 (q + p rho)^t wherever the expected surviving mass is
    at least 50 coordinate-trials, the resolution rule of criterion 4b."""
    p = 1.0 / c
    envelope = ((1.0 - p) + p * rho) ** np.arange(ratios.size)
    resolved = envelope * n_dims * n_trials >= 50
    bad = np.nonzero((ratios > 1.1 * envelope) & resolved)[0]
    if bad.size:
        t = int(bad[0])
        raise CheckFailed(f"ratio {ratios[t]:.4g} > 1.1 x {envelope[t]:.4g} at t={t}")


def self_check() -> None:
    """The reference generator against its published outputs, both forms."""
    if tuple(splitmix64(0, 3)) != PUBLISHED_SEED0:
        raise CheckFailed("reference SplitMix64 disagrees with its published outputs")
    for seed in (0, 1, MASK64, 0x0123456789ABCDEF):
        if splitmix64_block(seed, 64).tolist() != splitmix64(seed, 64):
            raise CheckFailed(f"vectorised reference SplitMix64 disagrees for seed {seed:#x}")
