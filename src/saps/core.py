"""Shared domain types and the deterministic PRNG contract.

Model parameters are plain float64 numpy arrays; the wrapper types below
carry the matrices whose structure the rest of the system relies on
(bandwidth, adjacency, timestamps, gossip weights).  All wrapper types are
immutable after construction: the backing arrays are frozen, and updates
(timestamps) return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InvariantViolation, ValidationError

# A worker's flat model; by convention always a float64 1-D ndarray.
ParameterVector = np.ndarray

Pair = tuple[int, int]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Bit-exact SplitMix64 stream.

    All arithmetic is modulo 2**64:
        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        output z ^ (z >> 31)

    Two streams with equal seeds produce identical sequences on any
    implementation, which is what makes the shared mask seeds portable.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next_u64()


def splitmix64_array(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of ``SplitMix64(seed)`` as a uint64 array.

    Vectorised but bit-identical to the scalar stream: output i uses
    state = seed + (i+1) * GAMMA mod 2**64. Computed in place in one buffer
    plus one reused shift temporary.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)  # the states
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BandwidthMatrix:
    """Symmetric matrix of pairwise link speeds in bytes/second, zero diagonal."""

    speeds: np.ndarray

    def __post_init__(self) -> None:
        s = self.speeds
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValidationError("bandwidth matrix must be square")
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise ValidationError("bandwidth entries must be finite and >= 0")
        if np.any(np.diag(s) != 0):
            raise ValidationError("bandwidth diagonal must be zero")
        if not np.array_equal(s, s.T):
            raise ValidationError("bandwidth matrix must be symmetric")
        _frozen(s)

    @property
    def n(self) -> int:
        return self.speeds.shape[0]

    def positive_edges(self) -> "AdjacencyMatrix":
        e = self.speeds > 0
        np.fill_diagonal(e, False)
        return AdjacencyMatrix(e)


def symmetrize_bandwidth(raw: np.ndarray) -> BandwidthMatrix:
    """Build a BandwidthMatrix taking the slower direction of every link."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValidationError("raw bandwidth matrix must be square")
    if not np.all(np.isfinite(raw)) or np.any(raw < 0):
        raise ValidationError("raw bandwidth entries must be finite and >= 0")
    sym = np.minimum(raw, raw.T)
    np.fill_diagonal(sym, 0.0)
    return BandwidthMatrix(sym)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric boolean adjacency with empty diagonal."""

    edges: np.ndarray

    def __post_init__(self) -> None:
        e = self.edges
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.dtype != np.bool_:
            raise ValidationError("adjacency must be a square boolean matrix")
        if np.any(np.diag(e)):
            raise ValidationError("adjacency diagonal must be empty")
        if not np.array_equal(e, e.T):
            raise ValidationError("adjacency must be symmetric")
        _frozen(e)

    @property
    def n(self) -> int:
        return self.edges.shape[0]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "AdjacencyMatrix":
        e = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            e[i, j] = e[j, i] = True
        np.fill_diagonal(e, False)
        return cls(e)

    @cached_property  # stored in the instance __dict__, past the frozen __setattr__
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        e = self.edges
        flat = np.nonzero(e)[1].tolist()
        out, start = [], 0
        for deg in e.sum(axis=1).tolist():
            out.append(tuple(flat[start:start + deg]))
            start += deg
        return tuple(out)

    def neighbor_lists(self) -> list[list[int]]:
        """Fresh, mutable neighbour lists in ascending order (built once per matrix)."""
        return [list(nbrs) for nbrs in self._neighbors]


@dataclass(frozen=True)
class TimestampMatrix:
    """Last round at which each pair exchanged models.

    Initialised to -t_thres so that no pair counts as recently connected at
    round 0.  Updates are functional: `with_pairs` returns a new matrix.
    """

    last_round: np.ndarray

    def __post_init__(self) -> None:
        r = self.last_round
        if r.ndim != 2 or r.shape[0] != r.shape[1] or not np.issubdtype(r.dtype, np.integer):
            raise ValidationError("timestamp matrix must be a square integer matrix")
        if not np.array_equal(r, r.T):
            raise ValidationError("timestamp matrix must be symmetric")
        _frozen(r)

    @property
    def n(self) -> int:
        return self.last_round.shape[0]

    @classmethod
    def initial(cls, n: int, t_thres: int) -> "TimestampMatrix":
        if n < 1 or t_thres < 1:
            raise ValidationError("need n >= 1 and t_thres >= 1")
        return cls(np.full((n, n), -t_thres, dtype=np.int64))

    def with_pairs(self, pairs: Iterable[Pair], t: int) -> "TimestampMatrix":
        r = self.last_round.copy()
        for i, j in pairs:
            r[i, j] = r[j, i] = t
        return TimestampMatrix(r)


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint pairs plus the left-over workers."""

    n: int
    pairs: frozenset[Pair]
    unmatched: frozenset[int]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for i, j in self.pairs:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"bad pair ({i},{j}) for n={self.n}")
            if i > j:
                raise ValidationError("pairs must be stored as (low, high)")
            if i in seen or j in seen:
                raise ValidationError("pairs are not vertex-disjoint")
            seen.update((i, j))
        if seen & self.unmatched or seen | self.unmatched != set(range(self.n)):
            raise ValidationError("pairs and unmatched must partition all workers")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "Matching":
        norm = frozenset((min(i, j), max(i, j)) for i, j in pairs)
        used = {v for p in norm for v in p}
        return cls(n, norm, frozenset(range(n)) - used)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GossipMatrix:
    """Doubly stochastic mixing matrix built from a matching.

    Matched pairs get 1/2-1/2 rows, unmatched workers a self-loop row.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("gossip matrix must be square")
        _frozen(w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_matching(cls, m: Matching) -> "GossipMatrix":
        w = np.zeros((m.n, m.n))
        for i, j in m.pairs:
            w[i, i] = w[j, j] = w[i, j] = w[j, i] = 0.5
        for v in m.unmatched:
            w[v, v] = 1.0
        return cls(w)

    def validate(self, atol: float = 1e-12) -> None:
        """Raise InvariantViolation naming the first failed invariant."""
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise InvariantViolation("gossip matrix has non-finite entries")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > atol:
            raise InvariantViolation("gossip matrix row sums differ from 1")
        if np.max(np.abs(w.sum(axis=0) - 1.0)) > atol:
            raise InvariantViolation("gossip matrix column sums differ from 1")
        if np.max(np.abs(w - w.T)) > atol:
            raise InvariantViolation("gossip matrix is not symmetric")
        if np.max(np.abs(w @ w - w)) > atol:
            raise InvariantViolation("gossip matrix is not idempotent")


@dataclass(frozen=True)
class CompressionConfig:
    """Compression ratio c; a coordinate is exchanged with probability p = 1/c."""

    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 1:
            raise ValidationError(f"compression ratio c must be an integer >= 1, got {self.c!r}")
