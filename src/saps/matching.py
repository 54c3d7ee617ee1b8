"""Graph machinery for peer selection.

Maximum-cardinality matching on general graphs (Edmonds' blossom algorithm
seeded by a greedy pass), recently-connected-edge connectivity tests,
cross-component bridging, unmatched-worker fallback, and the stateful
per-round selectors built from them.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    AdjacencyMatrix,
    BandwidthMatrix,
    GossipMatrix,
    Matching,
    TimestampMatrix,
)
from .errors import ValidationError


def _augmenting_pass(n: int, adj: Sequence[Sequence[int]], match: list[int], root: int) -> bool:
    """Grow an alternating tree from `root`; contract blossoms; flip on success."""
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom to its base
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, stem, to, in_blossom)
                mark_path(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augmenting path found: flip matched/unmatched edges
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _max_matching_order(
    g: AdjacencyMatrix, order: Sequence[int], adj: Sequence[Sequence[int]]
) -> Matching:
    n = g.n
    match = [-1] * n
    # greedy seed: cheap, and already maximum on dense graphs
    for v in order:
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in order:
        if match[v] == -1:
            _augmenting_pass(n, adj, match, v)
    # through a set and from_pairs: the golden digests in
    # tests/test_selector_stream.py pin the matchings' iteration order,
    # which depends on how the frozenset was built
    return Matching.from_pairs(n, {(v, u) for v, u in enumerate(match) if u > v})


def max_matching(g: AdjacencyMatrix) -> Matching:
    """Maximum-cardinality matching (deterministic processing order)."""
    return _max_matching_order(g, range(g.n), g.neighbor_lists())


@lru_cache(maxsize=8)
def _shuffle_swaps(longest: int) -> tuple[tuple[int, int, int], ...]:
    """(i, i + 1, bit length of i + 1) for i = longest-1 .. 1: the swaps that
    `random.Random.shuffle` makes on a list of length `longest`, in its order.
    A list of length L makes the last L - 1 of them."""
    return tuple((i, i + 1, (i + 1).bit_length()) for i in range(longest - 1, 0, -1))


def shuffle_lists(lists: Sequence[list], rng: random.Random) -> None:
    """Shuffle each list in place, in turn, exactly as `rng.shuffle` would.

    For a plain `random.Random` the loop makes the same `getrandbits(k)`
    calls, with the same rejections, in the same order as `shuffle` and its
    `_randbelow`, and so makes the same swaps and leaves the same state; it
    only skips their per-call overhead.  Other generators use `rng.shuffle`.
    """
    if type(rng) is not random.Random:
        for x in lists:
            rng.shuffle(x)
        return
    longest = max(map(len, lists), default=0)
    swaps = _shuffle_swaps(longest)
    getrandbits = rng.getrandbits
    for x in lists:
        for i, bound, k in swaps[longest - len(x):]:
            j = getrandbits(k)
            while j >= bound:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


def randomly_max_match(g: AdjacencyMatrix, rng: random.Random) -> Matching:
    """Maximum-cardinality matching under a uniformly random vertex order.

    Both the root processing order and every neighbour list are permuted, so
    any maximum matching reachable under some order has positive probability.
    """
    order = list(range(g.n))
    adj = g.neighbor_lists()
    shuffle_lists([order, *adj], rng)
    return _max_matching_order(g, order, adj)


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Union-find component label per vertex for a boolean adjacency."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ii, jj = np.nonzero(np.triu(edges, 1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return np.array([find(v) for v in range(n)])


def rc_edges(r: TimestampMatrix, t_thres: int, t: int) -> np.ndarray:
    """Boolean adjacency of recently connected pairs: R_ij > t - t_thres."""
    q = r.last_round > (t - t_thres)
    np.fill_diagonal(q, False)
    return q


def if_connected(r: TimestampMatrix, t_thres: int, t: int) -> bool:
    """Whether the recently-connected graph spans all workers.

    Breadth first from worker 0, one whole layer per numpy step; the
    diagonal is left in, since a self-loop changes no worker's reach.
    """
    q = r.last_round > (t - t_thres)
    seen = q[0].copy()
    seen[0] = True
    count = int(np.count_nonzero(seen))
    while count < r.n:
        seen |= q[seen].any(axis=0)
        grown = int(np.count_nonzero(seen))
        if grown == count:
            return False
        count = grown
    return True


def get_over_time_matrix(
    r: TimestampMatrix, available: AdjacencyMatrix, t_thres: int, t: int
) -> AdjacencyMatrix:
    """Bridging candidates: available edges joining distinct RC components."""
    labels = _components(r.n, rc_edges(r, t_thres, t))
    cross = labels[:, None] != labels[None, :]
    return AdjacencyMatrix(cross & available.edges)


def get_unmatch(b: BandwidthMatrix, m: Matching) -> AdjacencyMatrix:
    """Positive-bandwidth edges restricted to the unmatched workers."""
    free = np.zeros(b.n, dtype=bool)
    free[list(m.unmatched)] = True
    e = (b.speeds > 0) & free[:, None] & free[None, :]
    np.fill_diagonal(e, False)
    return AdjacencyMatrix(e)


class AdaptiveSelector:
    """Adaptive peer selection (the paper's GenerateGossipMatrix); owns R and
    the round clock.

    The live B* (B* less the links whose current speed is 0) and its
    neighbour lists are built once per `b`.  R is a private int64 array
    updated in place; `_r_view` is a read-only TimestampMatrix over it,
    validated once, which the connectivity and bridging steps read.
    `b` may be replaced between rounds (the coordinator does so after a
    bandwidth report); B* is fixed, but a link leaves the live B* while its
    speed in `b` is 0.
    """

    def __init__(
        self,
        b: BandwidthMatrix,
        b_star: AdjacencyMatrix,
        t_thres: int,
        rng: random.Random,
    ) -> None:
        if t_thres < 1:
            raise ValidationError(f"t_thres must be >= 1, got {t_thres}")
        if b.n < 2:
            raise ValidationError(f"need at least 2 workers, got {b.n}")
        if b_star.n != b.n:
            raise ValidationError("matrix sizes do not match n")
        self.b_star = b_star
        self.b = b
        self.t_thres = t_thres
        self.rng = rng
        self._r = TimestampMatrix.initial(b.n, t_thres).last_round.copy()
        self._r_view = TimestampMatrix(self._r.view())
        self.t = 0

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def b(self) -> BandwidthMatrix:
        return self._b

    @b.setter
    def b(self, b: BandwidthMatrix) -> None:
        self._b = b
        self._b_live = AdjacencyMatrix(self.b_star.edges & (b.speeds > 0))

    @property
    def r(self) -> TimestampMatrix:
        """A snapshot of R; later rounds do not change it."""
        return TimestampMatrix(self._r.copy())

    @property
    def suggested_warmup(self) -> int:
        return 10 * self.t_thres

    def next_round(self) -> tuple[GossipMatrix, Matching]:
        """One round of peer selection.

        If the recently-connected graph is still connected, match on the live
        B*; otherwise match on bridging edges that join the stale components.
        Workers left over after the first match get a second randomised match
        over the positive-bandwidth links among them.  No link whose speed in
        `b` is 0 is matched, B*'s included.  R records the matched pairs at
        round t.
        """
        t, b, r_view = self.t, self._b, self._r_view
        if if_connected(r_view, self.t_thres, t):
            candidates = self._b_live
        else:
            candidates = get_over_time_matrix(r_view, b.positive_edges(), self.t_thres, t)
        match = randomly_max_match(candidates, self.rng)
        if len(match) < b.n // 2:
            extra = randomly_max_match(get_unmatch(b, match), self.rng)
            match = Matching.from_pairs(b.n, match.pairs | extra.pairs)
        r = self._r
        for i, j in match.pairs:
            r[i, j] = r[j, i] = t
        self.t = t + 1
        return GossipMatrix.from_matching(match), match


class RandomSelector:
    """Bandwidth-agnostic baseline: random maximum matching on the links
    whose current speed is positive."""

    suggested_warmup = 0

    def __init__(self, b: BandwidthMatrix, rng: random.Random) -> None:
        self.b = b
        self.rng = rng
        self.t = 0

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def b(self) -> BandwidthMatrix:
        return self._b

    @b.setter
    def b(self, b: BandwidthMatrix) -> None:
        self._b = b
        self.graph = b.positive_edges()

    def next_round(self) -> tuple[GossipMatrix, Matching]:
        m = randomly_max_match(self.graph, self.rng)
        self.t += 1
        return GossipMatrix.from_matching(m), m


class RingSelector:
    """Fixed ring 0 -> 1 -> ... -> n-1 -> 0, alternating its two perfect pairings;
    once the coordinator sets `b`, a ring pair whose speed is 0 is left out."""

    suggested_warmup = 0

    def __init__(self, n: int) -> None:
        if n < 2 or n % 2 != 0:
            raise ValidationError(f"ring selector needs an even n >= 2, got {n}")
        self.n = n
        self.b: BandwidthMatrix | None = None
        self.t = 0

    def next_round(self) -> tuple[GossipMatrix, Matching]:
        start = self.t % 2
        pairs = [(i, (i + 1) % self.n) for i in range(start, self.n + start - 1, 2)]
        if self.b is not None:
            pairs = [(i, j) for i, j in pairs if self.b.speeds[i, j] > 0]
        m = Matching.from_pairs(self.n, pairs)
        self.t += 1
        return GossipMatrix.from_matching(m), m
