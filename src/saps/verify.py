"""Named verification checks behind `saps verify`.

Each check is a pure function returning a CheckResult; the acceptance tests
reuse them so that the CLI gate and the pytest gate agree.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis, sparsify
from .coordinator import CostModelInput, comm_cost, make_selector
from .core import AdjacencyMatrix, GossipMatrix, symmetrize_bandwidth
from .errors import InvariantViolation, ProtocolError
from .matching import AdaptiveSelector, max_matching, randomly_max_match


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _timed(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def make_adaptive_selector(
    n: int, seed: int, bandwidth: np.ndarray | None = None, t_thres: int = 10
) -> AdaptiveSelector:
    """The default generator used by the statistical checks: uniform random
    bandwidth on (0, 5 MB/s], the default B_thres."""
    rng = np.random.default_rng(seed)
    raw = bandwidth if bandwidth is not None else 5e6 - rng.uniform(0, 5e6, size=(n, n))
    return make_selector("adaptive", symmetrize_bandwidth(raw), None, t_thres, random.Random(seed))


def check_gossip_invariants(n_matrices: int = 10_000) -> CheckResult:
    """Every generated W is doubly stochastic, symmetric, idempotent (1e-12)."""

    def run():
        sizes = (2, 3, 4, 8, 16, 32)
        per_size = n_matrices // len(sizes)
        checked = 0
        for n in sizes:
            sel = make_adaptive_selector(n, seed=1000 + n)
            for _ in range(per_size):
                w, _ = sel.next_round()
                try:
                    w.validate(atol=1e-12)
                except InvariantViolation as e:
                    return False, f"n={n}: {e}"
                checked += 1
        return True, f"{checked} matrices across n={sizes} all pass at 1e-12"

    return _timed("gossip-matrix-invariants", run)


def brute_force_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Exhaustive maximum-matching cardinality via bitmask DP (oracle, n <= ~20)."""
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = best(rest)
        avail = nbr[v] & rest
        while avail:
            u = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    try:
        return best((1 << n) - 1)
    finally:
        best.cache_clear()


def check_matching_oracle(n_graphs: int = 200) -> CheckResult:
    """Blossom cardinality equals the exhaustive maximum on random graphs."""

    def run():
        rng = np.random.default_rng(42)
        rand = random.Random(42)
        for k in range(n_graphs):
            n = int(rng.integers(2, 11))
            p = float(rng.choice([0.2, 0.5, 0.8]))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = AdjacencyMatrix.from_pairs(n, edges)
            want = brute_force_matching_size(n, edges)
            got = len(max_matching(g))
            got_rand = len(randomly_max_match(g, rand))
            if got != want or got_rand != want:
                return False, f"graph {k} (n={n}): blossom {got}/{got_rand} vs brute {want}"
        return True, f"{n_graphs} random graphs (n<=10, p in 0.2/0.5/0.8) match the oracle"

    return _timed("matching-vs-exhaustive-oracle", run)


def check_lemma_identity(n_instances: int = 1000) -> CheckResult:
    """(A o M) W == (A W) o M for column-identical masks and matching Ws."""

    def run():
        rng = np.random.default_rng(7)
        rand = random.Random(7)
        worst = 0.0
        for k in range(n_instances):
            n = int(rng.choice([2, 4, 8]))
            n_dims = int(rng.choice([1, 3, 17]))
            a = rng.normal(size=(n_dims, n))
            mask = sparsify.generate_mask(int(rng.integers(1 << 62)), int(rng.choice([1, 2, 4])), n_dims)
            m = np.repeat(mask.included[:, None], n, axis=1).astype(float)
            g = AdjacencyMatrix.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
            w = GossipMatrix.from_matching(randomly_max_match(g, rand)).weights
            lhs = (a * m) @ w
            rhs = (a @ w) * m
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            if worst > 1e-12:
                return False, f"instance {k}: max deviation {worst:.2e} > 1e-12"
        return True, f"{n_instances} instances, worst deviation {worst:.2e}"

    return _timed("mask-gossip-commutation", run)


def check_contraction(
    grid: tuple[tuple[int, int], ...] = ((2, 1), (2, 2), (2, 10), (2, 100),
                                         (4, 1), (4, 2), (4, 10), (4, 100),
                                         (8, 1), (8, 2), (8, 10), (8, 100),
                                         (16, 1), (16, 2), (16, 10), (16, 100)),
    n_trials: int = 500,
    t_max: int = 100,
    rho_samples: int = 1000,
) -> CheckResult:
    """Mean consensus-error decay against the stated (q + p*rho^2)^t envelope.

    Also reports the (q + p*rho)^t envelope, which is the rate the sampled
    i.i.d.-matching process actually follows; see the acceptance notes.
    """

    def run():
        failures: list[str] = []
        corrected_failures: list[str] = []
        n_dims = 16
        for n, c in grid:
            sel = make_adaptive_selector(n, seed=20_000 + 7 * n + c)
            rho = analysis.estimate_rho(sel, rho_samples).rho
            rng = np.random.default_rng(31_000 + 7 * n + c)
            ratios = analysis.measure_contraction(n, c, sel, t_max, n_trials, rng, n_dims)
            p = 1.0 / c
            stated = 1.1 * analysis.contraction_bound(p, rho, t_max, squared=True)
            unsquared = analysis.contraction_bound(p, rho, t_max, squared=False)
            bad = np.nonzero(ratios > stated)[0]
            if bad.size:
                t = int(bad[0])
                failures.append(f"(n={n},c={c}) t={t}: {ratios[t]:.3g} > {stated[t]:.3g}")
            # the unsquared envelope is checked only where the Monte-Carlo
            # estimator still resolves the mean (enough surviving mass)
            resolved = unsquared * n_dims * n_trials >= 50
            bad2 = np.nonzero((ratios > 1.1 * unsquared) & resolved)[0]
            if bad2.size:
                t = int(bad2[0])
                corrected_failures.append(
                    f"(n={n},c={c}) t={t}: {ratios[t]:.3g} > {1.1 * unsquared[t]:.3g}"
                )
        if failures:
            detail = (
                f"stated (q+p*rho^2)^t bound violated at {len(failures)}/{len(grid)} "
                f"configs, first: {failures[0]}; "
                + (
                    "unsquared (q+p*rho)^t envelope holds at every config"
                    if not corrected_failures
                    else f"unsquared envelope also violated: {corrected_failures[0]}"
                )
            )
            return False, detail
        return True, f"stated bound holds on all {len(grid)} configs"

    return _timed("consensus-contraction-bound", run)


def check_rho_discriminator() -> CheckResult:
    """Connected bandwidth graph gives rho < 1 - 1e-3; a bipartitioned one gives 1."""

    def run():
        sel = make_adaptive_selector(8, seed=5)
        rho_conn = analysis.estimate_rho(sel, 1000).rho
        if rho_conn >= 1 - 1e-3:
            return False, f"connected graph: rho={rho_conn:.6f} not < 1-1e-3"
        rng = np.random.default_rng(6)
        raw = 5e6 - rng.uniform(0, 5e6, size=(8, 8))
        raw[:4, 4:] = 0.0
        raw[4:, :4] = 0.0
        sel2 = make_adaptive_selector(8, seed=6, bandwidth=raw)
        rho_split = analysis.estimate_rho(sel2, 1000).rho
        if abs(rho_split - 1.0) > 1e-9:
            return False, f"bipartitioned graph: rho={rho_split!r} not 1 +- 1e-9"
        return True, f"connected rho={rho_conn:.4f}, bipartitioned rho={rho_split:.12f}"

    return _timed("mixing-assumption-discriminator", run)


def check_cost_model() -> CheckResult:
    """All eight closed-form traffic rows, spot values exact."""

    def run():
        n_dims, n, t, c, n_p = 100, 8, 10, 10, 2
        expected = {
            "ps-psgd": (2 * n_dims * n * t, 2 * n_dims * t),
            "allreduce-psgd": (0, 2 * n_dims * t),
            "topk-psgd": (0, 2 * n * (n_dims / c) * t),
            "fedavg": (2 * n_dims * n * t, 2 * n_dims * t),
            "s-fedavg": ((n_dims + 2 * n_dims / c) * n * t, (n_dims + 2 * n_dims / c) * t),
            "d-psgd": (n_dims, 4 * n_p * n_dims * t),
            "dcd-psgd": (n_dims, 4 * n_p * (n_dims / c) * t),
            "saps-psgd": (n_dims, 2 * (n_dims / c) * t),
        }
        for algo, want in expected.items():
            got = comm_cost(CostModelInput(algo, n_dims, n, t, c=c, n_p=n_p))
            if got != want:
                return False, f"{algo}: got {got}, want {want}"
        spot = comm_cost(CostModelInput("saps-psgd", 100, 8, 10, c=10))
        if spot != (100.0, 200.0):
            return False, f"saps spot value: {spot}"
        return True, "all 8 rows exact"

    return _timed("communication-cost-model", run)


def check_codec(n_payloads: int = 200) -> CheckResult:
    """Payload frames round-trip bit-exactly; corruption raises protocol errors."""

    def run():
        rng = np.random.default_rng(11)
        for k in range(n_payloads):
            count = int(rng.integers(0, 1000))
            p = sparsify.SparsePayload(
                int(rng.integers(1 << 62)), int(rng.integers(0, 64)), rng.normal(size=count)
            )
            frame = sparsify.encode_payload(p)
            q = sparsify.decode_payload(frame)
            if q.round != p.round or q.sender != p.sender or not np.array_equal(q.values, p.values):
                return False, f"payload {k} did not round-trip"
            flipped = bytearray(frame)
            flipped[len(frame) - 6] ^= 0xFF  # inside the value bytes
            try:
                sparsify.decode_payload(bytes(flipped))
                return False, "corrupted frame decoded without error"
            except ProtocolError:
                pass
        return True, f"{n_payloads} round-trips, corruption always detected"

    return _timed("wire-codec", run)


def run_verification_suite(quick: bool = False) -> list[CheckResult]:
    if quick:
        return [
            check_gossip_invariants(2000),
            check_matching_oracle(50),
            check_lemma_identity(200),
            check_contraction(grid=((2, 2), (4, 10)), n_trials=200, rho_samples=400),
            check_rho_discriminator(),
            check_cost_model(),
            check_codec(50),
        ]
    return [
        check_gossip_invariants(),
        check_matching_oracle(),
        check_lemma_identity(),
        check_contraction(),
        check_rho_discriminator(),
        check_cost_model(),
        check_codec(),
    ]
