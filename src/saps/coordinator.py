"""Central round state machine and the analytic communication-cost model.

The coordinator distributes round numbers, mask seeds and peer assignments,
enforces the ROUND_END barrier, and collects one full model at the end of
training.  It never receives model parameters during training: its per-round
traffic is O(1) control messages per worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import analysis, sparsify, transport, wire
from .core import (
    AdjacencyMatrix,
    BandwidthMatrix,
    CompressionConfig,
    GossipMatrix,
    Matching,
    SplitMix64,
)
from .errors import ProtocolError, ValidationError
from .matching import AdaptiveSelector, RandomSelector, RingSelector

ALGORITHMS = (
    "ps-psgd",
    "allreduce-psgd",
    "topk-psgd",
    "fedavg",
    "s-fedavg",
    "d-psgd",
    "dcd-psgd",
    "saps-psgd",
)

_NEEDS_C = {"topk-psgd", "s-fedavg", "dcd-psgd", "saps-psgd"}
_NEEDS_NEIGHBORS = {"d-psgd", "dcd-psgd"}


@dataclass(frozen=True)
class CostModelInput:
    algo: str
    n_dims: int  # model size N
    n_workers: int
    t_rounds: int
    c: int | None = None
    n_p: int | None = None  # neighbour count for the two neighbourhood algorithms

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algo!r}; one of {ALGORITHMS}")
        if min(self.n_dims, self.n_workers, self.t_rounds) < 1:
            raise ValidationError("N, n and T must all be >= 1")
        if self.algo in _NEEDS_C and (self.c is None or self.c < 1):
            raise ValidationError(f"{self.algo} requires a compression ratio c >= 1")
        if self.algo in _NEEDS_NEIGHBORS and (self.n_p is None or self.n_p <= 1):
            raise ValidationError(f"{self.algo} requires a neighbour count n_p > 1")


def comm_cost(inp: CostModelInput) -> tuple[float, float]:
    """Closed-form (server, per-worker) traffic in parameter counts."""
    n_dims, n, t = float(inp.n_dims), float(inp.n_workers), float(inp.t_rounds)
    match inp.algo:
        case "ps-psgd" | "fedavg":
            return 2 * n_dims * n * t, 2 * n_dims * t
        case "allreduce-psgd":
            return 0.0, 2 * n_dims * t
        case "topk-psgd":
            return 0.0, 2 * n * (n_dims / inp.c) * t
        case "s-fedavg":
            per = n_dims + 2 * n_dims / inp.c
            return per * n * t, per * t
        case "d-psgd":
            return n_dims, 4 * inp.n_p * n_dims * t
        case "dcd-psgd":
            return n_dims, 4 * inp.n_p * (n_dims / inp.c) * t
        case "saps-psgd":
            return n_dims, 2 * (n_dims / inp.c) * t
    raise AssertionError("unreachable")


def get_new_connected_graph(b: BandwidthMatrix, b_thres: float) -> AdjacencyMatrix:
    """Threshold filter: keep pairs with bandwidth >= b_thres (and > 0)."""
    edges = (b.speeds >= b_thres) & (b.speeds > 0)
    np.fill_diagonal(edges, False)
    return AdjacencyMatrix(edges)


def default_b_thres(b: BandwidthMatrix) -> float:
    """B_thres when none is configured: the median positive link speed (0.0 if none)."""
    positive = b.speeds[b.speeds > 0]
    return float(np.median(positive)) if positive.size else 0.0


def make_selector(
    mode: str,
    b: BandwidthMatrix,
    b_thres: float | None,
    t_thres: int,
    rng: random.Random,
) -> AdaptiveSelector | RandomSelector | RingSelector:
    """The peer selector of a run; b_thres None means `default_b_thres(b)`."""
    if mode == "adaptive":
        if b_thres is None:
            b_thres = default_b_thres(b)
        return AdaptiveSelector(b, get_new_connected_graph(b, b_thres), t_thres, rng)
    if mode == "random":
        return RandomSelector(b, rng)
    if mode == "ring":
        return RingSelector(b.n)
    raise ValidationError(f"unknown peer-selection mode {mode!r}")


def run_streams(master_seed: int) -> tuple[SplitMix64, random.Random]:
    """A run's two protocol streams: per-round mask seeds and the matching RNG."""
    roots = SplitMix64(master_seed)
    return SplitMix64(roots.next_u64()), random.Random(roots.next_u64())


@dataclass(frozen=True)
class RoundPlan:
    t: int
    seed: int
    gossip: GossipMatrix
    matching: Matching
    mask_count: int
    frame_bytes: int
    min_bw: float
    mean_bw: float
    seconds: float


@dataclass
class BarrierState:
    t: int
    acked: set[int] = field(default_factory=set)
    losses: dict[int, float] = field(default_factory=dict)


class Coordinator:
    """Round state machine over n workers.

    The master seed feeds two streams: per-round mask seeds and the matching
    randomisation, so a whole run is reproducible from one integer.
    """

    def __init__(
        self,
        b: BandwidthMatrix,
        b_thres: float | None,
        t_thres: int,
        master_seed: int,
        c: int,
        n_dims: int,
        peer_selection: str = "adaptive",
    ) -> None:
        if b.n < 2:
            raise ValidationError(f"need at least 2 workers, got {b.n}")
        self.n = b.n
        self.b = b
        self.compression = CompressionConfig(c)
        self.n_dims = n_dims
        self._seed_stream, match_rng = run_streams(master_seed)
        self.selector = make_selector(peer_selection, b, b_thres, t_thres, match_rng)

        self.t = 0
        self.records: list[analysis.RoundRecord] = []
        # latest per-direction speed reports; B is their min-symmetrization
        self._raw_speeds = b.speeds.copy()
        self.cum_time = 0.0
        self.values_per_worker = np.zeros(self.n, dtype=np.int64)
        self.model_bytes_received = 0
        self.model_values_received = 0
        self._wtw_sum = np.zeros((self.n, self.n))

    def plan_round(self) -> RoundPlan:
        seed = self._seed_stream.next_u64()
        gossip, matching = self.selector.next_round()
        mask_count = sparsify.generate_mask(seed, self.compression.c, self.n_dims).count
        frame_bytes = sparsify.payload_frame_bytes(mask_count)
        speeds = [self.b.speeds[i, j] for i, j in sorted(matching.pairs)]
        # a matching's W is symmetric and idempotent with entries 0, 1/2 and 1,
        # so W^T W is W exactly, bit for bit
        self._wtw_sum += gossip.weights
        return RoundPlan(
            t=self.t,
            seed=seed,
            gossip=gossip,
            matching=matching,
            mask_count=mask_count,
            frame_bytes=frame_bytes,
            min_bw=min(speeds) if speeds else 0.0,
            mean_bw=float(np.mean(speeds)) if speeds else 0.0,
            seconds=transport.round_time(matching, frame_bytes, self.b),
        )

    def note_round_end(self, barrier: BarrierState, ack: wire.RoundEnd) -> None:
        if ack.round != barrier.t:
            raise ProtocolError(
                f"worker {ack.worker_id} acknowledged round {ack.round}, "
                f"coordinator is at round {barrier.t}"
            )
        if ack.worker_id in barrier.acked:
            raise ProtocolError(f"duplicate ROUND_END from worker {ack.worker_id}")
        if not 0 <= ack.worker_id < self.n:
            raise ProtocolError(f"ROUND_END from unknown worker {ack.worker_id}")
        barrier.acked.add(ack.worker_id)
        barrier.losses[ack.worker_id] = ack.local_loss

    def handle_bandwidth_report(self, report: wire.BandwidthReport) -> None:
        """Fold a worker's measured link speeds into B (slow-direction rule).

        Updated speeds steer the selector and the timing model from the next
        round on.  The threshold graph B* stays fixed, but no selector matches
        over a link while its speed is 0.
        """
        if report.worker_id >= self.n:
            raise ProtocolError(f"bandwidth report from unknown worker {report.worker_id}")
        for peer, bps in report.entries:
            if not 0 <= peer < self.n or peer == report.worker_id:
                raise ProtocolError(f"bandwidth report names invalid peer {peer}")
            if not np.isfinite(bps) or bps < 0:
                raise ProtocolError("bandwidth report carries an invalid speed")
            self._raw_speeds[report.worker_id, peer] = bps
        speeds = np.minimum(self._raw_speeds, self._raw_speeds.T)
        np.fill_diagonal(speeds, 0.0)
        self.b = self.selector.b = BandwidthMatrix(speeds)

    def run_round(self, fabric) -> analysis.RoundRecord:
        """One full synchronous round over the given fabric."""
        plan = self.plan_round()
        peer_of = {i: j for i, j in plan.matching.pairs} | {
            j: i for i, j in plan.matching.pairs
        }
        for wid in range(self.n):
            fabric.start_round(wid, wire.RoundStart(plan.t, plan.seed, peer_of.get(wid), 0))

        barrier = BarrierState(plan.t)
        while len(barrier.acked) < self.n:
            wid, msg = fabric.recv_from_workers()
            if isinstance(msg, wire.RoundEnd):
                if msg.worker_id != wid:
                    raise ProtocolError(
                        f"ROUND_END from worker {wid} claims to be from worker {msg.worker_id}"
                    )
                self.note_round_end(barrier, msg)
            elif isinstance(msg, wire.BandwidthReport):
                self.handle_bandwidth_report(msg)
            else:
                raise ProtocolError(
                    f"unexpected {type(msg).__name__} from worker {wid} at the barrier")

        matched = {v for pair in plan.matching.pairs for v in pair}
        self.values_per_worker[list(matched)] += 2 * plan.mask_count
        self.cum_time += plan.seconds
        mean_loss = float(np.mean([barrier.losses[w] for w in range(self.n)]))
        bytes_per_worker = 2.0 * plan.frame_bytes * len(matched) / self.n
        record = analysis.RoundRecord(
            round=plan.t,
            seed=plan.seed,
            pairs=tuple(sorted(plan.matching.pairs)),
            bytes_per_worker=bytes_per_worker,
            min_bw=plan.min_bw,
            mean_bw=plan.mean_bw,
            consensus_err=analysis.consensus_error(fabric.snapshot_models()),
            mean_loss=mean_loss,
            cum_time=self.cum_time,
        )
        self.records.append(record)
        self.t += 1
        return record

    def collect_final_model(self, fabric) -> np.ndarray:
        """Fetch worker 0's dense model; the coordinator's only model traffic."""
        frame = fabric.request_model(0)
        msg_type, body = wire.parse_frame(frame)
        if msg_type != wire.MSG_MODEL_FULL:
            raise ProtocolError(f"expected MODEL_FULL, got msg_type {msg_type}")
        model = wire.decode_model_full(body)
        if model.values.size != self.n_dims:
            raise ProtocolError(
                f"final model has {model.values.size} values, expected {self.n_dims}"
            )
        self.model_bytes_received += len(frame)
        self.model_values_received += model.values.size
        return model.values

    def mean_wtw(self) -> np.ndarray:
        if self.t == 0:
            raise ValidationError("no rounds have run")
        return self._wtw_sum / self.t
