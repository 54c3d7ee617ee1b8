"""Per-worker round loop: local SGD, masked exchange, merge, acknowledgment.

A round is split into two phases so that transports can interleave the two
peers' sends however they need:

    frame   = worker.begin_round(start)        # RoundStart in; SGD step, mask, encode
    ack     = worker.finish_round(peer_frame)  # decode, merge; RoundEnd out
    reports = worker.drain_reports()           # link speeds, sent before the ack
"""

from __future__ import annotations

import math

import numpy as np

from . import sparsify, wire
from .core import ParameterVector
from .errors import NumericalError, ProtocolError, ValidationError


class Worker:
    """One SAPS-PSGD worker: its model `x`, local objective and round state.

    The SGD step and the merge update `x` in place and never rebind it. Once
    a fabric adopts the worker, `x` is the worker's row of the fabric's model
    matrix, so the fabric's `snapshot_models()` view sees every update.
    """

    def __init__(
        self,
        rank: int,
        x0: ParameterVector,
        objective,
        gamma: float,
        c: int,
        sample_seed: int = 0,
    ) -> None:
        if gamma < 0:
            raise ValidationError(f"learning rate must be >= 0, got {gamma}")
        self.rank = rank
        self.x = np.array(x0, dtype=np.float64)
        self.n_dims = self.x.size
        self.objective = objective
        self.gamma = gamma
        self.c = c
        self.round = 0
        self.sample_rng = np.random.default_rng(sample_seed)
        self._pending: tuple[sparsify.MaskStream, float, int | None] | None = None
        # link-speed measurements queued for the coordinator; drained by the
        # fabric just before each ROUND_END so they land inside the barrier
        self.pending_reports: list[list[tuple[int, float]]] = []

    def queue_bandwidth_report(self, entries: list[tuple[int, float]]) -> None:
        entries = list(entries)
        if len(entries) > wire.MAX_REPORT_ENTRIES:  # checked here for both fabrics
            raise ValidationError("too many bandwidth entries for one report")
        self.pending_reports.append(entries)

    def drain_reports(self) -> list[list[tuple[int, float]]]:
        reports, self.pending_reports = self.pending_reports, []
        return reports

    def local_sgd_step(self) -> float:
        """x <- x - gamma * g on a fresh mini-batch; returns the batch loss."""
        loss, grad = self.objective.loss_and_grad(self.x, self.sample_rng)
        # The objective hands over a fresh gradient, so the step is built in it:
        # x + (-gamma * g) is x - gamma * g bit for bit, as negation is exact.
        # A non-finite gradient makes the step non-finite, so one check covers
        # both, and `x` stays untouched when it fails. The loss is a Python
        # float, so `math.isfinite` tests it without a trip through numpy.
        grad *= -self.gamma
        grad += self.x
        if not (math.isfinite(loss) and np.isfinite(grad).all()):
            raise NumericalError(
                f"non-finite loss, gradient or model at worker {self.rank}, round {self.round}"
            )
        self.x[...] = grad
        return float(loss)

    def begin_round(self, msg: wire.RoundStart) -> bytes | None:
        """Run the local step and produce the outgoing payload frame (None on self-loop)."""
        if msg.round != self.round:
            raise ProtocolError(
                f"worker {self.rank} expected round {self.round}, coordinator sent {msg.round}"
            )
        loss = self.local_sgd_step()
        mask = sparsify.generate_mask(msg.seed, self.c, self.n_dims)
        self._pending = (mask, loss, msg.peer_id)
        if msg.peer_id is None:
            return None
        payload = sparsify.extract_payload(self.x, mask, msg.round, self.rank)
        return sparsify.encode_payload(payload)

    def finish_round(self, peer_frame: bytes | None) -> wire.RoundEnd:
        """Merge the peer's payload (if any), advance the round, emit the ack."""
        if self._pending is None:
            raise ProtocolError(f"worker {self.rank}: finish_round without begin_round")
        mask, loss, peer_id = self._pending
        self._pending = None
        if peer_id is not None:
            if peer_frame is None:
                raise ProtocolError(f"worker {self.rank}: expected a payload from peer {peer_id}")
            payload = sparsify.decode_payload(peer_frame)
            if payload.round != self.round:
                raise ProtocolError(
                    f"worker {self.rank}: peer payload is for round {payload.round}, "
                    f"current round is {self.round}"
                )
            if payload.sender != peer_id:
                raise ProtocolError(
                    f"worker {self.rank}: payload sender {payload.sender} is not the "
                    f"assigned peer {peer_id}"
                )
            sparsify.merge_masked(self.x, mask, payload)
        ack = wire.RoundEnd(self.round, self.rank, loss)
        self.round += 1
        return ack

    def model_frame(self) -> bytes:
        return wire.encode_model_full(self.x)

