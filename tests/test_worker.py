import math

import numpy as np
import pytest

from saps import sparsify, wire
from saps.analysis import consensus_error
from saps.coordinator import Coordinator
from saps.core import SplitMix64, symmetrize_bandwidth
from saps.errors import NumericalError, ProtocolError, ValidationError
from saps.objectives import QuadraticObjective, make_quadratic
from saps.sparsify import generate_mask
from saps.transport import SimFabric
from saps.worker import Worker


def pair_exchange(a: Worker, b: Worker, seed: int, rnd: int):
    """Drive one full round for a matched pair without a fabric."""
    msg_a = wire.RoundStart(rnd, seed, b.rank)
    msg_b = wire.RoundStart(rnd, seed, a.rank)
    out_a = a.begin_round(msg_a)
    out_b = b.begin_round(msg_b)
    return a.finish_round(out_b), b.finish_round(out_a)


def quad_worker(rank, x0, target, gamma, c=1, seed=0):
    return Worker(rank, np.asarray(x0, float), QuadraticObjective(np.asarray(target, float)),
                  gamma, c, sample_seed=seed)


class TestLocalSgdStep:
    def test_stationary_point(self):
        w = quad_worker(0, [2.0, -1.0], [2.0, -1.0], gamma=0.3)
        loss = w.local_sgd_step()
        assert loss == 0.0
        assert np.array_equal(w.x, [2.0, -1.0])

    def test_closed_form_single_step(self):
        w = quad_worker(0, [1.0], [0.0], gamma=0.5)
        w.local_sgd_step()
        assert w.x.tolist() == [0.5]  # (1 - gamma) * x0

    @staticmethod
    def failed_step(loss, grad, gamma, x0):
        """One step that must fail on an objective returning (loss, grad); x's bytes
        before and after it."""
        class Bad:
            dim = len(x0)

            def loss_and_grad(self, x, rng):
                return loss, np.array(grad)

        w = Worker(3, np.array(x0), Bad(), gamma, 1)
        before = w.x.tobytes()
        with pytest.raises(NumericalError, match="worker 3"), np.errstate(all="ignore"):
            w.local_sgd_step()
        return before, w.x.tobytes()

    def test_nonfinite_gradient_raises(self):
        before, after = self.failed_step(math.inf, [math.nan], 0.1, [0.0])
        assert after == before

    def test_overflowing_step_leaves_x_untouched(self):
        # the gradient is finite, but -gamma * g overflows to -inf
        before, after = self.failed_step(0.0, [1e308, 1.0], 10.0, [1.0, 1.0])
        assert after == before


class TestNonFiniteStepInBeginRound:
    """`extract_payload` does not check the values it sends: it relies on the
    SGD step of the same `begin_round` having proved `x` finite."""

    @pytest.mark.parametrize("bad", [math.nan, 1e308])  # NaN, and a step that overflows
    def test_raises_before_any_frame_and_changes_no_state(self, monkeypatch, bad):
        class GoesBad:
            dim = 2
            calls = 0

            def loss_and_grad(self, x, rng):
                self.calls += 1
                return 0.0, np.array([1.0, bad if self.calls > 1 else 1.0])

        w = Worker(0, np.array([1.0, 2.0]), GoesBad(), 10.0, 1)
        pair_exchange(w, quad_worker(1, [0.0, 0.0], [0.0, 0.0], 0.0), seed=3, rnd=0)
        built = []
        for name in ("extract_payload", "encode_payload"):
            monkeypatch.setattr(sparsify, name, lambda *a, name=name: built.append(name))
        before = w.x.tobytes()
        with pytest.raises(NumericalError, match="worker 0, round 1"), np.errstate(all="ignore"):
            w.begin_round(wire.RoundStart(1, 4, 1))
        assert built == []
        assert w.x.tobytes() == before
        assert w.round == 1 and w._pending is None
        with pytest.raises(ProtocolError, match="without begin_round"):
            w.finish_round(None)


class TestRunWorkerRound:
    def test_pure_averaging(self):
        a = quad_worker(0, [0.0], [0.0], gamma=0.0, c=1)
        b = quad_worker(1, [2.0], [0.0], gamma=0.0, c=1)
        ack_a, ack_b = pair_exchange(a, b, seed=9, rnd=0)
        assert a.x.tolist() == [1.0] and b.x.tolist() == [1.0]
        assert ack_a.round == 0 and ack_b.worker_id == 1

    def test_self_loop_round_only_applies_sgd(self):
        w = quad_worker(0, [1.0], [0.0], gamma=0.5, c=2)
        assert w.begin_round(wire.RoundStart(0, 5, None)) is None
        ack = w.finish_round(None)
        assert w.x.tolist() == [0.5]
        assert ack.round == 0 and w.round == 1

    def test_wrong_round_rejected(self):
        w = quad_worker(0, [1.0], [0.0], gamma=0.1)
        with pytest.raises(ProtocolError, match="round"):
            w.begin_round(wire.RoundStart(5, 1, None))

    def test_peer_round_mismatch_rejected(self):
        # a payload from an earlier round delivered to a worker that moved on
        stale = quad_worker(2, [0.0], [0.0], 0.0, c=1)
        out_stale = stale.begin_round(wire.RoundStart(0, 10, 0))
        w = quad_worker(0, [0.0], [0.0], 0.0, c=1)
        w.begin_round(wire.RoundStart(0, 11, 2))
        w.round = 1  # peer frame says round 0, worker believes round 1
        with pytest.raises(ProtocolError, match="round"):
            w.finish_round(out_stale)

    def test_wrong_sender_rejected(self):
        a = quad_worker(0, [0.0], [0.0], 0.0, c=1)
        impostor = quad_worker(3, [1.0], [0.0], 0.0, c=1)
        a.begin_round(wire.RoundStart(0, 4, 1))
        frame = impostor.begin_round(wire.RoundStart(0, 4, 0))
        with pytest.raises(ProtocolError, match="sender"):
            a.finish_round(frame)

    def test_count_mismatch_rejected(self):
        # peers disagree on the mask seed -> different counts (with high prob.)
        a = Worker(0, np.zeros(64), QuadraticObjective(np.zeros(64)), 0.0, 2, sample_seed=1)
        b = Worker(1, np.ones(64), QuadraticObjective(np.zeros(64)), 0.0, 2, sample_seed=2)
        a.begin_round(wire.RoundStart(0, 1000, 1))
        frame = b.begin_round(wire.RoundStart(0, 2000, 0))
        with pytest.raises(ProtocolError):
            a.finish_round(frame)


class TestBandwidthReports:
    def test_drain_returns_queued_reports_in_order_once(self):
        w = quad_worker(0, [0.0], [0.0], 0.0)
        w.queue_bandwidth_report([(1, 2.0)])
        w.queue_bandwidth_report(iter([(2, 3.0), (3, 4.0)]))
        assert w.drain_reports() == [[(1, 2.0)], [(2, 3.0), (3, 4.0)]]
        assert w.drain_reports() == []

    def test_report_too_long_for_its_frame_is_rejected_when_queued(self):
        # on sim the report is never encoded, so the u16 entry count is checked here
        w = quad_worker(0, [0.0], [0.0], 0.0)
        w.queue_bandwidth_report([(1, 1.0)] * wire.MAX_REPORT_ENTRIES)
        with pytest.raises(ValidationError, match="too many"):
            w.queue_bandwidth_report([(1, 1.0)] * (wire.MAX_REPORT_ENTRIES + 1))
        assert len(w.drain_reports()) == 1


def build_system(n, n_dims, gamma, c, master_seed, heterogeneity=1.0):
    rng = np.random.default_rng(master_seed)
    objset = make_quadratic(n, n_dims, rng, heterogeneity=heterogeneity)
    workers = [
        Worker(i, objset.initial_models[i], objset.objectives[i], gamma, c, sample_seed=1000 + i)
        for i in range(n)
    ]
    raw = 10.0 - np.random.default_rng(master_seed + 1).uniform(0, 10, size=(n, n))
    b = symmetrize_bandwidth(raw)
    coord = Coordinator(b, float(np.median(b.speeds[b.speeds > 0])), 5, master_seed, c, n_dims)
    return objset, workers, coord, SimFabric(workers, b)


class TestUpdateRuleEquivalence:
    @pytest.mark.parametrize("n,c", [(2, 1), (4, 2), (8, 4)])
    def test_system_round_equals_matrix_recursion(self, n, c):
        """One protocol round must equal X+ = Y o ~M + (Y o M) W, Y = X - g*G(X)."""
        n_dims, gamma, master_seed = 32, 0.07, 500 + n
        objset, workers, coord, fabric = build_system(n, n_dims, gamma, c, master_seed)
        # mirror of the worker state for the monolithic oracle
        X = np.stack([w.x.copy() for w in workers], axis=1)
        targets = np.stack(objset.meta["targets"], axis=1)
        for _ in range(50):
            coord.run_round(fabric)
            rec = coord.records[-1]
            Y = X - gamma * (X - targets)  # quadratic gradient
            m = generate_mask(rec.seed, c, n_dims).included.astype(float)[:, None]
            W = np.eye(n)
            for i, j in rec.pairs:
                W[i, i] = W[j, j] = W[i, j] = W[j, i] = 0.5
            X = Y * (1 - m) + (Y * m) @ W
            system = fabric.snapshot_models()
            np.testing.assert_allclose(system, X, atol=1e-12)


class TestGossipInvariants:
    def test_mean_preserved_with_zero_gamma(self):
        n, n_dims = 6, 16
        _, workers, coord, fabric = build_system(n, n_dims, 0.0, 2, 42)
        before = fabric.snapshot_models().mean(axis=1)
        for _ in range(40):
            coord.run_round(fabric)
            now = fabric.snapshot_models().mean(axis=1)
            np.testing.assert_allclose(now, before, atol=1e-12)

    @pytest.mark.parametrize("n,c", [(2, 1), (4, 2), (8, 1), (16, 2), (32, 1)])
    def test_pure_gossip_reaches_consensus(self, n, c):
        """gamma = 0, connected B: squared consensus error falls below 1e-12 x
        its initial value within 200 * ceil(log2 n) rounds.

        Feasible only when coordinates are touched often enough: at c = 100
        the window gives each coordinate ~2 averaging events, which cannot
        reduce energy by 1e-12, so large c is exercised at smaller targets in
        the contraction tests instead.
        """
        _, workers, coord, fabric = build_system(n, 8, 0.0, c, 900 + n + c)
        # complete candidate graph: use threshold 0 for fast mixing
        e0 = consensus_error(fabric.snapshot_models())
        budget = 200 * int(np.ceil(np.log2(n)))
        for t in range(budget):
            coord.run_round(fabric)
            if consensus_error(fabric.snapshot_models()) <= 1e-12 * e0:
                return
        assert consensus_error(fabric.snapshot_models()) <= 1e-12 * e0

    def test_two_worker_half_compression_contraction_rate(self):
        """n=2, c=2, gamma=0: mean per-round energy ratio ~ q + p*rho^2 = 0.5.

        With n=2 the pair always averages exactly, so each coordinate is an
        independent trial; 10^4 coordinates stand in for 10^4 trials.
        """
        n_dims = 10_000
        rng = np.random.default_rng(0)
        a = Worker(0, rng.normal(size=n_dims), QuadraticObjective(np.zeros(n_dims)), 0.0, 2, 1)
        b = Worker(1, rng.normal(size=n_dims), QuadraticObjective(np.zeros(n_dims)), 0.0, 2, 2)
        seeds = SplitMix64(77)
        ratios = []
        e_prev = consensus_error(np.stack([a.x, b.x], axis=1))
        for t in range(10):
            pair_exchange(a, b, seeds.next_u64(), t)
            e_now = consensus_error(np.stack([a.x, b.x], axis=1))
            ratios.append(e_now / e_prev)
            e_prev = e_now
        assert 0.45 <= np.mean(ratios) <= 0.55
