import dataclasses

import numpy as np
import pytest

from saps import wire
from saps.analysis import estimate_rho, second_eigenvalue
from saps.coordinator import (
    BarrierState,
    Coordinator,
    CostModelInput,
    comm_cost,
    default_b_thres,
    get_new_connected_graph,
    make_selector,
    run_streams,
)
from saps.core import GossipMatrix, Matching, symmetrize_bandwidth
from saps.errors import ProtocolError, ValidationError
from saps.objectives import QuadraticObjective, make_quadratic
from saps.transport import SimFabric
from saps.worker import Worker


def uniform_bandwidth(n, seed, lo=1.0, hi=10.0):
    rng = np.random.default_rng(seed)
    return symmetrize_bandwidth(hi - rng.uniform(0, hi - lo, size=(n, n)))


def build(n=4, n_dims=8, gamma=0.05, c=2, seed=11, het=1.0, t_thres=5):
    objset = make_quadratic(n, n_dims, np.random.default_rng(seed), heterogeneity=het)
    workers = [
        Worker(i, objset.initial_models[i], objset.objectives[i], gamma, c, sample_seed=i)
        for i in range(n)
    ]
    b = uniform_bandwidth(n, seed + 1)
    coord = Coordinator(b, 0.0, t_thres, seed, c, n_dims)
    return workers, coord, SimFabric(workers, b)


class TestThresholdFilter:
    def test_zero_threshold_gives_positive_graph(self):
        b = uniform_bandwidth(5, 1)
        assert np.array_equal(
            get_new_connected_graph(b, 0.0).edges, b.positive_edges().edges
        )

    def test_threshold_above_max_gives_empty_graph(self):
        b = uniform_bandwidth(5, 2)
        assert not get_new_connected_graph(b, b.speeds.max() + 1).edges.any()

    def test_inclusive_comparison(self):
        b = symmetrize_bandwidth(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert get_new_connected_graph(b, 1.0).edges[0, 1]
        assert get_new_connected_graph(b, 2.0).edges[0, 1]  # >= is inclusive
        assert not get_new_connected_graph(b, 2.1).edges[0, 1]


class TestCostModel:
    def test_spot_values_from_the_table(self):
        assert comm_cost(CostModelInput("saps-psgd", 100, 8, 10, c=10)) == (100, 200)
        assert comm_cost(CostModelInput("ps-psgd", 100, 8, 10)) == (16000, 2000)
        assert comm_cost(CostModelInput("d-psgd", 100, 8, 10, n_p=2)) == (100, 8000)

    def test_all_eight_rows(self):
        n_dims, n, t, c, n_p = 50, 4, 20, 5, 3
        rows = {
            "ps-psgd": (2 * n_dims * n * t, 2 * n_dims * t),
            "allreduce-psgd": (0, 2 * n_dims * t),
            "topk-psgd": (0, 2 * n * (n_dims / c) * t),
            "fedavg": (2 * n_dims * n * t, 2 * n_dims * t),
            "s-fedavg": ((n_dims + 2 * n_dims / c) * n * t, (n_dims + 2 * n_dims / c) * t),
            "d-psgd": (n_dims, 4 * n_p * n_dims * t),
            "dcd-psgd": (n_dims, 4 * n_p * (n_dims / c) * t),
            "saps-psgd": (n_dims, 2 * (n_dims / c) * t),
        }
        for algo, want in rows.items():
            assert comm_cost(CostModelInput(algo, n_dims, n, t, c=c, n_p=n_p)) == want

    def test_missing_neighbor_count_rejected(self):
        with pytest.raises(ValidationError):
            CostModelInput("d-psgd", 10, 2, 5)
        with pytest.raises(ValidationError):
            CostModelInput("dcd-psgd", 10, 2, 5, c=2)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            CostModelInput("gossipx", 10, 2, 5)


class TestRunRound:
    def test_smoke_two_workers(self):
        workers, coord, fabric = build(n=2)
        rec = coord.run_round(fabric)
        assert coord.t == 1 and rec.round == 0
        assert all(w.round == 1 for w in workers)

    def test_even_complete_graph_always_two_pairs(self):
        _, coord, fabric = build(n=4)
        for _ in range(10):
            rec = coord.run_round(fabric)
            assert len(rec.pairs) == 2

    def test_round_numbers_are_strictly_increasing(self):
        _, coord, fabric = build(n=4)
        for _ in range(7):
            coord.run_round(fabric)
        rounds = [r.round for r in coord.records]
        assert rounds == list(range(7))

    def test_duplicate_ack_rejected(self):
        _, coord, _ = build(n=2)
        barrier = BarrierState(0)
        coord.note_round_end(barrier, wire.RoundEnd(0, 1, 0.5))
        with pytest.raises(ProtocolError, match="duplicate"):
            coord.note_round_end(barrier, wire.RoundEnd(0, 1, 0.5))

    def test_wrong_round_ack_names_worker(self):
        _, coord, _ = build(n=2)
        with pytest.raises(ProtocolError, match="worker 1"):
            coord.note_round_end(BarrierState(0), wire.RoundEnd(3, 1, 0.5))

    def test_unknown_worker_ack_rejected(self):
        _, coord, _ = build(n=2)
        with pytest.raises(ProtocolError, match="unknown"):
            coord.note_round_end(BarrierState(0), wire.RoundEnd(0, 9, 0.5))

    def test_ack_naming_another_worker_is_blamed_on_its_sender(self):
        # worker 0's connection carries an ack that claims to be worker 1's
        _, coord, fabric = build(n=4)
        fabric.inject(0, wire.RoundEnd(0, 1, 0.0))
        with pytest.raises(ProtocolError, match="from worker 0 claims to be from worker 1"):
            coord.run_round(fabric)

    def test_ack_naming_another_worker_is_blamed_on_its_sender_over_tcp(self):
        from saps.transport import TcpFabric

        workers, coord, _ = build(n=2)
        honest = workers[0].finish_round
        workers[0].finish_round = lambda frame: dataclasses.replace(honest(frame), worker_id=1)
        fabric = TcpFabric(workers, coord.b, timeout=10)
        try:
            with pytest.raises(ProtocolError, match="from worker 0 claims to be from worker 1"):
                coord.run_round(fabric)
        finally:
            fabric.shutdown()

    @pytest.mark.parametrize("transport", ["sim", "tcp"])
    def test_stray_model_full_during_a_round_is_rejected(self, transport, monkeypatch):
        # a MODEL_FULL sent at the barrier must not wait to pose as the final model
        from saps.transport import TcpFabric

        workers, coord, fabric = build(n=2)
        stray = np.full(coord.n_dims, 99.0)
        if transport == "tcp":
            # worker 0's link carries a MODEL_FULL where its report would go
            honest = workers[0].drain_reports
            workers[0].drain_reports = lambda: honest() + ([[]] if workers[0].round == 2 else [])
            monkeypatch.setattr(wire, "encode_bandwidth_report",
                                lambda entries: wire.encode_model_full(stray))
            fabric = TcpFabric(workers, coord.b, timeout=10)
        try:
            coord.run_round(fabric)
            if transport == "sim":
                fabric.inject(0, wire.ModelFull(stray))
            with pytest.raises(ProtocolError,
                               match="unexpected (msg_type 4|ModelFull) from worker 0"):
                coord.run_round(fabric)
        finally:
            fabric.shutdown()

    def test_reproducible_matchings_and_seeds(self):
        _, coord_a, fabric_a = build(seed=77)
        _, coord_b, fabric_b = build(seed=77)
        for _ in range(15):
            coord_a.run_round(fabric_a)
            coord_b.run_round(fabric_b)
        assert [r.pairs for r in coord_a.records] == [r.pairs for r in coord_b.records]
        assert [r.seed for r in coord_a.records] == [r.seed for r in coord_b.records]

    @pytest.mark.parametrize("mode,n", [("adaptive", 5), ("adaptive", 8), ("random", 7), ("ring", 6)])
    def test_mean_wtw_equals_dense_formula_exactly(self, mode, n):
        objset = make_quadratic(n, 8, np.random.default_rng(3))
        workers = [Worker(i, objset.initial_models[i], objset.objectives[i], 0.05, 2, sample_seed=i)
                   for i in range(n)]
        b = uniform_bandwidth(n, 4)
        coord = Coordinator(b, default_b_thres(b), 2, 9, 2, 8, mode)
        fabric = SimFabric(workers, b)
        dense = np.zeros((n, n))
        for _ in range(100):
            coord.run_round(fabric)
            w = GossipMatrix.from_matching(Matching.from_pairs(n, coord.records[-1].pairs)).weights
            dense += w.T @ w
        assert np.array_equal(coord.mean_wtw(), dense / 100)
        # estimate_rho sums W in place of W^T W too: the same stream, the same rho
        replay = make_selector(mode, b, default_b_thres(b), 2, run_streams(9)[1])
        assert estimate_rho(replay, 100, warmup=0).rho == second_eigenvalue(dense / 100)

    def test_round_record_byte_accounting_matches_fabric(self):
        _, coord, fabric = build(n=4, c=2)
        for _ in range(20):
            coord.run_round(fabric)
        analytic = sum(r.bytes_per_worker for r in coord.records) * coord.n
        assert fabric.payload_bytes_per_worker.sum() == pytest.approx(analytic)
        assert fabric.values_per_worker.sum() == coord.values_per_worker.sum()


class TestCollectFinalModel:
    def test_untrained_collection_returns_initial_model(self):
        n, n_dims = 2, 6
        x0 = np.arange(float(n_dims))
        workers = [
            Worker(i, x0, QuadraticObjective(np.zeros(n_dims)), 0.1, 1, sample_seed=i)
            for i in range(n)
        ]
        b = uniform_bandwidth(n, 3)
        coord = Coordinator(b, 0.0, 5, 1, 1, n_dims)
        fabric = SimFabric(workers, b)
        model = coord.collect_final_model(fabric)
        assert np.array_equal(model, x0)
        assert model.size == n_dims

    def test_server_traffic_is_exactly_one_model(self):
        n_dims = 32
        _, coord, fabric = build(n=4, n_dims=n_dims)
        for _ in range(5):
            coord.run_round(fabric)
        coord.collect_final_model(fabric)
        assert coord.model_values_received == n_dims
        # frame = header + count field + values + crc
        assert coord.model_bytes_received == wire.HEADER_LEN + 4 + 8 * n_dims + 4


class TestBandwidthReportIngestion:
    def test_report_updates_b_but_not_bstar(self):
        _, coord, fabric = build(n=4)
        before_star = coord.selector.b_star.edges.copy()
        fabric.inject(0, wire.BandwidthReport(0, ((1, 0.5),)))
        coord.run_round(fabric)
        assert coord.b.speeds[0, 1] == 0.5 == coord.b.speeds[1, 0]
        assert np.array_equal(coord.selector.b_star.edges, before_star)

    def test_invalid_peer_rejected(self):
        _, coord, _ = build(n=4)
        with pytest.raises(ProtocolError):
            coord.handle_bandwidth_report(wire.BandwidthReport(0, ((9, 1.0),)))

    def test_report_flows_through_tcp(self):
        from saps.transport import TcpFabric

        workers, coord, _ = build(n=2)
        workers[0].queue_bandwidth_report([(1, 0.5)])  # slower than any initial link
        fabric = TcpFabric(workers, coord.b, timeout=10)
        try:
            coord.run_round(fabric)
        finally:
            fabric.shutdown()
        assert coord.b.speeds[0, 1] == 0.5

    def test_pair_recovers_when_both_directions_report_faster(self):
        _, coord, _ = build(n=4)
        coord.handle_bandwidth_report(wire.BandwidthReport(0, ((1, 0.25),)))
        assert coord.b.speeds[0, 1] == 0.25
        coord.handle_bandwidth_report(wire.BandwidthReport(0, ((1, 20.0),)))
        coord.handle_bandwidth_report(wire.BandwidthReport(1, ((0, 30.0),)))
        assert coord.b.speeds[0, 1] == 20.0  # min of the latest two directions

    @pytest.mark.parametrize("mode", ["adaptive", "random", "ring"])
    def test_zero_speed_link_is_never_matched(self, mode):
        n = 8
        objset = make_quadratic(n, 8, np.random.default_rng(3))
        workers = [Worker(i, objset.initial_models[i], objset.objectives[i], 0.05, 2, sample_seed=i)
                   for i in range(n)]
        b = uniform_bandwidth(n, 3)
        coord = Coordinator(b, None, 3, 3, 2, 8, mode)
        fabric = SimFabric(workers, b)
        for _ in range(40):
            coord.run_round(fabric)
        workers[0].queue_bandwidth_report([(peer, 0.0) for peer in range(1, n)])
        for _ in range(200):
            coord.run_round(fabric)
        assert not coord.b.speeds[0].any()
        # the report lands in round 40's barrier, so round 41 is the first planned after it
        for rec in coord.records[41:]:
            assert all(coord.b.speeds[i, j] > 0 for i, j in rec.pairs)

    @pytest.mark.parametrize("mode", ["adaptive", "random"])
    def test_report_revives_a_link_configured_at_zero(self, mode):
        n = 4
        raw = np.full((n, n), 5.0)
        raw[0, 1] = raw[1, 0] = 0.0
        b = symmetrize_bandwidth(raw)
        objset = make_quadratic(n, 8, np.random.default_rng(3))
        workers = [Worker(i, objset.initial_models[i], objset.objectives[i], 0.05, 2, sample_seed=i)
                   for i in range(n)]
        coord = Coordinator(b, None, 3, 3, 2, 8, mode)
        fabric = SimFabric(workers, b)
        coord.handle_bandwidth_report(wire.BandwidthReport(0, ((1, 9.0),)))
        coord.handle_bandwidth_report(wire.BandwidthReport(1, ((0, 9.0),)))
        for _ in range(60):
            coord.run_round(fabric)
        assert coord.b.speeds[0, 1] == 9.0
        if mode == "random":
            assert any((0, 1) in rec.pairs for rec in coord.records)

    def test_report_is_min_symmetrized(self):
        _, coord, _ = build(n=4)
        original = coord.b.speeds[2, 3]
        coord.handle_bandwidth_report(wire.BandwidthReport(2, ((3, original + 5.0),)))
        assert coord.b.speeds[2, 3] == original  # slow side wins
