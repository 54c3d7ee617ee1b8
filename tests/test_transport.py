import socket
import struct
import threading
import time

import numpy as np
import pytest

from saps import sparsify, wire
from saps.cli import ExperimentConfig, run_experiment
from saps.coordinator import Coordinator
from saps.core import Matching, symmetrize_bandwidth
from saps.errors import ChecksumError, ConfigurationError, ProtocolError, TransportError
from saps.objectives import QuadraticObjective
from saps.transport import SimFabric, TcpFabric, read_frame, round_time, send_frame
from saps.worker import Worker


class TestRoundTime:
    def test_single_pair(self):
        b = symmetrize_bandwidth(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert round_time(Matching.from_pairs(2, [(0, 1)]), 10, b) == 5.0

    def test_bottleneck_rule(self):
        raw = np.zeros((4, 4))
        raw[0, 1] = raw[1, 0] = 4.0
        raw[2, 3] = raw[3, 2] = 2.0
        b = symmetrize_bandwidth(raw)
        assert round_time(Matching.from_pairs(4, [(0, 1), (2, 3)]), 8, b) == 4.0

    def test_empty_matching_costs_nothing(self):
        b = symmetrize_bandwidth(np.zeros((3, 3)))
        assert round_time(Matching.from_pairs(3, []), 100, b) == 0.0

    def test_zero_bandwidth_pair_rejected(self):
        b = symmetrize_bandwidth(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            round_time(Matching.from_pairs(2, [(0, 1)]), 10, b)

    def test_literal_example_800_bytes_over_100_bps(self):
        b = symmetrize_bandwidth(np.array([[0.0, 100.0], [100.0, 0.0]]))
        assert round_time(Matching.from_pairs(2, [(0, 1)]), 800, b) == 8.0


class TestTcpFraming:
    def test_frame_round_trips_over_loopback(self):
        frames = [
            wire.encode_round_start(wire.RoundStart(3, 12345, 2, 0)),
            wire.encode_round_end(wire.RoundEnd(3, 1, 0.5)),
            wire.encode_model_full(np.arange(5.0)),
        ]
        server = socket.create_server(("127.0.0.1", 0))
        received = []

        def serve():
            conn, _ = server.accept()
            while True:
                frame = read_frame(conn, wire.max_payload_len(5))
                if frame is None:
                    break
                received.append(frame)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = socket.create_connection(server.getsockname(), timeout=5)
        for f in frames:
            send_frame(client, f)
        client.close()
        thread.join(timeout=5)
        server.close()
        assert received == frames


class TestReadFrameBounds:
    """A corrupt or stalled frame ends in a named error within a second."""

    def test_oversized_declared_length_rejected_at_once(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5.0)
            a.sendall(struct.pack("<4sBBI", wire.MAGIC, wire.VERSION, wire.MSG_MODEL_VALUES,
                                  0xFFFFFFF0))
            start = time.perf_counter()
            with pytest.raises(ProtocolError, match="4294967280 payload bytes"):
                read_frame(b, wire.max_payload_len(16))
            assert time.perf_counter() - start < 1.0

    def test_largest_legal_frames_pass_the_bound(self):
        n_dims = 100_000  # the model frames, not the report cap, set the bound
        dense = sparsify.encode_payload(sparsify.SparsePayload(7, 1, np.arange(float(n_dims))))
        frames = [dense, wire.encode_model_full(np.arange(float(n_dims)))]
        assert len(dense) == wire.HEADER_LEN + wire.max_payload_len(n_dims)
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5.0)
            for frame in frames:
                sender = threading.Thread(target=a.sendall, args=(frame,))
                sender.start()
                assert read_frame(b, wire.max_payload_len(n_dims)) == frame
                sender.join()
            a.sendall(dense[:wire.HEADER_LEN])
            with pytest.raises(ProtocolError):
                read_frame(b, wire.max_payload_len(n_dims) - 1)

    def test_timeout_mid_frame_is_a_transport_error(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(0.2)
            a.sendall(wire.encode_model_full(np.arange(4.0))[:-5])
            start = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                read_frame(b, wire.max_payload_len(4))
            assert time.perf_counter() - start < 1.0


def _config(transport, seed=31, n=4, t=20):
    return ExperimentConfig(
        n=n, T=t, c=2, gamma=0.05, N=12, master_seed=seed, transport=transport
    )


class TestBackendEquivalence:
    def test_sim_and_tcp_agree_bit_for_bit(self):
        sim = run_experiment(_config("sim"))
        tcp = run_experiment(_config("tcp"))
        assert np.array_equal(sim.final_model, tcp.final_model)
        for ws, wt in zip(sim.workers, tcp.workers):
            assert np.array_equal(ws.x, wt.x)

    def test_tcp_smoke_eight_workers(self):
        res = run_experiment(_config("tcp", n=8, t=10))
        assert len(res.records) == 10

    def test_cumulative_time_is_sum_of_round_times(self):
        res = run_experiment(_config("sim"))
        deltas = np.diff([0.0] + [r.cum_time for r in res.records])
        assert (deltas >= 0).all()
        assert res.records[-1].cum_time == pytest.approx(deltas.sum())


def _quadratic_workers(n, n_dims, seed, c=1):
    rng = np.random.default_rng(seed)
    return [
        Worker(i, rng.normal(size=n_dims), QuadraticObjective(rng.normal(size=n_dims)), 0.1, c, i)
        for i in range(n)
    ]


class TestSimTrafficCounters:
    def test_counters_are_sums_over_the_frames_the_workers_built(self, monkeypatch):
        n, n_dims = 5, 64  # odd n: one worker sits out every round
        workers = _quadratic_workers(n, n_dims, 4, c=4)
        b = symmetrize_bandwidth(np.random.default_rng(4).uniform(1.0, 5.0, size=(n, n)))
        coord = Coordinator(b, 0.0, 3, 21, 4, n_dims)
        fabric = SimFabric(workers, b)
        built = []
        begin_round = Worker.begin_round

        def recording(self, msg):
            frame = begin_round(self, msg)
            built.append((self.rank, msg.peer_id, frame))
            return frame

        monkeypatch.setattr(Worker, "begin_round", recording)
        for _ in range(25):
            coord.run_round(fabric)
        moved = np.zeros(n)
        values = np.zeros(n, dtype=np.int64)
        for rank, peer, frame in built:
            if peer is None:
                assert frame is None
                continue
            count = sparsify.decode_payload(frame).count
            for w in (rank, peer):  # sent by rank, received by its peer
                moved[w] += len(frame)
                values[w] += count
        assert len(built) == 25 * n and sum(peer is None for _, peer, _ in built) == 25
        assert np.array_equal(fabric.payload_bytes_per_worker, moved)
        assert np.array_equal(fabric.values_per_worker, values)


class TestControlPlane:
    """Control messages cross the fabric as objects; TCP alone frames them."""

    @pytest.mark.parametrize("fabric_cls", [SimFabric, TcpFabric])
    def test_frames_built_and_parsed_in_a_round(self, fabric_cls, monkeypatch):
        n, n_dims = 4, 64
        workers = _quadratic_workers(n, n_dims, 7, c=4)
        b = symmetrize_bandwidth(np.full((n, n), 5.0))
        coord = Coordinator(b, 0.0, 3, 23, 4, n_dims)
        fabric = fabric_cls(workers, b)
        packed, parsed = [], []  # msg_types; list.append is safe from worker threads
        pack_frame, parse_frame = wire.pack_frame, wire.parse_frame

        def counting_pack(msg_type, body):
            packed.append(msg_type)
            return pack_frame(msg_type, body)

        def counting_parse(data):
            out = parse_frame(data)
            parsed.append(out[0])
            return out

        monkeypatch.setattr(wire, "pack_frame", counting_pack)
        monkeypatch.setattr(wire, "parse_frame", counting_parse)
        try:
            for _ in range(5):
                packed.clear()
                parsed.clear()
                matched = 2 * len(coord.run_round(fabric).pairs)
                assert matched == n
                want = [wire.MSG_MODEL_VALUES] * matched
                if fabric_cls is TcpFabric:  # the control frames leave the process
                    want += [wire.MSG_ROUND_START] * n + [wire.MSG_ROUND_END] * n
                assert sorted(packed) == sorted(want)
                assert sorted(parsed) == sorted(want)
        finally:
            fabric.shutdown()

    @pytest.mark.parametrize("fabric_cls", [SimFabric, TcpFabric])
    def test_queued_report_steers_b_from_the_next_round_on(self, fabric_cls):
        n, n_dims = 4, 16
        workers = _quadratic_workers(n, n_dims, 3, c=2)
        b = symmetrize_bandwidth(np.random.default_rng(3).uniform(1.0, 5.0, size=(n, n)))
        coord = Coordinator(b, 0.0, 3, 19, 2, n_dims)
        fabric = fabric_cls(workers, b)
        received, planned = [], []
        recv, plan = fabric.recv_from_workers, coord.plan_round

        def recording_recv():
            received.append(recv())
            return received[-1]

        def recording_plan():
            planned.append(coord.b.speeds.copy())
            return plan()

        fabric.recv_from_workers = recording_recv
        coord.plan_round = recording_plan
        try:
            coord.run_round(fabric)
            # worker 0 measured its link to 1 slower, and to 2 faster, than configured
            workers[0].queue_bandwidth_report([(1, 0.5), (2, 9.0)])
            for _ in range(3):
                coord.run_round(fabric)
        finally:
            fabric.shutdown()
        reports = [(wid, msg) for wid, msg in received if isinstance(msg, wire.BandwidthReport)]
        assert reports == [(0, wire.BandwidthReport(0, ((1, 0.5), (2, 9.0))))]
        want = b.speeds.copy()
        want[0, 1] = want[1, 0] = 0.5  # min-symmetrised: the slower direction wins
        assert np.array_equal(coord.b.speeds, want)
        assert coord.selector.b is coord.b
        # planned before the report (rounds 0 and 1), then after it (rounds 2 and 3)
        assert [np.array_equal(p, b.speeds) for p in planned] == [True, True, False, False]
        assert all(np.array_equal(p, want) for p in planned[2:])


class TestSnapshotModels:
    """Each fabric keeps one (n, N) model matrix; the snapshot is a view of it."""

    @pytest.mark.parametrize("fabric_cls", [SimFabric, TcpFabric])
    def test_read_only_view_of_the_workers_models(self, fabric_cls):
        n, n_dims = 4, 10
        workers = _quadratic_workers(n, n_dims, 8)
        fabric = fabric_cls(workers, symmetrize_bandwidth(np.full((n, n), 5.0)))
        try:
            snap = fabric.snapshot_models()
        finally:
            fabric.shutdown()
        assert snap.shape == (n_dims, n)
        assert np.array_equal(snap, np.stack([w.x for w in workers], axis=1))
        assert snap.T.flags.c_contiguous  # worker-major in memory
        with pytest.raises(ValueError):
            snap[0, 0] = 1.0
        assert all(np.shares_memory(w.x, snap) for w in workers)

    @pytest.mark.parametrize("fabric_cls", [SimFabric, TcpFabric])
    def test_view_follows_thirty_rounds(self, fabric_cls):
        # a worker that rebound `x` instead of updating it would leave the view behind
        n, n_dims = 4, 64
        workers = _quadratic_workers(n, n_dims, 9, c=4)
        b = symmetrize_bandwidth(np.full((n, n), 5.0))
        coord = Coordinator(b, 0.0, 3, 17, 4, n_dims)
        fabric = fabric_cls(workers, b)
        try:
            snap = fabric.snapshot_models()
            before = snap.copy()
            for _ in range(30):
                coord.run_round(fabric)
        finally:
            fabric.shutdown()
        assert not np.array_equal(snap, before)
        assert np.array_equal(snap, np.stack([w.x for w in workers], axis=1))
        assert all(np.shares_memory(w.x, snap) for w in workers)


class TestTcpFabricErrors:
    def test_worker_failure_surfaces(self):
        n, n_dims = 2, 4
        workers = [
            Worker(i, np.zeros(n_dims), QuadraticObjective(np.zeros(n_dims)), 0.1, 1, i)
            for i in range(n)
        ]
        b = symmetrize_bandwidth(np.array([[0.0, 5.0], [5.0, 0.0]]))
        fabric = TcpFabric(workers, b, timeout=5.0)
        try:
            # a ROUND_START for the wrong round makes the worker loop fail
            fabric.start_round(0, wire.RoundStart(7, 1, None, 0))
            start = time.perf_counter()
            with pytest.raises(TransportError, match="ProtocolError.*expected round 0"):
                fabric.recv_from_workers()
            assert time.perf_counter() - start < 1.0  # not the 5 s fabric timeout
        finally:
            try:
                fabric.shutdown()
            except Exception:
                pass

    def test_corrupt_round_end_raises_its_checksum_error(self, monkeypatch):
        honest = wire.encode_round_end

        def corrupt(ack):
            frame = bytearray(honest(ack))
            if ack.worker_id == 0:
                frame[-1] ^= 0xFF  # the CRC's last byte
            return bytes(frame)

        monkeypatch.setattr(wire, "encode_round_end", corrupt)
        n, n_dims = 2, 4
        workers = _quadratic_workers(n, n_dims, 5)
        b = symmetrize_bandwidth(np.full((n, n), 5.0))
        coord = Coordinator(b, 0.0, 3, 17, 1, n_dims)
        fabric = TcpFabric(workers, b, timeout=5.0)
        try:
            start = time.perf_counter()
            with pytest.raises(ChecksumError):
                coord.run_round(fabric)
            assert time.perf_counter() - start < 1.0
        finally:
            fabric.shutdown()  # raises nothing: no worker failed

    def test_one_thread_per_worker_and_none_after_shutdown(self):
        def saps_threads():
            return sorted(t.name for t in threading.enumerate() if t.name.startswith("saps-"))

        n, n_dims = 4, 8
        workers = _quadratic_workers(n, n_dims, 6)
        b = symmetrize_bandwidth(np.full((n, n), 5.0))
        coord = Coordinator(b, 0.0, 3, 17, 1, n_dims)
        fabric = TcpFabric(workers, b, timeout=5.0)
        try:
            coord.run_round(fabric)
            assert saps_threads() == [f"saps-worker-{i}" for i in range(n)]
        finally:
            fabric.shutdown()
        assert saps_threads() == []

    @pytest.mark.parametrize("rank", range(4))
    def test_dead_worker_run_ends_quickly(self, monkeypatch, rank):
        """A worker dying mid-run ends the run, teardown included, well inside
        the default 30 s timeout, whichever peer thread it leaves blocked in
        its exchange (its partner may be waiting in accept())."""
        begin_round = Worker.begin_round

        for round_ in (2, 5):
            def failing(self, msg, round_=round_):
                if self.rank == rank and msg.round == round_:
                    raise RuntimeError("injected worker failure")
                return begin_round(self, msg)

            monkeypatch.setattr(Worker, "begin_round", failing)
            cfg = ExperimentConfig(
                n=4, T=20, c=1, gamma=0.1, N=1000, master_seed=3, transport="tcp"
            )
            start = time.perf_counter()
            with pytest.raises(TransportError, match="injected worker failure"):
                run_experiment(cfg)
            assert time.perf_counter() - start < 2.0
            alive = [t.name for t in threading.enumerate() if t.name.startswith("saps-worker-")]
            assert not alive
