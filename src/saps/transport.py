"""Message fabrics: a deterministic in-process simulation and a TCP backend.

Both fabrics expose the same coordinator-side surface:

    start_round(wid, RoundStart)       hand a worker its round, seed and peer
    recv_from_workers() -> (wid, RoundEnd | BandwidthReport), wid from the link
    request_model(wid) -> bytes        final-model collection (a MODEL_FULL frame)
    snapshot_models() -> np.ndarray    harness instrumentation: a read-only
                                       (N x n) view of the fabric's models
    shutdown()

Control messages cross this surface as `wire` objects; only `TcpFabric`
frames them, at its sockets, with the same wire format and CRCs as ever.
Payloads and the final model are real frames on both fabrics. The test
surface `SimFabric.inject(wid, msg)` queues a message as if from `wid`.

Each fabric owns one C-ordered (n x N) model matrix. It stacks the workers'
models once when it is built, before any worker runs, and each `Worker.x`
becomes row i of it; workers then update their rows in place. So
`snapshot_models()` is the transpose of that matrix, worker-major in memory,
and never a copy.

The simulated fabric executes workers inline in rank order, moves real
encoded frames between them and counts their bytes; the virtual round time
is the coordinator's (`round_time`, summed into `Coordinator.cum_time`).
The TCP fabric runs one thread per worker against real sockets on loopback;
the coordinator starts no thread and reads its n worker links through one
selector. Model values are bit-identical to the simulation because worker
arithmetic depends only on seeds and payloads, never on timing.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
from collections import deque

import numpy as np

from . import sparsify, wire
from .core import BandwidthMatrix, Matching
from .errors import ConfigurationError, ProtocolError, TransportError, ValidationError
from .worker import Worker


_EMPTY_PAYLOAD_FRAME = sparsify.payload_frame_bytes(0)


def round_time(match: Matching, payload_bytes: float, b: BandwidthMatrix) -> float:
    """Virtual duration of a synchronous round: the slowest pair's transfer.

    All pairs move the same payload size, so this is payload / min bandwidth;
    an empty matching costs nothing.
    """
    if not match.pairs:
        return 0.0
    speeds = [b.speeds[i, j] for i, j in match.pairs]
    slowest = min(speeds)
    if slowest <= 0:
        raise ConfigurationError("a matched pair has zero bandwidth")
    return payload_bytes / slowest


def _adopt_models(workers: list[Worker]) -> np.ndarray:
    """Stack the models into one (n x N) matrix and make each `Worker.x` its row.

    Returns the read-only (N x n) transpose that `snapshot_models` hands out.
    Workers update their rows in place from here on, so the view stays current.
    """
    if len({w.n_dims for w in workers}) > 1:
        raise ValidationError("workers' models differ in length")
    models = np.stack([w.x for w in workers])
    for w, row in zip(workers, models):
        w.x = row
    snapshot = models.T
    snapshot.flags.writeable = False
    return snapshot


class SimFabric:
    """Deterministic in-process fabric; workers run inline in rank order."""

    def __init__(self, workers: list[Worker], b: BandwidthMatrix) -> None:
        if len(workers) != b.n:
            raise ValidationError("worker count does not match bandwidth matrix")
        self.workers = workers
        self._snapshot = _adopt_models(workers)
        self._starts: dict[int, wire.RoundStart] = {}
        self._inbox: deque[tuple[int, object]] = deque()
        self.payload_bytes_per_worker = np.zeros(len(workers))
        self.values_per_worker = np.zeros(len(workers), dtype=np.int64)

    def start_round(self, wid: int, msg: wire.RoundStart) -> None:
        self._starts[wid] = msg

    def inject(self, wid: int, msg: object) -> None:
        """Test surface: queue a message as if worker `wid`'s link had carried it."""
        self._inbox.append((wid, msg))

    def recv_from_workers(self) -> tuple[int, wire.RoundEnd | wire.BandwidthReport]:
        if not self._inbox and self._starts:
            self._execute_round()
        if not self._inbox:
            raise TransportError("no pending worker messages")
        return self._inbox.popleft()

    def _execute_round(self) -> None:
        if len(self._starts) != len(self.workers):
            raise ProtocolError("round started without notifying every worker")
        starts = self._starts
        self._starts = {}
        # rank order keeps the simulation reproducible
        payloads = [w.begin_round(starts[w.rank]) for w in self.workers]
        n = len(self.workers)
        moved = [0] * n  # payload bytes each worker sent plus received
        values = [0] * n
        for w in self.workers:
            peer = starts[w.rank].peer_id
            if peer is None:
                continue
            frame = payloads[peer]
            if frame is None:
                raise ProtocolError(f"worker {peer} produced no payload for its peer")
            size = len(frame)
            moved[w.rank] += size  # received
            moved[peer] += size  # sent
            # counted from the frame's length; finish_round decodes it
            values[w.rank] += 2 * ((size - _EMPTY_PAYLOAD_FRAME) // 8)  # received, as many sent
        self.payload_bytes_per_worker += moved
        self.values_per_worker += values
        for w in self.workers:
            peer = starts[w.rank].peer_id
            ack = w.finish_round(payloads[peer] if peer is not None else None)
            for entries in w.drain_reports():
                self._inbox.append((w.rank, wire.BandwidthReport(w.rank, tuple(entries))))
            self._inbox.append((w.rank, ack))

    def request_model(self, wid: int) -> bytes:
        return self.workers[wid].model_frame()

    def snapshot_models(self) -> np.ndarray:
        return self._snapshot

    def shutdown(self) -> None:
        pass


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    while view:
        got = sock.recv_into(view)
        if not got:
            raise TransportError("connection closed mid-frame")
        view = view[got:]


def read_frame(sock: socket.socket, max_payload_len: int) -> bytearray | None:
    """Read one full frame; None on a clean EOF at a frame boundary.

    A header declaring more than `max_payload_len` bytes (see
    `wire.max_payload_len`) is a ProtocolError before any body is read; a
    socket timeout is a TransportError.  The body is received straight into
    the frame's buffer, which is allocated once from the declared length.
    """
    try:
        head = bytearray(wire.HEADER_LEN)
        got = sock.recv_into(head)
        if not got:
            return None
        _recv_into(sock, memoryview(head)[got:])
        (payload_len,) = struct.unpack_from("<I", head, 6)
        if payload_len > max_payload_len:
            raise ProtocolError(
                f"frame declares {payload_len} payload bytes; no legal frame exceeds "
                f"{max_payload_len}"
            )
        frame = bytearray(wire.HEADER_LEN + payload_len)
        frame[: wire.HEADER_LEN] = head
        _recv_into(sock, memoryview(frame)[wire.HEADER_LEN :])
        return frame
    except TimeoutError as e:
        raise TransportError(f"timed out reading a frame: {e}") from e


def send_frame(sock: socket.socket, frame: bytes) -> None:
    try:
        sock.sendall(frame)
    except OSError as e:
        raise TransportError(f"send failed: {e}") from e


def _worker_loop(
    worker: Worker,
    coord: socket.socket,
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    failures: dict[int, Exception],
    timeout: float,
) -> None:
    """Serve the coordinator's frames on `coord` until it closes the link.

    A failure is recorded before the link closes, so the coordinator finds it
    as soon as it reads the EOF.
    """
    limit = wire.max_payload_len(worker.n_dims)
    try:
        while (frame := read_frame(coord, limit)) is not None:
            msg_type, body = wire.parse_frame(frame)
            if msg_type == wire.MSG_ROUND_START:
                msg = wire.decode_round_start(body)
                out = worker.begin_round(msg)
                peer_frame = None
                if msg.peer_id is not None:
                    assert out is not None
                    peer_frame = _exchange_tcp(
                        worker.rank, msg.peer_id, out, listener, peer_addrs, timeout, limit
                    )
                ack = worker.finish_round(peer_frame)
                for entries in worker.drain_reports():
                    send_frame(coord, wire.encode_bandwidth_report(entries))
                send_frame(coord, wire.encode_round_end(ack))
            elif msg_type == wire.MSG_MODEL_FULL:
                if not wire.decode_model_full(body).is_request:
                    raise ProtocolError("worker received a non-request MODEL_FULL")
                send_frame(coord, worker.model_frame())
            else:
                raise ProtocolError(f"worker received unexpected msg_type {msg_type}")
    except Exception as e:
        failures[worker.rank] = e
    finally:
        coord.close()


def _exchange_tcp(
    rank: int,
    peer: int,
    out: bytes,
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    timeout: float,
    limit: int,
) -> bytearray:
    """Full-duplex payload swap; the lower rank dials, the dialer writes first."""
    if rank < peer:
        conn = socket.create_connection(peer_addrs[peer], timeout=timeout)
        conn.settimeout(timeout)
        try:
            send_frame(conn, out)
            frame = read_frame(conn, limit)
        finally:
            conn.close()
    else:
        conn, _ = listener.accept()
        conn.settimeout(timeout)
        try:
            frame = read_frame(conn, limit)
            send_frame(conn, out)
        finally:
            conn.close()
    if frame is None:
        raise TransportError(f"peer {peer} closed the exchange early")
    return frame


class TcpFabric:
    """Loopback TCP fabric: one thread per worker, framed streams throughout.

    Each worker thread serves its own coordinator link. The coordinator runs
    no thread of its own: it reads its n links through one selector, and
    answers a model request from the requested worker's link.
    """

    def __init__(
        self, workers: list[Worker], b: BandwidthMatrix, timeout: float = 30.0
    ) -> None:
        if len(workers) != b.n:
            raise ValidationError("worker count does not match bandwidth matrix")
        self.workers = workers
        self.timeout = timeout
        self._snapshot = _adopt_models(workers)  # before any worker thread starts
        self._max_payload_len = wire.max_payload_len(workers[0].n_dims)
        self._failures: dict[int, Exception] = {}
        self._selector = selectors.DefaultSelector()

        host = "127.0.0.1"
        self._conns: dict[int, socket.socket] = {}
        links: dict[int, socket.socket] = {}
        with socket.create_server((host, 0)) as server:
            server.settimeout(timeout)
            for w in workers:  # one pending connection at a time: accept() pairs it with w
                links[w.rank] = socket.create_connection(server.getsockname(), timeout=timeout)
                conn, _ = server.accept()
                conn.settimeout(timeout)
                self._conns[w.rank] = conn
                self._selector.register(conn, selectors.EVENT_READ, w.rank)
        self._peer_listeners = [socket.create_server((host, 0)) for _ in workers]
        peer_addrs = {w.rank: pl.getsockname() for w, pl in zip(workers, self._peer_listeners)}
        for pl in self._peer_listeners:
            pl.settimeout(timeout)

        self._threads = [
            threading.Thread(
                target=_worker_loop,
                args=(w, links[w.rank], pl, peer_addrs, self._failures, timeout),
                name=f"saps-worker-{w.rank}",
                daemon=True,
            )
            for w, pl in zip(workers, self._peer_listeners)
        ]
        for t in self._threads:
            t.start()

    def _read(self, wid: int) -> bytearray:
        """One whole frame from worker `wid`'s link; its failure if the link closed."""
        try:
            frame = read_frame(self._conns[wid], self._max_payload_len)
        except OSError:  # a link reset by its worker's close reads as a close
            frame = None
        if frame is None:
            e = self._failures.get(wid)
            if e is not None:
                raise TransportError(f"worker {wid} failed: {e!r}") from e
            raise TransportError(f"worker {wid} closed its connection")
        return frame

    def start_round(self, wid: int, msg: wire.RoundStart) -> None:
        send_frame(self._conns[wid], wire.encode_round_start(msg))

    def recv_from_workers(self) -> tuple[int, wire.RoundEnd | wire.BandwidthReport]:
        ready = self._selector.select(self.timeout)
        if not ready:
            raise TransportError(f"no worker message within {self.timeout}s")
        wid = ready[0][0].data
        msg_type, body = wire.parse_frame(self._read(wid))
        if msg_type == wire.MSG_ROUND_END:
            return wid, wire.decode_round_end(body)
        if msg_type == wire.MSG_BANDWIDTH_REPORT:
            return wid, wire.decode_bandwidth_report(body, wid)
        raise ProtocolError(f"unexpected msg_type {msg_type} from worker {wid} at the barrier")

    def request_model(self, wid: int) -> bytes:
        send_frame(self._conns[wid], wire.model_request_frame())
        return self._read(wid)

    def snapshot_models(self) -> np.ndarray:
        # Read it at the round barrier, while worker threads wait on their next read.
        return self._snapshot

    def shutdown(self) -> None:
        self._selector.close()
        for sock in [*self._conns.values(), *self._peer_listeners]:
            try:  # wakes a worker thread blocked in a read or in accept()
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for t in self._threads:
            t.join(timeout=self.timeout)
