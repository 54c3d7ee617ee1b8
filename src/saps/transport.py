"""Message fabrics: a deterministic in-process simulation and a TCP backend.

Both fabrics expose the same coordinator-side surface:

    send_to_worker(wid, frame)         deliver a control frame to a worker
    recv_from_workers() -> (wid, msg_type, body)
    request_model(wid) -> bytes        final-model collection (a MODEL_FULL frame)
    snapshot_models() -> np.ndarray    harness instrumentation: a read-only
                                       (N x n) view of the fabric's models
    shutdown()

Each fabric owns one C-ordered (n x N) model matrix. It stacks the workers'
models once when it is built, before any worker runs, and each `Worker.x`
becomes row i of it; workers then update their rows in place. So
`snapshot_models()` is the transpose of that matrix, worker-major in memory,
and never a copy.

The simulated fabric executes workers inline in rank order, moves real
encoded frames between them and counts their bytes; the virtual round time
is the coordinator's (`round_time`, summed into `Coordinator.cum_time`).
The TCP fabric runs each worker loop in a thread against real sockets on
loopback; model values are bit-identical to the simulation because worker
arithmetic depends only on seeds and payloads, never on timing.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from collections import deque
from collections.abc import Callable

import numpy as np

from . import sparsify, wire
from .core import BandwidthMatrix, Matching
from .errors import ConfigurationError, ProtocolError, TransportError, ValidationError
from .worker import Worker


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
        self._inbox: deque[tuple[int, int, bytes]] = deque()
        self.payload_bytes_per_worker = np.zeros(len(workers))
        self.values_per_worker = np.zeros(len(workers), dtype=np.int64)

    def send_to_worker(self, wid: int, frame: bytes) -> None:
        msg_type, body = wire.parse_frame(frame)
        if msg_type != wire.MSG_ROUND_START:
            raise ProtocolError(f"coordinator pushed unexpected msg_type {msg_type}")
        self._starts[wid] = wire.decode_round_start(body)

    def inject_frame(self, wid: int, frame: bytes) -> None:
        """Test surface: queue a worker-originated control frame (e.g. a bandwidth report)."""
        msg_type, body = wire.parse_frame(frame)
        self._inbox.append((wid, msg_type, body))

    def recv_from_workers(self) -> tuple[int, int, bytes]:
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
        payloads: dict[int, bytes | None] = {}
        for w in self.workers:  # rank order keeps the simulation reproducible
            payloads[w.rank] = w.begin_round(starts[w.rank])
        for w in self.workers:
            peer = starts[w.rank].peer_id
            if peer is None:
                continue
            frame = payloads[peer]
            if frame is None:
                raise ProtocolError(f"worker {peer} produced no payload for its peer")
            self.payload_bytes_per_worker[w.rank] += len(frame)  # received
            self.payload_bytes_per_worker[peer] += len(frame)  # sent
            # counted from the frame's length; finish_round decodes it
            values = (len(frame) - sparsify.payload_frame_bytes(0)) // 8
            self.values_per_worker[w.rank] += 2 * values  # received, and as many sent
        for w in self.workers:
            peer = starts[w.rank].peer_id
            ack = w.finish_round(payloads[peer] if peer is not None else None)
            for frame in w.drain_report_frames():
                self._inbox.append((w.rank,) + wire.parse_frame(frame))
            msg_type, body = wire.parse_frame(wire.encode_round_end(ack))
            self._inbox.append((w.rank, msg_type, body))

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
    coord_addr: tuple[str, int],
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    on_failure: Callable[[Exception], None],
    timeout: float,
) -> None:
    try:
        limit = wire.max_payload_len(worker.n_dims)
        coord = socket.create_connection(coord_addr, timeout=timeout)
        coord.settimeout(timeout)
        try:
            while True:
                frame = read_frame(coord, limit)
                if frame is None:
                    return
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
                    for report in worker.drain_report_frames():
                        send_frame(coord, report)
                    send_frame(coord, wire.encode_round_end(ack))
                elif msg_type == wire.MSG_MODEL_FULL:
                    if not wire.decode_model_full(body).is_request:
                        raise ProtocolError("worker received a non-request MODEL_FULL")
                    send_frame(coord, worker.model_frame())
                else:
                    raise ProtocolError(f"worker received unexpected msg_type {msg_type}")
        finally:
            coord.close()
    except Exception as e:
        on_failure(e)


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
    """Loopback TCP fabric; one thread per worker, framed streams throughout.

    The coordinator listens on one port per worker rank so that connection
    identity needs no extra handshake message.
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
        self._failures: list[Exception] = []
        # a None item is a failing thread's wake-up call, see `_fail`
        self._queue: queue.Queue[tuple[int, int, bytes] | None] = queue.Queue()
        self._model_replies: queue.Queue[tuple[int, int, bytes] | None] = queue.Queue()

        host = "127.0.0.1"
        coord_listeners = []
        peer_listeners = []
        peer_addrs: dict[int, tuple[str, int]] = {}
        for w in workers:
            cl = socket.create_server((host, 0))
            coord_listeners.append(cl)
            pl = socket.create_server((host, 0))
            pl.settimeout(timeout)
            peer_listeners.append(pl)
            peer_addrs[w.rank] = pl.getsockname()
        self._peer_listeners = peer_listeners

        self._threads = [
            threading.Thread(
                target=_worker_loop,
                args=(w, coord_listeners[i].getsockname(), peer_listeners[i], peer_addrs,
                      self._fail, timeout),
                name=f"saps-worker-{w.rank}",
                daemon=True,
            )
            for i, w in enumerate(workers)
        ]
        for t in self._threads:
            t.start()

        self._conns: dict[int, socket.socket] = {}
        for i, w in enumerate(workers):
            coord_listeners[i].settimeout(timeout)
            conn, _ = coord_listeners[i].accept()
            conn.settimeout(timeout)
            self._conns[w.rank] = conn
            coord_listeners[i].close()

        self._readers = [
            threading.Thread(
                target=self._reader, args=(w.rank,), name=f"saps-reader-{w.rank}", daemon=True
            )
            for w in workers
        ]
        for t in self._readers:
            t.start()

    def _reader(self, wid: int) -> None:
        try:
            while True:
                frame = read_frame(self._conns[wid], self._max_payload_len)
                if frame is None:
                    return
                msg_type, body = wire.parse_frame(frame)
                if msg_type == wire.MSG_MODEL_FULL:
                    self._model_replies.put((wid, msg_type, body))
                else:
                    self._queue.put((wid, msg_type, body))
        except (TransportError, OSError):
            return  # socket closed during shutdown
        except Exception as e:
            self._fail(e)

    def _fail(self, e: Exception) -> None:
        """Record a worker or reader thread's failure and wake the coordinator.

        The None items make a blocked `recv_from_workers` or `request_model`
        raise at once instead of waiting out `timeout`.
        """
        self._failures.append(e)
        self._queue.put(None)
        self._model_replies.put(None)

    def _check_failures(self) -> None:
        if self._failures:
            e = self._failures[0]
            raise TransportError(f"worker thread failed: {e!r}") from e

    def _get(self, q: queue.Queue, what: str) -> tuple[int, int, bytes]:
        self._check_failures()
        try:
            item = q.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(f"no {what} within {self.timeout}s") from None
        self._check_failures()  # `_fail` records the failure before its None wakes us
        return item

    def send_to_worker(self, wid: int, frame: bytes) -> None:
        self._check_failures()
        send_frame(self._conns[wid], frame)

    def recv_from_workers(self) -> tuple[int, int, bytes]:
        return self._get(self._queue, "worker message")

    def request_model(self, wid: int) -> bytes:
        self._check_failures()
        send_frame(self._conns[wid], wire.model_request_frame())
        rid, msg_type, body = self._get(self._model_replies, "model reply")
        if rid != wid:
            raise ProtocolError(f"model reply from worker {rid}, expected {wid}")
        return wire.pack_frame(msg_type, body)

    def snapshot_models(self) -> np.ndarray:
        # Read it at the round barrier, while worker threads wait on their next read.
        return self._snapshot

    def shutdown(self) -> None:
        for conn in self._conns.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for pl in self._peer_listeners:
            try:  # wakes a worker thread blocked in accept()
                pl.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            pl.close()
        for t in self._threads:
            t.join(timeout=self.timeout)
        self._check_failures()
