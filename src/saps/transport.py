"""Message fabrics: a deterministic in-process simulation and a TCP backend.

Both fabrics expose the same coordinator-side surface:

    send_to_worker(wid, frame)         deliver a control frame to a worker
    recv_from_workers() -> (wid, msg_type, body)
    request_model(wid) -> np.ndarray   final-model collection
    snapshot_models() -> np.ndarray    harness instrumentation: a worker-major
                                       copy of the models, viewed as (N x n)
    shutdown()

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


class SimFabric:
    """Deterministic in-process fabric; workers run inline in rank order."""

    def __init__(self, workers: list[Worker], b: BandwidthMatrix) -> None:
        if len(workers) != b.n:
            raise ValidationError("worker count does not match bandwidth matrix")
        self.workers = workers
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
        request = wire.model_request_frame()
        msg_type, body = wire.parse_frame(request)
        if not wire.decode_model_full(body).is_request:
            raise ProtocolError("malformed model request")
        return self.workers[wid].model_frame()

    def snapshot_models(self) -> np.ndarray:
        return np.stack([w.x for w in self.workers]).T

    def shutdown(self) -> None:
        pass


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buf = b""
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf += chunk
    return buf


def read_frame(sock: socket.socket, max_payload_len: int) -> bytes | None:
    """Read one full frame; None on a clean EOF at a frame boundary.

    A header declaring more than `max_payload_len` bytes (see
    `wire.max_payload_len`) is a ProtocolError before any body is read; a
    socket timeout is a TransportError.
    """
    try:
        first = sock.recv(1)
        if not first:
            return None
        head = first + _recv_exact(sock, wire.HEADER_LEN - 1)
        (payload_len,) = struct.unpack_from("<I", head, 6)
        if payload_len > max_payload_len:
            raise ProtocolError(
                f"frame declares {payload_len} payload bytes; no legal frame exceeds "
                f"{max_payload_len}"
            )
        return head + _recv_exact(sock, payload_len)
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
    failures: list[BaseException],
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
    except BaseException as e:  # surfaced by the fabric on shutdown
        failures.append(e)


def _exchange_tcp(
    rank: int,
    peer: int,
    out: bytes,
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    timeout: float,
    limit: int,
) -> bytes:
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
        self._max_payload_len = wire.max_payload_len(max(w.n_dims for w in workers))
        self._failures: list[BaseException] = []
        self._queue: queue.Queue[tuple[int, int, bytes]] = queue.Queue()
        self._model_replies: queue.Queue[tuple[int, int, bytes]] = queue.Queue()

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
                      self._failures, timeout),
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
        except BaseException as e:
            self._failures.append(e)

    def _check_failures(self) -> None:
        if self._failures:
            raise TransportError(f"worker thread failed: {self._failures[0]!r}")

    def send_to_worker(self, wid: int, frame: bytes) -> None:
        self._check_failures()
        send_frame(self._conns[wid], frame)

    def recv_from_workers(self) -> tuple[int, int, bytes]:
        try:
            item = self._queue.get(timeout=self.timeout)
        except queue.Empty:
            self._check_failures()
            raise TransportError(f"no worker message within {self.timeout}s") from None
        return item

    def request_model(self, wid: int) -> bytes:
        self._check_failures()
        send_frame(self._conns[wid], wire.model_request_frame())
        try:
            rid, msg_type, body = self._model_replies.get(timeout=self.timeout)
        except queue.Empty:
            self._check_failures()
            raise TransportError(f"no model reply within {self.timeout}s") from None
        if rid != wid:
            raise ProtocolError(f"model reply from worker {rid}, expected {wid}")
        return wire.pack_frame(msg_type, body)

    def snapshot_models(self) -> np.ndarray:
        # Safe at the round barrier: worker threads are blocked on their next read.
        return np.stack([w.x for w in self.workers]).T

    def shutdown(self) -> None:
        for conn in self._conns.values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for pl in self._peer_listeners:
            pl.close()
        for t in self._threads:
            t.join(timeout=self.timeout)
        self._check_failures()
