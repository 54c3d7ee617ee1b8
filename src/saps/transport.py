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
selector. A matched pair keeps one peer link for the whole run: the lower
rank dials it the first time the pair is matched, inside that round, and its
first frame is a HELLO naming the dialler's rank, which the acceptor checks
against its assigned peer. The fabric owns every link and closes them all at
`shutdown`. A run may hold n(n-1) peer-link descriptors, so set-up checks
the descriptor limit first. Model values are bit-identical to the simulation
because worker arithmetic depends only on seeds and payloads, never on
timing.
"""

from __future__ import annotations

import resource
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


def _recv_into(sock: socket.socket, view: memoryview, link: str) -> None:
    while view:
        got = sock.recv_into(view)
        if not got:
            raise TransportError(f"{link} closed mid-frame")
        view = view[got:]


def read_frame(sock: socket.socket, max_payload_len: int, link: str = "link") -> bytearray | None:
    """Read one full frame; None on a clean EOF at a frame boundary.

    A header declaring more than `max_payload_len` bytes (see
    `wire.max_payload_len`) is a ProtocolError before any body is read; a
    socket timeout or error, such as a reset, is a TransportError naming
    `link`.  The body is received straight into the frame's buffer, which is
    allocated once from the declared length.
    """
    try:
        head = bytearray(wire.HEADER_LEN)
        got = sock.recv_into(head)
        if not got:
            return None
        _recv_into(sock, memoryview(head)[got:], link)
        (payload_len,) = struct.unpack_from("<I", head, 6)
        if payload_len > max_payload_len:
            raise ProtocolError(
                f"frame declares {payload_len} payload bytes; no legal frame exceeds "
                f"{max_payload_len}"
            )
        frame = bytearray(wire.HEADER_LEN + payload_len)
        frame[: wire.HEADER_LEN] = head
        _recv_into(sock, memoryview(frame)[wire.HEADER_LEN :], link)
        return frame
    except TimeoutError as e:
        raise TransportError(f"timed out reading a frame on {link}: {e}") from e
    except OSError as e:
        raise TransportError(f"reading {link} failed: {e}") from e


def send_frame(sock: socket.socket, frame: bytes, link: str = "link") -> None:
    try:
        sock.sendall(frame)
    except OSError as e:
        raise TransportError(f"sending on {link} failed: {e}") from e


def _worker_loop(
    worker: Worker,
    coord: socket.socket,
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    links: dict[int, socket.socket],
    failures: list[tuple[int, Exception]],
    timeout: float,
) -> None:
    """Serve the coordinator's frames on `coord` until it closes the link.

    A failure is recorded before any link closes, so the coordinator finds it
    as soon as it reads an EOF, and a failure caused by this worker's closed
    peer links is recorded after it. The coordinator link closes first.
    """
    limit = wire.max_payload_len(worker.n_dims)
    me = f"worker {worker.rank}'s coordinator link"
    try:
        while (frame := read_frame(coord, limit, me)) is not None:
            msg_type, body = wire.parse_frame(frame)
            if msg_type == wire.MSG_ROUND_START:
                msg = wire.decode_round_start(body)
                out = worker.begin_round(msg)
                peer_frame = None
                if msg.peer_id is not None:
                    assert out is not None
                    peer_frame = _exchange_tcp(
                        worker.rank, msg.peer_id, out, listener, peer_addrs, links, timeout, limit
                    )
                ack = worker.finish_round(peer_frame)
                for entries in worker.drain_reports():
                    send_frame(coord, wire.encode_bandwidth_report(entries), me)
                send_frame(coord, wire.encode_round_end(ack), me)
            elif msg_type == wire.MSG_MODEL_FULL:
                if not wire.decode_model_full(body).is_request:
                    raise ProtocolError("worker received a non-request MODEL_FULL")
                send_frame(coord, worker.model_frame(), me)
            else:
                raise ProtocolError(f"worker received unexpected msg_type {msg_type}")
    except Exception as e:
        failures.append((worker.rank, e))
    finally:
        coord.close()
        for conn in list(links.values()):
            conn.close()


def _exchange_tcp(
    rank: int,
    peer: int,
    out: bytes,
    listener: socket.socket,
    peer_addrs: dict[int, tuple[str, int]],
    links: dict[int, socket.socket],
    timeout: float,
    limit: int,
) -> bytearray:
    """Full-duplex payload swap on the pair's link; the lower rank writes first.

    The first time the pair is matched, the lower rank dials the link and
    sends a HELLO naming itself; the higher rank accepts it and checks that
    HELLO. The link stays in `links` for the rest of the run.
    """
    name = f"peer link {min(rank, peer)}-{max(rank, peer)}"
    conn = links.get(peer)
    if conn is None and rank < peer:
        conn = links[peer] = socket.create_connection(peer_addrs[peer], timeout=timeout)
        # the HELLO and the first payload are two writes before a read
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(conn, wire.encode_hello(rank), name)
    elif conn is None:
        conn, _ = listener.accept()
        links[peer] = conn
        conn.settimeout(timeout)
        hello = read_frame(conn, limit, name)
        if hello is None:
            raise TransportError(f"{name} closed before its HELLO")
        msg_type, body = wire.parse_frame(hello)
        if msg_type != wire.MSG_HELLO:
            raise ProtocolError(f"{name} opened with msg_type {msg_type}, not a HELLO")
        if (dialler := wire.decode_hello(body)) != peer:
            raise ProtocolError(f"worker {rank}: HELLO on {name} names rank {dialler}")
    if rank < peer:
        send_frame(conn, out, name)
        frame = read_frame(conn, limit, name)
    else:
        frame = read_frame(conn, limit, name)
        send_frame(conn, out, name)
    if frame is None:
        raise TransportError(f"peer {peer} closed {name}")
    return frame


def _reserve_descriptors(n: int) -> None:
    """Let the process hold a run's descriptors, or refuse the run before it starts.

    A run holds up to n(n-1) peer-link ends, 2n coordinator-link ends and n
    listeners. A soft limit below that is raised, by that many descriptors
    and within the hard limit; a hard limit below it is a ConfigurationError.
    """
    need = n * (n - 1) + 3 * n
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY or soft >= need:
        return
    if hard != resource.RLIM_INFINITY and hard < need:
        raise ConfigurationError(
            f"{n} TCP workers need up to {need} file descriptors; RLIMIT_NOFILE allows {hard}"
        )
    target = soft + need if hard == resource.RLIM_INFINITY else min(soft + need, hard)
    resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))


class TcpFabric:
    """Loopback TCP fabric: one thread per worker, framed streams throughout.

    Each worker thread serves its own coordinator link and its peer links,
    one per partner it has been matched with so far. The coordinator runs no
    thread of its own: it reads its n links through one selector, and
    answers a model request from the requested worker's link.
    """

    def __init__(
        self, workers: list[Worker], b: BandwidthMatrix, timeout: float = 30.0
    ) -> None:
        if len(workers) != b.n:
            raise ValidationError("worker count does not match bandwidth matrix")
        _reserve_descriptors(len(workers))  # before any socket or thread
        self.workers = workers
        self.timeout = timeout
        self._snapshot = _adopt_models(workers)  # before any worker thread starts
        self._max_payload_len = wire.max_payload_len(workers[0].n_dims)
        self._failures: list[tuple[int, Exception]] = []  # (rank, error), as recorded
        self._links: list[dict[int, socket.socket]] = [{} for _ in workers]  # peer -> link
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
                args=(w, links[w.rank], pl, peer_addrs, self._links[w.rank], self._failures,
                      timeout),
                name=f"saps-worker-{w.rank}",
                daemon=True,
            )
            for w, pl in zip(workers, self._peer_listeners)
        ]
        for t in self._threads:
            t.start()

    def _read(self, wid: int) -> bytearray:
        """One whole frame from worker `wid`'s link; the root failure if it closed.

        A worker records its failure before it closes any link, so the first
        failure recorded is the one that closed the others' peer links.
        """
        try:
            frame = read_frame(
                self._conns[wid], self._max_payload_len, f"worker {wid}'s coordinator link"
            )
        except TransportError:  # a link reset by its worker's close reads as a close
            if not self._failures:
                raise
            frame = None
        if frame is None:
            if self._failures:
                rank, e = self._failures[0]
                raise TransportError(f"worker {rank} failed: {e!r}") from e
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
        peer_links = [conn for links in self._links for conn in list(links.values())]
        for sock in [*self._conns.values(), *self._peer_listeners, *peer_links]:
            try:  # wakes a worker thread blocked in a read or in accept()
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for t in self._threads:
            t.join(timeout=self.timeout)
