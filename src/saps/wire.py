"""Binary frame format shared by all messages.

Every frame is little-endian:

    magic   4 bytes  'SAPS'
    version u8       1
    msg_type u8
    payload_len u32  length of everything that follows (body + crc32)
    body    payload_len - 4 bytes
    crc32   u32      CRC-32/ISO-HDLC over the body bytes

Body layouts by msg_type:

    1 ROUND_START       round u64, seed u64, peer_id u32 (0xFFFFFFFF = no peer), flags u8
    2 MODEL_VALUES      round u64, sender u32, count u32, count x f64
    3 ROUND_END         round u64, worker_id u32, local_loss f64
    4 MODEL_FULL        count u32, count x f64        (count 0 = request)
    5 BANDWIDTH_REPORT  n_entries u16, n_entries x (peer u32, bytes_per_sec f64)
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ChecksumError,
    TruncatedFrameError,
    ValidationError,
)

MAGIC = b"SAPS"
VERSION = 1

MSG_ROUND_START = 1
MSG_MODEL_VALUES = 2
MSG_ROUND_END = 3
MSG_MODEL_FULL = 4
MSG_BANDWIDTH_REPORT = 5

NO_PEER = 0xFFFFFFFF
MAX_REPORT_ENTRIES = 0xFFFF  # a BANDWIDTH_REPORT counts its entries in a u16

_HEADER = struct.Struct("<4sBBI")
HEADER_LEN = _HEADER.size  # 10
_ROUND_START = struct.Struct("<QQIB")
_ROUND_END = struct.Struct("<QId")
_MODEL_VALUES_HEAD = struct.Struct("<QII")
_BW_ENTRY = struct.Struct("<Id")


def max_payload_len(n_dims: int) -> int:
    """Largest payload_len of any legal frame for models of n_dims values.

    That is a dense MODEL_VALUES (c = 1), which is 12 bytes longer than a
    MODEL_FULL of the same model, or a BANDWIDTH_REPORT with as many entries
    as its u16 count allows, whichever is longer; plus the crc32.
    """
    dense = _MODEL_VALUES_HEAD.size + 8 * n_dims
    report = 2 + _BW_ENTRY.size * MAX_REPORT_ENTRIES
    return max(dense, report) + 4


def pack_frame(msg_type: int, body: bytes) -> bytes:
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(body) + 4) + body + struct.pack("<I", crc)


def parse_frame(data: bytes) -> tuple[int, bytes]:
    """Split a full frame into (msg_type, body), checking magic/version/length/crc."""
    if len(data) < HEADER_LEN:
        raise TruncatedFrameError(f"frame shorter than header ({len(data)} bytes)")
    magic, version, msg_type, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported protocol version {version}")
    if payload_len < 4 or len(data) != HEADER_LEN + payload_len:
        raise TruncatedFrameError(
            f"frame length {len(data)} does not match declared payload {payload_len}"
        )
    body = data[HEADER_LEN:-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ChecksumError("frame crc32 mismatch")
    return msg_type, body


@dataclass(frozen=True)
class RoundStart:
    round: int
    seed: int
    peer_id: int | None  # None = self-loop round
    flags: int = 0


@dataclass(frozen=True)
class RoundEnd:
    round: int
    worker_id: int
    local_loss: float


@dataclass(frozen=True)
class ModelFull:
    values: np.ndarray

    @property
    def is_request(self) -> bool:
        return self.values.size == 0


@dataclass(frozen=True)
class BandwidthReport:
    worker_id: int  # filled by the receiving side from the connection, not the wire
    entries: tuple[tuple[int, float], ...]


def encode_round_start(msg: RoundStart) -> bytes:
    peer = NO_PEER if msg.peer_id is None else msg.peer_id
    return pack_frame(MSG_ROUND_START, _ROUND_START.pack(msg.round, msg.seed, peer, msg.flags))


def decode_round_start(body: bytes) -> RoundStart:
    if len(body) != _ROUND_START.size:
        raise TruncatedFrameError("ROUND_START body has wrong size")
    rnd, seed, peer, flags = _ROUND_START.unpack(body)
    return RoundStart(rnd, seed, None if peer == NO_PEER else peer, flags)


def encode_round_end(msg: RoundEnd) -> bytes:
    return pack_frame(MSG_ROUND_END, _ROUND_END.pack(msg.round, msg.worker_id, msg.local_loss))


def decode_round_end(body: bytes) -> RoundEnd:
    if len(body) != _ROUND_END.size:
        raise TruncatedFrameError("ROUND_END body has wrong size")
    rnd, wid, loss = _ROUND_END.unpack(body)
    return RoundEnd(rnd, wid, loss)


def encode_model_full(values: np.ndarray) -> bytes:
    values = np.ascontiguousarray(values, dtype="<f8")
    body = struct.pack("<I", values.size) + values.tobytes()
    return pack_frame(MSG_MODEL_FULL, body)


def decode_model_full(body: bytes) -> ModelFull:
    if len(body) < 4:
        raise TruncatedFrameError("MODEL_FULL body has wrong size")
    (count,) = struct.unpack_from("<I", body)
    if len(body) != 4 + 8 * count:
        raise TruncatedFrameError("MODEL_FULL count does not match body size")
    values = np.frombuffer(body, dtype="<f8", count=count, offset=4).astype(np.float64)
    return ModelFull(values)


def model_request_frame() -> bytes:
    return encode_model_full(np.empty(0))


def encode_bandwidth_report(entries: list[tuple[int, float]]) -> bytes:
    if len(entries) > MAX_REPORT_ENTRIES:
        raise ValidationError("too many bandwidth entries for one report")
    body = struct.pack("<H", len(entries)) + b"".join(
        _BW_ENTRY.pack(peer, bps) for peer, bps in entries
    )
    return pack_frame(MSG_BANDWIDTH_REPORT, body)


def decode_bandwidth_report(body: bytes, worker_id: int) -> BandwidthReport:
    if len(body) < 2:
        raise TruncatedFrameError("BANDWIDTH_REPORT body has wrong size")
    (n_entries,) = struct.unpack_from("<H", body)
    if len(body) != 2 + n_entries * _BW_ENTRY.size:
        raise TruncatedFrameError("BANDWIDTH_REPORT entry count does not match body size")
    entries = tuple(
        _BW_ENTRY.unpack_from(body, 2 + k * _BW_ENTRY.size) for k in range(n_entries)
    )
    return BandwidthReport(worker_id, entries)
