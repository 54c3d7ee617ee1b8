"""Seed-synchronised Bernoulli masks, masked merge, and the sparse wire codec.

Both endpoints of an exchange derive the same mask from the shared round
seed, so only the selected values travel on the wire, never indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import wire
from .core import ParameterVector, splitmix64_array
from .errors import ProtocolError, TruncatedFrameError, ValidationError

_MASK64 = (1 << 64) - 1
_HEAD = wire._MODEL_VALUES_HEAD  # round u64, sender u32, count u32


@dataclass(frozen=True)
class MaskStream:
    """Deterministic per-round inclusion bits over model indices 0..n_dims-1.

    Immutable, so one instance can serve the coordinator and every worker of
    a round: `included` is held as a read-only view and `indices` is
    read-only too.
    """

    seed: int
    c: int
    n_dims: int
    included: np.ndarray

    def __post_init__(self) -> None:
        included = self.included.view()
        included.setflags(write=False)
        object.__setattr__(self, "included", included)

    @cached_property
    def indices(self) -> np.ndarray:
        idx = np.nonzero(self.included)[0]
        idx.setflags(write=False)
        return idx

    @property
    def count(self) -> int:
        return int(self.indices.size)


@lru_cache(maxsize=2, typed=True)  # typed: c=2.0 must not hit c=2's entry past the int check
def generate_mask(seed: int, c: int, n_dims: int) -> MaskStream:
    """Index j is included iff the j-th SplitMix64 output is below 2**64 // c.

    For c = 1 every index is included.  Identical (seed, c, n_dims) give
    identical masks on every worker and every implementation.  The last two
    masks are cached, so a round's coordinator and workers share one
    read-only `MaskStream` instead of rebuilding it once each.
    """
    if not isinstance(c, int) or c < 1:
        raise ValidationError(f"compression ratio c must be an integer >= 1, got {c!r}")
    if n_dims < 1:
        raise ValidationError(f"n_dims must be >= 1, got {n_dims}")
    if c == 1:
        included = np.ones(n_dims, dtype=bool)
    else:
        threshold = np.uint64((1 << 64) // c)
        included = splitmix64_array(seed, n_dims) < threshold
    return MaskStream(seed & _MASK64, c, n_dims, included)


@dataclass(frozen=True)
class SparsePayload:
    """The masked values of one model, in ascending mask-index order."""

    round: int
    sender: int
    values: np.ndarray

    @property
    def count(self) -> int:
        return int(self.values.size)


def extract_payload(x: ParameterVector, mask: MaskStream, round: int, sender: int) -> SparsePayload:
    """The masked values of `x`, copied out of it.

    `x` must be finite; this does not check it. `Worker.begin_round` calls
    this right after the SGD step that proved `x` finite, and the receiver's
    `merge_masked` checks every value it is sent.
    """
    if x.shape != (mask.n_dims,):
        raise ValidationError(f"model length {x.shape} does not match mask n_dims {mask.n_dims}")
    return SparsePayload(round, sender, x[mask.indices])  # fancy indexing copies


def merge_masked(x: ParameterVector, mask: MaskStream, peer: SparsePayload) -> ParameterVector:
    """Average own and peer values on the masked coordinates of `x`, in place.

    Returns `x` itself. A count mismatch signals seed desynchronisation
    between the peers; it and non-finite peer values raise before `x` is
    touched.
    """
    if x.shape != (mask.n_dims,):
        raise ValidationError(f"model length {x.shape} does not match mask n_dims {mask.n_dims}")
    if peer.count != mask.count:
        raise ProtocolError(
            f"peer payload carries {peer.count} values but mask selects {mask.count}; "
            "mask seeds are out of sync"
        )
    if not np.isfinite(peer.values).all():
        raise ValidationError("peer payload contains non-finite values")
    idx = mask.indices
    x[idx] = (x[idx] + peer.values) * 0.5
    return x


def encode_payload(p: SparsePayload) -> bytes:
    values = np.ascontiguousarray(p.values, dtype="<f8")
    body = _HEAD.pack(p.round, p.sender, values.size) + values.tobytes()
    return wire.pack_frame(wire.MSG_MODEL_VALUES, body)


def decode_payload(data: bytes) -> SparsePayload:
    msg_type, body = wire.parse_frame(data)
    if msg_type != wire.MSG_MODEL_VALUES:
        raise ProtocolError(f"expected MODEL_VALUES frame, got msg_type {msg_type}")
    return decode_payload_body(body)


def decode_payload_body(body: bytes) -> SparsePayload:
    """The payload in a MODEL_VALUES body; its values are a view of `body`.

    The view is read-only when `body` is `bytes`. `merge_masked` only reads
    it, so no copy is made.
    """
    if len(body) < _HEAD.size:
        raise TruncatedFrameError("MODEL_VALUES body shorter than its fixed header")
    rnd, sender, count = _HEAD.unpack_from(body)
    if len(body) != _HEAD.size + 8 * count:
        raise TruncatedFrameError("MODEL_VALUES count does not match body size")
    values = np.frombuffer(body, dtype="<f8", count=count, offset=_HEAD.size)
    return SparsePayload(rnd, sender, values)


def payload_frame_bytes(count: int) -> int:
    """Wire size of a MODEL_VALUES frame carrying `count` values."""
    return wire.HEADER_LEN + _HEAD.size + 8 * count + 4
