import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saps.core import splitmix64_array
from saps.errors import ChecksumError, ProtocolError, TruncatedFrameError, ValidationError
from saps.sparsify import (
    MaskStream,
    SparsePayload,
    decode_payload,
    encode_payload,
    extract_payload,
    generate_mask,
    merge_masked,
    payload_frame_bytes,
)

U64 = st.integers(0, (1 << 64) - 1)


def handmade_mask(bits) -> MaskStream:
    included = np.array(bits, dtype=bool)
    return MaskStream(seed=0, c=2, n_dims=included.size, included=included)


class TestGenerateMask:
    def test_c1_keeps_everything(self):
        assert generate_mask(123, 1, 5).included.tolist() == [True] * 5

    @given(seed=U64, c=st.sampled_from([1, 2, 10, 100]), n=st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_across_constructions(self, seed, c, n):
        a = generate_mask(seed, c, n)
        generate_mask.cache_clear()
        b = generate_mask(seed, c, n)
        assert np.array_equal(a.included, b.included)

    def test_inclusion_count_concentrates(self):
        # Binomial(1e6, 0.01): +-1000 is a 10 sigma window
        mask = generate_mask(2024, 100, 1_000_000)
        assert 9_000 <= mask.count <= 11_000

    def test_c_zero_rejected(self):
        with pytest.raises(ValidationError):
            generate_mask(1, 0, 10)

    def test_expected_rate_over_rounds(self):
        # per-round popcount averages N/c within 5% over many rounds
        n_dims, c, rounds = 4000, 10, 200
        counts = [generate_mask(seed, c, n_dims).count for seed in range(rounds)]
        assert np.mean(counts) == pytest.approx(n_dims / c, rel=0.05)


def recomputed(seed, c, n_dims):
    return splitmix64_array(seed, n_dims) < np.uint64(2**64 // c)


class TestSharedMask:
    def test_repeated_arguments_return_the_same_mask(self):
        assert generate_mask(31, 10, 500) is generate_mask(31, 10, 500)

    def test_mask_is_read_only(self):
        mask = generate_mask(32, 4, 100)
        with pytest.raises(ValueError):
            mask.included[0] = not mask.included[0]
        with pytest.raises(ValueError):
            mask.indices[0] = 1

    def test_handmade_mask_is_read_only_too(self):
        mask = handmade_mask([1, 0, 1])
        with pytest.raises(ValueError):
            mask.included[1] = True
        with pytest.raises(ValueError):
            mask.indices[0] = 1
        assert mask.count == 2

    def test_cache_miss_equals_recomputation(self):
        generate_mask.cache_clear()
        mask = generate_mask(2024, 10, 5000)
        assert generate_mask.cache_info().misses == 1
        assert np.array_equal(mask.included, recomputed(2024, 10, 5000))
        assert np.array_equal(mask.indices, np.flatnonzero(mask.included))
        assert mask.count == int(mask.included.sum())

    def test_other_seed_c_or_length_is_not_confused(self):
        keys = [(7, 10, 300), (8, 10, 300), (7, 4, 300), (7, 10, 301), (7, 10, 300)]
        masks = [generate_mask(*key) for key in keys]
        for (seed, c, n_dims), mask in zip(keys, masks):
            assert (mask.seed, mask.c, mask.n_dims) == (seed, c, n_dims)
            assert np.array_equal(mask.included, recomputed(seed, c, n_dims))
        assert len({m.included.tobytes() for m in masks[:4]}) == 4

    def test_threads_sharing_the_cache_get_correct_masks(self):
        keys = [(seed, c, 257) for seed in range(6) for c in (2, 3)]
        expected = {key: recomputed(*key) for key in keys}
        errors = []

        def hammer(offset):
            for k in range(300):
                key = keys[(offset + k) % len(keys)]
                if not np.array_equal(generate_mask(*key).included, expected[key]):
                    errors.append(key)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_float_c_is_rejected_after_its_integer_is_cached(self):
        generate_mask(5, 2, 10)
        with pytest.raises(ValidationError):
            generate_mask(5, 2.0, 10)


class TestExtractMerge:
    def test_direct_selection(self):
        p = extract_payload(np.array([1.0, 2.0, 3.0]), handmade_mask([1, 0, 1]), 0, 0)
        assert p.values.tolist() == [1.0, 3.0] and p.count == 2

    def test_empty_mask(self):
        p = extract_payload(np.array([1.0, 2.0]), handmade_mask([0, 0]), 0, 0)
        assert p.count == 0 and p.values.size == 0

    def test_extract_scatter_identity(self):
        x = np.arange(6.0)
        mask = handmade_mask([1, 0, 0, 1, 1, 0])
        p = extract_payload(x, mask, 0, 0)
        scattered = np.zeros_like(x)
        scattered[mask.indices] = p.values
        assert np.array_equal(scattered, x * mask.included)

    def test_merge_averages(self):
        out = merge_masked(
            np.array([1.0, 3.0]), handmade_mask([1, 1]), SparsePayload(0, 1, np.array([3.0, 1.0]))
        )
        assert out.tolist() == [2.0, 2.0]

    def test_merge_empty_mask_is_identity(self):
        x = np.array([4.0, 5.0])
        before = x.copy()
        out = merge_masked(x, handmade_mask([0, 0]), SparsePayload(0, 1, np.empty(0)))
        assert np.array_equal(out, before)

    def test_merge_fixed_point(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        mask = handmade_mask([1, 1, 0])
        p = extract_payload(x, mask, 0, 1)
        assert np.array_equal(merge_masked(x, mask, p), before)

    def test_merge_updates_and_returns_the_given_vector(self):
        x = np.array([1.0, 3.0, 5.0])
        out = merge_masked(x, handmade_mask([1, 0, 1]), SparsePayload(0, 1, np.array([3.0, 1.0])))
        assert out is x
        assert x.tolist() == [2.0, 3.0, 3.0]

    def test_count_mismatch_leaves_the_model_untouched(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        with pytest.raises(ProtocolError):
            merge_masked(x, handmade_mask([1, 1, 0]), SparsePayload(0, 1, np.ones(1)))
        assert x.tobytes() == before.tobytes()

    def test_nonfinite_peer_values_leave_the_model_untouched(self):
        x = np.array([2.0, 4.0])
        before = x.copy()
        with pytest.raises(ValidationError):
            merge_masked(x, handmade_mask([1, 1]), SparsePayload(0, 1, np.array([1.0, np.inf])))
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bits", [[1, 0, 1], [1, 1, 1]])
    def test_payload_does_not_alias_the_model(self, bits):
        # fancy indexing copies, even when the mask selects every index
        x = np.array([1.0, 2.0, 3.0])
        p = extract_payload(x, handmade_mask(bits), 0, 0)
        assert p.values.dtype == np.float64
        assert not np.shares_memory(p.values, x)

    def test_count_mismatch_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="out of sync"):
            merge_masked(np.zeros(3), handmade_mask([1, 1, 0]), SparsePayload(0, 1, np.ones(3)))

    def test_nonfinite_peer_values_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            merge_masked(
                np.zeros(2), handmade_mask([1, 1]), SparsePayload(0, 1, np.array([1.0, np.inf]))
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            extract_payload(np.zeros(4), handmade_mask([1, 0]), 0, 0)

    @given(
        seed=U64,
        c=st.sampled_from([1, 2, 4]),
        n=st.integers(1, 64),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_pair_sums_conserved_on_masked_coordinates(self, seed, c, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        x, y = rng.normal(size=n), rng.normal(size=n)
        x0, y0 = x.copy(), y.copy()
        mask = generate_mask(seed, c, n)
        px = extract_payload(x, mask, 0, 0)
        py = extract_payload(y, mask, 0, 1)
        x2 = merge_masked(x, mask, py)
        y2 = merge_masked(y, mask, px)
        np.testing.assert_allclose(x2 + y2, x0 + y0, atol=1e-12)
        # untouched coordinates are bit-identical
        keep = ~mask.included
        assert np.array_equal(x2[keep], x0[keep])


class TestCodec:
    def test_round_trip_thousand_values(self):
        rng = np.random.default_rng(5)
        p = SparsePayload(17, 3, rng.normal(size=1000))
        q = decode_payload(encode_payload(p))
        assert q.round == 17 and q.sender == 3
        assert np.array_equal(q.values, p.values)

    def test_decoded_values_are_read_only_and_equal_to_the_sent_ones(self):
        p = SparsePayload(3, 1, np.array([1.5, -2.0, 7.25]))
        q = decode_payload(encode_payload(p))
        assert q.values.dtype == np.float64
        assert np.array_equal(q.values, p.values)
        assert not q.values.flags.writeable
        with pytest.raises(ValueError):
            q.values[0] = 0.0

    def test_frame_size_formula(self):
        p = SparsePayload(1, 0, np.ones(37))
        assert len(encode_payload(p)) == payload_frame_bytes(37)

    def test_flipped_value_byte_fails_checksum(self):
        frame = bytearray(encode_payload(SparsePayload(1, 0, np.ones(8))))
        frame[30] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_payload(bytes(frame))

    def test_truncation_detected(self):
        frame = encode_payload(SparsePayload(1, 0, np.ones(8)))
        with pytest.raises(TruncatedFrameError):
            decode_payload(frame[:12])

    @given(rnd=U64, sender=st.integers(0, 1 << 31), count=st.integers(0, 300), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_exact(self, rnd, sender, count, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 32)))
        p = SparsePayload(rnd, sender, rng.normal(size=count))
        q = decode_payload(encode_payload(p))
        assert (q.round, q.sender) == (rnd, sender)
        assert q.values.tobytes() == p.values.tobytes()
