import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saps.core import (
    BandwidthMatrix,
    CompressionConfig,
    GossipMatrix,
    Matching,
    SplitMix64,
    TimestampMatrix,
    splitmix64_array,
    symmetrize_bandwidth,
)
from saps.errors import InvariantViolation, ValidationError

# Reference outputs of the stated recurrence for seed 0, evaluated
# independently (plain-int arithmetic below, frozen constants here).
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def _reference_splitmix(seed: int, count: int) -> list[int]:
    mask = (1 << 64) - 1
    out, s = [], seed & mask
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_seed0_reference_constants(self):
        gen = SplitMix64(0)
        assert tuple(gen.next_u64() for _ in range(3)) == SEED0_FIRST3
        assert _reference_splitmix(0, 3) == list(SEED0_FIRST3)

    def test_equal_seeds_agree_over_a_million_outputs(self):
        assert np.array_equal(splitmix64_array(123, 1_000_000), splitmix64_array(123, 1_000_000))

    def test_different_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    @given(seed=st.integers(0, (1 << 64) - 1), count=st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, seed, count):
        gen = SplitMix64(seed)
        scalar = [gen.next_u64() for _ in range(count)]
        assert splitmix64_array(seed, count).tolist() == scalar

    @given(seed=st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50, deadline=None)
    def test_reference_recurrence_agrees(self, seed):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(10)] == _reference_splitmix(seed, 10)


class TestSymmetrizeBandwidth:
    def test_min_rule(self):
        b = symmetrize_bandwidth(np.array([[0.0, 3.0], [5.0, 0.0]]))
        assert np.array_equal(b.speeds, [[0.0, 3.0], [3.0, 0.0]])

    def test_symmetric_input_unchanged(self):
        raw = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 4.0], [1.0, 4.0, 0.0]])
        assert np.array_equal(symmetrize_bandwidth(raw).speeds, raw)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize_bandwidth(np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize_bandwidth(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0, 1e9), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_result_is_symmetric_min(self, rows):
        raw = np.array(rows)
        b = symmetrize_bandwidth(raw)
        assert np.array_equal(b.speeds, b.speeds.T)
        off = ~np.eye(b.n, dtype=bool)
        assert np.array_equal(b.speeds[off], np.minimum(raw, raw.T)[off])


@st.composite
def matchings(draw):
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    n_pairs = draw(st.integers(0, n // 2))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(n_pairs)]
    return Matching.from_pairs(n, pairs)


class TestGossipMatrix:
    @given(matchings())
    @settings(max_examples=200, deadline=None)
    def test_from_matching_satisfies_invariants(self, m):
        GossipMatrix.from_matching(m).validate(atol=1e-12)

    def test_validate_names_broken_invariant(self):
        w = GossipMatrix.from_matching(Matching.from_pairs(4, [(0, 1), (2, 3)]))
        bad = w.weights.copy()
        bad[0, 1] = 0.75
        with pytest.raises(InvariantViolation, match="row sums"):
            GossipMatrix(bad).validate()

    def test_non_idempotent_detected(self):
        # doubly stochastic and symmetric, but not a projection
        w = np.full((3, 3), 1.0 / 3.0)
        w += np.array([[0.1, -0.05, -0.05], [-0.05, 0.1, -0.05], [-0.05, -0.05, 0.1]])
        with pytest.raises(InvariantViolation, match="idempotent"):
            GossipMatrix(w).validate()


class TestMatching:
    def test_reused_vertex_rejected(self):
        assert Matching.from_pairs(4, [(0, 2)]).unmatched == {1, 3}
        with pytest.raises(ValidationError):
            Matching.from_pairs(3, [(0, 1), (1, 2)])


class TestTimestampMatrix:
    def test_initially_nothing_recent(self):
        r = TimestampMatrix.initial(3, t_thres=5)
        assert np.all(r.last_round == -5)

    def test_with_pairs_is_functional(self):
        r0 = TimestampMatrix.initial(3, 2)
        r1 = r0.with_pairs([(0, 2)], t=4)
        assert r0.last_round[0, 2] == -2
        assert r1.last_round[0, 2] == r1.last_round[2, 0] == 4


class TestSmallTypes:
    def test_compression_zero_rejected(self):
        with pytest.raises(ValidationError):
            CompressionConfig(0)

    def test_bandwidth_matrix_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            BandwidthMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
