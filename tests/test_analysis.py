import numpy as np
import pytest

from saps.analysis import (
    RoundRecord,
    consensus_error,
    contraction_bound,
    estimate_rho,
    export_csv,
    measure_contraction,
    second_eigenvalue,
)
from saps.core import GossipMatrix, Matching
from saps.errors import ValidationError
from saps.matching import RingSelector
from saps.verify import make_adaptive_selector


def record(round=0, pairs=((0, 1),), min_bw=1.0, mean_bw=1.0, **kw):
    defaults = dict(
        seed=0, bytes_per_worker=16.0, consensus_err=0.0, mean_loss=0.5, cum_time=float(round)
    )
    defaults.update(kw)
    return RoundRecord(round=round, pairs=tuple(pairs), min_bw=min_bw, mean_bw=mean_bw, **defaults)


class TestConsensusError:
    def test_zero_iff_equal_columns(self):
        x = np.tile(np.arange(3.0)[:, None], (1, 4))
        assert consensus_error(x) == 0.0
        x[0, 0] += 1.0
        assert consensus_error(x) > 0.0

    def test_hand_value(self):
        x = np.array([[1.0, -1.0]])  # xbar = 0, e = 1 + 1
        assert consensus_error(x) == pytest.approx(2.0)

    @pytest.mark.parametrize("shape", [(100_000, 16), (1_000, 128), (10_000, 4), (16, 16)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_column_order_sum(self, shape, transposed):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(size=shape[::-1]).T if transposed else rng.normal(size=shape)
        assert x.shape == shape
        column_order = np.sum((x - x.mean(axis=1, keepdims=True)) ** 2)
        assert consensus_error(x) == pytest.approx(column_order, rel=1e-12)

    @staticmethod
    def models(n_dims, transposed):
        """16 random models as (N, n) columns: worker-major (the fabrics'
        snapshot view) or C-ordered (what `measure_contraction` passes)."""
        rng = np.random.default_rng(n_dims)
        return rng.normal(size=(16, n_dims)).T if transposed else rng.normal(size=(n_dims, 16))

    @staticmethod
    def one_pass(x):
        d = (x - x.mean(axis=1, keepdims=True)).ravel(order="K")
        return float(d @ d)

    @pytest.mark.parametrize("n_dims", [1, 4095, 4096])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_one_block_equals_the_one_pass_sum_bit_for_bit(self, n_dims, transposed):
        x = self.models(n_dims, transposed)
        assert consensus_error(x) == self.one_pass(x)

    @pytest.mark.parametrize("n_dims", [4097, 8193, 100_000])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_blocks_agree_with_the_one_pass_sum(self, n_dims, transposed):
        x = self.models(n_dims, transposed)
        assert consensus_error(x) == pytest.approx(self.one_pass(x), rel=1e-12)

    def test_identical_models_give_exactly_zero_across_blocks(self):
        # eighths of small integers: 16 copies sum and divide back exactly
        x = np.tile(np.random.default_rng(5).integers(-999, 1000, size=(100_000, 1)) / 8.0, (1, 16))
        assert consensus_error(x) == 0.0
        assert consensus_error(np.ascontiguousarray(x.T).T) == 0.0


class TestSecondEigenvalue:
    def test_rank_one_averaging_matrix(self):
        assert second_eigenvalue(np.full((2, 2), 0.5)) == 0.0

    def test_matches_dense_eigendecomposition(self):
        # mean of the two alternating pairings of the 4-ring
        w1 = GossipMatrix.from_matching(Matching.from_pairs(4, [(0, 1), (2, 3)])).weights
        w2 = GossipMatrix.from_matching(Matching.from_pairs(4, [(1, 2), (0, 3)])).weights
        mean = 0.5 * (w1.T @ w1) + 0.5 * (w2.T @ w2)
        dense = np.sort(np.linalg.eigvalsh(mean))[-2]
        assert dense == pytest.approx(0.5, abs=1e-12)
        assert second_eigenvalue(mean) == pytest.approx(dense, abs=1e-9)

    def test_block_diagonal_returns_one(self):
        w = GossipMatrix.from_matching(Matching.from_pairs(4, [(0, 1), (2, 3)])).weights
        assert second_eigenvalue(w) == pytest.approx(1.0, abs=1e-9)


class TestEstimateRho:
    def test_two_always_matched_workers_mix_perfectly(self):
        sel = make_adaptive_selector(2, seed=1)
        est = estimate_rho(sel, 200)
        assert est.rho == pytest.approx(0.0, abs=1e-12)
        assert est.n_samples == 200

    def test_alternating_ring_of_four(self):
        est = estimate_rho(RingSelector(4), 200)
        assert est.rho == pytest.approx(0.5, abs=1e-9)

    def test_bipartitioned_bandwidth_is_flagged_as_non_mixing(self):
        rng = np.random.default_rng(2)
        raw = 5.0 - rng.uniform(0, 5, size=(6, 6))
        raw[:3, 3:] = 0.0
        raw[3:, :3] = 0.0
        sel = make_adaptive_selector(6, seed=2, bandwidth=raw)
        assert estimate_rho(sel, 300).rho == pytest.approx(1.0, abs=1e-9)

    def test_connected_graph_mixes(self):
        sel = make_adaptive_selector(8, seed=3)
        assert estimate_rho(sel, 500).rho < 1 - 1e-3

    def test_std_error_is_finite_and_zero_for_deterministic_selector(self):
        est = estimate_rho(RingSelector(4), 200)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValidationError):
            estimate_rho(RingSelector(4), 50)


class TestMeasureContraction:
    def test_full_mask_two_workers_converge_in_one_round(self):
        sel = make_adaptive_selector(2, seed=4)
        ratios = measure_contraction(2, 1, sel, t_max=3, n_trials=20,
                                     rng=np.random.default_rng(0))
        assert ratios[0] == 1.0
        assert ratios[1] == 0.0  # a single averaging step reaches consensus

    def test_half_mask_two_workers_halve_energy_per_round(self):
        sel = make_adaptive_selector(2, seed=5)
        ratios = measure_contraction(
            2, 2, sel, t_max=8, n_trials=60, rng=np.random.default_rng(1), n_dims=256
        )
        per_round = (ratios[1:] / ratios[:-1])[:5]
        assert 0.45 <= per_round.mean() <= 0.55

    def test_bound_helper_shapes(self):
        stated = contraction_bound(0.5, 0.4, 4, squared=True)
        unsquared = contraction_bound(0.5, 0.4, 4, squared=False)
        assert stated[0] == 1.0 and unsquared[0] == 1.0
        assert stated[1] == pytest.approx(0.5 + 0.5 * 0.16)
        assert unsquared[1] == pytest.approx(0.5 + 0.5 * 0.4)
        assert (unsquared >= stated).all()


class TestExportCsv:
    def test_header_only_for_empty_run(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], path)
        assert path.read_text().splitlines() == [
            "round,pairs,bytes_per_worker,min_bw,mean_bw,consensus_err,mean_loss,cum_time"
        ]

    def test_reexport_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [
            record(round=t, min_bw=rng.uniform(), mean_bw=rng.uniform(),
                   consensus_err=rng.uniform(), mean_loss=rng.uniform())
            for t in range(5)
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(records, a)
        export_csv(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ten_rounds_eleven_lines(self, tmp_path):
        path = tmp_path / "ten.csv"
        export_csv([record(round=t) for t in range(10)], path)
        assert len(path.read_text().splitlines()) == 11
