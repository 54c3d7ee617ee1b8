import warnings

import numpy as np
import pytest

from saps.errors import ValidationError
from saps.objectives import (
    DataShard,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    make_logistic,
    make_mlp,
    make_quadratic,
)
from saps.worker import Worker


def finite_difference_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences; the reference oracle for gradient checks."""
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestQuadratic:
    def test_scalar_closed_form(self):
        # two workers with targets 0 and 2: optimum 1; with f_i = 0.5||x-b_i||^2
        # and the objective averaged over workers, f* = 0.5
        objs = [QuadraticObjective(np.array([0.0])), QuadraticObjective(np.array([2.0]))]
        x_star = np.array([1.0])
        f_star = np.mean([o.full_loss(x_star) for o in objs])
        assert f_star == pytest.approx(0.5)
        assert sum(o.full_loss(x_star) for o in objs) == pytest.approx(1.0)

    def test_gradient_zero_at_target(self):
        o = QuadraticObjective(np.array([1.0, -2.0]))
        loss, grad = o.loss_and_grad(np.array([1.0, -2.0]), np.random.default_rng(0))
        assert loss == 0.0 and np.array_equal(grad, [0.0, 0.0])

    def test_optimum_is_target_mean(self):
        objset = make_quadratic(5, 7, np.random.default_rng(1))
        np.testing.assert_allclose(
            objset.x_star, np.mean(objset.meta["targets"], axis=0), atol=1e-12
        )

    def test_homogeneous_targets(self):
        objset = make_quadratic(4, 3, np.random.default_rng(2), heterogeneity=0.0)
        for b in objset.meta["targets"]:
            np.testing.assert_array_equal(b, objset.meta["targets"][0])
        assert objset.f_star == pytest.approx(0.0, abs=1e-24)

    def test_fstar_from_closed_form(self):
        objset = make_quadratic(3, 4, np.random.default_rng(3))
        direct = np.mean([o.full_loss(objset.x_star) for o in objset.objectives])
        assert objset.f_star == pytest.approx(direct, rel=1e-12)


class TestLogistic:
    def _objective(self, seed=0, n=60, d=5):
        rng = np.random.default_rng(seed)
        objset = make_logistic(2, n, d, "iid", rng)
        return objset.objectives[0]

    def test_gradient_matches_finite_differences(self):
        o = self._objective()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            w = rng.normal(size=o.dim)
            _, grad = o._loss_grad(w, o.shard.features, o.shard.labels)
            fd = finite_difference_gradient(o.full_loss, w)
            worst = max(worst, np.max(np.abs(grad - fd)) / max(np.linalg.norm(fd), 1.0))
        assert worst < 1e-6

    def test_zero_weights_give_log_two(self):
        o = self._objective()
        assert o.full_loss(np.zeros(o.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_label_skew_shards_are_skewed(self):
        objset = make_logistic(4, 400, 6, "label-skew", np.random.default_rng(5))
        fractions = [o.shard.labels.mean() for o in objset.objectives]
        assert min(fractions) < 0.2 and max(fractions) > 0.8
        for o in objset.objectives:
            assert o.shard.scheme == "label-skew"

    def test_shards_cover_dataset_disjointly(self):
        n_samples = 101
        objset = make_logistic(4, n_samples, 3, "iid", np.random.default_rng(6))
        total = sum(o.shard.features.shape[0] for o in objset.objectives)
        assert total == n_samples


class TestMlp:
    def test_gradient_matches_finite_differences(self):
        objset = make_mlp(2, 40, 4, 3, "iid", np.random.default_rng(1))
        o = objset.objectives[0]
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rng.normal(size=o.dim)
            _, grad = o._loss_grad(theta, o.shard.features, o.shard.labels)
            fd = finite_difference_gradient(o.full_loss, theta)
            rel = np.max(np.abs(grad - fd)) / max(np.linalg.norm(fd), 1.0)
            assert rel < 1e-5

    def test_zero_weights_predict_half(self):
        objset = make_mlp(2, 20, 4, 3, "iid", np.random.default_rng(3))
        o = objset.objectives[0]
        assert o.full_loss(np.zeros(o.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_overtraining_one_sample_drives_loss_down(self):
        shard = DataShard(np.array([[1.0, -1.0]]), np.array([1.0]), "iid")
        o = MlpObjective(shard, hidden=4, batch_size=1)
        rng = np.random.default_rng(4)
        theta = 0.5 * rng.normal(size=o.dim)
        for _ in range(3000):
            _, g = o._loss_grad(theta, shard.features, shard.labels)
            theta -= 0.5 * g
        assert o.full_loss(theta) < 1e-3

    def test_parameter_count(self):
        objset = make_mlp(2, 20, 5, 7, "iid", np.random.default_rng(8))
        assert objset.dim == 5 * 7 + 7 + 7 + 1


class TestSigmoidSaturation:
    """Far on the negative side exp(-z) overflows to inf and p is exactly 0."""

    def test_logistic_closed_form_gradient_without_warning(self):
        shard = DataShard(np.array([[1.0]]), np.array([1.0]), "iid")
        o = LogisticObjective(shard, batch_size=1)
        w = np.array([-800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = o.loss_and_grad(w, np.random.default_rng(0))
        # z = -800, p = 0: loss = log(1 + e^800) - z, grad = x (p - y) + reg w
        assert loss == 800.0 + 0.5 * o.reg * 640_000.0
        assert grad.tolist() == [-1.0 + o.reg * -800.0]

    def test_mlp_saturated_output_without_warning(self):
        shard = DataShard(np.array([[1.0]]), np.array([0.0]), "iid")
        o = MlpObjective(shard, hidden=1, batch_size=1)
        theta = np.zeros(o.dim)
        theta[-1] = -800.0  # b2: z = -800 whatever the hidden layer does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = o.loss_and_grad(theta, np.random.default_rng(0))
        assert loss == 0.0
        assert not grad.any()


class TestGradientOwnership:
    """`loss_and_grad` hands over a fresh gradient that the caller may overwrite."""

    @staticmethod
    def objective(family):
        rng = np.random.default_rng(21)
        if family == "quadratic":
            objset = make_quadratic(2, 12, rng)
        elif family == "logistic":
            objset = make_logistic(2, 40, 12, "iid", rng)
        else:
            objset = make_mlp(2, 40, 4, 3, "iid", rng)
        return objset.objectives[0], objset.initial_models[0]

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "mlp"])
    def test_gradient_shares_no_memory(self, family):
        o, x = self.objective(family)
        _, grad = o.loss_and_grad(x, np.random.default_rng(0))
        assert grad.dtype == np.float64 and grad.shape == x.shape and grad.flags.writeable
        owned = [v for v in vars(o).values() if isinstance(v, np.ndarray)]
        if hasattr(o, "shard"):
            owned += [o.shard.features, o.shard.labels]
        assert owned
        for a in [x, *owned]:
            assert not np.shares_memory(grad, a)

    @pytest.mark.parametrize("family", ["quadratic", "logistic", "mlp"])
    def test_one_sgd_step_is_x0_minus_gamma_grad(self, family):
        o, x0 = self.objective(family)
        gamma = 0.3
        # the worker's mini-batch generator is default_rng(sample_seed)
        _, grad = o.loss_and_grad(x0, np.random.default_rng(7))
        w = Worker(0, x0, o, gamma, 1, sample_seed=7)
        w.local_sgd_step()
        assert np.array_equal(w.x, x0 - gamma * grad)


def test_empty_shard_rejected():
    with pytest.raises(ValidationError):
        DataShard(np.empty((0, 3)), np.empty(0), "iid")
