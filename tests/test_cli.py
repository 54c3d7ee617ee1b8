import hashlib
import json

import numpy as np
import pytest

from saps.cli import (
    ExperimentConfig,
    build_bandwidth,
    load_cities14,
    main,
    run_experiment,
)
from saps.errors import ValidationError


def write_config(tmp_path, **overrides):
    cfg = {
        "n": 4,
        "N": 8,
        "T": 12,
        "c": 2,
        "gamma": 0.05,
        "master_seed": 5,
        "objective": {"kind": "quadratic"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "T": 5, "c": 1, "gamma": 0.1, "bogus": 1}))
        with pytest.raises(ValidationError, match="bogus"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1},
            {"c": 0},
            {"T": 0},
            {"T_thres": 0},
            {"transport": "carrier-pigeon"},
            {"peer_selection": "closest"},
            {"partition": "sorted"},
            {"bandwidth": {"kind": "uniform", "lo": 5.0, "hi": 1.0}},
            {"bandwidth": {"kind": "nowhere"}},
            {"objective": {"kind": "cubic"}},
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, overrides):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json(write_config(tmp_path, **overrides))

    def test_validation_happens_before_any_round(self, tmp_path):
        # error escapes before training state is built
        path = write_config(tmp_path, gamma=-1.0)
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json(path)


class TestBandwidthSources:
    def test_uniform_sampling_range(self):
        cfg = ExperimentConfig(n=16, T=1, c=1, gamma=0.0, N=2,
                               bandwidth={"kind": "uniform", "lo": 0.0, "hi": 5e6})
        b = build_bandwidth(cfg, np.random.default_rng(1))
        off = b.speeds[~np.eye(16, dtype=bool)]
        assert (off > 0).all() and (off <= 5e6).all()

    def test_cities_preset(self):
        b, sites = load_cities14()
        assert b.n == 14 and len(sites) == 14
        assert np.array_equal(b.speeds, b.speeds.T)

    def test_cities_preset_requires_n14(self):
        cfg = ExperimentConfig(n=8, T=1, c=1, gamma=0.0, N=2,
                               bandwidth={"kind": "cities14"})
        with pytest.raises(ValidationError, match="14"):
            build_bandwidth(cfg, np.random.default_rng(0))

    def test_file_source(self, tmp_path):
        doc = {"speeds": (5.0 * (1 - np.eye(3))).tolist()}
        path = tmp_path / "bw.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig(n=3, T=1, c=1, gamma=0.0, N=2,
                               bandwidth={"kind": "file", "path": str(path)})
        b = build_bandwidth(cfg, np.random.default_rng(0))
        assert b.speeds[0, 1] == 5.0


class TestRunExperiment:
    def test_quadratic_run_converges_to_optimum(self):
        cfg = ExperimentConfig(
            n=8, N=16, T=500, c=1, gamma=0.05, master_seed=3,
            objective={"kind": "quadratic", "heterogeneity": 0.0},
        )
        res = run_experiment(cfg)
        assert res.summary["x_star_distance"] < 1e-3

    def test_ring_mode_runs(self):
        cfg = ExperimentConfig(n=6, N=8, T=10, c=1, gamma=0.0, master_seed=4,
                               peer_selection="ring")
        res = run_experiment(cfg)
        assert {r.pairs for r in res.records} == {
            ((0, 1), (2, 3), (4, 5)),
            ((0, 5), (1, 2), (3, 4)),
        }

    def test_mlp_objective_runs(self):
        cfg = ExperimentConfig(
            n=2, T=5, c=1, gamma=0.1, master_seed=6,
            objective={"kind": "mlp", "features": 4, "hidden": 3, "samples": 32},
        )
        res = run_experiment(cfg)
        assert res.final_model.size == 4 * 3 + 3 + 3 + 1

    def test_logistic_label_skew_runs(self):
        cfg = ExperimentConfig(
            n=4, N=6, T=5, c=2, gamma=0.1, master_seed=7, partition="label-skew",
            objective={"kind": "logistic", "samples": 128},
        )
        res = run_experiment(cfg)
        assert np.isfinite(res.summary["final_loss"])


class TestDeterminism:
    def test_equal_seeds_give_identical_csv_and_model(self, tmp_path):
        cfg = ExperimentConfig(n=4, N=8, T=30, c=2, gamma=0.05, master_seed=11)
        a = run_experiment(cfg, out_csv=tmp_path / "a.csv")
        b = run_experiment(cfg, out_csv=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert np.array_equal(a.final_model, b.final_model)

    def test_different_seeds_differ(self, tmp_path):
        base = dict(n=4, N=8, T=10, c=2, gamma=0.05)
        a = run_experiment(ExperimentConfig(master_seed=1, **base))
        b = run_experiment(ExperimentConfig(master_seed=2, **base))
        assert not np.array_equal(a.final_model, b.final_model)


class TestGoldenCsv:
    """Pins the bytes of one fixed-seed run's CSV across commits.

    The digest was taken with the consensus error summed in worker-major
    order.  A change that moves any CSV byte must say so and update the
    digest; the loss and consensus columns are BLAS dot products, so a
    different numpy/BLAS build may also move their last bits.
    """

    DIGEST = "b3b8a2238a35a4849d37bdcdc8412d5d74108e77ddd84587b9698b2ed9dbfc00"

    def test_fixed_seed_csv_digest_on_both_fabrics(self, tmp_path):
        base = dict(n=8, N=64, c=4, T=120, T_thres=3, gamma=0.05, master_seed=77)
        for transport in ("sim", "tcp"):
            run_experiment(ExperimentConfig(transport=transport, **base),
                           out_csv=tmp_path / f"{transport}.csv")
        sim = (tmp_path / "sim.csv").read_bytes()
        assert (tmp_path / "tcp.csv").read_bytes() == sim
        assert hashlib.sha256(sim).hexdigest() == self.DIGEST


class TestCommandLine:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out_path = tmp_path / "metrics.csv"
        code = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "final_loss" in capsys.readouterr().out

    def test_run_with_seed_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--seed", "99"]) == 0

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "T": 5, "c": 1, "gamma": 0.1}))
        assert main(["run", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cost_command(self, capsys):
        code = main(["cost", "--algo", "saps-psgd", "--N", "100", "--n", "8",
                     "--T", "10", "--c", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "server_cost: 100" in out and "worker_cost: 200" in out

    def test_cost_missing_np_exits_one(self, capsys):
        assert main(["cost", "--algo", "d-psgd", "--N", "10", "--n", "4", "--T", "5"]) == 1

    def test_rho_command(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, n=4)
        assert main(["rho", "--config", str(cfg_path), "--samples", "150"]) == 0
        assert "rho:" in capsys.readouterr().out

    def test_verify_quick_reports_the_known_contraction_failure(self, capsys):
        # The quick suite is deterministic: every check passes except the
        # consensus-contraction one, whose stated squared-factor envelope the
        # sampled process does not follow (see README); exit code is 2.
        assert main(["verify", "--quick"]) == 2
        out = capsys.readouterr().out
        failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failing) == 1
        assert "consensus-contraction-bound" in failing[0]
        assert "6/7 checks passed" in out
