"""Experiment runner and command-line entry point.

Subcommands:

    run    --config cfg.json [--out metrics.csv] [--transport sim|tcp] [--seed S]
    verify [--quick]
    rho    --config cfg.json --samples K
    cost   --algo NAME --N .. --n .. --T .. [--c ..] [--np ..]

Exit codes: 0 success, 1 validation error, 2 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis
from .coordinator import (
    ALGORITHMS,
    Coordinator,
    CostModelInput,
    comm_cost,
    make_selector,
    run_streams,
)
from .core import BandwidthMatrix, SplitMix64, symmetrize_bandwidth
from .errors import SapsError, ValidationError
from .objectives import ObjectiveSet, make_logistic, make_mlp, make_quadratic
from .transport import SimFabric, TcpFabric
from .worker import Worker

_RUNNER_SALT = 0x9D2C5680_5ABD5ABD  # decorrelates runner seeds from protocol seeds


@dataclass
class ExperimentConfig:
    n: int
    T: int
    c: int
    gamma: float
    N: int | None = None
    T_thres: int = 10
    B_thres: float | None = None  # None: coordinator.default_b_thres
    master_seed: int = 0
    objective: dict = field(default_factory=lambda: {"kind": "quadratic"})
    partition: str = "iid"
    transport: str = "sim"
    peer_selection: str = "adaptive"
    bandwidth: dict = field(default_factory=lambda: {"kind": "uniform", "lo": 0.0, "hi": 5e6})

    def validate(self) -> None:
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.c < 1:
            raise ValidationError(f"c must be >= 1, got {self.c}")
        if self.T < 1:
            raise ValidationError(f"T must be >= 1, got {self.T}")
        if self.T_thres < 1:
            raise ValidationError(f"T_thres must be >= 1, got {self.T_thres}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.partition not in ("iid", "label-skew"):
            raise ValidationError(f"unknown partition {self.partition!r}")
        if self.transport not in ("sim", "tcp"):
            raise ValidationError(f"unknown transport {self.transport!r}")
        if self.peer_selection not in ("adaptive", "random", "ring"):
            raise ValidationError(f"unknown peer-selection mode {self.peer_selection!r}")
        kind = self.bandwidth.get("kind")
        if kind == "uniform":
            lo = float(self.bandwidth.get("lo", 0.0))
            hi = float(self.bandwidth.get("hi", 0.0))
            if not (0 <= lo < hi):
                raise ValidationError(f"uniform bandwidth needs 0 <= lo < hi, got ({lo}, {hi})")
        elif kind == "file":
            if "path" not in self.bandwidth:
                raise ValidationError("bandwidth kind 'file' needs a 'path'")
        elif kind != "cities14":
            raise ValidationError(f"unknown bandwidth source {kind!r}")
        if self.objective.get("kind", "quadratic") not in ("quadratic", "logistic", "mlp"):
            raise ValidationError(f"unknown objective kind {self.objective.get('kind')!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


def load_cities14() -> tuple[BandwidthMatrix, list[str]]:
    """Packaged 14-site preset (synthetic magnitudes, bytes/second)."""
    text = resources.files("saps.data").joinpath("cities14.json").read_text()
    doc = json.loads(text)
    return symmetrize_bandwidth(np.array(doc["speeds"])), doc["sites"]


def build_bandwidth(cfg: ExperimentConfig, rng: np.random.Generator) -> BandwidthMatrix:
    kind = cfg.bandwidth.get("kind")
    if kind == "uniform":
        lo = float(cfg.bandwidth.get("lo", 0.0))
        hi = float(cfg.bandwidth["hi"])
        # samples in (lo, hi]: the slow side of each link still has positive speed
        raw = hi - rng.uniform(0.0, hi - lo, size=(cfg.n, cfg.n))
        return symmetrize_bandwidth(raw)
    if kind == "cities14":
        b, _ = load_cities14()
        if cfg.n != b.n:
            raise ValidationError(f"cities14 preset has n=14, config says n={cfg.n}")
        return b
    doc = json.loads(Path(cfg.bandwidth["path"]).read_text())
    b = symmetrize_bandwidth(np.array(doc["speeds"]))
    if b.n != cfg.n:
        raise ValidationError(f"bandwidth file has n={b.n}, config says n={cfg.n}")
    return b


def build_objectives(cfg: ExperimentConfig, rng: np.random.Generator) -> ObjectiveSet:
    spec = dict(cfg.objective)
    kind = spec.pop("kind", "quadratic")
    if kind == "quadratic":
        if cfg.N is None:
            raise ValidationError("quadratic objective needs N")
        return make_quadratic(
            cfg.n,
            cfg.N,
            rng,
            heterogeneity=float(spec.pop("heterogeneity", 1.0)),
            init_spread=float(spec.pop("init_spread", 1.0)),
        )
    if kind == "logistic":
        if cfg.N is None:
            raise ValidationError("logistic objective needs N")
        return make_logistic(
            cfg.n,
            int(spec.pop("samples", 64 * cfg.n)),
            cfg.N,
            cfg.partition,
            rng,
            batch_size=int(spec.pop("batch_size", 32)),
            separation=float(spec.pop("separation", 2.0)),
        )
    obj = make_mlp(
        cfg.n,
        int(spec.pop("samples", 64 * cfg.n)),
        int(spec.pop("features", 8)),
        int(spec.pop("hidden", 8)),
        cfg.partition,
        rng,
        batch_size=int(spec.pop("batch_size", 32)),
    )
    if cfg.N is not None and cfg.N != obj.dim:
        raise ValidationError(f"mlp parameter count is {obj.dim}, config N={cfg.N}")
    return obj


@dataclass
class ExperimentResult:
    final_model: np.ndarray
    records: list[analysis.RoundRecord]
    summary: dict
    coordinator: Coordinator
    workers: list[Worker]


def _runner_streams(cfg: ExperimentConfig) -> tuple[np.random.Generator, np.random.Generator, int]:
    """The runner's data RNG, bandwidth RNG and base of the per-worker sample seeds."""
    seeds = SplitMix64(cfg.master_seed ^ _RUNNER_SALT)
    return (
        np.random.default_rng(seeds.next_u64()),
        np.random.default_rng(seeds.next_u64()),
        seeds.next_u64(),
    )


def run_experiment(cfg: ExperimentConfig, out_csv: str | Path | None = None) -> ExperimentResult:
    """Execute T rounds, optionally write the metrics CSV, return the summary."""
    cfg.validate()
    data_rng, bw_rng, sample_base = _runner_streams(cfg)
    b = build_bandwidth(cfg, bw_rng)
    objset = build_objectives(cfg, data_rng)
    n_dims = objset.dim

    workers = [
        Worker(
            rank,
            objset.initial_models[rank],
            objset.objectives[rank],
            cfg.gamma,
            cfg.c,
            sample_seed=(sample_base + rank) & ((1 << 64) - 1),
        )
        for rank in range(cfg.n)
    ]
    coord = Coordinator(
        b, cfg.B_thres, cfg.T_thres, cfg.master_seed, cfg.c, n_dims, cfg.peer_selection
    )
    fabric = (
        SimFabric(workers, b) if cfg.transport == "sim" else TcpFabric(workers, b)
    )
    try:
        for _ in range(cfg.T):
            coord.run_round(fabric)
        final = coord.collect_final_model(fabric)
        models = fabric.snapshot_models()
    finally:
        fabric.shutdown()

    if out_csv is not None:
        analysis.export_csv(coord.records, out_csv)

    final_loss = float(
        np.mean([objset.objectives[i].full_loss(models[:, i]) for i in range(cfg.n)])
    )
    rho_run = analysis.second_eigenvalue(coord.mean_wtw())
    summary = {
        "final_loss": final_loss,
        "total_payload_bytes": float(sum(r.bytes_per_worker for r in coord.records) * cfg.n),
        "total_values_exchanged": int(coord.values_per_worker.sum()),
        "total_comm_time": coord.cum_time,
        "rho_estimate": rho_run,
        "x_star_distance": (
            float(max(np.linalg.norm(models[:, i] - objset.x_star) for i in range(cfg.n)))
            if objset.x_star is not None
            else None
        ),
    }
    return ExperimentResult(final, coord.records, summary, coord, workers)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.transport:
        cfg.transport = args.transport
    if args.seed is not None:
        cfg.master_seed = args.seed
    cfg.validate()
    result = run_experiment(cfg, out_csv=args.out)
    for key, value in result.summary.items():
        if value is not None:
            print(f"{key}: {value}")
    if args.out:
        print(f"metrics written to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification_suite

    results = run_verification_suite(quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({r.elapsed:.1f}s): {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def _cmd_rho(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    _, bw_rng, _ = _runner_streams(cfg)
    b = build_bandwidth(cfg, bw_rng)
    _, match_rng = run_streams(cfg.master_seed)
    selector = make_selector(cfg.peer_selection, b, cfg.B_thres, cfg.T_thres, match_rng)
    est = analysis.estimate_rho(selector, args.samples)
    print(f"rho: {est.rho:.12f}")
    print(f"samples: {est.n_samples}")
    print(f"std_error: {est.std_error:.3e}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    server, worker_cost = comm_cost(
        CostModelInput(
            algo=args.algo,
            n_dims=args.N,
            n_workers=args.n,
            t_rounds=args.T,
            c=args.c,
            n_p=args.n_p,
        )
    )
    print(f"server_cost: {server:g}")
    print(f"worker_cost: {worker_cost:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saps",
        description="Sparsified single-peer gossip SGD with adaptive peer selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a training experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="write per-round metrics CSV here")
    p_run.add_argument("--transport", choices=("sim", "tcp"), default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--quick", action="store_true", help="reduced trial counts")
    p_verify.set_defaults(func=_cmd_verify)

    p_rho = sub.add_parser("rho", help="estimate the gossip mixing factor")
    p_rho.add_argument("--config", required=True)
    p_rho.add_argument("--samples", type=int, required=True)
    p_rho.set_defaults(func=_cmd_rho)

    p_cost = sub.add_parser("cost", help="closed-form communication cost")
    p_cost.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_cost.add_argument("--N", type=int, required=True, dest="N")
    p_cost.add_argument("--n", type=int, required=True, dest="n")
    p_cost.add_argument("--T", type=int, required=True, dest="T")
    p_cost.add_argument("--c", type=int, default=None, dest="c")
    p_cost.add_argument("--np", type=int, default=None, dest="n_p")
    p_cost.set_defaults(func=_cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SapsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
