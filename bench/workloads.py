"""The four benchmark workloads, driven through the package's public entry points.

A run repeats *instances* until its time is up.  An instance of a training
workload is one `cli.run_experiment` call (the runner behind `saps run`);
an instance of `verify-contraction` is one pass over its (n, c) sub-grid.
The first `instances` instances each get their own network and master
seed, derived from the run's `--seed`; later instances repeat them in order
and must reproduce them bit for bit.  Round and set-up times come from every
instance, the traffic metrics from the first `instances` only, so those
repeat exactly for a fixed seed.

Rounds and set-up are timed by wrapping `Coordinator.run_round` from
outside the package; the frames on the wire are counted by wrapping
`Worker.begin_round`.  Those two hooks are the same in traced and untraced
runs; a traced run adds the spans of `tracer.py` around each instance.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference as ref
from tracer import Layers, Patches, Tracer

import saps.cli as cli
import saps.core as core
import saps.matching as matching
import saps.objectives as objectives
import saps.sparsify as sparsify
import saps.transport as transport
import saps.verify as verify
import saps.wire as wire
from saps import analysis
from saps.coordinator import Coordinator
from saps.worker import Worker

clock = time.perf_counter

GAMMA = 0.1
T_THRES = 10
BW_HI = 5e6  # link speeds are uniform on (0, 5 MB/s]
STEADY = 2 * T_THRES  # rounds of each instance left out of the round metrics
NETWORK_SALT = 0x5A95_BE4C  # fixed networks: part of the workload, not of the seed


@dataclass(frozen=True)
class Training:
    transport: str
    n: int
    N: int
    c: int
    rounds: int
    instances: int


@dataclass(frozen=True)
class Contraction:
    grid: tuple[tuple[int, int, int], ...]  # (n, c, trials per pass)
    instances: int
    t_max: int = 100
    n_dims: int = 16
    rho_samples: int = 1000


WORKLOADS = {
    "sim-wide": Training("sim", n=16, N=100_000, c=100, rounds=44, instances=5),
    "sim-many": Training("sim", n=128, N=1_000, c=10, rounds=60, instances=8),
    "tcp-dense": Training("tcp", n=4, N=10_000, c=1, rounds=220, instances=8),
    # one n, so both configs cost the same per round and round_ms has one mode
    "verify-contraction": Contraction(grid=((16, 2, 16), (16, 10, 16)), instances=10),
}


def network(n: int, k: int) -> np.ndarray:
    """The k-th raw (unsymmetrised) n x n network of a workload, in bytes/second."""
    rng = np.random.default_rng([NETWORK_SALT, n, k])
    return BW_HI - rng.uniform(0.0, BW_HI, size=(n, n))


def symmetric(raw: np.ndarray) -> np.ndarray:
    """The configured speeds: the slower direction of each link, no self-links."""
    s = np.minimum(raw, raw.T)
    np.fill_diagonal(s, 0.0)
    return s


def _digest(*parts) -> str:
    """Hash of arrays (by their bytes) and other values (by their repr)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


@dataclass
class Recorder:
    """What the harness hooks saw during one instance."""

    rounds: list[tuple[float, float]] = field(default_factory=list)
    frames: list[tuple[int, int, int, int | None, int | None]] = field(default_factory=list)
    masks: list[tuple[int, int]] = field(default_factory=list)
    objset: object = None
    tracer: Tracer | None = None

    def clear(self) -> None:
        self.rounds.clear()
        self.frames.clear()
        self.masks.clear()
        self.objset = None


def harness_hooks(patches: Patches, rec: Recorder) -> None:
    def run_round(fn):
        def timed(self, fabric):
            tracer = rec.tracer
            if tracer is not None:
                tracer.in_round = True
            start = clock()
            try:
                return fn(self, fabric)
            finally:
                rec.rounds.append((start, clock()))
                if tracer is not None:
                    tracer.in_round = False
        return timed

    def begin_round(fn):
        def counted(self, msg):
            out = fn(self, msg)
            rec.frames.append((msg.round, self.rank, msg.seed, msg.peer_id,
                               None if out is None else len(out)))
            return out
        return counted

    def build_objectives(fn):
        def kept(cfg, rng):
            rec.objset = fn(cfg, rng)
            return rec.objset
        return kept

    def mask(fn):
        def counted(seed, c, n_dims):
            out = fn(seed, c, n_dims)
            rec.masks.append((seed, out.count))
            return out
        return counted

    patches.wrap(Coordinator, "run_round", run_round)
    patches.wrap(Worker, "begin_round", begin_round)
    patches.wrap(cli, "build_objectives", build_objectives)
    patches.wrap(analysis, "generate_mask", mask)


# ---------------------------------------------------------------- tracing


def trace_hooks(patches: Patches, tracer: Tracer) -> None:
    """Spans around the public functions of every module the workloads reach."""
    span = tracer.timed

    def in_round(**amounts):
        """Count only what happens while a coordinator round is open."""
        def note(tr, args, result):
            if tr.in_round:
                for key, amount in amounts.items():
                    tr.add(key, amount(args))
        return note

    def bridging(tr, args, result):
        if not result:
            tr.add("matching.bridging", 1)

    def splitmix(tr, args, result):
        tr.add("core.splitmix_values", args[1])

    for owner, attr, name, note in [
        (matching.AdaptiveSelector, "next_round", "matching.next_round", None),
        (matching, "randomly_max_match", "matching.max_match", None),
        (matching, "if_connected", "matching.if_connected", bridging),
        (core.TimestampMatrix, "with_pairs", "core.timestamp_update", None),
        (core.GossipMatrix, "from_matching", "core.gossip_from_matching", None),
        (sparsify, "splitmix64_array", "core.splitmix64_array", splitmix),
        (Coordinator, "plan_round", "coordinator.plan_round", None),
        (Coordinator, "run_round", "coordinator.run_round", None),
        (transport.SimFabric, "__init__", "transport.fabric_start", None),
        (transport.TcpFabric, "__init__", "transport.fabric_start", None),
        (transport.SimFabric, "recv_from_workers", "transport.recv_from_workers", None),
        (transport.TcpFabric, "recv_from_workers", "transport.recv_from_workers", None),
        (transport.SimFabric, "snapshot_models", "transport.snapshot_models", None),
        (transport.TcpFabric, "snapshot_models", "transport.snapshot_models", None),
        (transport, "read_frame", "transport.read_frame", None),
        (transport, "send_frame", "transport.send_frame",
         in_round(**{"transport.round_sent_bytes": lambda a: len(a[1])})),
        (transport.socket, "create_connection", "transport.dial",
         in_round(**{"transport.round_dials": lambda a: 1})),
        (analysis, "consensus_error", "analysis.consensus_error", None),
        (analysis, "estimate_rho", "analysis.estimate_rho", None),
        (analysis, "second_eigenvalue", "analysis.second_eigenvalue", None),
        (analysis, "measure_contraction", "analysis.measure_contraction", None),
        (analysis, "generate_mask", "sparsify.generate_mask", None),
        (sparsify, "generate_mask", "sparsify.generate_mask", None),
        (sparsify, "extract_payload", "sparsify.extract_payload", None),
        (sparsify, "merge_masked", "sparsify.merge_masked", None),
        (sparsify, "encode_payload", "sparsify.encode_payload", None),
        (sparsify, "decode_payload", "sparsify.decode_payload", None),
        (wire, "pack_frame", "wire.pack_frame",
         in_round(**{"wire.round_frames": lambda a: 1, "wire.round_crc_bytes": lambda a: len(a[1])})),
        (wire, "parse_frame", "wire.parse_frame",
         in_round(**{"wire.round_parses": lambda a: 1,
                     "wire.round_crc_bytes": lambda a: len(a[0]) - wire.HEADER_LEN - 4})),
        (Worker, "local_sgd_step", "worker.sgd_step", None),
        (Worker, "begin_round", "worker.begin_round", None),
        (Worker, "finish_round", "worker.finish_round", None),
        (objectives.QuadraticObjective, "loss_and_grad", "objectives.loss_and_grad", None),
        (cli, "make_quadratic", "objectives.build", None),
        (cli, "build_bandwidth", "cli.build_bandwidth", None),
    ]:
        patches.wrap(owner, attr, span(name, note))


def layer_metrics(tracer: Tracer, rounds: int, gossip_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced phase; `rounds` are coordinator rounds,
    `gossip_rounds` the rounds of measure_contraction trials."""
    L = Layers(tracer)
    per_round = max(rounds + gossip_rounds, 1)

    def us(name):
        return L.mean(name) * 1e6, "us"

    def ms(name):
        return L.mean(name) * 1e3, "ms"

    def ratio(a, b):
        return a / b if b else 0.0

    instrumentation = (L.total("transport.snapshot_models", "coordinator.run_round")
                       + L.total("analysis.consensus_error", "coordinator.run_round"))
    plans = L.count("coordinator.plan_round")
    return {
        "matching.next_round_us": us("matching.next_round"),
        "matching.max_match_us": us("matching.max_match"),
        "matching.if_connected_us": us("matching.if_connected"),
        "matching.max_match_calls_per_round": (
            ratio(L.count("matching.max_match"), L.count("matching.next_round")), "count"),
        "matching.bridging_share": (
            ratio(L.extra["matching.bridging"], L.count("matching.if_connected")), "ratio"),
        "core.timestamp_update_us": us("core.timestamp_update"),
        "core.gossip_from_matching_us": us("core.gossip_from_matching"),
        "core.splitmix_values_per_round": (L.extra["core.splitmix_values"] / per_round, "count"),
        "coordinator.plan_us": us("coordinator.plan_round"),
        "coordinator.plan_self_us": (ratio(L.self_total("coordinator.plan_round"), plans) * 1e6, "us"),
        "coordinator.barrier_ms": (ratio(L.total("transport.recv_from_workers"), rounds) * 1e3, "ms"),
        "coordinator.instrumentation_ms": (ratio(instrumentation, rounds) * 1e3, "ms"),
        "transport.snapshot_ms": ms("transport.snapshot_models"),
        "analysis.consensus_error_ms": ms("analysis.consensus_error"),
        "sparsify.mask_calls_per_round": (L.count("sparsify.generate_mask") / per_round, "count"),
        "sparsify.mask_us": us("sparsify.generate_mask"),
        "sparsify.extract_us": us("sparsify.extract_payload"),
        "sparsify.merge_us": us("sparsify.merge_masked"),
        "sparsify.encode_us": us("sparsify.encode_payload"),
        "sparsify.decode_us": us("sparsify.decode_payload"),
        "sparsify.decodes_per_frame": (
            ratio(L.count("sparsify.decode_payload"), L.count("sparsify.encode_payload")), "ratio"),
        "wire.frames_per_round": (L.extra["wire.round_frames"] / per_round, "count"),
        "wire.parses_per_round": (L.extra["wire.round_parses"] / per_round, "count"),
        "wire.crc_bytes_per_round": (L.extra["wire.round_crc_bytes"] / per_round, "B"),
        "worker.sgd_step_us": us("worker.sgd_step"),
        "worker.begin_round_us": us("worker.begin_round"),
        "worker.finish_round_us": us("worker.finish_round"),
        "objectives.loss_grad_us": us("objectives.loss_and_grad"),
        "transport.peer_dials_per_round": (L.extra["transport.round_dials"] / per_round, "count"),
        "transport.read_frame_us": us("transport.read_frame"),
        "transport.send_frame_us": us("transport.send_frame"),
        "transport.sent_bytes_per_round": (L.extra["transport.round_sent_bytes"] / per_round, "B"),
        "transport.fabric_start_ms": ms("transport.fabric_start"),
        "objectives.build_ms": ms("objectives.build"),
        "cli.build_bandwidth_ms": ms("cli.build_bandwidth"),
        "analysis.estimate_rho_ms": ms("analysis.estimate_rho"),
        "analysis.second_eigenvalue_ms": ms("analysis.second_eigenvalue"),
        "analysis.trial_ms": ms("analysis.measure_contraction"),
    }


# ---------------------------------------------------------------- instances


@dataclass
class Outcome:
    """One instance: its timings, its traffic figures and its fingerprint."""

    index: int
    setup_s: float
    round_s: list[float]
    attempted: int
    wire_bytes: float  # per worker per counted round
    comm_s: float  # summed over counted rounds
    bottleneck_bw: float  # mean over counted rounds, bytes/second
    random_bw: float  # the same rounds under RandomSelector; first instances only
    fingerprint: str


def _round_traffic(pairs, speeds: np.ndarray, frame: int, n: int) -> tuple[float, float, float]:
    """(bytes per worker, slowest transfer seconds, bottleneck speed) of one round."""
    slowest = min(speeds[i, j] for i, j in pairs)
    return 2.0 * frame * 2 * len(pairs) / n, frame / slowest, slowest


class TrainingRun:
    def __init__(self, spec: Training, seed: int, out_dir: Path) -> None:
        self.spec = spec
        self.seeds = ref.splitmix64(seed, spec.instances)
        self.speeds = []
        self.paths = []
        net_dir = out_dir / "networks"
        net_dir.mkdir(parents=True, exist_ok=True)
        for k in range(spec.instances):
            raw = network(spec.n, k)
            path = net_dir / f"n{spec.n}-k{k}.json"
            path.write_text(json.dumps({"speeds": raw.tolist()}))
            self.speeds.append(symmetric(raw))
            self.paths.append(path)

    def config(self, k: int, rounds: int | None = None) -> cli.ExperimentConfig:
        s = self.spec
        return cli.ExperimentConfig(
            n=s.n, T=rounds or s.rounds, c=s.c, gamma=GAMMA, N=s.N, T_thres=T_THRES,
            master_seed=self.seeds[k], objective={"kind": "quadratic"}, transport=s.transport,
            peer_selection="adaptive", bandwidth={"kind": "file", "path": str(self.paths[k])},
        )

    def warm_up(self, rec: Recorder) -> None:
        cli.run_experiment(self.config(0, rounds=3))
        rec.clear()

    def instance(self, index: int, rec: Recorder, tracer: Tracer | None) -> Outcome:
        k = index % self.spec.instances
        cfg = self.config(k)
        rec.clear()
        rec.tracer = tracer
        gc.collect()
        with Patches() as patches:
            if tracer is not None:
                trace_hooks(patches, tracer)
            start = clock()
            result = cli.run_experiment(cfg)
        return self._outcome(index, k, cfg, result, rec, rec.rounds[0][0] - start)

    def _outcome(self, index, k, cfg, result, rec: Recorder, setup_s: float) -> Outcome:
        n, T = cfg.n, cfg.T
        speeds = self.speeds[k]
        # the checks below run the package again; keep what this instance recorded
        round_spans, frames, objset = list(rec.rounds), sorted(rec.frames), rec.objset
        if len(round_spans) != T or len(result.records) != T:
            raise ref.CheckFailed(f"{len(round_spans)} rounds timed, {T} configured")
        by_round: dict[int, list] = {}
        for rnd, rank, seed, peer, size in frames:
            by_round.setdefault(rnd, []).append((rank, seed, peer, size))
        wire_b = comm = bw = 0.0
        for t, record in enumerate(result.records):
            ref.check_matching(record.pairs, n, speeds)
            entries = by_round[t]
            seeds = {seed for _, seed, _, _ in entries}
            if len(entries) != n or len(seeds) != 1:
                raise ref.CheckFailed(f"round {t}: {len(entries)} workers began, seeds {seeds}")
            peer_of = {rank: peer for rank, _, peer, _ in entries}
            for i, j in record.pairs:
                if peer_of[i] != j or peer_of[j] != i:
                    raise ref.CheckFailed(f"round {t}: pair ({i}, {j}) was not told to each other")
            lens = [size for _, _, peer, size in entries if peer is not None]
            k_t = ref.mask_size(seeds.pop(), cfg.c, cfg.N)
            ref.check_round_frames(lens, 2 * len(record.pairs), k_t)
            if t >= STEADY:
                b, s, m = _round_traffic(record.pairs, speeds, lens[0], n)
                wire_b, comm, bw = wire_b + b, comm + s, bw + m
        counted = T - STEADY

        models = np.stack([w.x for w in result.workers])
        ref.check_mean_model(models, np.stack([o.target for o in objset.objectives]),
                             np.stack(objset.initial_models), GAMMA, T)
        if self.spec.transport == "tcp" and index < self.spec.instances:
            sim = cli.run_experiment(replace(cfg, transport="sim"))
            if _digest(*(w.x for w in sim.workers)) != _digest(*(w.x for w in result.workers)):
                raise ref.CheckFailed("tcp final models differ from the sim fabric's")
        random_bw = 0.0
        if index < self.spec.instances:
            baseline = matching.RandomSelector(core.BandwidthMatrix(speeds), random.Random(cfg.master_seed))
            for t in range(T):
                _, m = baseline.next_round()
                if t >= STEADY:
                    random_bw += min(speeds[i, j] for i, j in m.pairs)
            random_bw /= counted
        return Outcome(
            index=index,
            setup_s=setup_s,
            round_s=[end - start for start, end in round_spans[STEADY:]],
            attempted=T,
            wire_bytes=wire_b / counted,
            comm_s=comm,
            bottleneck_bw=bw / counted,
            random_bw=random_bw,
            fingerprint=_digest(models, [r.pairs for r in result.records], frames),
        )


class ContractionRun:
    def __init__(self, spec: Contraction, seed: int) -> None:
        self.spec = spec
        self.seeds = ref.splitmix64(seed, spec.instances)
        self.raw = {(n, k): network(n, k) for n, _, _ in spec.grid for k in range(spec.instances)}

    def warm_up(self, rec: Recorder) -> None:
        n, c, _ = self.spec.grid[0]
        sel = verify.make_adaptive_selector(n, seed=0, bandwidth=self.raw[(n, 0)], t_thres=T_THRES)
        analysis.estimate_rho(sel, 100)
        analysis.measure_contraction(n, c, sel, 10, 1, np.random.default_rng(0), self.spec.n_dims)
        rec.clear()

    def instance(self, index: int, rec: Recorder, tracer: Tracer | None) -> Outcome:
        spec = self.spec
        k = index % spec.instances
        rec.tracer = tracer
        gc.collect()
        setup = 0.0
        round_s: list[float] = []
        wire_b = comm = bw = 0.0
        rounds = 0
        digests = []
        with Patches() as patches:
            if tracer is not None:
                trace_hooks(patches, tracer)
            for g, (n, c, trials) in enumerate(spec.grid):
                seed = (self.seeds[k] + g) & ref.MASK64
                rec.clear()
                start = clock()
                sel = verify.make_adaptive_selector(n, seed=seed, bandwidth=self.raw[(n, k)], t_thres=T_THRES)
                log: list = []
                pick = sel.next_round

                def logged(pick=pick, log=log):
                    w, m = pick()
                    log.append(m.pairs)
                    return w, m

                sel.next_round = logged
                est = analysis.estimate_rho(sel, spec.rho_samples)
                setup += clock() - start
                sampled = list(log[-spec.rho_samples:])
                del log[:]
                rng = np.random.default_rng(seed)
                ratios = []
                for _ in range(trials):
                    t0 = clock()
                    ratios.append(analysis.measure_contraction(n, c, sel, spec.t_max, 1, rng, spec.n_dims))
                    round_s.append((clock() - t0) / spec.t_max)
                rounds += trials * spec.t_max
                masks = list(rec.masks)
                pairs_log = list(log)
                speeds = symmetric(self.raw[(n, k)])
                ref.check_rho(est.rho, n, sampled)
                mean = np.mean(ratios, axis=0)
                ref.check_contraction_curve(mean)
                ref.check_unsquared_envelope(mean, est.rho, c, spec.n_dims, trials)
                if len(pairs_log) != len(masks) or len(masks) != trials * spec.t_max:
                    raise ref.CheckFailed(f"{len(pairs_log)} matchings and {len(masks)} masks "
                                          f"for {trials * spec.t_max} rounds")
                for pairs, (mask_seed, count) in zip(pairs_log, masks):
                    ref.check_matching(pairs, n, speeds)
                    k_t = ref.mask_size(mask_seed, c, spec.n_dims)
                    if count != k_t:
                        raise ref.CheckFailed(f"mask of seed {mask_seed:#x} has {count} values, want {k_t}")
                    b, s, m = _round_traffic(pairs, speeds, ref.frame_bytes(k_t), n)
                    wire_b, comm, bw = wire_b + b, comm + s, bw + m
                digests.append(_digest(np.array(ratios), np.array([est.rho])))
        return Outcome(
            index=index, setup_s=setup, round_s=round_s, attempted=rounds,
            wire_bytes=wire_b / rounds, comm_s=comm, bottleneck_bw=bw / rounds, random_bw=0.0,
            fingerprint="".join(digests),
        )


def make_run(name: str, seed: int, out_dir: Path):
    spec = WORKLOADS[name]
    if isinstance(spec, Training):
        return TrainingRun(spec, seed, out_dir)
    return ContractionRun(spec, seed)


def phase(run, rec: Recorder, seconds: float, minimum: int) -> list[Outcome]:
    """Instances 0, 1, ... until `seconds` have passed and at least `minimum` ran."""
    outcomes: list[Outcome] = []
    start = clock()
    while len(outcomes) < minimum or clock() - start < seconds:
        outcomes.append(run.instance(len(outcomes), rec, None))
    return outcomes


def traced_phase(run, rec: Recorder, seconds: float, tracer: Tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Untraced and traced instances in turn, so that both see the machine in
    the same state and their difference is the tracing overhead."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = clock()
    while not plain or clock() - start < seconds:
        plain.append(run.instance(len(plain), rec, None))
        traced.append(run.instance(len(traced), rec, tracer))
    return plain, traced


def check_repeats(outcomes: list[Outcome], instances: int) -> None:
    for o in outcomes[instances:]:
        first = outcomes[o.index % instances]
        if o.fingerprint != first.fingerprint:
            raise ref.CheckFailed(f"instance {o.index} did not reproduce instance {first.index}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(outcomes: list[Outcome], instances: int) -> dict[str, tuple[float, str]]:
    rounds = [t for o in outcomes for t in o.round_s]
    first = outcomes[:instances]
    return {
        "setup_s": (statistics.median(o.setup_s for o in outcomes), "s"),
        "round_ms": (statistics.median(rounds) * 1e3, "ms"),
        "round_ms_p90": (quantile(rounds, 90) * 1e3, "ms"),
        "wire_bytes_per_worker_round": (statistics.fmean(o.wire_bytes for o in first), "B"),
        # geometric: one network with a rarely used, very slow link would
        # otherwise decide the whole figure
        "virtual_comm_s": (statistics.geometric_mean(o.comm_s for o in first), "s"),
        "bottleneck_bw_MBps": (statistics.fmean(o.bottleneck_bw for o in first) / 1e6, "MB/s"),
    }


def check_outcomes(spec, outcomes: list[Outcome]) -> None:
    check_repeats(outcomes, spec.instances)
    rounds = sum(len(o.round_s) for o in outcomes)
    if rounds < 100:
        raise ref.CheckFailed(f"only {rounds} rounds timed; the 90th percentile needs 100")
    if isinstance(spec, Training) and spec.transport == "sim":
        first = outcomes[: spec.instances]
        adaptive = statistics.fmean(o.bottleneck_bw for o in first)
        baseline = statistics.fmean(o.random_bw for o in first)
        if not adaptive > baseline:
            raise ref.CheckFailed(f"adaptive bottleneck {adaptive:.0f} B/s does not beat "
                                  f"random selection's {baseline:.0f} B/s")


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, raw record for out_dir)."""
    spec = WORKLOADS[name]
    bench = make_run(name, seed, out_dir)
    rec = Recorder()
    raw: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    with Patches() as patches:
        harness_hooks(patches, rec)
        bench.warm_up(rec)
        try:
            if not trace:
                outcomes = phase(bench, rec, seconds, spec.instances)
                check_outcomes(spec, outcomes)
                metrics = end_to_end(outcomes, spec.instances)
                attempted = sum(o.attempted for o in outcomes)
            else:
                tracer = Tracer()
                plain, traced = traced_phase(bench, rec, seconds, tracer)
                for outcomes in (plain, traced):
                    check_repeats(outcomes, spec.instances)
                attempted = sum(o.attempted for o in plain + traced)
                coordinator_rounds = sum(o.attempted for o in traced) if isinstance(spec, Training) else 0
                metrics = layer_metrics(tracer, coordinator_rounds, sum(o.attempted for o in traced) - coordinator_rounds)
                base = statistics.median(t for o in plain for t in o.round_s)
                with_trace = statistics.median(t for o in traced for t in o.round_s)
                metrics["trace.overhead_ms"] = ((with_trace - base) * 1e3, "ms")
                metrics["trace.overhead_share"] = ((with_trace - base) / base, "ratio")
                raw["layers"] = Layers(tracer).summary()
                raw["spans"] = tracer.spans
                outcomes = plain + traced
        except ref.CheckFailed as e:  # a wrong output ends the run; nothing it timed counts
            raw["failure"] = str(e)
            return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}, raw
    raw["instances"] = [
        {"index": o.index, "setup_s": o.setup_s, "attempted": o.attempted,
         "round_ms_median": statistics.median(o.round_s) * 1e3,
         "round_ms_p90": quantile(o.round_s, 90) * 1e3,
         "wire_bytes": o.wire_bytes, "comm_s": o.comm_s, "bottleneck_bw": o.bottleneck_bw,
         "random_bw": o.random_bw}
        for o in outcomes
    ]
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, raw
