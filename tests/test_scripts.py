"""The scripts under scripts/ run end to end at toy sizes and write their outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,header,rows",
    [
        ("bandwidth_utilization.py", ["--n", "4", "--rounds", "20"],
         ["mode", "round", "min_bw", "mean_bw"], 3 * 20),
        ("communication_time.py", ["--n", "4", "--T", "10"],
         ["mode", "round", "cum_time"], 3 * 10),
        ("compression_sweep.py",
         ["--n", "4", "--N", "8", "--T", "10", "--c", "1", "10", "--samples", "256"],
         ["c", "loss_at_mean_model", "values_per_worker", "cum_time"], 2),
    ],
)
def test_script_writes_its_csv(tmp_path, script, args, header, rows):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as f:
        table = list(csv.reader(f))
    assert table[0] == header
    assert len(table) - 1 == rows


def bench_record(directory, workload, seed, metrics, correct=True):
    """A synthetic `bench/run.py` record with the given metric values."""
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}
    path = directory / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps({"result": result, "workload": workload, "seed": seed,
                                "seconds": 1.0, "trace": False, "instances": []}))
    return path


def fold_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fold_bench.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


def test_fold_bench_writes_medians_quartiles_and_seeds(tmp_path):
    records = [bench_record(tmp_path, "sim-wide", s, {"round_ms": v, "setup_s": 0.5})
               for s, v in [(3, 4.0), (1, 1.0), (4, 3.0), (2, 2.0), (5, 5.0)]]
    records.append(bench_record(tmp_path, "tcp-dense", 9, {"round_ms": 7.0}, correct=False))
    out = tmp_path / "BENCH_x.json"
    proc = fold_bench(tmp_path, "--label", "x", "--out", out, *records)
    assert proc.returncode == 0, proc.stderr
    folded = json.loads(out.read_text())
    assert folded["label"] == "x"
    assert folded["git_rev"] is None  # tmp_path is no git checkout
    wide = folded["workloads"]["sim-wide"]
    assert (wide["runs"], wide["correct"], wide["attempted"], wide["failed"]) == (5, 5, 50, 0)
    assert wide["metrics"]["round_ms"] == {"unit": "ms", "median": 3.0, "q1": 2.0, "q3": 4.0,
                                           "runs": 5, "seeds": [1, 2, 3, 4, 5],
                                           "values": [1.0, 2.0, 4.0, 3.0, 5.0]}
    assert wide["metrics"]["setup_s"]["median"] == 0.5
    tcp = folded["workloads"]["tcp-dense"]
    assert (tcp["runs"], tcp["correct"], tcp["failed"]) == (1, 0, 1)
    assert tcp["metrics"]["round_ms"] == {"unit": "ms", "median": 7.0, "q1": 7.0, "q3": 7.0,
                                          "runs": 1, "seeds": [9], "values": [7.0]}
    assert set(folded["host"]) == {"platform", "cpu_count", "affinity", "python", "numpy"}
    assert folded["host"]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert folded["host"]["affinity"] == sorted(os.sched_getaffinity(0))


def fold_side(directory, label, runs):
    """Fold synthetic records {workload: {seed: {metric: value}}} into BENCH_<label>.json."""
    directory.mkdir()
    records = [bench_record(directory, w, seed, metrics)
               for w, by_seed in runs.items() for seed, metrics in by_seed.items()]
    out = directory / f"BENCH_{label}.json"
    proc = fold_bench(directory, "--label", label, "--out", out, *records)
    assert proc.returncode == 0, proc.stderr
    return out


def test_fold_bench_compare_pairs_runs_by_seed(tmp_path):
    seeds = range(101, 111)
    parent = {
        "sim-many": {s: {"round_ms": 5.0 + 0.01 * k, "round_ms_p90": 6.0,
                         "bottleneck_bw_MBps": 1.5} for k, s in enumerate(seeds)},
        "tcp-dense": {s: {"round_ms": 1.0, "setup_s": 0.010, "wire_bytes_per_worker_round": 800.0}
                      for s in seeds},
    }
    # a seed only the parent ran has no pair and must not count
    parent["sim-many"][100] = {"round_ms": 0.1, "round_ms_p90": 0.1, "bottleneck_bw_MBps": 9.0}
    change = {
        # 9 of 10 pairs win by a margin wider than the parent's quartile spread
        "sim-many": {s: {"round_ms": (4.0 if k else 6.0) + 0.01 * k, "round_ms_p90": 5.8,
                         "bottleneck_bw_MBps": 1.5} for k, s in enumerate(seeds)},
        # round_ms 20% worse, inside its 25% bound; setup_s 40% worse, past it
        "tcp-dense": {s: {"round_ms": 1.2, "setup_s": 0.014,
                          # one pair of ten differs, by less than its bound
                          "wire_bytes_per_worker_round": 808.0 if s == 105 else 800.0}
                      for s in seeds},
    }
    files = fold_side(tmp_path / "p", "p", parent), fold_side(tmp_path / "c", "c", change)
    proc = fold_bench(tmp_path, "--compare", *files)
    assert proc.returncode == 1, proc.stderr  # one metric regressed
    verdicts = {tuple(line.split()[:2]): line.split()[-1] for line in proc.stdout.splitlines()[1:]}
    assert verdicts == {
        ("sim-many", "round_ms"): "resolved",
        # 10/10 wins; the parent's runs all read 6.0, so any better median resolves
        ("sim-many", "round_ms_p90"): "resolved",
        ("sim-many", "bottleneck_bw_MBps"): "identical",  # every pair ties
        ("tcp-dense", "setup_s"): "regressed",
        ("tcp-dense", "round_ms"): "unresolved",
        ("tcp-dense", "wire_bytes_per_worker_round"): "unresolved",  # 9 ties, one loss
    }
    assert "9/10" in next(line for line in proc.stdout.splitlines() if "sim-many" in line
                          and " round_ms " in line)


def test_fold_bench_compare_needs_ten_pairs(tmp_path):
    parent = {"sim-many": {s: {"round_ms": 5.0} for s in range(9)}}
    change = {"sim-many": {s: {"round_ms": 4.0} for s in range(9)}}
    files = fold_side(tmp_path / "p", "p", parent), fold_side(tmp_path / "c", "c", change)
    proc = fold_bench(tmp_path, "--compare", *files)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[-1] == "unresolved"
