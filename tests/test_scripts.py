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


def test_fold_bench_writes_medians_quartiles_and_seeds(tmp_path):
    records = [bench_record(tmp_path, "sim-wide", s, {"round_ms": v, "setup_s": 0.5})
               for s, v in [(3, 4.0), (1, 1.0), (4, 3.0), (2, 2.0), (5, 5.0)]]
    records.append(bench_record(tmp_path, "tcp-dense", 9, {"round_ms": 7.0}, correct=False))
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fold_bench.py"), "--label", "x",
         "--out", str(out), *map(str, records)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    folded = json.loads(out.read_text())
    assert folded["label"] == "x"
    assert folded["git_rev"] is None  # tmp_path is no git checkout
    wide = folded["workloads"]["sim-wide"]
    assert (wide["runs"], wide["correct"], wide["attempted"], wide["failed"]) == (5, 5, 50, 0)
    assert wide["metrics"]["round_ms"] == {"unit": "ms", "median": 3.0, "q1": 2.0, "q3": 4.0,
                                           "runs": 5, "seeds": [1, 2, 3, 4, 5]}
    assert wide["metrics"]["setup_s"]["median"] == 0.5
    tcp = folded["workloads"]["tcp-dense"]
    assert (tcp["runs"], tcp["correct"], tcp["failed"]) == (1, 0, 1)
    assert tcp["metrics"]["round_ms"] == {"unit": "ms", "median": 7.0, "q1": 7.0, "q3": 7.0,
                                          "runs": 1, "seeds": [9]}
