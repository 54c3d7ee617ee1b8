"""The scripts under scripts/ run end to end at toy sizes and write their CSVs."""

import csv
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
