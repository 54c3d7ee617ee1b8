#!/usr/bin/env python3
"""Fold benchmark run records into one committed BENCH_<label>.json.

Each `bench/run.py` run writes a raw record to `bench/out/`. This script
reads a set of them and writes, per workload and metric, the median, the
quartiles, the number of runs and their seeds, together with the git
revision of the checkout the records were written in:

    python3 scripts/fold_bench.py --label baseline bench/out/*.json

The output goes to BENCH_<label>.json at the repository root unless `--out`
names another file. Standard library only.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_rev(directory: Path) -> str | None:
    """`git rev-parse HEAD` of the checkout holding `directory`; None outside git."""
    try:
        proc = subprocess.run(["git", "-C", str(directory), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarise(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def fold(label: str, paths: list[Path]) -> dict:
    revs = {git_rev(d) for d in {p.resolve().parent for p in paths}}
    if len(revs) > 1:
        raise SystemExit(f"records come from different revisions: {sorted(map(str, revs))}")
    workloads: dict[str, dict] = {}
    recs = sorted((json.loads(p.read_text()) for p in paths), key=lambda r: (r["workload"], r["seed"]))
    for rec in recs:
        result = rec["result"]
        w = workloads.setdefault(rec["workload"], {"runs": 0, "correct": 0, "failed": 0,
                                                   "attempted": 0, "metrics": {}})
        w["runs"] += 1
        w["correct"] += bool(result["correct"])
        w["failed"] += result["failed"]
        w["attempted"] += result["attempted"]
        for name, m in result["metrics"].items():
            entry = w["metrics"].setdefault(name, {"unit": m["unit"], "values": [], "seeds": []})
            entry["values"].append(m["value"])
            entry["seeds"].append(rec["seed"])
    for w in workloads.values():
        w["metrics"] = {name: {"unit": e["unit"], **summarise(e["values"]),
                               "runs": len(e["values"]), "seeds": e["seeds"]}
                        for name, e in w["metrics"].items()}
    return {"label": label, "git_rev": revs.pop(), "workloads": dict(sorted(workloads.items()))}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the repository root")
    ap.add_argument("records", nargs="+", type=Path)
    args = ap.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(fold(args.label, args.records), indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
