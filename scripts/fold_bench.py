#!/usr/bin/env python3
"""Fold benchmark run records into one committed BENCH_<label>.json, or compare two.

Each `bench/run.py` run writes a raw record to `bench/out/`. This script
reads a set of them and writes, per workload and metric, the median, the
quartiles, the number of runs, their seeds and their values, together with
the git revision of the checkout the records were written in and a
description of the host that folded them:

    python3 scripts/fold_bench.py --label baseline bench/out/*.json

The output goes to BENCH_<label>.json at the repository root unless `--out`
names another file.

`--compare PARENT CHANGE` reads two folded files, pairs their runs by seed
and prints one verdict per workload and end-to-end metric of
`BENCHMARK.json`:

    python3 scripts/fold_bench.py --compare BENCH_x_parent.json BENCH_x_change.json

* `regressed`: the change's median is worse than the parent's by more than
  the metric's `bound` (a share of the parent's median);
* `resolved`: there are at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side), and its median is better
  than the parent's by more than the distance between the parent's
  quartiles;
* `identical`: every pair of runs reads the same value;
* `unresolved`: anything else.

The exit status is 1 when any metric regressed. Standard library only.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
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


def host() -> dict:
    """The machine and toolchain this script runs on."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"platform": platform.platform(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), "numpy": numpy}


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
                               "runs": len(e["values"]), "seeds": e["seeds"], "values": e["values"]}
                        for name, e in w["metrics"].items()}
    return {"label": label, "git_rev": revs.pop(), "host": host(),
            "workloads": dict(sorted(workloads.items()))}


def by_seed(metric: dict) -> dict:
    seeds = metric["seeds"]
    if len(set(seeds)) != len(seeds):
        raise SystemExit(f"a seed repeats among {seeds}; runs cannot be paired by seed")
    return dict(zip(seeds, metric["values"]))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge paired runs of one metric, each list in the same seed order."""
    sign = -1.0 if better == "lower" else 1.0  # sign * (change - parent) > 0 is a gain
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = summarise(parent), summarise(change)
    gain = sign * (c["median"] - p["median"])
    if parent == change:
        label = "identical"
    elif -gain > bound * abs(p["median"]):
        label = "regressed"
    elif len(parent) >= 10 and wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]:
        label = "resolved"
    else:
        label = "unresolved"
    return {"verdict": label, "pairs": len(parent), "wins": wins, "parent": p, "change": c}


def compare(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, str, dict]]:
    rows = []
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        pm, cm = parent["workloads"][workload]["metrics"], change["workloads"][workload]["metrics"]
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if name not in pm or name not in cm:
                continue
            ps, cs = by_seed(pm[name]), by_seed(cm[name])
            seeds = sorted(set(ps) & set(cs))
            if not seeds:
                continue
            rows.append((workload, name, verdict([ps[s] for s in seeds], [cs[s] for s in seeds],
                                                 spec["better"], spec["bound"])))
    return rows


def print_comparison(rows: list[tuple[str, str, dict]]) -> None:
    def quartiles(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"

    print(f"{'workload':<20} {'metric':<28} {'wins':>7}  {'parent':<34} {'change':<34} verdict")
    for workload, name, v in rows:
        print(f"{workload:<20} {name:<28} {v['wins']:>3}/{v['pairs']:<3}  "
              f"{quartiles(v['parent']):<34} {quartiles(v['change']):<34} {v['verdict']}")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the repository root")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                    help="compare two folded files instead of folding records")
    ap.add_argument("records", nargs="*", type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(p.read_text()) for p in args.compare)
        rows = compare(parent, change, json.loads((ROOT / "BENCHMARK.json").read_text()))
        print_comparison(rows)
        sys.exit(1 if any(v["verdict"] == "regressed" for _, _, v in rows) else 0)
    if not args.label or not args.records:
        ap.error("folding needs --label and at least one record")
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(fold(args.label, args.records), indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
