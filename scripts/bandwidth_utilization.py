#!/usr/bin/env python3
"""Per-round matched-edge bandwidth for the three peer-selection modes.

Reproduces the bandwidth-utilization comparison at desk scale: for each
sampled bandwidth matrix the same rounds are scheduled with adaptive,
random and ring selection, and the per-round bottleneck (min) and mean
matched-pair bandwidth are written to CSV.

    python scripts/bandwidth_utilization.py --n 32 --rounds 400 --out bw.csv
    python scripts/bandwidth_utilization.py --preset cities14 --rounds 400 --out bw14.csv
"""

import argparse
import csv
import random

import numpy as np

from saps.cli import load_cities14
from saps.coordinator import make_selector
from saps.core import symmetrize_bandwidth


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--rounds", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--hi-mbps", type=float, default=5.0, help="uniform range upper end")
    ap.add_argument("--preset", choices=["cities14"], default=None)
    ap.add_argument("--t-thres", type=int, default=10)
    ap.add_argument("--out", default="bandwidth_utilization.csv")
    args = ap.parse_args()

    if args.preset == "cities14":
        b, sites = load_cities14()
        print(f"using cities14 preset ({len(sites)} synthetic sites)")
    else:
        rng = np.random.default_rng(args.seed)
        hi = args.hi_mbps * 1e6
        b = symmetrize_bandwidth(hi - rng.uniform(0, hi, size=(args.n, args.n)))

    modes = ["adaptive", "random"] + (["ring"] if b.n % 2 == 0 else [])
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "round", "min_bw", "mean_bw"])
        for mode in modes:
            sel = make_selector(mode, b, None, args.t_thres, random.Random(args.seed))
            mins = []
            for t in range(args.rounds):
                _, m = sel.next_round()
                speeds = [b.speeds[i, j] for i, j in sorted(m.pairs)]
                writer.writerow([mode, t, min(speeds), float(np.mean(speeds))])
                mins.append(min(speeds))
            print(f"{mode:9s} mean bottleneck {np.mean(mins) / 1e6:.3f} MB/s")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
