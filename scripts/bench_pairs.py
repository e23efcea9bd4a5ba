#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark between this checkout and another tree.

    python3 scripts/bench_pairs.py OTHER_ROOT --workload W --pairs N --seconds S --seed FIRST --out BENCH.json

OTHER_ROOT is the parent: another checkout of the repository (for instance a
``git archive`` of the parent commit, unpacked).  Pair i runs
``perfbench/run.py --workload W --seed FIRST+i --seconds S --trace 0`` once in
each tree, each from its own root, one run at a time; the parent runs first in
the even pairs and the change (this checkout) first in the odd ones.

For every end-to-end metric it prints both sides' medians and quartiles
(numpy percentiles 25 and 75, linear), the median change, the parent's
interquartile range and the number of pairs in which the change is lower,
and whether the claim rule holds: the change lower in at least nine pairs of
ten and the median gap larger than the parent's interquartile range.

The results go under ``end_to_end`` of the JSON file ``--out`` (created if
missing, other keys kept), one entry per workload, in the shape of the
repository's ``BENCH_*.json`` files: seeds, pairs, correctness and per metric
each side's q1, median, q3 and runs (in seed order).  Not part of tier-1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the share of pairs in which the change must be lower for a claimed gain
CLAIM_SHARE = 0.9


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one benchmark run in ``root``, parsed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 4), "median": round(float(median), 4), "q3": round(float(q3), 4),
            "runs": [round(v, 4) for v in values]}


def summarize(runs: dict, seeds: list) -> dict:
    """One workload's entry: ``runs`` maps each side to its parsed results, in seed order."""
    entry = {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_rows": sum(r["failed"] for side in SIDES for r in runs[side]),
        "attempted_rows": sum(r["attempted"] for side in SIDES for r in runs[side]),
    }
    for metric, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        entry[metric] = {
            **stats,
            "change_lower_in_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "median_change": f"{(stats['change']['median'] / stats['parent']['median'] - 1.0) * 100.0:+.1f}%",
            "parent_iqr": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
            "unit": first["unit"],
        }
    return entry


def claim_holds(stats: dict) -> bool:
    gap = stats["parent"]["median"] - stats["change"]["median"]
    pairs = len(stats["parent"]["runs"])
    return stats["change_lower_in_pairs"] >= CLAIM_SHARE * pairs and gap > stats["parent_iqr"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.other_root.resolve(), "change": HERE}

    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(roots[side], args.workload, seed, args.seconds))
        print(f"# pair {i + 1}/{args.pairs} (seed {seed}): "
              + ", ".join(f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}" for side in SIDES),
              flush=True)

    entry = summarize(runs, seeds)
    print(f"{args.workload}: {args.pairs} pairs, correct {entry['correct']}, "
          f"{entry['failed_rows']} of {entry['attempted_rows']} rows failed")
    for metric, stats in entry.items():
        if not isinstance(stats, dict):
            continue
        p, c = stats["parent"], stats["change"]
        print(f"  {metric}: parent {p['median']} [{p['q1']}, {p['q3']}]  change {c['median']} [{c['q1']}, {c['q3']}]  "
              f"{stats['median_change']}, lower in {stats['change_lower_in_pairs']}/{args.pairs}, "
              f"parent IQR {stats['parent_iqr']} {stats['unit']}, claim rule {'met' if claim_holds(stats) else 'not met'}")

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0")
    doc.setdefault("host", {"nproc": os.cpu_count(), "numpy": np.__version__, "python": platform.python_version()})
    doc.setdefault("end_to_end", {})[args.workload] = {**entry, "seconds": args.seconds}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
