#!/usr/bin/env python3
"""Per-seed z scores of a Monte Carlo config's rows: the false-alarm evidence.

    PYTHONPATH=src python3 scripts/mc_z_sweep.py run --first 0 --last 999 --out z.json
    python3 scripts/mc_z_sweep.py summary z.json [more.json ...]

``run`` calls ``run_config`` on the config (default: the bundled
``poisson_qlc.json``) once per seed in [first, last], with whichever
``filtration_lab`` is importable, so the same script measures any version of
the engine.  It writes, as JSON, each z row's z per seed (``null`` where z is
not finite) and, per seed, the rows whose outcome was not the expected one.
Exact rows ("exact": true in the evidence) have no z and are left out.

``summary`` prints, per z row of each file, the mean and standard deviation
of z over the seeds, the counts of |z| > 3 and |z| > 4 (a non-finite z counts
in both), and then the seeds with a failing row.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs" / "poisson_qlc.json"


def sweep(config: dict, seeds: range) -> dict:
    from filtration_lab.cli import run_config

    z, failed = {}, {}
    for seed in seeds:
        report = run_config(config, seed_override=seed)
        for check in report["checks"]:
            row = f"{check['suite']}::{check['name']}"
            if not check["evidence"]["exact"]:
                value = check["evidence"]["z_score"]
                z.setdefault(row, []).append(value if isinstance(value, float) and math.isfinite(value) else None)
            if not check["passed"]:
                failed.setdefault(str(seed), []).append(row)
    return {"config": config, "seeds": [seeds.start, seeds.stop - 1], "z": z, "failed": failed}


def summary(doc: dict) -> str:
    first, last = doc["seeds"]
    header = f"{'row':64} {'mean':>8} {'sd':>7} {'|z|>3':>6} {'|z|>4':>6}"
    lines = [f"seeds {first}-{last} ({last - first + 1})", header]
    for row, values in doc["z"].items():
        finite = [v for v in values if v is not None]
        beyond = [math.inf if v is None else abs(v) for v in values]
        mean = statistics.fmean(finite) if finite else math.nan
        sd = statistics.stdev(finite) if len(finite) > 1 else math.nan
        over3, over4 = sum(b > 3.0 for b in beyond), sum(b > 4.0 for b in beyond)
        lines.append(f"{row:64} {mean:8.4f} {sd:7.4f} {over3:6d} {over4:6d}")
    fails = ", ".join(f"{seed}: {' '.join(rows)}" for seed, rows in doc["failed"].items())
    lines.append(f"seeds with a failing row: {fails or 'none'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="sweep the seeds and write the z scores")
    p_run.add_argument("--config", type=Path, default=BUNDLED)
    p_run.add_argument("--first", type=int, required=True)
    p_run.add_argument("--last", type=int, required=True)
    p_run.add_argument("--out", type=Path, required=True)
    p_sum = sub.add_parser("summary", help="print the per-row table of sweep files")
    p_sum.add_argument("files", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        config = json.loads(args.config.read_text())
        doc = sweep(config, range(args.first, args.last + 1))
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(summary(doc))
    else:
        for path in args.files:
            print(f"== {path}")
            print(summary(json.loads(path.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
