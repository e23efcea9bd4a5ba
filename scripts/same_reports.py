#!/usr/bin/env python3
"""Byte-compare every report of the byte contract between this checkout and another tree.

    python3 scripts/same_reports.py PARENT_ROOT

PARENT_ROOT is another checkout of the repository (for instance a
``git archive`` of the parent commit, unpacked).  Each tree's package runs in
its own process and writes, as ``flab run --out`` would, the three bundled
configs at their own seed and at ``--seed`` 5 and 11, and the configs
``perfbench/workloads.generate`` makes for each workload at seeds 5 and 11
(this checkout's generator, reading each tree's bundled configs).  Every pair
of reports is compared byte for byte; the exit status is 1 if any pair
differs or is missing, 0 otherwise.  Not part of tier-1.
"""
from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BUNDLED = ("space_a_full", "counterexample_a2", "poisson_qlc")
SEEDS = (5, 11)


def runs(root: Path) -> list:
    """(report name, config, seed override) for every report of the contract, read from ``root``."""
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    out = []
    for name in BUNDLED:
        config = workloads._bundled(name, root)
        out += [(f"{name}.seed_{seed or 'own'}", config, seed) for seed in (None, *SEEDS)]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for run in workloads.generate(workload, seed, root):
                out.append((f"{workload}.{seed}.{run.name}", run.config, None))
    return out


def write_reports(root: Path, out: Path) -> None:
    """Run ``root``'s package on every config of the contract; one report file per run in ``out``."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import filtration_lab
    from filtration_lab.cli import report_to_json, run_config

    if not Path(filtration_lab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported {filtration_lab.__file__}, not the package under {src}")
    for name, config, seed in runs(root):
        (out / f"{name}.json").write_text(report_to_json(run_config(config, seed_override=seed)), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "--write":
        write_reports(Path(argv[2]), Path(argv[3]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[1]).resolve(), "this": HERE}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {label: Path(tmp) / label for label in trees}
        workers = []
        for label, root in trees.items():
            outs[label].mkdir()
            cmd = [sys.executable, __file__, "--write", str(root), str(outs[label])]
            workers.append(subprocess.Popen(cmd))
        if any([w.wait() for w in workers]):
            print("a tree failed to write its reports", file=sys.stderr)
            return 1
        names = sorted({p.name for out in outs.values() for p in out.iterdir()})
        differ = [n for n in names if not all((o / n).is_file() for o in outs.values())
                  or (outs["parent"] / n).read_bytes() != (outs["this"] / n).read_bytes()]
    for name in names:
        print(f"{'DIFFERS' if name in differ else 'same':8} {name}")
    print(f"{len(names) - len(differ)} of {len(names)} reports byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
