"""Seeded workload generator: turns (workload, seed) into `flab run` configs.

The program under test only ever sees the configs written here.  The
benchmark seed replaces each config's own seed, except for the one suite
whose amount of work the seed sets (``SEED_SIZED_SUITE``); everything else is
either the bundled config as shipped or, for `exact_large_tree`, an inline
bundle drawn from the seed.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIG_DIR = Path("src") / "filtration_lab" / "configs"

#: the suites that honour the config's `fixture` key
FIXTURE_SUITES = (
    "three_point_processes",
    "jump_measure_compensator",
    "filtration_identities",
    "wrp_representation",
    "triple_representation",
)

#: draws 50 random spaces of up to 6 atoms from the seed, so its work moves by
#: 10-30% between seeds; `exact_canonical` runs it at the bundled seed
SEED_SIZED_SUITE = "completeness_random_spaces"

#: (dX, dH) marks a node of the large tree branches into
MARKS = ((0, 0), (1, 0), (0, 1), (1, 1))
TREE_HORIZON = 4
TREE_ATOMS = len(MARKS) ** TREE_HORIZON
TREE_NODES = sum(len(MARKS) ** t for t in range(TREE_HORIZON))

#: thread count of the untimed rerun of `mc_sparse` in traced invocations
MC_CHECK_PARALLEL = 2

WORKLOADS = ("exact_canonical", "exact_large_tree", "mc_sparse")


@dataclass(frozen=True)
class Run:
    """One `flab run` invocation: the generated config and, when set, the
    thread count of an untimed rerun (traced invocations only) that must give
    the same report bytes."""

    name: str
    config: dict
    check_parallel: int | None = None


def _bundled(name: str, root: Path) -> dict:
    with open(root / CONFIG_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def tree_probs(seed: int) -> list[float]:
    """Atom probabilities of the large tree, drawn from the seed and normalised."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, TREE_ATOMS)
    probs = weights / weights.sum()
    return probs.tolist()


def tree_bundle_doc(seed: int) -> dict:
    """Complete 4-way tree: every (dX, dH) mark at every node up to the horizon."""
    paths = list(itertools.product(MARKS, repeat=TREE_HORIZON))
    x_values, h_values = [], []
    for path in paths:
        x_values.append([0.0] + np.cumsum([m[0] for m in path]).astype(float).tolist())
        h_values.append([0.0] + np.cumsum([m[1] for m in path]).astype(float).tolist())
    return {
        "schema": "filtration-lab/bundle-v1",
        "name": "large_tree",
        "probs": tree_probs(seed),
        "initial": [list(range(TREE_ATOMS))],
        "x_values": x_values,
        "h_values": h_values,
    }


def generate(workload: str, seed: int, root: Path) -> list[Run]:
    """The workload's `flab run` invocations, in the order they run."""
    if workload == "exact_canonical":
        space_a = _bundled("space_a_full", root)
        rest = [s for s in space_a["suites"] if s != SEED_SIZED_SUITE]
        return [
            Run("space_a_full", dict(space_a, seed=seed, suites=rest)),
            Run("space_a_completeness", dict(space_a, suites=[SEED_SIZED_SUITE])),
            Run("counterexample_a2", dict(_bundled("counterexample_a2", root), seed=seed)),
        ]
    if workload == "exact_large_tree":
        config = {
            "schema": "filtration-lab/config-v1",
            "engine": "exact",
            "fixture": tree_bundle_doc(seed),
            "seed": seed,
            "suites": list(FIXTURE_SUITES),
        }
        return [Run("large_tree", config)]
    if workload == "mc_sparse":
        config = dict(_bundled("poisson_qlc", root), seed=seed)
        return [Run("poisson_qlc", config, check_parallel=MC_CHECK_PARALLEL)]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def write_configs(runs: list[Run], work: Path) -> list[Path]:
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in runs:
        path = work / f"{run.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run.config, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths
