"""Versioned JSON documents for spaces, bundles, measures, and solutions."""
from __future__ import annotations

import numpy as np

from .enlargement import EnlargementBundle, build_bundle
from .finite_space import (
    NEVER,
    AdaptedProcess,
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    build_space,
)
from .jump_measure import MARKS, Mark, MarkedMeasure
from .random_time import RandomTimeBundle, build_random_time_bundle
from .representation import RepresentationSolution

SPACE_SCHEMA = "filtration-lab/space-v1"
BUNDLE_SCHEMA = "filtration-lab/bundle-v1"
MEASURE_SCHEMA = "filtration-lab/measure-v1"
RANDOM_TIME_SCHEMA = "filtration-lab/randomtime-v1"
SOLUTION_SCHEMA = "filtration-lab/solution-v1"
REPORT_SCHEMA = "filtration-lab/report-v1"
CONFIG_SCHEMA = "filtration-lab/config-v1"


def _check_schema(doc: dict, schema: str) -> None:
    if doc.get("schema") != schema:
        raise ValueError(f"expected schema {schema!r}, got {doc.get('schema')!r}")


def _blocks(partition: Partition) -> list:
    return [list(b) for b in partition.blocks]


def _partition(blocks, n_atoms: int) -> Partition:
    return Partition(tuple(tuple(b) for b in blocks), n_atoms)


def space_to_doc(
    space: FiniteProbabilitySpace,
    filtration: Filtration | None = None,
    processes: dict | None = None,
) -> dict:
    doc: dict = {
        "schema": SPACE_SCHEMA,
        "atoms": [{"id": i, "prob": float(p)} for i, p in enumerate(space.probs)],
    }
    if filtration is not None:
        doc["filtration"] = [_blocks(p) for p in filtration.partitions]
    if processes:
        doc["processes"] = {
            name: np.asarray(proc.values if isinstance(proc, AdaptedProcess) else proc)
            .tolist()
            for name, proc in processes.items()
        }
    return doc


def space_from_doc(doc: dict):
    """Returns (space, filtration or None, process value-matrix dict)."""
    _check_schema(doc, SPACE_SCHEMA)
    atoms = sorted(doc["atoms"], key=lambda a: a["id"])
    if [a["id"] for a in atoms] != list(range(len(atoms))):
        raise ValueError("atom ids must be exactly 0..n-1")
    space = build_space([a["prob"] for a in atoms])
    filtration = None
    if "filtration" in doc:
        parts = tuple(_partition(b, space.n_atoms) for b in doc["filtration"])
        filtration = Filtration(space, parts)
    processes = {
        name: np.asarray(vals, dtype=float)
        for name, vals in doc.get("processes", {}).items()
    }
    return space, filtration, processes


def bundle_to_doc(bundle: EnlargementBundle) -> dict:
    return {
        "schema": BUNDLE_SCHEMA,
        "name": bundle.name,
        "probs": bundle.space.probs.tolist(),
        "initial": _blocks(bundle.initial),
        "x_values": bundle.X.values.tolist(),
        "h_values": bundle.H.values.tolist(),
    }


def bundle_from_doc(doc: dict) -> EnlargementBundle:
    _check_schema(doc, BUNDLE_SCHEMA)
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"bundle name must be a string, got {name!r}")
    space = build_space(doc["probs"])
    initial = _partition(doc["initial"], space.n_atoms)
    return build_bundle(
        space,
        np.asarray(doc["x_values"], dtype=float),
        np.asarray(doc["h_values"], dtype=float),
        initial=initial,
        name=name,
    )


def measure_to_doc(measure: MarkedMeasure) -> dict:
    doc: dict = {"schema": MEASURE_SCHEMA, "predictable_density": measure.is_predictable_density}
    if measure.is_predictable_density:
        doc["densities"] = {
            str(list(mark.value)): measure.indicator_increments(mark).tolist() for mark in MARKS
        }
    else:
        doc["events"] = [
            [[int(t), list(mark.value)] for t, mark in evs] for evs in measure.events
        ]
    return doc


def measure_from_doc(doc: dict, filtration: Filtration) -> MarkedMeasure:
    _check_schema(doc, MEASURE_SCHEMA)
    if doc["predictable_density"]:
        dens = np.stack(
            [np.asarray(doc["densities"][str(list(m.value))], dtype=float) for m in MARKS]
        )
        return MarkedMeasure(filtration, dens, True)
    n, T = filtration.space.n_atoms, filtration.horizon
    if len(doc["events"]) != n:
        raise ValueError(f"events list {len(doc['events'])} atoms, the space has {n}")
    increments = np.zeros((len(MARKS), n, T + 1))
    for atom, evs in enumerate(doc["events"]):
        for t, mark in evs:
            if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= T:
                raise ValueError(f"atom {atom}: event time {t!r} outside 1..{T}")
            increments[MARKS.index(Mark(tuple(mark))), atom, t] += 1.0
    return MarkedMeasure(filtration, increments, False)


def random_time_to_doc(bundle: RandomTimeBundle) -> dict:
    return {
        "schema": RANDOM_TIME_SCHEMA,
        "name": bundle.name,
        "probs": bundle.f.space.probs.tolist(),
        "base_filtration": [_blocks(p) for p in bundle.f.partitions],
        "tau": [None if v == NEVER else int(v) for v in bundle.tau],
        "x_values": None if bundle.X is None else bundle.X.values.tolist(),
    }


def random_time_from_doc(doc: dict) -> RandomTimeBundle:
    _check_schema(doc, RANDOM_TIME_SCHEMA)
    space = build_space(doc["probs"])
    parts = tuple(_partition(b, space.n_atoms) for b in doc["base_filtration"])
    f = Filtration(space, parts)
    tau = np.array([NEVER if v is None else int(v) for v in doc["tau"]], dtype=np.int64)
    x_values = None if doc.get("x_values") is None else np.asarray(doc["x_values"], dtype=float)
    return build_random_time_bundle(tau, f, x_values, name=doc.get("name", "custom"))


def solution_to_doc(solution: RepresentationSolution) -> dict:
    checks = {}
    for key, value in solution.checks.items():
        if isinstance(value, (bool, int, float, str)):
            checks[key] = value
        elif isinstance(value, np.generic):
            checks[key] = value.item()
    return {
        "schema": SOLUTION_SCHEMA,
        "kind": solution.kind,
        "integrands": {k: np.asarray(v).tolist() for k, v in solution.integrands.items()},
        "residual_sup": float(solution.residual_sup),
        "checks": checks,
    }
