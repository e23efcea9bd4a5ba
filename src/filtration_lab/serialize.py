"""Versioned JSON documents: the inline fixtures `flab` reads, the schema
names, and the report row both engines write."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enlargement import EnlargementBundle, build_bundle
from .finite_space import Partition, atom_id, build_space

SPACE_SCHEMA = "filtration-lab/space-v1"
BUNDLE_SCHEMA = "filtration-lab/bundle-v1"
REPORT_SCHEMA = "filtration-lab/report-v1"
CONFIG_SCHEMA = "filtration-lab/config-v1"


@dataclass
class CheckResult:
    """One report row; ``run_config`` stamps it with its suite's anchor."""

    name: str
    outcome: str
    evidence: dict
    expected: str = "holds"

    @property
    def passed(self) -> bool:
        return self.outcome == self.expected


def _num(x):
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _check(name: str, ok: bool, **evidence) -> CheckResult:
    """The row ``name``, holding iff ``ok``, with its evidence as JSON values (a
    NumPy scalar as its Python bool, int or float, a non-finite float as "inf",
    "-inf" or "nan")."""
    ev = {}
    for k, v in evidence.items():
        if isinstance(v, np.bool_):
            v = bool(v)
        elif isinstance(v, (np.floating, float)):
            v = _num(v)
        elif isinstance(v, (np.integer, int)) and not isinstance(v, bool):
            v = int(v)
        ev[k] = v
    return CheckResult(name=name, outcome="holds" if ok else "fails", evidence=ev)


def _check_doc(doc: dict, schema: str, keys: set) -> None:
    """``doc`` is of ``schema`` and has no key outside ``keys``."""
    if doc.get("schema") != schema:
        raise ValueError(f"expected schema {schema!r}, got {doc.get('schema')!r}")
    extra = set(doc) - keys
    if extra:
        raise ValueError(f"unknown {schema} keys: {sorted(extra)}")


def space_from_doc(doc: dict):
    """Returns (space, {"X": values, "H": values}); the document has exactly these two processes."""
    _check_doc(doc, SPACE_SCHEMA, {"schema", "atoms", "processes"})
    ids = [atom_id(a["id"]) for a in doc["atoms"]]
    if sorted(ids) != list(range(len(ids))):
        raise ValueError("atom ids must be exactly 0..n-1")
    atoms = sorted(doc["atoms"], key=lambda a: a["id"])
    space = build_space([a["prob"] for a in atoms])
    processes = doc["processes"]
    if not isinstance(processes, dict) or set(processes) != {"X", "H"}:
        raise ValueError("processes must be an object with exactly X and H")
    return space, {name: np.asarray(vals, dtype=float) for name, vals in processes.items()}


def bundle_from_doc(doc: dict) -> EnlargementBundle:
    _check_doc(doc, BUNDLE_SCHEMA, {"schema", "name", "probs", "initial", "x_values", "h_values"})
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"bundle name must be a string, got {name!r}")
    space = build_space(doc["probs"])
    initial = Partition(doc["initial"], space.n_atoms)
    return build_bundle(
        space,
        np.asarray(doc["x_values"], dtype=float),
        np.asarray(doc["h_values"], dtype=float),
        initial=initial,
        name=name,
    )
