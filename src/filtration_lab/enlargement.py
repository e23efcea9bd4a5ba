"""Natural filtrations, initial and progressive enlargement, identity checks.

The natural filtration of a family of processes partitions atoms by equality
of the joint path prefix.  Initial enlargement joins a fixed partition into
every time slice; progressive enlargement is the timewise common refinement
of two filtrations.  Right-continuity is vacuous in discrete time: every
filtration is right-continuous by construction, so the identity checks do
not include the smallest-right-continuous qualifier.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FiltrationMismatch
from .finite_space import (
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    PointProcess,
)
from .jump_measure import Mark, PredictableFunction, integrate, jump_measure


def join(a: Partition, b: Partition) -> Partition:
    """Blockwise common refinement of two partitions."""
    if a.n_atoms != b.n_atoms:
        raise FiltrationMismatch("partitions cover different atom counts")
    # a frozen partition joined with the trivial one is itself
    if b.n_blocks == 1:
        return a
    if a.n_blocks == 1:
        return b
    return Partition.from_labels(zip(a.labels, b.labels))


def natural_filtration(space: FiniteProbabilitySpace, processes: Sequence) -> Filtration:
    """Coarsest filtration making every given process (a value matrix, atoms by times) adapted.

    P_t groups atoms whose joint paths agree on [0, t]: it splits each block
    of P_{t-1} by the processes' values at t.
    """
    mats = [np.asarray(p, dtype=float) for p in processes]
    if not mats:
        raise ValueError("need at least one process")
    n = space.n_atoms
    for m in mats:
        if m.ndim != 2 or m.shape[0] != n or m.shape[1] == 0:
            raise FiltrationMismatch(f"process values must have shape ({n}, T+1), got {m.shape}")
        if m.shape != mats[0].shape:
            raise FiltrationMismatch("processes disagree on shape")
    columns = [m.T.tolist() for m in mats]
    p = Partition.trivial(n)
    parts = []
    for t in range(mats[0].shape[1]):
        p = Partition.from_labels(zip(p.labels, *(c[t] for c in columns)))
        parts.append(p)
    return Filtration(space, tuple(parts))


def initial_enlargement(base: Filtration, initial: Partition) -> Filtration:
    """Adjoin a fixed sigma-field to every time slice of the filtration."""
    if initial.n_blocks == 1:
        return base
    parts = tuple(join(p, initial) for p in base.partitions)
    return Filtration(base.space, parts)


def progressive_enlargement(f: Filtration, other: Filtration) -> Filtration:
    """Smallest filtration containing both (timewise common refinement)."""
    if f.space.n_atoms != other.space.n_atoms or f.horizon != other.horizon:
        raise FiltrationMismatch("filtrations disagree on space or horizon")
    parts = tuple(join(a, b) for a, b in zip(f.partitions, other.partitions))
    return Filtration(f.space, parts)


@dataclass(frozen=True, eq=False)
class EnlargementBundle:
    """Initially and progressively enlarged filtrations of a pair (X, H).

    ``f`` adjoins the initial sigma-field to the natural filtration of X;
    ``g`` additionally makes H adapted.  The processes are carried bound to
    ``g`` so every downstream operation runs in the enlarged filtration.
    """

    space: FiniteProbabilitySpace
    initial: Partition
    f: Filtration
    h_filtration: Filtration
    g: Filtration
    X: PointProcess
    H: PointProcess
    name: str = "custom"


def build_bundle(
    space: FiniteProbabilitySpace,
    x_values,
    h_values,
    initial: Partition | None = None,
    name: str = "custom",
) -> EnlargementBundle:
    initial = initial or Partition.trivial(space.n_atoms)
    f = initial_enlargement(natural_filtration(space, [x_values]), initial)
    h_filtration = natural_filtration(space, [h_values])
    g = progressive_enlargement(f, h_filtration)
    return EnlargementBundle(
        space=space,
        initial=initial,
        f=f,
        h_filtration=h_filtration,
        g=g,
        X=PointProcess(g, np.asarray(x_values, dtype=float)),
        H=PointProcess(g, np.asarray(h_values, dtype=float)),
        name=name,
    )


def verify_filtration_identities(bundle: EnlargementBundle) -> dict:
    """Exact partition equalities tying the enlargement to the joint pair, by name; each is a bool.

    Checks, at every time slice:
      * ``g_from_joint``: g equals the initial enlargement of the natural
        filtration of the pair (X, H);
      * ``joint_from_marks``: the natural filtration of the pair is recovered
        from the event stream of the two-component jump measure (rebuilding X
        and H from the marks);
      * ``marks_rebuild_paths``: the rebuilt paths coincide with X and H.
    """
    joint = natural_filtration(bundle.space, [bundle.X.values, bundle.H.values])
    expected_g = initial_enlargement(joint, bundle.initial)

    mu = jump_measure(bundle.X, bundle.H)
    picks_x = PredictableFunction.indicator(bundle.g, (Mark.X_ONLY, Mark.JOINT))
    picks_h = PredictableFunction.indicator(bundle.g, (Mark.H_ONLY, Mark.JOINT))
    x_rebuilt = integrate(picks_x, mu)
    h_rebuilt = integrate(picks_h, mu)
    joint_rebuilt = natural_filtration(bundle.space, [x_rebuilt.values, h_rebuilt.values])

    return {
        "g_from_joint": expected_g.partitions == bundle.g.partitions,
        "joint_from_marks": joint_rebuilt.partitions == joint.partitions,
        "marks_rebuild_paths": bool(
            np.array_equal(x_rebuilt.values, bundle.X.values)
            and np.array_equal(h_rebuilt.values, bundle.H.values)
        ),
    }
