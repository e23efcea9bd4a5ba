"""Joint jump measure of a pair of counting processes and its compensator.

A pair (X, H) with unit jumps decomposes into three counting processes with
pairwise disjoint jumps: X-only jumps, H-only jumps, joint jumps.  The jump
measure and its compensator are stored one way, one increment process per
mark: 0/1 event indicators for the measure, predictable densities for the
compensator, so that integrating against either is a plain double sum.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import FiltrationMismatch, NotPredictable
from .calculus import compensator, quadratic_covariation
from .finite_space import (
    AdaptedProcess,
    Filtration,
    PointProcess,
    as_point_process,
    predictable_violation,
)


class Mark(enum.Enum):
    """Event labels: which of the two components jumped."""

    X_ONLY = (1, 0)
    H_ONLY = (0, 1)
    JOINT = (1, 1)


MARKS: tuple[Mark, ...] = (Mark.X_ONLY, Mark.H_ONLY, Mark.JOINT)
_MARK_INDEX = {m: i for i, m in enumerate(MARKS)}


def _mark_stack(filtration: Filtration, values) -> np.ndarray:
    """``values`` as a float array of shape (marks, atoms, T+1), or ValueError."""
    vals = np.asarray(values, dtype=float)
    shape = (len(MARKS), filtration.space.n_atoms, filtration.horizon + 1)
    if vals.shape != shape:
        raise ValueError(f"values must have shape {shape}, got {vals.shape}")
    return vals


def _require_predictable(values: np.ndarray, filtration: Filtration) -> None:
    violation = predictable_violation(values, filtration)
    if violation is not None:
        raise NotPredictable(f"not predictable at (time, block) {violation}")


@dataclass(frozen=True, eq=False)
class MarkedMeasure:
    """Per-step mass of each mark: ``increments[k, atom, t]`` for mark ``MARKS[k]``.

    For a jump measure the entries are 0/1 event indicators, at most one mark
    per (atom, time); for its compensator (``is_predictable_density``) they
    are predictable densities.  Column 0 is zero.  All three are checked on
    construction.  The array is read-only.
    """

    filtration: Filtration
    increments: np.ndarray
    is_predictable_density: bool

    def __post_init__(self):
        inc = _mark_stack(self.filtration, self.increments)
        if np.any(inc[..., 0] != 0.0):
            raise ValueError("a measure puts no mass at time 0")
        if self.is_predictable_density:
            _require_predictable(inc, self.filtration)
        elif np.any((inc != 0.0) & (inc != 1.0)) or np.any(inc.sum(axis=0) > 1.0):
            raise ValueError("events must be 0/1 indicators, at most one mark per (atom, time)")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    def indicator_increments(self, mark: Mark) -> np.ndarray:
        """Per-step mass of one mark as an (atom, time) matrix."""
        return self.increments[_MARK_INDEX[mark]]

    @property
    def events(self) -> tuple:
        """Per atom, its (time, Mark) events in time order; built on each access."""
        if self.is_predictable_density:
            raise ValueError("a density-form measure has no events")
        # (atom, time, mark) order, so each atom's events come out sorted by time
        atoms, times, marks = np.nonzero(self.increments.transpose(1, 2, 0))
        out = [[] for _ in range(self.filtration.space.n_atoms)]
        for atom, t, k in zip(atoms.tolist(), times.tolist(), marks.tolist()):
            out[atom].append((t, MARKS[k]))
        return tuple(tuple(evs) for evs in out)

    def mass(self) -> AdaptedProcess:
        """Cumulative total mass over all marks."""
        step = sum(self.indicator_increments(m) for m in MARKS)
        return AdaptedProcess(self.filtration, np.cumsum(step, axis=1))


def joint_decomposition(
    x: PointProcess, h: PointProcess
) -> tuple[PointProcess, PointProcess, PointProcess]:
    """Split (X, H) into X-only, H-only and joint counting processes.

    The three parts are counting processes with pairwise no common jumps and
    satisfy part1 + part3 = X, part2 + part3 = H.
    """
    x = as_point_process(x)
    h = as_point_process(h)
    if x.filtration.partitions != h.filtration.partitions:
        raise FiltrationMismatch("pair must share one filtration")
    y3 = as_point_process(quadratic_covariation(x, h))
    y1 = PointProcess(x.filtration, x.values - y3.values)
    y2 = PointProcess(x.filtration, h.values - y3.values)
    return y1, y2, y3


def jump_measure(x: PointProcess, h: PointProcess) -> MarkedMeasure:
    """Jump measure of the pair: mark (dX, dH) wherever (dX, dH) != (0, 0)."""
    x = as_point_process(x)
    h = as_point_process(h)
    if x.filtration.partitions != h.filtration.partitions:
        raise FiltrationMismatch("pair must share one filtration")
    dx = x.increments() == 1.0
    dh = h.increments() == 1.0
    # stacked in MARKS order: X only, H only, joint
    increments = np.stack([dx & ~dh, ~dx & dh, dx & dh]).astype(float)
    return MarkedMeasure(x.filtration, increments, is_predictable_density=False)


def compensator_measure(mu: MarkedMeasure) -> MarkedMeasure:
    """Predictable compensator of a jump measure, in density form.

    Each mark's event-count process is compensated in the measure's own
    filtration; the per-step predictable masses are stacked per mark.
    """
    if mu.is_predictable_density:
        raise ValueError("input is already in density form")
    filt = mu.filtration
    n = filt.space.n_atoms
    dens = np.zeros((len(MARKS), n, filt.horizon + 1))
    for k, mark in enumerate(MARKS):
        counts = PointProcess(filt, np.cumsum(mu.indicator_increments(mark), axis=1))
        dens[k] = compensator(counts).compensator.increments()
    return MarkedMeasure(filt, dens, is_predictable_density=True)


@dataclass(frozen=True, eq=False)
class PredictableFunction:
    """One predictable process per mark, stacked as values[mark, atom, time]."""

    filtration: Filtration
    values: np.ndarray

    def __post_init__(self):
        vals = _mark_stack(self.filtration, np.array(self.values, dtype=float))
        _require_predictable(vals, self.filtration)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, filtration: Filtration, value: float = 1.0) -> "PredictableFunction":
        n = filtration.space.n_atoms
        return cls(filtration, np.full((len(MARKS), n, filtration.horizon + 1), float(value)))

    @classmethod
    def indicator(cls, filtration: Filtration, marks) -> "PredictableFunction":
        """Constant 1 on the given marks, 0 elsewhere."""
        n = filtration.space.n_atoms
        vals = np.zeros((len(MARKS), n, filtration.horizon + 1))
        for m in marks:
            vals[_MARK_INDEX[m]] = 1.0
        return cls(filtration, vals)

    def component(self, mark: Mark) -> AdaptedProcess:
        return AdaptedProcess(self.filtration, self.values[_MARK_INDEX[mark]])


def integrate(w: PredictableFunction, m: MarkedMeasure) -> AdaptedProcess:
    """(W * m)_t: the double sum of W against the measure's per-step masses."""
    if w.filtration.partitions != m.filtration.partitions:
        raise FiltrationMismatch("function and measure on different filtrations")
    step = np.zeros((m.filtration.space.n_atoms, m.filtration.horizon + 1))
    for k, mark in enumerate(MARKS):
        step += w.values[k] * m.indicator_increments(mark)
    return AdaptedProcess(m.filtration, np.cumsum(step, axis=1))


def fundamental_martingales(
    x: PointProcess, h: PointProcess
) -> tuple[AdaptedProcess, AdaptedProcess, AdaptedProcess]:
    """Compensated versions of the three disjoint counting parts of (X, H)."""
    y1, y2, y3 = joint_decomposition(x, h)
    return (
        compensator(y1).martingale_part,
        compensator(y2).martingale_part,
        compensator(y3).martingale_part,
    )
