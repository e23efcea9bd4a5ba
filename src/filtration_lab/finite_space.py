"""Finite probability spaces, partitions as sigma-fields, filtrations, processes.

Atoms are indexed 0..n-1 and carry probabilities.  A sigma-field is a
partition of the atom set; a filtration is a refining sequence of partitions
indexed by integer time 0..T.  Processes are (atom, time) value matrices tied
to a filtration.  Conditional expectation is an exact weighted block average,
which makes every downstream identity checkable to float precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    FiltrationMismatch,
    NegativeProbability,
    NotAStoppingTime,
    NotPointProcess,
    ProbabilitySumMismatch,
)

#: tolerance for the probability-sum invariant of a space
PROB_SUM_TOL = 1e-12
#: global tolerance for assertion-style operators (martingale drift, residuals)
EXACT_TOL = 1e-9
#: stopping-time value standing for "never"
NEVER = np.iinfo(np.int64).max


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteProbabilitySpace:
    """Finite sample space: atom i has probability ``probs[i]``."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen(self.probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        if np.any(probs < 0.0):
            bad = int(np.argmin(probs))
            raise NegativeProbability(f"atom {bad} has probability {probs[bad]!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ProbabilitySumMismatch(total)
        object.__setattr__(self, "probs", probs)

    @property
    def n_atoms(self) -> int:
        return int(self.probs.size)

    @property
    def atom_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_atoms))

    @property
    def positive(self) -> np.ndarray:
        """Boolean mask of atoms with strictly positive probability."""
        return self.probs > 0.0

    @property
    def null_atoms(self) -> tuple[int, ...]:
        """Atoms carrying zero probability (permitted, but flagged)."""
        return tuple(int(i) for i in np.flatnonzero(self.probs == 0.0))

    @property
    def has_null_atoms(self) -> bool:
        return len(self.null_atoms) > 0

    def expectation(self, values) -> float:
        return float(self.probs @ np.asarray(values, dtype=float))


def build_space(atom_probs: Sequence[float]) -> FiniteProbabilitySpace:
    """Build a space from a probability list; atom ids are sequential."""
    return FiniteProbabilitySpace(np.asarray(atom_probs, dtype=float))


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of atom ids covering 0..n_atoms-1 (a finite sigma-field).

    Blocks are canonicalised (sorted within and across blocks) so two
    partitions are equal iff they carry the same information.
    """

    blocks: tuple[tuple[int, ...], ...]
    n_atoms: int
    _block_of: np.ndarray = field(init=False, repr=False, compare=False)
    _first_atom: np.ndarray = field(init=False, repr=False, compare=False)
    _arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(a) for a in b)) for b in self.blocks)
        if any(len(b) == 0 for b in blocks):
            raise ValueError("empty block")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        block_of = np.full(self.n_atoms, -1, dtype=np.int64)
        for i, b in enumerate(blocks):
            for a in b:
                if a < 0 or a >= self.n_atoms:
                    raise ValueError(f"atom id {a} outside 0..{self.n_atoms - 1}")
                if block_of[a] != -1:
                    raise ValueError(f"atom {a} appears in two blocks")
                block_of[a] = i
        if np.any(block_of == -1):
            missing = int(np.argmin(block_of))
            raise ValueError(f"atom {missing} not covered by any block")
        block_of.setflags(write=False)
        first_atom = np.array([b[0] for b in blocks], dtype=np.int64)[block_of]
        first_atom.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_block_of", block_of)
        object.__setattr__(self, "_first_atom", first_atom)
        object.__setattr__(self, "_arrays", tuple(np.array(b, dtype=np.int64) for b in blocks))

    @classmethod
    def trivial(cls, n_atoms: int) -> "Partition":
        return cls((tuple(range(n_atoms)),), n_atoms)

    @classmethod
    def discrete(cls, n_atoms: int) -> "Partition":
        """Finest partition: every atom its own block."""
        return cls(tuple((i,) for i in range(n_atoms)), n_atoms)

    @classmethod
    def from_labels(cls, labels: Sequence) -> "Partition":
        """Group atoms by equal labels (the sigma-field generated by a map)."""
        groups: dict = {}
        for atom, lab in enumerate(labels):
            groups.setdefault(lab, []).append(atom)
        return cls(tuple(tuple(g) for g in groups.values()), len(labels))

    @property
    def block_of(self) -> np.ndarray:
        """Array mapping atom id to the index of its block."""
        return self._block_of

    @property
    def block_arrays(self) -> tuple:
        return self._arrays

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "Partition") -> bool:
        """True if every block of self lies inside one block of ``coarser``."""
        return coarser.n_atoms == self.n_atoms and _block_violation(coarser.block_of, self) is None


@dataclass(frozen=True, eq=False)
class Filtration:
    """Refining partition sequence P_0, ..., P_T over one space."""

    space: FiniteProbabilitySpace
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        parts = tuple(self.partitions)
        if len(parts) < 2:
            raise ValueError("horizon must be at least 1 (need P_0 and P_1)")
        n = self.space.n_atoms
        for t, p in enumerate(parts):
            if p.n_atoms != n:
                raise ValueError(f"partition at t={t} covers {p.n_atoms} atoms, space has {n}")
        for t in range(1, len(parts)):
            if not parts[t].refines(parts[t - 1]):
                raise ValueError(f"P_{t} does not refine P_{t - 1}")
        object.__setattr__(self, "partitions", parts)

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def at(self, t: int) -> Partition:
        return self.partitions[t]


def conditional_expectation(
    space: FiniteProbabilitySpace, values, partition: Partition
) -> np.ndarray:
    """Exact conditional expectation of an atom-indexed variable given a partition.

    On a block the result is the probability-weighted average; blocks of total
    probability zero get the value 0 (see ``zero_probability_blocks``).  A
    stack of variables, atoms on the last axis, is averaged in one pass.
    """
    if partition.n_atoms != space.n_atoms:
        raise FiltrationMismatch("partition does not belong to the space")
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape[:-1] + (space.n_atoms,))
    probs = space.probs
    for atoms in partition.block_arrays:
        w = probs[atoms]
        mass = float(w.sum())
        if mass > 0.0:
            out[..., atoms] = (v[..., atoms] @ w / mass)[..., None]
    return out


def zero_probability_blocks(
    space: FiniteProbabilitySpace, partition: Partition
) -> tuple[int, ...]:
    """Indices of blocks on which conditional expectations are flagged as 0."""
    has_mass = np.zeros(partition.n_blocks, dtype=bool)
    has_mass[partition.block_of[space.positive]] = True
    return tuple(int(i) for i in np.flatnonzero(~has_mass))


def positive_sup(space: FiniteProbabilitySpace, values) -> float:
    """Max absolute value over positive-probability atoms (the first axis); 0 if there are none."""
    vals = np.abs(np.asarray(values)[space.positive])
    return float(vals.max()) if vals.size else 0.0


@dataclass(frozen=True, eq=False)
class AdaptedProcess:
    """Process values indexed (atom, time 0..T), tied to a filtration.

    Construction does not enforce adaptedness; use :func:`is_adapted` /
    :func:`is_predictable`, or the operations that require them.
    """

    filtration: Filtration
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        n = self.filtration.space.n_atoms
        T = self.filtration.horizon
        if vals.shape != (n, T + 1):
            raise ValueError(f"values must have shape ({n}, {T + 1}), got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def space(self) -> FiniteProbabilitySpace:
        return self.filtration.space

    @property
    def horizon(self) -> int:
        return self.filtration.horizon

    def at(self, t: int) -> np.ndarray:
        return self.values[:, t]

    @property
    def initial(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[:, -1]

    def increments(self) -> np.ndarray:
        """Jump matrix with the time-0 column set to 0 (X_{0-} := X_0)."""
        out = np.zeros_like(self.values)
        out[:, 1:] = np.diff(self.values, axis=1)
        return out

    def left_shifted(self) -> "AdaptedProcess":
        """Previous-time values (Y_{t-1}, with Y_0 kept at time 0)."""
        vals = np.empty_like(self.values)
        vals[:, 0] = self.values[:, 0]
        vals[:, 1:] = self.values[:, :-1]
        return AdaptedProcess(self.filtration, vals)

    def _coerce(self, other):
        if isinstance(other, AdaptedProcess):
            mine, theirs = self.space, other.space
            if theirs is not mine and not np.array_equal(theirs.probs, mine.probs):
                raise FiltrationMismatch("processes on different spaces")
            return other.values
        return other

    def __add__(self, other):
        return AdaptedProcess(self.filtration, self.values + self._coerce(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return AdaptedProcess(self.filtration, self.values - self._coerce(other))

    def __mul__(self, other):
        return AdaptedProcess(self.filtration, self.values * self._coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return AdaptedProcess(self.filtration, -self.values)

    def sup_abs(self) -> float:
        """Max absolute value over positive-probability atoms."""
        return positive_sup(self.space, self.values)


class PointProcess(AdaptedProcess):
    """Counting process: values in N, X_0 = 0, increments in {0, 1}."""

    def __post_init__(self):
        super().__post_init__()
        v = self.values
        if not np.array_equal(v, np.rint(v)):
            raise NotPointProcess("values must be integers")
        if np.any(v[:, 0] != 0.0):
            raise NotPointProcess("must start at 0")
        d = np.diff(v, axis=1)
        if np.any((d != 0.0) & (d != 1.0)):
            raise NotPointProcess("increments must lie in {0, 1}")


def as_point_process(p: AdaptedProcess) -> PointProcess:
    """``p`` itself if it is a PointProcess, else its values validated as one."""
    return p if isinstance(p, PointProcess) else PointProcess(p.filtration, p.values)


def _block_violation(column: np.ndarray, partition: Partition):
    """First block on which an atom-indexed column (or any of a stack, atoms last) is not constant.

    Every atom is compared with its block's first atom, so a NaN violates its block.
    """
    bad = column != column[..., partition._first_atom]
    if bad.ndim > 1:
        bad = bad.reshape(-1, bad.shape[-1]).any(axis=0)
    if not bad.any():
        return None
    return int(partition.block_of[bad].min())


def is_adapted(p: AdaptedProcess) -> bool:
    """True iff the time-t values are constant on every block of P_t, exactly."""
    for t in range(p.horizon + 1):
        if _block_violation(p.values[:, t], p.filtration.at(t)) is not None:
            return False
    return True


def predictable_violation(values: np.ndarray, filtration: Filtration):
    """First (time, block) at which ``values[..., atom, time]`` is not predictable, else None.

    Time-t values (t >= 1) must be P_{t-1}-constant and time-0 values P_0-constant.
    """
    for t in range(filtration.horizon + 1):
        block = _block_violation(values[..., t], filtration.at(max(t - 1, 0)))
        if block is not None:
            return t, block
    return None


def is_predictable(p: AdaptedProcess) -> bool:
    """True iff time-t values (t >= 1) are P_{t-1}-constant and the time-0 value is P_0-constant."""
    return predictable_violation(p.values, p.filtration) is None


@dataclass(frozen=True, eq=False)
class StoppingTime:
    """Atomwise time in {0..T} or NEVER, with {sigma <= t} measurable at t."""

    filtration: Filtration
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values, dtype=np.int64)
        n = self.filtration.space.n_atoms
        T = self.filtration.horizon
        if vals.shape != (n,):
            raise ValueError(f"need one value per atom, got shape {vals.shape}")
        ok = ((vals >= 0) & (vals <= T)) | (vals == NEVER)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise ValueError(f"atom {bad}: value {vals[bad]} outside 0..{T} or NEVER")
        for t, partition in enumerate(self.filtration.partitions):
            block = _block_violation(vals <= t, partition)
            if block is not None:
                raise NotAStoppingTime(t, partition.blocks[block])
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, filtration: Filtration, t: int) -> "StoppingTime":
        return cls(filtration, np.full(filtration.space.n_atoms, t, dtype=np.int64))

    @classmethod
    def never(cls, filtration: Filtration) -> "StoppingTime":
        return cls(filtration, np.full(filtration.space.n_atoms, NEVER, dtype=np.int64))

    def min_with(self, other: "StoppingTime") -> "StoppingTime":
        if other.filtration.partitions != self.filtration.partitions:
            raise FiltrationMismatch("stopping times on different filtrations")
        return StoppingTime(self.filtration, np.minimum(self.values, other.values))


def first_jump_time(x: PointProcess, level: int = 1) -> StoppingTime:
    """First time the counting path reaches ``level`` (NEVER if it does not)."""
    reached = x.values >= level
    vals = np.where(reached.any(axis=1), reached.argmax(axis=1), NEVER)
    return StoppingTime(x.filtration, vals)


def stop_process(p: AdaptedProcess, sigma: StoppingTime) -> AdaptedProcess:
    """Freeze the path from sigma onward: X^sigma_t = X_{t ^ sigma}."""
    if sigma.filtration.partitions != p.filtration.partitions:
        raise FiltrationMismatch("stopping time from a different filtration")
    return type(p)(p.filtration, stop_values(p.values, sigma))


def stop_values(values: np.ndarray, sigma: StoppingTime) -> np.ndarray:
    """``values[..., atom, t]`` frozen from sigma onward, for a stack of value matrices."""
    T = sigma.filtration.horizon
    cut = np.minimum(sigma.values, T)
    time_idx = np.minimum(np.arange(T + 1)[None, :], cut[:, None])
    return np.take_along_axis(values, np.broadcast_to(time_idx, values.shape), axis=-1)


def rebind(p: AdaptedProcess, filtration: Filtration, check: bool = True) -> AdaptedProcess:
    """Attach the same values to another filtration (e.g. an enlargement)."""
    out = type(p)(filtration, p.values)
    if check and not is_adapted(out):
        from .errors import NotAdapted

        raise NotAdapted("process is not adapted to the target filtration")
    return out
