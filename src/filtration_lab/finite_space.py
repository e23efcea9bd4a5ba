"""Finite probability spaces, partitions as sigma-fields, filtrations, processes.

Atoms are indexed 0..n-1 and carry probabilities.  A sigma-field is a
partition of the atom set, stored as its canonical label vector (atom a's
block, blocks numbered by first atom); its blocks, and its one block table per
space (the positive-mass blocks grouped by size), are derived from the labels
on first read.  A filtration is a refining sequence of partitions indexed by
integer time 0..T.  Processes are (atom, time) value matrices tied to a
filtration.  Conditional expectation is an exact weighted block average, which
makes every downstream identity checkable to float precision.  The two slice
operators average or test every time slice of a stack at once, on the
filtration's cell union: its (atom, time) cells as one space, partitioned by
(t, block of P_{t-lag}), with dyadic slice weights that keep every block
average's bits; the union is structure only, its labels built once per lag in
one pass and its block table on first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

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
#: tolerance of assertion-style operators (martingale drift, residuals, independence)
EXACT_TOL = 1e-9
#: tolerance of atomwise identities (brackets, integrals, densities, decomposition gaps)
ATOMWISE_TOL = 1e-12
#: stopping-time value standing for "never"
NEVER = np.iinfo(np.int64).max


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def atom_id(a) -> int:
    """An atom id of outside input: an int or a NumPy integer, never a bool, a float or a string."""
    if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
        raise ValueError(f"atom id {a!r} is not an integer")
    return int(a)


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

    @cached_property
    def positive(self) -> np.ndarray:
        """Read-only boolean mask of atoms with strictly positive probability."""
        return _frozen(self.probs > 0.0, dtype=bool)

    @cached_property
    def null_atoms(self) -> tuple[int, ...]:
        """Atoms carrying zero probability (permitted, but flagged)."""
        return tuple(int(i) for i in np.flatnonzero(self.probs == 0.0))

    def expectation(self, values) -> float:
        return float(self.probs @ np.asarray(values, dtype=float))


def build_space(atom_probs: Sequence[float]) -> FiniteProbabilitySpace:
    """Build a space from a probability list; atom ids are sequential."""
    return FiniteProbabilitySpace(np.asarray(atom_probs, dtype=float))


@dataclass(frozen=True, init=False)
class Partition:
    """A finite sigma-field on atoms 0..n-1, stored as its canonical label vector.

    ``labels[a]`` is atom a's block, blocks numbered by first atom, so two partitions
    are equal iff they carry the same information.  All else is derived on first read.
    """

    labels: tuple[int, ...]

    def __init__(self, blocks, n_atoms: int):
        """Validate outside input: explicit ``blocks`` of atom ids, non-empty, disjoint and covering 0..n_atoms-1."""
        blocks = sorted((tuple(sorted(atom_id(a) for a in b)) for b in blocks), key=lambda b: b[:1])
        if any(len(b) == 0 for b in blocks):
            raise ValueError("empty block")
        owner = [-1] * n_atoms
        for i, b in enumerate(blocks):
            for a in b:
                if a < 0 or a >= n_atoms:
                    raise ValueError(f"atom id {a} outside 0..{n_atoms - 1}")
                if owner[a] != -1:
                    raise ValueError(f"atom {a} appears in two blocks")
                owner[a] = i
        if -1 in owner:
            raise ValueError(f"atom {owner.index(-1)} not covered by any block")
        object.__setattr__(self, "labels", tuple(owner))

    @classmethod
    def from_labels(cls, labels: Iterable) -> "Partition":
        """Group atoms by equal labels (the sigma-field generated by a map), blocks numbered as first seen."""
        seen: dict = {}
        p = object.__new__(cls)
        object.__setattr__(p, "labels", tuple([seen.setdefault(lab, len(seen)) for lab in labels]))
        return p

    @classmethod
    def trivial(cls, n_atoms: int) -> "Partition":
        return cls.from_labels([0] * n_atoms)

    @classmethod
    def discrete(cls, n_atoms: int) -> "Partition":
        """Finest partition: every atom its own block."""
        return cls.from_labels(range(n_atoms))

    @property
    def n_atoms(self) -> int:
        return len(self.labels)

    @cached_property
    def n_blocks(self) -> int:
        return max(self.labels, default=-1) + 1

    @cached_property
    def block_of(self) -> np.ndarray:
        """Read-only array mapping atom id to the index of its block."""
        return _frozen(self.labels, dtype=np.int64)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block's atom ids, ascending, in block order."""
        atoms = sorted(range(self.n_atoms), key=self.labels.__getitem__)  # a stable sort keeps each block ascending
        return tuple(tuple(g) for _, g in groupby(atoms, key=self.labels.__getitem__))

    @cached_property
    def _runs(self) -> tuple:
        """(atoms grouped by block, each block ascending; each block's start among them; each block's size)."""
        order = np.argsort(self.block_of, kind="stable")
        sizes = np.bincount(self.block_of)
        return order, sizes.cumsum() - sizes, sizes

    @cached_property
    def _first_atom(self) -> np.ndarray:
        """Read-only array mapping atom id to the first atom of its block."""
        order, starts, _ = self._runs
        first = order[starts][self.block_of]
        first.setflags(write=False)
        return first

    def size_groups(self, space: FiniteProbabilitySpace) -> tuple:
        """The positive-mass blocks grouped by size, sizes as first seen: (atoms (G, m), probs (G, m), masses (G,)) per size m.

        This is the partition's one block table, kept per space (all frozen; keyed by identity).
        """
        return self._table(space)[0]

    def _table(self, space: FiniteProbabilitySpace) -> tuple:
        """The block table for ``space`` with its read index; see :func:`_indexed`."""
        tables = self.__dict__.setdefault("_tables", {})
        if space not in tables:
            order, starts, sizes = self._runs
            by_first = {}
            for m in dict.fromkeys(sizes.tolist()):
                blocks = (sizes == m).nonzero()[0]
                atoms = order[starts[blocks, None] + np.arange(m)]
                w = space.probs[atoms]
                masses = np.add.reduce(w, axis=1)  # each row sums as its block's own w.sum() does
                keep = masses > 0.0
                if keep.all():
                    by_first[blocks[0]] = atoms, w, masses
                elif keep.any():
                    by_first[blocks[keep.argmax()]] = atoms[keep], w[keep], masses[keep]
            # sizes in the order their first positive-mass block comes
            groups = tuple(by_first[b] for b in sorted(by_first))
            for a in (a for g in groups for a in g):
                a.setflags(write=False)
            tables[space] = _indexed(groups, self.n_atoms)
        return tables[space]

    def refines(self, coarser: "Partition") -> bool:
        """True if every block of self lies inside one block of ``coarser``: no label of self pairs with two of ``coarser``."""
        return coarser.n_atoms == self.n_atoms and len(set(zip(self.labels, coarser.labels))) == self.n_blocks


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

    def cell_union(self, lag: int) -> tuple:
        """(space, partition) of the cells (a, t), numbered atom-major as a ``(n, T+1)`` matrix flattens.

        Cell (a, t) lies in block (t, block of a in P_{max(t-lag, 0)}).  For t >= lag it
        weighs p_a 2^-e_t, e = 1, 2, ..., k-1, k-1 over the k = T+1-lag slices (sum 1);
        the slices t < lag are null cells in zero-mass blocks.  A power of two scales a
        block's weights and mass exactly, so its average keeps the bits of the slice's.
        Built once per lag in one pass over the slices' labels, its block table on first
        read (:meth:`Partition.size_groups`): structure only, all frozen.
        """
        built = self.__dict__.setdefault("_cell_unions", {})
        if lag not in built:
            built[lag] = _cell_union(self, lag)
        return built[lag]


def _indexed(groups: tuple, n_atoms: int) -> tuple:
    """(groups, spread, nulls) of size groups: ``spread[a]`` is the row of atom a's block among
    the groups' blocks, counted in table order, and one past the last row for a zero-mass
    block; ``nulls`` is true iff some positive-mass block holds a zero-probability atom.
    """
    spread = np.full(n_atoms, sum(len(masses) for *_, masses in groups))
    row = 0
    for atoms, _, masses in groups:
        spread[atoms] = np.arange(row, row + len(masses))[:, None]
        row += len(masses)
    spread.setflags(write=False)
    return groups, spread, not all(w.all() for _, w, _ in groups)


def _cell_union(filtration: Filtration, lag: int) -> tuple:
    """:meth:`Filtration.cell_union`, built in one label pass over the slices' blocks as one key."""
    space, parts = filtration.space, filtration.partitions
    n, width = space.n_atoms, len(parts)
    slices = [parts[max(t - lag, 0)] for t in range(width)]
    # cell (a, t)'s key is a's block of its slice, past the blocks of the slices before it
    offsets = np.cumsum([0] + [p.n_blocks for p in slices[:-1]])
    key = (np.column_stack([p.block_of for p in slices]) + offsets).ravel()
    order = np.argsort(key, kind="stable")  # each key's cells ascending, so a key's head is its first cell
    sizes = np.bincount(key)
    starts = sizes.cumsum() - sizes
    heads = order[starts]
    # blocks ranked by first cell are the canonical labels
    is_head = np.zeros(n * width, dtype=bool)
    is_head[heads] = True
    label_of = (np.cumsum(is_head) - 1)[heads]
    labels, first = label_of[key], heads[key]
    runs = np.empty((2, len(sizes)), dtype=np.int64)
    runs[:, label_of] = starts, sizes
    partition = object.__new__(Partition)
    object.__setattr__(partition, "labels", tuple(labels.tolist()))
    partition.__dict__.update(n_blocks=len(sizes), block_of=labels, _first_atom=first, _runs=(order, *runs))

    k = width - lag
    scale = [0.0] * lag + [2.0 ** -min(i, k - 1) for i in range(1, k + 1)]
    cells = object.__new__(FiniteProbabilitySpace)  # its total is the space's, so it is not checked again
    object.__setattr__(cells, "probs", (space.probs[:, None] * scale).ravel())
    for a in (first, labels, cells.probs):
        a.setflags(write=False)
    return cells, partition


def conditional_expectation(
    space: FiniteProbabilitySpace, values, partition: Partition
) -> np.ndarray:
    """Exact conditional expectation of an atom-indexed variable given a partition.

    On a block the result is the probability-weighted average over its
    positive-probability atoms, written to every atom of the block; blocks of
    total probability zero get the value 0.  A stack of variables, atoms on
    the last axis, is averaged in one pass, one ``np.vecdot`` per block size,
    which rounds every entry exactly as ``v[atoms] @ w / mass`` does alone.
    The averages are written out by one ``np.take`` through the block table's spread.
    """
    if partition.n_atoms != space.n_atoms:
        raise FiltrationMismatch("partition does not belong to the space")
    v = np.asarray(values, dtype=float)
    groups, spread, nulls = partition._table(space)
    if nulls:
        # weight 0 does not silence a NaN or an inf (nan * 0 is nan), so drop them
        v = np.where(space.positive, v, 0.0)
    # take() lays the rows out contiguously; a strided row would be summed in another order
    means = [np.vecdot(np.take(v, atoms, axis=-1), w) / masses for atoms, w, masses in groups]
    return np.take(np.concatenate(means + [np.zeros(v.shape[:-1] + (1,))], axis=-1), spread, axis=-1)


def positive_sup(space: FiniteProbabilitySpace, values) -> float:
    """Max absolute value over positive-probability atoms (the first axis); 0 if there are none.

    A NaN on a positive-probability atom makes the sup NaN; a null atom is never read.
    """
    v = np.abs(values)
    return float(v.max(initial=0.0, where=space.positive.reshape((-1,) + (1,) * (v.ndim - 1))))


def positive_sups(space: FiniteProbabilitySpace, values) -> np.ndarray:
    """Max absolute value over the positive-probability atoms and times of each ``(..., n, T+1)`` entry.

    A NaN on a positive-probability atom makes its entry's sup NaN; with none, the sup is 0.
    """
    return np.abs(values).max(axis=(-2, -1), initial=0.0, where=space.positive[:, None])


def segment_sups(space: FiniteProbabilitySpace, values, starts) -> np.ndarray:
    """:func:`positive_sups` per segment of atoms: ``(..., len(starts))`` for a ``(..., n, T+1)`` stack.

    Segment i is the atoms from ``starts[i]`` up to the next start (the last
    runs to n).  A segment with no positive-probability atom gets 0; a NaN on a
    positive-probability atom makes its segment's sup NaN.  Each atom's max
    over time is taken on a time-major copy, whose long atom axis is the
    inner loop; a max rounds nothing, so the bytes are those of the max along
    the short time axis.
    """
    time_major = np.abs(np.swapaxes(values, -1, -2), order="C")
    per_atom = time_major.max(axis=-2, initial=0.0, where=space.positive)
    return np.maximum.reduceat(per_atom, starts, axis=-1)


def max_gap(*gaps) -> float:
    """Largest of the gaps, each a float or an array of floats; NaN if any gap is NaN.

    Every max over fixtures, targets, marks or blocks goes through here, so no
    NaN is dropped the way the builtin ``max`` drops one.
    """
    return float(np.max(np.concatenate([np.ravel(g) for g in gaps])))


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
        return time_increments(self.values)

    def sup_abs(self) -> float:
        """Max absolute value over positive-probability atoms."""
        return positive_sup(self.space, self.values)


def time_increments(values) -> np.ndarray:
    """Jumps of each entry of a ``(..., n, T+1)`` stack along time, the time-0 column set to 0.

    One subtraction over the flattened array, with floating-point warnings
    off: the differences across the end of a row (an inf - inf, say) land in
    the time-0 column, which is then reset.  An in-row inf - inf still gives NaN.
    """
    v = np.ascontiguousarray(values, dtype=float)
    out = np.empty_like(v)
    flat, jumps = v.reshape(-1), out.reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(flat[1:], flat[:-1], out=jumps[1:])
    out[..., 0] = 0.0
    return out


def running_sums(steps, out=None) -> np.ndarray:
    """Sums along time of a ``(..., n, T+1)`` stack, bit for bit ``np.cumsum(steps, axis=-1)``.

    Slice 0 is copied and slice t is ``out[..., t-1] + steps[..., t]``, the
    order ``np.cumsum`` adds in, so a -0.0, an inf or a NaN lands as there.
    One addition per time slice over the whole stack costs less than
    ``np.cumsum``'s inner loop per row when the time axis is short.  ``out``
    may be ``steps`` itself, or a strided view.
    """
    steps = np.asarray(steps, dtype=float)
    if out is None:
        out = np.empty(steps.shape)
    out[..., 0] = steps[..., 0]
    for t in range(1, steps.shape[-1]):
        np.add(out[..., t - 1], steps[..., t], out=out[..., t])
    return out


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


def slice_expectations(values, filtration: Filtration, lag: int) -> np.ndarray:
    """Slice t of a ``(..., n, T+1)`` stack averaged over the blocks of P_{t-lag}; slices t < lag are 0.

    Lag 1 is the one-step average E[. | P_{t-1}] behind compensators and
    drifts, lag 0 the closure E[. | P_t].  The whole stack is one block average
    over the filtration's cell union (:meth:`Filtration.cell_union`).
    """
    cells, partition = filtration.cell_union(lag)
    v = np.asarray(values, dtype=float)
    return conditional_expectation(cells, v.reshape(v.shape[:-2] + (cells.n_atoms,)), partition).reshape(v.shape)


def slice_violation(values, filtration: Filtration, lag: int):
    """First (t, block) at which slice t of a ``(..., n, T+1)`` stack is not P_{max(t-lag, 0)}-constant, else None.

    Lag 0 tests adaptedness, lag 1 predictability (slice 0 against P_0).  Every
    cell of the cell union is compared with its block's first cell, so a NaN
    violates its block; (t, block) is located only when some cell fails.
    """
    first = filtration.cell_union(lag)[1]._first_atom
    v = np.asarray(values)
    flat = v.reshape(v.shape[:-2] + first.shape)
    bad = flat != flat[..., first]
    if bad.ndim > 1:
        bad = bad.reshape((-1,) + first.shape).any(axis=0)
    if not bad.any():
        return None
    bad = bad.reshape(v.shape[-2:])
    t = int(bad.any(axis=0).argmax())
    return t, int(filtration.at(max(t - lag, 0)).block_of[bad[:, t]].min())


def is_adapted(p: AdaptedProcess) -> bool:
    """True iff the time-t values are constant on every block of P_t, exactly."""
    return slice_violation(p.values, p.filtration, 0) is None


def is_predictable(p: AdaptedProcess) -> bool:
    """True iff time-t values (t >= 1) are P_{t-1}-constant and the time-0 value is P_0-constant."""
    return slice_violation(p.values, p.filtration, 1) is None


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
        bad = slice_violation(vals[:, None] <= np.arange(T + 1), self.filtration, 0)
        if bad is not None:
            t, block = bad
            raise NotAStoppingTime(t, self.filtration.at(t).blocks[block])
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, filtration: Filtration, t: int) -> "StoppingTime":
        return cls(filtration, np.full(filtration.space.n_atoms, t, dtype=np.int64))


def first_jump_time(x: PointProcess) -> StoppingTime:
    """First time the counting path jumps (NEVER if it does not)."""
    reached = x.values >= 1.0
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

