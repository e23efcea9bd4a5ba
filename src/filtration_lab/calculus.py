"""Discrete-time stochastic calculus: compensators, brackets, integrals, tests.

The compensator is the discrete dual predictable projection
``A^p_t = sum_{s<=t} E[dA_s | P_{s-1}]`` (Doob decomposition), which is the
unique predictable increasing process making ``A - A^p`` an exact martingale
on a finite space.  Quadratic covariation is the jump-product sum; the
predictable covariation of two martingales is the compensator
(``dual_projection``) of their bracket.  The orthogonality toolkit has one
result type, :class:`SegmentedToolkit`: a lone pair is its one-segment case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FiltrationMismatch,
    NotAdapted,
    NotIncreasing,
    NotMartingale,
    NotPredictable,
)
from .finite_space import (
    EXACT_TOL,
    AdaptedProcess,
    Filtration,
    as_point_process,
    running_sums,
    segment_sups,
    slice_expectations,
    slice_violation,
    time_increments,
)


@dataclass(frozen=True)
class CompensatorPair:
    """Compensator of an increasing process, and the compensated martingale."""

    compensator: AdaptedProcess
    martingale_part: AdaptedProcess


@dataclass(frozen=True)
class MartingaleCheck:
    ok: bool
    #: (time, block index, conditional drift) of the first violation
    witness: tuple[int, int, float] | None

    def __bool__(self) -> bool:
        return self.ok


def dual_projection(p: AdaptedProcess, filtration: Filtration | None = None) -> AdaptedProcess:
    """Predictable compensator of a finite-variation value matrix.

    Does not require the input to be adapted (the projection of a raw
    increasing process onto the predictable sets is defined regardless);
    the output always is predictable.
    """
    filtration = filtration or p.filtration
    return AdaptedProcess(filtration, dual_projections(p.values, filtration))


def dual_projections(values, filtration: Filtration) -> np.ndarray:
    """The :func:`dual_projection` of every entry of a ``(..., n, T+1)`` stack, in one pass."""
    return running_sums(slice_expectations(time_increments(values), filtration, 1))


def compensator(a: AdaptedProcess) -> CompensatorPair:
    """Doob decomposition of an adapted increasing process starting at 0."""
    comp = compensators(a.values, a.filtration)
    return CompensatorPair(AdaptedProcess(a.filtration, comp), AdaptedProcess(a.filtration, a.values - comp))


def compensators(values, filtration: Filtration) -> np.ndarray:
    """Compensators of a ``(..., n, T+1)`` stack of adapted increasing processes starting at 0.

    One bad entry raises for the whole stack, as it would alone.
    """
    v = np.asarray(values, dtype=float)
    if slice_violation(v, filtration, 0) is not None:
        raise NotAdapted("input process is not adapted")
    if np.any(v[..., 0] != 0.0):
        raise NotIncreasing("increasing processes must start at 0")
    if np.any(time_increments(v)[..., 1:] < 0.0):
        raise NotIncreasing("process has a negative increment")
    return dual_projections(v, filtration)


def quadratic_covariation(y: AdaptedProcess, z: AdaptedProcess) -> AdaptedProcess:
    """[Y, Z]_t = sum_{s<=t} dY_s dZ_s (purely discontinuous paths)."""
    if y.filtration.partitions != z.filtration.partitions:
        raise FiltrationMismatch("bracket operands live on different filtrations")
    prod = y.increments() * z.increments()
    return AdaptedProcess(y.filtration, running_sums(prod))


def stochastic_integral(k: AdaptedProcess, m: AdaptedProcess) -> AdaptedProcess:
    """(K . M)_t = sum_{s<=t} K_s dM_s for predictable K."""
    if k.filtration.partitions != m.filtration.partitions:
        raise FiltrationMismatch("integrand and integrator on different filtrations")
    return AdaptedProcess(m.filtration, stochastic_integrals(k.values, m))


def stochastic_integrals(integrands, m: AdaptedProcess) -> np.ndarray:
    """(K . M) for every integrand K of a ``(..., n, T+1)`` stack, as values of the same shape.

    The whole stack's predictability is checked once; a failure names its
    first (t, block).
    """
    k = np.asarray(integrands, dtype=float)
    bad = slice_violation(k, m.filtration, 1)
    if bad is not None:
        raise NotPredictable(f"integrand is not predictable at (t, block) = {bad}")
    vals = np.zeros(k.shape)
    running_sums(k[..., 1:] * m.increments()[:, 1:], out=vals[..., 1:])
    return vals


def is_martingale(m: AdaptedProcess) -> MartingaleCheck:
    """One-step drift test: |E[dM_t | P_{t-1}]| <= EXACT_TOL for all t >= 1 (a NaN drift fails)."""
    return martingale_checks(m.values, m.filtration)[0]


def martingale_checks(values, filtration: Filtration) -> list[MartingaleCheck]:
    """The drift test of :func:`is_martingale` for every entry of a ``(..., n, T+1)`` stack.

    One check per entry, the leading axes flattened in C order.
    """
    v = np.asarray(values, dtype=float)
    drift = slice_expectations(time_increments(v), filtration, 1).reshape((-1,) + v.shape[-2:])
    bad = ~(np.abs(drift) <= EXACT_TOL)
    checks = [MartingaleCheck(True, None)] * len(drift)
    for i in np.flatnonzero(bad.any(axis=(1, 2))):
        # earliest t, then its first bad atom; blocks are ordered by first atom,
        # so that atom lies in the lowest bad block
        t, atom = (int(j) for j in np.argwhere(bad[i].T)[0])
        block = int(filtration.at(t - 1).block_of[atom])
        checks[i] = MartingaleCheck(False, (t, block, float(drift[i, atom, t])))
    return checks


def require_martingale(m: AdaptedProcess, label: str) -> None:
    """Raise NotMartingale, naming ``label`` and the drift witness, unless ``m`` is a martingale."""
    check = is_martingale(m)
    if not check:
        raise NotMartingale(f"{label} has nonzero drift at {check.witness}")


@dataclass(frozen=True)
class SegmentedToolkit:
    """The toolkit's verdicts on each segment of atoms (entry i: segment i), and the processes they read.

    A disjoint-jumps clause holds vacuously on a segment whose jumps overlap.
    """

    orthogonal: np.ndarray
    clauses: dict
    jumps_disjoint: np.ndarray
    decomposition_gap: np.ndarray
    #: sup of dY^p dZ^p over each segment's positive atoms: 0 iff the compensators never jump together there
    predictable_jump_sup: np.ndarray
    #: values of [Y^p,Z^p], [Ybar,Zbar] and dY^p dZ^p, and the (atom, time) flags where [Ybar,Zbar]^p moves
    bracket_compensators: np.ndarray
    bracket_bar: np.ndarray
    predictable_jump_product: np.ndarray
    bar_moves: np.ndarray

    def first_move(self) -> tuple[int, int] | None:
        """(time, atom) at which [Ybar,Zbar]^p first moves: earliest t, then lowest atom; None if it never does."""
        moves = np.argwhere(self.bar_moves.T)
        return (int(moves[0, 0]), int(moves[0, 1])) if len(moves) else None

    def clauses_at(self, i: int) -> dict:
        """Segment i's clauses as a lone pair reports them (the disjoint-jumps ones only if its jumps are)."""
        disjoint_only = ("disjoint_zero", "disjoint_predictable")
        return {k: bool(v[i]) for k, v in self.clauses.items() if self.jumps_disjoint[i] or k not in disjoint_only}


def orthogonality_segments(y: AdaptedProcess, z: AdaptedProcess, starts) -> SegmentedToolkit:
    """The orthogonality toolkit for two counting processes, at ``EXACT_TOL``, on each segment of atoms in one pass.

    Segment i is the atoms from ``starts[i]`` up to the next start (the last
    runs to the end); a lone pair is the one segment ``starts = [0]``.  A
    segment is orthogonal iff the compensator of its compensated bracket
    vanishes, equivalently iff the bracket of the raw pair compensates to the
    bracket of the compensators.  Clauses reported:
      * ``increasing_brackets``: [Y^p,Z], [Y,Z^p], [Y^p,Z^p] are increasing
        and finite;
      * ``associated``: both mixed brackets compensate to [Y^p,Z^p];
      * ``martingale_iff_match``: the compensated bracket is a martingale
        exactly when [Y,Z]^p equals [Y^p,Z^p];
      * under disjoint jumps additionally ``disjoint_zero`` and
        ``disjoint_predictable`` (bracket martingale iff it vanishes iff the
        compensators never jump together).

    Every clause and gap is reduced segment by segment, so on a disjoint
    union whose initial sigma-field separates the segments, segment i reports
    bit for bit what its pair reports alone.  A reduction over the whole
    union would not do: two pairs that break an equivalence clause in
    opposite directions would make the union satisfy it.  Only
    positive-probability atoms are read, so an atom of probability 0 changes
    no segment's verdict, even one placed past its block's segment.
    """
    y = as_point_process(y)
    z = as_point_process(z)
    if y.filtration.partitions != z.filtration.partitions:
        raise FiltrationMismatch("pair must share one filtration")
    return orthogonality_pairs(np.stack([y.values, z.values]), [(0, 1)], y.filtration, starts)[0]


def orthogonality_pairs(values, pairs, filtration: Filtration, starts) -> list[SegmentedToolkit]:
    """:func:`orthogonality_segments` of each pair (i, j) of a ``(p, n, T+1)`` stack of counting processes.

    The processes are compensated once and the pairs evaluated along one
    pair axis; pair k's toolkit is bit for bit its lone pair's.  That the
    values are counting processes on ``filtration`` is the caller's to check.
    """
    space = filtration.space
    v = np.asarray(values, dtype=float)
    vp = dual_projections(v, filtration)
    first, second = np.transpose(pairs)
    y, z, yp, zp = v[first], v[second], vp[first], vp[second]
    # jump products, then brackets, of [Y,Z], [Y^p,Z], [Y,Z^p], [Y^p,Z^p], [Ybar,Zbar], each (pairs, n, T+1)
    prods = time_increments(np.stack([y, yp, y, yp, y - yp]))
    prods *= time_increments(np.stack([z, z, zp, zp, z - zp]))
    brackets = running_sums(prods)
    b_yz, b_yp_z, b_y_zp, b_pp, b_bar = brackets
    incs = time_increments(brackets)
    # one-step drifts of [Y,Z], [Y^p,Z], [Y,Z^p] and the compensated bracket
    drifts = slice_expectations(incs[[0, 1, 2, 4]], filtration, 1)
    comp_yz, comp_yp_z, comp_y_zp, comp_bar = running_sums(drifts)
    jump_product = prods[3]

    identity = b_bar - (b_yz - b_yp_z - b_y_zp + b_pp)
    gaps = np.stack([comp_yp_z - b_pp, comp_y_zp - b_pp, comp_yz - b_pp, prods[0], b_bar, jump_product, identity])
    sups = segment_sups(space, gaps, starts)
    yp_z_associated, y_zp_associated, compensators_match, disjoint, bar_zero, no_common_jump = sups[:6] <= EXACT_TOL
    positive = space.positive[:, None]
    moves = (np.abs(time_increments(comp_bar)) > EXACT_TOL) & positive
    atom_ok = np.stack([
        ((incs[1:4] >= 0.0) | ~positive).all(axis=(0, 3)) & np.isfinite(brackets[1:4]).all(axis=(0, 3)),
        ((np.abs(drifts[3]) <= EXACT_TOL) | ~positive).all(axis=-1),
        ~moves.any(axis=-1),
    ])
    increasing_brackets, bar_martingale, orthogonal = np.logical_and.reduceat(atom_ok, starts, axis=-1)
    clauses = {
        "increasing_brackets": increasing_brackets,
        "associated": yp_z_associated & y_zp_associated,
        "martingale_iff_match": bar_martingale == compensators_match,
        "disjoint_zero": ~disjoint | (bar_martingale == bar_zero),
        "disjoint_predictable": ~disjoint | (bar_martingale == no_common_jump),
    }
    return [
        SegmentedToolkit(
            orthogonal=orthogonal[k],
            clauses={name: clause[k] for name, clause in clauses.items()},
            jumps_disjoint=disjoint[k],
            decomposition_gap=sups[6, k],
            predictable_jump_sup=sups[5, k],
            bracket_compensators=b_pp[k],
            bracket_bar=b_bar[k],
            predictable_jump_product=jump_product[k],
            bar_moves=moves[k],
        )
        for k in range(len(first))
    ]
