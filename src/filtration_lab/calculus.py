"""Discrete-time stochastic calculus: compensators, brackets, integrals, tests.

The compensator is the discrete dual predictable projection
``A^p_t = sum_{s<=t} E[dA_s | P_{s-1}]`` (Doob decomposition), which is the
unique predictable increasing process making ``A - A^p`` an exact martingale
on a finite space.  Quadratic covariation is the jump-product sum; the
predictable covariation of two martingales is the compensator of their
bracket.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FiltrationMismatch,
    NotIncreasing,
    NotMartingale,
    NotPredictable,
)
from .finite_space import (
    EXACT_TOL,
    AdaptedProcess,
    Filtration,
    as_point_process,
    conditional_expectation,
    is_adapted,
    is_predictable,
    positive_sup,
    rebind,
)


@dataclass(frozen=True)
class CompensatorPair:
    """Raw increasing process, its compensator, and the compensated martingale."""

    raw: AdaptedProcess
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
    space = filtration.space
    delta = p.increments()
    inc = np.zeros_like(delta)
    for t in range(1, filtration.horizon + 1):
        inc[:, t] = conditional_expectation(space, delta[:, t], filtration.at(t - 1))
    return AdaptedProcess(filtration, np.cumsum(inc, axis=1))


def compensator(a: AdaptedProcess, filtration: Filtration | None = None) -> CompensatorPair:
    """Doob decomposition of an adapted increasing process starting at 0."""
    if filtration is not None and filtration is not a.filtration:
        a = rebind(a, filtration)  # raises NotAdapted when it is not
    elif not is_adapted(a):
        from .errors import NotAdapted

        raise NotAdapted("input process is not adapted")
    if np.any(a.initial != 0.0):
        raise NotIncreasing("increasing processes must start at 0")
    if np.any(a.increments()[:, 1:] < 0.0):
        raise NotIncreasing("process has a negative increment")
    comp = dual_projection(a, a.filtration)
    mart = AdaptedProcess(a.filtration, a.values - comp.values)
    return CompensatorPair(raw=a, compensator=comp, martingale_part=mart)


def quadratic_covariation(y: AdaptedProcess, z: AdaptedProcess) -> AdaptedProcess:
    """[Y, Z]_t = sum_{s<=t} dY_s dZ_s (purely discontinuous paths)."""
    if y.filtration.partitions != z.filtration.partitions:
        raise FiltrationMismatch("bracket operands live on different filtrations")
    prod = y.increments() * z.increments()
    return AdaptedProcess(y.filtration, np.cumsum(prod, axis=1))


def predictable_covariation(y: AdaptedProcess, z: AdaptedProcess) -> AdaptedProcess:
    """<Y, Z> = compensator of [Y, Z]; both inputs must be exact martingales."""
    for m in (y, z):
        check = is_martingale(m)
        if not check:
            raise NotMartingale(f"operand has drift {check.witness}")
    return dual_projection(quadratic_covariation(y, z), y.filtration)


def stochastic_integral(k: AdaptedProcess, m: AdaptedProcess) -> AdaptedProcess:
    """(K . M)_t = sum_{s<=t} K_s dM_s for predictable K."""
    if k.filtration.partitions != m.filtration.partitions:
        raise FiltrationMismatch("integrand and integrator on different filtrations")
    if not is_predictable(k):
        raise NotPredictable("integrand must be predictable")
    vals = np.zeros_like(m.values)
    vals[:, 1:] = np.cumsum(k.values[:, 1:] * m.increments()[:, 1:], axis=1)
    return AdaptedProcess(m.filtration, vals)


def is_martingale(
    m: AdaptedProcess, filtration: Filtration | None = None, tol: float = EXACT_TOL
) -> MartingaleCheck:
    """Exact one-step drift test: E[dM_t | P_{t-1}] = 0 for all t >= 1."""
    filtration = filtration or m.filtration
    delta = m.increments()
    for t in range(1, filtration.horizon + 1):
        previous = filtration.at(t - 1)
        drift = conditional_expectation(filtration.space, delta[:, t], previous)
        bad = np.flatnonzero(np.abs(drift) > tol)
        if bad.size:
            # blocks are ordered by first atom: the first bad atom lies in the first bad block
            atom = bad[0]
            return MartingaleCheck(False, (t, int(previous.block_of[atom]), float(drift[atom])))
    return MartingaleCheck(True, None)


@dataclass(frozen=True)
class OrthogonalityReport:
    """Orthogonality diagnostics for a pair of counting processes.

    ``is_orthogonal`` holds iff the compensator of the compensated bracket
    vanishes, equivalently iff the bracket of the raw pair compensates to the
    bracket of the compensators.
    """

    bracket_raw: AdaptedProcess
    bracket_compensators: AdaptedProcess
    bracket_bar: AdaptedProcess
    is_orthogonal: bool
    #: (time, atom) of the first nonzero compensated-bracket drift
    witness: tuple[int, int] | None
    clauses: dict = field(default_factory=dict)
    jumps_disjoint: bool = False
    #: sup over atoms/times of the bracket decomposition identity residual
    decomposition_gap: float = 0.0


def orthogonality_report(
    y: AdaptedProcess, z: AdaptedProcess, tol: float = EXACT_TOL
) -> OrthogonalityReport:
    """Evaluate the orthogonality toolkit for two counting processes.

    Clauses reported:
      * ``increasing_brackets``: [Y^p,Z], [Y,Z^p], [Y^p,Z^p] are increasing
        and finite;
      * ``associated``: both mixed brackets compensate to [Y^p,Z^p];
      * ``martingale_iff_match``: the compensated bracket is a martingale
        exactly when [Y,Z]^p equals [Y^p,Z^p];
      * under disjoint jumps additionally ``disjoint_zero`` and
        ``disjoint_predictable`` (bracket martingale iff it vanishes iff the
        compensators never jump together).
    """
    y = as_point_process(y)
    z = as_point_process(z)
    if y.filtration.partitions != z.filtration.partitions:
        raise FiltrationMismatch("pair must share one filtration")
    filt = y.filtration
    space = filt.space
    pos = space.positive

    yp = dual_projection(y, filt)
    zp = dual_projection(z, filt)
    ybar = AdaptedProcess(filt, y.values - yp.values)
    zbar = AdaptedProcess(filt, z.values - zp.values)

    b_yz = quadratic_covariation(y, z)
    b_yp_z = quadratic_covariation(yp, z)
    b_y_zp = quadratic_covariation(y, zp)
    b_pp = quadratic_covariation(yp, zp)
    b_bar = quadratic_covariation(ybar, zbar)

    clauses: dict = {}
    clauses["increasing_brackets"] = all(
        np.all(b.increments()[pos] >= 0.0) and np.all(np.isfinite(b.values))
        for b in (b_yp_z, b_y_zp, b_pp)
    )
    clauses["associated"] = (
        positive_sup(space, dual_projection(b_yp_z, filt).values - b_pp.values) <= tol
        and positive_sup(space, dual_projection(b_y_zp, filt).values - b_pp.values) <= tol
    )

    compensators_match = (
        positive_sup(space, dual_projection(b_yz, filt).values - b_pp.values) <= tol
    )
    bar_martingale = bool(is_martingale(b_bar, tol=tol))
    clauses["martingale_iff_match"] = bar_martingale == compensators_match

    disjoint = positive_sup(space, y.increments() * z.increments()) <= tol
    if disjoint:
        clauses["disjoint_zero"] = bar_martingale == (positive_sup(space, b_bar.values) <= tol)
        clauses["disjoint_predictable"] = bar_martingale == (
            positive_sup(space, yp.increments() * zp.increments()) <= tol
        )

    identity = b_yz.values - b_yp_z.values - b_y_zp.values + b_pp.values
    decomposition_gap = positive_sup(space, b_bar.values - identity)

    bar_comp = dual_projection(b_bar, filt)
    inc = bar_comp.increments()
    witness = None
    mask = (np.abs(inc) > tol) & pos[:, None]
    if mask.any():
        t, atom = np.argwhere(mask.T)[0]  # earliest time, then lowest atom
        witness = (int(t), int(atom))

    return OrthogonalityReport(
        bracket_raw=b_yz,
        bracket_compensators=b_pp,
        bracket_bar=b_bar,
        is_orthogonal=witness is None,
        witness=witness,
        clauses=clauses,
        jumps_disjoint=disjoint,
        decomposition_gap=decomposition_gap,
    )
