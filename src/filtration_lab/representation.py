"""Representation solvers: nodewise least squares on the filtration tree.

Every martingale's one-step increment, restricted to a node (a time t and a
block of P_{t-1}), is a centered function of the node's children.  Solving a
representation problem therefore reduces to a weighted least-squares fit per
node; when the reference martingales span the centered child space the
residual is zero to float precision, so the residual doubles as a
certificate.  Degenerate nodes get the minimum-norm solution (singular-value
cutoff 1e-12), which puts 0 on zero-variance regressors.

One kernel serves every solver: per node it forms the weighted design's
pseudo-inverse once and applies it to a whole stack of targets.
:func:`solve_batch` is the batch entry point; ``solve_prp``, ``solve_wrp``,
``solve_triple``, ``solve_in_basis`` and ``independent_decomposition`` solve
one target through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import FiltrationMismatch, IndependenceViolated, NotMartingale, NotPredictable
from .calculus import (
    compensator,
    dual_projection,
    is_martingale,
    quadratic_covariation,
    stochastic_integral,
)
from .enlargement import EnlargementBundle
from .finite_space import (
    EXACT_TOL,
    AdaptedProcess,
    Filtration,
    StoppingTime,
    conditional_expectation,
    positive_sup,
    predictable_violation,
    stop_process,
)
from .jump_measure import MARKS, MarkedMeasure, fundamental_martingales

#: relative singular-value cutoff for the nodewise least-squares solves
SV_CUTOFF = 1e-12
#: (atom, time) values per target chunk of a batched reconstruction
_CHUNK = 1 << 13


@dataclass(frozen=True)
class RepresentationSolution:
    """Integrands, reconstruction, and the residual certificate."""

    kind: str
    integrands: dict
    reconstruction: AdaptedProcess
    residual: AdaptedProcess
    residual_sup: float
    checks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchSolution:
    """Per target i: residual_sup[i]; if kept, integrands[regressor, i] and reconstructions[i]."""

    residual_sup: np.ndarray
    integrands: np.ndarray | None = None
    reconstructions: np.ndarray | None = None


def martingale_closure(xi, filtration: Filtration) -> AdaptedProcess:
    """The martingale Y_t = E[xi | P_t] closing a terminal variable."""
    return AdaptedProcess(filtration, martingale_closures(xi, filtration))


def martingale_closures(xis, filtration: Filtration) -> np.ndarray:
    """Values (k, n, T+1) of the martingales closing a stack of k terminal variables (k, n)."""
    vals = np.empty(np.shape(xis) + (filtration.horizon + 1,))
    for t, partition in enumerate(filtration.partitions):
        vals[..., t] = conditional_expectation(filtration.space, xis, partition)
    return vals


def _nodes(filtration: Filtration):
    """(t, block index, atoms) of every positive-mass node: a time t >= 1 and a block of P_{t-1}."""
    probs = filtration.space.probs
    for t in range(1, filtration.horizon + 1):
        for i, atoms in enumerate(filtration.at(t - 1).block_arrays):
            if float(probs[atoms].sum()) > 0.0:
                yield t, i, atoms


def _nodewise_solve(values: np.ndarray, regressors: np.ndarray, filtration: Filtration):
    """Weighted least squares of every target's increment against the regressors', per node.

    ``values`` is (k, n, T+1), ``regressors`` (r, n, T+1).  Returns each
    (atom, t)'s node (-1 at time 0 and on zero-mass nodes), the coefficients
    (r, k, nodes + 1) whose last column is 0, and the first target whose
    drift exceeds ``EXACT_TOL`` with its earliest (t, block, drift), or None.
    """
    probs = filtration.space.probs
    nodes = list(_nodes(filtration))
    node_of = np.full(values.shape[1:], -1)
    table = np.zeros((len(regressors), len(values), len(nodes) + 1))
    drift = np.zeros((len(values), len(nodes)))
    for node, (t, _, atoms) in enumerate(nodes):
        node_of[atoms, t] = node
        w = probs[atoms]
        dy = values[:, atoms, t]
        dy -= values[:, atoms, t - 1]
        drift[:, node] = dy @ w / float(w.sum())
        sw = np.sqrt(w)
        pinv = np.linalg.pinv(regressors[:, atoms, t].T * sw[:, None], rcond=SV_CUTOFF)
        table[:, :, node] = (pinv * sw) @ dy.T
    bad = np.abs(drift) > EXACT_TOL
    witness = None
    if bad.any():
        j = int(np.argmax(bad.any(axis=1)))
        node = int(np.argmax(bad[j]))
        witness = (j, nodes[node][:2] + (float(drift[j, node]),))
    return node_of, table, witness


def solve_batch(
    targets,
    regressors: Sequence[np.ndarray],
    filtration: Filtration,
    keep_integrands: bool = False,
    keep_reconstructions: bool = False,
) -> BatchSolution:
    """Represent a stack of martingales (k, n, T+1) against one family of regressor increments.

    Every target's drift is checked at ``EXACT_TOL`` (a failure names the first
    drifting target and its witness) and the integrands' predictability once
    per batch.  Reconstructions are built one regressor at a time, in chunks
    of targets, so that no (k, n, T+1) buffer beyond the kept ones is live.
    """
    values = np.asarray(targets, dtype=float)
    regs = np.stack(regressors) if len(regressors) else np.zeros((0,) + values.shape[1:])
    node_of, table, drifting = _nodewise_solve(values, regs, filtration)
    if drifting is not None:
        raise NotMartingale("target {} has nonzero drift at {}".format(*drifting))
    # every integrand is a function of the node index, so checking it covers them all
    bad = predictable_violation(node_of, filtration)
    if bad is not None:
        raise NotPredictable(f"integrand is not predictable at (t, block) = {bad}")

    pos = filtration.space.positive
    residual_sup = np.empty(len(values))
    recons = np.empty_like(values) if keep_reconstructions else None
    step = max(1, _CHUNK // node_of.size)
    for lo in range(0, len(values), step):
        chunk = slice(lo, lo + step)
        recon = np.repeat(values[chunk, :, :1], node_of.shape[1], axis=-1)
        for c, d in zip(table, regs):
            part = c[chunk, node_of]
            part *= d
            recon += np.cumsum(part, axis=-1, out=part)
        residual_sup[chunk] = np.abs(values[chunk] - recon).max(axis=-1)[:, pos].max(axis=1)
        if recons is not None:
            recons[chunk] = recon
    integrands = table[:, :, node_of] if keep_integrands else None
    return BatchSolution(residual_sup, integrands, recons)


def _require_martingale(m: AdaptedProcess, label: str) -> None:
    check = is_martingale(m)
    if not check:
        raise NotMartingale(f"{label} has nonzero drift at {check.witness}")


def _solve_one(kind, names, y, regressors, filtration, batch=None, checks=None):
    """One target as a RepresentationSolution, solved here unless its ``batch`` is given."""
    if batch is None:
        batch = solve_batch(y.values[None], regressors, filtration, keep_integrands=True,
                            keep_reconstructions=True)
    recon = AdaptedProcess(filtration, batch.reconstructions[0])
    residual = AdaptedProcess(y.filtration, y.values - recon.values)
    integrands = dict(zip(names, batch.integrands[:, 0]))
    sup = float(batch.residual_sup[0])
    return RepresentationSolution(kind, integrands, recon, residual, sup, checks or {})


def wrp_regressors(mu: MarkedMeasure, nu: MarkedMeasure) -> list[np.ndarray]:
    """Increments of the compensated jump measure, one matrix per mark."""
    return [mu.indicator_increments(mark) - nu.indicator_increments(mark) for mark in MARKS]


def triple_regressors(z1, z2, z3, stop_at: StoppingTime | None = None) -> list[np.ndarray]:
    """Increments of the three compensated jump parts, Z1 stopped at ``stop_at`` if given."""
    first = z1 if stop_at is None else stop_process(z1, stop_at)
    return [first.increments(), z2.increments(), z3.increments()]


def solve_prp(
    y: AdaptedProcess, m: AdaptedProcess, filtration: Filtration | None = None
) -> RepresentationSolution:
    """Represent Y against a single reference martingale M.

    Exactly solvable when every node branches two ways (a single counting
    source); the residual is the certificate either way.
    """
    _require_martingale(m, "reference martingale")
    return _solve_one("prp", ("K",), y, [m.increments()], filtration or y.filtration)


def solve_wrp(
    y: AdaptedProcess, mu: MarkedMeasure, nu: MarkedMeasure, filtration: Filtration | None = None
) -> RepresentationSolution:
    """Represent Y as an integral against the compensated jump measure."""
    filtration = filtration or mu.filtration
    if y.filtration.partitions != filtration.partitions:
        raise FiltrationMismatch("target is not carried by the measure's filtration")
    names = [f"W{mark.value}" for mark in MARKS]
    return _solve_one("wrp", names, y, wrp_regressors(mu, nu), filtration)


def solve_triple(
    y: AdaptedProcess,
    z1: AdaptedProcess,
    z2: AdaptedProcess,
    z3: AdaptedProcess,
    stop_at: StoppingTime | None = None,
) -> RepresentationSolution:
    """Represent Y against the three compensated jump-part martingales.

    With ``stop_at`` given, represents the stopped target against
    (Z1 stopped, Z2, Z3); past the stop every increment vanishes so the
    solve restricts itself to the pre-stop nodes.
    """
    regs = triple_regressors(z1, z2, z3, stop_at)
    if stop_at is None:
        return _solve_one("triple", ("K1", "K2", "K3"), y, regs, y.filtration)
    return _solve_one("triple_stopped", ("K1", "K2", "K3"), stop_process(y, stop_at), regs, y.filtration)


def solve_in_basis(
    y: AdaptedProcess, martingales: Sequence[AdaptedProcess], kind: str = "basis"
) -> RepresentationSolution:
    """Represent Y against an arbitrary martingale family."""
    names = [f"K{i + 1}" for i in range(len(martingales))]
    return _solve_one(kind, names, y, [m.increments() for m in martingales], y.filtration)


def verify_independence(bundle: EnlargementBundle, tol: float = 1e-9) -> None:
    """Product rule for every pair of blocks of the two filtrations, all times."""
    for t, (f, h) in enumerate(zip(bundle.f.partitions, bundle.h_filtration.partitions)):
        joint = np.zeros((f.n_blocks, h.n_blocks))
        np.add.at(joint, (f.block_of, h.block_of), bundle.space.probs)
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        bad = np.argwhere(np.abs(joint - product) > tol)
        if bad.size:
            i, j = bad[0]
            raise IndependenceViolated(
                f"product rule fails at t={t}, F-block {i}, H-block {j}: "
                f"P(joint)={float(joint[i, j])!r} vs P(F-block)*P(H-block)={float(product[i, j])!r}"
            )


def independent_batch(
    targets, bundle: EnlargementBundle, tol: float = 1e-9, keep_reconstructions: bool = False
) -> tuple[BatchSolution, dict]:
    """Orthogonal representation of stacked targets against (compensated X, compensated H, bracket).

    Requires the two component filtrations to be independent (verified by the
    product rule); ``targets`` are (k, n, T+1) value matrices on ``bundle.g``.
    Returns the batch, integrands kept, and its checks: the orthogonality of
    the basis, the change-of-basis identities against the three compensated
    jump parts and the bracket-compensator factorisation (one value each, as
    the basis does not depend on the target), and the Pythagoras identity of
    the squared terminal norms (one value per target).
    """
    verify_independence(bundle, tol)
    filtration = bundle.g
    x_pair = compensator(bundle.X)
    h_pair = compensator(bundle.H)
    xbar = x_pair.martingale_part
    hbar = h_pair.martingale_part
    cross = quadratic_covariation(xbar, hbar)
    _require_martingale(cross, "bracket of the compensated pair")

    basis = [xbar, hbar, cross]
    deltas = [b.increments() for b in basis]
    batch = solve_batch(
        targets,
        deltas,
        filtration,
        keep_integrands=True,
        keep_reconstructions=keep_reconstructions,
    )

    space = bundle.space

    # pairwise predictable covariations of the basis
    orth_gap = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            bracket = quadratic_covariation(basis[i], basis[j])
            orth_gap = max(orth_gap, dual_projection(bracket, filtration).sup_abs())

    # change of basis: each compensated jump part against the orthogonal
    # basis; the joint part picks up both predictable densities, the single
    # parts are the compensated processes minus the joint part
    z1, z2, z3 = fundamental_martingales(bundle.X, bundle.H)
    dxp = AdaptedProcess(filtration, x_pair.compensator.increments())
    dhp = AdaptedProcess(filtration, h_pair.compensator.increments())
    z3_rhs = cross.values + stochastic_integral(dxp, hbar).values + stochastic_integral(dhp, xbar).values
    z1_rhs = xbar.values - z3_rhs
    z2_rhs = hbar.values - z3_rhs
    basis_identity_gap = max(
        positive_sup(space, z.values - rhs) for z, rhs in ((z1, z1_rhs), (z2, z2_rhs), (z3, z3_rhs))
    )

    # bracket compensator factorisation: [X,H]^p = [X^p, H^p]
    bracket_xh = quadratic_covariation(bundle.X, bundle.H)
    factor_gap = positive_sup(
        space,
        dual_projection(bracket_xh, filtration).values
        - quadratic_covariation(x_pair.compensator, h_pair.compensator).values,
    )

    # Pythagoras: squared terminal norm splits across the orthogonal parts
    values = np.asarray(targets, dtype=float)
    probs = space.probs
    total = (values[..., -1] - values[..., 0]) ** 2 @ probs
    split = sum(
        np.cumsum(k * d, axis=-1)[..., -1] ** 2 @ probs for k, d in zip(batch.integrands, deltas)
    )

    checks = {
        "basis_orthogonality_gap": orth_gap,
        "basis_identity_gap": basis_identity_gap,
        "bracket_factorisation_gap": factor_gap,
        "pythagoras_gap": np.abs(total - split),
    }
    return batch, checks


def independent_decomposition(
    y: AdaptedProcess, bundle: EnlargementBundle, tol: float = 1e-9
) -> RepresentationSolution:
    """One target through :func:`independent_batch`; its checks hold plain floats."""
    if y.filtration.partitions != bundle.g.partitions:
        raise FiltrationMismatch("target is not carried by the enlarged filtration")
    batch, checks = independent_batch(y.values[None], bundle, tol, keep_reconstructions=True)
    checks["pythagoras_gap"] = float(checks["pythagoras_gap"][0])
    return _solve_one("independent", ("K1", "K2", "K3"), y, None, bundle.g, batch=batch, checks=checks)


def _positive_children(filtration: Filtration, t: int, atoms: np.ndarray):
    """Positive-probability child blocks of one node, as atom arrays."""
    child_of = filtration.at(t).block_of[atoms]
    children = (atoms[child_of == c] for c in np.unique(child_of))
    return [c for c in children if float(filtration.space.probs[c].sum()) > 0.0]


def multiplicity(filtration: Filtration) -> int:
    """Spanning number of the tree: max positive-probability branching minus one."""
    branching = (len(_positive_children(filtration, t, atoms)) for t, _, atoms in _nodes(filtration))
    return max(branching, default=1) - 1


def orthogonal_spanning_martingales(filtration: Filtration) -> list[AdaptedProcess]:
    """Per-node Gram-Schmidt construction of a minimal orthogonal spanning family.

    At each node the centered indicators of all but one child are
    orthonormalised under the conditional inner product; martingale i picks
    up the i-th basis vector (or 0 when the node branches less).  The family
    has size ``multiplicity(filtration)``, is pairwise orthogonal, and spans
    every martingale nodewise.
    """
    m = multiplicity(filtration)
    probs = filtration.space.probs
    n = filtration.space.n_atoms
    width = filtration.horizon + 1
    incs = [np.zeros((n, width)) for _ in range(m)]
    for t, _, atoms in _nodes(filtration):
        mass = float(probs[atoms].sum())
        children = _positive_children(filtration, t, atoms)
        k = len(children)
        if k > 1:
            weights = np.array([float(probs[c].sum()) / mass for c in children])
            vectors = []
            for j in range(k - 1):
                v = np.full(k, -weights[j])  # centered indicator of child j
                v[j] += 1.0
                for e in vectors:
                    v = v - float((weights * v) @ e) * e
                norm = float(np.sqrt((weights * v) @ v))
                if norm > SV_CUTOFF:
                    vectors.append(v / norm)
            for i, e in enumerate(vectors):
                for c, child in enumerate(children):
                    incs[i][child, t] = e[c]
    return [AdaptedProcess(filtration, np.cumsum(inc, axis=1)) for inc in incs]
