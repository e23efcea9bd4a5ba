"""Representation solvers: nodewise least squares on the filtration tree.

Every martingale's one-step increment, restricted to a node (a time t and a
block of P_{t-1}), is a centered function of the node's children.  Solving a
representation problem therefore reduces to a weighted least-squares fit per
node; when the reference martingales span the centered child space the
residual is zero to float precision, so the residual doubles as a
certificate.  Degenerate nodes get the minimum-norm solution (singular-value
cutoff 1e-12), which puts 0 on zero-variance regressors.

The nodes are the blocks of the filtration's lag-1 cell union, and one kernel
serves every solver: per block size, over the whole horizon, it forms one
stacked pseudo-inverse of the nodes' weighted designs and applies it to a
whole stack of targets.  A regressor family is factored once per filtration:
the filtration keeps each family's factors, keyed on the regressors' bytes
and the cutoff, so solving the same family again reuses them, with the same
bits.  :func:`solve_batch` is the one entry point, with one code path: it
always returns the residuals and reconstructions, and gathers the
integrands on first read.  ``solve_prp``, ``solve_wrp``, ``solve_triple``,
``solve_in_basis`` and ``independent_decomposition`` each solve a batch of
one target and read its target 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import FiltrationMismatch, IndependenceViolated, NotMartingale, NotPredictable
from .calculus import (
    compensators,
    dual_projections,
    martingale_checks,
    quadratic_covariation,
    require_martingale,
    stochastic_integral,
)
from .enlargement import EnlargementBundle
from .finite_space import (
    EXACT_TOL,
    AdaptedProcess,
    Filtration,
    StoppingTime,
    max_gap,
    positive_sup,
    positive_sups,
    running_sums,
    slice_expectations,
    slice_violation,
    stop_process,
    time_increments,
)
from .jump_measure import MARKS, MarkedMeasure, fundamental_martingales

#: relative singular-value cutoff for the nodewise least-squares solves
SV_CUTOFF = 1e-12
#: regressor families whose nodewise factors a filtration keeps, the oldest dropped first
_FACTORS = 16
#: (atom, time) values per chunk of a stack of (n, T+1) entries (the Thm 3.3 check's functions)
_CHUNK = 1 << 14


@dataclass(frozen=True)
class RepresentationSolution:
    """Integrands, reconstruction, and the residual certificate."""

    integrands: dict
    reconstruction: AdaptedProcess
    residual_sup: float
    checks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchSolution:
    """Per target i: residual_sup[i], reconstructions[i] and integrands[regressor, i].

    The integrands are the nodewise ``coefficients`` (r, k, nodes + 1) gathered through ``node_of``.
    """

    residual_sup: np.ndarray
    reconstructions: np.ndarray
    coefficients: np.ndarray
    node_of: np.ndarray

    @cached_property
    def integrands(self) -> np.ndarray:
        """(r, k, n, T+1): each target's integrands, gathered on first read."""
        return self.coefficients[:, :, self.node_of]


def martingale_closure(xi, filtration: Filtration) -> AdaptedProcess:
    """The martingale Y_t = E[xi | P_t] closing a terminal variable."""
    return AdaptedProcess(filtration, martingale_closures(xi, filtration))


def martingale_closures(xis, filtration: Filtration) -> np.ndarray:
    """Values (k, n, T+1) of the martingales closing a stack of k terminal variables (k, n)."""
    xis = np.asarray(xis, dtype=float)
    stack = np.broadcast_to(xis[..., None], xis.shape + (filtration.horizon + 1,))
    return slice_expectations(stack, filtration, 0)


def chunk_length(filtration: Filtration) -> int:
    """Entries of a stack of (n, T+1) matrices worked on at once: at most ``_CHUNK`` values, at least one entry."""
    return max(1, _CHUNK // (filtration.space.n_atoms * (filtration.horizon + 1)))


def _nodes(filtration: Filtration):
    """(t, mass, children) of every positive-mass node, by the lag-1 cell union's size groups.

    A node is a time t >= 1 and a block of P_{t-1}, the union's block of its cells (a, t);
    ``children`` are its positive-mass blocks of P_t as (atoms, mass), in block order,
    told apart by the lag-0 union's labels.
    """
    width = filtration.horizon + 1
    cells, union = filtration.cell_union(1)
    child_of = filtration.cell_union(0)[1].block_of
    for nodes, _, _ in union.size_groups(cells):
        for node, labels in zip(nodes, child_of[nodes]):
            atoms = node // width
            w = filtration.space.probs[atoms]
            masks = [labels == label for label in dict.fromkeys(labels.tolist())]
            children = [(atoms[mask], float(w[mask].sum())) for mask in masks]
            yield int(node[0] % width), float(w.sum()), [child for child in children if child[1] > 0.0]


def _nodewise_solve(values: np.ndarray, regressors: np.ndarray, filtration: Filtration):
    """Weighted least squares of every target's increment against the regressors', per node.

    ``values`` is (k, n, T+1), ``regressors`` (r, n, T+1).  The nodes are the
    lag-1 cell union's blocks, and its G nodes of one size m, over the whole
    horizon, are solved as one stack of (m, r) designs weighted by the atoms'
    own probabilities, through the family's factors (:func:`_factors`).
    Returns each (atom, t)'s node, the union's spread (time 0 and zero-mass
    nodes get the last column), and the coefficients (r, k, nodes + 1) whose
    last column is 0.
    """
    space = filtration.space
    if space.null_atoms:
        # weight 0 does not silence a NaN or an inf, so a null atom's increment is dropped
        values = np.where(space.positive[:, None], values, 0.0)
    cells, union = filtration.cell_union(1)
    groups, spread, _ = union._table(cells)
    dys = time_increments(values).reshape(len(values), cells.n_atoms)
    factors = _factors(regressors.reshape(len(regressors), cells.n_atoms), filtration)
    coefs = []
    for factor, (nodes, _, _) in zip(factors, groups):
        # (G, m, k) with each node's (m, k) block row-major: matmul's rounding depends on the
        # layout, and this one gives every node the bits of a solve of that node alone
        coefs.append(factor @ np.ascontiguousarray(dys[:, nodes].transpose(1, 2, 0)))
    coefs.append(np.zeros((1, len(regressors), len(values))))
    return spread.reshape(values.shape[1:]), np.concatenate(coefs).transpose(1, 2, 0)


def _factors(regs: np.ndarray, filtration: Filtration) -> list:
    """Each lag-1 size group's factor ``pinv(design sqrt(w)) sqrt(w)`` (G, r, m) of the (r, n(T+1)) regressors.

    The filtration keeps the factors of its last ``_FACTORS`` families, keyed
    on the regressors' dtype, shape and bytes and on ``SV_CUTOFF``: structure
    only, never targets or coefficients, so a hit is the factor a miss builds.
    """
    store = filtration.__dict__.setdefault("_factors", {})
    key = (regs.dtype.str, regs.shape, regs.tobytes(), SV_CUTOFF)
    if key not in store:
        if len(store) == _FACTORS:
            del store[next(iter(store))]
        store[key] = _factor(regs, filtration)
    return store[key]


def _factor(regs: np.ndarray, filtration: Filtration) -> list:
    """:func:`_factors`, built: one stacked ``np.linalg.pinv`` per size group, all frozen."""
    space, width = filtration.space, filtration.horizon + 1
    cells, union = filtration.cell_union(1)
    factors = []
    for nodes, _, _ in union.size_groups(cells):
        sw = np.sqrt(space.probs[nodes // width])
        pinv = np.linalg.pinv(regs[:, nodes].transpose(1, 2, 0) * sw[..., None], rcond=SV_CUTOFF)
        factor = pinv * sw[:, None]
        factor.setflags(write=False)
        factors.append(factor)
    return factors


def solve_batch(targets, regressors: Sequence[np.ndarray], filtration: Filtration) -> BatchSolution:
    """Represent a stack of martingales (k, n, T+1) against one family of regressor increments.

    Every target's drift is checked by :func:`martingale_checks` (a failure
    names the first drifting target and the witness ``is_martingale`` gives
    for it) and the integrands' predictability once per batch.
    Reconstructions are built one time slice at a time, for all targets at
    once: each regressor's integral is one running (k, n) slice, added in the
    order ``np.cumsum`` adds, and the targets' residuals are the running max
    of their slices' gaps.
    """
    values = np.asarray(targets, dtype=float)
    regs = np.stack(regressors) if len(regressors) else np.zeros((0,) + values.shape[1:])
    for j, check in enumerate(martingale_checks(values, filtration)):
        if not check:
            raise NotMartingale(f"target {j} has nonzero drift at {check.witness}")
    node_of, table = _nodewise_solve(values, regs, filtration)
    # every integrand is a function of the node index, so checking it covers them all
    bad = slice_violation(node_of, filtration, 1)
    if bad is not None:
        raise NotPredictable(f"integrand is not predictable at (t, block) = {bad}")

    residual_sup = np.zeros(len(values))
    recons = np.empty_like(values)
    running = [None] * len(regs)
    for t in range(values.shape[-1]):
        recon = values[:, :, 0].copy()
        for j, (c, d) in enumerate(zip(table, regs)):
            part = np.take(c, node_of[:, t], axis=1)
            part *= d[:, t]
            # slice 0 is the part itself, not 0 + part, which would turn a -0.0 into 0.0
            running[j] = part if t == 0 else np.add(running[j], part, out=running[j])
            recon += running[j]
        gap = positive_sups(filtration.space, (values[:, :, t] - recon)[..., None])
        np.maximum(residual_sup, gap, out=residual_sup)
        recons[:, :, t] = recon
    return BatchSolution(residual_sup, recons, table, node_of)


def _lone_solution(names, batch: BatchSolution, filtration: Filtration, checks=None) -> RepresentationSolution:
    """Target 0 of ``batch`` as a RepresentationSolution, its integrands under ``names``."""
    recon = AdaptedProcess(filtration, batch.reconstructions[0])
    integrands = dict(zip(names, batch.integrands[:, 0]))
    return RepresentationSolution(integrands, recon, float(batch.residual_sup[0]), checks or {})


def wrp_regressors(mu: MarkedMeasure, nu: MarkedMeasure) -> list[np.ndarray]:
    """Increments of the compensated jump measure, one matrix per mark."""
    return [mu.indicator_increments(mark) - nu.indicator_increments(mark) for mark in MARKS]


def triple_regressors(z1, z2, z3, stop_at: StoppingTime | None = None) -> list[np.ndarray]:
    """Increments of the three compensated jump parts, Z1 stopped at ``stop_at`` if given."""
    first = z1 if stop_at is None else stop_process(z1, stop_at)
    return [first.increments(), z2.increments(), z3.increments()]


def solve_prp(y: AdaptedProcess, m: AdaptedProcess) -> RepresentationSolution:
    """Represent Y against a single reference martingale M.

    Exactly solvable when every node branches two ways (a single counting
    source); the residual is the certificate either way.
    """
    require_martingale(m, "reference martingale")
    batch = solve_batch(y.values[None], [m.increments()], y.filtration)
    return _lone_solution(("K",), batch, y.filtration)


def solve_wrp(
    y: AdaptedProcess, mu: MarkedMeasure, nu: MarkedMeasure
) -> RepresentationSolution:
    """Represent Y as an integral against the compensated jump measure."""
    filtration = mu.filtration
    if y.filtration.partitions != filtration.partitions:
        raise FiltrationMismatch("target is not carried by the measure's filtration")
    names = [f"W{mark.value}" for mark in MARKS]
    batch = solve_batch(y.values[None], wrp_regressors(mu, nu), filtration)
    return _lone_solution(names, batch, filtration)


def solve_triple(
    y: AdaptedProcess, z1: AdaptedProcess, z2: AdaptedProcess, z3: AdaptedProcess
) -> RepresentationSolution:
    """Represent Y against the three compensated jump-part martingales."""
    batch = solve_batch(y.values[None], triple_regressors(z1, z2, z3), y.filtration)
    return _lone_solution(("K1", "K2", "K3"), batch, y.filtration)


def solve_in_basis(
    y: AdaptedProcess, martingales: Sequence[AdaptedProcess]
) -> RepresentationSolution:
    """Represent Y against an arbitrary martingale family."""
    names = [f"K{i + 1}" for i in range(len(martingales))]
    batch = solve_batch(y.values[None], [m.increments() for m in martingales], y.filtration)
    return _lone_solution(names, batch, y.filtration)


def verify_independence(bundle: EnlargementBundle) -> None:
    """Product rule, to ``EXACT_TOL``, for every pair of blocks of the two filtrations, all times."""
    for t, (f, h) in enumerate(zip(bundle.f.partitions, bundle.h_filtration.partitions)):
        joint = np.zeros((f.n_blocks, h.n_blocks))
        np.add.at(joint, (f.block_of, h.block_of), bundle.space.probs)
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        bad = np.argwhere(np.abs(joint - product) > EXACT_TOL)
        if bad.size:
            i, j = bad[0]
            raise IndependenceViolated(
                f"product rule fails at t={t}, F-block {i}, H-block {j}: "
                f"P(joint)={float(joint[i, j])!r} vs P(F-block)*P(H-block)={float(product[i, j])!r}"
            )


def independent_batch(targets, bundle: EnlargementBundle, zs=None) -> tuple[BatchSolution, dict]:
    """Orthogonal representation of stacked targets against (compensated X, compensated H, bracket).

    Requires the two component filtrations to be independent (verified by the
    product rule); ``targets`` are (k, n, T+1) value matrices on ``bundle.g``,
    and ``zs`` the bundle's fundamental martingales if the caller holds them
    (built from X and H if not).
    Returns the batch and its checks: the orthogonality of
    the basis, the change-of-basis identities against the three compensated
    jump parts and the bracket-compensator factorisation (one value each, as
    the basis does not depend on the target), and the Pythagoras identity of
    the squared terminal norms (one value per target).
    """
    verify_independence(bundle)
    filtration = bundle.g
    xh = np.stack([bundle.X.values, bundle.H.values])
    comps = compensators(xh, filtration)
    dxp, dhp = (AdaptedProcess(filtration, d) for d in time_increments(comps))
    xbar, hbar = (AdaptedProcess(filtration, v) for v in xh - comps)
    cross = quadratic_covariation(xbar, hbar)
    require_martingale(cross, "bracket of the compensated pair")

    basis = [xbar, hbar, cross]
    deltas = [b.increments() for b in basis]
    batch = solve_batch(targets, deltas, filtration)

    space = bundle.space

    # pairwise predictable covariations of the basis, and the bracket
    # compensator factorisation [X,H]^p = [X^p, H^p]
    brackets = [quadratic_covariation(a, b).values for i, a in enumerate(basis) for b in basis[i + 1 :]]
    brackets.append(quadratic_covariation(bundle.X, bundle.H).values)
    projected = dual_projections(brackets, filtration)
    orth_gap = max_gap(positive_sups(space, projected[:3]))
    factor_gap = positive_sup(space, projected[3] - running_sums(dxp.values * dhp.values))

    # change of basis: each compensated jump part against the orthogonal
    # basis; the joint part picks up both predictable densities, the single
    # parts are the compensated processes minus the joint part
    z1, z2, z3 = fundamental_martingales(bundle.X, bundle.H) if zs is None else zs
    z3_rhs = cross.values + stochastic_integral(dxp, hbar).values + stochastic_integral(dhp, xbar).values
    z1_rhs = xbar.values - z3_rhs
    z2_rhs = hbar.values - z3_rhs
    basis_identity_gap = max_gap(
        [positive_sup(space, z.values - rhs) for z, rhs in ((z1, z1_rhs), (z2, z2_rhs), (z3, z3_rhs))]
    )

    # Pythagoras: squared terminal norm splits across the orthogonal parts
    values = np.asarray(targets, dtype=float)
    probs = space.probs
    total = (values[..., -1] - values[..., 0]) ** 2 @ probs
    split = sum(
        running_sums(k * d)[..., -1] ** 2 @ probs for k, d in zip(batch.integrands, deltas)
    )

    checks = {
        "basis_orthogonality_gap": orth_gap,
        "basis_identity_gap": basis_identity_gap,
        "bracket_factorisation_gap": factor_gap,
        "pythagoras_gap": np.abs(total - split),
    }
    return batch, checks


def independent_decomposition(
    y: AdaptedProcess, bundle: EnlargementBundle, zs=None
) -> RepresentationSolution:
    """One target through :func:`independent_batch`; its checks hold plain floats."""
    if y.filtration.partitions != bundle.g.partitions:
        raise FiltrationMismatch("target is not carried by the enlarged filtration")
    batch, checks = independent_batch(y.values[None], bundle, zs)
    checks["pythagoras_gap"] = float(checks["pythagoras_gap"][0])
    return _lone_solution(("K1", "K2", "K3"), batch, bundle.g, checks)


def multiplicity(filtration: Filtration) -> int:
    """Spanning number of the tree: max positive-probability branching minus one."""
    return int(spanning_numbers(filtration, [0])[0])


def spanning_numbers(filtration: Filtration, starts) -> np.ndarray:
    """The spanning number of each segment of atoms: its nodes' max positive-probability branching minus one.

    Segment i is the atoms from ``starts[i]`` up to the next start (the last
    runs to n); a node counts in the segment of its first positive child's
    first atom, and a segment with no node gets 0.  On a disjoint union whose
    initial sigma-field separates the segments, segment i's number is its
    pair's alone; the union's own maximum would hide a pair whose number is off.

    One array pass per size group of the lag-1 cell union (the nodes of
    :func:`_nodes`), whose children are lag-0 union blocks: each positive-mass
    child counts at its first cell, and a node's first such cell names its segment.
    """
    width = filtration.horizon + 1
    cells, union = filtration.cell_union(1)
    children = filtration.cell_union(0)[1]
    labels = children.block_of
    positive = np.zeros(children.n_blocks, dtype=bool)
    positive[labels.reshape(-1, width)[filtration.space.positive]] = True
    # labels number the children by first cell, so a child's first cell is where their running max steps up
    heads = (np.diff(np.maximum.accumulate(labels), prepend=-1) > 0) & positive[labels]
    out = np.zeros(len(starts), dtype=np.int64)
    for nodes, _, _ in union.size_groups(cells):
        head = heads[nodes]
        first = nodes[np.arange(len(nodes)), head.argmax(axis=1)] // width
        np.maximum.at(out, np.searchsorted(starts, first, side="right") - 1, head.sum(axis=1) - 1)
    return out


def orthogonal_spanning_martingales(filtration: Filtration) -> list[AdaptedProcess]:
    """Per-node Gram-Schmidt construction of a minimal orthogonal spanning family.

    At each node the centered indicators of all but one child are
    orthonormalised under the conditional inner product; martingale i picks
    up the i-th basis vector (or 0 when the node branches less).  The family
    has size ``multiplicity(filtration)``, is pairwise orthogonal, and spans
    every martingale nodewise.
    """
    size = multiplicity(filtration)
    incs = [np.zeros((filtration.space.n_atoms, filtration.horizon + 1)) for _ in range(size)]
    for t, mass, children in _nodes(filtration):
        k = len(children)
        if k > 1:
            weights = np.array([child_mass / mass for _, child_mass in children])
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
                for c, (child, _) in enumerate(children):
                    incs[i][child, t] = e[c]
    return [AdaptedProcess(filtration, running_sums(inc, out=inc)) for inc in incs]
