"""Shared test helpers: deliberately dumb brute-force oracles.

These recompute conditional expectations, compensators, drifts, block
constancy, stopping-time and independence checks, jump-measure events, the
one-function-at-a-time Thm 3.3 check, Monte Carlo paths sliced from one
stream prefix, random times and the per-path Monte Carlo reductions with
plain Python loops so the vectorised engine is always checked against an
independent path.  The lone random builders (one random pair, one random
time, one predictable draw) are the oracles of the power-of-four unions the
suites draw, and ``relabel``, ``split`` and ``null_lift`` are the layout
relations every solve must be invariant under.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from filtration_lab import fixtures

#: the builders ``fixtures.bundle_by_name`` knows
BY_NAME_FIXTURES = ("space_a", "fixture_a2", "staggered", "avoidance_trinomial", "dependent")
#: the named random-time fixtures
RANDOM_TIME_FIXTURES = (
    "two_step_independent_random_time",
    "announced_tau_random_time",
    "never_random_time",
    "copied_jump_random_time",
)


def oracle_conditional_expectation(probs, values, blocks):
    """Weighted block average over the block's positive atoms, by explicit summation."""
    probs = [float(p) for p in probs]
    values = [float(v) for v in values]
    out = [0.0] * len(probs)
    for block in blocks:
        mass = sum(probs[a] for a in block)
        if mass <= 0.0:
            continue
        avg = sum(probs[a] * values[a] for a in block if probs[a] > 0.0) / mass
        for a in block:
            out[a] = avg
    return np.array(out)


def oracle_first_seen_blocks(labels):
    """Atoms grouped by equal labels, each group ascending, groups in the order their labels are first seen."""
    groups = {}
    for atom, lab in enumerate(labels):
        groups.setdefault(lab, []).append(atom)
    return [tuple(g) for g in groups.values()]


def oracle_block_tables(probs, blocks):
    """``Partition.size_groups`` by a loop over the blocks.

    Per block size, in the order sizes first appear, the positive-mass blocks
    of that size: (atoms (G, m), probs (G, m), masses (G,)).
    """
    by_size = {}
    for block in blocks:
        atoms = np.array(block, dtype=np.int64)
        w = probs[atoms]
        mass = float(w.sum())
        if mass > 0.0:
            by_size.setdefault(len(block), []).append((atoms, w, mass))
    return [
        (np.stack([a for a, _, _ in g]), np.stack([w for _, w, _ in g]), np.array([m for *_, m in g]))
        for g in by_size.values()
    ]


def oracle_block_loop(space, values, partition):
    """The block average of one variable in its earlier form: ``v[atoms] @ w / mass`` per positive-mass block.

    A null atom's value is dropped first, as in the kernel; the dot product is
    NumPy's 1-d one, whose rounding every entry of a stack must keep.
    """
    v = np.where(space.positive, np.asarray(values, dtype=float), 0.0)
    out = np.zeros(space.n_atoms)
    for atoms in map(np.array, partition.blocks):
        w = space.probs[atoms]
        mass = float(w.sum())
        if mass > 0.0:
            out[atoms] = v[atoms] @ w / mass
    return out


def oracle_positive_sups(space, values, starts=(0,)):
    """Sup of |v| over each segment's positive-probability atoms and every time: ``(..., len(starts))``.

    A plain loop over each entry of a ``(..., n, T+1)`` stack: segment i is the
    atoms from ``starts[i]`` up to the next start; its sup starts at 0.0, skips
    every null atom and keeps the first NaN it meets.
    """
    v = np.asarray(values, dtype=float)
    bounds = [*starts, v.shape[-2]]
    out = np.zeros(v.shape[:-2] + (len(starts),))
    for entry in np.ndindex(v.shape[:-2]):
        for i in range(len(starts)):
            sup = 0.0
            for a in range(bounds[i], bounds[i + 1]):
                if space.probs[a] > 0.0:
                    for x in map(abs, v[entry + (a,)].tolist()):
                        if sup == sup and (x != x or x > sup):
                            sup = x
            out[entry + (i,)] = sup
    return out


def oracle_orthogonality_report(y, z):
    """A lone pair's one-segment ``orthogonality_segments`` in its earlier form: seven one-process projection passes.

    Each pass is the block loop of ``oracle_block_loop`` over every slice;
    brackets are running jump-product sums of processes built one at a time.
    """
    from filtration_lab.finite_space import EXACT_TOL, positive_sup, time_increments

    filt = y.filtration
    space = filt.space
    pos = space.positive

    def drift(values):
        inc = time_increments(values)
        out = np.zeros_like(inc)
        for t in range(1, filt.horizon + 1):
            out[:, t] = oracle_block_loop(space, inc[:, t], filt.at(t - 1))
        return out

    def projection(values):
        return np.cumsum(drift(values), axis=1)

    def bracket(a, b):
        return np.cumsum(time_increments(a) * time_increments(b), axis=1)

    yp, zp = projection(y.values), projection(z.values)
    b_yz, b_yp_z = bracket(y.values, z.values), bracket(yp, z.values)
    b_y_zp, b_pp = bracket(y.values, zp), bracket(yp, zp)
    b_bar = bracket(y.values - yp, z.values - zp)
    clauses = {
        "increasing_brackets": all(
            np.all(time_increments(b)[pos] >= 0.0) and np.all(np.isfinite(b)) for b in (b_yp_z, b_y_zp, b_pp)
        ),
        "associated": positive_sup(space, projection(b_yp_z) - b_pp) <= EXACT_TOL
        and positive_sup(space, projection(b_y_zp) - b_pp) <= EXACT_TOL,
    }
    compensators_match = positive_sup(space, projection(b_yz) - b_pp) <= EXACT_TOL
    bar_martingale = bool(np.all(np.abs(drift(b_bar)) <= EXACT_TOL))
    clauses["martingale_iff_match"] = bar_martingale == compensators_match
    jump_product = time_increments(yp) * time_increments(zp)
    disjoint = positive_sup(space, time_increments(y.values) * time_increments(z.values)) <= EXACT_TOL
    if disjoint:
        clauses["disjoint_zero"] = bar_martingale == (positive_sup(space, b_bar) <= EXACT_TOL)
        clauses["disjoint_predictable"] = bar_martingale == (positive_sup(space, jump_product) <= EXACT_TOL)
    identity = b_yz - b_yp_z - b_y_zp + b_pp
    mask = (np.abs(time_increments(projection(b_bar))) > EXACT_TOL) & pos[:, None]
    witness = tuple(int(i) for i in np.argwhere(mask.T)[0]) if mask.any() else None
    return {
        "bracket_compensators": b_pp,
        "bracket_bar": b_bar,
        "is_orthogonal": witness is None,
        "witness": witness,
        "predictable_jump_product": jump_product,
        "clauses": clauses,
        "jumps_disjoint": disjoint,
        "decomposition_gap": positive_sup(space, b_bar - identity),
    }


def oracle_compensator(probs, partitions, values):
    """Cumulative one-step conditional increments, all loops."""
    values = np.asarray(values, dtype=float)
    n, width = values.shape
    out = np.zeros((n, width))
    for t in range(1, width):
        delta = values[:, t] - values[:, t - 1]
        step = oracle_conditional_expectation(probs, delta, partitions[t - 1].blocks)
        out[:, t] = out[:, t - 1] + step
    return out


def oracle_max_drift(probs, partitions, values):
    """Largest one-step conditional drift over all nodes."""
    values = np.asarray(values, dtype=float)
    worst = 0.0
    for t in range(1, values.shape[1]):
        delta = values[:, t] - values[:, t - 1]
        for block in partitions[t - 1].blocks:
            mass = sum(float(probs[a]) for a in block)
            if mass <= 0.0:
                continue
            drift = sum(float(probs[a]) * float(delta[a]) for a in block) / mass
            worst = max(worst, abs(drift))
    return worst


def oracle_block_violation(column, blocks):
    """First block on which the column is not constant, by a loop over blocks."""
    for i, block in enumerate(blocks):
        col = np.asarray(column)[list(block)]
        if np.any(col != col[0]):
            return i
    return None


def oracle_drift_witness(probs, partitions, values, tol):
    """(t, block, drift) of the first one-step drift above tol or NaN, by a loop over blocks.

    A null atom's increment, even a NaN one, carries no weight.
    """
    values = np.asarray(values, dtype=float)
    for t in range(1, values.shape[1]):
        delta = np.where(probs > 0.0, values[:, t] - values[:, t - 1], 0.0)
        for i, block in enumerate(partitions[t - 1].blocks):
            atoms = np.array(block)
            mass = float(probs[atoms].sum())
            if mass <= 0.0:
                continue
            drift = float(probs[atoms] @ delta[atoms]) / mass
            if not abs(drift) <= tol:
                return (t, i, drift)
    return None


def oracle_stopping_violation(values, partitions):
    """(t, block) of the first block that {sigma <= t} cuts through, by a loop over blocks."""
    for t, partition in enumerate(partitions):
        for block in partition.blocks:
            marks = np.asarray(values)[list(block)] <= t
            if marks.any() and not marks.all():
                return (t, block)
    return None


def oracle_refines(fine, coarse):
    """True if every block of ``fine`` lies inside one block of ``coarse``."""
    if fine.n_atoms != coarse.n_atoms:
        return False
    return all(len({int(coarse.block_of[a]) for a in block}) == 1 for block in fine.blocks)


def oracle_independence_violation(probs, f_partitions, h_partitions, tol):
    """(t, F-block, H-block) of the first pair breaking the product rule, row-major per t."""
    for t, (f, h) in enumerate(zip(f_partitions, h_partitions)):
        for i, bf in enumerate(f.blocks):
            for j, bh in enumerate(h.blocks):
                pf = float(probs[list(bf)].sum())
                ph = float(probs[list(bh)].sum())
                joint = float(probs[np.intersect1d(bf, bh)].sum())
                if abs(joint - pf * ph) > tol:
                    return (t, i, j)
    return None


def oracle_natural_filtration(mats):
    """Per time t, blocks of atoms whose joint paths agree on [0, t], by grouping on the whole prefix."""
    n, width = np.shape(mats[0])
    slices = []
    for t in range(width):
        groups = {}
        for atom in range(n):
            prefix = tuple(tuple(float(x) for x in m[atom, : t + 1]) for m in mats)
            groups.setdefault(prefix, []).append(atom)
        slices.append(sorted(tuple(g) for g in groups.values()))
    return slices


def oracle_join(a, b):
    """Blocks of the common refinement: every non-empty intersection of a block of ``a`` with one of ``b``."""
    meets = (tuple(sorted(set(ba) & set(bb))) for ba in a.blocks for bb in b.blocks)
    return sorted(m for m in meets if m)


def oracle_first_jump_time(values, never):
    """Per atom, the first time its counting path reaches 1 (``never`` if it does not)."""
    reached = np.asarray(values) >= 1
    out = np.full(reached.shape[0], never, dtype=np.int64)
    for r, c in zip(*np.nonzero(reached)):
        if c < out[r]:
            out[r] = c
    return out


def random_bundle(rng, max_atoms=6, max_horizon=3):
    """One random (X, H) pair built alone: the oracle of ``fixtures.random_pair_unions``' pairs."""
    return random_pair_bundle(fixtures.random_pair_draw(rng, max_atoms, max_horizon), "random")


def random_pair_bundle(draw, name):
    """The bundle of one ``fixtures.random_pair_draw`` or ``fixtures.random_time_draw``, built alone."""
    from filtration_lab.enlargement import build_bundle
    from filtration_lab.finite_space import Partition, build_space

    probs, dx, dh, initial = draw
    initial = None if initial is None else Partition.from_labels(initial)
    paths = fixtures._paths_from_jumps
    return build_bundle(build_space(probs), paths(dx), paths(dh), initial=initial, name=name)


def random_random_time_bundle(rng):
    """A random time on a random space, built alone through ``random_time_bundle``: the oracle of
    ``fixtures.random_time_draw``, which draws the rng in the same order."""
    from filtration_lab.finite_space import NEVER, build_space
    from filtration_lab.random_time import random_time_bundle

    probs = fixtures.random_space_probs(rng)
    space = build_space(probs)
    n = space.n_atoms
    horizon = int(rng.integers(1, 4))
    dx = rng.integers(0, 2, (n, horizon))
    choices = np.arange(1, horizon + 1).tolist() + [NEVER]
    tau = np.array([choices[int(rng.integers(0, len(choices)))] for _ in range(n)], dtype=np.int64)
    return random_time_bundle(space, fixtures._paths_from_jumps(dx), tau, name="random")


def random_predictable_values(rng, filtration):
    """Block-constant values on P_{t-1} for t >= 1, zero at time 0: the count-1 ``fixtures.random_predictable_stack``."""
    return fixtures.random_predictable_stack(rng, filtration, 1)[0]


def oracle_random_predictable_values(rng, filtration):
    """One scalar normal draw per block of P_{t-1}, blocks in order, for t = 1..T."""
    vals = np.zeros((filtration.space.n_atoms, filtration.horizon + 1))
    for t in range(1, filtration.horizon + 1):
        for block in filtration.at(t - 1).blocks:
            vals[list(block), t] = rng.normal()
    return vals


def oracle_mark_split(bundle, mu, nu, rng, count):
    """Thm 3.3 one function W at a time: per W, the drift witness of W * (mu - nu) and its sup gap to sum_k W_k . Z_k.

    W's marks are drawn one after another by ``oracle_random_predictable_values``;
    every integral is a running sum over time, and the drift is the block loop
    of ``oracle_drift_witness``.
    """
    from filtration_lab.finite_space import EXACT_TOL
    from filtration_lab.jump_measure import MARKS, fundamental_martingales

    filt = bundle.g
    probs = filt.space.probs
    dz = [np.diff(z.values, axis=1, prepend=z.values[:, :1]) for z in fundamental_martingales(bundle.X, bundle.H)]

    def running_sum(steps):
        out = np.zeros_like(steps)
        for t in range(1, out.shape[1]):
            out[:, t] = out[:, t - 1] + steps[:, t]
        return out

    witnesses, gaps = [], []
    for _ in range(count):
        w = [oracle_random_predictable_values(rng, filt) for _ in MARKS]
        against_mu, against_nu = (
            running_sum(sum(wk * m.increments[k] for k, wk in enumerate(w))) for m in (mu, nu)
        )
        diff = against_mu - against_nu
        split = sum(running_sum(wk * d) for wk, d in zip(w, dz))
        witnesses.append(oracle_drift_witness(probs, filt.partitions, diff, EXACT_TOL))
        gaps.append(float(np.abs(diff - split)[probs > 0.0].max()))
    return witnesses, gaps


def oracle_supermartingale_gap(probs, partitions, azema):
    """Largest one-step rise E[A_t | P_{t-1}] - A_{t-1} over positive-mass blocks (at least 0)."""
    worst = 0.0
    for t in range(1, azema.shape[1]):
        for block in partitions[t - 1].blocks:
            atoms = np.array(block)
            mass = float(probs[atoms].sum())
            if mass <= 0.0:
                continue
            rise = float(probs[atoms] @ azema[atoms, t]) / mass - float(azema[atoms[0], t - 1])
            worst = max(worst, rise)
    return worst


def oracle_positive_children(probs, filtration):
    """Per node (t >= 1, positive-mass block of P_{t-1}): (t, node atoms, child blocks, child masses).

    The children are the positive-mass blocks of P_t inside the node, found by
    testing every block of P_t for containment, in block order.
    """
    out = []
    for t in range(1, filtration.horizon + 1):
        for node in filtration.at(t - 1).blocks:
            if sum(float(probs[a]) for a in node) <= 0.0:
                continue
            children, masses = [], []
            for block in filtration.at(t).blocks:
                mass = float(probs[list(block)].sum())
                if set(block) <= set(node) and mass > 0.0:
                    children.append(block)
                    masses.append(mass)
            out.append((t, node, children, masses))
    return out


def oracle_spanning_numbers(probs, filtration, starts):
    """Per segment of atoms, the max over :func:`oracle_positive_children`'s nodes of their children minus one.

    A node counts in the segment of its first child's first atom (children in
    block order, so the lowest first atom); a segment with no node gets 0.
    """
    out = [0] * len(starts)
    for _, _, children, _ in oracle_positive_children(probs, filtration):
        segment = max(i for i, start in enumerate(starts) if start <= children[0][0])
        out[segment] = max(out[segment], len(children) - 1)
    return out


def oracle_spanning_family(probs, filtration, cutoff):
    """Values of the orthogonal spanning family by Gram-Schmidt over :func:`oracle_positive_children`.

    At each node the centered indicators of all but the last child are
    orthonormalised under the child weights (a vector of norm at most
    ``cutoff`` is dropped); member i takes the i-th vector on the node.
    """
    nodes = oracle_positive_children(probs, filtration)
    incs = [np.zeros((len(probs), filtration.horizon + 1)) for _ in range(max(len(c) for _, _, c, _ in nodes) - 1)]
    for t, node, children, masses in nodes:
        mass = float(probs[list(node)].sum())
        weights = np.array([child_mass / mass for child_mass in masses])
        vectors = []
        for j in range(len(children) - 1):
            v = np.full(len(children), -weights[j])
            v[j] += 1.0
            for e in vectors:
                v = v - float((weights * v) @ e) * e
            norm = float(np.sqrt((weights * v) @ v))
            if norm > cutoff:
                vectors.append(v / norm)
        for i, e in enumerate(vectors):
            for c, child in enumerate(children):
                incs[i][list(child), t] = e[c]
    return [np.cumsum(inc, axis=1) for inc in incs]


def oracle_azema_consistency_gap(probs, partitions, azema, survive):
    """Max over every block of every slice, zero-mass blocks included, of |A_t P(block) - P(tau > t, block)|."""
    worst = 0.0
    for t, partition in enumerate(partitions):
        for block in partition.blocks:
            atoms = np.array(block)
            mass = float(probs[atoms].sum())
            lhs = float(azema[atoms[0], t]) * mass
            rhs = float(probs[atoms] @ survive[atoms, t])
            worst = max(worst, abs(lhs - rhs))
    return worst


def oracle_survival(probs, partitions, tau):
    """P[tau > t | block of the atom at t], atom by atom and time by time (0 on zero-mass blocks)."""
    n, width = len(tau), len(partitions)
    out = np.zeros((n, width))
    for t in range(width):
        block_of = partitions[t].block_of
        for a in range(n):
            mass = alive = 0.0
            for b in range(n):
                if block_of[b] == block_of[a]:
                    mass += float(probs[b])
                    alive += float(probs[b]) if tau[b] > t else 0.0
            if mass > 0.0:
                out[a, t] = alive / mass
    return out


def random_filtration(rng, n_atoms, horizon, zero_frac=0.3):
    """A space with some zero-probability atoms and a random refining filtration on it."""
    from filtration_lab.finite_space import Filtration, Partition, build_space

    weights = rng.uniform(0.1, 1.0, n_atoms) * (rng.random(n_atoms) >= zero_frac)
    weights[int(rng.integers(n_atoms))] = 1.0  # at least one atom carries mass
    space = build_space(weights / weights.sum())
    labels = [()] * n_atoms
    parts = []
    for _ in range(horizon + 1):
        parts.append(Partition.from_labels(labels))
        labels = [lab + (int(rng.integers(0, 2)),) for lab in labels]
    return Filtration(space, tuple(parts))


def perfbench_workloads():
    """The benchmark's workload generator, ``perfbench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up while the class is built
    spec.loader.exec_module(module)
    return module


def relabel(bundle, perm):
    """``bundle`` with its atoms renumbered: new atom i is old atom ``perm[i]``.

    Probabilities, paths and the initial sigma-field move with the atoms, and
    the filtrations are built again from them, so the new bundle carries the
    same information in another layout.
    """
    from filtration_lab.enlargement import build_bundle
    from filtration_lab.finite_space import Partition, build_space

    perm = np.asarray(perm)
    return build_bundle(
        build_space(bundle.space.probs[perm]),
        bundle.X.values[perm],
        bundle.H.values[perm],
        initial=Partition.from_labels(np.asarray(bundle.initial.labels)[perm].tolist()),
        name=bundle.name,
    )


def split(bundle, atom):
    """``bundle`` with ``atom`` split into two twins of half its mass, the new twin appended last.

    The twins share their paths and initial label, so they lie in one block at
    every time.  Returns the bundle and the atom map back: new atom i is old
    atom ``back[i]``.
    """
    from filtration_lab.enlargement import build_bundle
    from filtration_lab.finite_space import Partition, build_space

    back = np.append(np.arange(bundle.space.n_atoms), atom)
    probs = bundle.space.probs[back]
    probs[[atom, -1]] /= 2.0
    labels = np.asarray(bundle.initial.labels)[back].tolist()
    split_bundle = build_bundle(
        build_space(probs),
        bundle.X.values[back],
        bundle.H.values[back],
        initial=Partition.from_labels(labels),
        name=bundle.name,
    )
    return split_bundle, back


def null_lift(bundle, x_jumps, h_jumps):
    """``bundle`` with an atom of probability 0 appended, whose paths jump by ``x_jumps`` and ``h_jumps`` (T,).

    The new atom joins atom 0's block of the initial sigma-field, so it sits
    inside positive-mass nodes wherever its paths follow theirs.  Returns the
    bundle and the atom map back: new atom i < n is old atom i, and the null
    atom maps to atom 0, whose initial block it joins; it carries no mass, so a
    value pulled back onto it is never weighed.
    """
    from filtration_lab.enlargement import build_bundle
    from filtration_lab.finite_space import Partition, build_space

    back = np.append(np.arange(bundle.space.n_atoms), 0)
    paths = fixtures._paths_from_jumps(np.stack([x_jumps, h_jumps]))
    lifted = build_bundle(
        build_space(np.append(bundle.space.probs, 0.0)),
        np.vstack([bundle.X.values, paths[0]]),
        np.vstack([bundle.H.values, paths[1]]),
        initial=Partition.from_labels(np.asarray(bundle.initial.labels)[back].tolist()),
        name=bundle.name,
    )
    return lifted, back


def oracle_nodewise_lstsq(targets, regressors, filtration, cutoff):
    """Integrands (r, k, n, T+1) by one single-right-hand-side lstsq per node per target."""
    probs = filtration.space.probs
    out = np.zeros((len(regressors), len(targets)) + np.shape(targets[0]))
    for j, y in enumerate(targets):
        dy = np.zeros_like(y)
        dy[:, 1:] = np.diff(y, axis=1)
        for t in range(1, filtration.horizon + 1):
            for atoms in map(np.array, filtration.at(t - 1).blocks):
                w = probs[atoms]
                if w.sum() <= 0.0:
                    continue
                sw = np.sqrt(w)
                design = np.stack([d[atoms, t] for d in regressors], axis=1) * sw[:, None]
                coef, *_ = np.linalg.lstsq(design, dy[atoms, t] * sw, rcond=cutoff)
                for i, c in enumerate(coef):
                    out[i, j, atoms, t] = c
    return out


def oracle_residual_sup(y, integrands, regressors, probs):
    """Largest |Y - Y_0 - sum_i K_i . M_i| over positive atoms, one integral at a time."""
    recon = np.repeat(y[:, :1], y.shape[1], axis=1)
    for k, d in zip(integrands, regressors):
        integral = np.zeros_like(y)
        for t in range(1, y.shape[1]):
            integral[:, t] = integral[:, t - 1] + k[:, t] * d[:, t]
        recon = recon + integral
    return float(np.abs(y - recon)[probs > 0.0].max())


def oracle_chunked_reconstruction(values, regressors, node_of, table, probs, step):
    """Residual sups and reconstructions of a solved batch, rebuilt ``step`` targets at a time.

    Each regressor's integral is the ``np.cumsum`` of its parts along time,
    added to the targets' time-0 values in regressor order, and a chunk's
    residual is the largest |Y - recon| over positive atoms and all times.
    """
    residual_sup = np.empty(len(values))
    recons = np.empty_like(values)
    for lo in range(0, len(values), step):
        chunk = slice(lo, lo + step)
        recon = np.repeat(values[chunk, :, :1], node_of.shape[1], axis=-1)
        for c, d in zip(table, regressors):
            part = c[chunk, node_of]
            part *= d
            recon += np.cumsum(part, axis=-1, out=part)
        residual_sup[chunk] = np.abs(values[chunk] - recon)[:, probs > 0.0].max(axis=(-2, -1))
        recons[chunk] = recon
    return residual_sup, recons


def oracle_pinv_per_node(values, regressors, filtration, cutoff):
    """The nodewise solve one node at a time: one ``np.linalg.pinv`` per positive-mass node.

    Nodes are numbered time by time in block order, not in the cell union's
    table order that ``_nodewise_solve`` uses, and time 0 and zero-mass nodes
    get node -1, not one past the last node; ``solve_batch`` reads either
    numbering the same way.  Returns each (atom, t)'s node and the
    coefficients (r, k, nodes + 1) whose last column is 0; a null atom's
    increment is dropped first, as there.
    """
    space = filtration.space
    nodes = [
        (t, atoms)
        for t in range(1, filtration.horizon + 1)
        for atoms in map(np.array, filtration.at(t - 1).blocks)
        if float(space.probs[atoms].sum()) > 0.0
    ]
    values = np.where(space.positive[:, None], values, 0.0)
    node_of = np.full(values.shape[1:], -1)
    table = np.zeros((len(regressors), len(values), len(nodes) + 1))
    for node, (t, atoms) in enumerate(nodes):
        node_of[atoms, t] = node
        dy = values[:, atoms, t]
        dy -= values[:, atoms, t - 1]
        sw = np.sqrt(space.probs[atoms])
        pinv = np.linalg.pinv(regressors[:, atoms, t].T * sw[:, None], rcond=cutoff)
        table[:, :, node] = (pinv * sw) @ dy.T
    return node_of, table


def oracle_jump_events(dx, dh):
    """Per atom, its (time, Mark) events, by a loop over atoms and times."""
    from filtration_lab.jump_measure import Mark

    events = []
    for atom in range(dx.shape[0]):
        evs = []
        for t in range(1, dx.shape[1]):
            jump = (int(dx[atom, t]), int(dh[atom, t]))
            if jump != (0, 0):
                evs.append((t, Mark(jump)))
        events.append(tuple(evs))
    return tuple(events)


def oracle_path_set(lam, t_real, n_paths, seed, block):
    """Per path p: (events, unit exponential), by slicing one draw of the whole stream prefix.

    The stream is Philox keyed (seed, 2^64 - 1); its first n_paths (block + 1)
    unit exponentials are drawn in one call, and path p takes entries
    [p (block + 1), (p + 1) (block + 1)): ``block`` inter-arrival times, then
    its unit exponential.  A path whose arrivals all lie at or before t_real
    draws further blocks of ``block`` from Philox keyed (seed, p) until one passes it.
    """
    def stream(word):
        return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))

    width = block + 1
    draws = stream(2**64 - 1).standard_exponential(n_paths * width)
    out = []
    for p in range(n_paths):
        row = draws[p * width : (p + 1) * width]
        times = np.cumsum(row[:block] / lam)
        if times[-1] <= t_real:
            own = stream(p)
            while times[-1] <= t_real:
                times = np.concatenate([times, times[-1] + np.cumsum(own.standard_exponential(block) / lam)])
        out.append((times[times <= t_real], float(row[block])))
    return out


def oracle_counts_at(events, t):
    """Per path: events at or before t, one searchsorted per path."""
    return np.array([e.searchsorted(t, side="right") for e in events], dtype=np.int64)


def oracle_nth_events(events, k):
    """Per path: its event k (from 0), inf where it has no such event."""
    return np.array([e[k] if e.size > k else math.inf for e in events], dtype=float)


def oracle_window_hits(events, lo, hi):
    """Per path: 1.0 if any event lies in (lo_p, hi_p], by a loop over paths."""
    out = np.zeros(len(events))
    for p, e in enumerate(events):
        out[p] = 1.0 if np.any((e > lo[p]) & (e <= hi[p])) else 0.0
    return out


def oracle_collision_fraction(events, tau, valid):
    """Share of valid paths whose random time equals one of their events."""
    hits = np.zeros(len(events))
    for p, e in enumerate(events):
        if valid[p] and np.any(e == tau[p]):
            hits[p] = 1.0
    n = int(valid.sum())
    return (float(hits[valid].mean()) if n else 0.0, n)


def oracle_full_sweep_window_hits(table, t_real, lo, hi):
    """``PathSet.window_hits`` on a raw ``(K, n)`` table, reading every row:
    per path, its last entry at or before min(hi_p, t_real), compared with lo_p."""
    hi = np.minimum(hi, t_real)
    last = np.full(table.shape[1], -math.inf)
    for row in table:
        last = np.where(row <= hi, row, last)
    return (last > np.asarray(lo)).astype(float)


def oracle_full_sweep_collision_fraction(table, t_real, tau, valid):
    """The collision fraction on a raw ``(K, n)`` table, reading every row:
    a valid path collides iff some entry at or before t_real equals its tau."""
    hits = np.zeros(table.shape[1], dtype=bool)
    for row in table:
        hits |= (row == tau) & (row <= t_real)
    n = int(valid.sum())
    return (float(hits[valid].mean()) if n else 0.0, n)


@pytest.fixture
def space_a_bundle():
    return fixtures.space_a()


@pytest.fixture
def a2_bundle():
    return fixtures.fixture_a2()


@pytest.fixture
def staggered_bundle():
    return fixtures.staggered()


def oracle_time_increments(values):
    """Jumps along the last axis, one subtraction per time step; time 0 gets 0."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    for t in range(1, v.shape[-1]):
        out[..., t] = v[..., t] - v[..., t - 1]
    return out
