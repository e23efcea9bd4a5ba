"""Shared test helpers: deliberately dumb brute-force oracles.

These recompute conditional expectations, compensators, drifts, block
constancy, stopping-time and independence checks, jump-measure events and the
per-path Monte Carlo reductions with plain Python loops so the vectorised
engine is always checked against an independent path.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from filtration_lab import fixtures


def oracle_conditional_expectation(probs, values, blocks):
    """Weighted block average by explicit summation."""
    probs = [float(p) for p in probs]
    values = [float(v) for v in values]
    out = [0.0] * len(probs)
    for block in blocks:
        mass = sum(probs[a] for a in block)
        if mass <= 0.0:
            continue
        avg = sum(probs[a] * values[a] for a in block) / mass
        for a in block:
            out[a] = avg
    return np.array(out)


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
    """(t, block, drift) of the first one-step drift above tol, by a loop over blocks."""
    values = np.asarray(values, dtype=float)
    for t in range(1, values.shape[1]):
        delta = values[:, t] - values[:, t - 1]
        for i, block in enumerate(partitions[t - 1].blocks):
            atoms = np.array(block)
            mass = float(probs[atoms].sum())
            if mass <= 0.0:
                continue
            drift = float(probs[atoms] @ delta[atoms]) / mass
            if abs(drift) > tol:
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


def oracle_first_jump_time(values, level, never):
    """Per atom, the first time its path reaches ``level`` (``never`` if it does not)."""
    reached = np.asarray(values) >= level
    out = np.full(reached.shape[0], never, dtype=np.int64)
    for r, c in zip(*np.nonzero(reached)):
        if c < out[r]:
            out[r] = c
    return out


def oracle_random_predictable_values(rng, filtration):
    """One scalar normal draw per block of P_{t-1}, blocks in order, for t = 1..T."""
    vals = np.zeros((filtration.space.n_atoms, filtration.horizon + 1))
    for t in range(1, filtration.horizon + 1):
        for block in filtration.at(t - 1).blocks:
            vals[list(block), t] = rng.normal()
    return vals


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


def oracle_nodewise_lstsq(targets, regressors, filtration, cutoff):
    """Integrands (r, k, n, T+1) by one single-right-hand-side lstsq per node per target."""
    probs = filtration.space.probs
    out = np.zeros((len(regressors), len(targets)) + np.shape(targets[0]))
    for j, y in enumerate(targets):
        dy = np.zeros_like(y)
        dy[:, 1:] = np.diff(y, axis=1)
        for t in range(1, filtration.horizon + 1):
            for atoms in filtration.at(t - 1).block_arrays:
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


@pytest.fixture
def space_a_bundle():
    return fixtures.space_a()


@pytest.fixture
def a2_bundle():
    return fixtures.fixture_a2()


@pytest.fixture
def staggered_bundle():
    return fixtures.staggered()
