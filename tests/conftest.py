"""Shared test helpers: deliberately dumb brute-force oracles.

These recompute conditional expectations, compensators, drifts, jump-measure
events and the per-path Monte Carlo reductions with plain Python loops so the vectorised
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
