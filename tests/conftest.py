"""Shared test helpers: deliberately dumb brute-force oracles.

These recompute conditional expectations, compensators, drifts and the
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
