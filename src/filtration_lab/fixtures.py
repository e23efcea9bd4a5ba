"""Canonical and seeded-random fixtures used by the check suites and tests."""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .enlargement import EnlargementBundle, build_bundle
from .finite_space import NEVER, Filtration, Partition, build_space, first_jump_time
from .random_time import random_time_bundle


def _paths_from_jumps(jumps) -> np.ndarray:
    jumps = np.asarray(jumps, dtype=float)
    out = np.zeros((jumps.shape[0], jumps.shape[1] + 1))
    out[:, 1:] = np.cumsum(jumps, axis=1)
    return out


def _built_once(build):
    """A plain function returning the one bundle ``build`` makes, built on the first call.

    Bundles are frozen, so every caller can share it.  The result is a plain
    function, not a ``functools`` cache object, so it is found and wrapped
    like any other function of this module; ``cache_clear`` drops the bundle.
    """
    cached = functools.cache(build)

    @functools.wraps(build)
    def shared() -> EnlargementBundle:
        return cached()

    shared.cache_clear = cached.cache_clear
    return shared


@_built_once
def space_a() -> EnlargementBundle:
    """16 uniform atoms, horizon 2, all four jump bits independent fair coins."""
    bits = list(itertools.product((0, 1), repeat=4))  # (dx1, dh1, dx2, dh2)
    space = build_space([1.0 / 16.0] * 16)
    dx = np.array([[b[0], b[2]] for b in bits])
    dh = np.array([[b[1], b[3]] for b in bits])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="space_a")


@_built_once
def fixture_a2() -> EnlargementBundle:
    """Three atoms (0.3, 0.5, 0.2), horizon 1; X jumps on the first, H on the second.

    The joint filtration is trivial at 0 and separates the atoms at 1, so the
    compensators of both single-jump processes land a jump at t=1 together.
    """
    space = build_space([0.3, 0.5, 0.2])
    dx = np.array([[1], [0], [0]])
    dh = np.array([[0], [1], [0]])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="fixture_a2")


@_built_once
def staggered() -> EnlargementBundle:
    """X can jump only at t=1, H only at t=2; four uniform atoms."""
    bits = list(itertools.product((0, 1), repeat=2))  # (dx1, dh2)
    space = build_space([0.25] * 4)
    dx = np.array([[b[0], 0] for b in bits])
    dh = np.array([[0, b[1]] for b in bits])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="staggered")


@_built_once
def avoidance_trinomial() -> EnlargementBundle:
    """Per step either X jumps, H jumps, or nothing; H jumps at most once.

    No atom ever has X and H jumping together, yet both can jump at each
    time, so the enlarged tree branches three ways (spanning number 2).
    """
    rows = [
        # (prob, x jumps, h jumps)
        (0.16, (0, 0), (0, 0)),
        (0.12, (0, 1), (0, 0)),
        (0.12, (0, 0), (0, 1)),
        (0.12, (1, 0), (0, 0)),
        (0.09, (1, 1), (0, 0)),
        (0.09, (1, 0), (0, 1)),
        (0.18, (0, 0), (1, 0)),
        (0.12, (0, 1), (1, 0)),
    ]
    space = build_space([r[0] for r in rows])
    dx = np.array([r[1] for r in rows])
    dh = np.array([r[2] for r in rows])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="avoidance_trinomial")


@_built_once
def dependent() -> EnlargementBundle:
    """H copies the first jump bit of X, breaking the product rule at t=1."""
    bits = list(itertools.product((0, 1), repeat=3))  # (dx1, dx2, dh2)
    space = build_space([1.0 / 8.0] * 8)
    dx = np.array([[b[0], b[1]] for b in bits])
    dh = np.array([[b[0], b[2]] for b in bits])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="dependent")


def bundle_by_name(name: str) -> EnlargementBundle:
    builders = {
        "space_a": space_a,
        "fixture_a2": fixture_a2,
        "staggered": staggered,
        "avoidance_trinomial": avoidance_trinomial,
        "dependent": dependent,
    }
    if name not in builders:
        raise KeyError(f"unknown fixture {name!r}; valid: {sorted(builders)}")
    return builders[name]()


@_built_once
def two_step_independent_random_time() -> EnlargementBundle:
    """tau uniform on {1, 2}, independent of a two-step coin-flip base."""
    rows = []
    for dx1, dx2 in itertools.product((0, 1), repeat=2):
        for tau in (1, 2):
            rows.append((dx1, dx2, tau))
    space = build_space([1.0 / 8.0] * 8)
    dx = np.array([[r[0], r[1]] for r in rows])
    tau = np.array([r[2] for r in rows], dtype=np.int64)
    return random_time_bundle(space, _paths_from_jumps(dx), tau, name="two_step_independent")


@_built_once
def announced_tau_random_time() -> EnlargementBundle:
    """tau announced one step after the first jump of the base process.

    {tau = t} is known at t-1, so the indicator process is predictable in the
    enlargement and coincides with its own compensator.
    """
    bits = list(itertools.product((0, 1), repeat=2))
    space = build_space([0.25] * 4)
    dx = np.array([[b[0], b[1]] for b in bits])
    tau = np.where(dx[:, 0] == 1, 2, NEVER).astype(np.int64)
    return random_time_bundle(space, _paths_from_jumps(dx), tau, name="announced_tau")


@_built_once
def never_random_time() -> EnlargementBundle:
    """tau never happens: H vanishes, survival stays at one."""
    b = staggered()
    tau = np.full(b.space.n_atoms, NEVER, dtype=np.int64)
    return random_time_bundle(b.space, b.X.values, tau, name="tau_never")


@_built_once
def copied_jump_random_time() -> EnlargementBundle:
    """tau equals the first jump time of the base process (avoidance fails)."""
    b = staggered()
    tau = first_jump_time(b.X).values
    # atoms where X never jumps keep tau = NEVER
    return random_time_bundle(b.space, b.X.values, tau, name="copied_jump")


def random_space_probs(rng: np.random.Generator, max_atoms: int = 6) -> np.ndarray:
    n = int(rng.integers(2, max_atoms + 1))
    weights = rng.uniform(0.1, 1.0, n)
    return weights / weights.sum()


def random_pair_draw(rng: np.random.Generator, max_atoms: int = 6, max_horizon: int = 3) -> tuple:
    """The draws of one random (X, H) pair: (probs, dX, dH, initial labels or None).

    The labels are drawn half of the time; without them the initial sigma-field is trivial.
    """
    probs = random_space_probs(rng, max_atoms)
    n = probs.size
    horizon = int(rng.integers(1, max_horizon + 1))
    dx = rng.integers(0, 2, (n, horizon))
    dh = rng.integers(0, 2, (n, horizon))
    initial = rng.integers(0, 2, n).tolist() if rng.random() < 0.5 else None
    return probs, dx, dh, initial


def random_pair_unions(rng: np.random.Generator, n_pairs: int, draw=random_pair_draw) -> list[tuple]:
    """The pairs of ``n_pairs`` ``draw(rng)`` calls, as one :func:`pair_union` per horizon present (ascending).

    ``draw`` is :func:`random_pair_draw` or :func:`random_time_draw`; the rng
    is drawn exactly as ``n_pairs`` lone draws draw it, so each pair is the one
    a lone bundle of the same draw would be (the tests' oracles build those).
    """
    by_horizon: dict = {}
    for i in range(n_pairs):
        pair = draw(rng)
        by_horizon.setdefault(pair[1].shape[1], []).append((i, pair))
    return [pair_union(*zip(*by_horizon[horizon])) for horizon in sorted(by_horizon)]


def pair_union(pairs, draws) -> tuple:
    """The pair ``draws`` of one horizon as one disjoint-union bundle: (bundle, starts, pairs, exponent).

    Segment i of ``starts`` holds the draw with id ``pairs[i]``; the last
    segment is the filler atom.  With k pairs every probability is scaled by
    2^exponent = 4^-m, the least power of four above k, which is exact.  So
    every block average rounds as in the lone pair, a block mass is the lone
    one times 2^exponent exactly, and a nodewise solve, which weights by
    sqrt(p), rounds as alone too: sqrt(4^-m p) is 2^-m sqrt(p) exactly, where
    an odd power of two would round.  The filler takes the remaining mass,
    with X = H = 0 and a block of its own.  The initial sigma-field labels an
    atom (pair id, the pair's own initial label): the paper's initial
    enlargement, so the union's filtrations split pair by pair.
    """
    probs, dx, dh, initial = zip(*draws)
    initial = [own or [0] * p.size for own, p in zip(initial, probs)]
    exponent = -2 * ((len(draws).bit_length() + 1) // 2)
    probs = np.ldexp(np.concatenate(probs), exponent)
    filler = np.zeros((1, dx[0].shape[1]), dtype=np.int64)
    bundle = build_bundle(
        build_space(np.append(probs, 1.0 - probs.sum())),
        _paths_from_jumps(np.concatenate(dx + (filler,))),
        _paths_from_jumps(np.concatenate(dh + (filler,))),
        initial=Partition.from_labels([(i, lab) for i, own in zip(pairs, initial) for lab in own] + [None]),
        name="random_pairs",
    )
    return bundle, np.cumsum([0] + [len(own) for own in initial]), tuple(pairs), exponent


def random_predictable_stack(rng: np.random.Generator, filtration: Filtration, count: int) -> np.ndarray:
    """``count`` random predictable values (count, n, T+1): block-constant on P_{t-1} for t >= 1, zero at time 0.

    One normal draw per block of P_{t-1}, for t = 1..T, entry after entry, all
    from one ``rng.normal`` call: a call of size a + b draws what a call of
    size a and then one of size b would.
    """
    parts = filtration.partitions[:-1]
    draws = rng.normal(size=(count, sum(p.n_blocks for p in parts)))
    vals = np.zeros((count, filtration.space.n_atoms, filtration.horizon + 1))
    start = 0
    for t, previous in enumerate(parts, start=1):
        vals[:, :, t] = draws[:, start + previous.block_of]
        start += previous.n_blocks
    return vals


def random_time_draw(rng: np.random.Generator) -> tuple:
    """The draws of one random time on a random space, as a pair draw (probs, dX, dH, None).

    tau is drawn per atom from {1..T, NEVER}; dH jumps once, at tau (never for
    NEVER), which is the H that ``random_time_bundle`` builds from tau.
    """
    probs = random_space_probs(rng)
    horizon = int(rng.integers(1, 4))
    dx = rng.integers(0, 2, (probs.size, horizon))
    # row j < T of the (T+1, T) identity is a jump at tau = j + 1; its last row, NEVER, is no jump
    dh = np.eye(horizon + 1, horizon, dtype=np.int64)[[int(rng.integers(0, horizon + 1)) for _ in range(probs.size)]]
    return probs, dx, dh, None
