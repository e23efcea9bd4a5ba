"""Canonical and seeded-random fixtures used by the check suites and tests."""
from __future__ import annotations

import itertools

import numpy as np

from .enlargement import EnlargementBundle, build_bundle, natural_filtration
from .finite_space import NEVER, Filtration, Partition, build_space, first_jump_time
from .random_time import RandomTimeBundle, build_random_time_bundle


def _paths_from_jumps(jumps) -> np.ndarray:
    jumps = np.asarray(jumps, dtype=float)
    out = np.zeros((jumps.shape[0], jumps.shape[1] + 1))
    out[:, 1:] = np.cumsum(jumps, axis=1)
    return out


def space_a() -> EnlargementBundle:
    """16 uniform atoms, horizon 2, all four jump bits independent fair coins."""
    bits = list(itertools.product((0, 1), repeat=4))  # (dx1, dh1, dx2, dh2)
    space = build_space([1.0 / 16.0] * 16)
    dx = np.array([[b[0], b[2]] for b in bits])
    dh = np.array([[b[1], b[3]] for b in bits])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="space_a")


def fixture_a2() -> EnlargementBundle:
    """Three atoms (0.3, 0.5, 0.2), horizon 1; X jumps on the first, H on the second.

    The joint filtration is trivial at 0 and separates the atoms at 1, so the
    compensators of both single-jump processes land a jump at t=1 together.
    """
    space = build_space([0.3, 0.5, 0.2])
    dx = np.array([[1], [0], [0]])
    dh = np.array([[0], [1], [0]])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="fixture_a2")


def staggered() -> EnlargementBundle:
    """X can jump only at t=1, H only at t=2; four uniform atoms."""
    bits = list(itertools.product((0, 1), repeat=2))  # (dx1, dh2)
    space = build_space([0.25] * 4)
    dx = np.array([[b[0], 0] for b in bits])
    dh = np.array([[0, b[1]] for b in bits])
    return build_bundle(space, _paths_from_jumps(dx), _paths_from_jumps(dh), name="staggered")


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


def tau_from_h(bundle: EnlargementBundle) -> np.ndarray:
    """Jump time of a single-jump H as an atom map (NEVER where it never jumps)."""
    return first_jump_time(bundle.H).values


def staggered_random_time() -> RandomTimeBundle:
    """Random time jumping only at t=2 over a base that jumps only at t=1."""
    b = staggered()
    return build_random_time_bundle(tau_from_h(b), b.f, b.X.values, name="staggered")


def trinomial_random_time() -> RandomTimeBundle:
    """Avoidance-style bundle with three-way branching (spanning number 2)."""
    b = avoidance_trinomial()
    return build_random_time_bundle(tau_from_h(b), b.f, b.X.values, name="avoidance_trinomial")


def two_step_independent_random_time() -> RandomTimeBundle:
    """tau uniform on {1, 2}, independent of a two-step coin-flip base."""
    rows = []
    for dx1, dx2 in itertools.product((0, 1), repeat=2):
        for tau in (1, 2):
            rows.append((dx1, dx2, tau))
    space = build_space([1.0 / 8.0] * 8)
    dx = np.array([[r[0], r[1]] for r in rows])
    x_values = _paths_from_jumps(dx)
    f = natural_filtration(space, [x_values])
    tau = np.array([r[2] for r in rows], dtype=np.int64)
    return build_random_time_bundle(tau, f, x_values, name="two_step_independent")


def announced_tau_random_time() -> RandomTimeBundle:
    """tau announced one step after the first jump of the base process.

    {tau = t} is known at t-1, so the indicator process is predictable in the
    enlargement and coincides with its own compensator.
    """
    bits = list(itertools.product((0, 1), repeat=2))
    space = build_space([0.25] * 4)
    dx = np.array([[b[0], b[1]] for b in bits])
    x_values = _paths_from_jumps(dx)
    f = natural_filtration(space, [x_values])
    tau = np.where(dx[:, 0] == 1, 2, NEVER).astype(np.int64)
    return build_random_time_bundle(tau, f, x_values, name="announced_tau")


def never_random_time() -> RandomTimeBundle:
    """tau never happens: H vanishes, survival stays at one."""
    b = staggered()
    tau = np.full(b.space.n_atoms, NEVER, dtype=np.int64)
    return build_random_time_bundle(tau, b.f, b.X.values, name="tau_never")


def copied_jump_random_time() -> RandomTimeBundle:
    """tau equals the first jump time of the base process (avoidance fails)."""
    b = staggered()
    tau = first_jump_time(b.X).values
    # atoms where X never jumps keep tau = NEVER
    return build_random_time_bundle(tau, b.f, b.X.values, name="copied_jump")


def random_space_probs(rng: np.random.Generator, max_atoms: int = 6) -> np.ndarray:
    n = int(rng.integers(2, max_atoms + 1))
    weights = rng.uniform(0.1, 1.0, n)
    return weights / weights.sum()


def random_bundle(
    rng: np.random.Generator,
    max_atoms: int = 6,
    max_horizon: int = 3,
    allow_initial: bool = True,
    name: str = "random",
) -> EnlargementBundle:
    probs = random_space_probs(rng, max_atoms)
    space = build_space(probs)
    n = space.n_atoms
    horizon = int(rng.integers(1, max_horizon + 1))
    dx = rng.integers(0, 2, (n, horizon))
    dh = rng.integers(0, 2, (n, horizon))
    initial = None
    if allow_initial and rng.random() < 0.5:
        initial = Partition.from_labels(rng.integers(0, 2, n).tolist())
    return build_bundle(
        space, _paths_from_jumps(dx), _paths_from_jumps(dh), initial=initial, name=name
    )


def random_closure_variable(rng: np.random.Generator, n_atoms: int) -> np.ndarray:
    return rng.normal(size=n_atoms)


def random_predictable_values(rng: np.random.Generator, filtration: Filtration) -> np.ndarray:
    """Block-constant values on P_{t-1} for t >= 1, zero at time 0."""
    vals = np.zeros((filtration.space.n_atoms, filtration.horizon + 1))
    for t in range(1, filtration.horizon + 1):
        previous = filtration.at(t - 1)
        vals[:, t] = rng.normal(size=previous.n_blocks)[previous.block_of]
    return vals


def random_random_time_bundle(
    rng: np.random.Generator, max_atoms: int = 6, max_horizon: int = 3
) -> RandomTimeBundle:
    probs = random_space_probs(rng, max_atoms)
    space = build_space(probs)
    n = space.n_atoms
    horizon = int(rng.integers(1, max_horizon + 1))
    dx = rng.integers(0, 2, (n, horizon))
    x_values = _paths_from_jumps(dx)
    f = natural_filtration(space, [x_values])
    choices = np.arange(1, horizon + 1).tolist() + [NEVER]
    tau = np.array([choices[int(rng.integers(0, len(choices)))] for _ in range(n)], dtype=np.int64)
    return build_random_time_bundle(tau, f, x_values, name="random")
