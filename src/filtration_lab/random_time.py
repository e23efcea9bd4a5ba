"""Progressive enlargement by a random time on the exact engine.

A random time tau (any atom map into {1..T} or never, measurability not
required) induces the single-jump indicator process H, the enlarged
filtration, and the survival supermartingale A_t = P[tau > t | F_t].  The
enlarged compensator of H admits a closed form driven by A, which this module
cross-validates against the direct compensator; in discrete time the identity
is exact on every consistent model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, TauAtZero, VanishingAzema
from .calculus import compensator, dual_projection, orthogonality_report, quadratic_covariation
from .enlargement import natural_filtration, progressive_enlargement
from .finite_space import (
    EXACT_TOL,
    NEVER,
    AdaptedProcess,
    Filtration,
    PointProcess,
    StoppingTime,
    conditional_expectation,
    positive_sup,
    rebind,
    stop_process,
)
from .jump_measure import fundamental_martingales, joint_decomposition
from .representation import multiplicity


@dataclass(frozen=True, eq=False)
class RandomTimeBundle:
    """Random time, its indicator process, both filtrations and the survival process.

    ``X`` is the counting process generating the base filtration; it rides
    along because the avoidance and orthogonality checks are statements about
    the pair (X, H).
    """

    tau: np.ndarray
    f: Filtration
    g: Filtration
    H: PointProcess
    azema: AdaptedProcess
    X: PointProcess | None = None
    name: str = "custom"


def build_random_time_bundle(
    tau, f: Filtration, x_values=None, name: str = "custom"
) -> RandomTimeBundle:
    """Assemble the enlargement of ``f`` by the random time ``tau``.

    ``tau`` maps atoms into {1..T} or NEVER; it need not be measurable with
    respect to anything.
    """
    tau = np.asarray(tau, dtype=np.int64)
    space = f.space
    T = f.horizon
    if tau.shape != (space.n_atoms,):
        raise BadParameter(f"tau needs one value per atom, got shape {tau.shape}")
    if np.any(tau == 0):
        raise TauAtZero("random times must be strictly positive")
    ok = ((tau >= 1) & (tau <= T)) | (tau == NEVER)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise BadParameter(f"atom {bad}: tau={tau[bad]} outside 1..{T} or NEVER")

    grid = np.arange(T + 1)[None, :]
    h_values = (grid >= tau[:, None]).astype(float)
    hbb = natural_filtration(space, [h_values])
    g = progressive_enlargement(f, hbb)

    azema_vals = np.empty((space.n_atoms, T + 1))
    survive = (tau[:, None] > grid).astype(float)
    for t in range(T + 1):
        azema_vals[:, t] = conditional_expectation(space, survive[:, t], f.at(t))

    x_proc = None
    if x_values is not None:
        x_proc = rebind(PointProcess(f, np.asarray(x_values, dtype=float)), g)

    return RandomTimeBundle(
        tau=tau,
        f=f,
        g=g,
        H=PointProcess(g, h_values),
        azema=AdaptedProcess(f, azema_vals),
        X=x_proc,
        name=name,
    )


def stopping_time(bundle: RandomTimeBundle) -> StoppingTime:
    """tau as a stopping time of the enlarged filtration."""
    return StoppingTime(bundle.g, bundle.tau)


def compensator_via_azema(bundle: RandomTimeBundle) -> AdaptedProcess:
    """Enlarged compensator of H from its base projection and the survival process.

    Adds, while s <= tau, the base predictable increment of H divided by the
    previous survival value.  Must agree with the direct enlarged compensator
    on every positive-probability atom; a vanishing divisor before tau on a
    positive-probability atom means the model is inconsistent.
    """
    f = bundle.f
    T = f.horizon
    hp_base = dual_projection(rebind(bundle.H, f, check=False), f)
    base_inc = hp_base.increments()
    grid = np.arange(T + 1)[None, :]
    alive = grid <= np.minimum(bundle.tau, np.int64(T + 1))[:, None]
    alive[:, 0] = False
    prev_a = np.empty_like(bundle.azema.values)
    prev_a[:, 0] = 1.0
    prev_a[:, 1:] = bundle.azema.values[:, :-1]

    positive = bundle.f.space.positive[:, None]
    bad = alive & (prev_a <= 0.0) & positive
    if bad.any():
        atom, t = np.argwhere(bad)[0]
        raise VanishingAzema(
            f"survival hit zero at t={t - 1} before tau on positive-probability atom {atom}"
        )
    inc = np.where(alive & (prev_a > 0.0), base_inc / np.where(prev_a > 0.0, prev_a, 1.0), 0.0)
    return AdaptedProcess(bundle.g, np.cumsum(inc, axis=1))


def direct_compensator(bundle: RandomTimeBundle) -> AdaptedProcess:
    """Enlarged compensator of H computed head-on."""
    return compensator(bundle.H).compensator


def cross_validation_gap(bundle: RandomTimeBundle) -> float:
    """Sup distance between the survival-driven and the direct compensator."""
    gap = compensator_via_azema(bundle).values - direct_compensator(bundle).values
    return positive_sup(bundle.g.space, gap)


def azema_consistency_gap(bundle: RandomTimeBundle) -> float:
    """Max over blocks of |A_t * P(block) - P({tau > t} within block)|."""
    probs = bundle.f.space.probs
    T = bundle.f.horizon
    grid = np.arange(T + 1)[None, :]
    survive = (bundle.tau[:, None] > grid).astype(float)
    worst = 0.0
    for t in range(T + 1):
        for atoms in bundle.f.at(t).block_arrays:
            mass = float(probs[atoms].sum())
            lhs = float(bundle.azema.values[atoms[0], t]) * mass
            rhs = float(probs[atoms] @ survive[atoms, t])
            worst = max(worst, abs(lhs - rhs))
    return worst


def supermartingale_gap(bundle: RandomTimeBundle) -> float:
    """Max positive one-step rise of the survival process (should be <= 0)."""
    space = bundle.f.space
    vals = bundle.azema.values
    worst = 0.0
    for t in range(1, bundle.f.horizon + 1):
        drift = conditional_expectation(space, vals[:, t], bundle.f.at(t - 1)) - vals[:, t - 1]
        worst = max(worst, float(drift[space.positive].max()))
    return worst


@dataclass(frozen=True)
class AvoidanceReport:
    avoids: bool
    sigma_collision_probs: tuple
    jump_collision_prob: float
    conclusions: dict
    conclusions_hold: bool | None


def avoidance_check(bundle: RandomTimeBundle, sigma_list=()) -> AvoidanceReport:
    """Check that tau never equals a supplied stopping time or a jump time of X.

    When avoidance holds, the consequences are evaluated exactly: no common
    jumps of (X, H), vanishing joint part, the first two compensated parts
    collapsing onto the compensated processes themselves, and a vanishing
    bracket between them.  On fixtures where the compensator jumps of X and H
    overlap in time the last conclusion can honestly fail; that failure mode
    has no continuous-time counterpart and is reported, not raised.
    """
    if bundle.X is None:
        raise ValueError("bundle carries no generating process X")
    probs = bundle.g.space.probs
    finite = bundle.tau != NEVER

    sigma_probs = []
    for sigma in sigma_list:
        hit = finite & (sigma.values == bundle.tau)
        sigma_probs.append(float(probs[hit].sum()))

    dx_at_tau = bundle.X.increments()[np.arange(len(probs)), np.where(finite, bundle.tau, 0)]
    jump_prob = float(probs[finite & (dx_at_tau == 1.0)].sum())

    avoids = jump_prob == 0.0 and all(p == 0.0 for p in sigma_probs)

    conclusions: dict = {}
    conclusions_hold = None
    if avoids:
        bracket = quadratic_covariation(bundle.X, bundle.H)
        z1, z2, z3 = fundamental_martingales(bundle.X, bundle.H)
        xbar = compensator(bundle.X).martingale_part
        hbar = compensator(bundle.H).martingale_part
        tol = EXACT_TOL
        conclusions = {
            "no_common_jumps": bracket.sup_abs() <= tol,
            "joint_part_vanishes": z3.sup_abs() <= tol,
            "z1_is_compensated_x": positive_sup(bundle.g.space, z1.values - xbar.values) <= tol,
            "z2_is_compensated_h": positive_sup(bundle.g.space, z2.values - hbar.values) <= tol,
            "z1_z2_bracket_vanishes": quadratic_covariation(z1, z2).sup_abs() <= tol,
        }
        conclusions_hold = all(conclusions.values())

    return AvoidanceReport(
        avoids=avoids,
        sigma_collision_probs=tuple(sigma_probs),
        jump_collision_prob=jump_prob,
        conclusions=conclusions,
        conclusions_hold=conclusions_hold,
    )


@dataclass(frozen=True)
class PairStudy:
    name: str
    orthogonal: bool
    no_common_predictable_jumps: bool
    consistent: bool
    witness: tuple | None


@dataclass(frozen=True)
class OrthogonalityStudy:
    pairs: tuple
    multiplicity: int
    note: str

    @property
    def all_consistent(self) -> bool:
        return all(p.consistent for p in self.pairs)


def orthogonality_suite(bundle: RandomTimeBundle) -> OrthogonalityStudy:
    """Pairwise orthogonality of the compensated jump parts, with surrogates.

    For each pair among the three disjoint counting parts (and the first one
    stopped at tau), checks that orthogonality of the compensated versions
    matches the no-common-predictable-jump surrogate, which is the exact
    discrete equivalence.  The continuity-based sufficient conditions live in
    the Monte Carlo engine.
    """
    if bundle.X is None:
        raise ValueError("bundle carries no generating process X")
    y1, y2, y3 = joint_decomposition(bundle.X, bundle.H)
    st = stopping_time(bundle)
    y1_stopped = stop_process(y1, st)
    named = [
        ("part1_vs_part2", y1, y2),
        ("part1_vs_joint", y1, y3),
        ("part2_vs_joint", y2, y3),
        ("stopped_part1_vs_part2", y1_stopped, y2),
        ("stopped_part1_vs_joint", y1_stopped, y3),
    ]
    pairs = []
    tol = EXACT_TOL
    for label, a, b in named:
        rep = orthogonality_report(a, b)
        ap = dual_projection(a, bundle.g)
        bp = dual_projection(b, bundle.g)
        surrogate = positive_sup(bundle.g.space, ap.increments() * bp.increments()) <= tol
        pairs.append(
            PairStudy(
                name=label,
                orthogonal=rep.is_orthogonal,
                no_common_predictable_jumps=surrogate,
                consistent=rep.is_orthogonal == surrogate,
                witness=rep.witness,
            )
        )
    note = (
        "continuity-driven sufficient conditions (continuous enlarged "
        "compensators) have no discrete counterpart and are exercised by the "
        "Monte Carlo engine"
    )
    return OrthogonalityStudy(pairs=tuple(pairs), multiplicity=multiplicity(bundle.g), note=note)
