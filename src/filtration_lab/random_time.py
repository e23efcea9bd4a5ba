"""Progressive enlargement by a random time on the exact engine.

A random time tau (any atom map into {1..T} or never, measurability not
required) is the enlargement by a point process H = 1{tau <= t} that jumps at
most once: ``random_time_bundle`` builds it with ``build_bundle`` and
``tau_of`` reads tau back off H.  The survival supermartingale
A_t = P[tau > t | F_t] gives the enlarged compensator of H in closed form,
which this module cross-validates against the direct compensator; in
discrete time the identity is exact on every consistent model.  The
orthogonality study (Thm 4.6) is :func:`surrogate_segments`, read on a lone
random time as its one segment ``[0]`` and on a disjoint union of random
times segment by segment.  Its five pairs come from four processes, so the
study is one stacked toolkit pass that compensates each process once.
:func:`avoidance_check` reads the fundamental martingales its caller holds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, TauAtZero, VanishingAzema
from .calculus import compensator, compensators, dual_projection, orthogonality_pairs, quadratic_covariation
from .enlargement import EnlargementBundle, build_bundle
from .finite_space import (
    EXACT_TOL,
    NEVER,
    AdaptedProcess,
    FiniteProbabilitySpace,
    StoppingTime,
    first_jump_time,
    max_gap,
    positive_sup,
    running_sums,
    slice_expectations,
    stop_process,
)
from .jump_measure import fundamental_martingales, joint_decomposition


def random_time_bundle(
    space: FiniteProbabilitySpace, x_values, tau, name: str = "custom"
) -> EnlargementBundle:
    """Enlarge the natural filtration of X by the random time ``tau``.

    ``tau`` maps atoms into {1..T} or NEVER; it need not be measurable with
    respect to anything.  The bundle's H is the indicator process 1{tau <= t}.
    """
    tau = np.asarray(tau, dtype=np.int64)
    T = np.shape(x_values)[1] - 1
    if tau.shape != (space.n_atoms,):
        raise BadParameter(f"tau needs one value per atom, got shape {tau.shape}")
    if np.any(tau == 0):
        raise TauAtZero("random times must be strictly positive")
    ok = ((tau >= 1) & (tau <= T)) | (tau == NEVER)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise BadParameter(f"atom {bad}: tau={tau[bad]} outside 1..{T} or NEVER")
    h_values = (np.arange(T + 1)[None, :] >= tau[:, None]).astype(float)
    return build_bundle(space, x_values, h_values, name=name)


def tau_of(bundle: EnlargementBundle) -> StoppingTime:
    """The jump time of H, a stopping time of the enlarged filtration.

    Only a bundle whose H jumps at most once is a random-time bundle.
    """
    if np.any(bundle.H.values[:, -1] > 1.0):
        raise BadParameter(f"H of {bundle.name!r} jumps more than once, so it is no random time")
    return first_jump_time(bundle.H)


def survival(bundle: EnlargementBundle) -> AdaptedProcess:
    """The survival (Azema) supermartingale A_t = P[tau > t | F_t] in the base filtration."""
    f = bundle.f
    survive = (tau_of(bundle).values[:, None] > np.arange(f.horizon + 1)[None, :]).astype(float)
    return AdaptedProcess(f, slice_expectations(survive, f, 0))


def compensator_via_azema(bundle: EnlargementBundle, azema: AdaptedProcess) -> AdaptedProcess:
    """Enlarged compensator of H from its base projection and the survival process ``azema``.

    Adds, while s <= tau, the base predictable increment of H divided by the
    previous survival value.  Must agree with the direct enlarged compensator
    on every positive-probability atom; a vanishing divisor before tau on a
    positive-probability atom means the model is inconsistent.
    """
    f = bundle.f
    T = f.horizon
    hp_base = dual_projection(bundle.H, f)
    base_inc = hp_base.increments()
    grid = np.arange(T + 1)[None, :]
    alive = grid <= np.minimum(tau_of(bundle).values, np.int64(T + 1))[:, None]
    alive[:, 0] = False
    prev_a = np.empty_like(azema.values)
    prev_a[:, 0] = 1.0
    prev_a[:, 1:] = azema.values[:, :-1]

    positive = f.space.positive[:, None]
    bad = alive & (prev_a <= 0.0) & positive
    if bad.any():
        atom, t = np.argwhere(bad)[0]
        raise VanishingAzema(
            f"survival hit zero at t={t - 1} before tau on positive-probability atom {atom}"
        )
    inc = np.where(alive & (prev_a > 0.0), base_inc / np.where(prev_a > 0.0, prev_a, 1.0), 0.0)
    return AdaptedProcess(bundle.g, running_sums(inc, out=inc))


def cross_validation_gap(bundle: EnlargementBundle, azema: AdaptedProcess) -> float:
    """Sup distance between the compensator driven by the survival ``azema`` and the direct one."""
    direct = compensator(bundle.H).compensator
    gap = compensator_via_azema(bundle, azema).values - direct.values
    return positive_sup(bundle.g.space, gap)


def azema_consistency_gap(bundle: EnlargementBundle, azema: AdaptedProcess) -> float:
    """Max over blocks of |A_t * P(block) - P({tau > t} within block)|, A the survival ``azema``.

    Blocks of mass 0 give 0 - 0, so only the positive-mass blocks are visited,
    one block size at a time; each block's dot product rounds as it would alone.
    """
    f = bundle.f
    survive = 1.0 - bundle.H.values  # 1{tau > t}
    gaps = []
    for t, partition in enumerate(f.partitions):
        for atoms, w, masses in partition.size_groups(f.space):
            lhs = azema.values[atoms[:, 0], t] * masses
            gaps.append(np.abs(lhs - np.vecdot(np.take(survive[:, t], atoms), w)))
    return max_gap(*gaps)


def supermartingale_gap(bundle: EnlargementBundle, azema: AdaptedProcess) -> float:
    """Max positive one-step rise of the survival process ``azema`` (0 if it never rises)."""
    vals = azema.values
    drift = slice_expectations(vals, bundle.f, 1)[:, 1:] - vals[:, :-1]
    return positive_sup(bundle.space, np.maximum(drift, 0.0))


@dataclass(frozen=True)
class AvoidanceReport:
    avoids: bool
    sigma_collision_probs: tuple
    jump_collision_prob: float
    conclusions: dict
    conclusions_hold: bool | None


def avoidance_check(bundle: EnlargementBundle, sigma_list=(), zs=None) -> AvoidanceReport:
    """Check that tau never equals a supplied stopping time or a jump time of X.

    When avoidance holds, the consequences are evaluated exactly: no common
    jumps of (X, H), vanishing joint part, the first two compensated parts
    collapsing onto the compensated processes themselves, and a vanishing
    bracket between them.  On fixtures where the compensator jumps of X and H
    overlap in time the last conclusion can honestly fail; that failure mode
    has no continuous-time counterpart and is reported, not raised.  ``zs``
    are the bundle's fundamental martingales if the caller holds them; they
    are built from X and H if not.
    """
    tau = tau_of(bundle).values
    probs = bundle.g.space.probs
    finite = tau != NEVER

    sigma_probs = []
    for sigma in sigma_list:
        hit = finite & (sigma.values == tau)
        sigma_probs.append(float(probs[hit].sum()))

    dx_at_tau = bundle.X.increments()[np.arange(len(probs)), np.where(finite, tau, 0)]
    jump_prob = float(probs[finite & (dx_at_tau == 1.0)].sum())

    avoids = jump_prob == 0.0 and all(p == 0.0 for p in sigma_probs)

    conclusions: dict = {}
    conclusions_hold = None
    if avoids:
        bracket = quadratic_covariation(bundle.X, bundle.H)
        z1, z2, z3 = fundamental_martingales(bundle.X, bundle.H) if zs is None else zs
        xh = np.stack([bundle.X.values, bundle.H.values])
        xbar, hbar = xh - compensators(xh, bundle.g)
        conclusions = {
            "no_common_jumps": bracket.sup_abs() <= EXACT_TOL,
            "joint_part_vanishes": z3.sup_abs() <= EXACT_TOL,
            "z1_is_compensated_x": positive_sup(bundle.g.space, z1.values - xbar) <= EXACT_TOL,
            "z2_is_compensated_h": positive_sup(bundle.g.space, z2.values - hbar) <= EXACT_TOL,
            "z1_z2_bracket_vanishes": quadratic_covariation(z1, z2).sup_abs() <= EXACT_TOL,
        }
        conclusions_hold = all(conclusions.values())

    return AvoidanceReport(
        avoids=avoids,
        sigma_collision_probs=tuple(sigma_probs),
        jump_collision_prob=jump_prob,
        conclusions=conclusions,
        conclusions_hold=conclusions_hold,
    )


#: the study's five pairs, by name, as indices into (Y1, Y2, Y3, Y1 stopped at tau)
STUDY_PAIRS = (
    ("part1_vs_part2", 0, 1),
    ("part1_vs_joint", 0, 2),
    ("part2_vs_joint", 1, 2),
    ("stopped_part1_vs_part2", 3, 1),
    ("stopped_part1_vs_joint", 3, 2),
)


def surrogate_segments(bundle: EnlargementBundle, starts) -> list[tuple]:
    """Pairwise orthogonality of the compensated jump parts, with surrogates, on each segment of atoms.

    For each pair among the three disjoint counting parts (and the first one
    stopped at tau), one (name, toolkit, consistent): the toolkit of
    :func:`orthogonality_segments`, and ``consistent[i]``, whether segment i's
    orthogonality verdict matches its surrogate, the sup of the predictable
    jump product over the segment (no common predictable jump).  That is the
    exact discrete equivalence; the continuity-based sufficient conditions
    live in the Monte Carlo engine.  The four processes are compensated once
    and the five pairs evaluated in one :func:`orthogonality_pairs` pass.  A
    lone random time is the one segment ``[0]``.  On a disjoint union of
    random times each segment reports what its random time reports alone.  A
    reduction over the whole union would not do: it would read one random
    time's common predictable jump against another's orthogonal verdict.
    """
    y1, y2, y3 = joint_decomposition(bundle.X, bundle.H)
    y1_stopped = stop_process(y1, tau_of(bundle))
    values = np.stack([y1.values, y2.values, y3.values, y1_stopped.values])
    toolkits = orthogonality_pairs(values, [pair for _, *pair in STUDY_PAIRS], bundle.g, starts)
    return [
        (label, toolkit, toolkit.orthogonal == (toolkit.predictable_jump_sup <= EXACT_TOL))
        for (label, *_), toolkit in zip(STUDY_PAIRS, toolkits)
    ]
