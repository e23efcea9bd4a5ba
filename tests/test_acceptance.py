"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they happen."""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_bundle, random_predictable_values, random_random_time_bundle
from filtration_lab import fixtures
from filtration_lab.calculus import (
    compensator,
    dual_projection,
    is_martingale,
    orthogonality_segments,
    quadratic_covariation,
    stochastic_integral,
)
from filtration_lab.cli import run_config, report_to_json
from filtration_lab.errors import IndependenceViolated
from filtration_lab.finite_space import AdaptedProcess
from filtration_lab.jump_measure import (
    MARKS,
    PredictableFunction,
    compensator_measure,
    fundamental_martingales,
    integrate,
    jump_measure,
)
from filtration_lab.random_time import cross_validation_gap, survival
from filtration_lab.representation import (
    independent_decomposition,
    martingale_closure,
    multiplicity,
    orthogonal_spanning_martingales,
    solve_in_basis,
    solve_triple,
    solve_wrp,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs"
SEED = 7


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} ({description}): {mark}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def mc_report_single_thread():
    config = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
    start = time.perf_counter()
    report = run_config(config, parallel=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_representation_completeness():
    rng = np.random.default_rng(SEED)
    bundles = [fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()]
    bundles += [random_bundle(rng) for _ in range(50)]
    start = time.perf_counter()
    worst = 0.0
    for b in bundles:
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        z1, z2, z3 = fundamental_martingales(b.X, b.H)
        for _ in range(100):
            y = martingale_closure(rng.normal(size=b.space.n_atoms), b.g)
            worst = max(worst, solve_wrp(y, mu, nu).residual_sup)
            worst = max(worst, solve_triple(y, z1, z2, z3).residual_sup)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "weak and triple representation residuals <= 1e-9 in < 10 s",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst={worst:.2e}, elapsed={elapsed:.1f}s, spaces={len(bundles)}",
    )


def test_criterion_2_compensated_measure_integrals():
    rng = np.random.default_rng(SEED + 1)
    worst_drift = 0.0
    worst_split = 0.0
    for b in (fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()):
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        zs = fundamental_martingales(b.X, b.H)
        for _ in range(100):
            w = PredictableFunction(
                b.g, np.stack([random_predictable_values(rng, b.g) for _ in MARKS])
            )
            diff = AdaptedProcess(b.g, integrate(w, mu).values - integrate(w, nu).values)
            check = is_martingale(diff)
            if not check:
                worst_drift = max(worst_drift, abs(check.witness[2]))
            split = sum(
                stochastic_integral(AdaptedProcess(b.g, w.values[k]), z).values
                for k, z in enumerate(zs)
            )
            worst_split = max(worst_split, float(np.abs(diff.values - split).max()))
    _verdict(
        2,
        "compensated measure integrals are exact martingales splitting across marks",
        worst_drift == 0.0 and worst_split <= 1e-12,
        f"worst_drift={worst_drift:.2e}, worst_split={worst_split:.2e}",
    )


def test_criterion_3_orthogonality_toolkit():
    rng = np.random.default_rng(SEED + 2)
    clauses_ok = True
    worst_identity = 0.0
    for _ in range(200):
        b = random_bundle(rng)
        toolkit = orthogonality_segments(b.X, b.H, [0])
        clauses_ok = clauses_ok and all(toolkit.clauses_at(0).values())
        worst_identity = max(worst_identity, toolkit.decomposition_gap[0])

    a2 = fixtures.fixture_a2()
    toolkit = orthogonality_segments(a2.X, a2.H, [0])
    yp = dual_projection(a2.X, a2.g)
    zp = dual_projection(a2.H, a2.g)
    product = (yp.increments() * zp.increments())[:, 1]
    a2_ok = (
        toolkit.jumps_disjoint[0]
        and not toolkit.orthogonal[0]
        and bool(np.all(np.abs(product - 0.15) <= 1e-12))
    )

    b = fixtures.space_a()
    self_toolkit = orthogonality_segments(b.X, b.X, [0])
    bracket_comp = dual_projection(quadratic_covariation(b.X, b.X), b.g)
    own = compensator(b.X).compensator
    grid = 0.5 * np.arange(3)[None, :]
    pattern_ok = (
        float(np.abs(bracket_comp.values - own.values).max()) <= 1e-12
        and float(np.abs(own.values - grid).max()) <= 1e-12
        and AdaptedProcess(b.g, self_toolkit.bracket_compensators).sup_abs() > 0.0
        and float(
            np.abs(bracket_comp.values - self_toolkit.bracket_compensators).max()
        )
        > 0.1
        and not bool(is_martingale(AdaptedProcess(b.g, self_toolkit.bracket_bar)))
    )
    _verdict(
        3,
        "orthogonality toolkit: 200 random pairs, the three-atom witness 0.15, "
        "and the self-pair compensator pattern",
        clauses_ok and worst_identity <= 1e-12 and a2_ok and pattern_ok,
        f"identity_gap={worst_identity:.2e}, witness_product={float(product[0]):.6f}",
    )


def test_criterion_4_survival_formula_cross_validation():
    rng = np.random.default_rng(SEED + 3)
    bundles = [
        fixtures.two_step_independent_random_time(),
        fixtures.announced_tau_random_time(),
        fixtures.never_random_time(),
    ] + [random_random_time_bundle(rng) for _ in range(20)]
    worst = max(cross_validation_gap(rb, survival(rb)) for rb in bundles)
    _verdict(
        4,
        "survival-driven compensator equals the direct one on every bundle",
        worst <= 1e-9,
        f"worst_gap={worst:.2e}, bundles={len(bundles)}",
    )


def test_criterion_5_multiplicity_certificates():
    rng = np.random.default_rng(SEED + 4)
    cases = [
        ("single source", fixtures.space_a().f, 1),
        ("joint uniform", fixtures.space_a().g, 3),
        ("avoidance style", fixtures.avoidance_trinomial().g, 2),
    ]
    ok = True
    details = []
    for label, filt, expected in cases:
        got = multiplicity(filt)
        spanning = orthogonal_spanning_martingales(filt)
        orth = 0.0
        for i, mi in enumerate(spanning):
            ok = ok and bool(is_martingale(mi))
            for mj in spanning[i + 1 :]:
                orth = max(
                    orth, dual_projection(quadratic_covariation(mi, mj), filt).sup_abs()
                )
        worst = 0.0
        for _ in range(20):
            y = martingale_closure(rng.normal(size=filt.space.n_atoms), filt)
            worst = max(worst, solve_in_basis(y, spanning).residual_sup)
        ok = ok and got == expected and len(spanning) == expected
        ok = ok and orth <= 1e-12 and worst <= 1e-9
        details.append(f"{label}={got}")
    _verdict(5, "spanning numbers 1/3/2 with per-node certificates", ok, ", ".join(details))


def test_criterion_6_independent_enlargement():
    rng = np.random.default_rng(SEED + 5)
    b = fixtures.space_a()
    ok = True
    worst = {"orth": 0.0, "identity": 0.0, "pythagoras": 0.0, "residual": 0.0}
    for _ in range(20):
        y = martingale_closure(rng.normal(size=16), b.g)
        sol = independent_decomposition(y, b)
        worst["orth"] = max(worst["orth"], sol.checks["basis_orthogonality_gap"])
        worst["identity"] = max(worst["identity"], sol.checks["basis_identity_gap"])
        worst["pythagoras"] = max(worst["pythagoras"], sol.checks["pythagoras_gap"])
        worst["residual"] = max(worst["residual"], sol.residual_sup)
    ok = (
        worst["orth"] <= 1e-12
        and worst["identity"] <= 1e-12
        and worst["pythagoras"] <= 1e-9
        and worst["residual"] <= 1e-9
    )
    dep = fixtures.dependent()
    try:
        independent_decomposition(martingale_closure(dep.X.terminal, dep.g), dep)
        raised = False
    except IndependenceViolated:
        raised = True
    _verdict(
        6,
        "orthogonal basis under independence; dependent fixture rejected",
        ok and raised,
        f"orth={worst['orth']:.2e}, identity={worst['identity']:.2e}, "
        f"pythagoras={worst['pythagoras']:.2e}",
    )


def test_criterion_7_monte_carlo_suite(mc_report_single_thread):
    report, elapsed = mc_report_single_thread
    rows = {(c["suite"], c["name"]): c for c in report["checks"]}

    def passed(suite, name):
        return rows[(suite, name)]["passed"]

    poisson_ok = passed("mc_poisson_compensator", "compensated_count_increment")
    second_ok = passed("mc_compensator_second_moment", "compensated_square_at_10")
    avoid = rows[("mc_avoidance", "avoidance_collision_fraction")]
    avoid_ok = avoid["passed"] and avoid["evidence"]["estimate"] == 0.0
    probe_ok = True
    for eps in (0.1, 0.01):
        hit = rows[("mc_predictable_jump", f"announced_window_hit_rate_eps_{eps:g}")]
        base = rows[("mc_predictable_jump", f"base_window_hit_rate_eps_{eps:g}")]
        probe_ok = probe_ok and hit["passed"] and hit["evidence"]["estimate"] == 1.0
        probe_ok = probe_ok and base["passed"]
        probe_ok = (
            probe_ok
            and abs(base["evidence"]["estimate"] - (1.0 - math.exp(-eps))) < 0.01
        )
    negatives = [c for c in report["checks"] if c["suite"] == "mc_negative_controls"]
    negative_ok = len(negatives) == 3 and all(
        c["outcome"] == "fails" and c["passed"] for c in negatives
    )
    all_ok = report["summary"]["failed"] == 0
    _verdict(
        7,
        "Monte Carlo suite at the bundled seed in < 60 s",
        poisson_ok
        and second_ok
        and avoid_ok
        and probe_ok
        and negative_ok
        and all_ok
        and elapsed < 60.0,
        f"elapsed={elapsed:.1f}s, checks={report['summary']['checks']}",
    )


def test_criterion_8_deterministic_reports(mc_report_single_thread):
    mc_report_p1, _ = mc_report_single_thread
    ok = True
    details = []
    for name in ("space_a_full.json", "counterexample_a2.json"):
        config = json.loads((CONFIG_DIR / name).read_text())
        first = report_to_json(run_config(config, parallel=1))
        second = report_to_json(run_config(config, parallel=1))
        ok = ok and first == second
        details.append(f"{name}: rerun identical={first == second}")
    mc_config = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
    threaded = report_to_json(run_config(mc_config, parallel=8))
    same = threaded == report_to_json(mc_report_p1)
    ok = ok and same
    details.append(f"poisson_qlc.json: 1-vs-8 threads identical={same}")
    _verdict(8, "byte-identical reports across reruns and thread counts", ok, "; ".join(details))
