"""Registry of named check suites run by the command-line front end.

Every suite returns a list of CheckResult rows.  A row's ``outcome`` states
whether the checked property held; the configured ``expected`` outcome (holds
by default, fails for counterexample suites) decides pass/fail, so a
counterexample passes exactly when the property breaks the way it should.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .calculus import (
    compensator,
    dual_projection,
    is_martingale,
    orthogonality_report,
    quadratic_covariation,
    stochastic_integral,
)
from .enlargement import build_bundle, verify_filtration_identities
from .errors import IndependenceViolated, UnknownSuite
from .finite_space import (
    AdaptedProcess,
    Partition,
    PointProcess,
    StoppingTime,
    build_space,
    is_adapted,
    is_predictable,
    positive_sup,
    stop_values,
)
from .jump_measure import (
    MARKS,
    PredictableFunction,
    compensator_measure,
    fundamental_martingales,
    integrate,
    joint_decomposition,
    jump_measure,
)
from .montecarlo import (
    McReport,
    RandomTimeSpec,
    avoidance_mc_suite,
    azema_exponential_suite,
    negative_control_suite,
    poisson_compensator_suite,
    predictable_jump_probe,
    second_moment_suite,
    simulate_path_set,
)
from .random_time import (
    avoidance_check,
    azema_consistency_gap,
    cross_validation_gap,
    direct_compensator,
    compensator_via_azema,
    orthogonality_suite,
    stopping_time,
    supermartingale_gap,
)
from .representation import (
    independent_batch,
    independent_decomposition,
    martingale_closure,
    martingale_closures,
    multiplicity,
    orthogonal_spanning_martingales,
    solve_batch,
    solve_prp,
    solve_triple,
    solve_wrp,
    triple_regressors,
    wrp_regressors,
)


@dataclass
class Tolerances:
    exact: float = 1e-9
    atomwise: float = 1e-12


@dataclass
class McParams:
    lam: float = 1.0
    mu: float = 1.0
    t_real: float = 10.0
    n_paths: int = 100000
    z_max: float = 4.0
    epsilons: tuple = (0.1, 0.01)

    @property
    def stress_n_paths(self) -> int:
        """Paths of mc_avoidance's stress run; may exceed n_paths."""
        return max(1000, self.n_paths // 10)


@dataclass
class SuiteContext:
    seed: int
    bundle: object = None
    tol: Tolerances = field(default_factory=Tolerances)
    mc: McParams | None = None
    expected_outcome: str = "holds"
    _path_cache: dict = field(default_factory=dict)

    def rng(self, salt: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(salt.encode())])

    def paths(self, tau_spec=None, n_paths=None):
        """The first ``n_paths`` (default ``mc.n_paths``) paths with random time ``tau_spec``.

        Every request reads one simulation per (lam, t_real, seed), made at
        the largest size any suite asks for; path p does not depend on that size.
        """
        mc = self.mc or McParams()
        n = n_paths or mc.n_paths
        key = (mc.lam, mc.t_real, self.seed)
        base = self._path_cache.get(key)
        if base is None or base.n_paths < n:
            size = max(n, mc.n_paths, mc.stress_n_paths)
            base = self._path_cache[key] = simulate_path_set(mc.lam, mc.t_real, size, self.seed)
        return base.with_random_time(tau_spec, n)


@dataclass
class CheckResult:
    """One report row; ``run_config`` stamps it with its suite's anchor."""

    name: str
    outcome: str
    evidence: dict
    expected: str = "holds"

    @property
    def passed(self) -> bool:
        return self.outcome == self.expected


def _num(x):
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _check(name: str, ok: bool, **evidence) -> CheckResult:
    ev = {}
    for k, v in evidence.items():
        if isinstance(v, (np.floating, float)):
            ev[k] = _num(v)
        elif isinstance(v, (np.integer, int, bool, str)):
            ev[k] = v if isinstance(v, (bool, str)) else int(v)
        else:
            ev[k] = v
    return CheckResult(name=name, outcome="holds" if ok else "fails", evidence=ev)


def _random_closures(rng: np.random.Generator, filtration, count: int) -> np.ndarray:
    """``count`` random closure targets, all drawn before any is solved."""
    n = filtration.space.n_atoms
    xis = np.array([fixtures.random_closure_variable(rng, n) for _ in range(count)])
    return martingale_closures(xis, filtration)


def _rep_fixtures(ctx: SuiteContext) -> list:
    out = [fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()]
    if ctx.bundle is not None and ctx.bundle.name not in {b.name for b in out}:
        out.insert(0, ctx.bundle)
    return out


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    engine: str
    anchor: str
    description: str
    fn: object
    #: the suite marks its rows with the configured expected_outcome, so "fails" is meaningful
    honours_polarity: bool = False


REGISTRY: dict[str, SuiteSpec] = {}


def _suite(name: str, engine: str, anchor: str, description: str, honours_polarity: bool = False):
    """Register the decorated function as the suite ``name``."""

    def register(fn):
        REGISTRY[name] = SuiteSpec(name, engine, anchor, description, fn, honours_polarity)
        return fn

    return register


# ---------------------------------------------------------------------------
# exact-engine suites


@_suite(
    "prp_base_filtration", "exact", "Lemma 3.1(ii)",
    "single-source representation in the initially enlarged base filtration",
)
def suite_prp_base(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    b = fixtures.space_a()
    x_in_f = PointProcess(b.f, b.X.values)
    m = compensator(x_in_f).martingale_part

    sol = solve_prp(m, m)
    checks.append(
        _check(
            "identity_integrand",
            sol.residual_sup <= ctx.tol.exact and float(np.abs(sol.integrands["K"][:, 1:]).min()) > 0.5,
            residual_sup=sol.residual_sup,
        )
    )

    rng = ctx.rng("prp")
    xis = []
    for _ in range(25):
        coef = rng.normal(size=3)
        xis.append(coef[0] * b.X.terminal**2 + coef[1] * b.X.terminal + coef[2])
    worst = float(solve_batch(martingale_closures(xis, b.f), [m.increments()], b.f).residual_sup.max())
    checks.append(_check("single_source_solvable", worst <= ctx.tol.exact, worst_residual=worst))

    # initial sigma-field carrying the first jump time keeps the tree binary
    space = build_space([1.0 / 8.0] * 8)
    dx = np.array([[(a >> 2) & 1, (a >> 1) & 1, a & 1] for a in range(8)])
    x_vals = np.zeros((8, 4))
    x_vals[:, 1:] = np.cumsum(dx, axis=1)
    from .enlargement import initial_enlargement, natural_filtration, sigma_algebra_of
    from .finite_space import first_jump_time

    base = natural_filtration(space, [x_vals])
    fjt = first_jump_time(PointProcess(base, x_vals)).values.astype(float)
    f = initial_enlargement(base, sigma_algebra_of(space, fjt))
    m3 = compensator(PointProcess(f, x_vals)).martingale_part
    ys = martingale_closures([rng.normal(size=8) for _ in range(25)], f)
    worst = float(solve_batch(ys, [m3.increments()], f).residual_sup.max())
    checks.append(
        _check("initially_enlarged_still_solvable", worst <= ctx.tol.exact, worst_residual=worst)
    )

    m_g = compensator(b.X).martingale_part
    y = martingale_closure(b.H.terminal, b.g)
    sol = solve_prp(y, m_g, b.g)
    checks.append(
        _check(
            "joint_filtration_single_source_fails",
            sol.residual_sup > 1e-6,
            residual_sup=sol.residual_sup,
        )
    )
    return checks


@_suite(
    "three_point_processes", "exact", "Prop 3.2",
    "the pair splits into three counting processes with disjoint jumps",
)
def suite_three_point_processes(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("decomposition")
    bundles = _rep_fixtures(ctx) + [fixtures.avoidance_trinomial()]
    bundles += [fixtures.random_bundle(rng) for _ in range(10)]
    ok = True
    worst = 0.0
    for b in bundles:
        y1, y2, y3 = joint_decomposition(b.X, b.H)  # validates counting-path shape
        for a, c in ((y1, y2), (y1, y3), (y2, y3)):
            worst = max(worst, quadratic_covariation(a, c).sup_abs())
        recon = max(
            positive_sup(b.space, y1.values + y3.values - b.X.values),
            positive_sup(b.space, y2.values + y3.values - b.H.values),
        )
        ok = ok and recon == 0.0
    checks.append(
        _check("disjoint_decomposition", ok and worst <= ctx.tol.atomwise, worst_bracket=worst)
    )

    b = fixtures.space_a()
    _, _, y3 = joint_decomposition(b.X, b.H)
    joint_mean = b.space.expectation(y3.terminal)
    checks.append(
        _check(
            "joint_count_mean",
            abs(joint_mean - 0.5) <= ctx.tol.atomwise,
            joint_mean=joint_mean,
        )
    )
    return checks


@_suite(
    "jump_measure_compensator", "exact", "Thm 3.3; Eqs. (ju.mea.spp), (ju.mea.spp.com), (int1)-(int3)",
    "jump measure, its predictable compensator, and the mark-split integrals",
)
def suite_jump_measure(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("measure")
    n_w = 100
    worst_drift = 0.0
    worst_match = 0.0
    worst_mass = 0.0
    for b in _rep_fixtures(ctx):
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        z1, z2, z3 = fundamental_martingales(b.X, b.H)
        zs = (z1, z2, z3)
        bracket = quadratic_covariation(b.X, b.H)
        expected_mass = b.X.values + b.H.values - bracket.values
        mass_gap = positive_sup(b.space, mu.mass().values - expected_mass)
        worst_mass = max(worst_mass, mass_gap)
        for _ in range(n_w):
            w = PredictableFunction(
                b.g,
                np.stack([fixtures.random_predictable_values(rng, b.g) for _ in MARKS]),
            )
            diff = AdaptedProcess(b.g, integrate(w, mu).values - integrate(w, nu).values)
            drift = is_martingale(diff, tol=ctx.tol.exact)
            if not drift:
                worst_drift = max(worst_drift, abs(drift.witness[2]))
            split = sum(
                stochastic_integral(w.component(mark), z).values for mark, z in zip(MARKS, zs)
            )
            worst_match = max(worst_match, positive_sup(b.space, diff.values - split))
    checks.append(
        _check(
            "compensated_integral_is_martingale",
            worst_drift == 0.0,
            worst_drift=worst_drift,
            functions_per_fixture=n_w,
        )
    )
    checks.append(
        _check(
            "integral_splits_across_marks",
            worst_match <= ctx.tol.atomwise,
            worst_gap=worst_match,
        )
    )
    checks.append(_check("total_mass_formula", worst_mass <= ctx.tol.atomwise, worst_gap=worst_mass))

    b = fixtures.space_a()
    nu = compensator_measure(jump_measure(b.X, b.H))
    dens_gap = max(
        float(np.abs(nu.indicator_increments(mark)[:, 1:] - 0.25).max()) for mark in MARKS
    )
    ones = PredictableFunction.constant(b.g, 1.0)
    expected = 0.75 * np.arange(b.g.horizon + 1)[None, :]
    unit_gap = float(np.abs(integrate(ones, nu).values - expected).max())
    checks.append(
        _check(
            "uniform_fixture_densities",
            dens_gap <= ctx.tol.atomwise and unit_gap <= ctx.tol.atomwise,
            density_gap=dens_gap,
            unit_integral_gap=unit_gap,
        )
    )

    a2 = fixtures.fixture_a2()
    nu2 = compensator_measure(jump_measure(a2.X, a2.H))
    target = {MARKS[0]: 0.3, MARKS[1]: 0.5, MARKS[2]: 0.0}
    a2_gap = max(
        float(np.abs(nu2.indicator_increments(m)[:, 1] - target[m]).max()) for m in MARKS
    )
    checks.append(_check("three_atom_densities", a2_gap <= ctx.tol.atomwise, gap=a2_gap))
    return checks


@_suite(
    "filtration_identities", "exact", "Lemma 3.4; Prop 2.1; Eq. (def.Gtil)",
    "enlargement equals the initial join with the joint natural filtration",
)
def suite_filtration_identities(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("identities")
    a2 = fixtures.fixture_a2()
    h_only = build_bundle(
        a2.space,
        np.zeros_like(a2.X.values),
        a2.H.values,
        name="a2_h_only",
    )
    fine = fixtures.space_a()
    fine_r = build_bundle(
        fine.space,
        fine.X.values,
        fine.H.values,
        initial=Partition.discrete(fine.space.n_atoms),
        name="space_a_full_initial",
    )
    bundles = _rep_fixtures(ctx) + [h_only, fine_r] + [fixtures.random_bundle(rng) for _ in range(5)]
    all_ok = True
    for b in bundles:
        rep = verify_filtration_identities(b)
        all_ok = all_ok and rep.ok
    checks.append(_check("enlargement_identities", all_ok, bundles=len(bundles)))

    full = all(
        p.n_blocks == fine.space.n_atoms - len(fine.space.null_atoms)
        for p in fine_r.g.partitions
    )
    checks.append(_check("finest_initial_field_saturates", full))

    ok = True
    for b in (fixtures.space_a(), fixtures.staggered()):
        for proc in (b.X, b.H):
            ok = ok and is_adapted(proc)
            pair = compensator(proc)
            ok = ok and is_predictable(pair.compensator)
            ok = ok and bool(is_martingale(pair.martingale_part))
    checks.append(_check("point_processes_compensate_in_enlargement", ok))
    return checks


@_suite(
    "wrp_representation", "exact", "Thm 3.5(i), Eq. (wrp)",
    "every martingale is an integral against the compensated jump measure",
)
def suite_wrp(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("wrp")
    worst = 0.0
    count = 0
    for b in _rep_fixtures(ctx):
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        sol = solve_batch(_random_closures(rng, b.g, 100), wrp_regressors(mu, nu), b.g)
        worst = max(worst, float(sol.residual_sup.max()))
        count += sol.residual_sup.size
    checks.append(
        _check("every_martingale_represented", worst <= ctx.tol.exact, worst_residual=worst, solves=count)
    )

    b = fixtures.fixture_a2()
    mu = jump_measure(b.X, b.H)
    nu = compensator_measure(mu)
    xi = np.array([0.0, 0.0, 1.0])
    sol = solve_wrp(martingale_closure(xi, b.g), mu, nu)
    joint_w = float(np.abs(sol.integrands["W(1, 1)"]).max())
    checks.append(
        _check(
            "three_atom_solution_avoids_dead_mark",
            sol.residual_sup <= ctx.tol.exact and joint_w <= ctx.tol.atomwise,
            residual_sup=sol.residual_sup,
            joint_mark_weight=joint_w,
        )
    )

    y_const = martingale_closure(np.ones(b.space.n_atoms), b.g)
    sol = solve_wrp(y_const, mu, nu)
    flat = max(float(np.abs(v).max()) for v in sol.integrands.values())
    checks.append(_check("constant_target_gets_zero_function", flat <= ctx.tol.atomwise, max_weight=flat))
    return checks


@_suite(
    "triple_representation", "exact", "Thm 3.5(ii), Eq. (prp.spp); Eq. (rep.stopped)",
    "three-integrand representation, equivalent to the measure form, incl. stopped targets",
)
def suite_triple(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("triple")
    worst = 0.0
    equiv = 0.0
    for b in _rep_fixtures(ctx):
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        regs = triple_regressors(*fundamental_martingales(b.X, b.H))
        ys = _random_closures(rng, b.g, 100)
        # the first 20 are also solved in the measure form, and only their reconstructions kept
        head = solve_batch(ys[:20], regs, b.g, keep_reconstructions=True)
        rest = solve_batch(ys[20:], regs, b.g)
        other = solve_batch(ys[:20], wrp_regressors(mu, nu), b.g, keep_reconstructions=True)
        worst = max(worst, float(head.residual_sup.max()), float(rest.residual_sup.max()))
        gap = head.reconstructions - other.reconstructions
        equiv = max(equiv, float(np.abs(gap[:, b.space.positive]).max()))
    checks.append(_check("triple_integrals_represent", worst <= ctx.tol.exact, worst_residual=worst))
    checks.append(
        _check("triple_matches_measure_form", equiv <= ctx.tol.atomwise, worst_gap=equiv)
    )

    b = fixtures.space_a()
    z1, z2, z3 = fundamental_martingales(b.X, b.H)
    sol = solve_triple(AdaptedProcess(b.g, z2.values), z1, z2, z3)
    off = max(float(np.abs(sol.integrands[k][:, 1:]).max()) for k in ("K1", "K3"))
    on = float(np.abs(sol.integrands["K2"][:, 1:] - 1.0).max())
    checks.append(
        _check(
            "picks_out_own_coordinate",
            sol.residual_sup <= ctx.tol.exact and off <= ctx.tol.atomwise and on <= ctx.tol.atomwise,
            residual_sup=sol.residual_sup,
            off_weights=off,
        )
    )

    worst = 0.0
    rt_bundles = [fixtures.staggered_random_time(), fixtures.trinomial_random_time()]
    rt_bundles += [fixtures.random_random_time_bundle(rng) for _ in range(5)]
    for rb in rt_bundles:
        st = stopping_time(rb)
        regs = triple_regressors(*fundamental_martingales(rb.X, rb.H), stop_at=st)
        sol = solve_batch(stop_values(_random_closures(rng, rb.g, 20), st), regs, rb.g)
        worst = max(worst, float(sol.residual_sup.max()))
    checks.append(_check("stopped_representation", worst <= ctx.tol.exact, worst_residual=worst))
    return checks


@_suite(
    "completeness_random_spaces", "exact", "Corollary (stable subspaces) (i)",
    "zero residuals for random targets across seeded random spaces",
)
def suite_completeness(ctx: SuiteContext) -> list[CheckResult]:
    rng = ctx.rng("completeness")
    worst = 0.0
    solves = 0
    bundles = [fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()]
    bundles += [fixtures.random_bundle(rng, name=f"random_{i}") for i in range(50)]
    for b in bundles:
        mu = jump_measure(b.X, b.H)
        ys = _random_closures(rng, b.g, 100)
        for regs in (
            wrp_regressors(mu, compensator_measure(mu)),
            triple_regressors(*fundamental_martingales(b.X, b.H)),
        ):
            worst = max(worst, float(solve_batch(ys, regs, b.g).residual_sup.max()))
            solves += len(ys)
    return [
        _check(
            "dense_by_zero_residuals",
            worst <= ctx.tol.exact,
            worst_residual=worst,
            solves=solves,
            spaces=len(bundles),
        )
    ]


@_suite(
    "independent_enlargement", "exact", "Thm 4.2, Eq. (orth.ind); Eqs. (rep.Z1)-(rep.Z3)",
    "orthogonal decomposition under independence, with the change-of-basis identities",
)
def suite_independent(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("independent")
    b = fixtures.space_a()
    targets = [b.X.terminal * b.H.terminal] + [
        fixtures.random_closure_variable(rng, b.space.n_atoms) for _ in range(20)
    ]
    sol, gaps = independent_batch(martingale_closures(targets, b.g), b)
    residual = float(sol.residual_sup.max())
    orth = gaps["basis_orthogonality_gap"]
    identity = gaps["basis_identity_gap"]
    factor = gaps["bracket_factorisation_gap"]
    pythagoras = float(gaps["pythagoras_gap"].max())
    checks.append(
        _check(
            "orthogonal_basis_represents",
            residual <= ctx.tol.exact and orth <= ctx.tol.atomwise,
            worst_residual=residual,
            worst_orthogonality=orth,
        )
    )
    checks.append(
        _check(
            "change_of_basis_identities",
            identity <= ctx.tol.atomwise and factor <= ctx.tol.exact,
            worst_identity_gap=identity,
            worst_factorisation_gap=factor,
        )
    )
    checks.append(
        _check("pythagoras_identity", pythagoras <= ctx.tol.exact, worst_gap=pythagoras)
    )

    xbar = compensator(b.X).martingale_part
    hbar = compensator(b.H).martingale_part
    cross = quadratic_covariation(xbar, hbar)
    sol = independent_decomposition(cross, b)
    off = max(float(np.abs(sol.integrands[k][:, 1:]).max()) for k in ("K1", "K2"))
    checks.append(
        _check(
            "bracket_picks_third_coordinate",
            sol.residual_sup <= ctx.tol.exact and off <= ctx.tol.atomwise,
            residual_sup=sol.residual_sup,
        )
    )

    dep = fixtures.dependent()
    try:
        independent_decomposition(martingale_closure(dep.X.terminal, dep.g), dep)
        raised = False
    except IndependenceViolated:
        raised = True
    checks.append(_check("dependent_fixture_rejected", raised))
    return checks


@_suite(
    "multiplicity_certificates", "exact",
    "Multiplicity (Davis-Varaiya); Remark 4.3; remark after Eq. (rep.stopped)",
    "spanning numbers with per-node orthogonal certificates",
)
def suite_multiplicity(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("multiplicity")
    cases = [
        ("single_source", fixtures.space_a().f, 1),
        ("joint_uniform", fixtures.space_a().g, 3),
        ("avoidance_trinomial", fixtures.trinomial_random_time().g, 2),
        ("staggered", fixtures.staggered().g, 1),
    ]
    for label, filt, expected in cases:
        got = multiplicity(filt)
        spanning = orthogonal_spanning_martingales(filt)
        orth = 0.0
        drift_ok = True
        for i, mi in enumerate(spanning):
            drift_ok = drift_ok and bool(is_martingale(mi))
            for mj in spanning[i + 1 :]:
                orth = max(orth, dual_projection(quadratic_covariation(mi, mj), filt).sup_abs())
        ys = _random_closures(rng, filt, 20)
        worst = float(solve_batch(ys, [m.increments() for m in spanning], filt).residual_sup.max())
        checks.append(
            _check(
                f"spanning_number_{label}",
                got == expected
                and len(spanning) == expected
                and drift_ok
                and orth <= ctx.tol.atomwise
                and worst <= ctx.tol.exact,
                computed=got,
                expected_value=expected,
                certificate_residual=worst,
                certificate_orthogonality=orth,
            )
        )

    ok = True
    for _ in range(10):
        b = fixtures.random_bundle(rng)
        ok = ok and multiplicity(b.g) >= multiplicity(b.f)
    checks.append(_check("monotone_under_refinement", ok))
    return checks


@_suite(
    "azema_compensator", "exact", "Eq. (G.com.gen)",
    "survival-driven compensator formula cross-validated against the direct one",
)
def suite_azema(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("azema")
    named = [
        fixtures.two_step_independent_random_time(),
        fixtures.announced_tau_random_time(),
        fixtures.never_random_time(),
        fixtures.staggered_random_time(),
        fixtures.trinomial_random_time(),
    ]
    randoms = [fixtures.random_random_time_bundle(rng) for _ in range(20)]
    worst_gap = 0.0
    worst_cons = 0.0
    worst_super = 0.0
    for rb in named + randoms:
        worst_gap = max(worst_gap, cross_validation_gap(rb))
        worst_cons = max(worst_cons, azema_consistency_gap(rb))
        worst_super = max(worst_super, supermartingale_gap(rb))
    checks.append(
        _check(
            "survival_formula_matches_direct_compensator",
            worst_gap <= ctx.tol.exact,
            worst_gap=worst_gap,
            bundles=len(named) + len(randoms),
        )
    )
    checks.append(
        _check(
            "survival_process_consistent",
            worst_cons <= ctx.tol.atomwise and worst_super <= 1e-12,
            worst_block_gap=worst_cons,
            worst_drift_up=worst_super,
        )
    )

    rb = fixtures.two_step_independent_random_time()
    cand = compensator_via_azema(rb)
    survivors = rb.tau >= 2
    vals_ok = (
        float(np.abs(cand.values[:, 1] - 0.5).max()) <= ctx.tol.atomwise
        and float(np.abs(cand.values[survivors, 2] - 1.5).max()) <= ctx.tol.atomwise
    )
    checks.append(_check("independent_uniform_profile", vals_ok))

    rb = fixtures.announced_tau_random_time()
    gap = positive_sup(rb.g.space, direct_compensator(rb).values - rb.H.values)
    checks.append(
        _check("announced_time_is_its_own_compensator", gap <= ctx.tol.atomwise, gap=gap)
    )

    rb = fixtures.never_random_time()
    flat = max(compensator_via_azema(rb).sup_abs(), direct_compensator(rb).sup_abs())
    checks.append(_check("never_time_compensates_to_zero", flat == 0.0, sup=flat))
    return checks


@_suite(
    "avoidance_discrete", "exact", "Prop 4.4", "avoidance of jump times and its exact consequences"
)
def suite_avoidance_discrete(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rb = fixtures.staggered_random_time()
    rep = avoidance_check(rb)
    checks.append(
        _check(
            "staggered_avoids_and_conclusions_hold",
            rep.avoids and bool(rep.conclusions_hold),
            jump_collision_prob=rep.jump_collision_prob,
            conclusions={k: bool(v) for k, v in rep.conclusions.items()},
        )
    )

    rep = avoidance_check(rb, [StoppingTime.constant(rb.g, 2)])
    checks.append(
        _check(
            "deterministic_time_breaks_avoidance",
            not rep.avoids and rep.sigma_collision_probs[0] > 0.0,
            sigma_collision_prob=rep.sigma_collision_probs[0],
        )
    )

    rep = avoidance_check(fixtures.copied_jump_random_time())
    checks.append(
        _check(
            "copied_jump_time_collides",
            not rep.avoids and rep.jump_collision_prob > 0.0,
            jump_collision_prob=rep.jump_collision_prob,
        )
    )

    rep = avoidance_check(fixtures.never_random_time())
    checks.append(
        _check(
            "never_time_vacuously_avoids",
            rep.avoids and bool(rep.conclusions_hold),
        )
    )
    return checks


@_suite(
    "random_time_orthogonality", "exact", "Thm 4.6; Lemma A.1(v); Eq. (rep.stopped)",
    "pairwise orthogonality vs the no-common-predictable-jump surrogate",
)
def suite_random_time_orth(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("rt_orth")
    bundles = [
        fixtures.staggered_random_time(),
        fixtures.trinomial_random_time(),
        fixtures.two_step_independent_random_time(),
    ] + [fixtures.random_random_time_bundle(rng) for _ in range(5)]
    all_consistent = True
    for rb in bundles:
        study = orthogonality_suite(rb)
        all_consistent = all_consistent and study.all_consistent
    checks.append(
        _check(
            "orthogonality_matches_predictable_jump_surrogate",
            all_consistent,
            bundles=len(bundles),
        )
    )

    study = orthogonality_suite(fixtures.staggered_random_time())
    checks.append(
        _check(
            "staggered_fully_orthogonal",
            all(p.orthogonal for p in study.pairs),
            multiplicity=study.multiplicity,
        )
    )

    study = orthogonality_suite(fixtures.trinomial_random_time())
    by_name = {p.name: p for p in study.pairs}
    checks.append(
        _check(
            "overlapping_compensators_report_witness",
            (not by_name["part1_vs_part2"].orthogonal)
            and by_name["part1_vs_part2"].witness is not None
            and by_name["part1_vs_joint"].orthogonal
            and by_name["part2_vs_joint"].orthogonal
            and study.multiplicity == 2,
            witness=str(by_name["part1_vs_part2"].witness),
            multiplicity=study.multiplicity,
        )
    )
    return checks


@_suite(
    "orthogonality_toolkit", "exact", "Lemma A.1(i)-(v); Eq. (sbYsZs); Poisson remark",
    "bracket/compensator toolkit on random pairs, with the self-bracket pattern",
)
def suite_orthogonality_toolkit(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("toolkit")
    n_pairs = 200
    clause_ok = True
    worst_identity = 0.0
    for _ in range(n_pairs):
        b = fixtures.random_bundle(rng)
        rep = orthogonality_report(b.X, b.H)
        clause_ok = clause_ok and all(rep.clauses.values())
        worst_identity = max(worst_identity, rep.decomposition_gap)
    checks.append(
        _check(
            "toolkit_clauses_on_random_pairs",
            clause_ok and worst_identity <= ctx.tol.atomwise,
            pairs=n_pairs,
            worst_identity_gap=worst_identity,
        )
    )

    a2 = fixtures.fixture_a2()
    rep = orthogonality_report(a2.X, a2.H)
    yp = dual_projection(a2.X, a2.g)
    zp = dual_projection(a2.H, a2.g)
    product = float((yp.increments() * zp.increments())[:, 1].max())
    checks.append(
        _check(
            "common_predictable_jump_quantified",
            rep.jumps_disjoint
            and not rep.is_orthogonal
            and abs(product - 0.15) <= ctx.tol.atomwise,
            predictable_jump_product=product,
            witness=str(rep.witness),
        )
    )

    b = fixtures.space_a()
    rep = orthogonality_report(b.X, b.X)
    self_comp = dual_projection(quadratic_covariation(b.X, b.X), b.g)
    own = compensator(b.X).compensator
    grid = 0.5 * np.arange(b.g.horizon + 1)[None, :]
    pattern_ok = (
        float(np.abs(self_comp.values - own.values).max()) <= ctx.tol.atomwise
        and float(np.abs(own.values - grid).max()) <= ctx.tol.atomwise
        and rep.bracket_compensators.sup_abs() > 0.01
        and not rep.is_orthogonal
        and not bool(is_martingale(rep.bracket_bar))
    )
    checks.append(
        _check(
            "self_bracket_compensates_to_compensator",
            pattern_ok,
            bracket_compensator_terminal=float(self_comp.values[0, -1]),
            compensator_bracket_terminal=float(rep.bracket_compensators.values[0, -1]),
        )
    )
    return checks


@_suite(
    "counterexample_a2", "exact", "Counterexample A.2",
    "disjoint jumps yet non-orthogonal compensated parts (expected failure)",
    honours_polarity=True,
)
def suite_counterexample_a2(ctx: SuiteContext) -> list[CheckResult]:
    a2 = fixtures.fixture_a2()
    rep = orthogonality_report(a2.X, a2.H)
    result = _check(
        "disjoint_jumps_orthogonality",
        rep.is_orthogonal,
        jumps_disjoint=rep.jumps_disjoint,
        witness=str(rep.witness),
        bar_bracket_terminal_mean=float(a2.space.expectation(rep.bracket_bar.terminal)),
    )
    result.expected = ctx.expected_outcome
    sanity = _check("jumps_actually_disjoint", rep.jumps_disjoint)
    return [result, sanity]


# ---------------------------------------------------------------------------
# Monte Carlo suites


def _mc_to_checks(reports: list[McReport], expected: str = "holds") -> list[CheckResult]:
    out = []
    for r in reports:
        c = _check(
            r.statistic,
            r.passed,
            estimate=r.estimate,
            std_error=r.std_error,
            z_score=r.z_score,
            n_paths=r.n_paths,
            expected_value=r.expected,
            exact=r.kind == "exact",
        )
        c.expected = expected
        out.append(c)
    return out


@_suite(
    "mc_poisson_compensator", "mc", "Poisson remark (compensator lambda*t)",
    "compensated Poisson count drifts zero against adapted probes",
)
def suite_mc_poisson(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    return _mc_to_checks(poisson_compensator_suite(ctx.paths(None), mc.z_max))


@_suite(
    "mc_compensator_second_moment", "mc", "Eq. (pb.XsF)",
    "second moment of the compensated count equals the compensator",
)
def suite_mc_second_moment(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    return _mc_to_checks(second_moment_suite(ctx.paths(None), mc.z_max))


@_suite(
    "mc_azema_exponential", "mc", "Eq. (G.com.gen)",
    "closed-form survival compensator for an independent exponential time",
)
def suite_mc_azema(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    paths = ctx.paths(RandomTimeSpec("exponential", mc.mu))
    return _mc_to_checks(azema_exponential_suite(paths, mc.z_max))


@_suite(
    "mc_avoidance", "mc", "Prop 4.4",
    "exact avoidance fraction and enlarged-drift tests, with a stress rate",
)
def suite_mc_avoidance(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    out = _mc_to_checks(avoidance_mc_suite(ctx.paths(RandomTimeSpec("exponential", mc.mu)), mc.z_max))
    stress_paths = ctx.paths(RandomTimeSpec("exponential", 25.0 * mc.mu), n_paths=mc.stress_n_paths)
    for c in _mc_to_checks(avoidance_mc_suite(stress_paths, mc.z_max)):
        c.name = "stress_" + c.name
        out.append(c)
    return out


@_suite(
    "mc_predictable_jump", "mc", "Counterexample 4.8; Assumption A2",
    "announced-window hit rate 1 vs base-window rate about lambda*eps",
)
def suite_mc_predictable_jump(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    out = []
    paths = ctx.paths(RandomTimeSpec("midpoint"))
    for eps in mc.epsilons:
        out.extend(_mc_to_checks(predictable_jump_probe(paths, eps, mc.z_max)))
    return out


@_suite(
    "mc_negative_controls", "mc", "negative controls",
    "engineered failures guarding test power (expected failure)",
    honours_polarity=True,
)
def suite_mc_negative_controls(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc or McParams()
    reports = negative_control_suite(ctx.paths(None), mc.mu, mc.z_max)
    return _mc_to_checks(reports, expected=ctx.expected_outcome)


# ---------------------------------------------------------------------------
# registry lookups


def get_suite(name: str) -> SuiteSpec:
    if name not in REGISTRY:
        raise UnknownSuite(f"no suite named {name!r}; see `flab suites`")
    return REGISTRY[name]


def list_suites() -> str:
    lines = []
    for spec in REGISTRY.values():
        lines.append(f"{spec.name} [{spec.engine}] - {spec.description} ({spec.anchor})")
    return "\n".join(lines)


def describe_suite(name: str) -> str:
    spec = get_suite(name)
    return (
        f"{spec.name}\n  engine: {spec.engine}\n  reference: {spec.anchor}\n"
        f"  {spec.description}"
    )
