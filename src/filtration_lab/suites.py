"""Registry of named check suites run by the command-line front end.

Every suite returns a list of CheckResult rows.  A row's ``outcome`` states
whether the checked property held; the configured ``expected`` outcome (holds
by default, fails for counterexample suites) decides pass/fail, so a
counterexample passes exactly when the property breaks the way it should.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fixtures
from .calculus import (
    compensator,
    dual_projection,
    dual_projections,
    is_martingale,
    martingale_checks,
    orthogonality_segments,
    quadratic_covariation,
    stochastic_integrals,
)
from .enlargement import (
    EnlargementBundle,
    build_bundle,
    initial_enlargement,
    natural_filtration,
    verify_filtration_identities,
)
from .errors import IndependenceViolated, UnknownSuite
from .finite_space import (
    ATOMWISE_TOL,
    EXACT_TOL,
    AdaptedProcess,
    Partition,
    PointProcess,
    StoppingTime,
    build_space,
    first_jump_time,
    is_adapted,
    is_predictable,
    max_gap,
    positive_sup,
    positive_sups,
    stop_values,
    time_increments,
)
from .jump_measure import (
    MARKS,
    MarkedMeasure,
    PredictableFunction,
    compensator_measure,
    fundamental_martingales,
    integrals,
    integrate,
    joint_decomposition,
    jump_measure,
)
from .montecarlo import (
    PathSet,
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
    compensator_via_azema,
    cross_validation_gap,
    supermartingale_gap,
    surrogate_segments,
    survival,
    tau_of,
)
from .representation import (
    chunk_length,
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
    spanning_numbers,
    triple_regressors,
    wrp_regressors,
)
from .serialize import CheckResult, _check


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

    @property
    def simulated_n_paths(self) -> int:
        """Paths of a context's one simulation: the most any suite asks for."""
        return max(self.n_paths, self.stress_n_paths)


class BundleProcesses:
    """A bundle's jump measure ``mu``, its G-compensator ``nu`` and its
    fundamental martingales ``zs``, each built on first read.

    They are built through this module's names for ``jump_measure``,
    ``compensator_measure`` and ``fundamental_martingales``, so a patched
    primitive builds them.  ``nu`` and ``zs`` read ``mu``'s one compensation,
    which ``zs`` reaches through ``nu``, so it is always made inside
    ``compensator_measure``.
    """

    def __init__(self, b: EnlargementBundle):
        self.bundle = b

    @cached_property
    def mu(self) -> MarkedMeasure:
        return jump_measure(self.bundle.X, self.bundle.H)

    @cached_property
    def nu(self) -> MarkedMeasure:
        return compensator_measure(self.mu)

    @cached_property
    def zs(self) -> tuple:
        self.nu  # compensates mu, if no suite has read nu yet
        return fundamental_martingales(self.bundle.X, self.bundle.H, self.mu)


@dataclass
class SuiteContext:
    """One run's state: its seed, its bundle and parameters, and what every
    suite of the run shares.

    A run makes one Monte Carlo simulation (``paths``) and, per bundle, one
    jump measure, compensator and set of fundamental martingales
    (``processes``).  Both live as long as the context, so nothing derived
    outlives the run: a later run, under a patched primitive or not, builds
    its own.
    """

    seed: int
    bundle: object = None
    mc: McParams = field(default_factory=McParams)
    expected_outcome: str = "holds"
    _paths: PathSet | None = field(default=None, init=False, repr=False)
    _processes: dict = field(default_factory=dict, init=False, repr=False)

    def rng(self, salt: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(salt.encode())])

    def paths(self, n_paths=None) -> PathSet:
        """The first ``n_paths`` (default ``mc.n_paths``) paths.

        Every request reads the context's one simulation, made on first use at
        the largest size any suite asks for; path p does not depend on that size.
        """
        mc = self.mc
        if self._paths is None:
            self._paths = simulate_path_set(mc.lam, mc.t_real, mc.simulated_n_paths, self.seed)
        return self._paths.prefix(n_paths or mc.n_paths)

    def processes(self, b: EnlargementBundle) -> BundleProcesses:
        """Bundle ``b``'s processes, one set per bundle for the whole run.

        The key is the bundle object (bundles hash by identity), not its name:
        the drawn unions share a name but not their processes.
        """
        return self._processes.setdefault(b, BundleProcesses(b))


def _bounded(name: str, gaps: dict, ok: bool = True, **evidence) -> CheckResult:
    """A row that holds iff ``ok`` and each family of gaps is within its own tolerance.

    ``gaps`` maps an evidence key to ``(tol, *family)``, the family's gaps each
    a float or an array.  The family's :func:`max_gap` is reported under its
    key, so a NaN anywhere in it fails the row and reads "nan".
    """
    worst = {key: max_gap(*family) for key, (_, *family) in gaps.items()}
    ok = ok and all(worst[key] <= tol for key, (tol, *_) in gaps.items())
    return _check(name, ok, **worst, **evidence)


def _random_closures(rng: np.random.Generator, filtration, count: int) -> np.ndarray:
    """``count`` random closure targets, all drawn before any is solved."""
    n = filtration.space.n_atoms
    return martingale_closures(rng.normal(size=(count, n)), filtration)


def _union_targets(rng: np.random.Generator, unions: list, count: int) -> list:
    """``count`` random targets per union: each drawn fixture's (count, n) is one ``rng.normal`` call, in id order,
    straight into its segment, as ``_random_closures`` draws them for the lone fixtures; the filler's target is 0."""
    targets = [np.zeros((count, b.space.n_atoms)) for b, *_ in unions]
    spans = sorted((i, u, starts[j], starts[j + 1]) for u, (_, starts, pairs, _) in enumerate(unions)
                   for j, i in enumerate(pairs))
    for _, u, start, stop in spans:
        targets[u][:, start:stop] = rng.normal(size=(count, stop - start))
    return targets


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
        _bounded(
            "identity_integrand",
            {"residual_sup": (EXACT_TOL, sol.residual_sup)},
            ok=float(np.abs(sol.integrands["K"][:, 1:]).min()) > 0.5,
        )
    )

    rng = ctx.rng("prp")
    xis = []
    for _ in range(25):
        coef = rng.normal(size=3)
        xis.append(coef[0] * b.X.terminal**2 + coef[1] * b.X.terminal + coef[2])
    sol = solve_batch(martingale_closures(xis, b.f), [m.increments()], b.f)
    checks.append(_bounded("single_source_solvable", {"worst_residual": (EXACT_TOL, sol.residual_sup)}))

    # initial sigma-field carrying the first jump time keeps the tree binary
    space = build_space([1.0 / 8.0] * 8)
    dx = np.array([[(a >> 2) & 1, (a >> 1) & 1, a & 1] for a in range(8)])
    x_vals = np.zeros((8, 4))
    x_vals[:, 1:] = np.cumsum(dx, axis=1)
    base = natural_filtration(space, [x_vals])
    fjt = first_jump_time(PointProcess(base, x_vals)).values
    f = initial_enlargement(base, Partition.from_labels(fjt))
    m3 = compensator(PointProcess(f, x_vals)).martingale_part
    ys = martingale_closures([rng.normal(size=8) for _ in range(25)], f)
    sol = solve_batch(ys, [m3.increments()], f)
    checks.append(
        _bounded("initially_enlarged_still_solvable", {"worst_residual": (EXACT_TOL, sol.residual_sup)})
    )

    m_g = compensator(b.X).martingale_part
    y = martingale_closure(b.H.terminal, b.g)
    sol = solve_prp(y, m_g)
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
    bundles += [b for b, *_ in fixtures.random_pair_unions(rng, 10)]  # one union of the random pairs per horizon
    brackets, recons, thirds = [], [], {}
    for b in bundles:
        y1, y2, y3 = joint_decomposition(b.X, b.H)  # validates counting-path shape
        thirds[b.name] = y3
        for a, c in ((y1, y2), (y1, y3), (y2, y3)):
            brackets.append(quadratic_covariation(a, c).sup_abs())
        recons += [
            positive_sup(b.space, y1.values + y3.values - b.X.values),
            positive_sup(b.space, y2.values + y3.values - b.H.values),
        ]
    checks.append(
        _bounded(
            "disjoint_decomposition",
            {"worst_bracket": (ATOMWISE_TOL, brackets)},
            ok=max_gap(recons) == 0.0,
        )
    )

    b = fixtures.space_a()
    joint_mean = b.space.expectation(thirds[b.name].terminal)
    checks.append(
        _check(
            "joint_count_mean",
            abs(joint_mean - 0.5) <= ATOMWISE_TOL,
            joint_mean=joint_mean,
        )
    )
    return checks


def mark_split_checks(
    b: EnlargementBundle, mu: MarkedMeasure, nu: MarkedMeasure, zs, rng: np.random.Generator, count: int
):
    """Thm 3.3 on ``count`` random predictable functions W, worked in chunks of W.

    Per W, in draw order: the drift check of W * (mu - nu), and the sup over
    positive atoms of its gap to sum_k W_k . Z_k, ``zs`` being the
    fundamental martingales.  W_i's mark k is row 3i + k of the draws; the
    stochastic integrals check each chunk's predictability.
    """
    checks, gaps = [], []
    step = chunk_length(b.g)
    for lo in range(0, count, step):
        ws = fixtures.random_predictable_stack(rng, b.g, min(step, count - lo) * len(MARKS))
        ws = ws.reshape((-1, len(MARKS)) + ws.shape[1:])
        diff = integrals(ws, mu) - integrals(ws, nu)
        checks += martingale_checks(diff, b.g)
        split = sum(stochastic_integrals(ws[:, k], z) for k, z in enumerate(zs))
        gaps.append(positive_sups(b.space, diff - split))
    return checks, np.concatenate(gaps)


@_suite(
    "jump_measure_compensator", "exact", "Thm 3.3; Eqs. (ju.mea.spp), (ju.mea.spp.com), (int1)-(int3)",
    "jump measure, its predictable compensator, and the mark-split integrals",
)
def suite_jump_measure(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("measure")
    n_w = 100
    drifts, matches, masses = [], [], []
    for b in _rep_fixtures(ctx):
        p = ctx.processes(b)
        bracket = quadratic_covariation(b.X, b.H)
        expected_mass = b.X.values + b.H.values - bracket.values
        masses.append(positive_sup(b.space, p.mu.mass().values - expected_mass))
        drift_checks, gaps = mark_split_checks(b, p.mu, p.nu, p.zs, rng, n_w)
        drifts += [0.0 if c else abs(c.witness[2]) for c in drift_checks]
        matches.append(gaps)
    checks.append(
        _bounded(
            "compensated_integral_is_martingale", {"worst_drift": (0.0, drifts)}, functions_per_fixture=n_w
        )
    )
    checks.append(_bounded("integral_splits_across_marks", {"worst_gap": (ATOMWISE_TOL, *matches)}))
    checks.append(_bounded("total_mass_formula", {"worst_gap": (ATOMWISE_TOL, masses)}))

    b = fixtures.space_a()
    nu = ctx.processes(b).nu
    densities = [positive_sup(b.space, nu.indicator_increments(mark)[:, 1:] - 0.25) for mark in MARKS]
    ones = PredictableFunction.constant(b.g, 1.0)
    expected = 0.75 * np.arange(b.g.horizon + 1)[None, :]
    unit = positive_sup(b.space, integrate(ones, nu).values - expected)
    checks.append(
        _bounded(
            "uniform_fixture_densities",
            {"density_gap": (ATOMWISE_TOL, densities), "unit_integral_gap": (ATOMWISE_TOL, unit)},
        )
    )

    a2 = fixtures.fixture_a2()
    nu2 = ctx.processes(a2).nu
    target = {MARKS[0]: 0.3, MARKS[1]: 0.5, MARKS[2]: 0.0}
    a2_gaps = [positive_sup(a2.space, nu2.indicator_increments(m)[:, 1] - target[m]) for m in MARKS]
    checks.append(_bounded("three_atom_densities", {"gap": (ATOMWISE_TOL, a2_gaps)}))
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
    named = _rep_fixtures(ctx) + [h_only, fine_r]
    n_random = 5
    unions = [b for b, *_ in fixtures.random_pair_unions(rng, n_random)]  # one union of the random pairs per horizon
    all_ok = all(all(verify_filtration_identities(b).values()) for b in named + unions)
    checks.append(_check("enlargement_identities", all_ok, bundles=len(named) + n_random))

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
    residuals = []
    for b in _rep_fixtures(ctx):
        p = ctx.processes(b)
        sol = solve_batch(_random_closures(rng, b.g, 100), wrp_regressors(p.mu, p.nu), b.g)
        residuals.append(sol.residual_sup)
    count = sum(r.size for r in residuals)
    checks.append(
        _bounded("every_martingale_represented", {"worst_residual": (EXACT_TOL, *residuals)}, solves=count)
    )

    b = fixtures.fixture_a2()
    p = ctx.processes(b)
    xi = np.array([0.0, 0.0, 1.0])
    sol = solve_wrp(martingale_closure(xi, b.g), p.mu, p.nu)
    checks.append(
        _bounded(
            "three_atom_solution_avoids_dead_mark",
            {
                "residual_sup": (EXACT_TOL, sol.residual_sup),
                "joint_mark_weight": (ATOMWISE_TOL, positive_sup(b.space, sol.integrands["W(1, 1)"])),
            },
        )
    )

    y_const = martingale_closure(np.ones(b.space.n_atoms), b.g)
    sol = solve_wrp(y_const, p.mu, p.nu)
    weights = [positive_sup(b.space, v) for v in sol.integrands.values()]
    checks.append(_bounded("constant_target_gets_zero_function", {"max_weight": (ATOMWISE_TOL, weights)}))
    return checks


@_suite(
    "triple_representation", "exact", "Thm 3.5(ii), Eq. (prp.spp); Eq. (rep.stopped)",
    "three-integrand representation, equivalent to the measure form, incl. stopped targets",
)
def suite_triple(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("triple")
    residuals, equivs = [], []
    for b in _rep_fixtures(ctx):
        p = ctx.processes(b)
        regs = triple_regressors(*p.zs)
        ys = _random_closures(rng, b.g, 100)
        # the first 20 are also solved in the measure form; one solve of all 100 would move solver bits
        head = solve_batch(ys[:20], regs, b.g)
        rest = solve_batch(ys[20:], regs, b.g)
        other = solve_batch(ys[:20], wrp_regressors(p.mu, p.nu), b.g)
        residuals += [head.residual_sup, rest.residual_sup]
        gap = head.reconstructions - other.reconstructions
        equivs.append(positive_sup(b.space, np.swapaxes(gap, 0, 1)))  # atoms first
    checks.append(_bounded("triple_integrals_represent", {"worst_residual": (EXACT_TOL, *residuals)}))
    checks.append(_bounded("triple_matches_measure_form", {"worst_gap": (ATOMWISE_TOL, equivs)}))

    b = fixtures.space_a()
    z1, z2, z3 = ctx.processes(b).zs
    sol = solve_triple(AdaptedProcess(b.g, z2.values), z1, z2, z3)
    off = [positive_sup(b.space, sol.integrands[k][:, 1:]) for k in ("K1", "K3")]
    on = positive_sup(b.space, sol.integrands["K2"][:, 1:] - 1.0)
    checks.append(
        _bounded(
            "picks_out_own_coordinate",
            {"residual_sup": (EXACT_TOL, sol.residual_sup), "off_weights": (ATOMWISE_TOL, off)},
            ok=on <= ATOMWISE_TOL,
        )
    )

    residuals = []
    # the random times as one union per horizon, each random time's targets drawn into its segment
    unions = fixtures.random_pair_unions(rng, 5, fixtures.random_time_draw)
    stopped = [(rb, _random_closures(rng, rb.g, 20)) for rb in (fixtures.staggered(), fixtures.avoidance_trinomial())]
    stopped += [(b, martingale_closures(ys, b.g)) for (b, *_), ys in zip(unions, _union_targets(rng, unions, 20))]
    for rb, ys in stopped:
        st = tau_of(rb)
        regs = triple_regressors(*ctx.processes(rb).zs, stop_at=st)
        residuals.append(solve_batch(stop_values(ys, st), regs, rb.g).residual_sup)
    checks.append(_bounded("stopped_representation", {"worst_residual": (EXACT_TOL, *residuals)}))
    return checks


@_suite(
    "completeness_random_spaces", "exact", "Corollary (stable subspaces) (i)",
    "zero residuals for random targets across seeded random spaces",
)
def suite_completeness(ctx: SuiteContext) -> list[CheckResult]:
    rng = ctx.rng("completeness")
    n_random, count = 50, 100
    # the random spaces as one disjoint-union bundle per horizon, the filler segment last
    unions = fixtures.random_pair_unions(rng, n_random)
    named = _rep_fixtures(ctx)
    problems = [(b, _random_closures(rng, b.g, count)) for b in named]
    problems += [(b, martingale_closures(ys, b.g)) for (b, *_), ys in zip(unions, _union_targets(rng, unions, count))]
    residuals = []
    for b, ys in problems:
        p = ctx.processes(b)
        for regs in (wrp_regressors(p.mu, p.nu), triple_regressors(*p.zs)):
            residuals.append(solve_batch(ys, regs, b.g).residual_sup)
    spaces = len(named) + n_random
    return [
        _bounded(
            "dense_by_zero_residuals",
            {"worst_residual": (EXACT_TOL, *residuals)},
            solves=2 * count * spaces,
            spaces=spaces,
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
    targets = np.vstack([b.X.terminal * b.H.terminal, rng.normal(size=(20, b.space.n_atoms))])
    zs = ctx.processes(b).zs
    sol, gaps = independent_batch(martingale_closures(targets, b.g), b, zs)
    checks.append(
        _bounded(
            "orthogonal_basis_represents",
            {
                "worst_residual": (EXACT_TOL, sol.residual_sup),
                "worst_orthogonality": (ATOMWISE_TOL, gaps["basis_orthogonality_gap"]),
            },
        )
    )
    checks.append(
        _bounded(
            "change_of_basis_identities",
            {
                "worst_identity_gap": (ATOMWISE_TOL, gaps["basis_identity_gap"]),
                "worst_factorisation_gap": (EXACT_TOL, gaps["bracket_factorisation_gap"]),
            },
        )
    )
    checks.append(_bounded("pythagoras_identity", {"worst_gap": (EXACT_TOL, gaps["pythagoras_gap"])}))

    xbar = compensator(b.X).martingale_part
    hbar = compensator(b.H).martingale_part
    cross = quadratic_covariation(xbar, hbar)
    sol = independent_decomposition(cross, b, zs)
    off = max_gap([positive_sup(b.space, sol.integrands[k][:, 1:]) for k in ("K1", "K2")])
    checks.append(
        _bounded(
            "bracket_picks_third_coordinate",
            {"residual_sup": (EXACT_TOL, sol.residual_sup)},
            ok=off <= ATOMWISE_TOL,
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
        ("avoidance_trinomial", fixtures.avoidance_trinomial().g, 2),
        ("staggered", fixtures.staggered().g, 1),
    ]
    for label, filt, expected in cases:
        got = multiplicity(filt)
        spanning = orthogonal_spanning_martingales(filt)
        values = np.stack([m.values for m in spanning])
        drift_ok = all(martingale_checks(values, filt))
        incs = time_increments(values)
        first, second = np.triu_indices(len(spanning), 1)
        brackets = np.cumsum(incs[first] * incs[second], axis=-1)
        orth = positive_sups(filt.space, dual_projections(brackets, filt))
        sol = solve_batch(_random_closures(rng, filt, 20), list(incs), filt)
        checks.append(
            _bounded(
                f"spanning_number_{label}",
                {
                    "certificate_residual": (EXACT_TOL, sol.residual_sup),
                    "certificate_orthogonality": (ATOMWISE_TOL, 0.0, orth),  # a family of one has no pairs
                },
                ok=got == expected and len(spanning) == expected and drift_ok,
                computed=got,
                expected_value=expected,
            )
        )

    # pair by pair: one union's maximum would hide a pair whose G branches less than its F
    ok = all(
        (spanning_numbers(b.g, starts) >= spanning_numbers(b.f, starts)).all()
        for b, starts, _, _ in fixtures.random_pair_unions(rng, 10)
    )
    checks.append(_check("monotone_under_refinement", ok))
    return checks


@_suite(
    "azema_compensator", "exact", "Eq. (G.com.gen)",
    "survival-driven compensator formula cross-validated against the direct one",
)
def suite_azema(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rng = ctx.rng("azema")
    two_step = fixtures.two_step_independent_random_time()
    announced = fixtures.announced_tau_random_time()
    never = fixtures.never_random_time()
    named = [two_step, announced, never, fixtures.staggered(), fixtures.avoidance_trinomial()]
    n_random = 20
    # the random times as one union per horizon: a union's block masses are its random times' times
    # 2^exponent exactly, so its consistency gap is scaled back by 2^-exponent
    unions = fixtures.random_pair_unions(rng, n_random, fixtures.random_time_draw)
    bundles = [(rb, 0) for rb in named] + [(b, exponent) for b, _, _, exponent in unions]
    azemas = [survival(rb) for rb, _ in bundles]  # two_step's and never's are reused below
    cross, consistency, rise = [], [], []
    for (rb, exponent), azema in zip(bundles, azemas):
        cross.append(cross_validation_gap(rb, azema))
        consistency.append(np.ldexp(azema_consistency_gap(rb, azema), -exponent))
        rise.append(supermartingale_gap(rb, azema))
    checks.append(
        _bounded(
            "survival_formula_matches_direct_compensator",
            {"worst_gap": (EXACT_TOL, cross)},
            bundles=len(named) + n_random,
        )
    )
    checks.append(
        _bounded(
            "survival_process_consistent",
            {"worst_block_gap": (ATOMWISE_TOL, consistency), "worst_drift_up": (ATOMWISE_TOL, rise)},
        )
    )

    cand = compensator_via_azema(two_step, azemas[0])
    survivors = tau_of(two_step).values >= 2
    vals_ok = (
        positive_sup(two_step.space, cand.values[:, 1] - 0.5) <= ATOMWISE_TOL
        and positive_sup(two_step.space, np.where(survivors, cand.values[:, 2] - 1.5, 0.0)) <= ATOMWISE_TOL
    )
    checks.append(_check("independent_uniform_profile", vals_ok))

    gap = positive_sup(announced.space, compensator(announced.H).compensator.values - announced.H.values)
    checks.append(_bounded("announced_time_is_its_own_compensator", {"gap": (ATOMWISE_TOL, gap)}))

    sups = [compensator_via_azema(never, azemas[2]).sup_abs(), compensator(never.H).compensator.sup_abs()]
    checks.append(_bounded("never_time_compensates_to_zero", {"sup": (0.0, sups)}))
    return checks


@_suite(
    "avoidance_discrete", "exact", "Prop 4.4", "avoidance of jump times and its exact consequences"
)
def suite_avoidance_discrete(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    rb = fixtures.staggered()
    zs = ctx.processes(rb).zs
    rep = avoidance_check(rb, zs=zs)
    checks.append(
        _check(
            "staggered_avoids_and_conclusions_hold",
            rep.avoids and bool(rep.conclusions_hold),
            jump_collision_prob=rep.jump_collision_prob,
            conclusions={k: bool(v) for k, v in rep.conclusions.items()},
        )
    )

    rep = avoidance_check(rb, [StoppingTime.constant(rb.g, 2)], zs)
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

    never = fixtures.never_random_time()
    rep = avoidance_check(never, zs=ctx.processes(never).zs)
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
    named = [fixtures.staggered(), fixtures.avoidance_trinomial(), fixtures.two_step_independent_random_time()]
    n_random = 5
    # each named random time is the one segment of its surrogate checks, the drawn ones one union per horizon
    runs = [(rb, [0]) for rb in named]
    runs += [(b, starts) for b, starts, _, _ in fixtures.random_pair_unions(rng, n_random, fixtures.random_time_draw)]
    studies = [surrogate_segments(b, starts) for b, starts in runs]
    checks.append(
        _check(
            "orthogonality_matches_predictable_jump_surrogate",
            all(ok.all() for study in studies for _, _, ok in study),
            bundles=len(named) + n_random,
        )
    )

    staggered, trinomial = ({label: toolkit for label, toolkit, _ in study} for study in studies[:2])
    checks.append(
        _check(
            "staggered_fully_orthogonal",
            all(toolkit.orthogonal[0] for toolkit in staggered.values()),
            multiplicity=multiplicity(named[0].g),
        )
    )

    overlap, spanning = trinomial["part1_vs_part2"], multiplicity(named[1].g)
    witness = overlap.first_move()
    checks.append(
        _check(
            "overlapping_compensators_report_witness",
            (not overlap.orthogonal[0])
            and witness is not None
            and trinomial["part1_vs_joint"].orthogonal[0]
            and trinomial["part2_vs_joint"].orthogonal[0]
            and spanning == 2,
            witness=str(witness),
            multiplicity=spanning,
        )
    )
    return checks


@_suite(
    "orthogonality_toolkit", "exact", "Lemma A.1(i)-(v); Eq. (sbYsZs); Poisson remark",
    "bracket/compensator toolkit on random pairs, with the self-bracket pattern",
)
def suite_orthogonality_toolkit(ctx: SuiteContext) -> list[CheckResult]:
    checks = []
    n_pairs = 200
    clause_ok = True
    identity_gaps = []
    # one pass per horizon: the pairs as segments of a disjoint-union bundle, the filler segment last
    for bundle, starts, pairs, _ in fixtures.random_pair_unions(ctx.rng("toolkit"), n_pairs):
        toolkit = orthogonality_segments(bundle.X, bundle.H, starts)
        k = len(pairs)
        clause_ok = clause_ok and all(v[:k].all() for v in toolkit.clauses.values())
        identity_gaps.append(toolkit.decomposition_gap[:k])
    checks.append(
        _bounded(
            "toolkit_clauses_on_random_pairs",
            {"worst_identity_gap": (ATOMWISE_TOL, *identity_gaps)},
            ok=clause_ok,
            pairs=n_pairs,
        )
    )

    a2 = fixtures.fixture_a2()
    toolkit = orthogonality_segments(a2.X, a2.H, [0])
    product = float(toolkit.predictable_jump_product[:, 1].max())
    checks.append(
        _check(
            "common_predictable_jump_quantified",
            toolkit.jumps_disjoint[0]
            and not toolkit.orthogonal[0]
            and abs(product - 0.15) <= ATOMWISE_TOL,
            predictable_jump_product=product,
            witness=str(toolkit.first_move()),
        )
    )

    b = fixtures.space_a()
    toolkit = orthogonality_segments(b.X, b.X, [0])
    self_comp = dual_projection(quadratic_covariation(b.X, b.X), b.g)
    own = compensator(b.X).compensator
    grid = 0.5 * np.arange(b.g.horizon + 1)[None, :]
    pattern_ok = (
        positive_sup(b.space, self_comp.values - own.values) <= ATOMWISE_TOL
        and positive_sup(b.space, own.values - grid) <= ATOMWISE_TOL
        and positive_sup(b.space, toolkit.bracket_compensators) > 0.01
        and not toolkit.orthogonal[0]
        and not martingale_checks(toolkit.bracket_bar, b.g)[0]
    )
    checks.append(
        _check(
            "self_bracket_compensates_to_compensator",
            pattern_ok,
            bracket_compensator_terminal=float(self_comp.values[0, -1]),
            compensator_bracket_terminal=float(toolkit.bracket_compensators[0, -1]),
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
    toolkit = orthogonality_segments(a2.X, a2.H, [0])
    result = _check(
        "disjoint_jumps_orthogonality",
        toolkit.orthogonal[0],
        jumps_disjoint=toolkit.jumps_disjoint[0],
        witness=str(toolkit.first_move()),
        bar_bracket_terminal_mean=float(a2.space.expectation(toolkit.bracket_bar[:, -1])),
    )
    result.expected = ctx.expected_outcome
    sanity = _check("jumps_actually_disjoint", toolkit.jumps_disjoint[0])
    return [result, sanity]


# ---------------------------------------------------------------------------
# Monte Carlo suites


@_suite(
    "mc_poisson_compensator", "mc", "Poisson remark (compensator lambda*t)",
    "compensated Poisson count drifts zero against adapted probes",
)
def suite_mc_poisson(ctx: SuiteContext) -> list[CheckResult]:
    return poisson_compensator_suite(ctx.paths(), ctx.mc.z_max)


@_suite(
    "mc_compensator_second_moment", "mc", "Eq. (pb.XsF)",
    "second moment of the compensated count equals the compensator",
)
def suite_mc_second_moment(ctx: SuiteContext) -> list[CheckResult]:
    return second_moment_suite(ctx.paths(), ctx.mc.z_max)


@_suite(
    "mc_azema_exponential", "mc", "Eq. (G.com.gen)",
    "closed-form survival compensator for an independent exponential time",
)
def suite_mc_azema(ctx: SuiteContext) -> list[CheckResult]:
    return azema_exponential_suite(ctx.paths(), ctx.mc.mu, ctx.mc.z_max)


@_suite(
    "mc_avoidance", "mc", "Prop 4.4",
    "exact avoidance fraction and enlarged-drift tests, with a stress rate",
)
def suite_mc_avoidance(ctx: SuiteContext) -> list[CheckResult]:
    mc = ctx.mc
    out = avoidance_mc_suite(ctx.paths(), mc.mu, mc.z_max)
    for c in avoidance_mc_suite(ctx.paths(mc.stress_n_paths), 25.0 * mc.mu, mc.z_max):
        c.name = "stress_" + c.name
        out.append(c)
    return out


@_suite(
    "mc_predictable_jump", "mc", "Counterexample 4.8; Assumption A2",
    "announced-window hit rate 1 vs base-window rate about lambda*eps",
)
def suite_mc_predictable_jump(ctx: SuiteContext) -> list[CheckResult]:
    return predictable_jump_probe(ctx.paths(), ctx.mc.epsilons, ctx.mc.z_max)


@_suite(
    "mc_negative_controls", "mc", "negative controls",
    "engineered failures guarding test power (expected failure)",
    honours_polarity=True,
)
def suite_mc_negative_controls(ctx: SuiteContext) -> list[CheckResult]:
    rows = negative_control_suite(ctx.paths(), ctx.mc.mu, ctx.mc.z_max)
    for row in rows:
        row.expected = ctx.expected_outcome
    return rows


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
