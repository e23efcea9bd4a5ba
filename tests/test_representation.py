import numpy as np
import pytest
from conftest import (
    oracle_independence_violation,
    oracle_nodewise_lstsq,
    oracle_residual_sup,
    random_filtration,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures
from filtration_lab.calculus import (
    compensator,
    dual_projection,
    is_martingale,
    quadratic_covariation,
)
from filtration_lab.enlargement import build_bundle
from filtration_lab.errors import IndependenceViolated, NotMartingale
from filtration_lab.finite_space import AdaptedProcess, PointProcess, build_space
from filtration_lab.jump_measure import compensator_measure, fundamental_martingales, jump_measure
from filtration_lab.random_time import stopping_time
from filtration_lab.representation import (
    SV_CUTOFF,
    independent_batch,
    independent_decomposition,
    martingale_closure,
    martingale_closures,
    multiplicity,
    orthogonal_spanning_martingales,
    solve_batch,
    solve_in_basis,
    solve_prp,
    solve_triple,
    solve_wrp,
    triple_regressors,
    verify_independence,
    wrp_regressors,
)


class TestMartingaleClosure:
    def test_constant_variable(self, space_a_bundle):
        y = martingale_closure(np.full(16, 2.5), space_a_bundle.g)
        assert np.allclose(y.values, 2.5, atol=1e-15)

    def test_terminal_count_closure(self, space_a_bundle):
        b = space_a_bundle
        y = martingale_closure(b.X.terminal, b.g)
        expected = b.X.values + 0.5 * (2.0 - np.arange(3))[None, :]
        assert np.allclose(y.values, expected, atol=1e-14)

    def test_indicator_closure_on_three_atoms(self, a2_bundle):
        y = martingale_closure(np.array([1.0, 0.0, 0.0]), a2_bundle.g)
        assert np.allclose(y.values[:, 0], 0.3, atol=1e-15)
        assert np.array_equal(y.values[:, 1], [1.0, 0.0, 0.0])

    def test_closure_is_martingale_hitting_target(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            b = fixtures.random_bundle(rng)
            xi = rng.normal(size=b.space.n_atoms)
            y = martingale_closure(xi, b.g)
            assert bool(is_martingale(y))
            # terminal values agree wherever the tree separates atoms
            proj = martingale_closure(y.terminal, b.g)
            assert np.allclose(proj.terminal, y.terminal, atol=1e-12)


class TestSingleSourceRepresentation:
    def test_self_representation(self, space_a_bundle):
        b = space_a_bundle
        x_f = PointProcess(b.f, b.X.values)
        m = compensator(x_f).martingale_part
        sol = solve_prp(m, m)
        assert sol.residual_sup <= 1e-12
        assert np.allclose(sol.integrands["K"][:, 1:], 1.0, atol=1e-12)

    def test_binary_tree_always_solvable(self, space_a_bundle):
        b = space_a_bundle
        rng = np.random.default_rng(42)
        x_f = PointProcess(b.f, b.X.values)
        m = compensator(x_f).martingale_part
        for _ in range(25):
            xi = rng.normal() * b.X.terminal ** 2 + rng.normal() * b.X.terminal
            sol = solve_prp(martingale_closure(xi, b.f), m, b.f)
            assert sol.residual_sup <= 1e-9

    def test_joint_filtration_four_way_branching_fails(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        y = martingale_closure(b.H.terminal, b.g)
        sol = solve_prp(y, m, b.g)
        assert sol.residual_sup > 0.5

    def test_rejects_non_martingale_target(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        with pytest.raises(NotMartingale):
            solve_prp(b.X, m, b.g)


class TestMeasureAndTripleRepresentation:
    def test_constant_target_zero_function(self, a2_bundle):
        b = a2_bundle
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        sol = solve_wrp(martingale_closure(np.ones(3), b.g), mu, nu)
        assert sol.residual_sup <= 1e-15
        assert max(np.abs(v).max() for v in sol.integrands.values()) <= 1e-15

    def test_uniform_fixture_product_target(self, space_a_bundle):
        b = space_a_bundle
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        y = martingale_closure(b.X.terminal * b.H.terminal, b.g)
        assert solve_wrp(y, mu, nu).residual_sup <= 1e-9

    def test_three_atom_indicator_avoids_dead_mark(self, a2_bundle):
        b = a2_bundle
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        sol = solve_wrp(martingale_closure(np.array([0.0, 0.0, 1.0]), b.g), mu, nu)
        assert sol.residual_sup <= 1e-9
        assert np.abs(sol.integrands["W(1, 1)"]).max() <= 1e-12
        assert np.abs(sol.integrands["W(1, 0)"][:, 1] + 1.0).max() <= 1e-12
        assert np.abs(sol.integrands["W(0, 1)"][:, 1] + 1.0).max() <= 1e-12

    def test_triple_picks_own_coordinate(self, space_a_bundle):
        b = space_a_bundle
        z1, z2, z3 = fundamental_martingales(b.X, b.H)
        sol = solve_triple(AdaptedProcess(b.g, z2.values), z1, z2, z3)
        assert sol.residual_sup <= 1e-12
        assert np.abs(sol.integrands["K2"][:, 1:] - 1.0).max() <= 1e-12
        assert np.abs(sol.integrands["K1"][:, 1:]).max() <= 1e-12
        assert np.abs(sol.integrands["K3"][:, 1:]).max() <= 1e-12

    def test_forms_agree_and_both_solve(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            b = fixtures.random_bundle(rng)
            mu = jump_measure(b.X, b.H)
            nu = compensator_measure(mu)
            z1, z2, z3 = fundamental_martingales(b.X, b.H)
            y = martingale_closure(rng.normal(size=b.space.n_atoms), b.g)
            a = solve_wrp(y, mu, nu)
            c = solve_triple(y, z1, z2, z3)
            assert a.residual_sup <= 1e-9
            assert c.residual_sup <= 1e-9
            assert np.abs(a.reconstruction.values - c.reconstruction.values).max() <= 1e-12

    def test_stopped_representation(self):
        rng = np.random.default_rng(44)
        bundles = [fixtures.staggered_random_time(), fixtures.trinomial_random_time()]
        bundles += [fixtures.random_random_time_bundle(rng) for _ in range(5)]
        for rb in bundles:
            z1, z2, z3 = fundamental_martingales(rb.X, rb.H)
            st = stopping_time(rb)
            for _ in range(10):
                y = martingale_closure(rng.normal(size=rb.g.space.n_atoms), rb.g)
                sol = solve_triple(y, z1, z2, z3, stop_at=st)
                assert sol.kind == "triple_stopped"
                assert sol.residual_sup <= 1e-9


class TestIndependentDecomposition:
    def test_orthogonal_basis_and_identities(self, space_a_bundle):
        b = space_a_bundle
        rng = np.random.default_rng(45)
        for _ in range(10):
            y = martingale_closure(rng.normal(size=16), b.g)
            sol = independent_decomposition(y, b)
            assert sol.residual_sup <= 1e-9
            assert sol.checks["basis_orthogonality_gap"] <= 1e-12
            assert sol.checks["basis_identity_gap"] <= 1e-12
            assert sol.checks["bracket_factorisation_gap"] <= 1e-9
            assert sol.checks["pythagoras_gap"] <= 1e-9

    def test_bracket_target_takes_third_coordinate(self, space_a_bundle):
        b = space_a_bundle
        xbar = compensator(b.X).martingale_part
        hbar = compensator(b.H).martingale_part
        cross = quadratic_covariation(xbar, hbar)
        sol = independent_decomposition(cross, b)
        assert sol.residual_sup <= 1e-12
        assert np.abs(sol.integrands["K1"][:, 1:]).max() <= 1e-12
        assert np.abs(sol.integrands["K2"][:, 1:]).max() <= 1e-12
        assert np.abs(sol.integrands["K3"][:, 1:] - 1.0).max() <= 1e-12

    def test_dependent_fixture_rejected(self):
        dep = fixtures.dependent()
        y = martingale_closure(dep.X.terminal, dep.g)
        with pytest.raises(IndependenceViolated):
            independent_decomposition(y, dep)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), product=st.booleans())
    def test_product_rule_matches_the_block_loop(self, seed, product):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 4))
        if product:  # X reads one factor of a product space, H the other: independent
            p = random_filtration(rng, int(rng.integers(1, 4)), 1).space.probs
            q = random_filtration(rng, int(rng.integers(1, 4)), 1).space.probs
            probs = np.outer(p, q).ravel()
            rows = np.repeat(np.arange(len(p)), len(q))
            cols = np.tile(np.arange(len(q)), len(p))
            dx = rng.integers(0, 2, (len(p), horizon))[rows]
            dh = rng.integers(0, 2, (len(q), horizon))[cols]
        else:
            probs = random_filtration(rng, int(rng.integers(1, 9)), 1).space.probs
            dx = rng.integers(0, 2, (len(probs), horizon))
            dh = rng.integers(0, 2, (len(probs), horizon))
        x, h = (np.concatenate([np.zeros((len(probs), 1)), d.cumsum(axis=1)], axis=1) for d in (dx, dh))
        b = build_bundle(build_space(probs), x, h)
        want = oracle_independence_violation(
            b.space.probs, b.f.partitions, b.h_filtration.partitions, 1e-9
        )
        if want is None:
            verify_independence(b)
        else:
            t, i, j = want
            with pytest.raises(IndependenceViolated, match=f"t={t}, F-block {i}, H-block {j}:"):
                verify_independence(b)


class TestMultiplicity:
    def test_known_spanning_numbers(self):
        assert multiplicity(fixtures.space_a().f) == 1
        assert multiplicity(fixtures.space_a().g) == 3
        assert multiplicity(fixtures.trinomial_random_time().g) == 2
        assert multiplicity(fixtures.staggered().g) == 1

    def test_certificates(self):
        rng = np.random.default_rng(46)
        for filt, expected in (
            (fixtures.space_a().f, 1),
            (fixtures.space_a().g, 3),
            (fixtures.trinomial_random_time().g, 2),
        ):
            spanning = orthogonal_spanning_martingales(filt)
            assert len(spanning) == expected
            for i, mi in enumerate(spanning):
                assert bool(is_martingale(mi))
                for mj in spanning[i + 1 :]:
                    gap = dual_projection(quadratic_covariation(mi, mj), filt).sup_abs()
                    assert gap <= 1e-12
            for _ in range(10):
                y = martingale_closure(rng.normal(size=filt.space.n_atoms), filt)
                assert solve_in_basis(y, spanning).residual_sup <= 1e-9

    def test_fewer_martingales_cannot_span(self, space_a_bundle):
        # dropping one of the three leaves a visible residual on the joint tree
        b = space_a_bundle
        spanning = orthogonal_spanning_martingales(b.g)
        y = martingale_closure(b.X.terminal * b.H.terminal, b.g)
        assert solve_in_basis(y, spanning[:2]).residual_sup > 1e-3

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            b = fixtures.random_bundle(rng)
            assert multiplicity(b.g) >= multiplicity(b.f)


def _bundle_with_null_atoms(rng, b):
    """The same paths with about a third of the atoms given probability 0."""
    probs = b.space.probs.copy()
    probs[rng.random(probs.size) < 0.35] = 0.0
    if probs.sum() == 0.0:
        probs[0] = 1.0
    space = build_space(probs / probs.sum())
    return build_bundle(space, b.X.values, b.H.values, initial=b.initial, name="null_atoms")


def _regressor_family(kind, b):
    mu = jump_measure(b.X, b.H)
    wrp = wrp_regressors(mu, compensator_measure(mu))
    if kind == "wrp":
        return wrp
    if kind == "triple":
        return triple_regressors(*fundamental_martingales(b.X, b.H))
    # a repeated and a zero regressor make every node rank-deficient
    return wrp + [wrp[0], np.zeros_like(wrp[0])]


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.sampled_from([1, 2, 100]),
        null_atoms=st.booleans(),
        kind=st.sampled_from(["wrp", "triple", "rank_deficient"]),
    )
    def test_matches_per_target_lstsq(self, seed, k, null_atoms, kind):
        rng = np.random.default_rng(seed)
        b = fixtures.random_bundle(rng)
        if null_atoms:
            b = _bundle_with_null_atoms(rng, b)
        regs = _regressor_family(kind, b)
        ys = martingale_closures(rng.normal(size=(k, b.space.n_atoms)), b.g)
        batch = solve_batch(ys, regs, b.g, keep_integrands=True, keep_reconstructions=True)
        oracle = oracle_nodewise_lstsq(list(ys), regs, b.g, SV_CUTOFF)
        assert batch.integrands.shape == oracle.shape == (len(regs), k) + ys.shape[1:]
        assert np.abs(batch.integrands - oracle).max() <= 1e-12
        probs = b.space.probs
        for i, y in enumerate(ys):
            want = oracle_residual_sup(y, oracle[:, i], regs, probs)
            assert abs(batch.residual_sup[i] - want) <= 1e-12
            assert batch.residual_sup[i] == np.abs(y - batch.reconstructions[i])[probs > 0.0].max()

    def test_cutoff_is_relative_to_the_largest_singular_value(self, space_a_bundle):
        # a regressor scaled by 1e-6 still spans its direction; one scaled by
        # 1e-14 falls under the 1e-12 cutoff and gets integrand 0
        b = space_a_bundle
        z1, z2, z3 = triple_regressors(*fundamental_martingales(b.X, b.H))
        ys = martingale_closures(np.random.default_rng(52).normal(size=(3, 16)), b.g)
        kept = solve_batch(ys, [z1, 1e-6 * z2, z3], b.g)
        assert kept.residual_sup.max() <= 1e-9
        cut = solve_batch(ys, [z1, 1e-14 * z2, z3], b.g, keep_integrands=True)
        assert cut.residual_sup.min() > 1e-3
        assert np.abs(cut.integrands[1]).max() <= 1e-9

    def test_single_target_wrappers_match_the_batch(self):
        rng = np.random.default_rng(48)
        b = fixtures.random_bundle(rng)
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        ys = martingale_closures(rng.normal(size=(5, b.space.n_atoms)), b.g)
        batch = solve_batch(ys, wrp_regressors(mu, nu), b.g, keep_integrands=True)
        for i, y in enumerate(ys):
            sol = solve_wrp(AdaptedProcess(b.g, y), mu, nu)
            got = np.stack(list(sol.integrands.values()))
            assert np.abs(got - batch.integrands[:, i]).max() <= 1e-12
            assert abs(sol.residual_sup - batch.residual_sup[i]) <= 1e-12

    def test_drift_failure_names_the_first_drifting_target(self, space_a_bundle):
        b = space_a_bundle
        ys = martingale_closures(np.random.default_rng(49).normal(size=(4, 16)), b.g)
        ys[2] += b.X.values
        ys[3] += b.X.values
        regs = triple_regressors(*fundamental_martingales(b.X, b.H))
        with pytest.raises(NotMartingale, match=r"^target 2 has nonzero drift at \(1, 0, "):
            solve_batch(ys, regs, b.g)

    def test_zero_regressors_leave_the_whole_increment(self, space_a_bundle):
        b = space_a_bundle
        y = martingale_closure(b.X.terminal, b.g)
        sol = solve_in_basis(y, [])
        assert sol.integrands == {}
        assert sol.residual_sup == np.abs(y.values - y.initial[:, None]).max()

    def test_closures_match_one_at_a_time(self, space_a_bundle):
        b = space_a_bundle
        xis = np.random.default_rng(50).normal(size=(6, 16))
        stacked = martingale_closures(xis, b.g)
        for xi, vals in zip(xis, stacked):
            assert np.abs(martingale_closure(xi, b.g).values - vals).max() <= 1e-15

    def test_independent_batch_matches_single_solves(self, space_a_bundle):
        b = space_a_bundle
        ys = martingale_closures(np.random.default_rng(51).normal(size=(6, 16)), b.g)
        batch, checks = independent_batch(ys, b)
        for i, y in enumerate(ys):
            sol = independent_decomposition(AdaptedProcess(b.g, y), b)
            assert abs(sol.residual_sup - batch.residual_sup[i]) <= 1e-12
            assert abs(sol.checks["pythagoras_gap"] - checks["pythagoras_gap"][i]) <= 1e-12
            for key in ("basis_orthogonality_gap", "basis_identity_gap", "bracket_factorisation_gap"):
                assert sol.checks[key] == checks[key]
