import json
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    BY_NAME_FIXTURES,
    RANDOM_TIME_FIXTURES,
    null_lift,
    oracle_chunked_reconstruction,
    oracle_independence_violation,
    oracle_nodewise_lstsq,
    oracle_pinv_per_node,
    oracle_positive_children,
    oracle_residual_sup,
    oracle_spanning_family,
    oracle_spanning_numbers,
    perfbench_workloads,
    random_bundle,
    random_filtration,
    random_random_time_bundle,
    relabel,
    split,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures, representation, suites
from filtration_lab.calculus import (
    compensator,
    compensators,
    dual_projection,
    dual_projections,
    is_martingale,
    martingale_checks,
    orthogonality_segments,
    quadratic_covariation,
)
from filtration_lab.cli import run_config
from filtration_lab.enlargement import build_bundle
from filtration_lab.errors import IndependenceViolated, NotMartingale
from filtration_lab.finite_space import (
    AdaptedProcess,
    Filtration,
    Partition,
    PointProcess,
    build_space,
    segment_sups,
    slice_expectations,
    slice_violation,
    stop_values,
)
from filtration_lab.jump_measure import compensator_measure, fundamental_martingales, jump_measure
from filtration_lab.random_time import surrogate_segments, tau_of
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
    spanning_numbers,
    triple_regressors,
    verify_independence,
    wrp_regressors,
)
from filtration_lab.serialize import bundle_from_doc


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
            b = random_bundle(rng)
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
            sol = solve_prp(martingale_closure(xi, b.f), m)
            assert sol.residual_sup <= 1e-9

    def test_joint_filtration_four_way_branching_fails(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        y = martingale_closure(b.H.terminal, b.g)
        sol = solve_prp(y, m)
        assert sol.residual_sup > 0.5

    def test_rejects_non_martingale_target(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        with pytest.raises(NotMartingale):
            solve_prp(b.X, m)


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
            b = random_bundle(rng)
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
        bundles = [fixtures.staggered(), fixtures.avoidance_trinomial()]
        bundles += [random_random_time_bundle(rng) for _ in range(5)]
        for rb in bundles:
            st = tau_of(rb)
            regs = triple_regressors(*fundamental_martingales(rb.X, rb.H), stop_at=st)
            xis = [rng.normal(size=rb.g.space.n_atoms) for _ in range(10)]
            sol = solve_batch(stop_values(martingale_closures(xis, rb.g), st), regs, rb.g)
            assert sol.residual_sup.max() <= 1e-9


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
        assert multiplicity(fixtures.avoidance_trinomial().g) == 2
        assert multiplicity(fixtures.staggered().g) == 1

    def test_certificates(self):
        rng = np.random.default_rng(46)
        for filt, expected in (
            (fixtures.space_a().f, 1),
            (fixtures.space_a().g, 3),
            (fixtures.avoidance_trinomial().g, 2),
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_children_match_the_containment_loop(self, seed):
        rng = np.random.default_rng(seed)
        trees = (
            random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 4)), zero_frac=0.3),
            _bundle_with_null_atoms(rng, random_bundle(rng)).g,
        )
        for filt in trees:
            probs = filt.space.probs
            nodes = oracle_positive_children(probs, filt)
            assert multiplicity(filt) == max(len(children) for _, _, children, _ in nodes) - 1
            family = orthogonal_spanning_martingales(filt)
            want = oracle_spanning_family(probs, filt, SV_CUTOFF)
            assert len(family) == len(want) == multiplicity(filt)
            assert all(m.values.tobytes() == w.tobytes() for m, w in zip(family, want))
            incs = [m.increments() for m in family]
            for t, node, children, masses in nodes:
                # each member is constant on every positive child and 0 on the node's null atoms
                outside = sorted(set(node) - {a for c in children for a in c})
                e = np.array([[inc[c[0], t] for c in children] for inc in incs])
                e = e.reshape(len(incs), len(children))
                for inc in incs:
                    for c in children:
                        assert np.all(inc[list(c), t] == inc[c[0], t])
                    assert np.all(inc[outside, t] == 0.0)
                # the first k-1 are centered and orthonormal under the node's child weights, the rest 0
                k = len(children)
                weights = np.array(masses) / float(probs[list(node)].sum())
                gram = (e * weights) @ e.T
                want = np.diag([1.0] * (k - 1) + [0.0] * (len(incs) - k + 1))
                np.testing.assert_allclose(gram, want, rtol=0.0, atol=1e-9)
                np.testing.assert_allclose(e @ weights, 0.0, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("tree", ["space_a", "large_tree"])
    def test_children_of_large_nodes_keep_the_bits(self, tree):
        # nodes of 16 to 256 atoms, where the order of a child's mass sum shows in its bits
        b = _large_tree(3) if tree == "large_tree" else fixtures.space_a()
        for filt in (b.f, b.g):
            want = oracle_spanning_family(filt.space.probs, filt, SV_CUTOFF)
            got = orthogonal_spanning_martingales(filt)
            assert [m.values.tobytes() for m in got] == [w.tobytes() for w in want]

    def test_spanning_family_walks_the_tree_once(self, monkeypatch):
        walks = []
        nodes = representation._nodes

        def counted(filtration):
            walks.append(filtration)
            return nodes(filtration)

        monkeypatch.setattr(representation, "_nodes", counted)
        b = _large_tree(3)
        family = orthogonal_spanning_martingales(b.g)
        assert walks == [b.g]
        assert len(family) == multiplicity(b.g) == 3

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            b = random_bundle(rng)
            assert multiplicity(b.g) >= multiplicity(b.f)

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_each_segment_has_its_lone_spanning_numbers(self, seed):
        rng = np.random.default_rng(seed)
        lone = [random_bundle(rng) for _ in range(60)]
        seen = set()
        for b, starts, pairs, _ in fixtures.random_pair_unions(np.random.default_rng(seed), 60):
            for filt, kind in ((b.g, "g"), (b.f, "f")):
                got = spanning_numbers(filt, starts)
                want = [multiplicity(getattr(lone[i], kind)) for i in pairs]
                assert got.tolist() == want + [0]  # the filler does not branch
                seen.update((kind, n) for n in want)
        # every spanning number G can have (0 to 3) and F can have (0 and 1) is met
        assert seen == {("g", n) for n in range(4)} | {("f", n) for n in range(2)}

    def test_a_union_of_spaces_keeps_each_spanning_number(self):
        # a 4-way G tree beside a tree that never branches: the union's maximum is 3, its segments 3 and 0
        coins = (np.full(4, 0.25), np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]]), None)
        still = (np.array([0.5, 0.5]), np.zeros((2, 1), dtype=int), np.zeros((2, 1), dtype=int), None)
        union, starts, _, _ = fixtures.pair_union([0, 1], [coins, still])
        assert multiplicity(union.g) == 3
        assert spanning_numbers(union.g, starts).tolist() == [3, 0, 0]
        assert spanning_numbers(union.f, starts).tolist() == [1, 0, 0]


def _bundle_with_null_atoms(rng, b):
    """The same paths with about a third of the atoms given probability 0."""
    probs = b.space.probs.copy()
    probs[rng.random(probs.size) < 0.35] = 0.0
    if probs.sum() == 0.0:
        probs[0] = 1.0
    space = build_space(probs / probs.sum())
    return build_bundle(space, b.X.values, b.H.values, initial=b.initial, name="null_atoms")


def _large_tree(seed):
    """The benchmark's ``exact_large_tree`` bundle: the complete 4-way (dX, dH) tree of horizon 4, 256 atoms."""
    return bundle_from_doc(perfbench_workloads().tree_bundle_doc(seed))


def _quiet_first_step():
    """Four uniform atoms, horizon 2, nothing jumps at t = 1: P_0 = P_1 is trivial, and P_2 discrete."""
    x = [[0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 1]]
    h = [[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 1]]
    return build_bundle(build_space([0.25] * 4), x, h, name="quiet_first_step")


def _regressor_family(kind, b):
    mu = jump_measure(b.X, b.H)
    wrp = wrp_regressors(mu, compensator_measure(mu))
    if kind == "wrp":
        return wrp
    if kind == "triple":
        return triple_regressors(*fundamental_martingales(b.X, b.H))
    # a repeated and a zero regressor make every node rank-deficient
    return wrp + [wrp[0], np.zeros_like(wrp[0])]


def _assert_solved_node_by_node(batch, ys, regs, filtration):
    """``batch`` has the bits of the same solve with one ``np.linalg.pinv`` per node."""
    with mock.patch.object(representation, "_nodewise_solve", partial(oracle_pinv_per_node, cutoff=SV_CUTOFF)):
        want = solve_batch(ys, regs, filtration)
    for field in ("integrands", "residual_sup", "reconstructions"):
        got, expected = getattr(batch, field), getattr(want, field)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), field


def _counting_pinv(monkeypatch):
    """``np.linalg.pinv`` patched to record each call's stack shape; returns the record."""
    pinv, made = np.linalg.pinv, []
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kw: made.append(args[0].shape) or pinv(*args, **kw))
    return made


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
        b = random_bundle(rng)
        if null_atoms:
            b = _bundle_with_null_atoms(rng, b)
        regs = _regressor_family(kind, b)
        ys = martingale_closures(rng.normal(size=(k, b.space.n_atoms)), b.g)
        batch = solve_batch(ys, regs, b.g)
        _assert_solved_node_by_node(batch, ys, regs, b.g)
        oracle = oracle_nodewise_lstsq(list(ys), regs, b.g, SV_CUTOFF)
        assert batch.integrands.shape == oracle.shape == (len(regs), k) + ys.shape[1:]
        assert np.abs(batch.integrands - oracle).max() <= 1e-12
        probs = b.space.probs
        for i, y in enumerate(ys):
            want = oracle_residual_sup(y, oracle[:, i], regs, probs)
            assert abs(batch.residual_sup[i] - want) <= 1e-12
            assert batch.residual_sup[i] == np.abs(y - batch.reconstructions[i])[probs > 0.0].max()

    @pytest.mark.parametrize("tree", ["space_a", "large_tree"])
    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_stacks_of_large_nodes_keep_the_bits(self, tree, k):
        # nodes of 16 to 256 atoms, where matmul's rounding shows the increments' memory layout
        b = _large_tree(11) if tree == "large_tree" else fixtures.space_a()
        ys = martingale_closures(np.random.default_rng(k).normal(size=(k, b.space.n_atoms)), b.g)
        for regs in (_regressor_family("wrp", b), _regressor_family("rank_deficient", b)):
            batch = solve_batch(ys, regs, b.g)
            _assert_solved_node_by_node(batch, ys, regs, b.g)

    @pytest.mark.parametrize("tree,calls", [("large_tree", 4), ("space_a", 2), ("quiet_first_step", 1)])
    def test_one_pinv_per_block_size(self, monkeypatch, tree, calls):
        # the 256-atom tree has 85 nodes and space_a's joint tree 5, each of one size per time; the quiet
        # tree's two nodes, one per time, have one size, so the whole horizon is one stack.  Each bundle is
        # built afresh: the shared space_a may already keep this family's factors from an earlier solve
        build = {"large_tree": lambda: _large_tree(11), "space_a": fixtures.space_a.__wrapped__}
        b = build.get(tree, _quiet_first_step)()
        made = _counting_pinv(monkeypatch)
        ys = martingale_closures(np.random.default_rng(53).normal(size=(3, b.space.n_atoms)), b.g)
        solve_batch(ys, triple_regressors(*fundamental_martingales(b.X, b.H)), b.g)
        assert len(made) == calls
        assert sum(shape[0] for shape in made) == sum(p.n_blocks for p in b.g.partitions[:-1])

    def test_cutoff_is_relative_to_the_largest_singular_value(self, space_a_bundle):
        # a regressor scaled by 1e-6 still spans its direction; one scaled by
        # 1e-14 falls under the 1e-12 cutoff and gets integrand 0
        b = space_a_bundle
        z1, z2, z3 = triple_regressors(*fundamental_martingales(b.X, b.H))
        ys = martingale_closures(np.random.default_rng(52).normal(size=(3, 16)), b.g)
        kept = solve_batch(ys, [z1, 1e-6 * z2, z3], b.g)
        assert kept.residual_sup.max() <= 1e-9
        cut = solve_batch(ys, [z1, 1e-14 * z2, z3], b.g)
        assert cut.residual_sup.min() > 1e-3
        assert np.abs(cut.integrands[1]).max() <= 1e-9

    def test_single_target_wrappers_match_the_batch(self):
        # each single-target solver is target 0 of the one-target batch it makes, bit for bit, and
        # matches the 5-target batch to 1e-12; the independent decomposition needs an independent pair
        rng = np.random.default_rng(48)
        b = random_bundle(rng)
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        zs = fundamental_martingales(b.X, b.H)
        xbar, hbar = compensator(b.X).martingale_part, compensator(b.H).martingale_part
        space_a = fixtures.space_a()
        solvers = {
            "prp": (b, lambda y: solve_prp(y, xbar), [xbar.increments()]),
            "wrp": (b, lambda y: solve_wrp(y, mu, nu), wrp_regressors(mu, nu)),
            "triple": (b, lambda y: solve_triple(y, *zs), triple_regressors(*zs)),
            "in_basis": (b, lambda y: solve_in_basis(y, [xbar, hbar]), [xbar.increments(), hbar.increments()]),
            "independent": (space_a, lambda y: independent_decomposition(y, space_a), None),
        }
        for name, (bundle, solve, regs) in solvers.items():
            def batch_of(ys):
                return independent_batch(ys, bundle)[0] if regs is None else solve_batch(ys, regs, bundle.g)

            ys = martingale_closures(rng.normal(size=(5, bundle.space.n_atoms)), bundle.g)
            five = batch_of(ys)
            for i, y in enumerate(ys):
                sol = solve(AdaptedProcess(bundle.g, y))
                one = batch_of(y[None])
                got = np.stack(list(sol.integrands.values()))
                assert got.tobytes() == one.integrands[:, 0].tobytes(), name
                assert sol.reconstruction.values.tobytes() == one.reconstructions[0].tobytes(), name
                assert np.float64(sol.residual_sup).tobytes() == one.residual_sup[:1].tobytes(), name
                assert np.abs(got - five.integrands[:, i]).max() <= 1e-12, name
                assert abs(sol.residual_sup - five.residual_sup[i]) <= 1e-12, name

    def test_drift_failure_names_the_first_drifting_target(self, space_a_bundle):
        b = space_a_bundle
        ys = martingale_closures(np.random.default_rng(49).normal(size=(4, 16)), b.g)
        ys[2] += b.X.values
        ys[3] += b.X.values
        regs = triple_regressors(*fundamental_martingales(b.X, b.H))
        with pytest.raises(NotMartingale, match=r"^target 2 has nonzero drift at \(1, 0, "):
            solve_batch(ys, regs, b.g)

    def test_nan_target_is_not_a_martingale(self, space_a_bundle):
        b = space_a_bundle
        ys = martingale_closures(np.random.default_rng(49).normal(size=(2, 16)), b.g)
        ys[1, :, 2] = np.nan
        regs = triple_regressors(*fundamental_martingales(b.X, b.H))
        with pytest.raises(NotMartingale, match=r"^target 1 has nonzero drift at \(2, 0, nan\)"):
            solve_batch(ys, regs, b.g)

    def test_drift_witness_is_the_one_is_martingale_names(self):
        # the solver must name the drift is_martingale computes, bit for bit: on this tree a drift
        # averaged over the stacked targets by another kernel rounds apart in most witnesses' last bits
        b = _large_tree(11)
        regs = triple_regressors(*fundamental_martingales(b.X, b.H))
        rng = np.random.default_rng(52)
        for _ in range(20):
            ys = martingale_closures(rng.normal(size=(8, b.space.n_atoms)), b.g)
            first = int(rng.integers(0, 8))
            ys[first:] += rng.normal(size=ys[first:].shape)
            checks = martingale_checks(ys, b.g)
            assert checks[first].witness is not None
            with pytest.raises(NotMartingale) as exc:
                solve_batch(ys, regs, b.g)
            assert str(exc.value) == f"target {first} has nonzero drift at {checks[first].witness}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_null_atom_value_stays_out_of_the_solve(self, bad):
        # P_0 trivial, P_1 discrete; atom 2 carries no probability
        filt = Filtration(build_space([0.5, 0.5, 0.0]), (Partition.trivial(3), Partition.discrete(3)))
        y = AdaptedProcess(filt, [[0.0, 1.0], [0.0, -1.0], [0.0, bad]])
        m = AdaptedProcess(filt, [[0.0, 2.0], [0.0, -2.0], [0.0, 0.0]])
        assert is_martingale(y)
        sol = solve_prp(y, m)
        assert sol.residual_sup <= 1e-15
        assert sol.integrands["K"][:, 1] == pytest.approx([0.5] * 3, abs=1e-15)

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


def _solved(ys, regs, filtration):
    batch = solve_batch(ys, regs, filtration)
    return [getattr(batch, field).tobytes() for field in ("integrands", "residual_sup", "reconstructions")]


class TestFactorStore:
    """A filtration keeps its regressor families' nodewise factors: a hit has the bits of a miss,
    and any change to the family or to the cutoff misses."""

    @pytest.mark.parametrize("kind", ["wrp", "triple", "rank_deficient"])
    @pytest.mark.parametrize("tree", ["large_tree", "null_atoms"])
    def test_a_hit_has_the_bits_of_a_miss_and_of_one_pinv_per_node(self, monkeypatch, tree, kind):
        def build():
            rng = np.random.default_rng(60)
            return _large_tree(11) if tree == "large_tree" else _bundle_with_null_atoms(rng, random_bundle(rng))

        warm, cold = build(), build()
        regs = _regressor_family(kind, warm)
        rng = np.random.default_rng(61)
        ys, others = (martingale_closures(rng.normal(size=(5, warm.space.n_atoms)), warm.g) for _ in range(2))
        solve_batch(others, regs, warm.g)
        made = _counting_pinv(monkeypatch)
        hit = _solved(ys, regs, warm.g)
        assert made == []
        assert hit == _solved(ys, regs, cold.g)
        assert made and len(cold.g._factors) == len(warm.g._factors) == 1
        monkeypatch.undo()
        _assert_solved_node_by_node(solve_batch(ys, regs, warm.g), ys, regs, warm.g)

    def test_a_one_ulp_change_to_one_regressor_entry_misses(self, monkeypatch):
        b, fresh = _large_tree(11), _large_tree(11)
        regs = _regressor_family("triple", b)
        ys = martingale_closures(np.random.default_rng(62).normal(size=(3, b.space.n_atoms)), b.g)
        solve_batch(ys, regs, b.g)
        moved = [r.copy() for r in regs]
        moved[1][200, 3] = np.nextafter(moved[1][200, 3], np.inf)
        made = _counting_pinv(monkeypatch)
        got = _solved(ys, moved, b.g)
        assert made and len(b.g._factors) == 2
        assert got == _solved(ys, moved, fresh.g)
        assert got != _solved(ys, regs, b.g)

    def test_a_changed_cutoff_misses(self, monkeypatch):
        b = fixtures.space_a.__wrapped__()
        regs = _regressor_family("rank_deficient", b)
        ys = martingale_closures(np.random.default_rng(63).normal(size=(3, b.space.n_atoms)), b.g)
        solve_batch(ys, regs, b.g)
        monkeypatch.setattr(representation, "SV_CUTOFF", 1e-6)
        made = _counting_pinv(monkeypatch)
        got = _solved(ys, regs, b.g)
        assert made and len(b.g._factors) == 2
        monkeypatch.undo()
        with mock.patch.object(representation, "_nodewise_solve", partial(oracle_pinv_per_node, cutoff=1e-6)):
            assert got == _solved(ys, regs, b.g)

    def test_the_store_stays_bounded(self, monkeypatch):
        b = fixtures.space_a.__wrapped__()
        regs = np.stack(_regressor_family("triple", b))
        ys = martingale_closures(np.random.default_rng(64).normal(size=(2, b.space.n_atoms)), b.g)
        families = [list(regs * (1.0 + i)) for i in range(3 * representation._FACTORS)]
        for family in families:
            solve_batch(ys, family, b.g)
            assert len(b.g._factors) <= representation._FACTORS
        assert len(b.g._factors) == representation._FACTORS
        made = _counting_pinv(monkeypatch)
        solve_batch(ys, families[-1], b.g)  # the newest family is kept
        assert made == []
        solve_batch(ys, families[0], b.g)  # the oldest was dropped
        assert made

    def test_a_run_factors_each_family_once_per_filtration(self, monkeypatch):
        # the named fixtures are built afresh, so every factor of the run is built in it
        for name in BY_NAME_FIXTURES + RANDOM_TIME_FIXTURES:
            getattr(fixtures, name).cache_clear()
        built, solves = [], []
        factor, factors = representation._factor, representation._factors

        def counting_factor(regs, filtration):
            built.append((filtration, regs.dtype.str, regs.shape, regs.tobytes()))
            return factor(regs, filtration)

        def counting_factors(regs, filtration):
            solves.append(filtration)
            return factors(regs, filtration)

        monkeypatch.setattr(representation, "_factor", counting_factor)
        monkeypatch.setattr(representation, "_factors", counting_factors)
        config = json.loads((Path(suites.__file__).parent / "configs" / "space_a_full.json").read_text())
        assert run_config(config)["summary"]["failed"] == 0
        # the filtrations are all alive in ``built``, so their ids tell them apart
        keys = [(id(filtration), *family) for filtration, *family in built]
        assert len(set(keys)) == len(keys)
        assert len(solves) > len(built) > 0


class TestSliceReconstruction:
    """The reconstructions and residuals built slice by slice have the bits of the chunked build."""

    @pytest.mark.parametrize("kind", ["wrp", "triple", "rank_deficient"])
    @pytest.mark.parametrize("k", [1, 7, 100])
    @pytest.mark.parametrize("tree", ["large_tree", "space_a", "null_atoms"])
    def test_matches_the_chunked_reconstruction(self, tree, k, kind):
        rng = np.random.default_rng(k)
        b = _large_tree(11) if tree == "large_tree" else fixtures.space_a()
        if tree == "null_atoms":
            b = _bundle_with_null_atoms(rng, b)
        regs = np.stack(_regressor_family(kind, b))
        # a -0.0 time-0 column everywhere, and a target starting at -0.0: its time-0 reconstruction
        # stays -0.0 only if each running integral starts as its part, not as 0 + part
        regs[:, :, 0] = -0.0
        ys = martingale_closures(rng.normal(size=(k, b.space.n_atoms)), b.g)
        ys[0] = -(ys[0] - ys[0, :, :1])
        if tree == "null_atoms":
            ys[:, b.space.null_atoms[0]] = np.nan
        batch = solve_batch(ys, list(regs), b.g)
        node_of, table = representation._nodewise_solve(ys, regs, b.g)
        step = representation.chunk_length(b.g)
        residual_sup, recons = oracle_chunked_reconstruction(ys, regs, node_of, table, b.space.probs, step)
        assert batch.residual_sup.tobytes() == residual_sup.tobytes()
        assert batch.reconstructions.tobytes() == recons.tobytes()
        assert np.signbit(recons[0, b.space.positive, 0]).all()
        if tree == "null_atoms":
            assert np.isnan(recons[:, b.space.null_atoms[0]]).all()
            assert not np.isnan(residual_sup).any()


class TestUnionSolves:
    """Each random space of a power-of-four disjoint union solves bit for bit as it does alone."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 99])
    def test_each_segment_solves_like_its_lone_space(self, seed):
        rng = np.random.default_rng(seed)
        lone = [random_bundle(rng) for _ in range(50)]
        xis = [rng.normal(size=(20, b.space.n_atoms)) for b in lone]
        closures = [martingale_closures(xi, b.g) for xi, b in zip(xis, lone)]
        covered = set()
        for b, starts, pairs, _ in fixtures.random_pair_unions(np.random.default_rng(seed), 50):
            targets = np.zeros((20, b.space.n_atoms))  # the filler's target is 0
            for j, i in enumerate(pairs):
                targets[:, starts[j] : starts[j + 1]] = xis[i]
            ys = martingale_closures(targets, b.g)
            for j, i in enumerate(pairs):
                assert ys[:, starts[j] : starts[j + 1]].tobytes() == closures[i].tobytes()
            for kind in ("wrp", "triple"):
                union = solve_batch(ys, _regressor_family(kind, b), b.g)
                sups = segment_sups(b.space, ys - union.reconstructions, starts)
                for j, i in enumerate(pairs):
                    pair = lone[i]
                    alone = solve_batch(closures[i], _regressor_family(kind, pair), pair.g)
                    assert sups[:, j].tobytes() == alone.residual_sup.tobytes(), (kind, i)
                    covered.add((pair.g.horizon, pair.initial.n_blocks > 1))
                assert not sups[:, -1].any()
                # the union's own residual is the largest over its segments
                assert union.residual_sup.tobytes() == sups.max(axis=-1).tobytes()
        assert covered == {(h, initial) for h in (1, 2, 3) for initial in (False, True)}

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_each_random_time_solves_its_stopped_targets_like_its_lone_bundle(self, seed):
        # triple_representation's stopped row: 20 targets per random time, stopped at its tau
        rng = np.random.default_rng(seed)
        lone = [random_random_time_bundle(rng) for _ in range(20)]
        xis = [rng.normal(size=(20, b.space.n_atoms)) for b in lone]

        def stopped_solve(b, xi):
            st = tau_of(b)
            regs = triple_regressors(*fundamental_martingales(b.X, b.H), stop_at=st)
            return solve_batch(stop_values(martingale_closures(xi, b.g), st), regs, b.g).residual_sup

        alone = [stopped_solve(b, xi) for b, xi in zip(lone, xis)]
        for b, starts, pairs, _ in fixtures.random_pair_unions(np.random.default_rng(seed), 20, fixtures.random_time_draw):
            targets = np.zeros((20, b.space.n_atoms))  # the filler's target is 0
            for j, i in enumerate(pairs):
                targets[:, starts[j] : starts[j + 1]] = xis[i]
            # each target's residual over the union is the largest of its random times' residuals alone
            want = np.max([alone[i] for i in pairs], axis=0)
            assert stopped_solve(b, targets).tobytes() == want.tobytes()
        assert max(np.max(r) for r in alone) > 0.0

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_pinv_of_a_stack_scaled_by_a_power_of_two_is_scaled_exactly(self, m, r):
        # a union's nodes are its spaces' nodes weighted by sqrt(4^-j p) = 2^-j sqrt(p); LAPACK does not
        # promise that the pseudo-inverse then scales exactly, and the union solves rely on it
        rng = np.random.default_rng(100 * m + r)
        designs = rng.normal(size=(6, m, r)) * np.sqrt(rng.uniform(0.01, 1.0, (6, m, 1)))
        designs[1, :, 0] = 0.0  # a zero regressor
        designs[2] = designs[2, :, :1]  # every regressor the same
        designs[3] *= 1e-13  # all of a node's singular values near the cutoff
        want = np.linalg.pinv(designs, rcond=SV_CUTOFF)
        for j in range(1, 8):
            got = np.linalg.pinv(designs * 2.0**-j, rcond=SV_CUTOFF)
            assert got.tobytes() == np.ldexp(want, j).tobytes(), j

    def test_the_completeness_suite_solves_one_union_per_horizon(self, monkeypatch):
        # 3 named spaces alone, the 50 random ones as one union per horizon present (3 at the bundled
        # seed), each with both regressor families: 12 solves, drawing the rng as 53 lone spaces would
        solved, rngs = [], []
        real_solve, real_rng = suites.solve_batch, suites.SuiteContext.rng

        def solve(ys, regs, filtration):
            solved.append((filtration.space.n_atoms, filtration.horizon, len(ys)))
            return real_solve(ys, regs, filtration)

        def rng(ctx, salt):
            rngs.append(real_rng(ctx, salt))
            return rngs[-1]

        monkeypatch.setattr(suites, "solve_batch", solve)
        monkeypatch.setattr(suites.SuiteContext, "rng", rng)
        config = json.loads((Path(suites.__file__).parent / "configs" / "space_a_full.json").read_text())
        report = run_config(dict(config, suites=["completeness_random_spaces"]))
        assert report["summary"]["failed"] == 0
        (row,) = report["checks"]
        assert (row["evidence"]["solves"], row["evidence"]["spaces"]) == (10600, 53)

        (used,) = rngs
        want = suites.SuiteContext(seed=config["seed"]).rng("completeness")
        lone = [random_bundle(want) for _ in range(50)]
        named = [fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()]
        for b in named + lone:
            want.normal(size=(100, b.space.n_atoms))
        assert used.bit_generator.state == want.bit_generator.state

        horizons = sorted({b.g.horizon for b in lone})
        assert len(solved) == 2 * (3 + len(horizons)) == 12
        assert [n for n, _, _ in solved[:6]] == [16, 16, 3, 3, 4, 4]
        assert [h for _, h, _ in solved[6:]] == [h for h in horizons for _ in range(2)]
        # each union: its spaces' atoms and one filler atom
        for h, (n, _, _) in zip(horizons, solved[6::2]):
            assert n == sum(b.space.n_atoms for b in lone if b.g.horizon == h) + 1
        assert {k for _, _, k in solved} == {100}


#: each named fixture, the 256-atom tree, and the drawn union of each horizon
RELABEL_CASES = BY_NAME_FIXTURES + ("large_tree", "union_horizon_1", "union_horizon_2", "union_horizon_3")


def _relabel_case(name):
    """(bundle, segment starts) of one of ``RELABEL_CASES``."""
    if name == "large_tree":
        return _large_tree(11), [0]
    if name.startswith("union_horizon_"):
        unions = fixtures.random_pair_unions(np.random.default_rng(19), 12)
        (b, starts), = [(b, starts) for b, starts, _, _ in unions if b.g.horizon == int(name[-1])]
        return b, starts.tolist()
    return fixtures.bundle_by_name(name), [0]


def _first_time(hit):
    return None if hit is None else hit[0]


def _first_jump_only(b):
    """``b`` with H stopped at its first jump: a random-time bundle, tau the first jump of H, in ``b``'s layout."""
    return build_bundle(b.space, b.X.values, np.minimum(b.H.values, 1.0), initial=b.initial, name=b.name)


def _assert_same_toolkit(got, want, back, moved, compared):
    """``got``, a toolkit on ``moved`` (atom i is atom ``back[i]`` of ``want``'s bundle), is ``want``.

    Verdicts, clauses and disjoint-jumps flags are equal on the segments
    ``compared``, and their decomposition gaps within 1e-12; the brackets and the
    predictable jump product, pulled back, agree within 1e-12 on ``moved``'s
    positive atoms; the first move falls at the same time, on an atom that
    moves then once mapped back.
    """
    assert got.orthogonal[compared].tolist() == want.orthogonal[compared].tolist()
    assert got.jumps_disjoint[compared].tolist() == want.jumps_disjoint[compared].tolist()
    clauses = [{k: v[compared].tolist() for k, v in toolkit.clauses.items()} for toolkit in (got, want)]
    assert clauses[0] == clauses[1]
    assert np.abs(got.decomposition_gap[compared] - want.decomposition_gap[compared]).max() <= 1e-12
    positive = moved.space.positive
    for name in ("bracket_compensators", "bracket_bar", "predictable_jump_product"):
        assert np.abs(getattr(got, name) - getattr(want, name)[back])[positive].max(initial=0.0) <= 1e-12, name
    hit = got.first_move()
    assert _first_time(hit) == _first_time(want.first_move())
    if hit is not None:
        t, atom = hit
        assert want.bar_moves[back[atom], t]


def _assert_same_stacked_kernels(b, moved, back, rng, own_stacks):
    """``slice_expectations`` at lags 0 and 1 and ``dual_projections`` of a random stack, and
    ``compensators`` of the adapted increasing processes, in ``f`` and ``g``: ``moved``'s values are
    ``b``'s pulled back through ``back``, within 1e-12 on ``moved``'s positive atoms (a null atom's
    value is never weighed).

    The compensators read X in ``f`` and X and H in ``g``, each layout its own paths; with
    ``own_stacks``, also a random adapted increasing stack of ``g`` pulled back (a null atom's copy of
    atom 0's path need not be adapted in ``moved``, whose null atom has paths of its own).
    """
    positive = moved.space.positive

    def check(got, want, label):
        gap = np.abs(got - want[..., back, :])[..., positive, :]
        assert gap.max(initial=0.0) <= 1e-12, label

    v = rng.normal(size=(3,) + b.X.values.shape)
    for name in ("f", "g"):
        for lag in (0, 1):
            check(slice_expectations(v[:, back], getattr(moved, name), lag),
                  slice_expectations(v, getattr(b, name), lag), (name, lag))
        check(dual_projections(v[:, back], getattr(moved, name)), dual_projections(v, getattr(b, name)), name)
    check(compensators(moved.X.values, moved.f), compensators(b.X.values, b.f), "f")
    check(compensators(np.stack([moved.X.values, moved.H.values]), moved.g),
          compensators(np.stack([b.X.values, b.H.values]), b.g), "g")
    if own_stacks:
        steps = np.abs(slice_expectations(v, b.g, 0))
        steps[..., 0] = 0.0
        increasing = np.cumsum(steps, axis=-1)
        check(compensators(increasing[:, back], moved.g), compensators(increasing, b.g), "random")


def _assert_invariant(b, moved, back, starts, rng, own_stacks=True, compared=None):
    """``moved``, a layout of ``b`` whose atom i is ``b``'s atom ``back[i]``, gives ``b``'s results.

    Five random closures pulled back through ``back`` solve with the same
    residuals and, on ``moved``'s positive atoms, the same integrands, both
    within 1e-12; the spanning numbers of both filtrations are equal; a
    random stack drawn last (with ``own_stacks``, also X, H and an integrand)
    is first found not adapted, or not predictable, at the same time once
    pulled back; the stacked kernels give ``b``'s values pulled back, within
    1e-12 on ``moved``'s positive atoms (``_assert_same_stacked_kernels``);
    and the orthogonality toolkit of (X, H) and the random-time study of H
    stopped at its first jump give ``b``'s toolkits on the segments
    ``compared`` (default: all).
    """
    positive = moved.space.positive
    ys = martingale_closures(rng.normal(size=(5, b.space.n_atoms)), b.g)
    for kind in ("wrp", "triple"):
        batch = solve_batch(ys, _regressor_family(kind, b), b.g)
        lifted = solve_batch(ys[:, back], _regressor_family(kind, moved), moved.g)
        assert np.abs(lifted.residual_sup - batch.residual_sup).max() <= 1e-12, kind
        gap = np.abs(lifted.integrands - batch.integrands[:, :, back])[:, :, positive]
        assert gap.max(initial=0.0) <= 1e-12, kind
    assert spanning_numbers(moved.g, starts).tolist() == spanning_numbers(b.g, starts).tolist()
    assert spanning_numbers(moved.f, starts).tolist() == spanning_numbers(b.f, starts).tolist()
    stacks = [b.X.values, b.H.values, batch.integrands[0, 0]] if own_stacks else []
    stacks.append(rng.normal(size=b.X.values.shape))
    for lag in (0, 1):
        for v in stacks:
            assert _first_time(slice_violation(v[back], moved.g, lag)) == _first_time(slice_violation(v, b.g, lag)), lag
    _assert_same_stacked_kernels(b, moved, back, rng, own_stacks)
    compared = list(range(len(starts))) if compared is None else compared
    toolkits = [orthogonality_segments(x.X, x.H, starts) for x in (b, moved)]
    _assert_same_toolkit(toolkits[1], toolkits[0], back, moved, compared)
    want_study, got_study = (surrogate_segments(_first_jump_only(x), starts) for x in (b, moved))
    for (label, want, want_ok), (_, got, got_ok) in zip(want_study, got_study):
        _assert_same_toolkit(got, want, back, moved, compared)
        assert got_ok[compared].tolist() == want_ok[compared].tolist(), label


class TestRelabelInvariance:
    """Renumbering the atoms, splitting one into equal-mass twins, or adding one of probability 0
    changes no solve, spanning number, predictability verdict or toolkit verdict.

    The solver and the spanning walk read the cell union, whose cells are
    numbered atom-major; these relations hold whatever that layout makes of
    the atoms' order, of a block's size and of its null atoms.  The null atom
    of a null-lifted union lies past the filler, in the filler's segment,
    while its block is atom 0's: having no mass, it changes no verdict there.
    """

    @pytest.mark.parametrize("name", RELABEL_CASES)
    def test_relabelled_fixture_gives_the_same_results(self, name):
        b, starts = _relabel_case(name)
        rng = np.random.default_rng(RELABEL_CASES.index(name))
        # a permutation within each segment of ``starts``, so a union's segments stay where they are
        bounds = starts + [b.space.n_atoms]
        perm = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(bounds, bounds[1:])])
        _assert_invariant(b, relabel(b, perm), perm, starts, rng)

    @pytest.mark.parametrize("name", RELABEL_CASES)
    def test_split_fixture_gives_the_same_results(self, name):
        # the twin is appended last: its block's cells are then not contiguous, and a union's twin lies
        # past the filler, yet each node still counts in the segment of its first child's first atom
        b, starts = _relabel_case(name)
        rng = np.random.default_rng(100 + RELABEL_CASES.index(name))
        atom = int(rng.integers(b.space.n_atoms))
        moved, back = split(b, atom)
        # a twin past the filler makes the filler's segment hold a jumping atom, so that segment's
        # toolkit verdicts are compared only when the twin's own atom lies in it
        _assert_invariant(b, moved, back, starts, rng, compared=list(range(len(starts) - (atom < starts[-1]))))

    @pytest.mark.parametrize("name", RELABEL_CASES)
    def test_null_lifted_fixture_gives_the_same_results(self, name):
        # a null atom with random paths may break the exact constancy of X, H or an integrand pulled
        # back onto it, as adaptedness is not an almost-sure property; a random stack is already
        # non-constant on every block of two or more atoms, so the null atom, which copies atom 0's
        # values and shares its initial block, cannot make it fail earlier
        b, starts = _relabel_case(name)
        rng = np.random.default_rng(200 + RELABEL_CASES.index(name))
        x_jumps, h_jumps = rng.integers(0, 2, (2, b.g.horizon))
        moved, back = null_lift(b, x_jumps, h_jumps)
        assert moved.space.null_atoms == (b.space.n_atoms,)
        _assert_invariant(b, moved, back, starts, rng, own_stacks=False)


def _walked_spanning_numbers(filtration, starts):
    """Spanning numbers by the ``_nodes`` walk: a node counts in the segment of its first child's first atom."""
    out = [0] * len(starts)
    for *_, children in representation._nodes(filtration):
        segment = int(np.searchsorted(starts, children[0][0][0], side="right")) - 1
        out[segment] = max(out[segment], len(children) - 1)
    return out


class TestSpanningNumbers:
    """``spanning_numbers``' array pass per size group against the ``_nodes`` walk and the containment loop."""

    def test_null_atoms_and_zero_mass_children(self):
        # random filtrations whose null atoms make zero-mass children, and whose nodes straddle segments
        rng = np.random.default_rng(36)
        seen = {"zero-mass child": 0, "node across segments": 0, "empty segment": 0}
        for _ in range(150):
            n = int(rng.integers(1, 14))
            filt = random_filtration(rng, n, int(rng.integers(1, 4)), zero_frac=0.4)
            starts = sorted({0, *rng.integers(0, n, int(rng.integers(0, 4))).tolist()})
            got = spanning_numbers(filt, starts).tolist()
            assert got == _walked_spanning_numbers(filt, starts) == oracle_spanning_numbers(filt.space.probs, filt, starts)
            probs = filt.space.probs
            for t, node, children, _ in oracle_positive_children(probs, filt):
                seen["zero-mass child"] += sum(1 for b in filt.at(t).blocks if set(b) <= set(node)) > len(children)
                seen["node across segments"] += np.searchsorted(starts, node[-1], side="right") > np.searchsorted(
                    starts, children[0][0], side="right")
            seen["empty segment"] += 0 in got[1:]
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("name", BY_NAME_FIXTURES + RANDOM_TIME_FIXTURES + ("large_tree",))
    def test_named_fixtures(self, name):
        b = _large_tree(5) if name == "large_tree" else getattr(fixtures, name)()
        for filt in (b.f, b.g):
            want = _walked_spanning_numbers(filt, [0])
            assert spanning_numbers(filt, [0]).tolist() == want == oracle_spanning_numbers(filt.space.probs, filt, [0])
            assert multiplicity(filt) == want[0]

    @pytest.mark.parametrize("name", RELABEL_CASES)
    def test_moved_layouts_match_the_walk(self, name):
        # each relabelled, split and null-lifted layout, on its own nodes and on the original's segments
        b, starts = _relabel_case(name)
        rng = np.random.default_rng(300 + RELABEL_CASES.index(name))
        bounds = starts + [b.space.n_atoms]
        perm = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(bounds, bounds[1:])])
        moved = [b, relabel(b, perm), split(b, int(rng.integers(b.space.n_atoms)))[0]]
        moved.append(null_lift(b, *rng.integers(0, 2, (2, b.g.horizon)))[0])
        for m in moved:
            for filt in (m.f, m.g):
                assert spanning_numbers(filt, starts).tolist() == _walked_spanning_numbers(filt, starts)
