import importlib
import itertools
import re

import numpy as np
import pytest
from conftest import (
    BY_NAME_FIXTURES,
    RANDOM_TIME_FIXTURES,
    oracle_jump_events,
    oracle_mark_split,
    perfbench_workloads,
    random_bundle,
    random_predictable_values,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures, representation, suites
from filtration_lab.calculus import (
    compensator,
    compensators,
    is_martingale,
    quadratic_covariation,
    stochastic_integral,
)
from filtration_lab.enlargement import build_bundle
from filtration_lab.errors import NotPredictable
from filtration_lab.finite_space import AdaptedProcess, PointProcess, build_space, running_sums, time_increments
from filtration_lab.jump_measure import (
    MARKS,
    Mark,
    MarkedMeasure,
    PredictableFunction,
    compensator_measure,
    fundamental_martingales,
    integrate,
    joint_decomposition,
    jump_measure,
)
from filtration_lab.serialize import bundle_from_doc


class TestJointDecomposition:
    def test_no_second_process_means_first_only(self, space_a_bundle):
        b = space_a_bundle
        quiet = build_bundle(b.space, b.X.values, np.zeros_like(b.H.values))
        y1, y2, y3 = joint_decomposition(quiet.X, quiet.H)
        assert np.array_equal(y1.values, quiet.X.values)
        assert y2.sup_abs() == 0.0 and y3.sup_abs() == 0.0

    def test_equal_processes_all_joint(self, space_a_bundle):
        b = space_a_bundle
        same = build_bundle(b.space, b.X.values, b.X.values)
        y1, y2, y3 = joint_decomposition(same.X, same.H)
        assert y1.sup_abs() == 0.0 and y2.sup_abs() == 0.0
        assert np.array_equal(y3.values, same.X.values)

    def test_parts_are_counting_processes_with_disjoint_jumps(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = random_bundle(rng)
            y1, y2, y3 = joint_decomposition(b.X, b.H)
            for part in (y1, y2, y3):
                assert isinstance(part, PointProcess)
            for a, c in ((y1, y2), (y1, y3), (y2, y3)):
                assert quadratic_covariation(a, c).sup_abs() == 0.0
            assert np.array_equal(y1.values + y3.values, b.X.values)
            assert np.array_equal(y2.values + y3.values, b.H.values)

    def test_joint_mean_on_uniform_fixture(self, space_a_bundle):
        _, _, y3 = joint_decomposition(space_a_bundle.X, space_a_bundle.H)
        assert space_a_bundle.space.expectation(y3.terminal) == pytest.approx(0.5, abs=1e-15)


class TestJumpMeasure:
    def test_no_jumps_empty_measure(self, space_a_bundle):
        b = space_a_bundle
        quiet = build_bundle(b.space, np.zeros_like(b.X.values), np.zeros_like(b.H.values))
        mu = jump_measure(quiet.X, quiet.H)
        assert not mu.increments.any()

    def test_three_atom_fixture_events(self, a2_bundle):
        mu = jump_measure(a2_bundle.X, a2_bundle.H)
        # rows are marks, columns atoms: atom 0 jumps X only, atom 1 H only, atom 2 not
        assert mu.increments[:, :, 1].tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]

    def test_mixed_path_events(self, space_a_bundle):
        b = space_a_bundle
        mu = jump_measure(b.X, b.H)
        dx = b.X.increments()
        dh = b.H.increments()
        # atom with jumps (dx, dh) = (1,0) then (1,1)
        atom = next(
            a
            for a in range(16)
            if dx[a, 1] == 1 and dh[a, 1] == 0 and dx[a, 2] == 1 and dh[a, 2] == 1
        )
        expected = np.zeros((len(MARKS), b.g.horizon + 1))
        expected[MARKS.index(Mark.X_ONLY), 1] = 1.0
        expected[MARKS.index(Mark.JOINT), 2] = 1.0
        assert np.array_equal(mu.increments[:, atom], expected)

    def test_total_mass_formula(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            b = random_bundle(rng)
            mu = jump_measure(b.X, b.H)
            bracket = quadratic_covariation(b.X, b.H)
            expected = b.X.values + b.H.values - bracket.values
            assert np.array_equal(mu.mass().values, expected)

    def test_at_most_one_event_per_time(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            b = random_bundle(rng)
            assert jump_measure(b.X, b.H).increments.sum(axis=0).max() <= 1.0


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), max_atoms=st.integers(2, 12), max_horizon=st.integers(1, 6))
    def test_dense_measure_matches_event_loop(self, seed, max_atoms, max_horizon):
        b = random_bundle(np.random.default_rng(seed), max_atoms, max_horizon)
        mu = jump_measure(b.X, b.H)
        events = oracle_jump_events(b.X.increments(), b.H.increments())
        dense = np.zeros((len(MARKS), b.space.n_atoms, b.g.horizon + 1))
        for atom, evs in enumerate(events):
            for t, mark in evs:
                dense[MARKS.index(mark), atom, t] = 1.0
        assert np.array_equal(mu.increments, dense)
        assert not mu.increments.flags.writeable


def _a2_increments(entries, shape=(3, 3, 2)):
    """Increments on fixture_a2 (3 atoms, horizon 1): ``entries`` maps (mark, atom, t) to a value."""
    inc = np.zeros(shape)
    for index, value in entries.items():
        inc[index] = value
    return inc


#: (what is wrong, increments on fixture_a2, is_predictable_density, error)
BAD_MEASURES = [
    ("event_at_time_0", _a2_increments({(0, 0, 0): 1.0}), False, ValueError),
    (
        "time_0_and_two_marks",
        _a2_increments({(0, 0, 0): 1.0, (0, 0, 1): 1.0, (1, 0, 1): 1.0}),
        False,
        ValueError,
    ),
    ("two_marks_at_one_time", _a2_increments({(0, 0, 1): 1.0, (1, 0, 1): 1.0}), False, ValueError),
    ("entry_of_2", _a2_increments({(0, 0, 1): 2.0}), False, ValueError),
    ("entry_of_half", _a2_increments({(0, 1, 1): 0.5}), False, ValueError),
    ("wrong_shape", np.zeros((3, 3, 3)), True, ValueError),  # one time step too many
    ("density_mass_at_time_0", _a2_increments({(0, 0, 0): 0.1, (0, 0, 1): 0.5}), True, ValueError),
    # P_0 is trivial, so a time-1 density must be one number across the three atoms
    (
        "density_not_predictable",
        _a2_increments({(0, 0, 1): 0.5, (0, 1, 1): 0.2, (0, 2, 1): 0.5}),
        True,
        NotPredictable,
    ),
]


class TestMeasureValidation:
    @pytest.mark.parametrize(
        "what,increments,density,error", BAD_MEASURES, ids=[row[0] for row in BAD_MEASURES]
    )
    def test_bad_increments_rejected(self, a2_bundle, what, increments, density, error):
        with pytest.raises(error):
            MarkedMeasure(a2_bundle.g, increments, is_predictable_density=density)

    def test_good_increments_accepted(self, a2_bundle):
        events = _a2_increments({(0, 0, 1): 1.0, (2, 1, 1): 1.0})
        densities = _a2_increments({(k, a, 1): 0.25 for k in range(3) for a in range(3)})
        for inc, density in ((events, False), (densities, True)):
            measure = MarkedMeasure(a2_bundle.g, inc, is_predictable_density=density)
            assert np.array_equal(measure.increments, inc)
            assert not measure.increments.flags.writeable


class TestCompensatorMeasure:
    def test_deterministic_jumps_compensate_to_themselves(self):
        space = build_space([0.5, 0.5])
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        h = np.zeros((2, 2))
        b = build_bundle(space, x, h)
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        for mark in MARKS:
            assert np.allclose(
                nu.indicator_increments(mark), mu.indicator_increments(mark), atol=1e-15
            )
        w = PredictableFunction.constant(b.g, 2.0)
        diff = integrate(w, mu).values - integrate(w, nu).values
        assert np.abs(diff).max() <= 1e-15

    def test_uniform_fixture_densities(self, space_a_bundle):
        nu = compensator_measure(jump_measure(space_a_bundle.X, space_a_bundle.H))
        for mark in MARKS:
            assert np.allclose(nu.indicator_increments(mark)[:, 1:], 0.25, atol=1e-15)

    def test_three_atom_densities(self, a2_bundle):
        nu = compensator_measure(jump_measure(a2_bundle.X, a2_bundle.H))
        assert np.allclose(nu.indicator_increments(Mark.X_ONLY)[:, 1], 0.3, atol=1e-15)
        assert np.allclose(nu.indicator_increments(Mark.H_ONLY)[:, 1], 0.5, atol=1e-15)
        assert np.allclose(nu.indicator_increments(Mark.JOINT)[:, 1], 0.0, atol=1e-15)

    def test_compensated_integral_is_martingale_for_random_functions(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            b = random_bundle(rng)
            mu = jump_measure(b.X, b.H)
            nu = compensator_measure(mu)
            z1, z2, z3 = fundamental_martingales(b.X, b.H)
            for _ in range(20):
                w = PredictableFunction(
                    b.g,
                    np.stack(
                        [random_predictable_values(rng, b.g) for _ in MARKS]
                    ),
                )
                diff = AdaptedProcess(
                    b.g, integrate(w, mu).values - integrate(w, nu).values
                )
                assert bool(is_martingale(diff))
                split = sum(
                    stochastic_integral(AdaptedProcess(b.g, w.values[k]), z).values
                    for k, z in enumerate((z1, z2, z3))
                )
                assert np.abs(diff.values - split).max() <= 1e-12


class TestIntegrate:
    def test_unit_function_counts_events(self, space_a_bundle):
        b = space_a_bundle
        mu = jump_measure(b.X, b.H)
        ones = PredictableFunction.constant(b.g, 1.0)
        assert np.array_equal(integrate(ones, mu).values, mu.mass().values)

    def test_joint_indicator_recovers_bracket(self, space_a_bundle):
        b = space_a_bundle
        mu = jump_measure(b.X, b.H)
        picks = PredictableFunction.indicator(b.g, (Mark.JOINT,))
        bracket = quadratic_covariation(b.X, b.H)
        assert np.array_equal(integrate(picks, mu).values, bracket.values)

    def test_unit_function_against_densities(self, space_a_bundle):
        b = space_a_bundle
        nu = compensator_measure(jump_measure(b.X, b.H))
        ones = PredictableFunction.constant(b.g, 1.0)
        expected = 0.75 * np.arange(3)[None, :]
        assert np.allclose(integrate(ones, nu).values, expected, atol=1e-15)


class TestFundamentalMartingales:
    def test_quiet_second_process(self, space_a_bundle):
        b = space_a_bundle
        quiet = build_bundle(b.space, b.X.values, np.zeros_like(b.H.values))
        z1, z2, z3 = fundamental_martingales(quiet.X, quiet.H)
        from filtration_lab.calculus import compensator

        xbar = compensator(quiet.X).martingale_part
        assert np.allclose(z1.values, xbar.values, atol=1e-15)
        assert z2.sup_abs() == 0.0 and z3.sup_abs() == 0.0

    def test_uniform_fixture_joint_part(self, space_a_bundle):
        b = space_a_bundle
        _, _, z3 = fundamental_martingales(b.X, b.H)
        bracket = quadratic_covariation(b.X, b.H)
        expected = bracket.values - 0.25 * np.arange(3)[None, :]
        assert np.allclose(z3.values, expected, atol=1e-15)
        assert bool(is_martingale(z3))

    def test_three_atom_fixture_parts(self, a2_bundle):
        z1, z2, z3 = fundamental_martingales(a2_bundle.X, a2_bundle.H)
        assert z3.sup_abs() == 0.0
        assert z1.values[:, 1] == pytest.approx([0.7, -0.3, -0.3], abs=1e-15)
        assert z2.values[:, 1] == pytest.approx([-0.5, 0.5, -0.5], abs=1e-15)

    def test_all_three_are_exact_martingales(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            b = random_bundle(rng)
            from filtration_lab.calculus import compensator

            z1, z2, z3 = fundamental_martingales(b.X, b.H)
            for z in (z1, z2, z3):
                assert bool(is_martingale(z))
            xbar = compensator(b.X).martingale_part
            hbar = compensator(b.H).martingale_part
            assert np.abs(z1.values + z3.values - xbar.values).max() <= 1e-12
            assert np.abs(z2.values + z3.values - hbar.values).max() <= 1e-12


def _four_ary_tree(depth, seed):
    """Every (dX, dH) mark at every node up to ``depth``, with seeded atom weights."""
    jumps = np.array(list(itertools.product(((0, 0), (1, 0), (0, 1), (1, 1)), repeat=depth)))
    x, h = (np.pad(np.cumsum(jumps[:, :, i], axis=1), ((0, 0), (1, 0))) for i in (0, 1))
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, len(jumps))
    return build_bundle(build_space(weights / weights.sum()), x, h, name="four_ary_tree")


#: a depth-3 4-ary tree (64 atoms), then the three fixtures the suite always runs on
SPLIT_FIXTURES = ("four_ary_tree", "space_a", "fixture_a2", "staggered")


def _split_bundle(name):
    return _four_ary_tree(3, 7) if name == "four_ary_tree" else getattr(fixtures, name)()


def _scaled(nu, factor):
    return MarkedMeasure(nu.filtration, nu.increments * factor, is_predictable_density=True)


class TestMarkSplitChecks:
    """The suite's chunked Thm 3.3 check against the one-function-at-a-time loop."""

    @pytest.mark.parametrize("name", SPLIT_FIXTURES)
    def test_matches_the_per_function_loop(self, monkeypatch, name):
        b = _split_bundle(name)
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        zs = fundamental_martingales(b.X, b.H)
        old = np.random.default_rng(5)
        want_witnesses, want_gaps = oracle_mark_split(b, mu, nu, old, 100)
        assert want_witnesses == [None] * 100
        sizes = []
        real = suites.martingale_checks

        def counting(values, filtration):
            sizes.append(len(values))
            return real(values, filtration)

        monkeypatch.setattr(suites, "martingale_checks", counting)
        width = b.space.n_atoms * (b.g.horizon + 1)
        # the default chunk, then chunks of 1 and of 7 functions (a remainder of 2)
        for per_chunk, chunk in ((None, representation._CHUNK), (1, width), (7, 8 * width - 1)):
            monkeypatch.setattr(representation, "_CHUNK", chunk)
            step = representation.chunk_length(b.g)
            assert per_chunk in (None, step)
            sizes.clear()
            new = np.random.default_rng(5)
            checks, gaps = suites.mark_split_checks(b, mu, nu, zs, new, 100)
            assert sizes == [step] * (100 // step) + [100 % step] * (100 % step > 0)
            assert [c.witness for c in checks] == want_witnesses
            assert gaps.tolist() == want_gaps  # bitwise: the same products and running sums
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("name", SPLIT_FIXTURES)
    def test_a_scaled_compensator_drifts_where_the_loop_says(self, name):
        b = _split_bundle(name)
        mu = jump_measure(b.X, b.H)
        nu = _scaled(compensator_measure(mu), 1.001)
        zs = fundamental_martingales(b.X, b.H)
        checks, _ = suites.mark_split_checks(b, mu, nu, zs, np.random.default_rng(5), 20)
        want, _ = oracle_mark_split(b, mu, nu, np.random.default_rng(5), 20)
        assert not any(checks)
        # bitwise: every entry of a stack rounds like the block loop's dot product
        assert [c.witness for c in checks] == want

    @pytest.mark.parametrize("name", SPLIT_FIXTURES)
    def test_stacked_compensators_are_the_per_part_loops(self, name):
        b = _split_bundle(name)
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        for mark in MARKS:
            counts = PointProcess(b.g, np.cumsum(mu.indicator_increments(mark), axis=1))
            assert np.array_equal(nu.indicator_increments(mark), compensator(counts).compensator.increments())
        for z, part in zip(fundamental_martingales(b.X, b.H), joint_decomposition(b.X, b.H)):
            assert np.array_equal(z.values, compensator(part).martingale_part.values)

    def test_a_scaled_compensator_fails_the_martingale_row(self, monkeypatch):
        real = suites.compensator_measure
        monkeypatch.setattr(suites, "compensator_measure", lambda mu: _scaled(real(mu), 1.001))
        rows = {r.name: r for r in suites.suite_jump_measure(suites.SuiteContext(seed=11))}
        row = rows["compensated_integral_is_martingale"]
        assert row.outcome == "fails" and row.evidence["worst_drift"] > 0.0

    def test_a_non_predictable_function_is_named(self, monkeypatch):
        b = fixtures.space_a()
        mu = jump_measure(b.X, b.H)
        nu = compensator_measure(mu)
        zs = fundamental_martingales(b.X, b.H)
        width = b.space.n_atoms * (b.g.horizon + 1)
        monkeypatch.setattr(representation, "_CHUNK", 7 * width)
        atom = b.g.at(1).blocks[2][-1]
        real = fixtures.random_predictable_stack

        def spoiled(rng, filtration, count):
            stack = real(rng, filtration, count)
            if count == 2 * len(MARKS):  # the last chunk: its last function's joint mark
                stack[-1, atom, 2] += 1.0
            return stack

        monkeypatch.setattr(fixtures, "random_predictable_stack", spoiled)
        with pytest.raises(NotPredictable, match=re.escape("(t, block) = (2, 2)")):
            suites.mark_split_checks(b, mu, nu, zs, np.random.default_rng(5), 100)


def _compensated_bundles():
    """The five named fixtures, the four named random times, the 256-atom tree at two seeds, and the
    drawn unions of random pairs and of random times."""
    out = [fixtures.bundle_by_name(name) for name in BY_NAME_FIXTURES]
    out += [getattr(fixtures, name)() for name in RANDOM_TIME_FIXTURES]
    out += [bundle_from_doc(perfbench_workloads().tree_bundle_doc(seed)) for seed in (5, 11)]
    for seed, draw in ((3, fixtures.random_pair_draw), (8, fixtures.random_time_draw)):
        out += [b for b, *_ in fixtures.random_pair_unions(np.random.default_rng(seed), 40, draw)]
    return out


def _two_compensations(b):
    """(nu's densities, Z's values) as two compensations make them: the mark counts for nu, and the
    joint_decomposition parts again for Z."""
    mu = jump_measure(b.X, b.H)
    dens = time_increments(compensators(running_sums(mu.increments), b.g))
    parts = np.stack([p.values for p in joint_decomposition(b.X, b.H)])
    return dens, parts - compensators(parts, b.g)


class TestOneCompensation:
    """nu and Z read one compensation of the mark counts, with the bits two compensations give."""

    def test_the_store_gives_the_bits_of_two_compensations(self):
        bundles = _compensated_bundles()
        ctx = suites.SuiteContext(seed=3)
        for b in bundles:
            dens, zs = _two_compensations(b)
            p = ctx.processes(b)
            lone = (compensator_measure(jump_measure(b.X, b.H)), fundamental_martingales(b.X, b.H))
            for nu, z in ((p.nu, p.zs), lone):
                assert nu.increments.tobytes() == dens.tobytes(), b.name
                assert np.stack([part.values for part in z]).tobytes() == zs.tobytes(), b.name
        assert {b.name for b in bundles[11:]} == {"random_pairs"}

    def test_a_bundle_is_compensated_once(self, monkeypatch):
        module = importlib.import_module("filtration_lab.jump_measure")
        calls = []

        def counted(values, filtration):
            calls.append(filtration)
            return compensators(values, filtration)

        monkeypatch.setattr(module, "compensators", counted)
        b = fixtures.space_a()
        for first in ("nu", "zs"):
            p = suites.SuiteContext(seed=3).processes(b)
            getattr(p, first)
            assert len(p.zs) == 3 and p.nu.is_predictable_density
            assert calls == [b.g]
            calls.clear()

    def test_a_density_measure_has_no_compensation(self):
        b = fixtures.fixture_a2()
        nu = compensator_measure(jump_measure(b.X, b.H))
        with pytest.raises(ValueError, match="density form"):
            compensator_measure(nu)
        with pytest.raises(ValueError, match="density form"):
            fundamental_martingales(b.X, b.H, nu)
