import json
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    oracle_compensator,
    oracle_drift_witness,
    oracle_max_drift,
    oracle_orthogonality_report,
    oracle_positive_sups,
    random_bundle,
    random_filtration,
    random_pair_bundle,
    random_predictable_values,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures, suites
from filtration_lab.calculus import (
    compensator,
    compensators,
    dual_projection,
    is_martingale,
    martingale_checks,
    orthogonality_segments,
    quadratic_covariation,
    stochastic_integral,
    stochastic_integrals,
)
from filtration_lab.cli import run_config
from filtration_lab.errors import NotAdapted, NotIncreasing, NotPointProcess, NotPredictable
from filtration_lab.finite_space import (
    EXACT_TOL,
    AdaptedProcess,
    Filtration,
    Partition,
    PointProcess,
    build_space,
    conditional_expectation,
    is_predictable,
    positive_sup,
    positive_sups,
    segment_sups,
)
from filtration_lab.jump_measure import MarkedMeasure, compensator_measure, integrals, jump_measure


class TestCompensator:
    def test_deterministic_process_is_its_own_compensator(self, space_a_bundle):
        b = space_a_bundle
        vals = np.tile(np.array([0.0, 2.0, 5.0]), (16, 1))
        pair = compensator(AdaptedProcess(b.g, vals))
        assert np.array_equal(pair.compensator.values, vals)
        assert pair.martingale_part.sup_abs() == 0.0

    def test_uniform_fixture_linear_compensator(self, space_a_bundle):
        b = space_a_bundle
        pair = compensator(b.X)
        expected = 0.5 * np.arange(3)[None, :]
        assert np.allclose(pair.compensator.values, expected, atol=1e-15)
        assert bool(is_martingale(pair.martingale_part))
        oracle = oracle_compensator(b.space.probs, b.g.partitions, b.X.values)
        assert np.allclose(pair.compensator.values, oracle, atol=1e-14)

    def test_three_atom_fixture_compensator(self, a2_bundle):
        b = a2_bundle
        pair = compensator(b.X)
        assert np.allclose(pair.compensator.values[:, 1], 0.3, atol=1e-15)

    def test_compensator_predictable_increasing_from_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = random_bundle(rng)
            pair = compensator(b.X)
            assert is_predictable(pair.compensator)
            assert np.all(pair.compensator.increments()[:, 1:] >= -1e-15)
            assert np.all(pair.compensator.initial == 0.0)
            assert oracle_max_drift(
                b.space.probs, b.g.partitions, pair.martingale_part.values
            ) <= 1e-12

    def test_uniqueness_any_other_predictable_candidate_fails(self, space_a_bundle):
        b = space_a_bundle
        pair = compensator(b.X)
        bumped = pair.compensator.values.copy()
        bumped[:, 1:] += 0.05  # still predictable and increasing, wrong drift
        drift = is_martingale(AdaptedProcess(b.g, b.X.values - bumped))
        assert not drift
        # and a predictable increasing process compensates to itself
        again = compensator(pair.compensator)
        assert np.allclose(again.compensator.values, pair.compensator.values, atol=1e-15)

    def test_requires_increasing_from_zero(self, space_a_bundle):
        b = space_a_bundle
        with pytest.raises(NotIncreasing):
            compensator(AdaptedProcess(b.g, -b.X.values))
        shifted = b.X.values + 1.0
        with pytest.raises(NotIncreasing):
            compensator(AdaptedProcess(b.g, shifted))

    @pytest.mark.parametrize(
        "fault, error",
        [("not_adapted", NotAdapted), ("starts_at_one", NotIncreasing), ("decreases", NotIncreasing)],
    )
    def test_one_bad_middle_entry_fails_the_stack(self, space_a_bundle, fault, error):
        b = space_a_bundle
        stack = np.stack([b.X.values, b.H.values, b.X.values + b.H.values])
        bad = stack[1]
        if fault == "not_adapted":
            bad[b.g.at(1).blocks[0][0], 1:] += 1.0  # one atom of a four-atom block of P_1
        elif fault == "starts_at_one":
            bad += 1.0
        else:
            bad[:, -1] = bad[:, -2] - 1.0
        with pytest.raises(error):
            compensators(stack, b.g)
        with pytest.raises(error):
            compensator(AdaptedProcess(b.g, bad))
        good = compensators(stack[[0, 2]], b.g)
        for i, entry in enumerate(stack[[0, 2]]):
            assert np.array_equal(good[i], compensator(AdaptedProcess(b.g, entry)).compensator.values)


class TestBrackets:
    def test_self_bracket_of_counting_process(self, space_a_bundle):
        b = space_a_bundle
        assert np.array_equal(quadratic_covariation(b.X, b.X).values, b.X.values)

    def test_joint_bracket_mean(self, space_a_bundle):
        b = space_a_bundle
        bracket = quadratic_covariation(b.X, b.H)
        assert b.space.expectation(bracket.terminal) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_jumps_zero_bracket(self, staggered_bundle):
        b = staggered_bundle
        assert quadratic_covariation(b.X, b.H).sup_abs() == 0.0

    def test_predictable_covariation_of_compensated_count(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        pc = dual_projection(quadratic_covariation(m, m))
        assert np.allclose(pc.values, 0.25 * np.arange(3)[None, :], atol=1e-15)
        # the product minus the predictable covariation drifts zero
        prod = AdaptedProcess(b.g, m.values * m.values - pc.values)
        assert bool(is_martingale(prod))

    def test_discrete_bracket_identity_not_the_continuous_one(self, space_a_bundle):
        # <M,M>_t = sum_s p(1-p) per step, not the compensator itself
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        pc = dual_projection(quadratic_covariation(m, m))
        comp = compensator(b.X).compensator
        assert not np.allclose(pc.values, comp.values)

    def test_self_covariation_equals_conditional_variance_sum(self):
        # <M,M>_t accumulates p_s(1-p_s) for the one-step jump probabilities
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = random_bundle(rng)
            pair = compensator(b.X)
            m = pair.martingale_part
            pc = dual_projection(quadratic_covariation(m, m))
            p_step = pair.compensator.increments()
            expected = np.cumsum(p_step * (1.0 - p_step), axis=1)
            assert np.allclose(pc.values, expected, atol=1e-12)

    def test_disjoint_compensator_jumps_give_zero_covariation(self, staggered_bundle):
        b = staggered_bundle
        yb = compensator(b.X).martingale_part
        zb = compensator(b.H).martingale_part
        assert dual_projection(quadratic_covariation(yb, zb)).sup_abs() <= 1e-15

    def test_integration_by_parts(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b = random_bundle(rng)
            y, z = b.X, b.H
            lhs = y.values * z.values - (y.initial * z.initial)[:, None]
            rhs = (
                stochastic_integral(_left_shifted(y), z).values
                + stochastic_integral(_left_shifted(z), y).values
                + quadratic_covariation(y, z).values
            )
            assert np.allclose(lhs, rhs, atol=1e-12)


def _left_shifted(p):
    """Y_{t-1}, with Y_0 kept at time 0."""
    return AdaptedProcess(p.filtration, np.concatenate([p.values[:, :1], p.values[:, :-1]], axis=1))


class TestStochasticIntegral:
    def test_unit_integrand_recovers_increments(self, space_a_bundle):
        b = space_a_bundle
        ones = AdaptedProcess(b.g, np.ones_like(b.X.values))
        out = stochastic_integral(ones, b.X)
        assert np.array_equal(out.values, b.X.values - b.X.values[:, :1])

    def test_zero_integrand(self, space_a_bundle):
        b = space_a_bundle
        zeros = AdaptedProcess(b.g, np.zeros_like(b.X.values))
        assert stochastic_integral(zeros, b.X).sup_abs() == 0.0

    def test_time_integrand_telescopes(self, space_a_bundle):
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        k = AdaptedProcess(b.g, np.tile(np.arange(3.0), (16, 1)))
        out = stochastic_integral(k, m)
        dm = m.increments()
        manual = np.cumsum(np.arange(3.0)[None, :] * dm, axis=1)
        assert np.allclose(out.values, manual, atol=1e-15)
        assert bool(is_martingale(out))

    def test_rejects_non_predictable_integrand(self, space_a_bundle):
        b = space_a_bundle
        with pytest.raises(NotPredictable):
            stochastic_integral(b.X, b.X)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_martingale_preservation(self, seed):
        rng = np.random.default_rng(seed)
        b = random_bundle(rng)
        m = compensator(b.X).martingale_part
        k = AdaptedProcess(b.g, random_predictable_values(rng, b.g))
        assert bool(is_martingale(stochastic_integral(k, m)))


class TestStackedKernels:
    """Each entry of a stacked kernel's result is the one-process result."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_every_entry_is_the_one_process_result(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 10)), int(rng.integers(1, 4)))
        space, n, width = filt.space, filt.space.n_atoms, filt.horizon + 1
        # martingale closures, some kicked off at a random (atom, time)
        values = np.zeros((2, 3, n, width))
        for entry in np.ndindex(2, 3):
            xi = rng.normal(size=n)
            for t, part in enumerate(filt.partitions):
                values[entry + (slice(None), t)] = conditional_expectation(space, xi, part)
            if rng.random() < 0.5:
                values[entry + (int(rng.integers(n)), int(rng.integers(width)))] += rng.normal()
        checks = martingale_checks(values, filt)
        assert len(checks) == 6
        for check, one in zip(checks, values.reshape(6, n, width)):
            want = is_martingale(AdaptedProcess(filt, one))
            assert check.ok == want.ok
            if not check:
                assert check.witness == want.witness
        ks = fixtures.random_predictable_stack(rng, filt, 6).reshape(2, 3, n, width)
        m = AdaptedProcess(filt, values[0, 0])
        got = stochastic_integrals(ks, m)
        for entry in np.ndindex(2, 3):
            one = stochastic_integral(AdaptedProcess(filt, ks[entry]), m).values
            assert np.array_equal(got[entry], one)
            assert positive_sups(space, got)[entry] == positive_sup(space, one)

    def test_a_stacked_drift_is_the_one_process_drift_bitwise(self):
        # fixture_a2 under a compensator scaled by 1.001: every function drifts, and a
        # stack of 100 must report each drift with the bits it has alone
        b = fixtures.fixture_a2()
        mu = jump_measure(b.X, b.H)
        nu = MarkedMeasure(b.g, compensator_measure(mu).increments * 1.001, is_predictable_density=True)
        ws = fixtures.random_predictable_stack(np.random.default_rng(5), b.g, 300)
        ws = ws.reshape((100, 3) + ws.shape[1:])
        diff = integrals(ws, mu) - integrals(ws, nu)
        checks = martingale_checks(diff, b.g)
        assert not any(checks)
        assert [c.witness for c in checks] == [is_martingale(AdaptedProcess(b.g, d)).witness for d in diff]

    def test_a_stack_sup_keeps_a_nan_on_a_positive_atom_only(self):
        space = build_space([0.5, 0.5, 0.0])
        stack = np.zeros((3, 3, 2))
        stack[0, 2, 1] = np.nan  # null atom
        stack[1, 0, 1] = np.nan
        stack[2, 1, 0] = -3.0
        assert repr(positive_sups(space, stack).tolist()) == "[0.0, nan, 3.0]"

    def test_the_three_sups_are_the_oracle_bitwise(self):
        # NaN, +-inf and +-0.0 on positive and null atoms, all-null segments, T+1 = 1,
        # empty leading axes, and strided and broadcast views, as the suites pass them
        rng = np.random.default_rng(34)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        seen = {"all-null segment": 0, "null nan": 0, "positive nan": 0, "empty": 0, "T+1 = 1": 0}
        for _ in range(300):
            n, width = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            probs = rng.random(n) * (rng.random(n) < 0.6)
            probs[rng.integers(n)] += 1.0
            space = build_space(probs / probs.sum())
            lead = tuple(int(k) for k in rng.integers(0, 4, size=int(rng.integers(0, 3))))
            stack = rng.normal(size=lead + (n, width)) * 10.0 ** rng.integers(-3, 4)
            poke = rng.random(stack.shape) < 0.2
            stack[poke] = rng.choice(specials, size=int(poke.sum()))
            starts = np.flatnonzero(rng.random(n) < 0.4)
            starts = np.r_[0, starts[starts > 0]]
            nan_atoms = np.isnan(stack).any(axis=tuple(range(len(lead))) + (-1,))
            seen["all-null segment"] += any(not space.positive[a:b].any() for a, b in zip(starts, [*starts[1:], n]))
            seen["null nan"] += bool((nan_atoms & ~space.positive).any())
            seen["positive nan"] += bool((nan_atoms & space.positive).any())
            seen["empty"] += stack.size == 0
            seen["T+1 = 1"] += width == 1
            time_major = np.swapaxes(np.ascontiguousarray(np.swapaxes(stack, -1, -2)), -1, -2)
            for x in (stack, time_major, np.broadcast_to(stack[..., :1], stack.shape)):
                want = oracle_positive_sups(space, x, starts)
                assert segment_sups(space, x, starts).tobytes() == want.tobytes()
                assert np.asarray(positive_sups(space, x)).tobytes() == oracle_positive_sups(space, x)[..., 0].tobytes()
                atoms_first = np.moveaxis(x, -2, 0)
                one = oracle_positive_sups(space, atoms_first.reshape(n, -1))[0]
                assert np.float64(positive_sup(space, atoms_first)).tobytes() == one.tobytes()
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("n, width", [(256, 5), (37, 4), (5, 2)])
    def test_a_toolkit_stack_is_the_oracle_bitwise(self, n, width):
        # the stacked toolkit's (7 gaps, 5 pairs, n, T+1) stacks, with NaN, +-inf and -0.0 on null and
        # positive atoms, and a segment of null atoms only
        rng = np.random.default_rng(n)
        probs = rng.random(n) * (rng.random(n) < 0.7)
        probs[0] = 0.0
        probs[-1] += 1.0
        space = build_space(probs / probs.sum())
        stack = rng.normal(size=(7, 5, n, width))
        poke = rng.random(stack.shape) < 0.01
        stack[poke] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(poke.sum()))
        stack[3, 2, -1, 0] = np.nan  # a positive atom
        stack[4, 1, 0, -1] = np.nan  # the null atom
        starts = np.r_[0, 1, np.flatnonzero(rng.random(n) < 0.2)[1:]]
        starts = np.unique(starts[starts < n])
        got = segment_sups(space, stack, starts)
        assert got.shape == (7, 5, len(starts))
        assert got.tobytes() == oracle_positive_sups(space, stack, starts).tobytes()
        assert not space.positive[0] and (got[..., 0] == 0.0).all()  # the null atom's own segment
        assert np.isnan(got).any()

    def test_a_segment_sup_is_the_sup_of_its_atoms(self):
        space = build_space([0.25, 0.25, 0.0, 0.25, 0.25, 0.0])
        stack = np.zeros((3, 6, 2))
        stack[0, 2, 1] = np.nan  # null atom
        stack[1, 3, 1] = np.nan
        stack[2, 1, 0] = -3.0
        stack[2, 4, 1] = 2.0
        got = segment_sups(space, stack, [0, 2, 3])
        assert repr(got.tolist()) == "[[0.0, 0.0, 0.0], [0.0, 0.0, nan], [3.0, 0.0, 2.0]]"
        # a segment that is every atom is the positive sup
        assert np.array_equal(segment_sups(space, stack, [0])[:, 0], positive_sups(space, stack), equal_nan=True)

    def test_the_first_non_predictable_integrand_is_named(self, space_a_bundle):
        b = space_a_bundle
        ks = fixtures.random_predictable_stack(np.random.default_rng(3), b.g, 4)
        atom = b.g.at(1).blocks[1][-1]
        ks[3, atom, 2] += 1.0
        ks[2, atom, 2] += 1.0
        with pytest.raises(NotPredictable, match=r"\(t, block\) = \(2, 1\)$"):
            stochastic_integrals(ks, compensator(b.X).martingale_part)
        with pytest.raises(NotPredictable, match=r"\(t, block\) = \(2, 1\)$"):
            stochastic_integral(AdaptedProcess(b.g, ks[3]), compensator(b.X).martingale_part)


class TestMartingaleCheck:
    def test_compensated_part_passes(self, space_a_bundle):
        assert bool(is_martingale(compensator(space_a_bundle.X).martingale_part))

    def test_counting_process_fails_with_witness_at_first_step(self, space_a_bundle):
        check = is_martingale(space_a_bundle.X)
        assert not check
        t, block, drift = check.witness
        assert t == 1
        assert drift == pytest.approx(0.5, abs=1e-15)

    def test_a2_compensated_bracket_drifts(self, a2_bundle):
        b = a2_bundle
        yb = compensator(b.X).martingale_part
        zb = compensator(b.H).martingale_part
        bracket = quadratic_covariation(yb, zb)
        check = is_martingale(bracket)
        assert not check
        assert check.witness[2] == pytest.approx(-0.15, abs=1e-12)


class TestOrthogonalityToolkit:
    def test_clauses_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            b = random_bundle(rng)
            toolkit = orthogonality_segments(b.X, b.H, [0])
            assert all(toolkit.clauses_at(0).values()), toolkit.clauses
            assert toolkit.decomposition_gap[0] <= 1e-12

    def test_mixed_brackets_compensate_to_predictable_bracket(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            b = random_bundle(rng)
            yp = dual_projection(b.X, b.g)
            zp = dual_projection(b.H, b.g)
            target = quadratic_covariation(yp, zp).values
            for mixed in (
                quadratic_covariation(yp, b.H),
                quadratic_covariation(b.X, zp),
            ):
                got = dual_projection(mixed, b.g).values
                assert np.abs((got - target)[b.space.positive]).max() <= 1e-9

    def test_a2_pair_not_orthogonal_despite_disjoint_jumps(self, a2_bundle):
        b = a2_bundle
        toolkit = orthogonality_segments(b.X, b.H, [0])
        assert toolkit.jumps_disjoint[0]
        assert not toolkit.orthogonal[0]
        assert toolkit.first_move() == (1, 0)
        yp = dual_projection(b.X, b.g)
        zp = dual_projection(b.H, b.g)
        product = (yp.increments() * zp.increments())[:, 1]
        assert np.allclose(product, 0.15, atol=1e-12)

    def test_staggered_pair_orthogonal(self, staggered_bundle):
        toolkit = orthogonality_segments(staggered_bundle.X, staggered_bundle.H, [0])
        assert toolkit.jumps_disjoint[0]
        assert toolkit.orthogonal[0]
        assert toolkit.first_move() is None

    def test_self_pair_reproduces_jump_pattern(self, space_a_bundle):
        # [Y,Y] compensates to the compensator itself, which never matches
        # the bracket of the compensator pair, so the compensated bracket drifts
        b = space_a_bundle
        toolkit = orthogonality_segments(b.X, b.X, [0])
        own = compensator(b.X).compensator
        self_comp = dual_projection(quadratic_covariation(b.X, b.X), b.g)
        assert np.allclose(self_comp.values, own.values, atol=1e-15)
        assert np.allclose(own.values, 0.5 * np.arange(3)[None, :], atol=1e-15)
        assert np.allclose(
            toolkit.bracket_compensators, 0.25 * np.arange(3)[None, :], atol=1e-15
        )
        assert not toolkit.orthogonal[0]
        assert not bool(is_martingale(AdaptedProcess(b.g, toolkit.bracket_bar)))

    def test_inputs_must_be_counting_processes(self, space_a_bundle):
        b = space_a_bundle
        half = AdaptedProcess(b.g, 0.5 * b.X.values)
        with pytest.raises(NotPointProcess):
            orthogonality_segments(half, b.H, [0])
        with pytest.raises(NotPointProcess):
            orthogonality_segments(b.X, half, [0])
        # a plain process with counting values is converted, not rejected
        toolkit = orthogonality_segments(AdaptedProcess(b.g, b.X.values), b.H, [0])
        assert toolkit.orthogonal[0] and toolkit.first_move() is None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bracket_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        b = random_bundle(rng)
        toolkit = orthogonality_segments(b.X, b.H, [0])
        assert toolkit.decomposition_gap[0] <= 1e-12


def _assert_is_the_oracle(toolkit, y, z):
    """The one-segment toolkit of (y, z) is the seven-pass oracle's report, bit for bit."""
    want = oracle_orthogonality_report(y, z)
    assert np.array_equal(toolkit.bracket_compensators, want["bracket_compensators"])
    assert np.array_equal(toolkit.bracket_bar, want["bracket_bar"])
    assert np.array_equal(toolkit.predictable_jump_product, want["predictable_jump_product"])
    assert toolkit.clauses_at(0) == want["clauses"]
    assert (toolkit.orthogonal[0], toolkit.first_move(), toolkit.jumps_disjoint[0]) == (
        want["is_orthogonal"], want["witness"], want["jumps_disjoint"]
    )
    assert toolkit.decomposition_gap[0] == want["decomposition_gap"]


class TestTwoPassReport:
    """The two stacked projection passes give the seven-pass report, field by field and bit by bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        b = random_bundle(rng)
        _assert_is_the_oracle(orthogonality_segments(b.X, b.H, [0]), b.X, b.H)
        # counting paths drawn atom by atom on a space with null atoms: not adapted in general
        filt = random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 4)))
        n, width = filt.space.n_atoms, filt.horizon + 1
        y, z = (
            PointProcess(filt, np.cumsum(np.pad(rng.random((n, width - 1)) < p, ((0, 0), (1, 0))), axis=1))
            for p in (0.4, 0.6)
        )
        _assert_is_the_oracle(orthogonality_segments(y, z, [0]), y, z)

    @pytest.mark.parametrize("name, pair", [("fixture_a2", ("X", "H")), ("space_a", ("X", "X"))])
    def test_canonical_pairs(self, name, pair):
        b = getattr(fixtures, name)()
        y, z = (getattr(b, p) for p in pair)
        _assert_is_the_oracle(orthogonality_segments(y, z, [0]), y, z)


class TestSegmentedToolkit:
    """Each pair of a disjoint union is one segment, and reports bit for bit what it reports alone."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 99])
    def test_each_segment_is_its_lone_pair_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        lone = [random_bundle(rng) for _ in range(60)]
        covered = set()
        for b, starts, pairs, _ in fixtures.random_pair_unions(np.random.default_rng(seed), 60):
            toolkit = orthogonality_segments(b.X, b.H, starts)
            for j, i in enumerate(pairs):
                pair = lone[i]
                alone = orthogonality_segments(pair.X, pair.H, [0])
                want = oracle_orthogonality_report(pair.X, pair.H)
                assert toolkit.clauses_at(j) == alone.clauses_at(0) == want["clauses"]
                gap = toolkit.decomposition_gap[j]
                assert gap.tobytes() == alone.decomposition_gap[0].tobytes()
                assert gap.tobytes() == np.float64(want["decomposition_gap"]).tobytes()
                assert toolkit.orthogonal[j] == alone.orthogonal[0] == want["is_orthogonal"]
                assert toolkit.jumps_disjoint[j] == alone.jumps_disjoint[0] == want["jumps_disjoint"]
                covered.add((pair.g.horizon, pair.initial.n_blocks > 1))
            # the filler atom: no jumps, so nothing to break
            assert toolkit.decomposition_gap[-1] == 0.0 and all(v[-1] for v in toolkit.clauses.values())
        assert covered == {(h, initial) for h in (1, 2, 3) for initial in (False, True)}

    def test_each_pair_keeps_its_own_verdict(self):
        # independent coins: orthogonal, jumps overlap; Counterexample A.2: not orthogonal, jumps disjoint
        coins = (np.full(4, 0.25), np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]]), None)
        a2 = (np.array([0.3, 0.5, 0.2]), np.array([[1], [0], [0]]), np.array([[0], [1], [0]]), None)
        for draws in ((coins, a2), (a2, coins)):
            union, starts, _, _ = fixtures.pair_union([0, 1], draws)
            toolkit = orthogonality_segments(union.X, union.H, starts)
            for j, draw in enumerate(draws):
                alone = random_pair_bundle(draw, "alone")
                lone = orthogonality_segments(alone.X, alone.H, [0])
                assert (toolkit.orthogonal[j], toolkit.jumps_disjoint[j]) == (lone.orthogonal[0], lone.jumps_disjoint[0])
                assert toolkit.clauses_at(j) == lone.clauses_at(0)
                assert toolkit.decomposition_gap[j] == lone.decomposition_gap[0]
            assert toolkit.orthogonal[:2].tolist() == [draws[0] is coins, draws[1] is coins]
            assert toolkit.jumps_disjoint[:2].tolist() == [draws[0] is a2, draws[1] is a2]
            # reduced over the whole union, each verdict would be lost for one of the pairs
            whole = orthogonality_segments(union.X, union.H, [0])
            assert (whole.orthogonal[0], whole.jumps_disjoint[0]) == (False, False)

    def test_the_toolkit_makes_one_union_pass_per_horizon(self, monkeypatch):
        # the 200 random pairs as one union pass (a call of more than one segment) per horizon present
        # (3 at the bundled seed), and lone one-segment calls only on fixture_a2 and space_a, never per pair
        passes, reports = [], []

        def union_pass(y, z, starts):
            if len(starts) > 1:
                passes.append((y.horizon, len(starts) - 1))
            else:
                reports.append(y.space.n_atoms)
            return orthogonality_segments(y, z, starts)

        monkeypatch.setattr(suites, "orthogonality_segments", union_pass)
        config_dir = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs"
        config = json.loads((config_dir / "space_a_full.json").read_text())
        report_doc = run_config(dict(config, suites=["orthogonality_toolkit"]))
        assert report_doc["summary"]["failed"] == 0
        assert [h for h, _ in passes] == [1, 2, 3]
        assert sum(pairs for _, pairs in passes) == 200
        assert reports == [3, 16]


class TestDriftWitness:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), kicks=st.integers(0, 2), nan=st.booleans())
    def test_witness_matches_the_block_loop(self, seed, kicks, nan):
        rng = np.random.default_rng(seed)
        n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        filt = random_filtration(rng, n, horizon)
        xi = rng.normal(size=n)
        values = np.stack(
            [conditional_expectation(filt.space, xi, part) for part in filt.partitions], axis=1
        )
        for _ in range(kicks):  # a drift at a random (atom, time)
            values[int(rng.integers(n)), int(rng.integers(1, horizon + 1))] += rng.normal()
        if nan:  # a NaN column or a single NaN value
            t = int(rng.integers(horizon + 1))
            values[int(rng.integers(n)) if rng.random() < 0.5 else slice(None), t] = np.nan
        check = is_martingale(AdaptedProcess(filt, values))
        want = oracle_drift_witness(filt.space.probs, filt.partitions, values, 1e-9)
        # same block and bitwise the same drift; repr compares a NaN drift too
        assert repr(check.witness) == repr(want)
        assert check.ok == (want is None)

    def test_witness_is_the_earliest_time_then_the_lowest_block(self):
        # atom 0 drifts only at t=2, atom 1 already at t=1
        space = build_space([0.5, 0.5])
        filt = Filtration(space, (Partition.discrete(2),) * 3)
        check = is_martingale(AdaptedProcess(filt, [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert check.witness == (1, 1, 1.0)

    def test_nan_drift_fails(self, space_a_bundle):
        values = np.zeros((space_a_bundle.space.n_atoms, 3))
        values[:, 2] = np.nan
        check = is_martingale(AdaptedProcess(space_a_bundle.g, values))
        assert not check
        assert check.witness[:2] == (2, 0) and np.isnan(check.witness[2])

    def test_drift_at_the_tolerance_passes(self):
        space = build_space([1.0])
        filt = Filtration(space, (Partition.trivial(1), Partition.trivial(1)))
        assert is_martingale(AdaptedProcess(filt, [[0.0, EXACT_TOL]]))
        above = np.nextafter(EXACT_TOL, 1.0)
        assert is_martingale(AdaptedProcess(filt, [[0.0, above]])).witness == (1, 0, above)
