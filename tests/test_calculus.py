import numpy as np
import pytest
from conftest import oracle_compensator, oracle_drift_witness, oracle_max_drift, random_filtration
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures
from filtration_lab.calculus import (
    compensator,
    dual_projection,
    is_martingale,
    orthogonality_report,
    predictable_covariation,
    quadratic_covariation,
    stochastic_integral,
)
from filtration_lab.errors import NotIncreasing, NotMartingale, NotPointProcess, NotPredictable
from filtration_lab.finite_space import AdaptedProcess, conditional_expectation, is_predictable


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
            b = fixtures.random_bundle(rng)
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
        pc = predictable_covariation(m, m)
        assert np.allclose(pc.values, 0.25 * np.arange(3)[None, :], atol=1e-15)
        # the product minus the predictable covariation drifts zero
        prod = AdaptedProcess(b.g, m.values * m.values - pc.values)
        assert bool(is_martingale(prod))

    def test_predictable_covariation_requires_martingales(self, space_a_bundle):
        b = space_a_bundle
        with pytest.raises(NotMartingale):
            predictable_covariation(b.X, b.X)

    def test_discrete_bracket_identity_not_the_continuous_one(self, space_a_bundle):
        # <M,M>_t = sum_s p(1-p) per step, not the compensator itself
        b = space_a_bundle
        m = compensator(b.X).martingale_part
        pc = predictable_covariation(m, m)
        comp = compensator(b.X).compensator
        assert not np.allclose(pc.values, comp.values)

    def test_self_covariation_equals_conditional_variance_sum(self):
        # <M,M>_t accumulates p_s(1-p_s) for the one-step jump probabilities
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = fixtures.random_bundle(rng)
            pair = compensator(b.X)
            pc = predictable_covariation(pair.martingale_part, pair.martingale_part)
            p_step = pair.compensator.increments()
            expected = np.cumsum(p_step * (1.0 - p_step), axis=1)
            assert np.allclose(pc.values, expected, atol=1e-12)

    def test_disjoint_compensator_jumps_give_zero_covariation(self, staggered_bundle):
        b = staggered_bundle
        yb = compensator(b.X).martingale_part
        zb = compensator(b.H).martingale_part
        assert predictable_covariation(yb, zb).sup_abs() <= 1e-15

    def test_integration_by_parts(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b = fixtures.random_bundle(rng)
            y, z = b.X, b.H
            lhs = y.values * z.values - (y.initial * z.initial)[:, None]
            rhs = (
                stochastic_integral(y.left_shifted(), z).values
                + stochastic_integral(z.left_shifted(), y).values
                + quadratic_covariation(y, z).values
            )
            assert np.allclose(lhs, rhs, atol=1e-12)


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
        b = fixtures.random_bundle(rng)
        m = compensator(b.X).martingale_part
        k = AdaptedProcess(b.g, fixtures.random_predictable_values(rng, b.g))
        assert bool(is_martingale(stochastic_integral(k, m)))


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
            b = fixtures.random_bundle(rng)
            rep = orthogonality_report(b.X, b.H)
            assert all(rep.clauses.values()), rep.clauses
            assert rep.decomposition_gap <= 1e-12

    def test_mixed_brackets_compensate_to_predictable_bracket(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            b = fixtures.random_bundle(rng)
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
        rep = orthogonality_report(b.X, b.H)
        assert rep.jumps_disjoint
        assert not rep.is_orthogonal
        assert rep.witness == (1, 0)
        yp = dual_projection(b.X, b.g)
        zp = dual_projection(b.H, b.g)
        product = (yp.increments() * zp.increments())[:, 1]
        assert np.allclose(product, 0.15, atol=1e-12)

    def test_staggered_pair_orthogonal(self, staggered_bundle):
        rep = orthogonality_report(staggered_bundle.X, staggered_bundle.H)
        assert rep.jumps_disjoint
        assert rep.is_orthogonal
        assert rep.witness is None

    def test_self_pair_reproduces_jump_pattern(self, space_a_bundle):
        # [Y,Y] compensates to the compensator itself, which never matches
        # the bracket of the compensator pair, so the compensated bracket drifts
        b = space_a_bundle
        rep = orthogonality_report(b.X, b.X)
        own = compensator(b.X).compensator
        self_comp = dual_projection(quadratic_covariation(b.X, b.X), b.g)
        assert np.allclose(self_comp.values, own.values, atol=1e-15)
        assert np.allclose(own.values, 0.5 * np.arange(3)[None, :], atol=1e-15)
        assert np.allclose(
            rep.bracket_compensators.values, 0.25 * np.arange(3)[None, :], atol=1e-15
        )
        assert not rep.is_orthogonal
        assert not bool(is_martingale(rep.bracket_bar))

    def test_inputs_must_be_counting_processes(self, space_a_bundle):
        b = space_a_bundle
        half = AdaptedProcess(b.g, 0.5 * b.X.values)
        with pytest.raises(NotPointProcess):
            orthogonality_report(half, b.H)
        with pytest.raises(NotPointProcess):
            orthogonality_report(b.X, half)
        # a plain process with counting values is converted, not rejected
        rep = orthogonality_report(AdaptedProcess(b.g, b.X.values), b.H)
        assert rep.is_orthogonal and rep.witness is None

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bracket_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        b = fixtures.random_bundle(rng)
        rep = orthogonality_report(b.X, b.H)
        assert rep.decomposition_gap <= 1e-12


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
        assert check.witness == want  # same block and bitwise the same drift
        assert check.ok == (want is None)

    def test_drift_at_the_tolerance_passes(self, space_a_bundle):
        b = space_a_bundle
        vals = np.tile(np.array([0.0, 0.5, 0.5]), (16, 1))
        assert is_martingale(AdaptedProcess(b.g, vals), tol=0.5)
        assert is_martingale(AdaptedProcess(b.g, vals), tol=0.25).witness == (1, 0, 0.5)
