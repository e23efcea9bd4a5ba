import numpy as np
import pytest
from conftest import (
    oracle_block_violation,
    oracle_conditional_expectation,
    oracle_first_jump_time,
    oracle_random_predictable_values,
    oracle_refines,
    oracle_stopping_violation,
    random_filtration,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures
from filtration_lab.enlargement import build_bundle, natural_filtration
from filtration_lab.errors import (
    FiltrationMismatch,
    NegativeProbability,
    NotAStoppingTime,
    NotPointProcess,
    ProbabilitySumMismatch,
)
from filtration_lab.finite_space import (
    NEVER,
    AdaptedProcess,
    Filtration,
    Partition,
    PointProcess,
    StoppingTime,
    build_space,
    _block_violation,
    conditional_expectation,
    first_jump_time,
    is_adapted,
    is_predictable,
    predictable_violation,
    stop_process,
    stop_values,
    zero_probability_blocks,
)


class TestSpace:
    def test_uniform(self):
        space = build_space([0.25, 0.25, 0.25, 0.25])
        assert space.n_atoms == 4
        assert space.atom_ids == (0, 1, 2, 3)
        assert not space.has_null_atoms

    def test_degenerate_single_atom(self):
        space = build_space([1.0])
        assert space.n_atoms == 1
        assert space.expectation([3.5]) == 3.5

    def test_three_atom_fixture(self):
        space = build_space([0.3, 0.5, 0.2])
        assert space.expectation([1.0, 0.0, 0.0]) == pytest.approx(0.3, abs=1e-15)

    def test_negative_probability(self):
        with pytest.raises(NegativeProbability):
            build_space([0.5, 0.6, -0.1])

    def test_sum_mismatch_reports_deviation(self):
        with pytest.raises(ProbabilitySumMismatch) as exc:
            build_space([0.5, 0.6])
        assert exc.value.deviation == pytest.approx(0.1)

    def test_zero_probability_atoms_flagged(self):
        space = build_space([0.5, 0.0, 0.5])
        assert space.null_atoms == (1,)
        assert space.has_null_atoms


class TestPartition:
    def test_canonical_and_validation(self):
        p = Partition(((2, 0), (1,)), 3)
        assert p.blocks == ((0, 2), (1,))
        assert list(p.block_of) == [0, 1, 0]

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Partition(((0, 1), (1, 2)), 3)
        with pytest.raises(ValueError):
            Partition(((0,),), 2)

    def test_refinement(self):
        fine = Partition.discrete(4)
        coarse = Partition(((0, 1), (2, 3)), 4)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(Partition.trivial(4))

    def test_filtration_requires_refinement(self):
        space = build_space([0.25] * 4)
        good = Filtration(space, (Partition.trivial(4), Partition.discrete(4)))
        assert good.horizon == 1
        with pytest.raises(ValueError):
            Filtration(space, (Partition.discrete(4), Partition.trivial(4)))


class TestConditionalExpectation:
    def test_finest_partition_is_identity(self):
        space = build_space([0.3, 0.5, 0.2])
        v = np.array([1.3, -2.0, 7.5])
        out = conditional_expectation(space, v, Partition.discrete(3))
        assert np.array_equal(out, v)

    def test_trivial_partition_full_average(self):
        space = build_space([0.3, 0.5, 0.2])
        v = np.array([1.0, 2.0, 3.0])
        out = conditional_expectation(space, v, Partition.trivial(3))
        assert np.allclose(out, space.expectation(v), atol=1e-15)

    def test_indicator_against_trivial(self):
        space = build_space([0.3, 0.5, 0.2])
        out = conditional_expectation(space, [1.0, 0.0, 0.0], Partition.trivial(3))
        assert np.allclose(out, 0.3, atol=1e-15)

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            b = fixtures.random_bundle(rng)
            v = rng.normal(size=b.space.n_atoms)
            for t in range(b.g.horizon + 1):
                got = conditional_expectation(b.space, v, b.g.at(t))
                want = oracle_conditional_expectation(b.space.probs, v, b.g.at(t).blocks)
                assert np.allclose(got, want, atol=1e-12)

    def test_tower_property(self):
        rng = np.random.default_rng(5)
        b = fixtures.space_a()
        v = rng.normal(size=16)
        fine = conditional_expectation(b.space, v, b.g.at(2))
        coarse_of_fine = conditional_expectation(b.space, fine, b.g.at(1))
        coarse = conditional_expectation(b.space, v, b.g.at(1))
        assert np.allclose(coarse_of_fine, coarse, atol=1e-12)

    def test_zero_probability_block_gets_zero(self):
        space = build_space([0.5, 0.5, 0.0])
        pi = Partition(((0, 1), (2,)), 3)
        out = conditional_expectation(space, [1.0, 3.0, 9.0], pi)
        assert out[2] == 0.0
        assert zero_probability_blocks(space, pi) == (1,)


class TestProcesses:
    def test_deterministic_process_is_adapted_and_predictable(self, space_a_bundle):
        b = space_a_bundle
        vals = np.tile(np.array([0.0, 1.0, 4.0]), (16, 1))
        p = AdaptedProcess(b.g, vals)
        assert is_adapted(p)
        assert is_predictable(p)

    def test_point_process_not_predictable_in_own_filtration(self, space_a_bundle):
        b = space_a_bundle
        assert is_adapted(b.X)
        assert not is_predictable(b.X)

    def test_point_process_validation(self, space_a_bundle):
        b = space_a_bundle
        bad = b.X.values.copy()
        bad[0, 0] = 1.0
        with pytest.raises(NotPointProcess):
            PointProcess(b.g, bad)
        bad = b.X.values.copy()
        bad[0, 2] = bad[0, 1] + 2.0
        with pytest.raises(NotPointProcess):
            PointProcess(b.g, bad)

    def test_adaptedness_closed_under_arithmetic_and_integration(self, space_a_bundle):
        from filtration_lab.calculus import stochastic_integral

        b = space_a_bundle
        s = b.X + b.H
        prod = b.X * b.H
        assert is_adapted(s) and is_adapted(prod)
        k = AdaptedProcess(b.g, np.tile(np.arange(3.0), (16, 1)))
        assert is_adapted(stochastic_integral(k, b.X))


    def test_arithmetic_rejects_a_different_space_of_the_same_size(self, space_a_bundle):
        b = space_a_bundle
        probs = np.full(16, 1.0 / 16.0)
        probs[:2] = [0.5 / 16.0, 1.5 / 16.0]
        other = build_bundle(build_space(probs), b.X.values, b.H.values)
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
            with pytest.raises(FiltrationMismatch):
                op(b.X, other.H)
        # an equal space built a second time is the same space
        again = fixtures.space_a()
        assert np.array_equal((b.X + again.H).values, b.X.values + b.H.values)


class TestBlockIndex:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), stack=st.integers(0, 3))
    def test_violation_matches_the_block_loop(self, seed, stack):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        part = Partition.from_labels(rng.integers(0, 4, n).tolist())
        # few distinct values, so constant blocks are common; NaN and inf mixed in
        levels = np.array([0.0, 1.0, -2.5, np.nan, np.inf])
        shape = (stack, n) if stack else (n,)
        cols = levels[rng.choice(5, size=shape, p=[0.7, 0.1, 0.1, 0.05, 0.05])]
        got = _block_violation(cols, part)
        rows = cols if stack else cols[None]
        hits = [v for v in (oracle_block_violation(c, part.blocks) for c in rows) if v is not None]
        assert got == (min(hits) if hits else None)

    def test_first_atom_index(self):
        part = Partition(((4, 1), (0, 3), (2,)), 5)
        assert part._first_atom.tolist() == [0, 1, 2, 0, 1]

    def test_nan_breaks_a_singleton_block(self):
        part = Partition.discrete(3)
        assert _block_violation(np.array([0.0, np.nan, 1.0]), part) == 1

    def test_predictable_violation_locates_time_and_block(self, space_a_bundle):
        b = space_a_bundle
        assert predictable_violation(b.X.values, b.g) == (1, 0)
        stack = np.zeros((2, 16, 3))
        assert predictable_violation(stack, b.g) is None
        stack[1, 5, 2] = 1.0
        assert predictable_violation(stack, b.g) == (2, b.g.at(1).block_of[5])

    def test_stop_values_stops_every_matrix_of_a_stack(self, space_a_bundle):
        b = space_a_bundle
        sigma = first_jump_time(b.X)
        stack = np.stack([b.X.values, b.H.values, 2.0 * b.X.values])
        got = stop_values(stack, sigma)
        for vals, want in zip(got, (b.X, b.H, 2.0 * b.X)):
            assert np.array_equal(vals, stop_process(want, sigma).values)


class TestStoppingTimes:
    def test_constant_and_never(self, space_a_bundle):
        b = space_a_bundle
        sigma = StoppingTime.constant(b.g, 1)
        rho = StoppingTime.never(b.g)
        assert np.array_equal(stop_process(b.X, rho).values, b.X.values)
        frozen = stop_process(b.X, StoppingTime.constant(b.g, 0))
        assert np.array_equal(frozen.values, np.zeros_like(b.X.values))
        assert sigma.min_with(rho).values.tolist() == [1] * 16

    def test_measurability_enforced(self, space_a_bundle):
        b = space_a_bundle
        values = np.zeros(16, dtype=np.int64)
        values[0] = 1  # atom 0 stops later than the rest of its t=0 block
        with pytest.raises(NotAStoppingTime):
            StoppingTime(b.g, values)

    def test_first_jump_stop_leaves_one_jump(self, space_a_bundle):
        b = space_a_bundle
        sigma = first_jump_time(b.X)
        stopped = stop_process(b.X, sigma)
        assert isinstance(stopped, PointProcess)
        # brute force per atom: at most a single unit of increase remains
        assert stopped.values.max() <= 1.0
        for atom in range(16):
            diffs = np.diff(stopped.values[atom])
            assert diffs.sum() in (0.0, 1.0)

    def test_stop_composition_is_minimum(self, space_a_bundle):
        b = space_a_bundle
        sigma = first_jump_time(b.X)
        rho = StoppingTime.constant(b.g, 1)
        twice = stop_process(stop_process(b.X, sigma), rho)
        once = stop_process(b.X, sigma.min_with(rho))
        assert np.array_equal(twice.values, once.values)

    def test_never_sentinel_valid(self, space_a_bundle):
        values = np.full(16, NEVER, dtype=np.int64)
        st = StoppingTime(space_a_bundle.g, values)
        assert (st.values == NEVER).all()


class TestBlockOracles:
    """The block-index rewrites against the per-block loops they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_refines_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        labels = rng.integers(0, 4, n)
        fine = Partition.from_labels(labels.tolist())
        coarse = Partition.from_labels((labels // 2).tolist())
        other = Partition.from_labels(rng.integers(0, 3, n).tolist())
        for a in (fine, coarse, other):
            for b in (fine, coarse, other, Partition.trivial(n + 1)):
                assert a.refines(b) == oracle_refines(a, b)
        assert fine.refines(coarse)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), valid=st.booleans(), perturb=st.booleans())
    def test_stopping_time_validation_matches_the_loop(self, seed, valid, perturb):
        rng = np.random.default_rng(seed)
        n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        filt = random_filtration(rng, n, horizon)
        if valid:
            # stop on a random set of blocks at each time: a stopping time by construction
            stopped = np.zeros(n, dtype=bool)
            values = np.full(n, NEVER, dtype=np.int64)
            for t, part in enumerate(filt.partitions):
                stopped |= (rng.random(part.n_blocks) < 0.4)[part.block_of]
                values[stopped & (values == NEVER)] = t
        else:
            values = rng.choice(np.array(list(range(horizon + 1)) + [NEVER], dtype=np.int64), n)
        if perturb:
            values[int(rng.integers(n))] = int(rng.integers(0, horizon + 1))
        want = oracle_stopping_violation(values, filt.partitions)
        if want is None:
            assert np.array_equal(StoppingTime(filt, values).values, values)
        else:
            with pytest.raises(NotAStoppingTime) as exc:
                StoppingTime(filt, values)
            assert (exc.value.t, exc.value.block) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), level=st.integers(1, 3))
    def test_first_jump_time_matches_the_loop(self, seed, level):
        rng = np.random.default_rng(seed)
        n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        filt = random_filtration(rng, n, horizon)
        values = np.zeros((n, horizon + 1))
        values[:, 1:] = np.cumsum(rng.integers(0, 2, (n, horizon)), axis=1)
        x = PointProcess(natural_filtration(filt.space, [values]), values)
        got = first_jump_time(x, level).values
        assert np.array_equal(got, oracle_first_jump_time(values, level, NEVER))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_predictable_values_draw_for_draw(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 5)))
        new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = fixtures.random_predictable_values(new, filt)
        assert np.array_equal(got, oracle_random_predictable_values(old, filt))
        assert new.normal() == old.normal()
        assert is_predictable(AdaptedProcess(filt, got))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_zero_probability_blocks_match_the_block_masses(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 12)), 2, zero_frac=0.6)
        probs = filt.space.probs
        for part in filt.partitions:
            want = tuple(i for i, b in enumerate(part.blocks) if probs[list(b)].sum() == 0.0)
            assert zero_probability_blocks(filt.space, part) == want
