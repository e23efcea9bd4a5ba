import numpy as np
import pytest
from conftest import oracle_join, oracle_natural_filtration, random_bundle
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures
from filtration_lab.calculus import compensator, is_martingale
from filtration_lab.enlargement import (
    build_bundle,
    initial_enlargement,
    join,
    natural_filtration,
    progressive_enlargement,
    verify_filtration_identities,
)
from filtration_lab.errors import FiltrationMismatch
from filtration_lab.finite_space import (
    Partition,
    PointProcess,
    build_space,
    first_jump_time,
    is_adapted,
    is_predictable,
)


class TestNaturalFiltration:
    def test_constant_process_gives_trivial_filtration(self):
        space = build_space([0.25] * 4)
        vals = np.ones((4, 3))
        filt = natural_filtration(space, [vals])
        assert all(p.n_blocks == 1 for p in filt.partitions)

    def test_single_process_block_counts(self, space_a_bundle):
        b = space_a_bundle
        filt = natural_filtration(b.space, [b.X.values])
        assert [p.n_blocks for p in filt.partitions] == [1, 2, 4]

    def test_joint_block_counts(self, space_a_bundle):
        b = space_a_bundle
        filt = natural_filtration(b.space, [b.X.values, b.H.values])
        assert [p.n_blocks for p in filt.partitions] == [1, 4, 16]

    def test_coarsest_adapted(self, space_a_bundle):
        b = space_a_bundle
        filt = natural_filtration(b.space, [b.X.values])
        assert is_adapted(PointProcess(filt, b.X.values))


def _random_value_matrices(rng, n, horizon, count):
    """``count`` (n, horizon + 1) matrices over three float levels, so that paths repeat."""
    levels = rng.normal(size=3)
    return [levels[rng.integers(0, 3, (n, horizon + 1))] for _ in range(count)]


class TestFiltrationOracles:
    """The slice-by-slice natural filtration and the join against grouping by whole prefixes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), count=st.integers(1, 2), horizon=st.integers(1, 4))
    def test_natural_filtration_matches_prefix_grouping(self, seed, count, horizon):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        space = build_space(np.full(n, 1.0 / n))
        mats = _random_value_matrices(rng, n, horizon, count)
        filt = natural_filtration(space, mats)
        assert [list(p.blocks) for p in filt.partitions] == oracle_natural_filtration(mats)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), horizon=st.integers(1, 4))
    def test_join_matches_pairwise_intersections(self, seed, horizon):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        space = build_space(np.full(n, 1.0 / n))
        mx, mh = _random_value_matrices(rng, n, horizon, 2)
        fx, fh = natural_filtration(space, [mx]), natural_filtration(space, [mh])
        for a, b in zip(fx.partitions, fh.partitions):
            for left, right in ((a, b), (b, a), (a, Partition.trivial(n)), (Partition.trivial(n), b)):
                assert list(join(left, right).blocks) == oracle_join(left, right)

    def test_horizon_zero_still_raises(self):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            natural_filtration(build_space([0.5, 0.5]), [np.zeros((2, 1))])

    @pytest.mark.parametrize(
        "values",
        [[], [0.0, 1.0], np.zeros((3, 2)), np.zeros((2, 0)), np.zeros((2, 2, 1))],
        ids=["empty", "flat", "wrong_atom_count", "no_times", "three_axes"],
    )
    def test_rejects_values_not_atoms_by_times(self, values):
        with pytest.raises(FiltrationMismatch):
            natural_filtration(build_space([0.5, 0.5]), [values])

    def test_rejects_processes_of_different_horizons(self):
        with pytest.raises(FiltrationMismatch, match="disagree on shape"):
            natural_filtration(build_space([0.5, 0.5]), [np.zeros((2, 2)), np.zeros((2, 3))])


class TestJoins:
    def test_join_with_trivial_is_identity(self):
        pi = Partition(((0, 1), (2, 3)), 4)
        assert join(pi, Partition.trivial(4)) == pi

    def test_join_commutes(self):
        a = Partition(((0, 1), (2, 3)), 4)
        b = Partition(((0, 2), (1, 3)), 4)
        assert join(a, b) == join(b, a)
        assert join(a, b) == Partition.discrete(4)

    def test_initial_enlargement_separates_from_time_zero(self):
        space = build_space([1.0 / 8.0] * 8)
        dx = np.array([[(a >> 2) & 1, (a >> 1) & 1, a & 1] for a in range(8)])
        vals = np.zeros((8, 4))
        vals[:, 1:] = np.cumsum(dx, axis=1)
        base = natural_filtration(space, [vals])
        initial = Partition.from_labels(first_jump_time(PointProcess(base, vals)).values)
        f = initial_enlargement(base, initial)
        # time 0 already separates the first-jump-time classes
        assert f.at(0) == initial
        for t in range(4):
            assert f.at(t).refines(initial)

    def test_progressive_equals_joint_natural_when_initial_trivial(self, space_a_bundle):
        b = space_a_bundle
        joint = natural_filtration(b.space, [b.X.values, b.H.values])
        assert b.g.partitions == joint.partitions

    def test_monotone_and_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            b = random_bundle(rng)
            for t in range(b.g.horizon + 1):
                assert b.g.at(t).refines(b.f.at(t))
            again = progressive_enlargement(b.g, b.h_filtration)
            assert again.partitions == b.g.partitions


class TestIdentities:
    def test_identities_hold_on_fixtures(self):
        for b in (fixtures.space_a(), fixtures.staggered(), fixtures.fixture_a2()):
            checks = verify_filtration_identities(b)
            assert all(checks.values()), checks

    def test_identities_hold_with_finest_initial_field(self, space_a_bundle):
        b = space_a_bundle
        full = build_bundle(
            b.space, b.X.values, b.H.values, initial=Partition.discrete(16)
        )
        assert all(verify_filtration_identities(full).values())
        assert all(p.n_blocks == 16 for p in full.g.partitions)

    def test_identities_hold_for_single_jump_only_bundle(self, a2_bundle):
        b = a2_bundle
        h_only = build_bundle(b.space, np.zeros_like(b.X.values), b.H.values)
        assert all(verify_filtration_identities(h_only).values())

    def test_identities_on_random_bundles(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            assert all(verify_filtration_identities(random_bundle(rng)).values())

    def test_component_processes_compensate_in_enlargement(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            b = random_bundle(rng)
            for proc in (b.X, b.H):
                assert is_adapted(proc)
                pair = compensator(proc)
                assert is_predictable(pair.compensator)
                assert bool(is_martingale(pair.martingale_part))
