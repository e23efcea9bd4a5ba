import numpy as np
import pytest
from conftest import (
    oracle_block_loop,
    oracle_block_tables,
    oracle_block_violation,
    oracle_conditional_expectation,
    oracle_first_jump_time,
    oracle_first_seen_blocks,
    oracle_random_predictable_values,
    oracle_refines,
    oracle_stopping_violation,
    oracle_time_increments,
    random_bundle,
    random_filtration,
    random_predictable_values,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import finite_space, fixtures
from filtration_lab.calculus import dual_projections
from filtration_lab.enlargement import build_bundle, natural_filtration
from filtration_lab.errors import (
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
    conditional_expectation,
    first_jump_time,
    is_adapted,
    is_predictable,
    running_sums,
    slice_expectations,
    slice_violation,
    stop_process,
    stop_values,
    time_increments,
)
from filtration_lab.representation import multiplicity


class TestSpace:
    def test_uniform(self):
        space = build_space([0.25, 0.25, 0.25, 0.25])
        assert space.n_atoms == 4
        assert space.null_atoms == ()

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

    def test_the_positive_mask_is_built_once_and_read_only(self):
        space = build_space([0.5, 0.0, 0.5])
        mask = space.positive
        assert mask is space.positive
        assert mask.tolist() == [True, False, True]
        with pytest.raises(ValueError, match="read-only"):
            mask[1] = True
        with pytest.raises(ValueError, match="read-only"):
            mask[:, None][1, 0] = True


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


    @pytest.mark.parametrize(
        "blocks,n,message",
        [
            (((0, 1), ()), 2, "empty block"),
            (((0, 2),), 2, "atom id 2 outside 0..1"),
            (((0, -1), (1,)), 2, "atom id -1 outside 0..1"),
            (((0, 1), (1, 2)), 3, "atom 1 appears in two blocks"),
            (((0,), (2,)), 4, "atom 1 not covered by any block"),
            (((0, 1.0), (2,)), 3, "atom id 1.0 is not an integer"),
            (((True, 0), (2,)), 3, "atom id True is not an integer"),
            ((("0", 1),), 2, "atom id '0' is not an integer"),
        ],
    )
    def test_validation_messages(self, blocks, n, message):
        with pytest.raises(ValueError) as exc:
            Partition(blocks, n)
        assert str(exc.value) == message

    def test_numpy_integer_atom_ids(self):
        assert Partition(((np.int64(1), np.int32(0)), (np.uint8(2),)), 3) == Partition(((0, 1), (2,)), 3)


#: atom labels of every kind a map may give: ints, NumPy integers equal to them, and tuples
LABELS = st.lists(
    st.one_of(st.integers(0, 5), st.integers(0, 5).map(np.int64), st.tuples(st.integers(0, 2), st.booleans())),
    min_size=1,
    max_size=24,
)


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCanonicalLabels:
    """A partition built from labels against a first-seen grouping of its atoms."""

    @settings(max_examples=150, deadline=None)
    @given(labels=LABELS, seed=st.integers(0, 10**6))
    def test_views_match_the_first_seen_grouping(self, labels, seed):
        n = len(labels)
        blocks = oracle_first_seen_blocks(labels)
        p = Partition.from_labels(labels)
        # the explicit-blocks constructor, handed the blocks in any order
        rng = np.random.default_rng(seed)
        shuffled = [tuple(rng.permutation(blocks[i]).tolist()) for i in rng.permutation(len(blocks))]
        q = Partition(shuffled, n)
        assert p == q and hash(p) == hash(q) and p.labels == q.labels
        owner = {a: i for i, b in enumerate(blocks) for a in b}
        assert p.blocks == tuple(blocks)
        assert p.n_blocks == len(blocks) and p.n_atoms == n
        assert p.block_of.tolist() == [owner[a] for a in range(n)]
        assert p._first_atom.tolist() == [blocks[owner[a]][0] for a in range(n)]
        # an injective relabelling carries the same information
        distinct = list(dict.fromkeys(labels))
        rename = dict(zip(distinct, (f"block {k}" for k in rng.permutation(len(distinct)))))
        r = Partition.from_labels([rename[lab] for lab in labels])
        assert r == p and hash(r) == hash(p) and r.labels == p.labels

    @settings(max_examples=150, deadline=None)
    @given(labels=LABELS, seed=st.integers(0, 10**6))
    def test_block_tables_match_the_per_block_loop(self, labels, seed):
        rng = np.random.default_rng(seed)
        n = len(labels)
        weights = rng.uniform(0.1, 1.0, n) * (rng.random(n) >= 0.3)
        weights[int(rng.integers(n))] = 1.0  # at least one atom carries mass
        space = build_space(weights / weights.sum())
        p = Partition.from_labels(labels)
        groups = oracle_block_tables(space.probs, oracle_first_seen_blocks(labels))
        assert len(p.size_groups(space)) == len(groups)
        for got, want in zip(p.size_groups(space), groups):
            assert all(_bitwise_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("sizes", [(1, 7, 9, 130, 153), (300,), (8, 16, 129, 1, 16)])
    @pytest.mark.parametrize("null_first_block", [False, True])
    def test_block_tables_of_large_blocks_match_the_per_block_loop(self, sizes, null_first_block):
        # rows of 8 or more and of more than 128 atoms are summed in pieces, as a lone block's w.sum() is
        rng = np.random.default_rng(len(sizes))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).tolist()
        weights = rng.uniform(0.1, 1.0, len(labels)) * (rng.random(len(labels)) >= 0.3)
        if null_first_block:
            # a zero-mass block does not place its size in the table's order
            weights[np.array(labels) == labels[0]] = 0.0
        weights[labels.index(len(sizes) - 1)] = 1.0
        space = build_space(weights / weights.sum())
        groups = oracle_block_tables(space.probs, oracle_first_seen_blocks(labels))
        got = Partition.from_labels(labels).size_groups(space)
        assert len(got) == len(groups)
        for g, w in zip(got, groups):
            assert all(_bitwise_equal(a, b) for a, b in zip(g, w))


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
            b = random_bundle(rng)
            v = rng.normal(size=b.space.n_atoms)
            for t in range(b.g.horizon + 1):
                got = conditional_expectation(b.space, v, b.g.at(t))
                want = oracle_conditional_expectation(b.space.probs, v, b.g.at(t).blocks)
                assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_null_atom_value_stays_out_of_its_block(self, bad):
        out = conditional_expectation(build_space([0.5, 0.5, 0.0]), [1.0, 2.0, bad], Partition.trivial(3))
        assert out.tolist() == [1.5, 1.5, 1.5]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_oracle_with_null_atoms(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 4)))
        space = filt.space
        v = rng.normal(size=(2, space.n_atoms))
        # non-finite values on null atoms only: the averages must stay finite
        null = np.flatnonzero(space.probs == 0.0)
        v[0, null] = rng.choice([np.nan, np.inf, -np.inf], null.size)
        for partition in filt.partitions:
            got = conditional_expectation(space, v, partition)
            assert np.isfinite(got).all()
            for row, out in zip(v, got):
                want = oracle_conditional_expectation(space.probs, row, partition.blocks)
                np.testing.assert_allclose(out, want, rtol=0.0, atol=1e-12)

    def test_tower_property(self):
        rng = np.random.default_rng(5)
        b = fixtures.space_a()
        v = rng.normal(size=16)
        fine = conditional_expectation(b.space, v, b.g.at(2))
        coarse_of_fine = conditional_expectation(b.space, fine, b.g.at(1))
        coarse = conditional_expectation(b.space, v, b.g.at(1))
        assert np.allclose(coarse_of_fine, coarse, atol=1e-12)

    @pytest.mark.parametrize("first", [0, 1])
    def test_block_weights_cached_per_space(self, first):
        # dyadic weights and values: every sum and product is exact, so any summation order agrees
        pi = Partition(((0, 1), (2,), (3, 4)), 5)
        spaces = [
            build_space([0.125, 0.25, 0.125, 0.25, 0.25]),
            build_space([0.5, 0.0, 0.0, 0.25, 0.25]),  # block (2,) has no mass
        ]
        v = np.array([[1.5, -2.0, 3.0, 0.75, 4.0], [-0.5, 8.0, 1.0, 2.5, -3.25]])
        order = spaces[first:] + spaces[:first]
        for space in order + order:
            got = conditional_expectation(space, v, pi)
            for row, out in zip(v, got):
                want = oracle_conditional_expectation(space.probs, row, pi.blocks)
                assert np.array_equal(out, want)
            assert pi.size_groups(space) is pi.size_groups(space)
        # only blocks 0 and 2 carry mass under spaces[1]
        assert [atoms.tolist() for atoms, _, _ in pi.size_groups(spaces[1])] == [[[0, 1], [3, 4]]]
        assert conditional_expectation(spaces[1], v, pi)[:, 2].tolist() == [0.0, 0.0]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_a_stack_rounds_like_its_entries_and_like_the_block_loop(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 41)), int(rng.integers(1, 4)))
        space = filt.space
        n, k = space.n_atoms, int(rng.integers(1, 6))
        # slice 1 of a (k, n, 3) stack is a strided (k, n) view; values span 17 decades,
        # and the null atoms carry NaN and infinities
        stack = rng.normal(size=(k, n, 3)) * 10.0 ** rng.integers(-8, 9, size=(k, n, 3))
        null = ~space.positive
        stack[:, null, 1] = rng.choice([np.nan, np.inf, -np.inf], (k, int(null.sum())))
        v = stack[..., 1]
        for partition in filt.partitions:
            got = conditional_expectation(space, v, partition)
            assert np.isfinite(got).all()
            assert np.array_equal(conditional_expectation(space, v.reshape(k, 1, n), partition)[:, 0], got)
            for row, out in zip(v, got):
                one = conditional_expectation(space, row, partition)
                assert np.array_equal(out, one)
                assert np.array_equal(one, oracle_block_loop(space, row, partition))

    def test_blocks_are_grouped_by_size(self):
        space = build_space([0.25, 0.0, 0.25, 0.125, 0.125, 0.25])
        pi = Partition(((0, 2), (1,), (3, 4), (5,)), 6)
        sizes = {len(atoms[0]): (atoms.tolist(), w.tolist(), masses.tolist())
                 for atoms, w, masses in pi.size_groups(space)}
        assert sizes == {
            2: ([[0, 2], [3, 4]], [[0.25, 0.25], [0.125, 0.125]], [0.5, 0.25]),
            1: ([[5]], [[0.25]], [0.25]),  # block (1,) has no mass
        }
        assert pi.size_groups(space) is pi.size_groups(space)

    def test_sizes_are_ordered_by_their_first_positive_mass_block(self):
        space = build_space([0.0, 0.0, 0.5, 0.25, 0.25])
        pi = Partition.from_labels([0, 0, 1, 2, 2])  # block 0 has size 2 and no mass
        assert [atoms.tolist() for atoms, _, _ in pi.size_groups(space)] == [[[2]], [[3, 4]]]

    def test_zero_probability_block_gets_zero(self):
        space = build_space([0.5, 0.5, 0.0])
        pi = Partition(((0, 1), (2,)), 3)
        out = conditional_expectation(space, [1.0, 3.0, 9.0], pi)
        assert out[2] == 0.0


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
        s = AdaptedProcess(b.g, b.X.values + b.H.values)
        prod = AdaptedProcess(b.g, b.X.values * b.H.values)
        assert is_adapted(s) and is_adapted(prod)
        k = AdaptedProcess(b.g, np.tile(np.arange(3.0), (16, 1)))
        assert is_adapted(stochastic_integral(k, b.X))


class TestBlockIndex:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), stack=st.integers(0, 3), numpy_labels=st.booleans())
    def test_violation_matches_the_block_loop(self, seed, stack, numpy_labels):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        labels = rng.integers(0, 4, n)
        part = Partition.from_labels(labels if numpy_labels else labels.tolist())
        filt = Filtration(build_space(np.full(n, 1.0 / n)), (part, part))
        # few distinct values, so constant blocks are common; NaN and inf mixed in
        levels = np.array([0.0, 1.0, -2.5, np.nan, np.inf])
        shape = (stack, n) if stack else (n,)
        cols = levels[rng.choice(5, size=shape, p=[0.7, 0.1, 0.1, 0.05, 0.05])]
        got = slice_violation(np.stack([np.zeros(shape), cols], axis=-1), filt, 0)
        rows = cols if stack else cols[None]
        hits = [v for v in (oracle_block_violation(c, part.blocks) for c in rows) if v is not None]
        assert got == ((1, min(hits)) if hits else None)

    def test_first_atom_index(self):
        part = Partition(((4, 1), (0, 3), (2,)), 5)
        assert part._first_atom.tolist() == [0, 1, 2, 0, 1]

    def test_nan_breaks_a_singleton_block(self):
        filt = Filtration(build_space([0.5, 0.25, 0.25]), (Partition.discrete(3), Partition.discrete(3)))
        assert slice_violation(np.array([[0.0, 0.0], [0.0, np.nan], [1.0, 1.0]]), filt, 0) == (1, 1)

    def test_predictable_violation_locates_time_and_block(self, space_a_bundle):
        b = space_a_bundle
        assert slice_violation(b.X.values, b.g, 1) == (1, 0)
        stack = np.zeros((2, 16, 3))
        assert slice_violation(stack, b.g, 1) is None
        stack[1, 5, 2] = 1.0
        assert slice_violation(stack, b.g, 1) == (2, b.g.at(1).block_of[5])

    def test_slice_zero_is_checked_against_p0(self):
        filt = Filtration(build_space([0.5, 0.5]), (Partition.trivial(2), Partition.discrete(2)))
        values = np.array([[0.0, 0.0], [1.0, 1.0]])  # time 0 splits what P_0 does not
        assert slice_violation(values, filt, 0) == (0, 0)
        assert slice_violation(values, filt, 1) == (0, 0)
        assert not is_predictable(AdaptedProcess(filt, values))

    def test_stop_values_stops_every_matrix_of_a_stack(self, space_a_bundle):
        b = space_a_bundle
        sigma = first_jump_time(b.X)
        stack = np.stack([b.X.values, b.H.values, 2.0 * b.X.values])
        got = stop_values(stack, sigma)
        for vals, want in zip(got, (b.X, b.H, AdaptedProcess(b.g, 2.0 * b.X.values))):
            assert np.array_equal(vals, stop_process(want, sigma).values)


def _slice_loop_expectations(values, filt, lag):
    """The per-slice form of ``slice_expectations``: one block average per time slice."""
    out = np.zeros(np.shape(values))
    for t in range(lag, filt.horizon + 1):
        out[..., t] = conditional_expectation(filt.space, values[..., t], filt.at(t - lag))
    return out


def _slice_loop_violation(values, filt, lag):
    """The per-slice form of ``slice_violation``, by a loop over slices, entries and blocks."""
    rows = np.reshape(values, (-1,) + np.shape(values)[-2:])
    for t in range(filt.horizon + 1):
        blocks = filt.at(max(t - lag, 0)).blocks
        hits = [h for h in (oracle_block_violation(r[:, t], blocks) for r in rows) if h is not None]
        if hits:
            return t, min(hits)
    return None


#: NaN, the infinities and a negative zero, which a block average or a constancy test must carry bit for bit
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0])
LEADS = [(), (3,), (2, 2), (0,)]


class TestCellUnion:
    """The one-pass slice operators against the per-slice loop they replaced."""

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_expectations_equal_the_slice_loop(self, lead, lag, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 25)), int(rng.integers(1, 5)))
        shape = lead + (filt.space.n_atoms, filt.horizon + 1)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        # specials on some positive-probability atoms, and on every null atom
        poison = (rng.random(shape) < 0.1) | ~filt.space.positive[:, None]
        values[poison] = rng.choice(SPECIALS, size=int(poison.sum()))
        with np.errstate(invalid="ignore"):  # inf - inf within a block
            got, want = slice_expectations(values, filt, lag), _slice_loop_expectations(values, filt, lag)
        assert _bitwise_equal(got, want)

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("lead", LEADS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_violation_and_its_witness_equal_the_slice_loop(self, lead, lag, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 25)), int(rng.integers(1, 5)))
        n, width = filt.space.n_atoms, filt.horizon + 1
        # constant on the blocks of P_{max(t-lag, 0)}, then a few entries moved, a NaN, an inf or a -0.0 among them
        values = np.empty(lead + (n, width))
        for t in range(width):
            part = filt.at(max(t - lag, 0))
            values[..., t] = rng.choice([0.0, 1.0, -2.5], size=lead + (part.n_blocks,))[..., part.block_of]
        moved = rng.random(values.shape) < rng.choice([0.0, 0.02, 0.2])
        values[moved] = rng.choice(np.append(SPECIALS, 7.0), size=int(moved.sum()))
        assert slice_violation(values, filt, lag) == _slice_loop_violation(values, filt, lag)

    def test_an_empty_stack_gives_an_empty_projection(self, space_a_bundle):
        filt = space_a_bundle.g
        empty = np.zeros((0, filt.space.n_atoms, filt.horizon + 1))
        assert dual_projections(empty, filt).shape == empty.shape
        assert slice_expectations(empty, filt, 0).shape == empty.shape
        assert slice_violation(empty, filt, 1) is None

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_the_union_is_built_once_per_lag_and_read_only(self, monkeypatch, lag, seed):
        built = []
        build = finite_space._cell_union
        monkeypatch.setattr(finite_space, "_cell_union", lambda f, lag: built.append(lag) or build(f, lag))
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, 12, 3)
        n, width = filt.space.n_atoms, filt.horizon + 1
        values = rng.normal(size=(2, n, width))
        for _ in range(3):
            slice_expectations(values, filt, lag)
            assert slice_violation(values, filt, lag) is not None  # P_0 is trivial, so slice 0 varies on a block
        assert built == [lag]
        cells, part = filt.cell_union(lag)
        assert filt.cell_union(lag) == (cells, part)
        # slice_violation reads its first cells off the union: made every cell its own block's first, nothing varies
        first, part.__dict__["_first_atom"] = part._first_atom, np.arange(n * width)
        assert slice_violation(values, filt, lag) is None
        part.__dict__["_first_atom"] = first

        # cell (a, t) lies in block (t, block of a in P_{max(t-lag, 0)}), labels canonical
        pairs = [(t, filt.at(max(t - lag, 0)).labels[a]) for a in range(n) for t in range(width)]
        assert part == Partition.from_labels(pairs) and part.n_blocks == Partition.from_labels(pairs).n_blocks
        assert [part.blocks[lab][0] for lab in part.labels] == part._first_atom.tolist()

        # dyadic slice weights 2^-e, e = 1, 2, ..., k-1, k-1, which sum to 1; the slices below lag are null
        k = width - lag
        scale = 2.0 ** -np.minimum(np.arange(1, k + 1), k - 1)
        assert scale.sum() == 1.0
        assert _bitwise_equal(cells.probs.reshape(n, width), np.hstack([np.zeros((n, lag)), filt.space.probs[:, None] * scale]))

        # the table is the per-block one of the cell space, rows in any order, with the bits of each slice's own rows
        rows = {int(a[0]): (a.tobytes(), w.tobytes(), m) for atoms, w, masses in part.size_groups(cells)
                for a, w, m in zip(atoms, w, masses)}
        want = {int(a[0]): (a.tobytes(), w.tobytes(), m) for atoms, w, masses in oracle_block_tables(cells.probs, part.blocks)
                for a, w, m in zip(atoms, w, masses)}
        assert rows == want
        for t in range(lag, width):
            for atoms, w, masses in filt.at(t - lag).size_groups(filt.space):
                for a, wa, m in zip(atoms, w, masses):
                    assert rows[int(a[0]) * width + t][1:] == ((wa * scale[t - lag]).tobytes(), m * scale[t - lag])

        groups, spread, _ = part._table(cells)
        arrays = [cells.probs, part.block_of, part._first_atom, spread, *(a for g in groups for a in g)]
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("lag", [0, 1])
    def test_labels_first_cells_and_rows_equal_the_slices_own(self, lag):
        # P_0 is an initial enlargement that ties atoms 0 and 2 apart from atom 1; atoms 3 and 5 carry
        # no mass, so their P_0 block {3, 5} and their later blocks are zero-mass at every t >= lag
        x = [[0, 1, 1], [0, 0, 1], [0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 0, 1]]
        h = [[0, 0, 1], [0, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]]
        space = build_space([0.25, 0.25, 0.25, 0.0, 0.25, 0.0])
        filt = build_bundle(space, x, h, initial=Partition.from_labels([0, 1, 0, 2, 1, 2])).g
        assert filt.at(0).n_blocks == 3 and filt.at(0).blocks[2] == (3, 5)
        n, width = space.n_atoms, filt.horizon + 1
        cells, part = filt.cell_union(lag)

        # the slice oracle: cell (a, t)'s block is (t, block of a in its slice), blocks numbered by first cell
        pairs = [(t, filt.at(max(t - lag, 0)).labels[a]) for a in range(n) for t in range(width)]
        assert part.labels == Partition.from_labels(pairs).labels
        assert part._first_atom.tolist() == [pairs.index(pair) for pair in pairs]

        # each slice's positive-mass rows, scaled by its slice weight, in rank (first-cell) order, by size as first seen
        scale = np.append(np.zeros(lag), 2.0 ** -np.minimum(np.arange(1, width - lag + 1), width - lag - 1))
        rows = []
        for t in range(lag, width):
            for block in filt.at(t - lag).blocks:
                atoms = np.array(block)
                w = space.probs[atoms]
                if w.sum() > 0.0:
                    rows.append((atoms * width + t, w * scale[t], w.sum() * scale[t]))
        by_size = {}
        for row in sorted(rows, key=lambda row: row[0][0]):
            by_size.setdefault(len(row[0]), []).append(row)
        want = [tuple(map(np.array, zip(*g))) for g in by_size.values()]
        got = part.size_groups(cells)
        assert len(got) == len(want)
        assert all(_bitwise_equal(g, w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
        # the zero-mass block {3, 5} of P_0 at t = lag has no row: its cells read one past the last
        spread = part._table(cells)[1]
        assert spread[3 * width + lag] == spread[5 * width + lag] == len(rows)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_union_read_for_its_labels_builds_no_table(self, seed):
        filt = random_filtration(np.random.default_rng(seed), 9, 3)
        values = np.zeros((filt.space.n_atoms, filt.horizon + 1))
        for lag in (0, 1):
            assert slice_violation(values, filt, lag) is None
            assert "_tables" not in filt.cell_union(lag)[1].__dict__
        # the spanning walk reads the lag-1 union's rows, and only the lag-0 union's labels
        multiplicity(filt)
        assert "_tables" in filt.cell_union(1)[1].__dict__
        assert "_tables" not in filt.cell_union(0)[1].__dict__


class TestTimeIncrements:
    @staticmethod
    def _assert_bitwise(values):
        got = time_increments(values)
        want = oracle_time_increments(values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(100, 6, 4), (3, 16, 3), (16, 3), (5, 2), (2, 3, 4, 2), (1, 1)])
    def test_matches_the_per_step_formula(self, shape):
        rng = np.random.default_rng(sum(shape))
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        self._assert_bitwise(v)
        self._assert_bitwise(v.tolist())
        if v.ndim >= 2:
            # strided inputs: a transposed stack, every other atom, and the first T columns
            self._assert_bitwise(np.swapaxes(rng.normal(size=shape[:-2] + (shape[-1], shape[-2])), -1, -2))
            self._assert_bitwise(v[..., ::2, :])
        if shape[-1] > 2:
            self._assert_bitwise(v[..., :-1])

    def test_row_ends_raise_no_warning(self):
        # each row starts and ends at +inf: inf - inf only across rows, where time 0 is reset
        v = np.random.default_rng(3).normal(size=(4, 5, 3))
        v[..., 0] = v[..., -1] = np.inf
        v[1, :, -1] = np.finfo(float).max
        v[2, :, 0] = -np.finfo(float).max
        self._assert_bitwise(v)
        assert not time_increments(v)[..., 0].any()


class TestRunningSums:
    @staticmethod
    def _assert_bitwise(got, steps):
        want = np.cumsum(steps, axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def _steps(shape, seed):
        """Normal draws across 16 decades, with a -0.0, +-inf and NaN scattered in; inf - inf makes more NaN."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        for special in (-0.0, np.inf, -np.inf, np.nan):
            v[rng.random(shape) < 0.08] = special
        # a -0.0 at time 0 stays -0.0 only if slice 0 is copied, not added to 0.0
        v[..., 0][rng.random(shape[:-1]) < 0.3] = -0.0
        return v

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("lead", [(), (3,), (4, 2)])
    def test_every_bit_is_cumsums(self, lead, width):
        steps = self._steps(lead + (16, width), 10 * width + len(lead))
        with np.errstate(invalid="ignore"):
            self._assert_bitwise(running_sums(steps), steps)
            self._assert_bitwise(running_sums(steps.tolist()), steps)
            # in place, on the steps themselves
            inplace = steps.copy()
            assert running_sums(inplace, out=inplace) is inplace
            self._assert_bitwise(inplace, steps)

    def test_a_strided_out_view(self):
        # as stochastic_integrals writes: columns 1.. of a zeroed stack, from a product the width of those columns
        steps = self._steps((3, 16, 4), 7)
        vals = np.zeros((3, 16, 5))
        with np.errstate(invalid="ignore"):
            running_sums(steps, out=vals[..., 1:])
            self._assert_bitwise(vals[..., 1:], steps)
        assert not vals[..., 0].any() and not np.signbit(vals[..., 0]).any()


class TestStoppingTimes:
    def test_constant_and_never(self, space_a_bundle):
        b = space_a_bundle
        sigma = StoppingTime.constant(b.g, 1)
        rho = StoppingTime(b.g, np.full(16, NEVER))
        assert np.array_equal(stop_process(b.X, rho).values, b.X.values)
        frozen = stop_process(b.X, StoppingTime.constant(b.g, 0))
        assert np.array_equal(frozen.values, np.zeros_like(b.X.values))
        assert StoppingTime(b.g, np.minimum(sigma.values, rho.values)).values.tolist() == [1] * 16

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
        once = stop_process(b.X, StoppingTime(b.g, np.minimum(sigma.values, rho.values)))
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
        finer = Partition.from_labels(zip(labels.tolist(), rng.integers(0, 2, n)))  # tuple labels
        for a in (fine, coarse, other, finer):
            for b in (fine, coarse, other, finer, Partition.trivial(n + 1)):
                assert a.refines(b) == oracle_refines(a, b)
        assert fine.refines(coarse) and finer.refines(fine)

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
    @given(seed=st.integers(0, 10**6))
    def test_first_jump_time_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        filt = random_filtration(rng, n, horizon)
        values = np.zeros((n, horizon + 1))
        values[:, 1:] = np.cumsum(rng.integers(0, 2, (n, horizon)), axis=1)
        x = PointProcess(natural_filtration(filt.space, [values]), values)
        got = first_jump_time(x).values
        assert np.array_equal(got, oracle_first_jump_time(values, NEVER))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_predictable_values_draw_for_draw(self, seed):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 5)))
        new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = random_predictable_values(new, filt)
        assert np.array_equal(got, oracle_random_predictable_values(old, filt))
        assert new.normal() == old.normal()
        assert is_predictable(AdaptedProcess(filt, got))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), known_at_0=st.booleans())
    def test_random_predictable_stack_draw_for_draw(self, seed, known_at_0):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, int(rng.integers(1, 12)), int(rng.integers(1, 5)))
        if known_at_0:  # a non-trivial P_0: P_1 already known at time 0
            filt = Filtration(filt.space, (filt.at(1),) + filt.partitions[1:])
        for count in (1, 2, 7):
            new, old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            got = fixtures.random_predictable_stack(new, filt, count)
            want = [oracle_random_predictable_values(old, filt) for _ in range(count)]
            assert np.array_equal(got, np.stack(want))
            assert new.normal() == old.normal()
