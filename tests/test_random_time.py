import dataclasses

import numpy as np
import pytest
from conftest import (
    RANDOM_TIME_FIXTURES,
    oracle_azema_consistency_gap,
    oracle_orthogonality_report,
    oracle_supermartingale_gap,
    oracle_survival,
    random_bundle,
    random_filtration,
    random_random_time_bundle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures, suites
from filtration_lab.calculus import (
    SegmentedToolkit,
    compensator,
    is_martingale,
    orthogonality_pairs,
    orthogonality_segments,
)
from filtration_lab.cli import run_config
from filtration_lab.enlargement import natural_filtration, progressive_enlargement
from filtration_lab.errors import BadParameter, TauAtZero, VanishingAzema
from filtration_lab.finite_space import (
    EXACT_TOL,
    NEVER,
    AdaptedProcess,
    StoppingTime,
    build_space,
    segment_sups,
    stop_process,
)
from filtration_lab.jump_measure import joint_decomposition
from filtration_lab.random_time import (
    AvoidanceReport,
    avoidance_check,
    azema_consistency_gap,
    compensator_via_azema,
    cross_validation_gap,
    random_time_bundle,
    supermartingale_gap,
    surrogate_segments,
    survival,
    tau_of,
)
from filtration_lab.representation import multiplicity


def _coin_paths(n_steps=2):
    n = 2**n_steps
    space = build_space([1.0 / n] * n)
    jumps = np.array(
        [[(a >> (n_steps - 1 - t)) & 1 for t in range(n_steps)] for a in range(n)]
    )
    vals = np.zeros((n, n_steps + 1))
    vals[:, 1:] = np.cumsum(jumps, axis=1)
    return space, vals


def _random_space_and_paths(rng):
    """A space with some zero-mass atoms, a counting path per atom, and a random time."""
    n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 4))
    space = random_filtration(rng, n, horizon).space
    x_values = np.zeros((n, horizon + 1))
    x_values[:, 1:] = np.cumsum(rng.integers(0, 2, (n, horizon)), axis=1)
    choices = np.array(list(range(1, horizon + 1)) + [NEVER], dtype=np.int64)
    return space, x_values, rng.choice(choices, n)


class TestBundleConstruction:
    def test_never_time(self):
        rb = fixtures.never_random_time()
        assert rb.H.sup_abs() == 0.0
        assert np.allclose(survival(rb).values, 1.0, atol=1e-15)
        assert rb.g.partitions == rb.f.partitions

    def test_deterministic_time_profile(self):
        space, vals = _coin_paths()
        rb = random_time_bundle(space, vals, np.full(4, 2, dtype=np.int64))
        grid = np.arange(3)[None, :]
        assert np.array_equal(survival(rb).values, (grid < 2).astype(float) * np.ones((4, 1)))

    def test_survival_process_consistency_and_supermartingale(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rb = random_random_time_bundle(rng)
            azema = survival(rb)
            assert azema_consistency_gap(rb, azema) <= 1e-12
            assert supermartingale_gap(rb, azema) <= 1e-12

    def test_tau_at_zero_rejected(self):
        space, vals = _coin_paths()
        with pytest.raises(TauAtZero):
            random_time_bundle(space, vals, np.array([0, 1, 1, 2]))

    def test_tau_out_of_range_rejected(self):
        space, vals = _coin_paths()
        with pytest.raises(BadParameter):
            random_time_bundle(space, vals, np.array([1, 1, 2, 5]))

    @pytest.mark.parametrize(
        "tau", [[1, 1, 2, -1], [1, 1, 2], [[1, 1, 2, 2]]], ids=["negative", "too_few", "two_dims"]
    )
    def test_negative_or_misshapen_tau_rejected(self, tau):
        space, vals = _coin_paths()
        with pytest.raises(BadParameter):
            random_time_bundle(space, vals, np.array(tau))

    def test_h_jumping_twice_is_no_random_time(self):
        b = fixtures.space_a()  # H jumps at t=1 and t=2 on some atoms
        with pytest.raises(BadParameter, match="more than once"):
            tau_of(b)
        with pytest.raises(BadParameter, match="more than once"):
            avoidance_check(b)

    def test_joint_jump_time_supermartingale(self, space_a_bundle):
        b = space_a_bundle
        bracket_jumps = (b.X.increments() * b.H.increments())[:, 1:]
        tau = np.where(
            bracket_jumps[:, 0] == 1, 1, np.where(bracket_jumps[:, 1] == 1, 2, NEVER)
        ).astype(np.int64)
        rb = random_time_bundle(b.space, b.X.values, tau)
        azema = survival(rb)
        assert supermartingale_gap(rb, azema) <= 1e-12
        assert azema_consistency_gap(rb, azema) <= 1e-12


class TestSurvivalFormula:
    def test_independent_uniform_two_step(self):
        rb = fixtures.two_step_independent_random_time()
        cand = compensator_via_azema(rb, survival(rb))
        assert np.allclose(cand.values[:, 1], 0.5, atol=1e-15)
        survivors = tau_of(rb).values >= 2
        assert np.allclose(cand.values[survivors, 2], 1.5, atol=1e-15)
        assert np.allclose(cand.values[~survivors, 2], 0.5, atol=1e-15)
        assert cross_validation_gap(rb, survival(rb)) <= 1e-12

    def test_announced_time_is_predictable(self):
        rb = fixtures.announced_tau_random_time()
        direct = compensator(rb.H).compensator
        assert np.abs(direct.values - rb.H.values).max() <= 1e-15
        assert cross_validation_gap(rb, survival(rb)) <= 1e-12

    def test_never_time_zero_everywhere(self):
        rb = fixtures.never_random_time()
        assert compensator_via_azema(rb, survival(rb)).sup_abs() == 0.0
        assert compensator(rb.H).compensator.sup_abs() == 0.0

    def test_cross_validation_on_named_and_random_bundles(self):
        rng = np.random.default_rng(52)
        bundles = [
            fixtures.staggered(),
            fixtures.avoidance_trinomial(),
            fixtures.two_step_independent_random_time(),
            fixtures.announced_tau_random_time(),
        ] + [random_random_time_bundle(rng) for _ in range(25)]
        for rb in bundles:
            assert cross_validation_gap(rb, survival(rb)) <= 1e-9
            assert bool(
                is_martingale(
                    AdaptedProcess(rb.g, rb.H.values - compensator_via_azema(rb, survival(rb)).values)
                )
            )

    def test_vanishing_survival_raises(self):
        # inconsistent by hand: survival forced to zero before the time
        space, vals = _coin_paths()
        rb = random_time_bundle(space, vals, np.array([2, 2, 2, 2], dtype=np.int64))
        broken = survival(rb).values.copy()
        broken[:, 1] = 0.0
        with pytest.raises(VanishingAzema):
            compensator_via_azema(rb, AdaptedProcess(rb.f, broken))


class TestAvoidance:
    def test_staggered_avoids_with_all_conclusions(self):
        rep = avoidance_check(fixtures.staggered())
        assert isinstance(rep, AvoidanceReport)
        assert rep.avoids
        assert rep.jump_collision_prob == 0.0
        assert rep.conclusions_hold
        assert set(rep.conclusions) == {
            "no_common_jumps",
            "joint_part_vanishes",
            "z1_is_compensated_x",
            "z2_is_compensated_h",
            "z1_z2_bracket_vanishes",
        }

    def test_supplied_deterministic_time_breaks_avoidance(self):
        rb = fixtures.staggered()
        rep = avoidance_check(rb, [StoppingTime.constant(rb.g, 2)])
        assert not rep.avoids
        assert rep.sigma_collision_probs[0] == pytest.approx(0.5, abs=1e-15)

    def test_copied_jump_time_collides(self):
        rep = avoidance_check(fixtures.copied_jump_random_time())
        assert not rep.avoids
        assert rep.jump_collision_prob == pytest.approx(0.5, abs=1e-15)

    def test_never_time_vacuous(self):
        rep = avoidance_check(fixtures.never_random_time())
        assert rep.avoids
        assert rep.conclusions["joint_part_vanishes"]
        assert rep.conclusions_hold


def _lone_study(rb):
    """Pair name -> (orthogonal, consistent, witness) of a lone random time: the one segment of its surrogate checks."""
    return {
        label: (bool(toolkit.orthogonal[0]), bool(consistent[0]), toolkit.first_move())
        for label, toolkit, consistent in surrogate_segments(rb, [0])
    }


class TestLoneRandomTimeStudy:
    def test_staggered_all_orthogonal(self):
        rb = fixtures.staggered()
        study = _lone_study(rb)
        assert all(orthogonal and consistent for orthogonal, consistent, _ in study.values())
        assert multiplicity(rb.g) == 1

    def test_trinomial_overlap_detected(self):
        rb = fixtures.avoidance_trinomial()
        study = _lone_study(rb)
        orthogonal, _, witness = study["part1_vs_part2"]
        assert not orthogonal
        assert witness is not None
        assert study["part1_vs_joint"][0]
        assert study["part2_vs_joint"][0]
        assert all(consistent for _, consistent, _ in study.values())
        assert multiplicity(rb.g) == 2

    def test_surrogate_equivalence_on_random_bundles(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            study = _lone_study(random_random_time_bundle(rng))
            assert all(consistent for _, consistent, _ in study.values())


class TestSurrogateRow:
    """``random_time_orthogonality``'s surrogate row reads every random time's verdicts: the named ones
    alone, the drawn ones segment by segment."""

    @pytest.mark.parametrize("broken", ["staggered", "avoidance_trinomial", "two_step_independent", "random_pairs"])
    def test_one_inconsistent_random_time_fails_the_row(self, monkeypatch, broken):
        config = {"engine": "exact", "seed": 7, "suites": ["random_time_orthogonality"]}
        real = suites.surrogate_segments

        def one_flipped(bundle, starts):
            out = real(bundle, starts)
            if bundle.name == broken:
                label, toolkit, consistent = out[-1]
                consistent = consistent.copy()
                consistent[0] = not consistent[0]  # the first random time's last pair
                out[-1] = (label, toolkit, consistent)
            return out

        row = "orthogonality_matches_predictable_jump_surrogate"
        assert {r["name"]: r["outcome"] for r in run_config(config)["checks"]}[row] == "holds"
        monkeypatch.setattr(suites, "surrogate_segments", one_flipped)
        assert {r["name"]: r["outcome"] for r in run_config(config)["checks"]}[row] == "fails"


class TestUnionsOfRandomTimes:
    """The random times of a power-of-four union keep their lone gaps and verdicts, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_the_azema_gaps_of_a_union_are_the_lone_maxima(self, seed):
        rng = np.random.default_rng(seed)
        lone = [random_random_time_bundle(rng) for _ in range(40)]
        gaps = (cross_validation_gap, azema_consistency_gap, supermartingale_gap)
        alone = [[gap(b, survival(b)) for gap in gaps] for b in lone]
        for b, starts, pairs, exponent in fixtures.random_pair_unions(
            np.random.default_rng(seed), 40, fixtures.random_time_draw
        ):
            azema = survival(b)
            for j, i in enumerate(pairs):
                atoms = slice(starts[j], starts[j + 1])
                assert azema.values[atoms].tobytes() == survival(lone[i]).values.tobytes()
            got = [gap(b, azema) for gap in gaps]
            # a block mass is the lone one times 2^exponent exactly, and so is the consistency gap
            got[1] = np.ldexp(got[1], -exponent)
            want = np.max([alone[i] for i in pairs], axis=0)
            assert np.array(got).tobytes() == want.tobytes()
        # the consistency gaps are rounding, not zero, so the rescaling is seen
        assert max(a[1] for a in alone) > 0.0

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_each_segment_keeps_its_lone_orthogonality_study(self, seed):
        rng = np.random.default_rng(seed)
        lone = [_lone_study(random_random_time_bundle(rng)) for _ in range(40)]
        verdicts = set()
        for b, starts, pairs, _ in fixtures.random_pair_unions(
            np.random.default_rng(seed), 40, fixtures.random_time_draw
        ):
            segments = surrogate_segments(b, starts)
            assert [label for label, _, _ in segments] == list(lone[0])
            for label, toolkit, consistent in segments:
                for j, i in enumerate(pairs):
                    orthogonal, ok, _ = lone[i][label]
                    assert (toolkit.orthogonal[j], consistent[j]) == (orthogonal, ok)
                    verdicts.add(orthogonal)
                assert toolkit.orthogonal[-1] and consistent[-1]  # the filler
        assert verdicts == {True, False}

    def test_the_surrogate_is_reduced_segment_by_segment(self):
        # avoidance_trinomial's part1_vs_part2 has a common predictable jump; beside it, a time that never happens
        draws = [
            (b.space.probs, b.X.increments()[:, 1:], b.H.increments()[:, 1:], None)
            for b in (fixtures.avoidance_trinomial(), fixtures.never_random_time())
        ]
        union, starts, _, _ = fixtures.pair_union([0, 1], draws)
        label, toolkit, consistent = surrogate_segments(union, starts)[0]
        assert label == "part1_vs_part2"
        assert toolkit.orthogonal.tolist() == [False, True, True] and consistent.all()
        # over the whole union the product is nonzero, which the orthogonal segment would then contradict
        assert segment_sups(union.space, toolkit.predictable_jump_product, [0])[0] > EXACT_TOL


def _assert_same_toolkit(got, want):
    """Every field of two toolkits bit for bit, clause by clause, and the same first move."""
    for field in dataclasses.fields(SegmentedToolkit):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "clauses":
            assert list(a) == list(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
    assert got.first_move() == want.first_move()


def _lone_pairs(b):
    """The surrogate study's five pairs of processes, by name, built alone."""
    y1, y2, y3 = joint_decomposition(b.X, b.H)
    stopped = stop_process(y1, tau_of(b))
    return {
        "part1_vs_part2": (y1, y2),
        "part1_vs_joint": (y1, y3),
        "part2_vs_joint": (y2, y3),
        "stopped_part1_vs_part2": (stopped, y2),
        "stopped_part1_vs_joint": (stopped, y3),
    }


class TestStackedStudy:
    """The surrogate study's one stacked toolkit pass is its five lone ``orthogonality_segments`` calls."""

    @staticmethod
    def _studies():
        named = [fixtures.staggered(), fixtures.avoidance_trinomial()]
        named += [getattr(fixtures, name)() for name in RANDOM_TIME_FIXTURES]
        out = [(rb, [0]) for rb in named]
        for seed in (0, 7, 11):
            unions = fixtures.random_pair_unions(np.random.default_rng(seed), 30, fixtures.random_time_draw)
            out += [(b, starts) for b, starts, _, _ in unions]
        return out

    def test_each_pair_is_its_lone_toolkit_bitwise(self):
        verdicts, moves = set(), set()
        for b, starts in self._studies():
            lone = _lone_pairs(b)
            study = surrogate_segments(b, starts)
            assert [label for label, _, _ in study] == list(lone)
            for label, toolkit, consistent in study:
                want = orthogonality_segments(*lone[label], starts)
                _assert_same_toolkit(toolkit, want)
                surrogate = segment_sups(b.g.space, want.predictable_jump_product, starts) <= EXACT_TOL
                assert consistent.tolist() == (want.orthogonal == surrogate).tolist()
                verdicts.update(zip(want.orthogonal.tolist(), surrogate.tolist()))
                moves.add(want.first_move() is None)
        # orthogonal and not, with and without a common predictable jump, with and without a first move
        assert verdicts >= {(True, True), (False, False)} and moves == {True, False}

    @pytest.mark.parametrize("seed", [0, 5])
    def test_any_pairs_of_a_stack_are_their_lone_toolkits(self, seed):
        # repeated, reversed and self pairs of the X, H and parts of a union of random times
        b, starts, _, _ = fixtures.random_pair_unions(np.random.default_rng(seed), 12, fixtures.random_time_draw)[-1]
        processes = [b.X, b.H, *joint_decomposition(b.X, b.H)]
        rng = np.random.default_rng(seed)
        pairs = [(0, 1), (1, 0), (2, 2), (4, 3), (0, 1)] + [tuple(rng.integers(0, 5, 2)) for _ in range(4)]
        got = orthogonality_pairs(np.stack([p.values for p in processes]), pairs, b.g, starts)
        assert len(got) == len(pairs)
        for (i, j), toolkit in zip(pairs, got):
            _assert_same_toolkit(toolkit, orthogonality_segments(processes[i], processes[j], starts))

    def test_each_pair_keeps_its_roles(self):
        # (X, H) and (H, X) differ in the last bits of the decomposition gap when X and H jump together:
        # each must give the seven-pass oracle's bits in its own order
        rng = np.random.default_rng(36)
        pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (3, 4), (4, 3)]
        differ = 0
        for _ in range(40):
            b = random_bundle(rng)
            processes = [b.X, b.H, *joint_decomposition(b.X, b.H)]
            got = orthogonality_pairs(np.stack([p.values for p in processes]), pairs, b.g, [0])
            for (i, j), toolkit in zip(pairs, got):
                want = oracle_orthogonality_report(processes[i], processes[j])
                assert toolkit.clauses_at(0) == want["clauses"]
                assert toolkit.decomposition_gap[0].tobytes() == np.float64(want["decomposition_gap"]).tobytes()
                assert (toolkit.orthogonal[0], toolkit.jumps_disjoint[0]) == (want["is_orthogonal"], want["jumps_disjoint"])
                assert toolkit.first_move() == want["witness"]
                for key in ("bracket_compensators", "bracket_bar", "predictable_jump_product"):
                    assert getattr(toolkit, key).tobytes() == want[key].tobytes(), key
            differ += got[0].decomposition_gap.tobytes() != got[1].decomposition_gap.tobytes()
        assert differ > 0


class TestBlockOracles:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_gaps_match_the_loops(self, seed):
        space, x_values, tau = _random_space_and_paths(np.random.default_rng(seed))
        rb = random_time_bundle(space, x_values, tau)
        azema = survival(rb)
        want = oracle_supermartingale_gap(space.probs, rb.f.partitions, azema.values)
        assert supermartingale_gap(rb, azema) == want
        # tau's collision with a jump of X, atom by atom
        dx = rb.X.increments()
        hit = [tau[a] != NEVER and dx[a, tau[a]] == 1.0 for a in range(space.n_atoms)]
        assert avoidance_check(rb).jump_collision_prob == float(space.probs[hit].sum())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_consistency_gap_matches_the_loop_over_every_block(self, seed):
        rng = np.random.default_rng(seed)
        space, x_values, tau = _random_space_and_paths(rng)
        rb = random_time_bundle(space, x_values, tau)
        survive = 1.0 - rb.H.values
        # the survival process, and an arbitrary matrix whose gap is far from 0
        for azema in (survival(rb), AdaptedProcess(rb.f, rng.normal(size=x_values.shape))):
            want = oracle_azema_consistency_gap(space.probs, rb.f.partitions, azema.values, survive)
            assert azema_consistency_gap(rb, azema) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_time_is_the_bundle_of_its_indicator(self, seed):
        space, x_values, tau = _random_space_and_paths(np.random.default_rng(seed))
        rb = random_time_bundle(space, x_values, tau)
        assert np.array_equal(tau_of(rb).values, tau)
        want_g = progressive_enlargement(
            natural_filtration(space, [x_values]), natural_filtration(space, [rb.H.values])
        )
        assert rb.g.partitions == want_g.partitions
        want = oracle_survival(space.probs, rb.f.partitions, tau)
        np.testing.assert_allclose(survival(rb).values, want, rtol=0.0, atol=1e-15)
