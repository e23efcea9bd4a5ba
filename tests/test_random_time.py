import numpy as np
import pytest
from conftest import oracle_supermartingale_gap, random_filtration
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import fixtures
from filtration_lab.calculus import compensator, is_martingale
from filtration_lab.enlargement import natural_filtration
from filtration_lab.errors import BadParameter, TauAtZero, VanishingAzema
from filtration_lab.finite_space import NEVER, AdaptedProcess, build_space
from filtration_lab.random_time import (
    AvoidanceReport,
    avoidance_check,
    azema_consistency_gap,
    build_random_time_bundle,
    compensator_via_azema,
    cross_validation_gap,
    direct_compensator,
    orthogonality_suite,
    supermartingale_gap,
)
from filtration_lab.finite_space import StoppingTime


def _coin_filtration(n_steps=2):
    n = 2**n_steps
    space = build_space([1.0 / n] * n)
    jumps = np.array(
        [[(a >> (n_steps - 1 - t)) & 1 for t in range(n_steps)] for a in range(n)]
    )
    vals = np.zeros((n, n_steps + 1))
    vals[:, 1:] = np.cumsum(jumps, axis=1)
    return natural_filtration(space, [vals]), vals


class TestBundleConstruction:
    def test_never_time(self):
        rb = fixtures.never_random_time()
        assert rb.H.sup_abs() == 0.0
        assert np.allclose(rb.azema.values, 1.0, atol=1e-15)
        assert rb.g.partitions == rb.f.partitions

    def test_deterministic_time_profile(self):
        f, vals = _coin_filtration()
        tau = np.full(4, 2, dtype=np.int64)
        rb = build_random_time_bundle(tau, f, vals)
        grid = np.arange(3)[None, :]
        assert np.array_equal(rb.azema.values, (grid < 2).astype(float) * np.ones((4, 1)))

    def test_survival_process_consistency_and_supermartingale(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rb = fixtures.random_random_time_bundle(rng)
            assert azema_consistency_gap(rb) <= 1e-12
            assert supermartingale_gap(rb) <= 1e-12

    def test_tau_at_zero_rejected(self):
        f, vals = _coin_filtration()
        with pytest.raises(TauAtZero):
            build_random_time_bundle(np.array([0, 1, 1, 2]), f, vals)

    def test_tau_out_of_range_rejected(self):
        f, vals = _coin_filtration()
        with pytest.raises(BadParameter):
            build_random_time_bundle(np.array([1, 1, 2, 5]), f, vals)

    def test_joint_jump_time_supermartingale(self, space_a_bundle):
        b = space_a_bundle
        bracket_jumps = (b.X.increments() * b.H.increments())[:, 1:]
        tau = np.where(
            bracket_jumps[:, 0] == 1, 1, np.where(bracket_jumps[:, 1] == 1, 2, NEVER)
        ).astype(np.int64)
        rb = build_random_time_bundle(tau, b.f, b.X.values)
        assert supermartingale_gap(rb) <= 1e-12
        assert azema_consistency_gap(rb) <= 1e-12


class TestSurvivalFormula:
    def test_independent_uniform_two_step(self):
        rb = fixtures.two_step_independent_random_time()
        cand = compensator_via_azema(rb)
        assert np.allclose(cand.values[:, 1], 0.5, atol=1e-15)
        survivors = rb.tau >= 2
        assert np.allclose(cand.values[survivors, 2], 1.5, atol=1e-15)
        assert np.allclose(cand.values[~survivors, 2], 0.5, atol=1e-15)
        assert cross_validation_gap(rb) <= 1e-12

    def test_announced_time_is_predictable(self):
        rb = fixtures.announced_tau_random_time()
        direct = direct_compensator(rb)
        assert np.abs(direct.values - rb.H.values).max() <= 1e-15
        assert cross_validation_gap(rb) <= 1e-12

    def test_never_time_zero_everywhere(self):
        rb = fixtures.never_random_time()
        assert compensator_via_azema(rb).sup_abs() == 0.0
        assert direct_compensator(rb).sup_abs() == 0.0

    def test_cross_validation_on_named_and_random_bundles(self):
        rng = np.random.default_rng(52)
        bundles = [
            fixtures.staggered_random_time(),
            fixtures.trinomial_random_time(),
            fixtures.two_step_independent_random_time(),
            fixtures.announced_tau_random_time(),
        ] + [fixtures.random_random_time_bundle(rng) for _ in range(25)]
        for rb in bundles:
            assert cross_validation_gap(rb) <= 1e-9
            assert bool(
                is_martingale(
                    AdaptedProcess(rb.g, rb.H.values - compensator_via_azema(rb).values)
                )
            )

    def test_vanishing_survival_raises(self):
        # inconsistent by hand: survival forced to zero before the time
        f, vals = _coin_filtration()
        tau = np.array([2, 2, 2, 2], dtype=np.int64)
        rb = build_random_time_bundle(tau, f, vals)
        broken = rb.azema.values.copy()
        broken[:, 1] = 0.0
        bad = type(rb)(
            tau=rb.tau,
            f=rb.f,
            g=rb.g,
            H=rb.H,
            azema=AdaptedProcess(rb.f, broken),
            X=rb.X,
            name="broken",
        )
        with pytest.raises(VanishingAzema):
            compensator_via_azema(bad)


class TestAvoidance:
    def test_staggered_avoids_with_all_conclusions(self):
        rep = avoidance_check(fixtures.staggered_random_time())
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
        rb = fixtures.staggered_random_time()
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


class TestOrthogonalityStudy:
    def test_staggered_all_orthogonal(self):
        study = orthogonality_suite(fixtures.staggered_random_time())
        assert all(p.orthogonal for p in study.pairs)
        assert study.all_consistent
        assert study.multiplicity == 1

    def test_trinomial_overlap_detected(self):
        study = orthogonality_suite(fixtures.trinomial_random_time())
        by_name = {p.name: p for p in study.pairs}
        assert not by_name["part1_vs_part2"].orthogonal
        assert by_name["part1_vs_part2"].witness is not None
        assert by_name["part1_vs_joint"].orthogonal
        assert by_name["part2_vs_joint"].orthogonal
        assert study.all_consistent
        assert study.multiplicity == 2

    def test_surrogate_equivalence_on_random_bundles(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            study = orthogonality_suite(fixtures.random_random_time_bundle(rng))
            assert study.all_consistent


class TestBlockOracles:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_gaps_match_the_loops(self, seed):
        rng = np.random.default_rng(seed)
        n, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        space = random_filtration(rng, n, horizon).space  # some atoms carry no mass
        x_values = np.zeros((n, horizon + 1))
        x_values[:, 1:] = np.cumsum(rng.integers(0, 2, (n, horizon)), axis=1)
        f = natural_filtration(space, [x_values])
        choices = np.array(list(range(1, horizon + 1)) + [NEVER], dtype=np.int64)
        tau = rng.choice(choices, n)
        rb = build_random_time_bundle(tau, f, x_values)
        want = oracle_supermartingale_gap(space.probs, f.partitions, rb.azema.values)
        assert supermartingale_gap(rb) == want
        # tau's collision with a jump of X, atom by atom
        dx = rb.X.increments()
        hit = [tau[a] != NEVER and dx[a, tau[a]] == 1.0 for a in range(n)]
        assert avoidance_check(rb).jump_collision_prob == float(space.probs[hit].sum())
