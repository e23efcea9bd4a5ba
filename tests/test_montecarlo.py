import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    oracle_collision_fraction,
    oracle_counts_at,
    oracle_full_sweep_collision_fraction,
    oracle_full_sweep_window_hits,
    oracle_nth_events,
    oracle_path_set,
    oracle_window_hits,
)

from filtration_lab import montecarlo
from filtration_lab.cli import report_to_json, run_config
from filtration_lab.errors import BadParameter
from filtration_lab.serialize import CheckResult
from filtration_lab.montecarlo import (
    McParams,
    PathSet,
    _announced_window_rows,
    _base_window_rows,
    _collision_fraction,
    avoidance_mc_suite,
    azema_exponential_suite,
    exact_check,
    negative_control_suite,
    path_block,
    poisson_compensator_suite,
    predictable_jump_probe,
    second_moment_suite,
    simulate_path_set,
    z_test,
)

SEED = 20260810
N = 20000


class TestSimulatePoisson:
    def test_deterministic_given_seed(self):
        a = simulate_path_set(1.0, 10.0, 50, 1234)
        b = simulate_path_set(1.0, 10.0, 50, 1234)
        for name in ("table", "lengths", "unit_exp"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        c = simulate_path_set(1.0, 10.0, 50, 1235)
        assert not np.array_equal(a.table[0], c.table[0])

    def test_events_sorted_in_range(self):
        for evs in simulate_path_set(2.0, 5.0, 50, SEED).events:
            if evs.size:
                assert evs[0] > 0.0 and evs[-1] <= 5.0
                assert np.all(np.diff(evs) > 0.0)

    def test_mean_count(self):
        paths = simulate_path_set(1.0, 10.0, N, SEED)
        counts = paths.counts_at(10.0).astype(float)
        r = z_test("mean_count", counts, 10.0, 4.0)
        assert r.passed and r.evidence["std_error"] > 0.0

    def test_rate_two_mean_and_variance(self):
        paths = simulate_path_set(2.0, 5.0, N, SEED)
        counts = paths.counts_at(5.0).astype(float)
        assert z_test("mean", counts, 10.0, 4.0).passed
        assert z_test("var", (counts - 10.0) ** 2, 10.0, 4.0).passed

    def test_the_event_table_is_bounded(self):
        # at lam 1, t 10 a block is 30 events: 2^28 // 30 paths fit and one more does not; nothing is simulated
        assert path_block(1.0, 10.0, 2**28 // 30) == 30
        with pytest.raises(BadParameter, match="2\\^28"):
            path_block(1.0, 10.0, 2**28 // 30 + 1)
        for lam, t_real, n_paths in ((1.0, 10.0, 10**12), (1e6, 1e6, 1), (1.0, 10.0, 2**64 - 1)):
            with pytest.raises(BadParameter):
                simulate_path_set(lam, t_real, n_paths, 0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            simulate_path_set(0.0, 10.0, 1, 0)
        with pytest.raises(BadParameter):
            simulate_path_set(1.0, -1.0, 1, 0)
        with pytest.raises(BadParameter):
            simulate_path_set(1.0, 10.0, 0, 0)


class TestRandomTimes:
    def test_exponential_survival(self):
        tau = simulate_path_set(1.0, 10.0, N, SEED).unit_exp / 1.0
        assert z_test("survival", (tau > 1.0).astype(float), math.exp(-1.0), 4.0).passed

    def test_exponential_rate_must_be_positive(self):
        # the statistics read mu off a McParams, which checks it on construction
        for mu in (0.0, -1.0, math.nan):
            with pytest.raises(BadParameter):
                McParams(mu=mu)

    def test_midpoint_strictly_between_first_two(self):
        # the announced rows' midpoint time, (first + second event) / 2 on each path with two events
        paths = simulate_path_set(1.0, 10.0, 2000, SEED)
        events = [e for e in paths.events if e.size >= 2]
        tau = [0.5 * (e[0] + e[1]) for e in events]
        assert all(e[0] < m < e[1] for e, m in zip(events, tau))
        # a path's window (second event - eps, second event] qualifies iff it lies above the midpoint
        for eps in (0.01, 0.5, 2.0):
            (row,) = _announced_window_rows(paths, (eps,))
            assert row.evidence["n_paths"] == sum(e[1] - m > eps for e, m in zip(events, tau)) > 0, eps

    def test_copy_first_always_collides(self):
        paths = simulate_path_set(1.0, 10.0, 2000, SEED)
        first, valid = paths.first_events(), paths.lengths >= 1
        assert valid.any()
        events = paths.events
        for p in np.flatnonzero(valid):
            assert first[p] in events[p]
        (row,) = [r for r in negative_control_suite(paths, McParams()) if r.name == "copied_time_collision_fraction"]
        assert (row.evidence["estimate"], row.evidence["n_paths"]) == (1.0, int(valid.sum()))

    def test_insufficient_events(self):
        # path lengths 1, 0, 2: the midpoint needs two events, the copied time one
        base = _path_set([[1.0], [], [2.0, 3.0]])
        # the only midpoint is 2.5, so a window ending at 3.0 qualifies iff it is narrower than 0.5
        assert [r.evidence["n_paths"] for r in _announced_window_rows(base, (0.49, 0.5))] == [1, 0]
        assert base.first_events().tolist() == [1.0, math.inf, 2.0]
        (row,) = [r for r in negative_control_suite(base, McParams()) if r.name == "copied_time_collision_fraction"]
        assert (row.evidence["estimate"], row.evidence["n_paths"]) == (1.0, 2)


class TestWidthPremise:
    """McParams keeps every width in [s, 1 - s], s = np.spacing(max(t_real, 1)): at either bound the
    announced window (target - eps, target] holds its target, and the base window
    (first + 1 - eps, first + 1] misses its first event, in float arithmetic."""

    @pytest.mark.parametrize("t_real", [0.5, 1.5, 10.0, 1e3, 2.0**40, 3e13])
    def test_windows_at_the_bounds(self, t_real):
        s = float(np.spacing(max(t_real, 1.0)))
        rng = np.random.default_rng(int(t_real) % 1000)
        powers = 2.0 ** np.arange(-3, int(math.log2(t_real)) + 1)
        edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
        # events in (0, t_real], and first events whose anchor lies at or before t_real
        target = np.concatenate([rng.uniform(0.0, t_real, 100_000), edges[edges <= t_real], [t_real]])
        first = np.concatenate([rng.uniform(0.0, t_real - 1.0, 100_000), edges - 1.0]) if t_real > 1.0 else target
        first = first[(first > 0.0) & (first + 1.0 <= t_real)]
        assert ((target - s) < target).all()
        assert ((first + 1.0) - (1.0 - s) >= first).all()
        if 2.0 < t_real < 1e4:
            # past the bounds both windows break where first + 1 rounds: an empty window, and a base window
            # holding its first event
            assert ((target - s / 4) == target).any()
            assert ((first + 1.0) - 1.0 < first).any()
        mc = McParams(lam=1.0 / t_real, t_real=t_real, epsilons=[s, 1.0 - s])
        assert mc.epsilons == (s, 1.0 - s)
        for eps in (np.nextafter(s, 0.0), np.nextafter(1.0 - s, 2.0)):
            with pytest.raises(BadParameter, match=r"mc.epsilons entry must lie in \[s, 1 - s\]"):
                McParams(lam=1.0 / t_real, t_real=t_real, epsilons=[float(eps)])


class TestSuites:
    def test_positive_controls_pass(self):
        paths = simulate_path_set(1.0, 10.0, N, SEED)
        for rows in (
            poisson_compensator_suite(paths, McParams()),
            second_moment_suite(paths, McParams()),
            azema_exponential_suite(paths, McParams()),
            avoidance_mc_suite(paths, McParams()),
        ):
            assert rows and all(isinstance(r, CheckResult) for r in rows)
            for r in rows:
                assert r.passed, r

    def test_survival_probe_changes_the_statistic(self):
        # the increment vanishes where tau <= s, so a probe 1{tau > s} would
        # reproduce the unprobed row; 1{N_s > lam s} must not
        paths = simulate_path_set(1.0, 10.0, 200, SEED)
        by_name = {r.name: r.evidence for r in azema_exponential_suite(paths, McParams())}
        probed = by_name["survival_compensated_jump_probed"]
        plain = by_name["survival_compensated_jump"]
        assert probed["estimate"] != plain["estimate"]
        assert probed["std_error"] != plain["std_error"]

    def test_z_reports_have_positive_std_error(self):
        paths = simulate_path_set(1.0, 10.0, N, SEED)
        for r in poisson_compensator_suite(paths, McParams()):
            if not r.evidence["exact"]:
                assert r.evidence["std_error"] > 0.0

    def test_avoidance_fraction_exactly_zero(self):
        reports = avoidance_mc_suite(simulate_path_set(1.0, 10.0, N, SEED), McParams())
        frac = next(r.evidence for r in reports if r.name == "avoidance_collision_fraction")
        assert frac["exact"]
        assert frac["estimate"] == 0.0

    def test_avoidance_stress_rate(self):
        reports = avoidance_mc_suite(simulate_path_set(1.0, 10.0, 5000, SEED), McParams(mu=25.0))
        for r in reports:
            assert r.passed, r
            if not r.evidence["exact"]:
                assert r.evidence["std_error"] > 0.0

    def test_predictable_jump_probe_announced(self):
        reports = predictable_jump_probe(simulate_path_set(1.0, 10.0, N, SEED), McParams(epsilons=(0.1, 0.01)))
        assert [r.name for r in reports] == [
            "announced_window_hit_rate_eps_0.1",
            "base_window_hit_rate_eps_0.1",
            "announced_window_hit_rate_eps_0.01",
            "base_window_hit_rate_eps_0.01",
        ]
        assert all(isinstance(r, CheckResult) for r in reports)
        for eps, hit, base in zip((0.1, 0.01), reports[::2], reports[1::2]):
            assert hit.evidence["exact"] and hit.evidence["estimate"] == 1.0 and hit.passed
            assert base.passed
            assert abs(base.evidence["estimate"] - (1.0 - math.exp(-eps))) < 0.01

    def test_predictable_jump_probe_negative_control(self):
        paths = simulate_path_set(1.0, 10.0, N, SEED)
        rows = negative_control_suite(paths, McParams())
        (unannounced,) = [r for r in rows if r.name == "independent_time_announced_hit_rate"]
        (base,) = _base_window_rows(paths, (0.1,), 4.0)
        # without an announced time the target window behaves like the base window
        assert abs(unannounced.evidence["estimate"] - base.evidence["estimate"]) < 0.02
        assert unannounced.evidence["estimate"] < 0.5

    def test_predictable_jump_probe_stacks_widths(self):
        # one window pass per window end gives each width the rows it gets alone
        paths = simulate_path_set(1.0, 10.0, 2000, SEED)
        widths = (0.1, 0.01, 0.5, 0.1)
        for rows in (
            lambda eps: _announced_window_rows(paths, eps),
            lambda eps: _base_window_rows(paths, eps, 4.0),
            lambda eps: predictable_jump_probe(paths, McParams(epsilons=eps)),
        ):
            assert rows(widths) == [r for eps in widths for r in rows((eps,))]
        assert _announced_window_rows(paths, ()) == _base_window_rows(paths, (), 4.0) == []
        # the statistic reads its widths off a McParams, which checks them on construction
        for bad in ((), 0.1, [[0.1]], (0.1, 0.0), (math.nan,), (-0.1,)):
            with pytest.raises(BadParameter):
                McParams(epsilons=bad)

    @pytest.mark.parametrize(
        "suite,computed",
        [
            (poisson_compensator_suite, "exponential"),
            (second_moment_suite, "midpoint"),
            (azema_exponential_suite, "midpoint"),
            (azema_exponential_suite, "exponential"),
            (avoidance_mc_suite, "copy_first"),
            (predictable_jump_probe, "copy_first"),
            (predictable_jump_probe, "exponential"),
            (negative_control_suite, "midpoint"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_suite_draws_its_own_random_time(self, suite, computed):
        # a suite reads only the simulation: a random time computed on the set first
        # (which fills the simulation's cache) changes no row, and the time a suite
        # draws is not left on the set it was handed
        plain = simulate_path_set(1.0, 10.0, 50, SEED)
        warm = simulate_path_set(1.0, 10.0, 50, SEED)
        tau, valid = (a.copy() for a in _random_times(warm, (computed,))[computed])
        mc = McParams(mu=0.5, epsilons=(0.1,))
        rows = suite(plain, mc)
        assert rows and all(isinstance(r, CheckResult) for r in rows)
        assert suite(warm, mc) == rows
        for paths in (plain, warm):
            arrays = {name for name, v in vars(paths).items() if isinstance(v, np.ndarray)}
            assert arrays <= {"table", "lengths", "unit_exp", "_row_min"}, arrays
        (again,) = _random_times(warm, (computed,)).values()
        assert np.array_equal(again[0], tau) and np.array_equal(again[1], valid)

    def test_negative_controls_fail(self):
        rows = negative_control_suite(simulate_path_set(1.0, 10.0, 5000, SEED), McParams())
        assert rows and all(isinstance(r, CheckResult) for r in rows)
        for r in rows:
            assert not r.passed, r

    def test_exact_check_semantics(self):
        good = exact_check("x", 0.0, 0.0, 10)
        bad = exact_check("x", 0.001, 0.0, 10)
        assert good.passed and good.evidence["z_score"] == 0.0
        assert not bad.passed and bad.evidence["z_score"] == "inf"

    def test_rows_carry_the_report_evidence(self):
        # the rows' evidence as the report writes it: a non-finite number is a string
        rows = [
            z_test("none", [], 0.5),
            z_test("one", [0.25], 0.25),
            z_test("one_off", [0.25], 0.5),
            z_test("many", [1.0, 2.0, 3.0, 6.0], 2.0, 0.5),
            exact_check("hit", 0.0, 0.0, 10),
            exact_check("miss", 0.001, 0.0, 10),
        ]
        want = [
            ("none", "fails", "nan", "nan", "nan", 0, 0.5, False),
            ("one", "holds", 0.25, 0.0, 0.0, 1, 0.25, False),
            ("one_off", "fails", 0.25, 0.0, "inf", 1, 0.5, False),
            ("many", "fails", 3.0, 1.0801234497346435, 0.9258200997725514, 4, 2.0, False),
            ("hit", "holds", 0.0, 0.0, 0.0, 10, 0.0, True),
            ("miss", "fails", 0.001, 0.0, "inf", 10, 0.0, True),
        ]
        keys = ("estimate", "std_error", "z_score", "n_paths", "expected_value", "exact")
        for row, (name, outcome, *values) in zip(rows, want):
            assert (row.name, row.outcome, row.expected) == (name, outcome, "holds")
            assert row.evidence == dict(zip(keys, values)), name
            assert [type(v) for v in row.evidence.values()] == [type(v) for v in values], name

    def test_negative_control_with_no_qualifying_window_fails(self):
        # a rate far below 1/t_real leaves no path with an event, so no unannounced window qualifies
        config = {
            "schema": "filtration-lab/config-v1",
            "engine": "mc",
            "seed": SEED,
            "mc": {"lambda": 1e-9, "n_paths": 50},
            "suites": [{"name": "mc_negative_controls", "expected_outcome": "fails"}],
        }
        (row,) = [c for c in run_config(config)["checks"] if c["name"] == "independent_time_announced_hit_rate"]
        assert (row["outcome"], row["passed"]) == ("fails", True)
        assert row["evidence"]["estimate"] == "nan" and row["evidence"]["n_paths"] == 0


CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs"


def _path_set(events, t_real=10.0):
    """A PathSet built by hand from a list of per-path event lists, padded with inf."""
    n = len(events)
    lengths = np.array([len(e) for e in events], dtype=np.int64)
    table = np.full((lengths.max(), n), math.inf)
    for p, e in enumerate(events):
        table[: len(e), p] = e
    return PathSet(lam=1.0, t_real=t_real, n_paths=n, seed=0, table=table, lengths=lengths, unit_exp=np.ones(n))


RANDOM_TIME_KINDS = ("exponential", "midpoint", "copy_first")


def _random_times(paths, kinds=RANDOM_TIME_KINDS):
    """Per kind of random time the suites test, its (tau, valid) arrays: the
    exponential time of rate 2, the midpoint time and the copied first event."""
    make = {
        "exponential": lambda: (paths.unit_exp / 2.0, np.ones(paths.n_paths, dtype=bool)),
        "midpoint": lambda: (0.5 * (paths.first_events() + paths.second_events()), paths.lengths >= 2),
        "copy_first": lambda: (paths.first_events(), paths.lengths >= 1),
    }
    return {kind: make[kind]() for kind in kinds}


def _assert_kernels_match_oracles(paths, rng, kinds=RANDOM_TIME_KINDS):
    events = paths.events
    n = paths.n_paths
    specials = np.array([math.nan, math.inf, -math.inf, 0.0])
    event_times = np.concatenate(events)
    event_times = event_times if event_times.size else specials
    for t in [*specials, paths.t_real, *rng.choice(event_times, 3), *rng.uniform(0, paths.t_real, 3)]:
        assert np.array_equal(paths.counts_at(t), oracle_counts_at(events, t)), t
    assert np.array_equal(paths.first_events(), oracle_nth_events(events, 0))
    assert np.array_equal(paths.second_events(), oracle_nth_events(events, 1))

    def bounds():
        # random bounds, NaN and +-inf, and bounds that sit exactly on an event
        out = rng.uniform(-1.0, paths.t_real + 1.0, n)
        pick = rng.integers(0, 5, n)
        out[pick == 1] = math.nan
        out[pick == 2] = math.inf
        out[pick == 3] = -math.inf
        on_event = pick == 4
        out[on_event] = rng.choice(event_times, int(on_event.sum()))
        return out

    table, t_real = paths.table, paths.t_real
    for _ in range(4):
        lo, hi = bounds(), bounds()
        assert np.array_equal(paths.window_hits(lo, hi), oracle_window_hits(events, lo, hi))
        # a stack of lower bounds sharing hi: one row per window
        stack = np.array([bounds(), lo, hi - 0.25, bounds()])
        hits = paths.window_hits(stack, hi)
        assert hits.shape == (4, n)
        for row, lo_row in zip(hits, stack):
            assert np.array_equal(row, oracle_window_hits(events, lo_row, hi))
        first = paths.first_events()
        assert np.array_equal(
            paths.window_hits(first - 0.5, first), oracle_window_hits(events, first - 0.5, first)
        )
        # a sweep over every row of the table, padding included, gives what the early stop gives
        for lows, highs in ((lo, hi), (stack, hi), (first - 0.5, first)):
            full = oracle_full_sweep_window_hits(table, t_real, lows, highs)
            assert np.array_equal(paths.window_hits(lows, highs), full)
        tau, valid = bounds(), rng.random(n) < 0.8
        frac = _collision_fraction(paths, tau, valid)
        assert frac == oracle_collision_fraction(events, tau, valid)
        assert frac == oracle_full_sweep_collision_fraction(table, t_real, tau, valid)
    fracs = {}
    for kind, (tau, valid) in _random_times(paths, kinds).items():
        fracs[kind] = _collision_fraction(paths, tau, valid)
        assert fracs[kind] == oracle_collision_fraction(events, tau, valid), kind
        assert fracs[kind] == oracle_full_sweep_collision_fraction(table, t_real, tau, valid), kind
    return fracs


class TestFlatKernels:
    def test_hand_built_paths_with_zero_and_one_events(self):
        events = [[], [1.0], [0.5, 2.0], [], [3.0, 3.5, 9.0], [10.0]]
        # exact collisions on paths 1 and 4, NaN and inf random times, one invalid path
        tau = [2.0, 1.0, math.nan, math.inf, 3.5, 4.0]
        valid = [True, True, True, True, True, False]
        tau = np.array(tau)
        valid = np.array(valid)
        paths = _path_set(events)
        _assert_kernels_match_oracles(paths, np.random.default_rng(0))
        frac = _collision_fraction(paths, tau, valid)
        assert frac == oracle_collision_fraction(paths.events, tau, valid) == (0.4, 5)
        assert np.array_equal(paths.counts_at(3.0), [0, 1, 2, 0, 1, 0])
        assert np.array_equal(paths.window_hits(np.full(6, 0.5), np.full(6, 1.0)), [0, 1, 0, 0, 0, 0])

    def test_a_sweep_reads_no_row_past_the_first_one_no_bound_reaches(self):
        # row 2 breaks the sorted columns on purpose, so reading it changes the answer:
        # row 0 reaches path 0's bound only, and row 1 reaches neither
        table = np.array([[1.0, 2.0], [5.0, 6.0], [0.5, 0.5]])
        paths = PathSet(lam=1.0, t_real=10.0, n_paths=2, seed=0, table=table,
                        lengths=np.array([3, 3]), unit_exp=np.ones(2))
        lo, hi = np.full(2, 0.8), np.array([3.0, 1.5])
        assert paths.window_hits(lo, hi).tolist() == [1.0, 0.0]
        assert oracle_full_sweep_window_hits(table, 10.0, lo, hi).tolist() == [0.0, 0.0]
        # row 0 reaches path 1's tau exactly, and row 1 neither tau
        tau, valid = np.array([0.5, 2.0]), np.ones(2, dtype=bool)
        assert _collision_fraction(paths, tau, valid) == (0.5, 2)
        assert oracle_full_sweep_collision_fraction(table, 10.0, tau, valid) == (1.0, 2)

    def test_padding_is_never_an_event(self):
        # the inf padding below a short path's events is no event at an inf or NaN time,
        # bound or random time (the copied first event of an empty path is inf)
        paths = _path_set([[], [1.0], [0.5, 2.0, 7.0]])
        for t in (math.inf, math.nan, 10.0, 1e300):
            assert paths.counts_at(t).tolist() == [0, 1, 3], t
        inf, nan = np.full(3, math.inf), np.full(3, math.nan)
        assert paths.window_hits(-inf, inf).tolist() == [0.0, 1.0, 1.0]
        assert paths.window_hits(np.full(3, 1.5), inf).tolist() == [0.0, 0.0, 1.0]
        for lo, hi in ((nan, inf), (-inf, nan), (nan, nan), (inf, inf)):
            assert paths.window_hits(lo, hi).tolist() == [0.0] * 3
        first = paths.first_events()
        assert first.tolist() == [math.inf, 1.0, 0.5]
        assert _collision_fraction(paths, first, np.ones(3, dtype=bool)) == (2 / 3, 3)
        assert _collision_fraction(paths, inf, np.ones(3, dtype=bool)) == (0.0, 3)
        assert paths.second_events().tolist() == [math.inf, math.inf, 2.0]

    def test_a_count_reads_the_rows_at_or_before_t(self, monkeypatch):
        # row k holds an event at or before t iff some path has more than k of them, so a count
        # reads as many rows as the largest count; at t_real and above, and at NaN, it reads none
        read = []
        rows_to = PathSet._rows_to

        def recorded(self, t):
            rows = rows_to(self, t)
            read.append(len(rows))
            return rows

        paths = simulate_path_set(1.0, 10.0, 2000, SEED)
        monkeypatch.setattr(PathSet, "_rows_to", recorded)
        for t in (0.04, 5.0, 10.0, math.inf, -math.inf, math.nan):
            want = oracle_counts_at(paths.events, t)
            read.clear()
            got = paths.counts_at(t)
            assert np.array_equal(got, want) and got.dtype == np.int64, t
            assert read == ([] if not t < 10.0 else [want.max()]), t
        assert paths.counts_at(0.04).max() <= 2

    def test_a_count_above_255_events(self):
        # the count adds in the narrowest type that holds the rows it reads
        paths = _path_set([np.arange(1, 301) / 100.0, [5.0]])
        for t in (2.55, 2.56, 3.0, 9.0):
            assert np.array_equal(paths.counts_at(t), oracle_counts_at(paths.events, t)), t
        assert paths.counts_at(9.0).tolist() == [300, 1]

    def test_single_path_without_events(self):
        paths = _path_set([[]])
        _assert_kernels_match_oracles(paths, np.random.default_rng(1))
        assert paths.counts_at(5.0).tolist() == [0]

    @pytest.mark.parametrize("kind", ["none", *RANDOM_TIME_KINDS])
    def test_simulated_paths(self, kind):
        # a low rate leaves many paths with 0 or 1 events
        paths = simulate_path_set(0.4, 4.0, 600, SEED)
        assert {0, 1, 2} <= set(paths.lengths.tolist())
        kinds = tuple(k for k in RANDOM_TIME_KINDS if k == kind)
        fracs = _assert_kernels_match_oracles(paths, np.random.default_rng(2), kinds)
        want = {
            "exponential": (0.0, 600),
            "midpoint": (0.0, int((paths.lengths >= 2).sum())),
            "copy_first": (1.0, int((paths.lengths >= 1).sum())),
        }
        assert fracs == {k: want[k] for k in kinds}

    def test_events_are_read_only_views(self):
        paths = simulate_path_set(1.0, 10.0, 50, SEED)
        events = paths.events
        assert len(events) == 50
        assert sum(e.size for e in events) == paths.lengths.sum()
        assert all(np.shares_memory(e, paths.table) for e in events if e.size)
        with pytest.raises(ValueError):
            events[0][0] = 0.0

    @pytest.mark.parametrize("kind", ["none", *RANDOM_TIME_KINDS])
    def test_prefixes_across_a_chunk_boundary(self, monkeypatch, kind):
        # a prefix reads the first columns of its parent's table,
        # and the random time computed on it is the first n entries of the one computed on the whole set
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        base = simulate_path_set(0.4, 4.0, 300, SEED)
        kinds = tuple(k for k in RANDOM_TIME_KINDS if k == kind)
        whole = _random_times(base, kinds)
        rng = np.random.default_rng(3)
        for n in (1, 63, 64, 65, 299):
            prefix = base.prefix(n)
            assert prefix.table.base is base.table
            _assert_kernels_match_oracles(prefix, rng, kinds)
            _assert_kernels_match_oracles(prefix.prefix(max(1, n // 2)), rng, kinds)
            for k, (tau, valid) in _random_times(prefix, kinds).items():
                assert np.array_equal(tau, whole[k][0][:n]) and np.array_equal(valid, whole[k][1][:n]), (k, n)

    def test_every_path_set_a_small_config_reads(self, monkeypatch):
        handed_out = []
        prefix = PathSet.prefix

        def recorded(self, n):
            handed_out.append(prefix(self, n))
            return handed_out[-1]

        monkeypatch.setattr(PathSet, "prefix", recorded)
        config = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
        config["mc"]["n_paths"] = 300
        run_config(config)
        # one set per suite, and one for mc_avoidance's stress run
        assert len(handed_out) == 7
        rng = np.random.default_rng(4)
        for paths in handed_out:
            _assert_kernels_match_oracles(paths, rng)

    def test_bundled_config_makes_each_pass_once(self, monkeypatch):
        # passes over a table's rows: one count per distinct time below t_real the suites
        # ask for (the count at t_real is the path lengths), one window pass per window end
        # (mc_predictable_jump's target and base anchor, the negative controls' target) and
        # one collision pass per random time; a suite that repeats one of these passes
        # changes the numbers
        passes, wholes = [], []
        rows_to, prefix = PathSet._rows_to, PathSet.prefix

        def tagged(kind, fn):
            def wrapper(*args):
                passes.append(kind)
                return fn(*args)

            return wrapper

        def recorded(self, n):
            wholes.append(self._whole or self)
            return prefix(self, n)

        monkeypatch.setattr(PathSet, "_rows_to", tagged("count", rows_to))
        monkeypatch.setattr(PathSet, "window_hits", tagged("window", PathSet.window_hits))
        monkeypatch.setattr(montecarlo, "_collision_fraction", tagged("collision", _collision_fraction))
        monkeypatch.setattr(PathSet, "prefix", recorded)
        config = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
        config["mc"]["n_paths"] = 300
        run_config(config)
        assert (passes.count("count"), passes.count("window"), passes.count("collision")) == (5, 3, 3)
        # every set the suites read is a prefix of one simulation, which caches the counts
        (whole,) = {id(w): w for w in wholes}.values()
        counted_at = sorted(t for kind, t in whole._stats if kind == "count")
        assert counted_at == [0.04, 1.0, 2.0, 5.0, 8.0, 10.0]

    def test_statistics_are_cached_once_per_simulation(self, monkeypatch):
        passes = []
        rows_to = PathSet._rows_to

        def counted(self, t):
            passes.append(self)
            return rows_to(self, t)

        monkeypatch.setattr(PathSet, "_rows_to", counted)
        for prefix_first in (True, False):
            base = simulate_path_set(0.4, 4.0, 300, SEED)
            prefix = base.prefix(120).prefix(80)
            passes.clear()
            for paths in (prefix, base) if prefix_first else (base, prefix):
                events = paths.events
                for t in (2.0, math.inf):
                    assert np.array_equal(paths.counts_at(t), oracle_counts_at(events, t)), t
                assert np.array_equal(paths.first_events(), oracle_nth_events(events, 0))
                assert np.array_equal(paths.second_events(), oracle_nth_events(events, 1))
            # the count at 2.0 is one pass over the whole simulation, whichever set asked first;
            # the count at inf (above t_real) reads no row
            assert passes == [base]
            assert np.shares_memory(prefix.counts_at(2.0), base.counts_at(2.0))
            # NaN equals nothing, so a NaN time may miss the cache; it still counts every event
            for paths in (prefix, base, prefix):
                for t in (math.nan, float("nan"), np.float64("nan")):
                    assert np.array_equal(paths.counts_at(t), oracle_counts_at(paths.events, t))
            assert prefix._whole is base
            stats = (base.counts_at(2.0), prefix.counts_at(2.0), prefix.first_events(), base.second_events())
            for stat in stats:
                with pytest.raises(ValueError):
                    stat[0] = 0

    def test_a_prefix_holds_views_of_the_simulation(self):
        # a prefix allocates no per-path array: every array it holds is a view of the whole simulation's,
        # and the table's columns hold the events of a simulation of that many paths
        base = simulate_path_set(1.0, 10.0, 300, SEED)
        direct = simulate_path_set(1.0, 10.0, 120, SEED)
        for prefix in (base.prefix(120), base.prefix(200).prefix(120)):
            arrays = {name: v for name, v in vars(prefix).items() if isinstance(v, np.ndarray)}
            assert sorted(arrays) == ["lengths", "table", "unit_exp"]
            for name, array in arrays.items():
                assert np.shares_memory(array, getattr(base, name)), name
            assert np.array_equal(prefix.lengths, direct.lengths)
            assert np.array_equal(prefix.unit_exp, direct.unit_exp)
            assert all(np.array_equal(a, b) for a, b in zip(prefix.events, direct.events, strict=True))
        for n in (0, 301):
            with pytest.raises(BadParameter):
                base.prefix(n)


def _assert_paths_match_the_oracle(lam, t_real, n, seed):
    """Path p is slice p of the oracle's stream prefix, and its exponential
    time is the unit exponential that ends the slice over the rate."""
    paths = simulate_path_set(lam, t_real, n, seed)
    events = paths.events
    tau = paths.unit_exp / 2.0
    expected = oracle_path_set(lam, t_real, n, seed, montecarlo._block_size(lam, t_real))
    for p, (want, unit) in enumerate(expected):
        assert np.array_equal(events[p], want), p
        assert paths.unit_exp[p] == unit and tau[p] == unit / 2.0, p
    return paths


class TestDeterminism:
    @pytest.mark.parametrize("chunk", [64, montecarlo._CHUNK])
    def test_path_p_reads_its_slice_of_one_stream(self, monkeypatch, chunk):
        # at 64 paths per chunk the set spans several chunks
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        paths = _assert_paths_match_the_oracle(1.0, 10.0, 300, SEED)
        assert paths.lengths.max() < montecarlo._block_size(1.0, 10.0)
        _assert_paths_match_the_oracle(3.0, 2.0, 150, 7)

    def test_long_paths_continue_from_their_own_stream(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        monkeypatch.setattr(montecarlo, "_block_size", lambda lam, t_real: 4)
        paths = _assert_paths_match_the_oracle(1.0, 10.0, 300, SEED)
        # both kinds of path occur: one slice, and a slice continued from the path's own stream
        assert (paths.lengths < 4).any() and (paths.lengths >= 4).any()
        # the continued paths add rows below the first 4, padded with inf in the other columns
        assert paths.table.shape == (paths.lengths.max(), 300) and len(paths.table) > 4
        assert np.isinf(paths.table[4:][np.arange(4, len(paths.table))[:, None] >= paths.lengths]).all()
        _assert_kernels_match_oracles(paths, np.random.default_rng(5))

    @pytest.mark.parametrize("seed", [0, SEED, 2**64 - 1])
    def test_no_path_stream_has_the_main_key(self, monkeypatch, seed):
        keys = []
        stream = montecarlo._stream

        def recorded(*key):
            keys.append(key)
            return stream(*key)

        monkeypatch.setattr(montecarlo, "_stream", recorded)
        monkeypatch.setattr(montecarlo, "_block_size", lambda lam, t_real: 4)
        simulate_path_set(1.0, 10.0, 300, seed)
        main, *own = keys
        assert main == (seed, 2**64 - 1)
        # path p's own key is (seed, p), and p < n_paths
        assert own and all(s == seed and 0 <= p < 300 for s, p in own)
        assert len(set(own)) == len(own)
        # n_paths is at most 2^64 - 2, so no path index reaches the main key word
        for n in (2**64 - 1, 2**64):
            with pytest.raises(BadParameter):
                simulate_path_set(1.0, 10.0, n, seed)

    def test_report_digest_is_pinned(self):
        # Digest of the report below.  Path p reads entries [p S, (p + 1) S)
        # of one Philox stream keyed (seed, 2^64 - 1), S = _block_size + 1
        # (31 at lam 1, T 10), and continues from its own stream keyed
        # (seed, p) if its arrivals stay at or before T.  It was last re-pinned
        # when that rule replaced one stream per path, which moved only the
        # estimate, std_error, z_score and n_paths values of the MC rows.  It
        # changes if the stream rule, or anything derived from it, changes.
        config = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
        config["mc"]["n_paths"] = 2000
        text = report_to_json(run_config(config))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4fb2fd506e89ead2bbce61c8e2a9270453a7a2f7acfb195c91ff50697ceed394"
        )

    def test_suite_context_simulates_each_rate_once(self, monkeypatch):
        from filtration_lab import suites

        calls = []

        def counted(*args):
            calls.append(args)
            return simulate_path_set(*args)

        monkeypatch.setattr(suites, "simulate_path_set", counted)
        ctx = suites.SuiteContext(seed=SEED, mc=suites.McParams(n_paths=500))
        plain = ctx.paths()
        stress = ctx.paths(ctx.mc.stress_n_paths)
        # the stress set (1000 paths) is larger than n_paths; it is simulated up front
        assert calls == [(1.0, 10.0, 1000, SEED)]
        assert (plain.n_paths, stress.n_paths) == (500, 1000)
        assert np.array_equal(stress.lengths[:500], plain.lengths)
    def test_path_count_prefix_stability(self):
        a = simulate_path_set(1.0, 10.0, 1000, SEED)
        b = simulate_path_set(1.0, 10.0, 2000, SEED)
        a_events, b_events = a.events, b.events
        for p in range(1000):
            assert np.array_equal(a_events[p], b_events[p])
        assert np.array_equal(a.unit_exp, b.unit_exp[:1000])
