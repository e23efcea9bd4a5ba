"""Continuous-time statistical checks: Poisson paths, random times, z-tests.

A ``PathSet`` holds paths only.  Every suite takes one, computes the random
time it tests as an array over its paths, and returns report rows: a z-test
or an exact check is a ``serialize.CheckResult``, the row the exact engine
writes, with the statistic's numbers as its evidence.

Determinism contract: every ``(lam, t_real, seed)`` has one counter-based
stream, Philox keyed (seed, 2^64 - 1), of unit exponentials, cut into slices
of fixed width S = ``_block_size(lam, t_real) + 1``.  Path p reads entries
[p S, (p + 1) S): its first S - 1 inter-arrival times, then the unit
exponential behind its random time (an independent exponential time is that
unit exponential over its rate).  A stream's prefix does not depend on how
much of it is drawn, so path p does not depend on ``n_paths`` or on how many
paths are drawn at once; a set of n paths is the prefix of every larger set.
The rare path still at or before ``t_real`` after its S - 1 arrivals
continues from its own stream, keyed (seed, p); p < 2^64 - 1, so no path's
key is the main stream's.

Each ``(lam, t_real, seed)`` is simulated once into a table whose row k
holds event k of every path, and every per-path statistic is at most one
pass over its rows in a fixed order.  One that depends on the paths alone
(the count at a time t, event k of each path) is computed once per
simulation, on all of its paths, and cached there read-only; every prefix
(``PathSet.prefix``) reads its first entries.  Events are sorted within a
path, so a count at t reads only the rows whose minimum is at or before t,
and a window (lo, hi] holds an event iff the path's last event at or before
hi lies above lo.  A column's padding (later arrivals, then inf) lies above
its events, so a whole column is sorted, and a sweep over the rows against a
per-path bound (a window's end, a random time) stops at the first row where
no path is at or before its bound.  Reports are therefore byte-identical on
rerun, and ``--parallel`` has nothing to change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadParameter
from .serialize import CheckResult, _check

#: paths drawn per step of simulate_path_set; bounds its scratch array
_CHUNK = 4096
#: most entries (block x paths, float64: 2 GiB) of the event table simulate_path_set starts with
_MAX_ENTRIES = 2**28
#: key word 1 of the main stream; a path's own stream has its index there instead
_MAIN_STREAM = 2**64 - 1


def _stream(seed: int, word: int) -> np.random.Generator:
    """The Philox stream keyed (seed, word); both are in [0, 2^64)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


def z_test(name: str, samples, expected: float = 0.0, z_max: float = 4.0) -> CheckResult:
    """The report row of a noisy statistic: it holds iff |z| <= ``z_max``.

    With no samples (no path qualified) the statistic checks nothing, so every
    number is NaN and the row fails.
    """
    samples = np.asarray(samples, dtype=float)
    n = int(samples.size)
    estimate = std_error = z = math.nan
    if n:
        estimate = float(samples.mean())
        std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        if std_error > 0.0:
            z = (estimate - expected) / std_error
        else:
            z = 0.0 if estimate == expected else math.inf
    return _check(
        name,
        abs(z) <= z_max,
        estimate=estimate,
        std_error=std_error,
        z_score=float(z),
        n_paths=n,
        expected_value=float(expected),
        exact=False,
    )


def exact_check(name: str, estimate: float, expected: float, n: int) -> CheckResult:
    """The report row of an almost-sure statement: it holds iff the estimate
    equals the expected value exactly (z is then 0, else inf)."""
    return _check(
        name,
        estimate == expected,
        estimate=float(estimate),
        std_error=0.0,
        z_score=0.0 if estimate == expected else math.inf,
        n_paths=int(n),
        expected_value=float(expected),
        exact=True,
    )


def path_block(lam: float, t_real: float, n_paths: int) -> int:
    """The block size of ``n_paths`` paths at rate ``lam`` on [0, ``t_real``]; BadParameter if they cannot be simulated.

    The simulation starts from a ``(block, n_paths)`` event table, which may
    hold at most ``_MAX_ENTRIES`` entries.  As block >= 16, that also keeps
    path p's own stream key (seed, p) below the main stream's (seed, 2^64 - 1).
    """
    if n_paths < 1:
        raise BadParameter(f"need at least 1 path, not {n_paths}")
    block = _block_size(lam, t_real)
    if block * n_paths > _MAX_ENTRIES:
        raise BadParameter(f"{n_paths} paths of {block} events exceed the 2^28 entries of an event table")
    return block


def _block_size(lam: float, t_real: float) -> int:
    """Inter-arrival times in a path's slice of the main stream: 5 standard
    deviations above the mean count, plus 5 (at least 16), so a path falls back
    to its own stream with probability about 3e-7 or less at every rate."""
    if not (0.0 < lam < math.inf and 0.0 < t_real < math.inf and lam * t_real < math.inf):
        raise BadParameter("rate, horizon and their product must be positive and finite")
    return max(16, int(lam * t_real + 5.0 * math.sqrt(lam * t_real) + 5.0))


def _continuation(last: float, lam: float, t_real: float, block: int, rng: np.random.Generator) -> np.ndarray:
    """The events after arrival ``last`` (at or before ``t_real``) on (last, t_real]:
    blocks of ``block`` inter-arrival times from ``rng`` until one passes ``t_real``."""
    tail = []
    while last <= t_real:
        tail.append(last + np.cumsum(rng.standard_exponential(block) / lam))
        last = tail[-1][-1]
    tail = np.concatenate(tail)
    return tail[tail <= t_real]


@dataclass(eq=False)
class PathSet:
    """Simulated ensemble, stored as a C-order ``(K, n_paths)`` event table.

    ``table[k, p]`` is path p's event k for k < ``lengths[p]``; K is the
    longest path's length.  Below its events a column holds padding above
    ``t_real`` (arrivals drawn past it, or inf), so a kernel that compares
    the table only with times at or before ``t_real`` never reads padding as
    an event.  ``unit_exp[p]`` is the unit exponential that ends path p's
    slice of the stream.  A prefix keeps the whole simulation in ``_whole``
    (None: this is the whole simulation), whose ``_stats`` caches the
    statistics of all its paths.
    """

    lam: float
    t_real: float
    n_paths: int
    seed: int
    table: np.ndarray
    lengths: np.ndarray
    unit_exp: np.ndarray
    _whole: PathSet | None = field(default=None, init=False, repr=False)
    _stats: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def events(self) -> tuple:
        """One read-only view into ``table`` per path, built on each access."""
        table = self.table.view()
        table.flags.writeable = False
        return tuple(table[:m, p] for p, m in enumerate(self.lengths.tolist()))

    @cached_property
    def _row_min(self) -> np.ndarray:
        return self.table.min(axis=1)

    def _rows_to(self, t) -> np.ndarray:
        """The rows that hold an event at or before ``t``: those whose minimum
        is, as row k + 1's events lie above row k's."""
        return self.table[: np.searchsorted(self._row_min, t, side="right")]

    def _cached(self, key, compute) -> np.ndarray:
        """``compute(whole)`` on the whole simulation, made once per ``key``
        and kept read-only; the entries of this set's paths."""
        whole = self._whole or self
        out = whole._stats.get(key)
        if out is None:
            out = whole._stats[key] = compute(whole)
            out.flags.writeable = False
        return out[: self.n_paths]

    def _nth_events(self, k: int) -> np.ndarray:
        """Per path: its event k (from 0), inf where it has no such event."""

        def nth(whole):
            out = np.full(whole.n_paths, math.inf)
            if k < len(whole.table):
                np.copyto(out, whole.table[k], where=whole.lengths > k)
            return out

        return self._cached(("nth", k), nth)

    def counts_at(self, t: float) -> np.ndarray:
        # counts the events not above t, as searchsorted(t, side="right") does: all of them at
        # t_real or above and at NaN, else one pass over the rows, adding in the narrowest type
        def count(whole):
            if not t < whole.t_real:
                return whole.lengths.copy()
            rows = whole._rows_to(t)
            out = np.zeros(whole.n_paths, dtype=np.min_scalar_type(len(rows)))
            for row in rows:
                out += row <= t
            return out.astype(np.int64)

        return self._cached(("count", t), count)

    def first_events(self) -> np.ndarray:
        return self._nth_events(0)

    def second_events(self) -> np.ndarray:
        return self._nth_events(1)

    def window_hits(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per path: 1.0 if any event lies in (lo_p, hi_p]; a ``(k, n_paths)``
        stack ``lo`` gives one row per window.

        That event exists iff the last event at or before hi_p (read as at
        most ``t_real``) lies above lo_p, since events are sorted within a
        path, so one pass over the rows serves every window.  A NaN bound
        holds no event.
        """
        hi = np.minimum(hi, self.t_real)
        last = np.full(self.n_paths, -math.inf)
        for row in self.table:
            below = row <= hi
            if not below.any():
                break  # a column is sorted, so no later row is at or before its path's bound
            np.copyto(last, row, where=below)
        return (last > np.asarray(lo)).astype(float)

    def prefix(self, n: int) -> PathSet:
        """The first ``n`` paths: views of this set's arrays (the table's first
        ``n`` columns), with the whole simulation's statistics."""
        if not 1 <= n <= self.n_paths:
            raise BadParameter(f"a prefix of 1..{self.n_paths} paths, not {n}")
        prefix = PathSet(
            lam=self.lam,
            t_real=self.t_real,
            n_paths=n,
            seed=self.seed,
            table=self.table[:, :n],
            lengths=self.lengths[:n],
            unit_exp=self.unit_exp[:n],
        )
        prefix._whole = self._whole or self
        return prefix


def simulate_path_set(lam: float, t_real: float, n_paths: int, seed: int) -> PathSet:
    """Simulate the ensemble.

    A chunk of paths is one draw of ``(rows, block + 1)`` exponentials from the
    main stream (see the module docstring), summed row by row in its columns
    of the table; a path whose ``block`` arrivals all lie at or before
    ``t_real`` takes the rest of its events from ``_continuation`` on its own
    stream, in rows added below.
    """
    block = path_block(lam, t_real, n_paths)
    stream = _stream(seed, _MAIN_STREAM)
    draws = np.empty((min(_CHUNK, n_paths), block + 1))
    table = np.empty((block, n_paths))
    lengths = np.empty(n_paths, dtype=np.int64)
    unit_exp = np.empty(n_paths)
    tails = {}
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        rows = draws[: hi - lo]
        stream.standard_exponential(out=rows)
        unit_exp[lo:hi] = rows[:, block]
        arrivals = table[:, lo:hi]
        np.divide(rows[:, :block].T, lam, out=arrivals)
        # adds each path's inter-arrival times in sequence, as a 1-D cumsum of its slice does
        for k in range(1, block):
            np.add(arrivals[k - 1], arrivals[k], out=arrivals[k])
        inside = arrivals <= t_real
        lengths[lo:hi] = inside.sum(axis=0)
        for i in np.flatnonzero(inside[-1]):
            tails[lo + i] = tail = _continuation(arrivals[-1, i], lam, t_real, block, _stream(seed, lo + i))
            lengths[lo + i] += tail.size
    # resized in place, so there is no second table; rows past ``block`` start at 0
    table.resize((lengths.max(), n_paths), refcheck=False)
    table[block:] = math.inf
    for p, tail in tails.items():
        table[block : block + tail.size, p] = tail
    return PathSet(lam=lam, t_real=t_real, n_paths=n_paths, seed=seed, table=table, lengths=lengths, unit_exp=unit_exp)


def poisson_compensator_suite(paths: PathSet, z_max: float = 4.0) -> list[CheckResult]:
    """The compensated count has zero conditional drift (unit and adapted probes)."""
    lam = paths.lam
    s, t = 0.5 * paths.t_real, paths.t_real
    cs = paths.counts_at(s).astype(float)
    ct = paths.counts_at(t).astype(float)
    inc = (ct - cs) - lam * (t - s)
    probe = (cs > lam * s).astype(float)
    return [
        z_test("compensated_count_increment", inc, 0.0, z_max),
        z_test("compensated_count_increment_probed", inc * probe, 0.0, z_max),
    ]


def second_moment_suite(paths: PathSet, z_max: float = 4.0) -> list[CheckResult]:
    """E[(X_t - lam t)^2] = lam t, the continuous-time bracket identity."""
    out = []
    for t in (0.5 * paths.t_real, paths.t_real):
        c = paths.counts_at(t).astype(float)
        samples = (c - paths.lam * t) ** 2 - paths.lam * t
        out.append(z_test(f"compensated_square_at_{t:g}", samples, 0.0, z_max))
    return out


def azema_exponential_suite(paths: PathSet, mu: float, z_max: float = 4.0) -> list[CheckResult]:
    """Independent exponential time of rate ``mu`` on ``paths``: survival law
    and the survival-driven compensator.

    With survival e^{-mu t}, the enlarged compensator of the single-jump
    indicator is mu * (t ^ tau), so H - mu (t ^ tau) must drift zero against
    probes known at s.
    """
    tau = _exponential_time(paths, mu)
    out = [
        z_test("exponential_survival_at_1", (tau > 1.0).astype(float), math.exp(-mu), z_max)
    ]
    s, t = 0.2 * paths.t_real, 0.8 * paths.t_real
    m_inc = _compensated_jump_increment(tau, mu, s, t)
    # m_inc is 0 where tau <= s, so the probe must vary on {tau > s}
    probe = (paths.counts_at(s) > paths.lam * s).astype(float)
    out.append(z_test("survival_compensated_jump_probed", m_inc * probe, 0.0, z_max))
    out.append(z_test("survival_compensated_jump", m_inc, 0.0, z_max))
    return out


def _exponential_time(paths: PathSet, mu: float) -> np.ndarray:
    """Per path: the independent exponential time of rate ``mu``, its unit exponential over ``mu``."""
    if not mu > 0.0:
        raise BadParameter("exponential rate must be positive")
    return paths.unit_exp / mu


def _compensated_jump_increment(tau: np.ndarray, mu: float, s: float, t: float) -> np.ndarray:
    """Increment over (s, t] of 1{tau <= .} minus its compensator mu (. ^ tau)."""
    return ((tau <= t).astype(float) - (tau <= s).astype(float)) - mu * (
        np.minimum(tau, t) - np.minimum(tau, s)
    )


def _collision_fraction(paths: PathSet, tau: np.ndarray, valid: np.ndarray) -> tuple[float, int]:
    """Share of the ``valid`` paths whose random time ``tau`` is one of their events, and their number."""
    # every event lies at or before t_real, so a later (or NaN) tau is none of them
    tau = np.where(tau <= paths.t_real, tau, math.nan)
    hits = np.zeros(paths.n_paths, dtype=bool)
    for row in paths.table:
        if not (row <= tau).any():
            break  # a column is sorted, so no later row reaches its path's tau
        hits |= row == tau
    n = int(valid.sum())
    return (float(hits[valid].mean()) if n else 0.0, n)


def avoidance_mc_suite(paths: PathSet, mu: float, z_max: float = 4.0) -> list[CheckResult]:
    """Avoidance holds pathwise-exactly for an independent exponential time
    of rate ``mu`` on ``paths``.

    Reports: the collision fraction (must be exactly 0; a floating-point
    collision is reported, never silently passed), drift tests for the two
    compensated processes in the enlargement, and the no-common-jump
    certificate for their bracket.
    """
    tau = _exponential_time(paths, mu)
    frac, n_valid = _collision_fraction(paths, tau, np.ones(paths.n_paths, dtype=bool))
    out = [exact_check("avoidance_collision_fraction", frac, 0.0, n_valid)]

    # probe time scaled to the random-time rate so the survivor set stays populated
    s, t = min(0.2 * paths.t_real, 1.0 / mu), 0.8 * paths.t_real
    cs = paths.counts_at(s).astype(float)
    ct = paths.counts_at(t).astype(float)
    alive = (tau > s).astype(float)
    x_inc = (ct - cs) - paths.lam * (t - s)
    out.append(z_test("count_compensated_in_enlargement", x_inc * alive, 0.0, z_max))
    h_inc = _compensated_jump_increment(tau, mu, s, t)
    out.append(z_test("jump_indicator_compensated", h_inc, 0.0, z_max))
    out.append(exact_check("bracket_common_jump_fraction", frac, 0.0, n_valid))
    return out


def predictable_jump_probe(paths: PathSet, epsilons, z_max: float = 4.0) -> list[CheckResult]:
    """Contrast the enlarged and base probabilities of a jump in a shrinking window.

    With the midpoint time on ``paths``, the second jump is announced in the
    enlargement as soon as the random time passes (target = 2 tau - tau_1 =
    second event), so the hit rate of the window (target - eps, target] is
    exactly 1.  A window anchored at an observable-by-the-base time catches a
    jump only with probability 1 - e^{-lam eps}.  Per width in ``epsilons``:
    the target row, then the base row.
    """
    target_rows = _announced_window_rows(paths, epsilons)
    base_rows = _base_window_rows(paths, epsilons, z_max)
    return [row for pair in zip(target_rows, base_rows) for row in pair]


def _widths(epsilons) -> np.ndarray:
    """The window widths, a sequence of positive numbers, as a column."""
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1:
        raise BadParameter("epsilons must be a sequence of window widths")
    if not (eps > 0.0).all():
        raise BadParameter("epsilon must be positive")
    return eps[:, None]


def _announced_window_rows(paths: PathSet, epsilons) -> list[CheckResult]:
    """Hit rate of (target - eps, target] per width, for the midpoint time.

    The midpoint tau = (first + second event) / 2 needs two events; it
    announces target = 2 tau - first event = the second event, so every
    qualifying window holds it.
    """
    eps = _widths(epsilons)
    target = paths.second_events()
    # inf on paths with fewer than two events
    tau = 0.5 * (paths.first_events() + target)
    with np.errstate(invalid="ignore"):
        qualify = (paths.lengths >= 2) & (target <= paths.t_real) & (target - tau > eps)
    hits = paths.window_hits(target - eps, target)
    rows = []
    for epsilon, hit, ok in zip(eps[:, 0], hits, qualify):
        n_q = int(ok.sum())
        estimate = float(hit[ok].mean()) if n_q else 0.0
        rows.append(exact_check(f"announced_window_hit_rate_eps_{epsilon:g}", estimate, 1.0, n_q))
    return rows


def _base_window_rows(paths: PathSet, epsilons, z_max: float) -> list[CheckResult]:
    """Hit rate of (anchor - eps, anchor] per width, anchor = first event + 1, known to the base."""
    eps = _widths(epsilons)
    first = paths.first_events()
    anchor = first + 1.0
    base_ok = np.isfinite(first) & (anchor <= paths.t_real)
    hits = paths.window_hits(anchor - eps, anchor)
    rows = []
    for epsilon, hit in zip(eps[:, 0], hits):
        expected = 1.0 - math.exp(-paths.lam * epsilon)
        rows.append(z_test(f"base_window_hit_rate_eps_{epsilon:g}", hit[base_ok], expected, z_max))
    return rows


def negative_control_suite(paths: PathSet, mu: float, z_max: float = 4.0) -> list[CheckResult]:
    """Checks engineered to fail: they guard the power of the positive tests.

    The copied time (each path's first event) must collide with an event, and
    the window (target - 0.1, target] with target = 2 tau - first event, for
    an independent time tau of rate ``mu``, must not hit at the
    construction-exact rate 1 of an announced target.
    """
    s, t = 0.5 * paths.t_real, paths.t_real
    raw_inc = (paths.counts_at(t) - paths.counts_at(s)).astype(float)
    uncompensated = z_test("uncompensated_count_drift", raw_inc, 0.0, z_max)

    first = paths.first_events()
    frac, n_valid = _collision_fraction(paths, first, paths.lengths >= 1)
    collision = exact_check("copied_time_collision_fraction", frac, 0.0, n_valid)

    tau, eps = _exponential_time(paths, mu), 0.1
    target = 2.0 * tau - first
    qualify = np.isfinite(first) & (target <= paths.t_real) & (target - eps > np.maximum(tau, first))
    hits = paths.window_hits(target - eps, target)[qualify]
    # NaN when no window qualified, which fails the row
    rate = float(hits.mean()) if hits.size else math.nan
    no_announcement = exact_check("independent_time_announced_hit_rate", rate, 1.0, hits.size)
    return [uncompensated, collision, no_announcement]
