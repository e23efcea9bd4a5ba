"""Named fixtures are built once per process and shared as read-only bundles."""
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    BY_NAME_FIXTURES,
    RANDOM_TIME_FIXTURES,
    random_bundle,
    random_random_time_bundle,
)

import filtration_lab.cli as cli
from filtration_lab import fixtures, random_time, suites
from filtration_lab.finite_space import NEVER, Partition

ROOT = Path(__file__).resolve().parent.parent

NAMED = BY_NAME_FIXTURES + RANDOM_TIME_FIXTURES


def test_bundle_by_name_knows_exactly_these_builders():
    with pytest.raises(KeyError) as exc:
        fixtures.bundle_by_name("nope")
    assert f"valid: {sorted(BY_NAME_FIXTURES)}" in str(exc.value)


@pytest.mark.parametrize("name", NAMED)
def test_named_fixture_is_one_shared_read_only_bundle(name):
    build = getattr(fixtures, name)
    b = build()
    assert build() is b
    if name in BY_NAME_FIXTURES:
        assert fixtures.bundle_by_name(name) is b
    arrays = [b.space.probs, b.X.values, b.H.values, b.initial.block_of]
    for filtration in (b.f, b.h_filtration, b.g):
        for p in filtration.partitions:
            arrays += [p.block_of, p._first_atom]
            arrays += [a for group in p.size_groups(b.space) for a in group]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        b.X.values[0, 0] = 1.0


def test_space_a_full_builds_each_named_fixture_at_most_once(monkeypatch):
    for name in NAMED:
        getattr(fixtures, name).cache_clear()
    built = Counter()

    def counting(build_bundle):
        def build(*args, **kwargs):
            bundle = build_bundle(*args, **kwargs)
            built[bundle.name] += 1
            return bundle

        return build

    # the random-time fixtures build through random_time_bundle
    monkeypatch.setattr(fixtures, "build_bundle", counting(fixtures.build_bundle))
    monkeypatch.setattr(random_time, "build_bundle", counting(random_time.build_bundle))
    config = json.loads((ROOT / "src/filtration_lab/configs/space_a_full.json").read_text())
    assert cli.run_config(config)["summary"]["failed"] == 0
    names = {getattr(fixtures, name)().name for name in NAMED}
    assert built["space_a"] == 1
    assert {name: built[name] for name in names if built[name] > 1} == {}


def _assert_unions_hold(unions, lone):
    """Each segment of ``unions`` is its lone bundle, with probabilities scaled by the union's power of four."""
    assert [b.g.horizon for b, _, _, _ in unions] == sorted({pair.g.horizon for pair in lone})
    assert sorted(i for _, _, pairs, _ in unions for i in pairs) == list(range(len(lone)))
    for b, starts, pairs, exponent in unions:
        k = len(pairs)
        assert list(pairs) == sorted(pairs)
        # the least power of four above k, so that the scale has an exact square root
        assert 2.0**exponent == 4.0 ** -min(m for m in range(8) if 4**m > k)
        labels = [np.array(b.g.at(t).labels) for t in range(b.g.horizon + 1)]
        for j, i in enumerate(pairs):
            pair, atoms = lone[i], slice(starts[j], starts[j + 1])
            assert pair.g.horizon == b.g.horizon
            assert np.array_equal(b.X.values[atoms], pair.X.values)
            assert np.array_equal(b.H.values[atoms], pair.H.values)
            assert np.array_equal(np.ldexp(b.space.probs[atoms], -exponent), pair.space.probs)
            for t, lab in enumerate(labels):
                # the pair's G blocks, and no block shared with another pair or the filler
                assert Partition.from_labels(lab[atoms].tolist()) == pair.g.at(t)
                assert not np.isin(lab[atoms], np.delete(lab, np.r_[atoms])).any()
        # the filler: the last atom, the remaining mass, no jumps, a block of its own
        assert starts[-1] == b.space.n_atoms - 1
        assert b.space.probs[-1] == 1.0 - b.space.probs[:-1].sum() > 0.0
        assert not b.X.values[-1].any() and not b.H.values[-1].any()
        assert all(lab[-1] not in lab[:-1] for lab in labels)


@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
def test_random_pair_unions_hold_the_lone_bundles(seed):
    rng = np.random.default_rng(seed)
    lone = [random_bundle(rng) for _ in range(200)]
    after_lone = rng.bit_generator.state
    rng = np.random.default_rng(seed)
    unions = fixtures.random_pair_unions(rng, 200)
    # the same draws in the same order, grouped by horizon in draw order
    assert rng.bit_generator.state == after_lone
    assert [b.g.horizon for b, _, _, _ in unions] == [1, 2, 3]
    _assert_unions_hold(unions, lone)


@pytest.mark.parametrize("draw", [fixtures.random_pair_draw, fixtures.random_time_draw])
@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
def test_union_targets_are_drawn_fixture_by_fixture_in_id_order(seed, draw):
    # the suites' per-segment targets: one rng.normal((count, n_i)) per drawn fixture, in id order
    rng = np.random.default_rng(seed)
    unions = fixtures.random_pair_unions(rng, 30, draw)
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    targets = suites._union_targets(rng, unions, 4)
    segment = {i: (u, starts[j], starts[j + 1]) for u, (_, starts, pairs, _) in enumerate(unions) for j, i in enumerate(pairs)}
    for i in range(30):
        u, start, stop = segment[i]
        assert targets[u][:, start:stop].tobytes() == twin.normal(size=(4, stop - start)).tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state
    for (b, starts, _, _), ys in zip(unions, targets):
        # the filler's target is 0
        assert ys.shape == (4, b.space.n_atoms) and ys[:, starts[-1]:].tobytes() == bytes(8 * 4 * (b.space.n_atoms - starts[-1]))


@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
def test_random_time_unions_hold_the_lone_bundles(seed):
    rng = np.random.default_rng(seed)
    lone = [random_random_time_bundle(rng) for _ in range(20)]
    after_lone = rng.bit_generator.state
    rng = np.random.default_rng(seed)
    unions = fixtures.random_pair_unions(rng, 20, fixtures.random_time_draw)
    # the same draws in the same order, grouped by horizon in draw order
    assert rng.bit_generator.state == after_lone
    _assert_unions_hold(unions, lone)
    taus = set()
    for b, starts, pairs, _ in unions:
        tau = random_time.tau_of(b).values
        for j, i in enumerate(pairs):
            assert np.array_equal(tau[starts[j] : starts[j + 1]], random_time.tau_of(lone[i]).values)
            taus.update(tau[starts[j] : starts[j + 1]].tolist())
        assert tau[-1] == NEVER  # the filler's H never jumps
    # a random time at every horizon, and one that never happens
    assert {b.g.horizon for b, *_ in unions} == {1, 2, 3} and NEVER in taus
