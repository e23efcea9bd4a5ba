"""Named fixtures are built once per process and shared as read-only bundles."""
import json
from collections import Counter
from pathlib import Path

import pytest
from conftest import BY_NAME_FIXTURES, RANDOM_TIME_FIXTURES

import filtration_lab.cli as cli
from filtration_lab import fixtures, random_time

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
