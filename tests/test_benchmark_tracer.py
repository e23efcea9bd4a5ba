"""The benchmark's layer tracer still finds every name it wraps, and puts each one back.

``perfbench/tracer.py`` wraps functions of the package by name.  Loading it
here makes a deleted or renamed name fail this suite, not only a traced
benchmark run.
"""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BY_NAME_FIXTURES, RANDOM_TIME_FIXTURES

import filtration_lab.cli as cli
from filtration_lab import fixtures, representation, suites
from filtration_lab.jump_measure import compensator_measure, jump_measure
from filtration_lab.montecarlo import PathSet

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every filtration_lab module, PathSet's methods and the registry entries."""
    package = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "filtration_lab" or name.startswith("filtration_lab.")
    }
    return package, dict(vars(PathSet)), dict(suites.REGISTRY)


def _replaced(before: dict, after: dict) -> list:
    """Keys bound to a different object in ``after`` than in ``before``, or on one side only."""
    return [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]


def test_install_wraps_every_traced_name_and_uninstall_restores_it(tracer_module):
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for layer, names in tracer_module.LAYERS.items():
            module = sys.modules[f"filtration_lab.{layer}"]
            names = tracer_module.public_functions(module) if names is None else names
            assert names, layer
            for name in names:
                assert getattr(module, name) is not before[0][module.__name__][name], (layer, name)
        for method in tracer_module.PATHSET_METHODS:
            assert vars(PathSet)[method] is not before[1][method], method
        assert set(tracer_module.SUITES) <= set(suites.REGISTRY)
        assert all(suites.REGISTRY[s].fn is not before[2][s].fn for s in tracer_module.SUITES)

        # the counters read the program's return values: a solve, a block average, a simulation
        config = json.loads((ROOT / "src/filtration_lab/configs/counterexample_a2.json").read_text())
        assert cli.run_config(config)["summary"]["failed"] == 0
        mc = {"engine": "mc", "seed": 3, "mc": {"n_paths": 50}, "suites": ["mc_poisson_compensator"]}
        assert cli.run_config(mc)["summary"]["checks"] > 0
        b = fixtures.fixture_a2()
        mu = jump_measure(b.X, b.H)
        target = representation.martingale_closure(np.array([0.0, 0.0, 1.0]), b.g)
        representation.solve_wrp(target, mu, compensator_measure(mu))
    finally:
        tracer.uninstall()
    package, methods, registry = _bindings()
    for name, namespace in before[0].items():
        assert not _replaced(namespace, package[name]), name
    assert not _replaced(before[1], methods)
    assert not _replaced(before[2], registry)
    for counter in (
        "representation.nodes_solved",
        "finite_space.conditional_expectation.blocks",
        "montecarlo.paths",
        "montecarlo.events",
    ):
        assert tracer.counts[counter] > 0, counter


def test_every_named_fixture_is_traced(tracer_module):
    # a fixture name bound to a cache object instead of a function drops out of `fixtures.self_s`
    named = BY_NAME_FIXTURES + RANDOM_TIME_FIXTURES
    assert set(named) <= set(tracer_module.public_functions(fixtures))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for name in BY_NAME_FIXTURES:
            fixtures.bundle_by_name(name)
        for name in RANDOM_TIME_FIXTURES:
            getattr(fixtures, name)()
    finally:
        tracer.uninstall()
    assert {f"fixtures.{name}" for name in named} <= {span[0] for span in tracer.spans}
