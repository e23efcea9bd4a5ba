"""Self-tests of the benchmark: generator, tracer coverage, gate, contract.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
The tracer tests run every workload once with tracing (one timed pass and
one traced pass), which takes a few minutes on two cores.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5

EXACT_LAYERS = (
    [f"representation.{m}" for m in ("solves", "nodes_solved")]
    + [f"finite_space.{f}.calls" for f in tracer.LAYERS["finite_space"]]
    + [f"calculus.{f}.calls" for f in tracer.LAYERS["calculus"]]
    + [f"jump_measure.{f}.calls" for f in tracer.LAYERS["jump_measure"]]
    + [f"enlargement.{f}.calls" for f in tracer.LAYERS["enlargement"]]
    + ["finite_space.conditional_expectation.blocks"]
)
MC_LAYERS = [
    "montecarlo.simulate_path_set.calls",
    "montecarlo.simulate_path_set.paths",
    "montecarlo.simulate_path_set.events",
    "montecarlo.duplicate_paths",
] + [f"montecarlo.PathSet.{m}.calls" for m in tracer.PATHSET_METHODS]

#: per workload, the per-layer metrics that must read above zero
REACHED = {
    "exact_canonical": EXACT_LAYERS
    + ["random_time.self_s", "fixtures.self_s"]
    + [f"suites.{s}.wall_s" for s in tracer.SUITES if not s.startswith("mc_")],
    "exact_large_tree": EXACT_LAYERS
    + ["serialize.bundle_from_doc.self_s"]
    + [f"suites.{s}.wall_s" for s in workloads.FIXTURE_SUITES],
    "mc_sparse": MC_LAYERS + [f"suites.{s}.wall_s" for s in tracer.SUITES if s.startswith("mc_")],
}


@pytest.fixture(scope="module")
def traced():
    """(gate, metrics) of one traced invocation per workload."""
    cache = {}

    def get(workload):
        if workload not in cache:
            gate, metrics, _record = run.bench(workload, SEED, 1, trace=True)
            cache[workload] = (gate, {k: v for k, (v, _u) in metrics.items()})
        return cache[workload]

    return get


# generator -----------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, SEED, ROOT) == workloads.generate(name, SEED, ROOT)


def test_seed_replaces_config_seed_and_changes_tree_probabilities():
    bundled_seed = json.loads((ROOT / workloads.CONFIG_DIR / "space_a_full.json").read_text())["seed"]
    for name in workloads.WORKLOADS:
        for r in workloads.generate(name, 17, ROOT):
            seed_sized = r.config["suites"] == [workloads.SEED_SIZED_SUITE]
            assert r.config["seed"] == (bundled_seed if seed_sized else 17)
    assert workloads.tree_probs(1) != workloads.tree_probs(2)


def test_exact_canonical_runs_every_bundled_suite_once():
    runs = workloads.generate("exact_canonical", 17, ROOT)
    bundled = [
        json.loads((ROOT / workloads.CONFIG_DIR / f"{name}.json").read_text())["suites"]
        for name in ("space_a_full", "counterexample_a2")
    ]
    ran = [s for r in runs for s in r.config["suites"]]
    assert sorted(map(json.dumps, ran)) == sorted(map(json.dumps, bundled[0] + bundled[1]))


def test_large_tree_size_and_normalisation():
    from filtration_lab.finite_space import PROB_SUM_TOL
    from filtration_lab.serialize import bundle_from_doc

    doc = workloads.tree_bundle_doc(SEED)
    assert abs(math.fsum(doc["probs"]) - 1.0) <= PROB_SUM_TOL
    assert min(doc["probs"]) > 0.0
    g = bundle_from_doc(doc).g
    assert g.space.n_atoms == workloads.TREE_ATOMS == 256
    assert g.horizon == workloads.TREE_HORIZON == 4
    assert sum(g.at(t).n_blocks for t in range(g.horizon)) == workloads.TREE_NODES == 85


def test_mc_sparse_is_the_bundled_config_with_a_thread_check():
    (sparse,) = workloads.generate("mc_sparse", SEED, ROOT)
    bundled = json.loads((ROOT / workloads.CONFIG_DIR / "poisson_qlc.json").read_text())
    assert sparse.config == dict(bundled, seed=SEED)
    assert sparse.check_parallel == 2
    assert all(r.check_parallel is None for w in ("exact_canonical", "exact_large_tree")
               for r in workloads.generate(w, SEED, ROOT))


# contract ------------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    layer_names = set(tracer.layer_metrics(tracer.summarise([])))
    assert {m["name"] for m in spec["per_layer"]} == layer_names | {"trace.overhead_s"}


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".perfbench" / "bare-test"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact_canonical",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# gate ----------------------------------------------------------------------


def _report(path: Path, rows) -> Path:
    path.write_text(json.dumps({"checks": rows}))
    return path


def test_gate_counts_every_row_of_a_failing_run():
    work = ROOT / ".perfbench" / "gate-test"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ok = {"suite": "s", "name": "a", "outcome": "holds", "expected": "holds", "passed": True}
        bad = dict(ok, outcome="fails", passed=False)
        gate = run.Gate()
        gate.check("good", "cfg", 0, _report(work / "a.json", [ok, ok]))
        assert (gate.attempted, gate.failed) == (2, 0)
        gate.check("rerun differs", "cfg", 0, _report(work / "b.json", [ok, ok, ok]))
        assert (gate.attempted, gate.failed) == (5, 3)
        gate.check("bad row", "other", 0, _report(work / "c.json", [ok, bad]))
        gate.check("exit 1", "third", 1, _report(work / "d.json", [ok]))
        gate.check("empty", "fourth", 0, _report(work / "e.json", []))
        gate.check("missing", "fifth", 0, work / "missing.json")
        assert (gate.attempted, gate.failed) == (10, 8)
        assert len(gate.problems) == 5
    finally:
        shutil.rmtree(work, ignore_errors=True)


# tracer --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_report_is_byte_identical_and_layers_are_reached(traced, workload):
    gate, metrics = traced(workload)
    # the gate compares the traced report's bytes with the untraced ones
    assert gate.failed == 0, gate.problems
    expected = set(tracer.layer_metrics(tracer.summarise([]))) | {"trace.overhead_s"}
    assert set(metrics) == expected
    missing = [name for name in REACHED[workload] + ["cli.report_to_json.self_s"] if not metrics[name] > 0]
    assert not missing


def test_mc_workload_reaches_no_exact_layer(traced):
    _gate, metrics = traced("mc_sparse")
    assert all(metrics[name] == 0 for name in EXACT_LAYERS)


def test_duplicate_paths_on_mc_sparse(traced):
    _gate, metrics = traced("mc_sparse")
    assert metrics["montecarlo.simulate_path_set.paths"] == 410_000
    assert metrics["montecarlo.duplicate_paths"] == 310_000
    assert metrics["montecarlo.duplicate_path_frac"] == 310_000 / 410_000


def test_counts_repeat_exactly_between_traced_runs(traced):
    _gate, first = traced("exact_large_tree")
    _gate, second, _record = run.bench("exact_large_tree", SEED, 1, trace=True)
    for name, (value, unit) in second.items():
        if unit == "count":
            assert value == first[name], name


# calibration ---------------------------------------------------------------


def test_scale_averages_host_speed_over_the_calibrations():
    ref = run.calib.CAL_REF_S
    assert run.scale(3.0, [ref]) == pytest.approx(3.0)
    # half the time at half the reference speed, half at full speed
    assert run.scale(2.0, [2 * ref, ref]) == pytest.approx(1.5)


def test_speed_sampler_takes_its_calibrations_out_of_the_pass(monkeypatch):
    ref = run.calib.CAL_REF_S

    def slow_calibration():
        time.sleep(0.05)
        return (2 * ref, 2 * ref)

    monkeypatch.setattr(run.calib, "calibrate", slow_calibration)
    monkeypatch.setattr(run, "PERIOD_S", 0.1)
    sampler = run.SpeedSampler()

    def one_second_of_work():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 - sampler.spent_wall < 1.0:
            pass

    wall, _cpu = sampler.run(one_second_of_work)
    assert len(sampler.cals) >= 2 + 5
    assert wall == pytest.approx(1.0, abs=0.05)
    assert sampler.scaled(wall, 0.0)[0] == pytest.approx(wall / 2)
