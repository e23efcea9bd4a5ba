import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import perfbench_workloads

from filtration_lab.calculus import MartingaleCheck
from filtration_lab.cli import (
    _mc_params,
    _resolve_bundle,
    main,
    report_to_csv,
    report_to_json,
    run_config,
    validate_config,
)
from filtration_lab.errors import ConfigInvalid, NotMartingale
from filtration_lab.finite_space import AdaptedProcess
from filtration_lab import finite_space, fixtures, suites
from filtration_lab.suites import REGISTRY, SuiteContext, describe_suite, list_suites

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs"


def _flab(*args):
    return subprocess.run(
        [sys.executable, "-m", "filtration_lab", *args], capture_output=True, text=True
    )


def _small_mc_config(**overrides):
    cfg = {
        "schema": "filtration-lab/config-v1",
        "engine": "mc",
        "seed": 20260810,
        "mc": {"lambda": 1.0, "mu": 1.0, "t_real": 10.0, "n_paths": 4000, "z_max": 4.0},
        "suites": ["mc_poisson_compensator"],
    }
    cfg.update(overrides)
    return cfg


class TestRegistry:
    def test_at_least_twelve_suites(self):
        assert len(REGISTRY) >= 12

    def test_listing_is_stable_and_annotated(self):
        text = list_suites()
        assert text == list_suites()
        for name, spec in REGISTRY.items():
            assert name in text
            assert spec.anchor in text

    def test_describe_cites_reference(self):
        text = describe_suite("triple_representation")
        assert "Eq. (prp.spp)" in text
        assert "exact" in text

    def test_every_row_carries_its_registered_anchor(self):
        exact_suites = [
            {"name": name, "expected_outcome": "fails" if name == "counterexample_a2" else "holds"}
            for name, spec in REGISTRY.items()
            if spec.engine == "exact"
        ]
        mc_suites = [
            {"name": name, "expected_outcome": "fails" if name == "mc_negative_controls" else "holds"}
            for name, spec in REGISTRY.items()
            if spec.engine == "mc"
        ]
        rows = run_config({"engine": "exact", "seed": 7, "suites": exact_suites})["checks"]
        rows += run_config(_small_mc_config(suites=mc_suites, mc={"n_paths": 1000}))["checks"]
        assert {row["suite"] for row in rows} == set(REGISTRY)
        for row in rows:
            assert row["anchor"] == REGISTRY[row["suite"]].anchor, (row["suite"], row["name"])

    def test_describe_unknown(self):
        from filtration_lab.errors import UnknownSuite

        with pytest.raises(UnknownSuite):
            describe_suite("nope")


class TestValidation:
    def test_engine_required(self):
        with pytest.raises(ConfigInvalid):
            validate_config({"suites": ["wrp_representation"]})

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate_config({"engine": "exact", "suites": ["nope"]})

    def test_engine_suite_mismatch(self):
        with pytest.raises(ConfigInvalid):
            validate_config({"engine": "exact", "suites": ["mc_poisson_compensator"]})
        with pytest.raises(ConfigInvalid):
            validate_config(_small_mc_config(suites=["wrp_representation"]))

    def test_exact_rejects_mc_keys_and_parallel(self):
        cfg = {"engine": "exact", "suites": ["counterexample_a2"], "mc": {}}
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)
        with pytest.raises(ConfigInvalid):
            validate_config({"engine": "exact", "suites": ["counterexample_a2"]}, parallel=4)

    def test_mc_rejects_fixture(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_small_mc_config(fixture="space_a"))

    def test_bad_expected_outcome(self):
        cfg = {"engine": "exact", "suites": [{"name": "counterexample_a2", "expected_outcome": "maybe"}]}
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)


BAD_MC = [
    ("n_paths", 0),
    ("n_paths", -5),
    ("n_paths", "abc"),
    ("n_paths", True),
    ("n_paths", 2.5),
    ("n_paths", None),
    ("lambda", -1.0),
    ("lambda", 0),
    ("lambda", "abc"),
    ("lambda", True),
    ("mu", 0.0),
    ("mu", math.inf),
    ("t_real", math.nan),
    ("t_real", -10.0),
    ("t_real", 10**400),
    ("z_max", 0.0),
    ("z_max", -4.0),
    ("epsilons", []),
    ("epsilons", "abc"),
    ("epsilons", [0.1, -0.01]),
    ("epsilons", [0.1, math.nan]),
    ("epsilons", [False]),
]


class TestBadMcInput:
    @pytest.mark.parametrize("key,value", BAD_MC, ids=[f"{k}={v!r}" for k, v in BAD_MC])
    def test_exit_two_with_one_line(self, tmp_path, capsys, key, value):
        cfg = _small_mc_config()
        cfg["mc"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: mc.") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "mc",
        # lambda * t_real overflows to inf; the other four need an event table of more than 2^28 entries
        # (2^64 - 1 paths would also key a path with the main stream's key), the last for the 1000 paths
        # of mc_avoidance's stress run though n_paths is 1; none is simulated
        [
            {"lambda": 1e200, "t_real": 1e200},
            {"n_paths": 2**64 - 1},
            {"n_paths": 10**12},
            {"lambda": 1e11},
            {"lambda": 3e5, "t_real": 1.0, "n_paths": 1},
        ],
        ids=["lambda_t_real_overflows", "n_paths_2^64-1", "n_paths_1e12", "lambda_t_real_1e12", "stress_run_too_large"],
    )
    def test_exit_two_when_the_paths_cannot_be_simulated(self, tmp_path, capsys, mc):
        cfg = _small_mc_config()
        cfg["mc"].update(mc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: mc.lambda, mc.t_real and mc.n_paths cannot be simulated")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_absent_keys_keep_the_mc_defaults(self):
        assert _mc_params({"engine": "mc"}) == suites.McParams()
        given = {"mc": {"lambda": 2, "epsilons": [0.5]}}
        assert _mc_params(given) == suites.McParams(lam=2.0, epsilons=(0.5,))
        assert suites.SuiteContext(seed=0).mc == suites.McParams()

    def test_mc_must_be_an_object(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_small_mc_config(mc=[1, 2]))


#: the float spacing at the default t_real 10: every width must lie in [S_10, 1 - S_10]
S_10 = float(np.spacing(10.0))
#: the largest mu whose stress rate 25 mu is finite
MU_MAX = 7.190772539449263e306


def _run_mc(tmp_path, mc, suite):
    """``flab run`` on a 2000-path config at seed 7 with ``mc`` and one suite: its exit code and its report's
    rows by name (None when no report was written)."""
    cfg = {"engine": "mc", "seed": 7, "mc": {"n_paths": 2000, **mc}, "suites": [suite]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
    out = tmp_path / "r.json"
    return code, {c["name"]: c for c in json.loads(out.read_text())["checks"]} if out.exists() else None


class TestMcPremises:
    """A width outside [s, 1 - s], s the float spacing at t_real, and a mu whose stress rate 25 mu
    overflows are invalid configs (exit 2, one stderr line naming the premise); the first value inside
    each bound runs, and the window its premise protects means what its row says."""

    @pytest.mark.parametrize(
        "eps",
        [1.0, 1.0000001, 1.5, 3, 1e-16, float(np.nextafter(S_10, 0.0)), float(np.nextafter(1.0 - S_10, 2.0))],
        ids=["1", "1.0000001", "1.5", "3", "1e-16", "below_s", "above_1-s"],
    )
    def test_width_outside_the_premise_exits_two(self, tmp_path, capsys, eps):
        code, rows = _run_mc(tmp_path, {"epsilons": [0.1, eps]}, "mc_predictable_jump")
        err = capsys.readouterr().err
        assert code == 2 and rows is None
        assert err.startswith("error: invalid config: mc.epsilons entry must lie in [s, 1 - s], s = 1.7763568394002505e-15")
        assert err.count("\n") == 1

    def test_first_widths_inside_the_premise_run(self, tmp_path):
        # at s the announced window still holds its target; at 1 - s the base window misses its first event
        code, rows = _run_mc(tmp_path, {"epsilons": [S_10, 1.0 - S_10]}, "mc_predictable_jump")
        assert code in (0, 1)
        announced = rows["announced_window_hit_rate_eps_1.77636e-15"]
        assert announced["passed"] and announced["evidence"]["estimate"] == 1.0 and announced["evidence"]["n_paths"] > 0
        base = rows["base_window_hit_rate_eps_1"]
        assert base["passed"], base
        # the zero-hit base row at s is the rare-event family, outside this premise
        assert not rows["base_window_hit_rate_eps_1.77636e-15"]["passed"]

    def test_stress_rate_must_be_finite(self, tmp_path, capsys):
        above = float(np.nextafter(MU_MAX, math.inf))
        assert 25.0 * MU_MAX < math.inf and not 25.0 * above < math.inf
        for mu in (above, 1e308):
            code, rows = _run_mc(tmp_path, {"mu": mu}, "mc_avoidance")
            err = capsys.readouterr().err
            assert code == 2 and rows is None, mu
            assert err == f"error: invalid config: mc.mu must keep mc_avoidance's stress rate 25 * mc.mu finite, got {mu!r}\n"
        for mu in (MU_MAX, 1e306):
            code, rows = _run_mc(tmp_path, {"mu": mu}, "mc_avoidance")
            assert code == 0, mu
            assert rows["stress_jump_indicator_compensated"]["evidence"]["estimate"] != "nan"


#: (how the seed is given, value): each must exit 2 with one stderr line
BAD_SEED = [
    ("config", True),
    ("config", -1),
    ("config", 2.0),
    ("flag", "-3"),
    # Philox keys are 64-bit: a larger seed would alias seed mod 2^64
    ("config", 2**64),
    ("flag", str(2**64)),
]


class TestBadSeed:
    @pytest.mark.parametrize("how,value", BAD_SEED, ids=[f"{h}={v!r}" for h, v in BAD_SEED])
    def test_exit_two_with_one_line(self, tmp_path, capsys, how, value):
        cfg = {"engine": "exact", "seed": 7, "suites": ["completeness_random_spaces"]}
        args = []
        if how == "config":
            cfg["seed"] = value
        else:
            args = ["--seed", value]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json"), *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: seed") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_largest_seed_runs(self, tmp_path, how):
        cfg = _small_mc_config(mc={"n_paths": 200})
        args = []
        if how == "config":
            cfg["seed"] = 2**64 - 1
        else:
            args = ["--seed", str(2**64 - 1)]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json"), *args])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["config"]["seed"] == 2**64 - 1

    def test_run_config_rejects_a_negative_override(self):
        with pytest.raises(ConfigInvalid):
            run_config(_small_mc_config(), seed_override=-3)


#: (what is wrong, config overrides): each must exit 2 with one stderr line
_INLINE = {
    "schema": "filtration-lab/bundle-v1",
    "probs": [0.5, 0.5],
    "initial": [[0, 1]],
    "x_values": [[0, 1], [0, 0]],
    "h_values": [[0, 0], [0, 1]],
}
_INLINE_SPACE = {
    "schema": "filtration-lab/space-v1",
    "atoms": [{"id": 0, "prob": 0.5}, {"id": 0, "prob": 0.5}],
    "processes": {"X": [[0, 1], [0, 0]], "H": [[0, 0], [0, 1]]},
}
_SPACE_OK = dict(_INLINE_SPACE, atoms=[{"id": 0, "prob": 0.5}, {"id": 1, "prob": 0.5}])
#: four atoms, one path per (dX, dH) mark
_INLINE_4 = {
    "schema": "filtration-lab/bundle-v1",
    "probs": [0.25] * 4,
    "initial": [[0, 1, 2, 3]],
    "x_values": [[0, 0], [0, 1], [0, 0], [0, 1]],
    "h_values": [[0, 0], [0, 0], [0, 1], [0, 1]],
}
BAD_CONFIG = [
    ("probs_sum_to_1.1", {"fixture": dict(_INLINE, probs=[0.5, 0.6])}),
    ("jump_of_two", {"fixture": dict(_INLINE, x_values=[[0, 2], [0, 0]])}),
    ("fixture_missing_key", {"fixture": {k: v for k, v in _INLINE.items() if k != "initial"}}),
    ("fixture_ragged_values", {"fixture": dict(_INLINE, x_values=[[0, 1], [0]])}),
    ("fixture_atom_out_of_range", {"fixture": dict(_INLINE, initial=[[0, 5]])}),
    ("unknown_fixture_name", {"fixture": "nope"}),
    # the tolerances are constants, so even their own values are no config
    ("tolerances_key", {"tolerances": {"exact": 1e-9, "atomwise": 1e-12}}),
    ("unknown_top_level_key", {"name": "x"}),
    ("suite_name_a_list", {"suites": [{"name": ["counterexample_a2"]}]}),
    ("suite_name_an_object", {"suites": [{"name": {}}]}),
    ("suite_entry_without_name", {"suites": [{"expected_outcome": "holds"}]}),
    ("suite_entry_a_number", {"suites": [3]}),
    ("suite_entry_typo_key", {"suites": [{"name": "counterexample_a2", "expexted_outcome": "fails"}]}),
    ("fails_without_polarity", {"suites": [{"name": "filtration_identities", "expected_outcome": "fails"}]}),
    (
        "fails_without_polarity_mc",
        {"engine": "mc", "suites": [{"name": "mc_poisson_compensator", "expected_outcome": "fails"}]},
    ),
    ("inline_bundle_name_a_list", {"fixture": dict(_INLINE, name=["space_a"])}),
    ("inline_space_duplicate_atom_ids", {"fixture": _INLINE_SPACE}),
    (
        "inline_space_atom_ids_from_1",
        {"fixture": dict(_INLINE_SPACE, atoms=[{"id": 1, "prob": 0.5}, {"id": 2, "prob": 0.5}])},
    ),
    # a space-v1 fixture has exactly the keys schema, atoms, processes and the processes X, H
    ("inline_space_with_filtration", {"fixture": dict(_SPACE_OK, filtration=[[[0], [1]], [[0], [1]]])}),
    (
        "inline_space_extra_process",
        {"fixture": dict(_SPACE_OK, processes={**_SPACE_OK["processes"], "Y": [[0, 0], [0, 0]]})},
    ),
    ("inline_space_without_h", {"fixture": dict(_SPACE_OK, processes={"X": [[0, 1], [0, 0]]})}),
    ("inline_space_processes_a_list", {"fixture": dict(_SPACE_OK, processes=[[0, 1], [0, 0]])}),
    ("inline_space_without_processes", {"fixture": {k: v for k, v in _SPACE_OK.items() if k != "processes"}}),
    ("inline_bundle_unknown_key", {"fixture": dict(_INLINE, filtration=[[[0, 1]], [[0], [1]]])}),
    # value matrices that are not (atoms, times)
    ("inline_bundle_x_values_empty", {"fixture": dict(_INLINE, x_values=[])}),
    ("inline_bundle_x_values_flat", {"fixture": dict(_INLINE, x_values=[0, 1])}),
    ("inline_space_x_flat", {"fixture": dict(_SPACE_OK, processes={**_SPACE_OK["processes"], "X": [0, 1]})}),
    # an atom id is an integer: int() would truncate a float and take a bool or a digit string
    ("inline_bundle_fractional_atom_id", {"fixture": dict(_INLINE_4, initial=[[0.5, 1, 2, 3]])}),
    ("inline_bundle_boolean_atom_id", {"fixture": dict(_INLINE_4, initial=[[True, 0], [2, 3]])}),
    ("inline_bundle_string_atom_ids", {"fixture": dict(_INLINE_4, initial=[["0", "1"], [2, 3]])}),
    (
        "inline_space_boolean_atom_id",
        {"fixture": dict(_SPACE_OK, atoms=[{"id": 0, "prob": 0.5}, {"id": True, "prob": 0.5}])},
    ),
    (
        "inline_space_float_atom_ids",
        {"fixture": dict(_SPACE_OK, atoms=[{"id": 0.0, "prob": 0.5}, {"id": 1.0, "prob": 0.5}])},
    ),
]


class TestBadConfig:
    @pytest.mark.parametrize("what,overrides", BAD_CONFIG, ids=[w for w, _ in BAD_CONFIG])
    def test_exit_two_with_one_line(self, tmp_path, capsys, what, overrides):
        cfg = {"engine": "exact", "seed": 7, "suites": ["counterexample_a2"], **overrides}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_inline_space_runs(self):
        cfg = {"engine": "exact", "fixture": _SPACE_OK, "suites": ["three_point_processes"]}
        assert run_config(cfg)["summary"]["failed"] == 0

    @pytest.mark.parametrize("fixture,spaces", [("staggered", 53), (_INLINE_4, 54)], ids=["canonical", "inline"])
    def test_completeness_runs_on_the_configured_fixture(self, fixture, spaces):
        cfg = {"engine": "exact", "fixture": fixture, "suites": ["completeness_random_spaces"]}
        (row,) = run_config(cfg)["checks"]
        assert row["passed"] and row["evidence"]["spaces"] == spaces

    @pytest.mark.parametrize("name", ["space_a", "fixture_a2", "staggered", "large_tree"])
    def test_inline_bundle_always_runs(self, name):
        cfg = {"engine": "exact", "fixture": dict(_INLINE, name=name), "suites": ["three_point_processes"]}
        bundle = _resolve_bundle(cfg)
        assert bundle.name == "inline"
        assert suites._rep_fixtures(suites.SuiteContext(seed=0, bundle=bundle))[0] is bundle
        report = run_config(cfg)
        assert report["config"]["fixture"]["name"] == name
        assert report["summary"]["failed"] == 0


class TestRunConfig:
    @pytest.mark.parametrize("expected", ["holds", "fails"])
    def test_suite_without_rows_fails(self, monkeypatch, expected):
        # only a suite that honours polarity may be declared to fail
        spec = REGISTRY["mc_negative_controls" if expected == "fails" else "mc_poisson_compensator"]
        monkeypatch.setitem(suites.REGISTRY, spec.name, dataclasses.replace(spec, fn=lambda ctx: []))
        cfg = _small_mc_config(suites=[{"name": spec.name, "expected_outcome": expected}])
        report = run_config(cfg)
        (row,) = report["checks"]
        assert (row["suite"], row["name"], row["passed"]) == (spec.name, "no_rows", False)
        assert report["summary"] == {"checks": 1, "passed": 0, "failed": 1}

    def test_parallel_has_no_effect_on_mc_reports(self):
        cfg = _small_mc_config(suites=["mc_avoidance", "mc_negative_controls"])
        assert report_to_json(run_config(cfg, parallel=8)) == report_to_json(run_config(cfg))

    def test_counterexample_polarity(self):
        cfg = json.loads((CONFIG_DIR / "counterexample_a2.json").read_text())
        report = run_config(cfg)
        assert report["summary"]["failed"] == 0
        row = next(
            c for c in report["checks"] if c["name"] == "disjoint_jumps_orthogonality"
        )
        assert row["outcome"] == "fails" and row["expected"] == "fails" and row["passed"]

    def test_counterexample_without_polarity_fails(self):
        cfg = json.loads((CONFIG_DIR / "counterexample_a2.json").read_text())
        cfg["suites"] = ["counterexample_a2"]
        report = run_config(cfg)
        assert report["summary"]["failed"] == 1

    def test_report_shape(self):
        report = run_config(_small_mc_config())
        assert report["schema"] == "filtration-lab/report-v1"
        assert report["summary"]["checks"] == len(report["checks"])
        for c in report["checks"]:
            assert {"suite", "name", "anchor", "outcome", "expected", "passed", "evidence"} <= set(c)
        parsed = json.loads(report_to_json(report))
        assert parsed == json.loads(report_to_json(parsed))

    def test_seed_override(self):
        cfg = _small_mc_config()
        r1 = run_config(cfg, seed_override=123)
        assert r1["config"]["seed"] == 123

    def test_csv_table(self):
        report = run_config(_small_mc_config())
        text = report_to_csv(report)
        lines = text.split("\r\n")
        assert lines[0] == "suite,check,anchor,outcome,expected,passed,evidence"
        assert len([ln for ln in lines if ln]) == len(report["checks"]) + 1


class TestCommandLine:
    def test_exit_zero_and_report_written(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_mc_config()))
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        proc = _flab("run", str(cfg_path), "--out", str(out), "--csv", str(csv_out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0
        assert csv_out.read_text().startswith("suite,check")
        assert "[PASS]" in proc.stderr

    def test_exit_one_on_failed_check_report_still_written(self, tmp_path):
        cfg = _small_mc_config(suites=["mc_negative_controls"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        proc = _flab("run", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        assert json.loads(out.read_text())["summary"]["failed"] > 0

    def test_exit_two_on_invalid_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"engine": "nope", "suites": ["x"]}))
        proc = _flab("run", str(cfg_path))
        assert proc.returncode == 2
        assert "invalid config" in proc.stderr

    def test_seed_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_mc_config()))
        out = tmp_path / "report.json"
        proc = _flab("run", str(cfg_path), "--out", str(out), "--seed", "999")
        assert proc.returncode == 0
        assert json.loads(out.read_text())["config"]["seed"] == 999

    def test_statistic_without_samples_fails_its_row(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "poisson_qlc.json").read_text())
        cfg["seed"] = 3
        cfg["mc"].update({"n_paths": 2, "lambda": 0.2, "t_real": 1.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = json.loads((tmp_path / "r.json").read_text())["checks"]
        (row,) = [r for r in rows if r["name"] == "base_window_hit_rate_eps_0.1"]
        assert not row["passed"]
        assert row["evidence"]["n_paths"] == 0 and row["evidence"]["z_score"] == "nan"

    def test_a_suite_that_raises_is_one_failing_row(self, tmp_path, capsys, monkeypatch):
        spec = REGISTRY["wrp_representation"]

        def raises(ctx):
            raise NotMartingale("target 0 has nonzero drift at (1, 0, 0.5)")

        monkeypatch.setitem(suites.REGISTRY, spec.name, dataclasses.replace(spec, fn=raises))
        cfg = json.loads((CONFIG_DIR / "space_a_full.json").read_text())
        cfg["suites"] = ["three_point_processes", spec.name, "filtration_identities"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"[FAIL] {spec.name}::raised" in err
        report = json.loads((tmp_path / "r.json").read_text())
        failed = [(c["suite"], c["name"], c["evidence"]) for c in report["checks"] if not c["passed"]]
        evidence = {"error": "NotMartingale", "message": "target 0 has nonzero drift at (1, 0, 0.5)"}
        assert failed == [(spec.name, "raised", evidence)]
        # the suites around it still ran, and passed
        assert report["checks"][0]["suite"] == "three_point_processes"
        assert report["checks"][-1]["suite"] == "filtration_identities"
        assert report["summary"]["failed"] == 1

    @pytest.mark.parametrize("error", [ConfigInvalid, ValueError])
    def test_a_suite_raising_anything_else_is_not_a_row(self, tmp_path, monkeypatch, error):
        spec = REGISTRY["wrp_representation"]

        def raises(ctx):
            raise error("from inside the suite")

        monkeypatch.setitem(suites.REGISTRY, spec.name, dataclasses.replace(spec, fn=raises))
        cfg = dict(json.loads((CONFIG_DIR / "space_a_full.json").read_text()), suites=[spec.name])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        if error is ConfigInvalid:
            assert main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
        else:
            with pytest.raises(ValueError, match="from inside the suite"):
                main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert not (tmp_path / "r.json").exists()

    def test_suites_and_describe_commands(self):
        proc = _flab("suites")
        assert proc.returncode == 0
        assert "wrp_representation" in proc.stdout
        proc = _flab("describe", "azema_compensator")
        assert proc.returncode == 0
        assert "Eq. (G.com.gen)" in proc.stdout
        proc = _flab("describe", "nope")
        assert proc.returncode == 2

    def test_main_entry_in_process(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_mc_config()))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert code == 0


def _nan_float(_gap):
    return math.nan


def _nan_residual(batch):
    """The batch with its last target's residual NaN."""
    residual = batch.residual_sup.copy()
    residual[-1] = math.nan
    return dataclasses.replace(batch, residual_sup=residual)


def _nan_reconstructions(batch):
    return dataclasses.replace(batch, reconstructions=batch.reconstructions * math.nan)


def _nan_values(process):
    return AdaptedProcess(process.filtration, np.full(process.values.shape, math.nan))


def _nan_drift(_check):
    return MartingaleCheck(False, (1, 0, math.nan))


def _nan_check(entry):
    """A ``martingale_checks`` result whose check ``entry`` has a NaN drift."""

    def poison(checks):
        checks = list(checks)
        checks[entry] = _nan_drift(checks[entry])
        return checks

    return poison


def _nan_integral(entry):
    """A ``stochastic_integrals`` stack whose integral ``entry`` is NaN."""

    def poison(stack):
        stack = stack.copy()
        stack[entry] = math.nan
        return stack

    return poison


def _nan_segment_gap(entry):
    """An ``orthogonality_segments`` result whose segment ``entry`` has a NaN decomposition gap."""

    def poison(toolkit):
        gap = toolkit.decomposition_gap.copy()
        gap[entry] = math.nan
        return dataclasses.replace(toolkit, decomposition_gap=gap)

    return poison


def _nan_atoms(atoms):
    """A process whose values on ``atoms`` (one segment of a union) are NaN."""

    def poison(process):
        values = process.values.copy()
        values[atoms] = math.nan
        return AdaptedProcess(process.filtration, values)

    return poison


def _drawn_slot(salt, n_drawn, fixture, draw=fixtures.random_pair_draw, normals_before=0):
    """(union, segment, its atoms) holding the ``fixture``-th of the ``n_drawn`` fixtures that a suite draws with
    ``draw`` from its rng ``salt``, as one union per horizon, after ``normals_before`` normal draws of that rng,
    on the bundled space_a_full config."""
    seed = json.loads((CONFIG_DIR / "space_a_full.json").read_text())["seed"]
    rng = SuiteContext(seed=seed).rng(salt)
    rng.normal(size=normals_before)
    unions = fixtures.random_pair_unions(rng, n_drawn, draw)
    ((union, segment, starts),) = [
        (u, pairs.index(fixture), starts) for u, (_, starts, pairs, _) in enumerate(unions) if fixture in pairs
    ]
    return union, segment, slice(starts[segment], starts[segment + 1])


#: the union passes holding the first and the last of azema_compensator's 20 random times (after
#: its 5 named ones), and of triple_representation's 5 stopped ones (after its 3 fixtures x 3
#: solves and 2 named stopped solves; drawn after the 100 targets of each of its 3 fixtures)
AZEMA_DRAWN = tuple(5 + _drawn_slot("azema", 20, i, fixtures.random_time_draw)[0] for i in (0, 19))
_TRIPLE_TARGETS = 100 * sum(b.space.n_atoms for b in (fixtures.space_a(), fixtures.fixture_a2(), fixtures.staggered()))
STOPPED_DRAWN = tuple(
    11 + _drawn_slot("triple", 5, i, fixtures.random_time_draw, _TRIPLE_TARGETS)[0] for i in (0, 4)
)


def _nan_independent(key):
    """An ``independent_batch`` result whose residual (``key`` None) or check ``key`` is NaN."""

    def poison(result):
        batch, checks = result
        if key is None:
            return _nan_residual(batch), checks
        return batch, {**checks, key: checks[key] * math.nan}

    return poison


#: (suite, gap source in its namespace) -> calls the suite makes on the bundled space_a_full config
NAN_SOURCE_CALLS = {
    ("prp_base_filtration", "solve_batch"): 2,
    # 3 pairs x (4 named bundles + one union of the 10 random pairs per horizon)
    ("three_point_processes", "quadratic_covariation"): 21,
    # one chunk of 100 functions per fixture x 3 fixtures
    ("jump_measure_compensator", "martingale_checks"): 3,
    ("jump_measure_compensator", "stochastic_integrals"): 9,  # 3 marks x 3 chunks
    ("jump_measure_compensator", "quadratic_covariation"): 3,
    ("wrp_representation", "solve_batch"): 3,
    # 3 fixtures x (triple head, triple rest, measure-form head), then 2 named stopped
    # and one union of the 5 random times per horizon
    ("triple_representation", "solve_batch"): 13,
    # 2 families x (3 named spaces + one union of the 50 random spaces per horizon)
    ("completeness_random_spaces", "solve_batch"): 12,
    ("independent_enlargement", "independent_batch"): 1,
    # 5 named random times + one union of the 20 random ones per horizon
    ("azema_compensator", "cross_validation_gap"): 8,
    ("azema_compensator", "azema_consistency_gap"): 8,
    ("azema_compensator", "supermartingale_gap"): 8,
    # one union of the 200 random pairs per horizon, then the lone fixture_a2 and space_a pairs
    ("orthogonality_toolkit", "orthogonality_segments"): 5,
}

#: every exact row that reports a worst_* value: (suite, row, evidence key, gap source, poison,
#: the source's 0-based calls on the row's first and last fixture); a stacked source is
#: poisoned in its first entry on the first call and in its last entry on the last call.  A row
#: that draws random fixtures into unions is also poisoned on its first and last drawn fixture:
#: in that fixture's segment where the source reports per segment or per atom, else on the
#: union pass that holds it
NAN_GAPS = [
    ("prp_base_filtration", "single_source_solvable", "worst_residual", "solve_batch",
     _nan_residual, (0, 0)),
    ("prp_base_filtration", "initially_enlarged_still_solvable", "worst_residual", "solve_batch",
     _nan_residual, (1, 1)),
    ("three_point_processes", "disjoint_decomposition", "worst_bracket", "quadratic_covariation",
     _nan_values, (0,)),
    # the first and the last drawn pair's segment, in the last of its union's 3 brackets
    *[("three_point_processes", "disjoint_decomposition", "worst_bracket", "quadratic_covariation",
       _nan_atoms(atoms), (3 * (4 + union) + 2,))
      for union, _, atoms in (_drawn_slot("decomposition", 10, i) for i in (0, 9))],
    ("jump_measure_compensator", "compensated_integral_is_martingale", "worst_drift",
     "martingale_checks", _nan_check(0), (0,)),
    ("jump_measure_compensator", "compensated_integral_is_martingale", "worst_drift",
     "martingale_checks", _nan_check(-1), (2,)),
    ("jump_measure_compensator", "integral_splits_across_marks", "worst_gap", "stochastic_integrals",
     _nan_integral(0), (0,)),
    ("jump_measure_compensator", "integral_splits_across_marks", "worst_gap", "stochastic_integrals",
     _nan_integral(-1), (8,)),
    ("jump_measure_compensator", "total_mass_formula", "worst_gap", "quadratic_covariation",
     _nan_values, (0, 2)),
    ("wrp_representation", "every_martingale_represented", "worst_residual", "solve_batch",
     _nan_residual, (0, 2)),
    ("triple_representation", "triple_integrals_represent", "worst_residual", "solve_batch",
     _nan_residual, (0, 7)),
    ("triple_representation", "triple_matches_measure_form", "worst_gap", "solve_batch",
     _nan_reconstructions, (2, 8)),
    ("triple_representation", "stopped_representation", "worst_residual", "solve_batch",
     _nan_residual, (9, *STOPPED_DRAWN)),
    ("completeness_random_spaces", "dense_by_zero_residuals", "worst_residual", "solve_batch",
     _nan_residual, (0, 11)),
    ("independent_enlargement", "orthogonal_basis_represents", "worst_residual", "independent_batch",
     _nan_independent(None), (0, 0)),
    ("independent_enlargement", "orthogonal_basis_represents", "worst_orthogonality",
     "independent_batch", _nan_independent("basis_orthogonality_gap"), (0, 0)),
    ("independent_enlargement", "change_of_basis_identities", "worst_identity_gap", "independent_batch",
     _nan_independent("basis_identity_gap"), (0, 0)),
    ("independent_enlargement", "change_of_basis_identities", "worst_factorisation_gap",
     "independent_batch", _nan_independent("bracket_factorisation_gap"), (0, 0)),
    ("independent_enlargement", "pythagoras_identity", "worst_gap", "independent_batch",
     _nan_independent("pythagoras_gap"), (0, 0)),
    ("azema_compensator", "survival_formula_matches_direct_compensator", "worst_gap",
     "cross_validation_gap", _nan_float, (0, *AZEMA_DRAWN)),
    ("azema_compensator", "survival_process_consistent", "worst_block_gap", "azema_consistency_gap",
     _nan_float, (0, *AZEMA_DRAWN)),
    ("azema_compensator", "survival_process_consistent", "worst_drift_up", "supermartingale_gap",
     _nan_float, (0, *AZEMA_DRAWN)),
    # the first and the last drawn pair, each a segment of its horizon's union
    *[("orthogonality_toolkit", "toolkit_clauses_on_random_pairs", "worst_identity_gap",
       "orthogonality_segments", _nan_segment_gap(segment), (union,))
      for union, segment, _ in (_drawn_slot("toolkit", 200, i) for i in (0, 199))],
]
NAN_GAP_CASES = [
    (suite, row, key, source, poison, call)
    for suite, row, key, source, poison, calls in NAN_GAPS
    for call in sorted(set(calls))
]


class TestNanGapFailsItsRow:
    """A NaN gap on the first or the last fixture of a row fails the row and the run."""

    @pytest.mark.parametrize(
        "suite,row,key,source,poison,call",
        NAN_GAP_CASES,
        ids=[f"{row}.{key}@{call}" for _, row, key, _, _, call in NAN_GAP_CASES],
    )
    def test_row_fails_with_nan_evidence(
        self, tmp_path, monkeypatch, suite, row, key, source, poison, call
    ):
        real = getattr(suites, source)
        calls = []

        def faulty(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(source)
            return poison(result) if len(calls) == call + 1 else result

        monkeypatch.setattr(suites, source, faulty)
        cfg = json.loads((CONFIG_DIR / "space_a_full.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(cfg, suites=[suite])))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert len(calls) == NAN_SOURCE_CALLS[(suite, source)]
        assert code == 1
        (got,) = [r for r in json.loads((tmp_path / "r.json").read_text())["checks"] if r["name"] == row]
        assert (got["outcome"], got["passed"], got["evidence"][key]) == ("fails", False, "nan")

    def test_the_table_names_every_worst_value(self):
        # the bundled report's rows; test_golden keeps the golden copy's rows and keys in step with it
        golden = json.loads((Path(__file__).resolve().parent / "golden" / "space_a_full.json").read_text())
        reported = {
            (row["suite"], row["name"], key)
            for row in golden["checks"]
            for key in row["evidence"]
            if key.startswith("worst_")
        }
        assert reported == {(suite, row, key) for suite, row, key, *_ in NAN_GAPS}


class TestBoundedRow:
    """``suites._bounded``: each family reduced by ``max_gap`` and held to its own tolerance."""

    def test_every_family_is_reported_and_a_maximum_at_its_tolerance_holds(self):
        gaps = {
            "worst_a": (0.5, 0.25, np.array([0.5, 0.0])),
            "worst_b": (0.0, [0.0, 0.0]),
            "c": (1.0, np.zeros(0), 1.0),
        }
        row = suites._bounded("row", gaps, solves=3)
        assert (row.name, row.outcome) == ("row", "holds")
        assert row.evidence == {"worst_a": 0.5, "worst_b": 0.0, "c": 1.0, "solves": 3}

    @pytest.mark.parametrize("family", ["worst_a", "worst_b"])
    @pytest.mark.parametrize("where", [0, -1])
    def test_a_nan_in_any_family_fails_the_row(self, family, where):
        gaps = {"worst_a": [0.0, 1e-20, 0.0], "worst_b": [np.zeros(4), np.zeros(2)]}
        if family == "worst_a":
            gaps[family][where] = math.nan
        else:
            gaps[family][where][where] = math.nan
        row = suites._bounded("row", {"worst_a": (1e-12, gaps["worst_a"]), "worst_b": (1.0, *gaps["worst_b"])})
        other = "worst_b" if family == "worst_a" else "worst_a"
        assert row.outcome == "fails"
        assert row.evidence[family] == "nan" and isinstance(row.evidence[other], float)

    def test_a_maximum_over_its_tolerance_fails_the_row(self):
        row = suites._bounded("row", {"worst_a": (1e-12, 0.0, 2e-12), "worst_b": (1.0, 0.5)})
        assert (row.outcome, row.evidence) == ("fails", {"worst_a": 2e-12, "worst_b": 0.5})

    @pytest.mark.parametrize("ok", [False, np.False_])
    def test_ok_false_fails_the_row_within_tolerance(self, ok):
        row = suites._bounded("row", {"worst_a": (1e-12, 0.0)}, ok=ok, computed=2)
        assert (row.outcome, row.evidence) == ("fails", {"worst_a": 0.0, "computed": 2})


class TestBlasThreads:
    """The exact reports do not depend on the BLAS thread count.

    The solver's pseudo-inverse stacks span the whole horizon, one per block
    size, so the largest ones are where a threaded BLAS could round apart.
    """

    @pytest.mark.parametrize("config", ["space_a_full", "large_tree"])
    def test_one_and_two_threads_write_the_same_bytes(self, tmp_path, config):
        if config == "large_tree":
            # the benchmark's 256-atom tree, inline, running the five fixture suites
            doc = perfbench_workloads().generate("exact_large_tree", 11, CONFIG_DIR.parents[2])[0].config
        else:
            doc = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "filtration_lab", "run", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


#: the rows of ``space_a_full.json`` that fail when every block average is off by eps times its
#: largest |value|, for eps = 1e-11 and 1e-10; a looser EXACT_TOL (1e-6) or ATOMWISE_TOL (1e-9)
#: lets some of them pass
BIASED_AVERAGE_FAILURES = (
    "jump_measure_compensator::uniform_fixture_densities",
    "jump_measure_compensator::three_atom_densities",
    "wrp_representation::three_atom_solution_avoids_dead_mark",
    "triple_representation::stopped_representation",
    "completeness_random_spaces::dense_by_zero_residuals",
    "independent_enlargement::orthogonal_basis_represents",
    "independent_enlargement::change_of_basis_identities",
    "azema_compensator::survival_process_consistent",
    "azema_compensator::independent_uniform_profile",
    "azema_compensator::announced_time_is_its_own_compensator",
    "orthogonality_toolkit::common_predictable_jump_quantified",
    "orthogonality_toolkit::self_bracket_compensates_to_compensator",
)


class TestFaultRows:
    """A fault in the exact engine's block average fails a pinned set of the bundled config's rows."""

    @pytest.mark.parametrize("eps", [1e-11, 1e-10])
    def test_a_biased_block_average_fails_the_pinned_rows(self, tmp_path, monkeypatch, eps):
        real = finite_space.conditional_expectation

        def biased(space, values, partition):
            out = real(space, values, partition)
            return out + eps * np.max(np.abs(out), initial=0.0)

        monkeypatch.setattr(finite_space, "conditional_expectation", biased)
        out = tmp_path / "r.json"
        assert main(["run", str(CONFIG_DIR / "space_a_full.json"), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failed = tuple(f"{c['suite']}::{c['name']}" for c in report["checks"] if not c["passed"])
        assert failed == BIASED_AVERAGE_FAILURES
        assert report["summary"] == {"checks": 47, "passed": 35, "failed": 12}


class TestProcessStore:
    """``SuiteContext.processes``: each bundle's jump measure, compensator and fundamental
    martingales, built once per run and dropped with the run's context."""

    PRIMITIVES = ("jump_measure", "compensator_measure", "fundamental_martingales")

    def test_a_run_builds_each_process_of_a_bundle_at_most_once(self, monkeypatch):
        calls = {name: [] for name in self.PRIMITIVES}
        for name in self.PRIMITIVES:
            real = getattr(suites, name)

            def recorded(*args, real=real, seen=calls[name]):
                seen.append(args)  # keeps the arguments alive, so no id is reused
                return real(*args)

            monkeypatch.setattr(suites, name, recorded)
        run_config(json.loads((CONFIG_DIR / "space_a_full.json").read_text()))
        for name, seen in calls.items():
            keys = [tuple(map(id, args)) for args in seen]
            assert keys and len(set(keys)) == len(keys), name
        # one measure per bundle read, and each compensated once
        assert len(calls["compensator_measure"]) == len(calls["jump_measure"])

    def test_a_clean_run_after_a_faulty_one_writes_a_fresh_process_bytes(self, tmp_path, monkeypatch):
        config = str(CONFIG_DIR / "space_a_full.json")
        fresh = tmp_path / "fresh.json"
        proc = _flab("run", config, "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        real = finite_space.conditional_expectation

        def biased(space, values, partition):
            out = real(space, values, partition)
            return out + 1e-10 * np.max(np.abs(out), initial=0.0)

        monkeypatch.setattr(finite_space, "conditional_expectation", biased)
        assert main(["run", config, "--out", str(tmp_path / "faulty.json")]) == 1
        monkeypatch.undo()
        clean = tmp_path / "clean.json"
        assert main(["run", config, "--out", str(clean)]) == 0
        assert clean.read_bytes() == fresh.read_bytes()

    def test_drawn_unions_of_one_name_each_get_their_own_processes(self):
        drawn = [b for b, *_ in fixtures.random_pair_unions(np.random.default_rng(3), 50)]
        assert len(drawn) >= 2 and {b.name for b in drawn} == {"random_pairs"}
        ctx = SuiteContext(seed=3)
        for b in drawn:
            p = ctx.processes(b)
            assert p.bundle is b and ctx.processes(b) is p
            assert p.mu.filtration is p.nu.filtration is b.g
            assert np.array_equal(p.mu.increments, suites.jump_measure(b.X, b.H).increments)
            assert all(z.filtration is b.g for z in p.zs)
        # a run's suite reads its own unions' processes, each under its own bundle
        ctx = SuiteContext(seed=11)
        (row,) = suites.suite_completeness(ctx)
        assert row.outcome == "holds"
        unions = [p for p in ctx._processes.values() if p.bundle.name == "random_pairs"]
        assert len(unions) >= 2 and all(p.zs[0].filtration is p.bundle.g for p in unions)
        assert SuiteContext(seed=11)._processes == {}
