import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from filtration_lab.cli import (
    _resolve_bundle,
    main,
    report_to_csv,
    report_to_json,
    run_config,
    validate_config,
)
from filtration_lab.errors import ConfigInvalid
from filtration_lab import suites
from filtration_lab.suites import REGISTRY, describe_suite, list_suites

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "configs"


def _flab(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "filtration_lab", *args],
        capture_output=True,
        text=True,
        env=full_env,
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

    def test_mc_must_be_an_object(self):
        with pytest.raises(ConfigInvalid):
            validate_config(_small_mc_config(mc=[1, 2]))


#: (how the seed is given, value): each must exit 2 with one stderr line
BAD_SEED = [
    ("config", True),
    ("config", -1),
    ("config", 2.0),
    ("flag", "-3"),
    ("env", "-3"),
]


class TestBadSeed:
    @pytest.mark.parametrize("how,value", BAD_SEED, ids=[f"{h}={v!r}" for h, v in BAD_SEED])
    def test_exit_two_with_one_line(self, tmp_path, capsys, monkeypatch, how, value):
        cfg = {"engine": "exact", "seed": 7, "suites": ["completeness_random_spaces"]}
        args = []
        if how == "config":
            cfg["seed"] = value
        elif how == "flag":
            args = ["--seed", value]
        else:
            monkeypatch.setenv("FLAB_SEED", value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "r.json"), *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: seed") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

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
BAD_CONFIG = [
    ("probs_sum_to_1.1", {"fixture": dict(_INLINE, probs=[0.5, 0.6])}),
    ("jump_of_two", {"fixture": dict(_INLINE, x_values=[[0, 2], [0, 0]])}),
    ("fixture_missing_key", {"fixture": {k: v for k, v in _INLINE.items() if k != "initial"}}),
    ("fixture_ragged_values", {"fixture": dict(_INLINE, x_values=[[0, 1], [0]])}),
    ("fixture_atom_out_of_range", {"fixture": dict(_INLINE, initial=[[0, 5]])}),
    ("unknown_fixture_name", {"fixture": "nope"}),
    ("tolerance_not_a_number", {"tolerances": {"exact": "abc"}}),
    ("tolerances_a_list", {"tolerances": []}),
    ("tolerance_negative", {"tolerances": {"atomwise": -1e-12}}),
    ("tolerance_unknown_key", {"tolerances": {"exactly": 1e-9}}),
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

    @pytest.mark.parametrize("name", ["space_a", "fixture_a2", "staggered", "large_tree"])
    def test_inline_bundle_always_runs(self, name):
        cfg = {"engine": "exact", "fixture": dict(_INLINE, name=name), "suites": ["three_point_processes"]}
        bundle = _resolve_bundle(cfg)
        assert bundle.name == "inline"
        assert suites._rep_fixtures(suites.SuiteContext(seed=0, bundle=bundle))[0] is bundle
        report = run_config(cfg)
        assert report["config"]["fixture"]["name"] == name
        assert report["summary"]["failed"] == 0

    def test_valid_tolerances_are_accepted(self):
        cfg = json.loads((CONFIG_DIR / "counterexample_a2.json").read_text())
        cfg["tolerances"] = {"exact": 1, "atomwise": 1e-3}
        validate_config(cfg)
        assert run_config(cfg)["summary"]["failed"] == 0


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

    def test_env_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_mc_config()))
        out = tmp_path / "report.json"
        proc = _flab("run", str(cfg_path), "--out", str(out), env={"FLAB_SEED": "999"})
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
