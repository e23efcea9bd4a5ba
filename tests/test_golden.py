"""The exact-engine reports against golden copies.

``golden/space_a_full.json`` and ``golden/counterexample_a2.json`` are the
reports of the bundled configs of the same names, written before the jump
measure, the Monte Carlo suites and the suite anchors were each reduced to
one form.  The report contract: rows, outcomes, keys and every evidence field
not computed from solver output match exactly; the solver-derived fields in
``SOLVER_FIELDS`` may move by up to ``SOLVER_ATOL`` absolute, because a
batched solve need not round like one solve per target.
"""
import json
from pathlib import Path

import pytest

from filtration_lab.cli import report_to_json, run_config

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "src" / "filtration_lab" / "configs"
SOLVER_ATOL = 1e-12

#: (suite, check, evidence key) of every field computed from solver output:
#: residuals, reconstruction gaps, integrand weights, independent-decomposition gaps
SOLVER_FIELDS = {
    ("prp_base_filtration", "identity_integrand", "residual_sup"),
    ("prp_base_filtration", "single_source_solvable", "worst_residual"),
    ("prp_base_filtration", "initially_enlarged_still_solvable", "worst_residual"),
    ("prp_base_filtration", "joint_filtration_single_source_fails", "residual_sup"),
    ("wrp_representation", "every_martingale_represented", "worst_residual"),
    ("wrp_representation", "three_atom_solution_avoids_dead_mark", "residual_sup"),
    ("wrp_representation", "three_atom_solution_avoids_dead_mark", "joint_mark_weight"),
    ("wrp_representation", "constant_target_gets_zero_function", "max_weight"),
    ("triple_representation", "triple_integrals_represent", "worst_residual"),
    ("triple_representation", "triple_matches_measure_form", "worst_gap"),
    ("triple_representation", "picks_out_own_coordinate", "residual_sup"),
    ("triple_representation", "picks_out_own_coordinate", "off_weights"),
    ("triple_representation", "stopped_representation", "worst_residual"),
    ("completeness_random_spaces", "dense_by_zero_residuals", "worst_residual"),
    ("independent_enlargement", "orthogonal_basis_represents", "worst_residual"),
    ("independent_enlargement", "orthogonal_basis_represents", "worst_orthogonality"),
    ("independent_enlargement", "change_of_basis_identities", "worst_identity_gap"),
    ("independent_enlargement", "change_of_basis_identities", "worst_factorisation_gap"),
    ("independent_enlargement", "pythagoras_identity", "worst_gap"),
    ("independent_enlargement", "bracket_picks_third_coordinate", "residual_sup"),
    ("multiplicity_certificates", "spanning_number_single_source", "certificate_residual"),
    ("multiplicity_certificates", "spanning_number_joint_uniform", "certificate_residual"),
    ("multiplicity_certificates", "spanning_number_avoidance_trinomial", "certificate_residual"),
    ("multiplicity_certificates", "spanning_number_staggered", "certificate_residual"),
}


@pytest.mark.parametrize("name", ["space_a_full", "counterexample_a2"])
def test_exact_report_keeps_the_golden_contract(name):
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    report = json.loads(report_to_json(run_config(config)))
    golden = json.loads((HERE / "golden" / f"{name}.json").read_text())
    rows, golden_rows = report.pop("checks"), golden.pop("checks")
    assert report == golden
    assert [(r["suite"], r["name"]) for r in rows] == [(g["suite"], g["name"]) for g in golden_rows]
    for row, gold in zip(rows, golden_rows):
        evidence, golden_evidence = row.pop("evidence"), gold.pop("evidence")
        assert row == gold
        assert list(evidence) == list(golden_evidence)
        for key, value in golden_evidence.items():
            where = (row["suite"], row["name"], key)
            if where in SOLVER_FIELDS:
                assert abs(evidence[key] - value) <= SOLVER_ATOL, where
            else:
                assert evidence[key] == value, where


def test_solver_fields_name_golden_rows():
    golden = json.loads((HERE / "golden" / "space_a_full.json").read_text())
    present = {(r["suite"], r["name"], k) for r in golden["checks"] for k in r["evidence"]}
    assert SOLVER_FIELDS <= present
