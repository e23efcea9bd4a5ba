#!/usr/bin/env python3
"""One-line source mutants, each of which some tier-1 test must notice.

    python3 scripts/mutants.py ROOT [--only ID]

For each mutant of ``MUTANTS`` (or only the one named ``ID``), ROOT's
``src/``, ``tests/`` and ``perfbench/`` (the tests load its workload
generator) and its ``pyproject.toml`` are copied to a temporary tree, the
mutant's one line is replaced there, and its listed tests run with
``pytest -x``; if they all pass, the whole of tier-1 runs.  A mutant is
killed when a run fails, and survives when both pass.  One line is printed
per mutant.  The exit status is 1 if a mutant not in ``KNOWN_SURVIVORS``
survives, 2 if a mutant's old line is not found exactly once (the list is
stale), 0 otherwise.  ROOT itself is never written to.  Not part of tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FS = "src/filtration_lab/finite_space.py"
REP = "src/filtration_lab/representation.py"
MC = "src/filtration_lab/montecarlo.py"
SUITES = "src/filtration_lab/suites.py"
JM = "src/filtration_lab/jump_measure.py"
CALC = "src/filtration_lab/calculus.py"
SER = "src/filtration_lab/serialize.py"
RT = "src/filtration_lab/random_time.py"

#: (id, file, the exact old line, its replacement, the tests to run first)
MUTANTS = (
    ("exact_tol_1e-6", FS, "EXACT_TOL = 1e-9", "EXACT_TOL = 1e-6", ["tests/test_cli.py::TestFaultRows"]),
    ("atomwise_tol_1e-9", FS, "ATOMWISE_TOL = 1e-12", "ATOMWISE_TOL = 1e-9", ["tests/test_cli.py::TestFaultRows"]),
    ("sv_cutoff_1e-6", REP, "SV_CUTOFF = 1e-12", "SV_CUTOFF = 1e-6", ["tests/test_representation.py::TestBatchedKernel"]),
    ("z_gate_doubled", MC, "        abs(z) <= z_max,", "        abs(z) <= 2 * z_max,", ["tests/test_montecarlo.py"]),
    (
        "union_weights_undyadic",
        FS,
        "    scale = [0.0] * lag + [2.0 ** -min(i, k - 1) for i in range(1, k + 1)]",
        "    scale = [0.0] * lag + [2.0 ** -i for i in range(1, k + 1)]",
        ["tests/test_finite_space.py::TestCellUnion"],
    ),
    (
        # sqrt(2^-e) is not exact for odd e, so the union's cell weights round each node's design apart
        "solver_weights_dyadic",
        REP,
        "        sw = np.sqrt(space.probs[nodes // width])",
        "        sw = np.sqrt(cells.probs[nodes])",
        ["tests/test_representation.py::TestBatchedKernel"],
    ),
    (
        # a family of the same shape would then reuse another family's factors
        "factor_key_without_bytes",
        REP,
        "    key = (regs.dtype.str, regs.shape, regs.tobytes(), SV_CUTOFF)",
        "    key = (regs.dtype.str, regs.shape, SV_CUTOFF)",
        ["tests/test_representation.py::TestFactorStore"],
    ),
    (
        "union_first_cell_from_last",
        FS,
        "    heads = order[starts]",
        "    heads = order[starts + sizes - 1]",
        ["tests/test_finite_space.py::TestCellUnion"],
    ),
    (
        # the drawn unions share the name "random_pairs", so each would read the first one's processes
        "process_store_keyed_by_name",
        SUITES,
        "        return self._processes.setdefault(b, BundleProcesses(b))",
        "        return self._processes.setdefault(b.name, BundleProcesses(b))",
        ["tests/test_cli.py::TestProcessStore"],
    ),
    (
        "window_sweep_stops_at_a_path_above_its_bound",
        MC,
        "            if not below.any():",
        "            if not below.all():",
        ["tests/test_montecarlo.py::TestFlatKernels"],
    ),
    (
        # a row that meets a tau exactly is then never read
        "collision_sweep_stops_below_tau",
        MC,
        "        if not (row <= tau).any():",
        "        if not (row < tau).any():",
        ["tests/test_montecarlo.py::TestFlatKernels"],
    ),
    (
        # a NaN on a null atom then reaches the sup
        "stack_sup_reads_null_atoms",
        FS,
        "    return np.abs(values).max(axis=(-2, -1), initial=0.0, where=space.positive[:, None])",
        "    return np.abs(values).max(axis=(-2, -1), initial=0.0, where=True)",
        ["tests/test_calculus.py::TestStackedKernels::test_a_stack_sup_keeps_a_nan_on_a_positive_atom_only"],
    ),
    (
        # a segment of null atoms then reads -1
        "segment_sup_starts_below_zero",
        FS,
        "    per_atom = time_major.max(axis=-2, initial=0.0, where=space.positive)",
        "    per_atom = time_major.max(axis=-2, initial=-1.0, where=space.positive)",
        ["tests/test_calculus.py::TestStackedKernels::test_a_segment_sup_is_the_sup_of_its_atoms"],
    ),
    (
        "atom_sup_without_mask",
        FS,
        "    return float(v.max(initial=0.0, where=space.positive.reshape((-1,) + (1,) * (v.ndim - 1))))",
        "    return float(v.max(initial=0.0))",
        ["tests/test_calculus.py::TestStackedKernels::test_the_three_sups_are_the_oracle_bitwise"],
    ),
    (
        # each integrand read off another atom's node
        "integrands_through_reversed_nodes",
        REP,
        "        return self.coefficients[:, :, self.node_of]",
        "        return self.coefficients[:, :, self.node_of[::-1]]",
        ["tests/test_representation.py::TestBatchedKernel"],
    ),
    (
        "reconstruction_slice_one_early",
        REP,
        "        recons[:, :, t] = recon",
        "        recons[:, :, t - 1] = recon",
        ["tests/test_representation.py::TestSliceReconstruction"],
    ),
    (
        # in the segment of its first child's first atom while a union's segments are contiguous runs; a
        # split twin appended past the filler is not, and the split relation sees the node land in the filler's
        "spanning_segment_by_last_atom",
        REP,
        "        first = nodes[np.arange(len(nodes)), head.argmax(axis=1)] // width",
        "        first = nodes[:, -1] // width",
        ["tests/test_representation.py::TestRelabelInvariance::test_split_fixture_gives_the_same_results"],
    ),
    (
        # the named random times' surrogate verdicts then never reach the row
        "named_random_times_forced_consistent",
        SUITES,
        "            all(ok.all() for study in studies for _, _, ok in study),",
        "            all(ok.all() for study in studies[len(named):] for _, _, ok in study),",
        ["tests/test_random_time.py::TestSurrogateRow"],
    ),
    (
        # nu keeps its bits, but every Z reads the compensator one slice late
        "z_from_shifted_compensator",
        JM,
        "        out = time_increments(comp), counts - comp",
        "        out = time_increments(comp), counts - np.roll(comp, 1, axis=-1)",
        ["tests/test_jump_measure.py::TestOneCompensation"],
    ),
    (
        # (Y, Z) evaluated as (Z, Y): the toolkit is symmetric but for the decomposition gap's rounding
        "toolkit_pair_roles_swapped",
        CALC,
        "    first, second = np.transpose(pairs)",
        "    second, first = np.transpose(pairs)",
        ["tests/test_random_time.py::TestStackedStudy::test_each_pair_keeps_its_roles"],
    ),
    (
        # a child of null atoms only then branches its node
        "spanning_counts_zero_mass_children",
        REP,
        "    positive = np.zeros(children.n_blocks, dtype=bool)",
        "    positive = np.ones(children.n_blocks, dtype=bool)",
        ["tests/test_representation.py::TestSpanningNumbers::test_null_atoms_and_zero_mass_children"],
    ),
    (
        # json cannot write a NumPy bool, so a row with one as evidence raises in report_to_json
        "check_keeps_numpy_bools",
        SER,
        "        if isinstance(v, np.bool_):",
        "        if False:",
        ["tests/test_serialize.py::TestCheckEvidence"],
    ),
    (
        "check_polarity_flipped",
        SER,
        '    return CheckResult(name=name, outcome="holds" if ok else "fails", evidence=ev)',
        '    return CheckResult(name=name, outcome="fails" if ok else "holds", evidence=ev)',
        ["tests/test_montecarlo.py::TestSuites::test_exact_check_semantics"],
    ),
    (
        # an almost-sure statement then passes a Monte Carlo estimate near its value
        "exact_check_within_a_bound",
        MC,
        "        estimate == expected,",
        "        abs(estimate - expected) <= 1e-2,",
        ["tests/test_montecarlo.py::TestSuites::test_exact_check_semantics"],
    ),
    (
        # the compensator's drift then read off P_t, not P_{t-1}
        "dual_projection_lag_0",
        CALC,
        "    return running_sums(slice_expectations(time_increments(values), filtration, 1))",
        "    return running_sums(slice_expectations(time_increments(values), filtration, 0))",
        ["tests/test_calculus.py::TestTwoPassReport"],
    ),
    (
        # H's compensated part then read off X
        "avoidance_stacks_x_twice",
        RT,
        "        xh = np.stack([bundle.X.values, bundle.H.values])",
        "        xh = np.stack([bundle.X.values, bundle.X.values])",
        ["tests/test_random_time.py::TestAvoidance"],
    ),
    (
        # a null atom past its block's segment then breaks that segment's martingale clause
        "toolkit_martingale_flag_reads_null_atoms",
        CALC,
        "        ((np.abs(drifts[3]) <= EXACT_TOL) | ~positive).all(axis=-1),",
        "        (np.abs(drifts[3]) <= EXACT_TOL).all(axis=-1),",
        ["tests/test_representation.py::TestRelabelInvariance"],
    ),
)

#: mutants known to survive, each with the reason it is left
KNOWN_SURVIVORS: dict = {}


def _pytest(tree: Path, args: list) -> bool:
    """True iff ``pytest -x -q`` on ``args`` passes in ``tree``, against its own package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def run_mutant(root: Path, path: str, old: str, new: str, tests: list) -> str:
    """'killed (listed tests)', 'killed (tier-1)' or 'survived', or 'stale' if ``old`` is not one line of ``path``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(root / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", tree)
        lines = (tree / path).read_text(encoding="utf-8").split("\n")
        if lines.count(old) != 1:
            return "stale"
        lines[lines.index(old)] = new
        (tree / path).write_text("\n".join(lines), encoding="utf-8")
        if not _pytest(tree, tests):
            return "killed (listed tests)"
        return "survived" if _pytest(tree, []) else "killed (tier-1)"


def main(argv: list) -> int:
    if len(argv) not in (2, 4) or (len(argv) == 4 and argv[2] != "--only"):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    chosen = [m for m in MUTANTS if len(argv) == 2 or m[0] == argv[3]]
    if not chosen:
        print(f"no mutant {argv[3]!r}; known: {', '.join(m[0] for m in MUTANTS)}", file=sys.stderr)
        return 2
    status = 0
    for ident, path, old, new, tests in chosen:
        result = run_mutant(root, path, old, new, tests)
        note = f"  (known: {KNOWN_SURVIVORS[ident]})" if ident in KNOWN_SURVIVORS else ""
        print(f"{result:<22} {ident}{note}", flush=True)
        if result == "stale":
            status = 2
        elif result == "survived" and ident not in KNOWN_SURVIVORS:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
