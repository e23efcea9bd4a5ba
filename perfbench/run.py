#!/usr/bin/env python3
"""filtration-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  The seed generates the workload's
`flab run` configs (see workloads.py).  One invocation:

1. times ``SETUP_SAMPLES`` fresh processes that import filtration_lab,
   validate the configs and build their fixtures (``setup_s``, median);
2. imports filtration_lab into this process and calls the `flab run` entry
   point (``cli.main``) on every config, one pass after another, until
   ``--seconds`` have elapsed (at least one pass).  ``wall_s`` and ``cpu_s``
   are the medians over passes of one pass's wall and CPU time;
   ``peak_rss_mb`` is this process's peak resident set after the passes.

``--workload all`` runs each workload in a process of its own and prints
their metrics prefixed with the workload's name.

``wall_s``, ``cpu_s`` and the per-layer seconds are reported in reference
seconds (see calib.py): a fixed loop is timed before and after each pass and
every ``PERIOD_S`` seconds during it, and the pass's seconds are scaled by the
host speed averaged over those calibrations.
On the shared 2-vCPU host this was built on, raw times of the same pass moved
by up to a half within a minute as the host's speed stepped.  ``setup_s`` is
not scaled: it is mostly importing NumPy and the program, which the host's
speed steps moved less than the calibration loop, and its raw median held
within 16% over four sets of ten runs taken across one and a half hours.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` one more pass runs under tracer.py and the last line reports the
per-layer metrics instead, plus ``trace.overhead_s``; configs with a
``check_parallel`` are then also rerun, untimed, at that thread count (at most
nproc) and must give the same report bytes.

Correctness gate, applied to every run: exit code 0, at least one report row,
every row passing under its declared polarity, and the same report bytes as
every other run of the same config in this invocation.  ``attempted`` and
``failed`` count report rows; a run that fails the gate counts all of its rows
as failed.  A run record (machine, versions, every raw and scaled sample) and,
when traced, the spans are written under ``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
#: seconds between two calibrations during a timed pass
PERIOD_S = 0.067

#: imports the program, validates each config and builds its fixture; prints
#: the seconds that took.  Interpreter start-up is not counted.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
from filtration_lab import cli
for path in sys.argv[1:]:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    cli.validate_config(config)
    if config["engine"] == "exact":
        cli._resolve_bundle(config)
    else:
        cli._mc_params(config)
print(time.perf_counter() - t0)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def flab_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FLAB_SEED", None)
    return env


def scale(seconds: float, cal_seconds: list) -> float:
    """Measured seconds in reference seconds, given calibrations spread over them.

    The host's speed is taken as inversely proportional to the calibration
    time, and averaged over the calibrations.
    """
    return seconds * calib.CAL_REF_S * statistics.fmean(1.0 / c for c in cal_seconds)


@dataclass
class Gate:
    """Row counts and report digests of every run in one invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def check(self, label: str, key: str, rc: int, report: Path) -> None:
        """Gate one run; ``key`` names the config whose reports must all be equal."""
        try:
            data = report.read_bytes()
            rows = json.loads(data)["checks"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._fail(label, 1, f"no readable report ({exc})")
            return
        bad = [r for r in rows if not (r.get("passed") is True and r.get("outcome") == r.get("expected"))]
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        if rc != 0:
            self._fail(label, len(rows), f"exit code {rc}")
        elif not rows:
            self._fail(label, 1, "report has no rows")
        elif bad:
            names = ", ".join(f"{r.get('suite')}::{r.get('name')}" for r in bad[:5])
            self._fail(label, len(rows), f"{len(bad)} rows fail: {names}")
        elif digest != first:
            self._fail(label, len(rows), f"report digest {digest[:12]} differs from {first[:12]}")
        else:
            self.attempted += len(rows)

    def _fail(self, label: str, rows: int, why: str) -> None:
        self.attempted += max(rows, 1)
        self.failed += max(rows, 1)
        self.problems.append(f"{label}: {why}")


class SpeedSampler:
    """Measures how fast the host runs while a pass runs.

    Calibrates before the pass, every ``PERIOD_S`` seconds during it (from
    SIGALRM, between two bytecodes of the program) and after it.  The time
    the calibrations inside the pass take is kept apart and taken out.
    """

    def __init__(self):
        self.cals = []  # (wall, cpu) seconds of each calibration
        self.spent_wall = self.spent_cpu = 0.0
        self._busy = False

    def _sample(self, *_signal) -> None:
        if self._busy:  # a late tick while calibrating: skip it
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        self.cals.append(calib.calibrate())
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0
        self._busy = False

    def run(self, fn) -> tuple[float, float]:
        """Call ``fn()`` while sampling; returns its raw (wall, cpu) seconds."""
        self.cals.append(calib.calibrate())
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.cals.append(calib.calibrate())
        return wall - self.spent_wall, cpu - self.spent_cpu

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """Raw (wall, cpu) seconds of the pass in reference seconds."""
        return scale(wall, [c[0] for c in self.cals]), scale(cpu, [c[1] for c in self.cals])


def flab_args(config: Path, report: Path, parallel: int = 1) -> list:
    return ["run", str(config), "--out", str(report), "--parallel", str(parallel)]


def measure_setup(configs: list) -> list:
    """Seconds of each set-up sample."""
    cmd = [sys.executable, "-c", SETUP_PROBE, *map(str, configs)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one warms bytecode and file caches
        out = subprocess.run(cmd, cwd=ROOT, env=flab_env(), capture_output=True, text=True, check=True)
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def call_flab(cli, args: list, stderr_path: Path) -> int:
    """Call the `flab` entry point in this process; its stderr goes to a file."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(args)
    stderr_path.write_text(err.getvalue(), encoding="utf-8")
    return rc


def flab_pass(cli, runs, configs, work: Path, gate: Gate, tag: str) -> None:
    """Run every config of the workload once in this process; gate each report."""
    for run, config in zip(runs, configs):
        report = work / f"{run.name}.{tag}.report.json"
        rc = call_flab(cli, flab_args(config, report), work / f"{run.name}.{tag}.stderr")
        gate.check(f"{run.name} ({tag})", run.name, rc, report)


def timed_pass(cli, runs, configs, work: Path, gate: Gate, tag: str) -> dict:
    speed = SpeedSampler()
    raw_wall, raw_cpu = speed.run(lambda: flab_pass(cli, runs, configs, work, gate, tag))
    wall, cpu = speed.scaled(raw_wall, raw_cpu)
    return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu,
            "calibrations": [c[0] for c in speed.cals]}


def traced_pass(cli, runs, configs, work: Path, gate: Gate) -> tuple[tracer.Tracer, float, float]:
    """One pass under the layer tracer, calibrated as a timed pass is.

    The spans' clock stops while a calibration runs, so none lands inside a
    span.  Returns the tracer, the factor that turns its seconds into
    reference seconds and the pass's raw seconds.
    """
    speed = SpeedSampler()
    trace = tracer.Tracer(clock=lambda: time.perf_counter() - speed.spent_wall)
    trace.install()
    try:
        wall, _cpu = speed.run(lambda: flab_pass(cli, runs, configs, work, gate, "traced"))
    finally:
        trace.uninstall()
    return trace, speed.scaled(1.0, 1.0)[0], wall


def records_dir() -> Path:
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    return records


def load_program():
    """Import filtration_lab from this checkout's sources."""
    sys.path.insert(0, str(ROOT / "src"))
    from filtration_lab import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "filtration_lab":
        raise ImportError(f"filtration_lab resolved to {cli.__file__}, not this checkout")
    return cli


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Gate, dict, dict]:
    """Measure one workload; returns the gate, the metrics and the run record."""
    runs = workloads.generate(workload, seed, ROOT)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        configs = workloads.write_configs(runs, work)
        gate = Gate()
        setup = measure_setup(configs)

        cli = load_program()
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(timed_pass(cli, runs, configs, work, gate, f"pass{len(passes)}"))
        wall = statistics.median(p["wall_s"] for p in passes)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if trace:
            for run, config in zip(runs, configs):
                threads = min(run.check_parallel or 1, nproc())
                if threads > 1:  # thread-count invariance, untimed
                    report = work / f"{run.name}.threads.report.json"
                    rc = call_flab(cli, flab_args(config, report, threads), work / f"{run.name}.threads.stderr")
                    gate.check(f"{run.name} (--parallel {threads})", run.name, rc, report)
            spans, speed, elapsed = traced_pass(cli, runs, configs, work, gate)
            spans.dump(records_dir() / f"{workload}-seed{seed}.spans.json")
            metrics = tracer.layer_metrics(tracer.summarise([spans.document()]), speed)
            metrics["trace.overhead_s"] = (elapsed * speed - wall, "s")
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs": [{"name": r.name, "check_parallel": r.check_parallel} for r in runs],
        "setup_samples": setup,
        "passes": passes,
        "report_digests": gate.digests,
        "gate_problems": gate.problems,
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
    }
    with open(records_dir() / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return gate, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "filtration_lab" / "__init__.py").is_file():
        print(f"error: no filtration_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps the process in flight
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args)
    gate, metrics, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload}: nproc {record['nproc']}, python {record['python']}, "
          f"numpy {record['numpy']}, {len(record['passes'])} passes")
    for problem in gate.problems:
        print(f"# {args.workload}: FAILED {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": result}))
    # a failed check is reported through "correct"; the exit code says the benchmark ran
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, so that each has its own peak_rss_mb."""
    attempted = failed = 0
    result = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted, failed = attempted + last["attempted"], failed + last["failed"]
        result.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
