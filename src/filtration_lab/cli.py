"""Config-driven batch runner: `flab run <config.json>`, `flab suites`, `flab describe`.

Runs the configured check suites in declared order and writes a consolidated
JSON report (optionally a flat CSV).  Exit code 0 iff every check passed,
1 when a check failed (report still written), 2 for an invalid config; a
suite that raises a package error other than ``ConfigInvalid`` is one failing
``raised`` row.
Reports are byte-identical across reruns for a fixed seed.  `--parallel N` is
kept for Monte Carlo configs and has no effect: path p reads a fixed-width
slice of one stream keyed by the seed, so there is no thread count for a
report to depend on.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import __version__
from .enlargement import build_bundle
from .errors import BadParameter, ConfigInvalid, FiltrationLabError, UnknownSuite
from .fixtures import bundle_by_name
from .montecarlo import path_block
from .serialize import (
    BUNDLE_SCHEMA,
    CONFIG_SCHEMA,
    REPORT_SCHEMA,
    SPACE_SCHEMA,
    CheckResult,
    bundle_from_doc,
    space_from_doc,
)
from .suites import (
    McParams,
    SuiteContext,
    describe_suite,
    get_suite,
    list_suites,
)

_CONFIG_KEYS = {"schema", "engine", "fixture", "seed", "suites", "mc"}
_EXACT_ONLY_KEYS = {"fixture"}
_MC_ONLY_KEYS = {"mc"}


def _normalise_suites(raw, engine: str) -> list[dict]:
    """Each entry as {name, expected_outcome}; ``fails`` only for a suite that honours polarity."""
    if not isinstance(raw, list) or not raw:
        raise ConfigInvalid("config needs a non-empty 'suites' list")
    entries = []
    for item in raw:
        entry = {"name": item} if isinstance(item, str) else item
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ConfigInvalid(f"bad suite entry (needs a string name): {item!r}")
        extra = set(entry) - {"name", "expected_outcome"}
        if extra:
            raise ConfigInvalid(f"unknown suite entry keys: {sorted(extra)}")
        name = entry["name"]
        try:
            spec = get_suite(name)
        except UnknownSuite as exc:
            raise ConfigInvalid(str(exc)) from exc
        if spec.engine != engine:
            raise ConfigInvalid(
                f"suite {name!r} belongs to the {spec.engine} engine, config says {engine}"
            )
        expected = entry.get("expected_outcome", "holds")
        if expected not in ("holds", "fails"):
            raise ConfigInvalid(f"expected_outcome must be holds|fails, got {expected!r}")
        if expected == "fails" and not spec.honours_polarity:
            raise ConfigInvalid(f"suite {name!r} does not honour expected_outcome 'fails'")
        entries.append({"name": name, "expected_outcome": expected})
    return entries


def validate_config(config: dict, parallel: int = 1) -> list[dict]:
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    extra = set(config) - _CONFIG_KEYS
    if extra:
        raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
    if "schema" in config and config["schema"] != CONFIG_SCHEMA:
        raise ConfigInvalid(f"unsupported config schema {config['schema']!r}")
    engine = config.get("engine")
    if engine not in ("exact", "mc"):
        raise ConfigInvalid("engine must be 'exact' or 'mc'")
    entries = _normalise_suites(config.get("suites"), engine)
    if engine == "exact":
        bad = _MC_ONLY_KEYS & set(config)
        if bad:
            raise ConfigInvalid(f"exact-engine config rejects mc-only keys: {sorted(bad)}")
        if parallel > 1:
            raise ConfigInvalid("--parallel applies to mc suites only")
    else:
        bad = _EXACT_ONLY_KEYS & set(config)
        if bad:
            raise ConfigInvalid(f"mc-engine config rejects exact-only keys: {sorted(bad)}")
        _mc_params(config)
    _seed(config.get("seed", 0), "seed")
    return entries


def _seed(value, what: str) -> int:
    """``value`` if it is an integer in [0, 2^64), the Philox key range (a bool is not a seed)."""
    if isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 1 << 64:
        return value
    raise ConfigInvalid(f"{what} must be an integer in [0, 2^64), got {value!r}")


def _resolve_bundle(config: dict):
    """The exact engine's fixture; any error while building it makes the config invalid."""
    fixture = config.get("fixture", "space_a")
    try:
        if isinstance(fixture, str):
            return bundle_by_name(fixture)
        if isinstance(fixture, dict):
            schema = fixture.get("schema")
            # an inline fixture is named "inline", so no canonical fixture's name shadows it
            if schema == BUNDLE_SCHEMA:
                return dataclasses.replace(bundle_from_doc(fixture), name="inline")
            if schema == SPACE_SCHEMA:
                space, processes = space_from_doc(fixture)
                return build_bundle(space, processes["X"], processes["H"], name="inline")
            raise ConfigInvalid(f"inline fixture schema must be {BUNDLE_SCHEMA} or {SPACE_SCHEMA}")
    except ConfigInvalid:
        raise
    except (FiltrationLabError, ValueError, KeyError, TypeError) as exc:
        raise ConfigInvalid(f"fixture: {type(exc).__name__}: {exc}") from exc
    raise ConfigInvalid("fixture must be a name or an inline document")


def _positive_number(value, what: str) -> float:
    """``value`` as a float, if it is a finite number > 0 (a bool is not a number)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if 0.0 < number < math.inf:
            return number
    raise ConfigInvalid(f"{what} must be a finite number > 0, got {value!r}")


def _closed_object(config: dict, key: str, known: set) -> dict:
    """``config[key]`` (default empty): an object with no keys outside ``known``."""
    raw = config.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{key} must be an object")
    extra = set(raw) - known
    if extra:
        raise ConfigInvalid(f"unknown {key} keys: {sorted(extra)}")
    return raw


def _mc_params(config: dict) -> McParams:
    """``McParams`` from the keys the config gives (``lambda`` is ``lam``); the rest are defaults."""
    raw = _closed_object(config, "mc", {"lambda", "mu", "t_real", "n_paths", "z_max", "epsilons"})
    params = {}
    for key, value in raw.items():
        if key == "n_paths":
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigInvalid(f"mc.n_paths must be an integer >= 1, got {value!r}")
        elif key == "epsilons":
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigInvalid(f"mc.epsilons must be a non-empty list, got {value!r}")
            value = tuple(_positive_number(e, "mc.epsilons entry") for e in value)
        else:
            value = _positive_number(value, f"mc.{key}")
        params["lam" if key == "lambda" else key] = value
    mc = McParams(**params)
    try:
        path_block(mc.lam, mc.t_real, mc.simulated_n_paths)
    except BadParameter as exc:
        raise ConfigInvalid(f"mc.lambda, mc.t_real and mc.n_paths cannot be simulated: {exc}") from exc
    return mc


def run_config(config: dict, parallel: int = 1, seed_override: int | None = None) -> dict:
    """Execute the configured suites and return the report document.

    ``parallel`` is only validated (above 1 is rejected for exact configs).
    """
    entries = validate_config(config, parallel)
    engine = config["engine"]
    if seed_override is None:
        seed = config.get("seed", 0)
    else:
        seed = _seed(seed_override, "seed override (--seed)")

    ctx = SuiteContext(
        seed=int(seed),
        bundle=_resolve_bundle(config) if engine == "exact" else None,
        mc=_mc_params(config),
    )

    checks = []
    for entry in entries:
        spec = get_suite(entry["name"])
        # polarity-sensitive suites read this and mark their own rows
        ctx.expected_outcome = entry["expected_outcome"]
        try:
            # a suite that checks nothing fails, whatever its declared polarity
            results = spec.fn(ctx) or [CheckResult("no_rows", "fails", {"rows": 0})]
        except ConfigInvalid:
            raise
        except FiltrationLabError as exc:
            # so does a suite that raises; the other suites still run
            results = [CheckResult("raised", "fails", {"error": type(exc).__name__, "message": str(exc)})]
        for result in results:
            checks.append(
                {
                    "suite": spec.name,
                    "name": result.name,
                    "anchor": spec.anchor,
                    "outcome": result.outcome,
                    "expected": result.expected,
                    "passed": result.passed,
                    "evidence": result.evidence,
                }
            )

    echo = {k: v for k, v in config.items()}
    echo["seed"] = int(seed)
    passed = sum(1 for c in checks if c["passed"])
    report = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "config": echo,
        "checks": checks,
        "summary": {"checks": len(checks), "passed": passed, "failed": len(checks) - passed},
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["suite", "check", "anchor", "outcome", "expected", "passed", "evidence"])
    for c in report["checks"]:
        writer.writerow(
            [
                c["suite"],
                c["name"],
                c["anchor"],
                c["outcome"],
                c["expected"],
                "true" if c["passed"] else "false",
                json.dumps(c["evidence"], sort_keys=True),
            ]
        )
    return buf.getvalue()


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_config(config, parallel=args.parallel, seed_override=args.seed)
    except ConfigInvalid as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(report_to_csv(report))

    failed = report["summary"]["failed"]
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"[{mark}] {c['suite']}::{c['name']} ({c['anchor']})", file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_suites(_args) -> int:
    print(list_suites())
    return 0


def _cmd_describe(args) -> int:
    try:
        print(describe_suite(args.name))
    except UnknownSuite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the suites of a scenario config")
    p_run.add_argument("config", help="path to a config JSON file")
    p_run.add_argument("--out", help="write the JSON report here instead of stdout")
    p_run.add_argument("--csv", help="also write a flat CSV table")
    p_run.add_argument("--parallel", type=int, default=1, metavar="N", help="accepted for mc configs; has no effect")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=_cmd_run)

    p_suites = sub.add_parser("suites", help="list registered check suites")
    p_suites.set_defaults(fn=_cmd_suites)

    p_desc = sub.add_parser("describe", help="describe one suite")
    p_desc.add_argument("name")
    p_desc.set_defaults(fn=_cmd_describe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
