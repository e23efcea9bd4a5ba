"""Outside-in layer tracer for filtration_lab.

``Tracer.install`` wraps the public functions of each layer (one layer per
``filtration_lab`` module) plus the ``PathSet`` reductions and the
``suites.REGISTRY`` entries of an imported filtration_lab; ``uninstall`` puts
the originals back.  run.py does this around one pass in its own process and
writes the spans out after it.

The program itself is not modified: a wrapper replaces the function object in
every ``filtration_lab.*`` namespace that holds it, so calls made through
``from .x import f`` bindings are seen too.  Counts of work and waste are
taken from call arguments and return values only.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: layer -> wrapped public functions; None wraps every public function of the module
LAYERS = {
    "representation": (
        "solve_prp",
        "solve_wrp",
        "solve_triple",
        "solve_in_basis",
        "independent_decomposition",
    ),
    "finite_space": ("conditional_expectation", "is_predictable", "is_adapted"),
    "calculus": ("dual_projection", "compensator", "is_martingale", "stochastic_integral"),
    "jump_measure": ("jump_measure", "compensator_measure", "fundamental_martingales", "integrate"),
    "enlargement": ("natural_filtration", "join", "build_bundle"),
    "serialize": ("bundle_from_doc",),
    "random_time": None,
    "fixtures": None,
    "montecarlo": ("simulate_path_set",),
    "cli": ("report_to_json",),
}
PATHSET_METHODS = ("counts_at", "window_hits", "first_events", "second_events")
SOLVERS = LAYERS["representation"]

#: every suite the bundled configs run, in registry order
SUITES = (
    "prp_base_filtration",
    "three_point_processes",
    "jump_measure_compensator",
    "filtration_identities",
    "wrp_representation",
    "triple_representation",
    "completeness_random_spaces",
    "independent_enlargement",
    "multiplicity_certificates",
    "azema_compensator",
    "avoidance_discrete",
    "random_time_orthogonality",
    "orthogonality_toolkit",
    "counterexample_a2",
    "mc_poisson_compensator",
    "mc_compensator_second_moment",
    "mc_azema_exponential",
    "mc_avoidance",
    "mc_predictable_jump",
    "mc_negative_controls",
)


class Tracer:
    """Spans kept in memory, each with its parent span, plus work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # seconds; a caller may leave out time it spends itself
        self.spans: list = []  # [name, parent span or None, start, end]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._simulated: dict = {}  # (lam, t_real, seed) -> path-index prefix simulated
        self._replaced: list = []  # (namespace, attribute, original), in install order

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, stack[-1] if stack else None, self.clock(), 0.0]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                stack.pop()
            if count is not None:
                with self._lock:
                    count(self, args, kwargs, result)
            return result

        return traced

    # counters --------------------------------------------------------------

    def _count_solve(self, args, kwargs, solution) -> None:
        filtration = solution.reconstruction.filtration
        self.counts["representation.nodes_solved"] += sum(
            filtration.at(t).n_blocks for t in range(filtration.horizon)
        )

    def _count_blocks(self, args, kwargs, result) -> None:
        partition = kwargs["partition"] if "partition" in kwargs else args[2]
        self.counts["finite_space.conditional_expectation.blocks"] += partition.n_blocks

    def _count_paths(self, args, kwargs, paths) -> None:
        key = (paths.lam, paths.t_real, paths.seed)
        done = self._simulated.get(key, 0)
        self.counts["montecarlo.paths"] += paths.n_paths
        self.counts["montecarlo.events"] += sum(int(e.size) for e in paths.events)
        self.counts["montecarlo.duplicate_paths"] += min(done, paths.n_paths)
        self._simulated[key] = max(done, paths.n_paths)

    # installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of an already imported filtration_lab."""
        package = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "filtration_lab" or name.startswith("filtration_lab.")
        ]
        counters = {
            **{f"representation.{s}": Tracer._count_solve for s in SOLVERS},
            "finite_space.conditional_expectation": Tracer._count_blocks,
            "montecarlo.simulate_path_set": Tracer._count_paths,
        }
        for layer, names in LAYERS.items():
            # `filtration_lab.jump_measure` is the re-exported function, so go
            # through sys.modules rather than attribute access
            mod = sys.modules[f"filtration_lab.{layer}"]
            if names is None:
                names = public_functions(mod)
            for fname in names:
                original = getattr(mod, fname)
                name = f"{layer}.{fname}"
                wrapped = self.wrap(name, original, counters.get(name))
                for namespace in package:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._replace(namespace, attr, wrapped)

        path_set = sys.modules["filtration_lab.montecarlo"].PathSet
        for method in PATHSET_METHODS:
            self._replace(path_set, method, self.wrap(f"montecarlo.PathSet.{method}", vars(path_set)[method]))

        registry = sys.modules["filtration_lab.suites"].REGISTRY
        self._registry = (registry, dict(registry))
        for name, spec in list(registry.items()):
            registry[name] = dataclasses.replace(spec, fn=self.wrap(f"suites.{name}", spec.fn))

    def uninstall(self) -> None:
        """Put back every function and registry entry that install() replaced."""
        for namespace, attr, original in reversed(self._replaced):
            setattr(namespace, attr, original)
        self._replaced.clear()
        registry, originals = self._registry
        registry.update(originals)

    def _replace(self, namespace, attr: str, value) -> None:
        self._replaced.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def document(self) -> dict:
        """Spans as [name, parent index or -1, start, end], plus the counts."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, -1 if parent is None else index[id(parent)], start, end]
            for name, parent, start, end in self.spans
        ]
        return {"spans": rows, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(), fh)


def public_functions(mod) -> tuple:
    return tuple(
        name
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    )


def summarise(docs: list) -> dict:
    """Per-function calls, total and self seconds, and counts, over span files.

    Self time is a span's duration minus the time its child spans cover.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _parent, start, end) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        counts.update(doc["counts"])
    return {"calls": calls, "total_s": total, "self_s": self_s, "counts": counts}


def layer_metrics(summary: dict, speed: float = 1.0) -> dict:
    """The benchmark's named per-layer metrics (0 where a layer is not reached).

    Seconds are multiplied by ``speed``, which turns them into reference
    seconds (see calib.py).
    """
    calls, counts = summary["calls"], summary["counts"]
    total = Counter({k: v * speed for k, v in summary["total_s"].items()})
    self_s = Counter({k: v * speed for k, v in summary["self_s"].items()})
    out = {
        "representation.solves": (sum(calls[f"representation.{s}"] for s in SOLVERS), "count"),
        "representation.nodes_solved": (counts["representation.nodes_solved"], "count"),
        "representation.solve.self_s": (sum(self_s[f"representation.{s}"] for s in SOLVERS), "s"),
    }
    for layer in ("finite_space", "calculus", "jump_measure", "enlargement"):
        for fname in LAYERS[layer]:
            out[f"{layer}.{fname}.calls"] = (calls[f"{layer}.{fname}"], "count")
            out[f"{layer}.{fname}.self_s"] = (self_s[f"{layer}.{fname}"], "s")
    out["finite_space.conditional_expectation.blocks"] = (
        counts["finite_space.conditional_expectation.blocks"],
        "count",
    )
    out["serialize.bundle_from_doc.self_s"] = (self_s["serialize.bundle_from_doc"], "s")
    for layer in ("random_time", "fixtures"):
        out[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")),
            "s",
        )
    out["montecarlo.simulate_path_set.calls"] = (calls["montecarlo.simulate_path_set"], "count")
    out["montecarlo.simulate_path_set.self_s"] = (self_s["montecarlo.simulate_path_set"], "s")
    out["montecarlo.simulate_path_set.paths"] = (counts["montecarlo.paths"], "count")
    out["montecarlo.simulate_path_set.events"] = (counts["montecarlo.events"], "count")
    out["montecarlo.duplicate_paths"] = (counts["montecarlo.duplicate_paths"], "count")
    paths = counts["montecarlo.paths"]
    out["montecarlo.duplicate_path_frac"] = (
        counts["montecarlo.duplicate_paths"] / paths if paths else 0.0,
        "ratio",
    )
    for method in PATHSET_METHODS:
        out[f"montecarlo.PathSet.{method}.calls"] = (calls[f"montecarlo.PathSet.{method}"], "count")
        out[f"montecarlo.PathSet.{method}.self_s"] = (self_s[f"montecarlo.PathSet.{method}"], "s")
    for suite in SUITES:
        out[f"suites.{suite}.wall_s"] = (total[f"suites.{suite}"], "s")
    out["suites.self_s"] = (sum(self_s[f"suites.{suite}"] for suite in SUITES), "s")
    out["cli.report_to_json.self_s"] = (self_s["cli.report_to_json"], "s")
    return out
