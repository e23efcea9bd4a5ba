"""Every package module reads each name it imports and imports only at module
level, only ``finite_space`` calls the two block primitives and reads a
partition's block views, only ``serialize`` builds a partition from explicit
blocks, every defaulted parameter of a package function is passed by some call
in the program, and every gap is reduced by ``finite_space``'s two reductions.

``__init__.py`` is left out of the unused-import scan: its imports are the
package's exports.  The block primitives (``conditional_expectation``, and
the constancy test, which the scan knows as ``_block_violation``) are applied
by ``finite_space``'s two slice operators to a filtration's cell union, every
time slice at once, so a call of either written anywhere else is flagged.  A
partition keeps one block table per space, its size groups: every block walk
outside ``finite_space`` reads them, ``block_of`` or ``labels``, never the
per-block views ``blocks`` and ``_first_atom``.  A partition's one stored form
is its label vector: the package builds every partition from labels
(``from_labels``, ``trivial``, ``discrete``), and the validating blocks
constructor ``Partition(blocks, n_atoms)`` is kept for the blocks a bundle
document brings in.  The parameter scan reads the calls in ``src/`` and
``perfbench/``, not in the tests: a default that only a test ever overrides is
a setting the program never uses.  A gap is reduced over atoms by
``positive_sup`` and over fixtures, targets, marks or blocks by ``max_gap``: a
running ``x = max(x, gap)`` drops a NaN gap, and ``np.abs(gap).max()``, whole
or along an axis, also reads the null atoms, so both are flagged; a stack of
gaps is reduced entry by entry by ``positive_sups``.  A row's ``worst_*``
value is built by ``suites._bounded``, so no call in ``suites`` passes a
``worst_*`` keyword.  The stacked exact kernels sum along time with
``finite_space.running_sums``, which adds as ``np.cumsum`` does, one time
slice at a time, so no ``cumsum`` call is left in them.  The suites draw their
random pairs and random times as power-of-four unions, one per horizon, so
``suites`` calls neither lone random builder.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filtration_lab"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
CALLERS = ALL_MODULES + sorted((ROOT / "perfbench").rglob("*.py"))
#: called only inside finite_space, whose slice operators walk them over time
BLOCK_PRIMITIVES = ("conditional_expectation", "_block_violation")
NOT_FINITE_SPACE = [p for p in ALL_MODULES if p.name != "finite_space.py"]
#: a partition's per-block views, read only inside finite_space
BLOCK_VIEWS = ("blocks", "_first_atom")

#: the modules whose kernels sum along time with ``running_sums``
RUNNING_SUM_MODULES = [PACKAGE / f"{name}.py" for name in ("calculus", "jump_measure", "representation", "random_time")]

#: builders of one random fixture, the tests' oracles; the suites draw through ``fixtures.random_pair_unions`` instead
LONE_RANDOM_BUILDERS = {"random_bundle", "random_random_time_bundle"}

#: (function, parameter) -> why it keeps a default no program call overrides
UNPASSED_ALLOWED = {
    # test_jump_measure sweeps the size of the random pairs the suites draw
    ("fixtures.random_pair_draw", "max_atoms"): "tests sweep it",
    ("fixtures.random_pair_draw", "max_horizon"): "tests sweep it",
}


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def function_imports(source: str) -> list:
    """(line, statement) of every import statement inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def primitive_calls(source: str) -> list:
    """(line, name) of every call to a block primitive, by plain name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in BLOCK_PRIMITIVES:
                found.append((node.lineno, name))
    return sorted(found)


def block_view_reads(source: str) -> list:
    """(line, attribute) of every read of a partition's per-block view, such as ``p.blocks``."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in BLOCK_VIEWS
    )


def partition_constructor_calls(source: str) -> list:
    """Line of every call of the blocks constructor ``Partition(...)``, by plain name or attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Partition"
    )


def running_maxima(source: str) -> list:
    """(line, name) of every ``name = max(name, ...)`` with the builtin ``max``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "max"
        ):
            name = node.targets[0].id
            if any(isinstance(a, ast.Name) and a.id == name for a in node.value.args):
                found.append((node.lineno, name))
    return sorted(found)


def abs_max_calls(source: str) -> list:
    """Line of every ``.max(...)``, whole or along an axis, taken of an ``abs(...)`` or ``np.abs(...)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "max"
            and isinstance(node.func.value, ast.Call)
        ):
            inner = node.func.value.func
            if (getattr(inner, "id", None) or getattr(inner, "attr", None)) == "abs":
                found.append(node.lineno)
    return sorted(found)


def worst_keywords(source: str) -> list:
    """(line, keyword) of every call that passes a keyword argument named ``worst_*``."""
    return sorted(
        (node.lineno, kw.arg)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg is not None and kw.arg.startswith("worst_")
    )


def named_calls(source: str, names) -> list:
    """Line of every call to one of ``names``, as a function (``np.cumsum(x)``) or a method (``x.cumsum()``)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names
    )


def _defaulted(fn: ast.FunctionDef, method: bool) -> tuple:
    """(positional parameter names, defaulted parameter names) of ``fn``.

    A method's first parameter (self or cls) is bound by the call's receiver,
    so it is not among the positional names a call's arguments fill.
    """
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def unpassed_parameters(package: dict, callers: list) -> list:
    """Defaulted parameters of the module-level functions and methods in ``package``
    (module name -> source) that no call in ``callers`` (sources) passes.

    Calls are matched to functions by name alone (a class's ``__init__`` by the
    class name), so a call to any function of that name counts; a call with
    ``*args`` passes every positional parameter and one with ``**kwargs`` every
    parameter.  Entries are ("module.function", parameter), sorted.
    """
    functions = {}  # callee name -> [(qualified name, positional, defaulted)]
    for module, source in package.items():
        for node in ast.parse(source).body:
            found = [(node.name, node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                found = [
                    (node.name if fn.name == "__init__" else fn.name, fn, True)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            for callee, fn, method in found:
                positional, defaulted = _defaulted(fn, method)
                if defaulted:
                    qualified = f"{module}.{node.name}" + (f".{fn.name}" if method else "")
                    functions.setdefault(callee, []).append((qualified, positional, defaulted))

    passed = set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for qualified, positional, defaulted in functions.get(callee, ()):
                if any(isinstance(a, ast.Starred) for a in call.args):
                    names = set(positional)
                else:
                    names = set(positional[: len(call.args)])
                names |= {k.arg for k in call.keywords}
                if any(k.arg is None for k in call.keywords):
                    names |= set(defaulted)
                passed |= {(qualified, name) for name in names}

    return sorted(
        (qualified, name)
        for entries in functions.values()
        for qualified, _, defaulted in entries
        for name in defaulted
        if (qualified, name) not in passed
    )


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b as c, d\n"
        "print(sys, d.x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_import_in_a_function():
    source = (
        "import os\n"
        "def f():\n"
        "    from .x import y\n"
        "    def g():\n"
        "        import sys\n"
        "class K:\n"
        "    def m(self):\n"
        "        import json as j\n"
    )
    assert function_imports(source) == [(3, "from .x import y"), (5, "import sys"), (8, "import json as j")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_imports_at_module_level_only(path):
    assert function_imports(path.read_text()) == []


def test_the_scan_finds_a_block_primitive_call():
    source = (
        "from .finite_space import conditional_expectation\n"
        "def f(space, v, p):\n"
        "    for t in range(3):\n"
        "        conditional_expectation(space, v, p)\n"
        "    return finite_space._block_violation(v, p), _block_violation\n"
    )
    assert primitive_calls(source) == [(4, "conditional_expectation"), (5, "_block_violation")]


@pytest.mark.parametrize("path", NOT_FINITE_SPACE, ids=[p.name for p in NOT_FINITE_SPACE])
def test_only_finite_space_calls_the_block_primitives(path):
    assert primitive_calls(path.read_text()) == []


def test_the_scan_finds_a_block_view_read():
    source = (
        "for atoms in p.blocks:\n"
        "    first = filtration.at(t).blocks[0], p._first_atom\n"
        "groups = p.size_groups(space), p.block_of, p.labels, p.n_blocks\n"
        "blocks = [b for b in q.blocks_of]\n"
    )
    assert block_view_reads(source) == [(1, "blocks"), (2, "_first_atom"), (2, "blocks")]


@pytest.mark.parametrize("path", NOT_FINITE_SPACE, ids=[p.name for p in NOT_FINITE_SPACE])
def test_only_finite_space_reads_the_block_views(path):
    assert block_view_reads(path.read_text()) == []


def test_the_scan_finds_a_partition_constructor_call():
    source = (
        "p = Partition(((0, 1),), 2)\n"
        "q = finite_space.Partition(blocks, n)\n"
        "r = Partition.from_labels([0, 1])\n"
        "s = (Partition.trivial(2), Partition.discrete(2), Partition)\n"
    )
    assert partition_constructor_calls(source) == [1, 2]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_only_serialize_builds_a_partition_from_blocks(path):
    calls = partition_constructor_calls(path.read_text())
    assert (calls != []) == (path.name == "serialize.py"), calls


def test_the_scan_finds_a_running_max():
    source = (
        "worst = 0.0\n"
        "for g in gaps:\n"
        "    worst = max(worst, g)\n"
        "    best = max(g, 1.0, best)\n"
        "    worst = max(other, g)\n"
        "    worst = np.max(worst, g)\n"
        "    self.worst = max(self.worst, g)\n"
    )
    assert running_maxima(source) == [(3, "worst"), (4, "best")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_running_max(path):
    assert running_maxima(path.read_text()) == []


def test_the_scan_finds_an_abs_max():
    source = (
        "a = float(np.abs(x - y).max())\n"
        "b = abs(x).max()\n"
        "c = np.abs(x).max(axis=0)\n"
        "d = np.abs(x - y).max(axis=-1)[:, pos].max(axis=1)\n"
        "e = np.abs(x).max(1)\n"
        "f = np.abs(x).min()\n"
        "g = positive_sup(space, x)\n"
        "h = positive_sups(space, x - y)\n"
    )
    assert abs_max_calls(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", NOT_FINITE_SPACE, ids=[p.name for p in NOT_FINITE_SPACE])
def test_only_finite_space_takes_an_abs_max(path):
    assert abs_max_calls(path.read_text()) == []


def test_the_scan_finds_a_worst_keyword():
    source = (
        "_check('a', w <= tol, worst_gap=w)\n"
        "_check('b', ok,\n"
        "       worst_residual=r, solves=3)\n"
        "_bounded('c', {'worst_gap': (tol, w)}, spaces=2)\n"
        "f(**{'worst_gap': w}, worst=w, best_worst=w)\n"
    )
    assert worst_keywords(source) == [(1, "worst_gap"), (2, "worst_residual")]


def test_every_worst_value_is_built_by_the_row_builder():
    assert worst_keywords((PACKAGE / "suites.py").read_text()) == []


def test_the_scan_finds_a_cumsum():
    source = (
        "a = np.cumsum(x, axis=-1)\n"
        "b = x.cumsum(axis=1)\n"
        "c = numpy.cumsum(\n"
        "    x, out=y)\n"
        "d = running_sums(x), np.add.accumulate(x), cumsum\n"
    )
    assert named_calls(source, {"cumsum"}) == [1, 2, 3]


@pytest.mark.parametrize("path", RUNNING_SUM_MODULES, ids=[p.name for p in RUNNING_SUM_MODULES])
def test_the_stacked_kernels_sum_along_time_with_running_sums(path):
    assert named_calls(path.read_text(), {"cumsum"}) == []


def test_the_suites_draw_random_fixtures_as_unions():
    # the lone builders stay as the tests' oracles; the suites check their draws one union per horizon
    assert named_calls((PACKAGE / "suites.py").read_text(), LONE_RANDOM_BUILDERS) == []


def test_the_scan_finds_an_unpassed_parameter():
    package = {
        "m": (
            "def f(a, b=1, c=2, *, d=3, e=4):\n"
            "    def inner(z=0):\n"
            "        pass\n"
            "def g(a, b=1):\n"
            "    pass\n"
            "def h(x=1, y=2):\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self, y=1):\n"
            "        pass\n"
            "    def m(self, x=0, w=1):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def s(v=0):\n"
            "        pass\n"
        )
    }
    callers = [
        "f(1, 2)\n"
        "f(1, d=4)\n"
        "g(*xs)\n"
        "h(**opts)\n"
        "K(y=2).m(5)\n"
        "K.s(1)\n"
    ]
    assert unpassed_parameters(package, callers) == [("m.K.m", "w"), ("m.f", "c"), ("m.f", "e")]


def test_every_defaulted_parameter_is_passed():
    package = {p.stem: p.read_text() for p in MODULES}
    unpassed = unpassed_parameters(package, [p.read_text() for p in CALLERS])
    assert [u for u in unpassed if u not in UNPASSED_ALLOWED] == []
    # an allowlist entry the program starts to pass is no longer needed
    assert sorted(UNPASSED_ALLOWED) == [u for u in unpassed if u in UNPASSED_ALLOWED]
