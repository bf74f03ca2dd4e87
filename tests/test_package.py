import ast
import os
from math import inf
import subprocess
import sys
from pathlib import Path

import pytest

import stablesq

MODULES = sorted(p for p in Path(stablesq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_layers_load_without_suites_gram_or_cli():
    # the package root imports nothing, so a layer loads only what it uses
    env = dict(os.environ, PYTHONPATH=str(Path(stablesq.__file__).parents[1]))
    code = (
        "import sys, stablesq.qlinalg, stablesq.search, stablesq.subspace, stablesq.tables; "
        "print(*sorted(m for m in sys.modules if m.startswith('stablesq')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    loaded = set(out.stdout.decode().split())
    assert "stablesq.qlinalg" in loaded
    assert loaded.isdisjoint({"stablesq.suites", "stablesq.gram", "stablesq.cli"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # an import left behind by a removed use reads as a live dependency
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_private_definition_is_used():
    # a private helper whose last caller was removed reads as live code
    paths = Path(stablesq.__file__).parent.glob("*.py")
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used) == []


# test oracles: the slow paths that tests check a library kernel against
ORACLES = {"reduce", "macaulay_value"}


def test_every_public_definition_is_reached():
    # a public function, class or constant that no module, command, suite
    # or benchmark workload names is kept alive only by its tests
    tops = [top for path in MODULES for top in ast.parse(path.read_text()).body]
    reads = [named(top) for top in tops]
    # the benchmark's harness and workloads, not its own tests
    bench = Path(stablesq.__file__).parents[2] / "perfbench"
    harness = [path for path in bench.glob("*.py") if not path.name.startswith("test_")]
    reads += [named(ast.parse(path.read_text())) for path in harness]
    unreached = []
    for i, top in enumerate(tops):
        if isinstance(top, ast.Assign):
            names = {t.id for t in top.targets if isinstance(t, ast.Name)}
        elif not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        elif any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_check"
                 for dec in top.decorator_list):
            continue  # a check that @_check registers runs in its suite
        else:
            names = {top.name}
        names = {name for name in names if not name.startswith("_")} - ORACLES
        # every name read in src/ and perfbench/ outside this definition
        used = set().union(*reads[:i], *reads[i + 1 :])
        unreached += sorted(names - used)
    assert unreached == []


def named(tree):
    """Every name a tree reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


# defaulted parameters that no call in src/ or perfbench/ names, and why
# they stay: each is set through a name the scan cannot follow
UNSET_BY_DESIGN = {
    ("main", "argv"),  # the entry point: None reads sys.argv
    ("verify_table", "map"),  # bound with partial, then called as `run(map=...)`
    ("compute_m0_monomial", "budget"),  # called as `compute(..., budget=...)`
}


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that every caller leaves alone is an option that nothing
    # uses: the parameter can go, and its value become the code
    defaulted = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defaulted += defaults(top, method=False)
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in node.decorator_list)
                        defaulted += defaults(node, method=not static)
    bench = Path(stablesq.__file__).parents[2] / "perfbench"
    harness = [path for path in bench.glob("*.py") if not path.name.startswith("test_")]
    trees = [ast.parse(path.read_text()) for path in [*MODULES, *harness]]
    calls = [call for tree in trees for call in calls_of(tree)]
    unset = sorted(
        (name, param)
        for name, index, param in defaulted
        if not any(f == name and (positional > index or keywords is None or param in keywords)
                   for f, positional, keywords in calls)
    )
    assert set(unset) == UNSET_BY_DESIGN


def defaults(node: ast.FunctionDef, method: bool) -> list[tuple[str, int, str]]:
    """(function, positional index, parameter) of each defaulted parameter
    of a public function; a method's index does not count self."""
    if node.name.startswith("_"):
        return []
    args = node.args
    positional = [*args.posonlyargs, *args.args][int(method):]
    first = len(positional) - len(args.defaults)
    out = [(node.name, i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [
        (node.name, len(positional), a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def calls_of(tree) -> list[tuple[str, float, set | None]]:
    """(name, positional arguments, keywords) of every call in a tree, and
    of every function passed as a positional argument of a call, such as
    `partial(f, ...)` or `call(f, ...)`, with the arguments after it.  A
    starred argument covers every position from it on; ** covers every
    keyword, and stands as None."""

    def name(expr):
        return getattr(expr, "id", None) or getattr(expr, "attr", None)

    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = {k.arg for k in node.keywords}
        if None in keywords:
            keywords = None
        for i, target in [(-1, node.func), *enumerate(node.args)]:
            rest = node.args[i + 1 :]
            starred = next((j for j, a in enumerate(rest) if isinstance(a, ast.Starred)), None)
            out.append((name(target), len(rest) if starred is None else inf, keywords))
    return out
