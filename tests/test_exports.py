"""Module exports: every ``__all__`` name exists, every public definition is
listed, every listed name is used by the package or the benchmark, and every
name the benchmark looks up still resolves."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

import jetres

PACKAGE = pathlib.Path(jetres.__file__).parent
MODULES = ["jetres"] + sorted(f"jetres.{p.stem}" for p in PACKAGE.glob("*.py")
                              if p.stem != "__init__")
# the command-line front end is run, not imported, and keeps no export list
LIBRARY = [name for name in MODULES if name != "jetres.cli"]


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    exported = set(module.__all__)
    assert {x for x in exported if not hasattr(module, x)} == set(), "stale names in __all__"
    defined = {
        x
        for x, obj in vars(module).items()
        if not x.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert defined - exported == set(), "public definitions missing from __all__"


ROOT = PACKAGE.parent.parent
# the code that may read a module's exports: the package and the benchmark
# (whose tracer looks names up by string, so quoted names count)
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
ALL_BLOCK = re.compile(r"^__all__ = \[.*?\]", re.M | re.S)


@pytest.mark.parametrize("name", [m for m in LIBRARY if m != "jetres"])
def test_every_export_has_a_user(name):
    # the package's own __init__ only re-exports names and holds __version__
    home = PACKAGE / f"{name.rsplit('.', 1)[1]}.py"
    texts = {path: path.read_text() for path in USERS}
    texts[home] = ALL_BLOCK.sub("", texts[home])
    unused = []
    for x in importlib.import_module(name).__all__:
        word = re.compile(rf"\b{re.escape(x)}\b")
        definition = re.compile(rf"^(?:class |def )?{re.escape(x)}\b", re.M)
        uses = sum(len(word.findall(t)) for t in texts.values())
        if uses - len(definition.findall(texts[home])) < 1:
            unused.append(x)
    assert unused == [], "exported names that no package or benchmark code uses"


def _resolve(modname, path):
    """The object at a dotted attribute path of a module."""
    owner = importlib.import_module(modname)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return getattr(owner, leaf)


def _bench_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = [(modname, path) for modname, path, _ in tracer.SPANS.values()]
    # read by bench/tracer.py and bench/run.py outside SPANS (euler_value
    # reads FixedPoint.tangent)
    return spans + [("jetres.exactalg", "_mul_terms"), ("jetres.tower", "euler_value"),
                    ("jetres.tower", "FixedPoint.tangent"),
                    ("jetres.ggl", "CoefficientTable.a_slice")]


@pytest.mark.parametrize("modname,path", _bench_names(), ids=lambda x: x)
def test_every_name_the_benchmark_reads_resolves(modname, path):
    _resolve(modname, path)


def test_one_residue_kernel():
    # every tower integral over the hypersurface runs hypersurface_integrand,
    # and outside residue.py only through integral_over_tower; the
    # Segre-cleared demailly_integrand is the tests' reference kernel, and
    # its Segre data lives in tests/oracles.py
    calls, defined = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        forbidden = {"demailly_integrand"}
        if path.name != "residue.py":
            forbidden |= {"hypersurface_integrand", "integrate_over_X"}
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) in forbidden:
                    calls.append(where)
            names = [getattr(node, "name", None)] + [getattr(t, "id", None)
                                                     for t in getattr(node, "targets", [])]
            if "segre_hypersurface" in names:
                defined.append(where)
    assert calls == [], "a kernel called past integral_over_tower in the package"
    assert defined == [], "segre_hypersurface defined in the package"


def test_only_exactalg_builds_graded_series():
    # the packed format stays inside exactalg: the other modules get their
    # series from its builders and never construct a Graded themselves
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "exactalg.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Graded"]
    assert calls == [], "a Graded built outside exactalg"


def test_stepwise_engine_shares_no_expansion_code():
    # the stepwise residues check residue_expand, so they run on MultiPoly
    # arithmetic alone and call none of the expansion's packed-series stages
    tree = ast.parse((PACKAGE / "residue.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "residue_stepwise")
    shared = {"_packed", "_graded_dot", "_graded_mul", "_graded_inverse", "_flat",
              "_stage_series", "_mul_terms"}
    calls = [f"{node.func.id}:{node.lineno}" for node in ast.walk(body)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in shared]
    assert calls == [], "residue_stepwise calls the expansion's stages"
