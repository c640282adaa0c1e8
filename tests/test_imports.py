"""Import hygiene of the package, with the standard library only.

Each module of src/szego_lab is parsed with ast.  An import whose bound
name never appears in the module, as a name or in the module's __all__, is
debris a deletion left behind.  Every name that a module's __all__ (and
the package's) exports must resolve.  No module reads the environment.  A
function, method or class that no other package code refers to, that no
__all__ lists and that the README's "API kept on purpose" list does not
name is dead code.  The command line starts on the numpy half alone: a
fresh interpreter that imports szego_lab.cli loads neither mpmath nor the
exact-arithmetic modules, and its corrector commands run with mpmath
refused.  mpmath sits behind one door: only xlinalg.context and
xlinalg._circle_nodes import it, so the exact modules load without it, and
pipeline and log-condition run with it refused too.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "szego_lab"
README = Path(__file__).parents[1] / "README.md"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) for each import whose bound name the module never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return out


def test_the_checker_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, os\n"
              "from dataclasses import dataclass, field\n"
              "__all__ = ['os']\n"
              "@dataclass\nclass A:\n    x: float = math.pi\n")
    assert unused_imports(source) == [(3, "field")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    name = "szego_lab" if module == "__init__" else f"szego_lab.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list:
    """(line, name) for each os.environ or os.getenv a module refers to, as
    an attribute or imported from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in _ENVIRONMENT]
    return sorted(out)


def test_the_checker_sees_an_environment_read():
    source = ("import os\nfrom os import getenv, path\n"
              "x = os.environ.get('A', '1')\ny = os.path.join('a', 'b')\n")
    assert environment_reads(source) == [(2, "getenv"), (3, "environ")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    # every setting is a manifest field or a flag, which the report records;
    # a knob read from the environment would change a run unrecorded
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert environment_reads(source) == []


def imported_modules(source: str) -> set:
    """The top-level and package modules a module imports, by dotted name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


@pytest.mark.parametrize("module", ["circle_fourier", "blaschke"])
def test_the_numpy_layers_import_no_mpmath(module):
    # the corrector half runs in numpy: neither mpmath nor a package module
    # that computes in it, only circle_fourier's polynomials
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert [m for m in sorted(imported_modules(source))
            if m.split(".")[0] == "mpmath"
            or (m.split(".")[0] == "szego_lab"
                and m != "szego_lab.circle_fourier")] == []


# what the corrector half must not load: mpmath and the modules that
# compute in it
_EXACT = ("mpmath", "szego_lab.xlinalg", "szego_lab.measure_opuc",
          "szego_lab.asymptotics")


def module_level_imports(source: str) -> set:
    """The dotted names a module imports when it loads: each import outside
    a function body, with each name a from-import binds appended to its
    module."""
    out = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                out.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module:
                out.add(child.module)
                out.update(f"{child.module}.{alias.name}"
                           for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return out


def test_the_checker_sees_a_module_level_import():
    source = ("import os\nfrom szego_lab import xlinalg\n"
              "class A:\n    import json\n"
              "def f():\n    import mpmath\n")
    assert module_level_imports(source) == {
        "os", "szego_lab", "szego_lab.xlinalg", "json"}


@pytest.mark.parametrize("module", ["cli", "__init__", "contract"])
def test_the_command_line_loads_no_exact_module(module):
    # cli, the package and the leaf cli reads its exit-code classes from
    # import those modules only inside the functions that need them
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert sorted(m for m in module_level_imports(source)
                  if any(m == e or m.startswith(e + ".") for e in _EXACT)) == []


def _fresh(code: str, *args) -> dict:
    """The JSON object that code, run in a fresh interpreter on the
    package's sources with args as sys.argv[1:], prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_REFUSED_RUN = """
import json, sys
import szego_lab.cli as cli
loaded = sorted(m for m in sys.modules if m in {exact!r})
sys.modules["mpmath"] = None  # any import of it now raises ImportError
codes = [cli.main([cmd, "--manifest", path])
         for cmd, path in zip(sys.argv[1::2], sys.argv[2::2])]
print(json.dumps({{"loaded": loaded, "codes": codes}}))
"""


def _runs_with_mpmath_refused(tmp_path, runs) -> None:
    """Each (command, manifest fields) of runs in a fresh interpreter that
    has imported the CLI, with none of the exact modules, and then refused
    mpmath; each exits 0 and writes the bytes of an in-process run."""
    from szego_lab import cli

    args = []
    for command, fields in runs:
        for tag in ("fresh", "here"):
            path = tmp_path / f"{command}-{tag}.json"
            path.write_text(json.dumps(dict(
                fields, out_dir=str(tmp_path / f"{command}-{tag}"))))
        args += [command, tmp_path / f"{command}-fresh.json"]
    got = _fresh(_REFUSED_RUN.format(exact=_EXACT), *args)
    assert got == {"loaded": [], "codes": [0] * len(runs)}
    for command, _ in runs:
        assert cli.main([command, "--manifest",
                         str(tmp_path / f"{command}-here.json")]) == 0
        assert ((tmp_path / f"{command}-fresh" / "certificates.csv").read_bytes()
                == (tmp_path / f"{command}-here" / "certificates.csv").read_bytes())


def test_the_corrector_commands_run_with_mpmath_refused(tmp_path):
    # a fresh import of the CLI loads none of the exact modules, and
    # vs-bound and besov, with mpmath refused, write the bytes of an
    # unrefused run
    _runs_with_mpmath_refused(tmp_path, [
        ("vs-bound", {"n_grid": [4, 8], "kinds": ["radial_line"]}),
        ("besov", {"n_grid": [8, 16]})])


def test_pipeline_and_log_condition_run_with_mpmath_refused(tmp_path):
    # the pipeline's norms go from integers straight to doubles, so pipeline
    # and log-condition, with mpmath refused, write the bytes of an
    # unrefused run too (opuc, which needs it, loads it in
    # test_an_exact_command_loads_what_it_needs)
    measure = tmp_path / "mu.json"
    measure.write_text(json.dumps({
        "psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
        "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2], [1.02, 0.0, 0.1]],
        "precision_bits": 128}))
    _runs_with_mpmath_refused(tmp_path, [
        ("pipeline", {"measure_file": str(measure), "n_grid": [8, 16],
                      "route": "both"}),
        ("log-condition", {"measure_file": str(measure), "n_max": 64})])


def mpmath_importers(source: str) -> list:
    """(line, enclosing function or None) for each import of mpmath or of
    one of its modules."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = ([alias.name for alias in child.names]
                     if isinstance(child, ast.Import) else
                     [child.module or ""] if isinstance(child, ast.ImportFrom)
                     else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                out.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), None)
    return out


def test_the_checker_sees_every_mpmath_import():
    source = ("import mpmath.libmp\nif x:\n    from mpmath import mp\n"
              "def f():\n    import mpmath\n"
              "class A:\n    def g(self):\n        from mpmath.libmp import x\n")
    assert mpmath_importers(source) == [(1, None), (3, None), (5, "f"),
                                        (8, "g")]


def test_mpmath_has_one_door():
    # no module imports mpmath when it loads; only the mpmath context and
    # the residue nodes' cos/sin import it at all, and the pipeline holds
    # none of the helpers that make mpmath numbers
    found = {module: mpmath_importers((SRC / f"{module}.py").read_text(
        encoding="utf-8")) for module in MODULES}
    assert {(module, where) for module, hits in found.items()
            for _, where in hits} == {("xlinalg", "context"),
                                      ("xlinalg", "_circle_nodes")}
    source = (SRC / "asymptotics.py").read_text(encoding="utf-8")
    held = {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert held & {"context", "_to_mpf", "_to_mpc", "_ball_to_mpf"} == set()


def test_the_exact_modules_load_without_mpmath():
    code = ("import json, sys\n"
            "import szego_lab.xlinalg, szego_lab.measure_opuc, "
            "szego_lab.asymptotics\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'mpmath')))")
    assert _fresh(code) == []


def test_an_exact_command_loads_what_it_needs(tmp_path):
    # opuc in a fresh interpreter imports the exact modules in its runner,
    # and only there
    measure = tmp_path / "mu.json"
    measure.write_text(json.dumps({"psi": [[1.0, 0.0], [-0.5, 0.0]],
                                   "masses": [[1.5, 0.0, 0.3]],
                                   "precision_bits": 128}))
    manifest = tmp_path / "man.json"
    manifest.write_text(json.dumps({"measure_file": str(measure),
                                    "n_grid": [2, 4],
                                    "out_dir": str(tmp_path / "out")}))
    code = ("import json, sys\nimport szego_lab.cli as cli\n"
            f"before = sorted(set(sys.modules) & set({_EXACT!r}))\n"
            "code = cli.main(['opuc', '--manifest', sys.argv[1]])\n"
            f"after = sorted(set(sys.modules) & set({_EXACT!r}))\n"
            "print(json.dumps({'before': before, 'code': code, "
            "'after': after}))")
    assert _fresh(code, manifest) == {"before": [], "code": 0,
                                      "after": sorted(_EXACT)}
    assert len((tmp_path / "out" / "certificates.csv").read_text()
               .splitlines()) == 3


_LIBRARY = ("asymptotics", "blaschke", "circle_fourier", "measure_opuc",
            "xlinalg")


@pytest.mark.parametrize("first", [
    "szego_lab.tau_n", "dir(szego_lab)", "exec('from szego_lab import *', {})"])
def test_the_package_resolves_every_export_on_first_access(first):
    # the package alone loads none of the exact modules; whichever access
    # comes first loads them, after which the package holds every name of
    # the five __all__ lists, in module order
    code = ("import json, sys, szego_lab\n"
            f"before = sorted(set(sys.modules) & set({_EXACT!r}))\n"
            f"{first}\n"
            "star = {}\nexec('from szego_lab import *', star)\n"
            "print(json.dumps({'before': before, 'all': szego_lab.__all__, "
            "'dir': dir(szego_lab), 'star': sorted(star)}))")
    got = _fresh(code)
    assert got["before"] == []
    names = ["__version__"] + [name for stem in _LIBRARY for name in
                               importlib.import_module(f"szego_lab.{stem}").__all__]
    assert got["all"] == names
    assert set(names) <= set(got["dir"])
    assert set(names) <= set(got["star"])


@pytest.mark.parametrize("module, name", [
    ("measure_opuc", "FieldError"), ("measure_opuc", "QuadratureError"),
    ("measure_opuc", "PrecisionExhausted"), ("xlinalg", "NotPositiveDefinite"),
    ("xlinalg", "PRECISION_BITS"), ("asymptotics", "ScheduleViolation")])
def test_each_moved_name_is_the_leafs_object(module, name):
    contract = importlib.import_module("szego_lab.contract")
    assert getattr(importlib.import_module(f"szego_lab.{module}"), name) is (
        getattr(contract, name))


def test_measure_opuc_imports_no_mpmath():
    # the moments, the closed form and the residue table compute on
    # integers; mpmath numbers come only through xlinalg's helpers
    source = (SRC / "measure_opuc.py").read_text(encoding="utf-8")
    assert [m for m in sorted(imported_modules(source))
            if m.split(".")[0] == "mpmath"] == []


def mpmath_calls(source: str) -> list:
    """(line, name) for each mpc, polyval, convert or fdot attribute, called
    or passed on: the mpmath arithmetic a fixed-point module leaves out."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in ("mpc", "polyval", "convert", "fdot")]


def test_the_checker_sees_an_mpmath_call():
    source = ("x = ctx.mpc(1)\ny = ctx.mpf(2)\nz = ctx.polyval(c, x)\n"
              "w = list(map(ctx.convert, c))\n")
    assert mpmath_calls(source) == [(1, "mpc"), (3, "polyval"), (4, "convert")]


def test_measure_opuc_makes_mpmath_numbers_only_by_rounding():
    # the Gram entries, moment and both sides of the residue identity are
    # integers until xlinalg._to_mpc or _to_mpf rounds them
    source = (SRC / "measure_opuc.py").read_text(encoding="utf-8")
    assert mpmath_calls(source) == []


@pytest.mark.parametrize("name", ["_fixed", "_rdiv",
                                  "_circle_nodes", "_quotient_series"])
def test_fixed_point_helpers_are_defined_once(name):
    # one implementation per idea: each fixed-point helper has one home
    homes = [module for module in MODULES
             if any(isinstance(node, ast.FunctionDef) and node.name == name
                    for node in ast.walk(ast.parse(
                        (SRC / f"{module}.py").read_text(encoding="utf-8"))))]
    assert homes == ["xlinalg"]


def _references(node: ast.AST) -> Counter:
    """How often each name occurs under node as a name, an attribute, an
    imported name or a whole string constant."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _definitions(body: list, prefix: str = "") -> list:
    """(qualified name, node) of each module-level function and class and
    of each class member, dunders excepted."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append((prefix + node.name, node))
            if isinstance(node, ast.ClassDef):
                out += _definitions(node.body, f"{prefix}{node.name}.")
    return out


def _kept_on_purpose() -> set:
    """The names the README's "API kept on purpose" list gives: each item
    starts with them, in backquotes, before any colon."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## API kept on purpose", 1)[1].split("\n## ", 1)[0]
    heads = re.findall(r"^- ((?:[^:\n]|\n  )*)", section, re.M)
    return {name for head in heads for name in re.findall(r"`([^`]+)`", head)}


def test_every_definition_is_used_or_kept_on_purpose():
    trees = [ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8"))
             for m in MODULES]
    refs = sum((_references(tree) for tree in trees), Counter())
    exported = set().union(*map(_exported, trees))
    kept = _kept_on_purpose()
    defined, unused = set(), []
    for tree in trees:
        for qualname, node in _definitions(tree.body):
            defined.add(qualname)
            outside = refs[node.name] - _references(node)[node.name]
            if not outside and node.name not in exported and qualname not in kept:
                unused.append(qualname)
    assert unused == []
    assert sorted(kept - defined) == []
