"""Apply each mutant of a certified margin to a copy of the source tree and
run the tests named for it: a mutant that every test passes is a margin no
test holds.

    python tests/data/mutants.py [NAME ...]

Each entry of MUTANTS is one exact string replacement in one file of the
tree this script sits in, with the test files that should kill it.  Every
pattern must match its file exactly once, or the script refuses to run
(exit 2).  The named test files first run on an unmutated copy, and must
pass.  Then, for each mutant, the tree is copied to a temporary directory,
the replacement applied, and ``pytest -q -x`` run on its test files; the
script prints the mutant, killed or survived, and the first failing test.
It exits 1 if a mutant survives that the table does not mark as a known
survivor, else 0.  With NAME arguments only those mutants run.

Like make_frozen.py it uses the standard library only, and it is not
collected by pytest.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

BLASCHKE = "src/szego_lab/blaschke.py"
CIRCLE = "src/szego_lab/circle_fourier.py"
MEASURE = "src/szego_lab/measure_opuc.py"
ASYMPTOTICS = "src/szego_lab/asymptotics.py"
XLINALG = "src/szego_lab/xlinalg.py"
CLI = "src/szego_lab/cli.py"
PACKAGE = "src/szego_lab/__init__.py"
SERIES_ERROR = "return _tail_bound(env, big_n, s) + alias + rounding"
CORRECTOR_TESTS = ("tests/test_blaschke.py", "tests/test_acceptance.py")
CIRCLE_TESTS = ("tests/test_circle_fourier.py",)
MEASURE_TESTS = ("tests/test_measure_opuc.py",)
CLI_TESTS = ("tests/test_cli.py",)
XLINALG_TESTS = ("tests/test_xlinalg.py",)
IMPORT_TESTS = ("tests/test_imports.py",)
EAGER_FROM = """from szego_lab import {0}

__version__ = "0.1.0"

_MODULES = ("asymptotics", "blaschke", "circle_fourier", "measure_opuc",
            "xlinalg")

for _module in ({0}):
"""

# (name, file, old, new, test files, known survivor)
MUTANTS = (
    ("series-rounding", BLASCHKE, SERIES_ERROR,
     "return _tail_bound(env, big_n, s) + alias", CORRECTOR_TESTS, True),
    ("series-aliasing", BLASCHKE, SERIES_ERROR,
     "return _tail_bound(env, big_n, s) + rounding", CORRECTOR_TESTS, True),
    ("series-truncation", BLASCHKE, SERIES_ERROR,
     "return alias + rounding", CORRECTOR_TESTS, True),
    ("trimmed-tail", BLASCHKE,
     "\n                                 + float(np.abs(series[k + 1 :]).sum()))",
     ")", CORRECTOR_TESTS, True),
    ("grid-factor", CIRCLE,
     "upper = grid_max / np.sqrt(np.cos(np.pi * d / m))",
     "upper = grid_max", CIRCLE_TESTS, False),
    ("psi-floor-margin-dropped", MEASURE,
     "a = np.abs(b[0, :-1]) - err[0]", "a = np.abs(b[0, :-1])",
     MEASURE_TESTS, False),
    ("psi-floor-half-step", MEASURE,
     "low = min(low, float(np.min(a - (near * 0.5 ** ms).sum(0))))",
     "low = min(low, float(np.min(a)))", MEASURE_TESTS, False),
    ("besov-margin-zero", CIRCLE,
     "_BESOV_MARGIN = 2.0 ** -30", "_BESOV_MARGIN = 0.0", CIRCLE_TESTS,
     False),
    ("psi-floor-margin-zero", MEASURE,
     "err = len(psi) * 2.0 ** -47 *", "err = 0.0 *", MEASURE_TESTS, False),
    ("sup-twist-early", CIRCLE,
     "twist = np.ones(width, dtype=np.complex128)", "twist = step.copy()",
     CIRCLE_TESTS, False),
    ("sup-fold-first-chunk", CIRCLE,
     "for k in range(1, (len(c) + part - 1) // part):",
     "for k in range(1, 1):", CIRCLE_TESTS, False),
    ("taylor-reads-whole-series", ASYMPTOTICS,
     "series = base.series[: max(upto, base.trunc) + 1]",
     "series = list(base.series)", CLI_TESTS, False),
    ("quotient-shift-unrounded", XLINALG,
     "half = 1 << (s - 1) if shift else 0", "half = 0", XLINALG_TESTS, False),
    ("witness-mass-term-dropped", MEASURE,
     "out[m - 1] = out[m - 1][0] + br, out[m - 1][1] + bi",
     "out[m - 1] = out[m - 1]", MEASURE_TESTS, False),
    ("numerator-conj-sign", MEASURE,
     "conj_sums.append((rr + ii, ir - ri))",
     "conj_sums.append((rr - ii, ir - ri))", MEASURE_TESTS, False),
    ("psi-floor-const-margin", MEASURE,
     "return float(abs(psi[0]) - err[0])", "return float(abs(psi[0]))",
     MEASURE_TESTS, False),
    ("psi-floor-margin-shrunk", MEASURE,
     "err = len(psi) * 2.0 ** -47 *", "err = len(psi) * 2.0 ** -53 *",
     MEASURE_TESTS, False),
    ("radius-dropped", MEASURE,
     "return man, scale[-1] - f, max(radius, math.ulp(0.0)) * (1 + 2.0 ** -20)",
     "return man, scale[-1] - f, 0.0", MEASURE_TESTS, False),
    ("radius-shrunk", XLINALG,
     "eps = sum(map(mul, v, rv)) + beta * (beta / (room - rho))",
     "eps = (sum(map(mul, v, rv)) + beta * (beta / (room - rho))) / 64",
     MEASURE_TESTS, False),
    # FieldError read from measure_opuc, which re-exports it
    ("cli-imports-measure-opuc", CLI,
     "from szego_lab.contract import (\n    PRECISION_BITS,\n    FieldError,\n",
     "from szego_lab.measure_opuc import FieldError\n"
     "from szego_lab.contract import (\n    PRECISION_BITS,\n",
     IMPORT_TESTS, False),
    # every library module imported, and its names bound, with the package
    ("package-imports-eagerly", PACKAGE,
     EAGER_FROM.format("blaschke, circle_fourier"), EAGER_FROM.format(
         "asymptotics, blaschke, circle_fourier, measure_opuc, xlinalg"),
     IMPORT_TESTS, False),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".bench_work", "*.pyc")


def check_patterns(mutants) -> list:
    """A line for each mutant whose pattern does not match its file in ROOT
    exactly once."""
    wrong = []
    for name, path, old, _, _, _ in mutants:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            count = fh.read().count(old)
        if count != 1:
            wrong.append(f"{name}: pattern matches {path} {count} times")
    return wrong


def run_tests(tree: str, tests) -> tuple:
    """(passed, first failing test or None) for pytest -q -x on tests in
    the tree, whose src comes first on the import path (pyproject.toml)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M)
    return proc.returncode == 0, found.group(1) if found else None


def run_on_copy(tests, mutant=None) -> tuple:
    """run_tests on a copy of ROOT, with the replacement (path, old, new) of
    mutant applied if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        if mutant is not None:
            path, old, new = mutant
            with open(os.path.join(tree, path), encoding="utf-8") as fh:
                text = fh.read()
            with open(os.path.join(tree, path), "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
        return run_tests(tree, tests)


def main(argv: list[str]) -> int:
    names = {m[0] for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not argv or m[0] in argv]
    wrong = check_patterns(mutants)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 2
    tests = sorted({t for m in mutants for t in m[4]})
    passed, failing = run_on_copy(tests)
    if not passed:
        print(f"the unmutated tree fails {failing}", file=sys.stderr)
        return 2
    unexpected = 0
    for name, path, old, new, files, known in mutants:
        start = time.monotonic()
        passed, failing = run_on_copy(files, (path, old, new))
        took = f"{time.monotonic() - start:.0f} s"
        if not passed:
            note = " (marked as a known survivor)" if known else ""
            print(f"{name}: killed by {failing}{note}, {took}", flush=True)
        else:
            unexpected += not known
            print(f"{name}: survived{' (known)' if known else ''}, {took}",
                  flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
