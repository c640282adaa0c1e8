"""Rewrite the frozen CSVs in this directory from a given source tree, or
compare what two trees write.

    python tests/data/make_frozen.py CHECKOUT [FILE ...]
    python tests/data/make_frozen.py --compare OLD NEW [FILE ...]
    python tests/data/make_frozen.py --requests OLD NEW

CHECKOUT, OLD and NEW are source trees of this project, such as a git clone
or an unpacked ``git archive``.  Every run below goes through that tree's own
CLI, in a subprocess with its src first on PYTHONPATH, so the files hold what
that tree wrote.  With FILE names only those files are rewritten or compared,
otherwise every file in FROZEN is.

--compare writes nothing: for each file it prints every cell where OLD's and
NEW's text differ, named by the file, the row's labels, the column, both
values and the relative change, then per moved column its cell count and
its largest absolute and relative change, then a count per file.  It exits 1 if any
cell differs and 0 if every file is byte-identical.

--requests writes nothing either: it runs the benchmark's requests in
REQUESTS (the first ones of each workload and seed, as bench/workloads.py
builds them) through both trees, one CLI subprocess per request and tree,
and prints every differing cell of their certificates.csv as --compare
does, every differing exit code, and a count per workload.  It exits 1 if
any cell or exit code differs.

A frozen file guards a change against the output of the code before it: it
is written from the parent commit's tree when the change lands, and the
tests that read it say how closely the new output must agree.  A file is
the certificates.csv of each of its runs under one header; where runs carry
labels, each line starts with them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "..", "..", "bench")

VS_BOUND = {"command": "vs-bound",
            "kinds": ["uniform_disk", "boundary_cluster", "radial_line"],
            "seeds": 2, "smoothness": [1, 2]}

README_TWO_MASS = {"psi": [[1.0, 0.0], [-0.5, 0.0]],
                   "masses": [[1.5, 0.0, 0.3], [-1.25, 0.0, 0.1]]}
# psi = 1 + (0.3 - 0.2i) z + 0.1i z^2 with two complex masses
COMPLEX_TWO_MASS = {"psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
                    "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]]}

# mass-free measures with complex psi of degree 1 to 3, then both two-mass
# measures; each at three precisions
OPUC_MEASURES = {
    "complex_d1": {"psi": [[1.0, 0.0], [0.4, -0.3]], "masses": []},
    "complex_d2": {"psi": COMPLEX_TWO_MASS["psi"], "masses": []},
    "complex_d3": {"psi": [[1.0, 0.0], [-0.3, 0.2], [0.1, 0.15], [0.05, -0.05]],
                   "masses": []},
    "readme_two_mass": README_TWO_MASS,
    "complex_two_mass": COMPLEX_TWO_MASS,
}
OPUC_BITS = (53, 128, 256)

with open(os.path.join(HERE, "..", "..", "bench", "defects", "d3-measure.json"),
          encoding="utf-8") as _fh:
    D3_MEASURE = json.load(_fh)

# both routes on three measures: the README's two-mass measure at 128 bits,
# where the norm bookkeeping works at the pipeline's own precision, then the
# complex two-mass measure and d3 (the README measure at 256 bits)
PIPELINE_MEASURES = {
    "readme_two_mass_128": dict(README_TWO_MASS, precision_bits=128),
    "complex_two_mass": dict(COMPLEX_TWO_MASS, precision_bits=256),
    "d3": D3_MEASURE,
}

# file -> (label columns, runs); a run is (labels, manifest, measure or None)
FROZEN = {
    "vs_bound_frozen.csv": ((), [
        ((), dict(VS_BOUND, n_grid=[4, 16, 64]), None),
    ]),
    "vs_bound_corrector_frozen.csv": ((), [
        ((), dict(VS_BOUND, epsilon=0.1, n_grid=[16, 64]), None),
        ((), dict(VS_BOUND, epsilon=1.0, n_grid=[256]), None),
    ]),
    "residue_check_frozen.csv": (("measure",), [
        ((label,), {"command": "residue-check", "n_grid": [4, 8, 12],
                    "k_list": [0, 1, 2]}, dict(measure, precision_bits=bits))
        for label, measure, bits in (("readme_two_mass", README_TWO_MASS, 256),
                                     ("complex_psi", COMPLEX_TWO_MASS, 128))
    ]),
    "opuc_frozen.csv": (("measure", "bits"), [
        ((label, str(bits)), {"command": "opuc", "n_grid": [4, 8, 16],
                              "which": "both"},
         dict(measure, precision_bits=bits))
        for label, measure in OPUC_MEASURES.items() for bits in OPUC_BITS
    ]),
    "pipeline_frozen.csv": (("measure",), [
        ((label,), {"command": "pipeline", "route": "both",
                    "n_grid": [8, 16, 32, 64]}, measure)
        for label, measure in PIPELINE_MEASURES.items()
    ]),
}


def frozen_text(name: str, run_cli) -> str:
    """The text of FROZEN[name], with run_cli(command, manifest_path) running
    one CLI call and returning its exit code."""
    label_columns, runs = FROZEN[name]
    header, lines = None, []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (labels, manifest, measure) in enumerate(runs):
            manifest = dict(manifest, out_dir=os.path.join(tmp, f"out{i}"))
            if measure is not None:
                manifest["measure_file"] = os.path.join(tmp, f"measure{i}.json")
                with open(manifest["measure_file"], "w", encoding="utf-8") as fh:
                    json.dump(measure, fh)
            path = os.path.join(tmp, f"manifest{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
            code = run_cli(manifest["command"], path)
            if code != 0:
                raise RuntimeError(f"{name}: run {i} exited with {code}")
            csv_path = os.path.join(manifest["out_dir"], "certificates.csv")
            with open(csv_path, encoding="utf-8", newline="") as fh:
                first, *rows = fh.read().splitlines(keepends=True)
            prefix = "".join(f"{v}," for v in labels)
            if header is None:
                header = "".join(f"{c}," for c in label_columns) + first
            elif "".join(f"{c}," for c in label_columns) + first != header:
                raise RuntimeError(f"{name}: run {i} has another header")
            lines += [prefix + row for row in rows]
    return header + "".join(lines)


def start_cli(checkout: str, argv: list, cwd: str) -> subprocess.Popen:
    """The CLI of the tree at checkout, started on argv in the directory
    cwd, with that tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-m", "szego_lab.cli", *argv],
                            env=env, cwd=cwd, stdout=subprocess.DEVNULL)


def subprocess_cli(checkout: str):
    """run_cli for frozen_text that runs the CLI of the tree at checkout."""
    def run_cli(command: str, manifest: str) -> int:
        return start_cli(checkout, [command, "--manifest", manifest],
                         os.path.dirname(manifest)).wait()

    return run_cli


# columns that, with a file's label columns, name a row in --compare output
KEY_COLUMNS = ("kind", "route", "n", "k", "seed", "epsilon")


def _relative(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "not numbers"
    return f"{(b - a) / abs(a):+.2e} relative" if a else "from 0"


def _change(old: str, new: str) -> tuple:
    """(|new - old|, that over |old|), inf relative from 0; NaNs where the
    cells are not numbers."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.nan, math.nan
    return abs(b - a), abs(b - a) / abs(a) if a else math.inf


def print_cells(name: str, old: str, new: str, labels=()) -> int:
    """Print each cell where the CSV texts old and new differ, the row named
    by its label and key columns, then per column that moved the number of
    its cells and their largest absolute and relative change; the number of
    differing cells, and 1 if the headers or row counts differ."""
    a = list(csv.reader(old.splitlines()))
    b = list(csv.reader(new.splitlines()))
    if a[:1] != b[:1] or len(b) != len(a):
        print(f"{name}: headers or row counts differ "
              f"({len(a) - 1} and {len(b) - 1} rows)")
        return 1
    header = a[0] if a else []
    keys = [i for i, c in enumerate(header) if c in labels or c in KEY_COLUMNS]
    cells = 0
    moved: dict = {}  # column -> [(absolute, relative change)] of its cells
    for row_a, row_b in zip(a[1:], b[1:]):
        label = " ".join(f"{header[i]}={row_a[i]}" for i in keys)
        for column, x, y in zip(header, row_a, row_b):
            if x != y:
                cells += 1
                print(f"{name}: {label} {column}: {x} -> {y} "
                      f"({_relative(x, y)})")
                moved.setdefault(column, []).append(_change(x, y))
    for column, changes in moved.items():
        numbers = [c for c in changes if not math.isnan(c[0])]
        size = (f"largest change {max(c[0] for c in numbers):.2e} absolute, "
                f"{max(c[1] for c in numbers):.2e} relative" if numbers
                else "not numbers")
        print(f"{name}: {column}: {len(changes)} cells, {size}")
    return cells


def compare(old: str, new: str, names: list) -> int:
    """Print each cell where the text of a file written by the tree old and
    by the tree new differ; 1 if any does, else 0."""
    old_cli, new_cli = subprocess_cli(old), subprocess_cli(new)
    total = 0
    for name in names:
        text = frozen_text(name, old_cli)
        cells = print_cells(name, text, frozen_text(name, new_cli),
                            FROZEN[name][0])
        print(f"{name}: {cells} cells differ" if cells else
              f"{name}: byte-identical, {len(text.splitlines()) - 1} rows")
        total += cells
    return 1 if total else 0


# workload -> how many of its first requests run, for each seed: one full
# cycle of corrector-sweep, its vs-bound and besov requests
REQUESTS = {"corrector-sweep": 30, "opuc-exact": 48, "pipeline-bounds": 20}
REQUEST_SEEDS = (1, 2, 3)


def compare_requests(old: str, new: str) -> int:
    """Run REQUESTS through the trees old and new, both at once, each tree
    in its own work directory; print every differing cell and exit code and
    a count per workload; 1 if any differs, else 0."""
    sys.path.insert(0, BENCH)
    import workloads

    total = 0
    for workload, count in REQUESTS.items():
        runs = codes = files = cells = 0
        seen: dict = {}  # exit code -> how many requests gave it on both
        for seed in REQUEST_SEEDS:
            requests = workloads.build_requests(workload, seed, count)
            with tempfile.TemporaryDirectory() as tmp:
                dirs = [os.path.join(tmp, side) for side in ("old", "new")]
                for work in dirs:
                    workloads.write_inputs(requests, work)
                for req in requests:
                    name = f"{workload} seed {seed} r{req.index:04d} {req.command}"
                    outs = []
                    procs = [start_cli(tree, req.argv(), work)
                             for tree, work in zip((old, new), dirs)]
                    for proc, work in zip(procs, dirs):
                        code = proc.wait()
                        path = os.path.join(work, "out", "certificates.csv")
                        text = ""
                        if code == 0:
                            with open(path, encoding="utf-8") as fh:
                                text = fh.read()
                            os.remove(path)
                        outs.append((code, text))
                    (code_a, text_a), (code_b, text_b) = outs
                    runs += 1
                    if code_a != code_b:
                        codes += 1
                        print(f"{name}: exit code {code_a} -> {code_b}")
                    else:
                        seen[code_a] = seen.get(code_a, 0) + 1
                    diff = print_cells(name, text_a, text_b)
                    files += bool(diff)
                    cells += diff
        print(f"{workload}: {runs} requests, {codes} exit codes differ "
              f"(the same on both: {seen}), {files} CSVs differ in "
              f"{cells} cells")
        total += codes + cells
    return 1 if total else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--requests"]:
        if len(argv) != 3 or any(a.startswith("-") for a in argv[1:]):
            print(__doc__, file=sys.stderr)
            return 2
        return compare_requests(argv[1], argv[2])
    compare_mode = argv[:1] == ["--compare"]
    trees = 2 if compare_mode else 1
    argv = argv[1:] if compare_mode else argv
    if len(argv) < trees or any(a.startswith("-") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[trees:] or list(FROZEN)
    unknown = [n for n in names if n not in FROZEN]
    if unknown:
        print(f"unknown frozen files: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if compare_mode:
        return compare(argv[0], argv[1], names)
    run_cli = subprocess_cli(argv[0])
    for name in names:
        text = frozen_text(name, run_cli)
        with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {name}: {text.count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
