"""Print the minor page faults and the process time per corrector
certificate, for each given source tree.

    python tests/data/faults.py [CHECKOUT ...]

CHECKOUT is a source tree of this project, such as a git clone or an
unpacked ``git archive``; without one, the tree this script sits in is
measured.  For each tree a subprocess with its src first on PYTHONPATH
builds the correctors of the three zero-set kinds, seeds 1 to 4, at each
(n, epsilon) in SHAPES, takes every certificate once to warm the process,
then takes them ROUNDS times more.  It prints, per shape, the mean minor
faults (``resource.getrusage(RUSAGE_SELF).ru_minflt``) and the mean process
time per ``corrector_certificate(c, (1, 2), 16)``, as the vs-bound command
takes them.  With two or more trees the rows of each shape follow one
another, so the first tree reads as the parent and the rest as changes.

Like make_frozen.py it uses the standard library only, and it is not
collected by pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SHAPES = ((64, 1.0), (64, 0.1), (256, 1.0))
KINDS = ("uniform_disk", "boundary_cluster", "radial_line")
SEEDS = (1, 2, 3, 4)
ROUNDS = 3

# run in the tree's own interpreter environment; prints one JSON object
_PROBE = """
import json, resource, sys, time
from szego_lab.blaschke import build_corrector, corrector_certificate
from szego_lab.cli import generate_zeros
shapes, kinds, seeds, rounds = json.loads(sys.argv[1])
out = {}
for n, eps in shapes:
    cs = [build_corrector(generate_zeros(k, n, s), eps)
          for k in kinds for s in seeds]
    for c in cs:
        corrector_certificate(c, (1, 2), 16)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    for _ in range(rounds):
        for c in cs:
            corrector_certificate(c, (1, 2), 16)
    took = time.process_time() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    count = rounds * len(cs)
    out[f"{n}/{eps:g}"] = [faults / count, took / count]
print(json.dumps(out))
"""


def probe(tree: str) -> dict:
    """{"n/eps": [faults, seconds]} per certificate, measured in a fresh
    process on tree's src."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = json.dumps([SHAPES, KINDS, SEEDS, ROUNDS])
    proc = subprocess.run([sys.executable, "-c", _PROBE, args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    trees = argv or [ROOT]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "szego_lab")):
            print(f"{tree}: no src/szego_lab here", file=sys.stderr)
            return 2
    results = [probe(tree) for tree in trees]
    print(f"{'n/eps':>8}  {'faults':>8}  {'ms':>8}  tree")
    for key in results[0]:
        for tree, result in zip(trees, results):
            faults, seconds = result[key]
            print(f"{key:>8}  {faults:8.0f}  {1e3 * seconds:8.2f}  {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
