"""Seeded request generator for the benchmark workloads.

A workload is a fixed cycle of request shapes.  A shape groups the requests
whose cost is set by the same command and sizes, and for opuc and pipeline
runs by whether psi is constant (its cost halves when it is); run.py
weights each shape by its share of the timed requests.  Every other discrete input
(psi degree, mass count, precision) follows a fixed pattern, and the seed
draws only the continuous inputs (zero-set seeds, coefficients, weights,
mass positions, spread by MeasureStream).  So every seed runs the same mix
in the same order.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass

KINDS = ("uniform_disk", "boundary_cluster", "radial_line")


@dataclass(frozen=True)
class Request:
    """One CLI call: argv relative to the work directory, plus what the
    checker needs to know about the inputs it generated."""

    index: int
    command: str
    shape: str
    manifest: dict
    measure: dict | None = None

    @property
    def manifest_file(self) -> str:
        return f"in/r{self.index:04d}.json"

    def argv(self) -> list:
        return [self.command, "--manifest", self.manifest_file]


def _measure_file(index: int) -> str:
    return f"in/m{index:04d}.json"


def _r6(x: float) -> float:
    return round(x, 6)


def random_measure(rng: random.Random, degree: int, n_masses: int,
                   bits: int, u: list) -> dict:
    """psi = c * prod(1 - z/r_j) with c in [0.5, 2] and |r_j| in [1.5, 4];
    masses with |z| in [1.1, 3] and weights in [0.05, 0.5]; angles in
    [0, 2 pi).

    u holds numbers in [0, 1) for the polar coordinates: root j at
    (u[2j], u[2j + 1]), mass k at (u[4 + 2k], u[5 + 2k]).
    """
    c = _r6(rng.uniform(0.5, 2.0))
    coeffs = [complex(c)]
    for k in range(degree):
        root = cmath.rect(_r6(1.5 + 2.5 * u[2 * k]),
                          _r6(2.0 * math.pi * u[2 * k + 1]))
        # multiply by (1 - z/root)
        coeffs = ([coeffs[0]]
                  + [coeffs[j] - coeffs[j - 1] / root
                     for j in range(1, len(coeffs))]
                  + [-coeffs[-1] / root])
    masses = []
    for k in range(n_masses):
        z = cmath.rect(_r6(1.1 + 1.9 * u[4 + 2 * k]),
                       _r6(2.0 * math.pi * u[5 + 2 * k]))
        masses.append([z.real, z.imag, _r6(rng.uniform(0.05, 0.5))])
    return {"psi": [[a.real, a.imag] for a in coeffs], "masses": masses,
            "precision_bits": bits}


_MASS_FREE = (1, 5, 10)
_WITH_MASSES = (0, 2, 3, 4, 6, 7, 8, 9, 11)
_LOW_BITS = (2, 7, 9)
# steps of the R_d low-discrepancy sequence in 10 dimensions (Roberts): the
# powers 1/g^k, with g the root of x^11 = x + 1
_G = 1.0
for _ in range(64):
    _G = (1.0 + _G) ** (1.0 / 11.0)
_STEPS = [_G ** -(k + 1) for k in range(10)]


class MeasureStream:
    """The measures of one request slot, in order.

    The j-th measure has psi of degree j mod 3.  In every run of twelve,
    three measures have no masses, all with psi of degree 1 or 2
    (Bernstein-Szego weights; a constant psi without masses would test
    nothing); the other nine have 1, 2 and 3 masses in turn.  With low_bits,
    three of those nine run at 128 bits and the rest at 256.

    The positions of roots and masses, which set most of a request's cost
    (through quadrature grids that double, and the pipeline's working
    precision), follow a low-discrepancy sequence: over a cycle they cover
    their ranges evenly, any few consecutive measures spread over them, and
    the seed shifts each coordinate by at most an eighth of its range.  So
    short runs on different seeds see comparable costs; c and the weights
    stay fully random.
    """

    def __init__(self, rng: random.Random, low_bits: bool = False):
        self.rng = rng
        self.low_bits = low_bits
        self.shifts = [rng.random() / 8.0 for _ in _STEPS]
        self.j = -1

    def next(self) -> dict:
        self.j += 1
        j, r = self.j, self.j % 12
        n_masses = 0 if r in _MASS_FREE else 1 + _WITH_MASSES.index(r) % 3
        bits = 128 if self.low_bits and r in _LOW_BITS else 256
        u = [(s + (j + 1) * a) % 1.0 for s, a in zip(self.shifts, _STEPS)]
        return random_measure(self.rng, j % 3, n_masses, bits, u)


def _psi_class(measure: dict) -> str:
    return "psi-const" if len(measure["psi"]) == 1 else "psi-poly"


# ----------------------------------------------------------------------
# corrector-sweep: vs-bound certificates plus an occasional besov run

def _corrector_cycle() -> list:
    """30 slots in three blocks: a besov run, then each kind at n = 16, 64
    and 256.

    Epsilon is 0.1 for one kind per block at n = 16 and another at n = 64,
    a third of those runs, as in the acceptance suite's eps-0.1 sweep.  At
    n = 256 one eps-0.1 certificate costs about 8 s, a quarter of a run, so
    n = 256 runs at epsilon 1 only.
    """
    cycle = []
    for block in range(3):
        cycle.append(("besov", None, None, None))
        for k, kind in enumerate(KINDS):
            eps16 = 0.1 if k == block else 1.0
            eps64 = 0.1 if k == (block + 1) % 3 else 1.0
            cycle += [("vs-bound", 16, eps16, kind),
                      ("vs-bound", 64, eps64, kind),
                      ("vs-bound", 256, 1.0, kind)]
    return cycle


def _corrector_requests(rng: random.Random, count: int) -> list:
    cycle = _corrector_cycle()
    out = []
    for i in range(count):
        command, n, eps, kind = cycle[i % len(cycle)]
        if command == "besov":
            out.append(Request(i, command, "besov", {"command": "besov"}))
            continue
        manifest = {"command": "vs-bound", "kinds": [kind], "n_grid": [n],
                    "seed": rng.randrange(1 << 31), "seeds": 1,
                    "epsilon": eps, "smoothness": [1, 2], "oversample": 16}
        out.append(Request(i, command, f"vs-bound-n{n}-eps{eps:g}", manifest))
    return out


# ----------------------------------------------------------------------
# opuc-exact: exact tau_n/eta_n, and the residue identity

# top n of the opuc grid per slot; None is a residue-check.  Top 32 holds
# half of the cycle, so a run holds more requests than with equal shares of
# 16, 32 and 48.
_OPUC_SLOTS = (16, 32, None, 32, 48, 32, None, 32)


def _opuc_requests(rng: random.Random, count: int) -> list:
    out = []
    streams = {top: MeasureStream(rng, low_bits=True) for top in _OPUC_SLOTS}
    for i in range(count):
        top = _OPUC_SLOTS[i % len(_OPUC_SLOTS)]
        command = "opuc" if top else "residue-check"
        measure = streams[top].next()
        if command == "opuc":
            manifest = {"command": "opuc", "which": "both",
                        "n_grid": [top // 4, top // 2, top]}
            shape = f"opuc-top{top}-{_psi_class(measure)}"
        else:
            manifest = {"command": "residue-check", "n_grid": [4, 8, 12],
                        "k_list": list(range(len(measure["masses"]) + 1))}
            shape = "residue-check"
        manifest["measure_file"] = _measure_file(i)
        out.append(Request(i, command, shape, manifest, measure))
    return out


# ----------------------------------------------------------------------
# pipeline-bounds: both lower-bound routes, plus an occasional log-condition

# n = 32 holds half of the cycle: n = 64 runs, on (64, 128), take 4-15 s
# each, and equal thirds would leave about a dozen requests in a run.
_PIPELINE_CYCLE = ("log-condition", 32, 16, 32, 64, 32, 16, 32, 64, 32)


def _pipeline_requests(rng: random.Random, count: int) -> list:
    out = []
    streams = {slot: MeasureStream(rng) for slot in _PIPELINE_CYCLE}
    for i in range(count):
        slot = _PIPELINE_CYCLE[i % len(_PIPELINE_CYCLE)]
        measure = streams[slot].next()
        if slot == "log-condition":
            manifest = {"command": "log-condition"}
            shape = "log-condition"
        else:
            manifest = {"command": "pipeline", "route": "both",
                        "n_grid": [slot, 2 * slot]}
            shape = f"pipeline-n{slot}-{_psi_class(measure)}"
        manifest["measure_file"] = _measure_file(i)
        out.append(Request(i, manifest["command"], shape, manifest, measure))
    return out


_BUILDERS = {
    "corrector-sweep": _corrector_requests,
    "opuc-exact": _opuc_requests,
    "pipeline-bounds": _pipeline_requests,
}
WORKLOADS = tuple(_BUILDERS)


def cycle_length(workload: str) -> int:
    return {"corrector-sweep": len(_corrector_cycle()),
            "opuc-exact": len(_OPUC_SLOTS),
            "pipeline-bounds": len(_PIPELINE_CYCLE)}[workload]


def build_requests(workload: str, seed: int, count: int) -> list:
    """The first count requests of the workload's sequence for this seed, in
    run order; a longer sequence starts with the same requests."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, count)


def shape_weights(requests: list) -> dict:
    """Share of each shape among the requests."""
    counts: dict = {}
    for req in requests:
        counts[req.shape] = counts.get(req.shape, 0) + 1
    return {s: c / len(requests) for s, c in counts.items()}


def write_inputs(requests: list, work_dir: str) -> None:
    """Write every manifest and measure file under work_dir/in."""
    os.makedirs(os.path.join(work_dir, "in"), exist_ok=True)
    for req in requests:
        manifest = dict(req.manifest, out_dir="out")
        _dump(os.path.join(work_dir, req.manifest_file), manifest)
        if req.measure is not None:
            _dump(os.path.join(work_dir, req.manifest["measure_file"]),
                  req.measure)


def _dump(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")
