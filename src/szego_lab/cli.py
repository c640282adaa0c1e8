"""Command-line front end: manifests in, CSV certificates and JSON reports out.

Each subcommand reads an optional JSON manifest, overlays the command-line
flags, runs the named experiment, and writes certificates.csv plus
report.json into the output directory.  Errors leave a machine-readable
JSON object on stdout and a contract exit code: 0 success, 2 input error,
3 numeric failure, 4 schedule violation.

Determinism: identical manifest and seed produce byte-identical CSV at a
fixed precision.  Floats are serialized with the shortest round-trip
decimal form, and rows are emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from szego_lab import __version__
from szego_lab.blaschke import (
    _GRID_CAP,
    PoleProximityError,
    TaylorToleranceError,
    ZeroSet,
    build_corrector,
    corrector_certificate,
)
from szego_lab.circle_fourier import (
    GridCapError,
    NonFiniteGridError,
    kernel_identity_vk_vpn,
)
from szego_lab.contract import (
    PRECISION_BITS,
    FieldError,
    NotPositiveDefinite,
    QuadratureError,
    ScheduleViolation,
    _as_float,
    _as_int,
    seeded_uniforms,
)

__all__ = ["COMMANDS", "ManifestError", "RunManifest", "generate_zeros",
           "run", "main"]

COMMANDS = ("vs-bound", "besov", "opuc", "pipeline", "residue-check",
            "log-condition")
ZERO_KINDS = ("uniform_disk", "boundary_cluster", "radial_line")

_DEFAULT_GRIDS = {
    "vs-bound": (4, 8, 16, 32, 64, 128, 256),
    "besov": (8, 16, 32, 64, 128, 256, 512, 1024, 2048),
    "opuc": (2, 4, 8, 16),
    "pipeline": (8, 16, 32),
    "residue-check": (4, 8, 12),
    "log-condition": (),
}

_NEEDS_MEASURE = ("opuc", "pipeline", "residue-check", "log-condition")


class ManifestError(FieldError):
    """Invalid manifest or input file; carries the offending field name."""


# ----------------------------------------------------------------------
# the input table: one row per manifest field


def _typed(t):
    """Reader that takes a JSON value of type t, such as str, as it is."""
    def read(v):
        if not isinstance(v, t):
            raise TypeError(f"{v!r} is not a {t.__name__}")
        return v
    return read


def _one_of(*choices):
    def read(v):
        if v not in choices:
            raise ValueError(f"{v!r} is not one of {', '.join(choices)}")
        return v
    return read


def _list_of(read):
    """Reader of a nonempty JSON list of distinct values, each read by read:
    a repeated value would repeat a column or a row of the output."""
    def read_list(v):
        if not isinstance(v, list) or not v:
            raise TypeError(f"{v!r} is not a nonempty list")
        vals = tuple(map(read, v))
        if len(set(vals)) < len(vals):
            raise ValueError(f"{v!r} repeats a value")
        return vals
    return read_list


def _row(read, default=None, ok=None, must="", rule=None):
    """A row of the input table, as a field: read turns the JSON value into
    the field's value or raises; ok holds for each valid value (each entry
    of a list), must says what ok asks, and rule(man) says what is wrong
    with the field against the others, or is falsy."""
    return field(default=default, metadata={"row": (read, ok, must, rule)})


# The largest exponents that keep their powers finite doubles: j^s for the
# degrees j <= 2^26 that blaschke's truncation search may try, and (log n)^A
# for the n <= _GRID_CAP of a log-condition grid.
_LN_MAX = math.log(sys.float_info.max)
_S_MAX = math.floor(_LN_MAX / math.log(2.0 ** 26))
_A_MAX = math.floor(_LN_MAX / math.log(math.log(_GRID_CAP)))


def _read_schedule(v):
    from szego_lab.asymptotics import ScheduleParams
    return ScheduleParams.from_json(_typed(dict)(v))


def _n_grid_rule(man):
    ns = man.n_grid
    if list(ns) != sorted(set(ns)):
        return "must be strictly increasing"
    if man.command == "pipeline" and ns[0] < 8:
        return "pipeline lower bounds need n >= 8"


def _besov_pairs(man) -> list:
    """The (k, n) of a besov run: k of k_list (0..10 by default) and n of
    n_grid with 2^k <= n, that is k < n.bit_length()."""
    ks = man.k_list if man.k_list is not None else range(11)
    return [(k, n) for n in man.n_grid for k in ks if k < n.bit_length()]


@dataclass
class RunManifest:
    """Resolved run description: manifest file contents plus flag overrides.

    Each field a manifest may name is a row of the input table (_row): its
    reader, its range, its default and, for a few, a rule against the other
    fields.  The README's "Inputs" table lists the rows.
    """

    command: str
    out_dir: str = _row(_typed(str), ".")
    seed: int = _row(_as_int, 0, lambda s: s >= 0, "at least 0")
    seeds: int = _row(_as_int, 1, lambda s: 1 <= s <= _GRID_CAP,
                      f"in [1, {_GRID_CAP}]")
    precision_bits: int | None = _row(_as_int, None,
                                      lambda b: b in PRECISION_BITS,
                                      f"one of {PRECISION_BITS}")
    measure_file: str | None = _row(_typed(str))
    n_grid: tuple = _row(_list_of(_as_int), (), lambda n: 1 <= n <= _GRID_CAP,
                         f"in [1, {_GRID_CAP}]", _n_grid_rule)
    oversample: int = _row(
        _as_int, 16, lambda o: o >= 4, "at least 4",
        # each sup grid takes oversample * (K + 1) nodes for a degree K > n
        lambda m: m.command == "vs-bound"
        and m.oversample * (m.n_grid[-1] + 1) > _GRID_CAP
        and f"oversample * (n + 1) passes {_GRID_CAP} nodes")
    kinds: tuple = _row(_list_of(_one_of(*ZERO_KINDS)), ("uniform_disk",))
    epsilon: float = _row(
        _as_float, 1.0, lambda e: 0.0 < e <= 1.0, "in (0, 1]",
        # the dilation radius 1 + epsilon/n must be told apart from 1
        lambda m: m.command == "vs-bound"
        and 1.0 + m.epsilon / m.n_grid[-1] == 1.0
        and "too small for the largest n")
    smoothness: tuple = _row(_list_of(_as_int), (1, 2),
                             lambda s: 1 <= s <= _S_MAX, f"in [1, {_S_MAX}]")
    which: str = _row(_one_of("tau", "eta", "both"), "both")
    route: str = _row(_one_of("vp", "taylor", "both"), "both")
    k_list: tuple | None = _row(
        _list_of(_as_int), None, lambda k: 0 <= k <= _GRID_CAP,
        f"in [0, {_GRID_CAP}]",
        lambda m: m.command == "besov" and not _besov_pairs(m)
        and "no pair satisfies 2^k <= n on the grid")
    exponents: tuple = _row(
        _list_of(_as_float), (1.0, 2.0), lambda a: 0.0 < a <= _A_MAX,
        f"in (0, {_A_MAX}]",
        # each names its column weighted_A{a:g}, to 6 digits
        lambda m: len({f"{a:g}" for a in m.exponents}) < len(m.exponents)
        and "two exponents agree to 6 digits, so their columns share a name")
    n_max: int = _row(_as_int, 4096, lambda n: 2 <= n <= _GRID_CAP,
                      f"in [2, {_GRID_CAP}]")
    # asymptotics.ScheduleParams and measure_opuc.MeasureSpec, named here
    # only as annotations: the runners that use them import them
    schedule: ScheduleParams | None = _row(_read_schedule)
    measure: MeasureSpec | None = field(default=None, compare=False)


# the defaults lie in their ranges; the rules run on every manifest
_ROWS = {f.name: f.metadata["row"] for f in fields(RunManifest) if f.metadata}
_RULES = tuple((name, row[3]) for name, row in _ROWS.items() if row[3])
_KNOWN_KEYS = {f.name for f in fields(RunManifest)} - {"measure"}


def _read_json(path: str, name: str) -> dict:
    """The JSON object in the file at path; ManifestError names name."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(name, f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ManifestError(name, "top level must be a JSON object")
    return obj


def load_manifest(command: str, path: str | None, overrides: dict) -> RunManifest:
    """Parse the manifest file, overlay the flags on it, read and range-check
    each field it names through its row, then apply every rule."""
    obj = {} if path is None else _read_json(path, "manifest")
    if (named := obj.pop("command", command)) != command:
        raise ManifestError(
            "command", f"manifest names {named!r} but {command!r} was invoked")
    for key, val in overrides.items():
        if val is not None:
            obj["out_dir" if key == "out" else key] = val

    man = RunManifest(command, n_grid=_DEFAULT_GRIDS[command])
    for name, raw in obj.items():
        if name not in _ROWS:
            raise ManifestError(name, "unknown manifest field")
        read, ok, must, _ = _ROWS[name]
        try:
            val = read(raw)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ManifestError(name, f"bad value: {exc}") from exc
        if ok is not None and not (all(map(ok, val)) if isinstance(val, tuple)
                                   else ok(val)):
            raise ManifestError(name, f"must be {must}")
        setattr(man, name, val)
    for name, rule in _RULES:
        wrong = rule(man)
        if wrong:
            raise ManifestError(name, wrong)

    if command in _NEEDS_MEASURE:
        man.measure = _load_measure(man)
    return man


def _load_measure(man: RunManifest) -> MeasureSpec:
    from szego_lab.measure_opuc import MeasureSpec

    if man.measure_file is None:
        raise ManifestError("measure_file", "required for this command")
    mu = MeasureSpec.from_json(_read_json(man.measure_file, "measure_file"))
    if man.precision_bits is not None and man.precision_bits != mu.precision:
        mu = MeasureSpec(mu.weight, mu.spectrum, man.precision_bits)
    return mu


# ----------------------------------------------------------------------
# zero-set generation


def generate_zeros(kind: str, n: int, seed: int) -> ZeroSet:
    """Deterministic pseudo-random zero sets inside the unit disk.

    uniform_disk is area-uniform; boundary_cluster draws moduli in
    [max(0, 1 - 4/n), 1 - 1/(4n)] to stress the derivative bounds;
    radial_line places the geometric string {r, r^2, ..., r^n} on a seeded
    ray.  The draws are numpy's default_rng(seed) stream, reproduced on
    integers by contract.seeded_uniforms: n radii, then n angles, or the
    ray's modulus and angle.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    draw = seeded_uniforms(seed)
    if kind == "uniform_disk":
        radii = np.sqrt(np.fromiter(draw, float, n))
        angles = 2.0 * np.pi * np.fromiter(draw, float, n)
    elif kind == "boundary_cluster":
        lo = max(0.0, 1.0 - 4.0 / n)
        hi = 1.0 - 1.0 / (4.0 * n)
        radii = lo + (hi - lo) * np.fromiter(draw, float, n)
        angles = 2.0 * np.pi * np.fromiter(draw, float, n)
    elif kind == "radial_line":
        r = 0.3 + 0.65 * next(draw)
        theta = 2.0 * np.pi * next(draw)
        radii = r ** np.arange(1, n + 1)
        angles = np.full(n, theta)
    else:
        raise ValueError(f"unknown zero-set kind {kind!r}")
    zs = radii * np.exp(1j * angles)
    return ZeroSet(tuple(complex(z) for z in zs))


# ----------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        # shortest round-trip decimal; plain float strips numpy scalar reprs
        return repr(float(value))
    return str(value)


def _strict_json(value):
    """value with every non-finite float replaced by None, so report.json
    is strict JSON: null where a number overflowed or is undefined."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_outputs(man: RunManifest, columns, rows, extra: dict) -> dict:
    try:
        os.makedirs(man.out_dir, exist_ok=True)
        csv_path = os.path.join(man.out_dir, "certificates.csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in columns])
        report = {"command": man.command, "rows": rows}
        report.update(extra)
        report["reproducibility"] = _reproducibility(man)
        json_path = os.path.join(man.out_dir, "report.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_strict_json(report), indent=2,
                                allow_nan=False) + "\n")
    except OSError as exc:
        raise ManifestError("out_dir", str(exc)) from exc
    return {"csv": csv_path, "json": json_path, "rows": len(rows)}


@functools.cache
def _version_string() -> str:
    """szego-lab-<__version__>, with +g<git describe> in a git checkout."""
    import subprocess

    tag = f"szego-lab-{__version__}"
    try:
        probe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5)
        if probe.returncode == 0 and probe.stdout.strip():
            tag += "+g" + probe.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return tag


def _reproducibility(man: RunManifest) -> dict:
    bits = man.precision_bits
    if man.measure is not None:
        bits = man.measure.precision
    sched = man.schedule
    if man.command == "pipeline" and sched is None:
        from szego_lab.asymptotics import ScheduleParams
        sched = ScheduleParams.default()
    return {
        "seed": man.seed,
        "precision_bits": bits,
        "oversample": man.oversample,
        "schedule": None if sched is None else sched.to_json(),
        "version": _version_string(),
    }


# ----------------------------------------------------------------------
# subcommand runners


def _run_vs_bound(man: RunManifest):
    bracketed = ["sup_phi"] + [f"ratio_s{sm}" for sm in man.smoothness]
    rows = []
    for kind in man.kinds:
        for n in man.n_grid:
            for s in range(man.seed, man.seed + man.seeds):
                corr = build_corrector(generate_zeros(kind, n, s), man.epsilon)
                try:
                    cert = corrector_certificate(corr, man.smoothness,
                                                 man.oversample)
                except GridCapError as exc:
                    # the degree that bounds the grid comes from the zeros'
                    # envelope, not from the manifest
                    raise ManifestError("oversample", str(exc)) from exc
                # the certificate record, its *_upper keys in report.json only
                row = dict(cert, kind=kind, seed=s)
                row["max_ratio"] = max(row[f"ratio_s{sm}"]
                                       for sm in man.smoothness)
                rows.append(row)
    columns = ["kind", "n", "seed", "epsilon", "sup_phi", "phi0_err"]
    for sm in man.smoothness:
        columns += [f"ratio_s{sm}", f"besov_ratio_s{sm}"]
    columns.append("max_ratio")
    summary = {
        "max_ratio": max(r["max_ratio"] for r in rows),
        "max_phi0_err": max(r["phi0_err"] for r in rows),
        "max_sup_phi_excess": max(
            r["sup_phi"] - (1.0 + r["epsilon"] / r["n"]) ** r["n"]
            for r in rows),
        # null where every sampled value is 0 (a derivative order past the
        # trimmed degree)
        "max_upper_over_value": {
            key: max((r[f"{key}_upper"] / r[key] for r in rows if r[key] > 0),
                     default=None)
            for key in bracketed},
    }
    return columns, rows, {"summary": summary}


def _run_besov(man: RunManifest):
    rows = [{"k": k, "n": n, "identity_pass": kernel_identity_vk_vpn(k, n)}
            for k, n in _besov_pairs(man)]
    summary = {"pairs": len(rows),
               "all_pass": all(r["identity_pass"] for r in rows)}
    return ["k", "n", "identity_pass"], rows, {"summary": summary}


def _run_opuc(man: RunManifest):
    from szego_lab.measure_opuc import convergence_experiment

    mu = man.measure
    rec = convergence_experiment(mu, man.n_grid, which=man.which)
    columns = ["n", "tau_n", "eta_n", "target", "tau_error", "eta_error"]
    rows = []
    for r in rec["rows"]:
        row = {"n": r["n"], "tau_n": r.get("tau"), "eta_n": r.get("eta"),
               "target": rec["target"], "tau_error": r.get("tau_error"),
               "eta_error": r.get("eta_error")}
        # report.json only: the guard bits and certified relative radius
        # of each value's run
        for key in ("tau_guard_bits", "tau_relative_radius",
                    "eta_guard_bits", "eta_relative_radius"):
            row[key] = r.get(key)
        rows.append(row)
    return columns, rows, {"target": rec["target"], "which": rec["which"],
                           "trend": rec["trend"]}


def _run_pipeline(man: RunManifest):
    from szego_lab.asymptotics import (
        PipelineCertificate,
        ScheduleParams,
        pipeline_certificates,
        validate_schedule,
    )
    from szego_lab.measure_opuc import target_limit

    mu = man.measure
    sched = man.schedule or ScheduleParams.default()
    if len(man.n_grid) >= 2:
        validate_schedule(sched, man.n_grid)
    routes = ("vp", "taylor") if man.route == "both" else (man.route,)
    # report.json only: the working bits of each run and its norms' bits
    rows = [dict(cert.to_row(), working_bits=f, norm_bits=bits)
            for cert, f, bits in pipeline_certificates(
                mu.spectrum, mu.weight, man.n_grid, sched, routes, man.seed,
                mu.precision)]
    columns = list(PipelineCertificate.FIELDS)
    summary = {"target_limit": target_limit(mu),
               "best_lower_bound": max(r["lower_bound_achieved"] for r in rows),
               "all_schwarz_pass": all(r["schwarz_pass"] for r in rows)}
    return columns, rows, {"summary": summary}


def _run_residue_check(man: RunManifest):
    from szego_lab.measure_opuc import ResidueNodes, residue_identity_check

    mu = man.measure
    n_masses = len(mu.spectrum)
    ks = man.k_list or tuple(range(min(2, n_masses) + 1))
    if max(ks) > n_masses:
        raise ManifestError("k_list", f"measure has only {n_masses} mass points")
    rows = []
    checks = [(n, k) for n in man.n_grid for k in ks]
    nodes = ResidueNodes(mu, checks)
    for n, k in checks:
        rec = residue_identity_check(mu, n, k, nodes=nodes)
        rows.append({
            "n": n, "k": k,
            "lhs_re": float(rec["lhs"].real),
            "lhs_im": float(rec["lhs"].imag),
            "rhs_re": float(rec["rhs"].real),
            "rhs_im": float(rec["rhs"].imag),
            "abs_diff": float(rec["abs_diff"]),
            "schwarz_majorant": float(rec["schwarz_majorant"]),
            "grid": rec["grid"],
            "quad_bound": rec["quad_bound"],  # report.json only
        })
    columns = ["n", "k", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_diff", "schwarz_majorant", "grid"]
    summary = {"max_abs_diff": max(r["abs_diff"] for r in rows)}
    return columns, rows, {"summary": summary}


def _run_log_condition(man: RunManifest):
    from szego_lab.measure_opuc import log_condition_report

    rep = log_condition_report(man.measure.spectrum, man.exponents, man.n_max)
    weight_cols = [f"weighted_A{a:g}" for a in man.exponents]
    rows = []
    for i, n in enumerate(rep["n_values"]):
        row = {"n": n, "tail_sum": rep["tail_sums"][i]}
        for a, col in zip(man.exponents, weight_cols):
            row[col] = rep["per_A"][a]["values"][i]
        rows.append(row)
    bounded = {f"{a:g}": rep["per_A"][a]["bounded"] for a in man.exponents}
    return (["n", "tail_sum"] + weight_cols, rows,
            {"bounded": bounded, "any_bounded": any(bounded.values())})


_RUNNERS = {
    "vs-bound": _run_vs_bound,
    "besov": _run_besov,
    "opuc": _run_opuc,
    "pipeline": _run_pipeline,
    "residue-check": _run_residue_check,
    "log-condition": _run_log_condition,
}


def run(man: RunManifest) -> dict:
    """Execute the manifest and write certificates.csv and report.json."""
    columns, rows, extra = _RUNNERS[man.command](man)
    return _write_outputs(man, columns, rows, extra)


# ----------------------------------------------------------------------
# entry point


def _emit_error(code: int, exc: Exception) -> None:
    payload = {"error": {
        "exit_code": code,
        "type": type(exc).__name__,
        "field": getattr(exc, "field", None),
        "message": str(exc),
    }}
    print(json.dumps(payload))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once, on first use: a build costs about thirty parses."""
    parser = argparse.ArgumentParser(
        prog="szego-lab",
        description="Certificate sweeps, kernel checks, and convergence "
                    "experiments for circle measures with outside masses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", default=None, metavar="PATH")
        sp.add_argument("--out", default=None, metavar="DIR")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--precision-bits", type=int, default=None,
                        dest="precision_bits")
        sp.add_argument("--oversample", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed,
                 "precision_bits": args.precision_bits,
                 "oversample": args.oversample}
    try:
        man = load_manifest(args.command, args.manifest, overrides)
        result = run(man)
    except FieldError as exc:  # ManifestError, or a measure file's field
        _emit_error(2, exc)
        return 2
    except ScheduleViolation as exc:
        _emit_error(4, exc)
        return 4
    except (NotPositiveDefinite, QuadratureError, TaylorToleranceError,
            PoleProximityError, NonFiniteGridError, GridCapError) as exc:
        _emit_error(3, exc)
        return 3
    print(f"wrote {result['csv']} and {result['json']} "
          f"({result['rows']} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
