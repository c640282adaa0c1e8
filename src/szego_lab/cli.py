"""Command-line front end: manifests in, CSV certificates and JSON reports out.

Each subcommand reads an optional JSON manifest, overlays the command-line
flags, runs the named experiment, and writes certificates.csv plus
report.json into the output directory.  Errors leave a machine-readable
JSON object on stdout and a contract exit code: 0 success, 2 input error,
3 numeric failure, 4 schedule violation.

Determinism: identical manifest and seed produce byte-identical CSV at a
fixed precision.  Floats are serialized with the shortest round-trip
decimal form, rows are emitted in a fixed order, and parallel workers
(capped by SZEGO_LAB_THREADS) never reorder output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from szego_lab.asymptotics import (
    LogConditionFailed,
    PipelineCertificate,
    ScheduleParams,
    ScheduleViolation,
    convergence_experiment,
    taylor_approximant,
    validate_schedule,
    vp_approximant,
)
from szego_lab.blaschke import (
    PoleProximityError,
    TaylorToleranceError,
    ZeroSet,
    build_corrector,
    corrector_certificate,
)
from szego_lab.circle_fourier import KernelDomainError, kernel_identity_vk_vpn
from szego_lab.measure_opuc import (
    FieldError,
    MeasureSpec,
    PrecisionExhausted,
    QuadratureError,
    ResidueNodes,
    _as_int,
    log_condition_report,
    orthonormal_element,
    residue_identity_check,
    target_limit,
)
from szego_lab.xlinalg import NotPositiveDefinite, PrecisionTag

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


@dataclass
class RunManifest:
    """Resolved run description: manifest file contents plus flag overrides."""

    command: str
    out_dir: str = "."
    seed: int = 0
    precision_bits: int | None = None
    oversample: int = 16
    measure_file: str | None = None
    n_grid: tuple = ()
    seeds: int = 1
    kinds: tuple = ("uniform_disk",)
    epsilon: float = 1.0
    smoothness: tuple = (1, 2)
    which: str = "both"
    route: str = "both"
    pipeline: bool = False
    k_list: tuple | None = None
    exponents: tuple = (1.0, 2.0)
    n_max: int = 4096
    schedule: ScheduleParams | None = None
    measure: MeasureSpec | None = field(default=None, compare=False)


# ----------------------------------------------------------------------
# manifest loading


def _expect(obj, key, kind, convert=None):
    val = obj[key]
    try:
        return convert(val) if convert else val
    except (TypeError, ValueError) as exc:
        raise ManifestError(key, f"expected {kind}: {exc}") from exc


def _int_tuple(key, val, minimum=1):
    try:
        out = tuple(map(_as_int, val))
    except (TypeError, ValueError) as exc:
        raise ManifestError(key, "expected a list of integers") from exc
    if not out:
        raise ManifestError(key, "must not be empty")
    if any(v < minimum for v in out):
        raise ManifestError(key, f"entries must be at least {minimum}")
    return out


_KNOWN_KEYS = {f.name for f in fields(RunManifest)} - {"measure"}


def load_manifest(command: str, path: str | None, overrides: dict) -> RunManifest:
    """Parse the manifest file, overlay flags, and validate every field."""
    obj: dict = {}
    if path is not None:
        if not os.path.isfile(path):
            raise ManifestError("manifest", f"no such file: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("manifest", f"not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestError("manifest", "top level must be a JSON object")
    for key in obj:
        if key not in _KNOWN_KEYS:
            raise ManifestError(key, "unknown manifest field")
    if "command" in obj and obj["command"] != command:
        raise ManifestError(
            "command",
            f"manifest names {obj['command']!r} but {command!r} was invoked")

    man = RunManifest(command=command)
    man.out_dir = str(obj.get("out_dir", man.out_dir))
    if "seed" in obj:
        man.seed = _expect(obj, "seed", "an integer", _as_int)
    if "seeds" in obj:
        man.seeds = _expect(obj, "seeds", "an integer", _as_int)
        if man.seeds < 1:
            raise ManifestError("seeds", "must be at least 1")
    if "oversample" in obj:
        man.oversample = _expect(obj, "oversample", "an integer", _as_int)
    if "precision_bits" in obj:
        man.precision_bits = _expect(obj, "precision_bits", "an integer", _as_int)
    if "n_grid" in obj:
        man.n_grid = _int_tuple("n_grid", obj["n_grid"])
        if list(man.n_grid) != sorted(set(man.n_grid)):
            raise ManifestError("n_grid", "must be strictly increasing")
    else:
        man.n_grid = _DEFAULT_GRIDS[command]
    if "kinds" in obj:
        man.kinds = tuple(str(k) for k in obj["kinds"])
        if not man.kinds:
            raise ManifestError("kinds", "must not be empty")
    for k in man.kinds:
        if k not in ZERO_KINDS:
            raise ManifestError("kinds", f"unknown zero-set kind {k!r}")
    if "epsilon" in obj:
        man.epsilon = _expect(obj, "epsilon", "a number", float)
        if not 0.0 < man.epsilon <= 1.0:
            raise ManifestError("epsilon", "must lie in (0, 1]")
    if "smoothness" in obj:
        man.smoothness = _int_tuple("smoothness", obj["smoothness"])
    if "which" in obj:
        man.which = str(obj["which"])
        if man.which not in ("tau", "eta", "both"):
            raise ManifestError("which", "must be tau, eta, or both")
    if "route" in obj:
        man.route = str(obj["route"])
        if man.route not in ("vp", "taylor", "both"):
            raise ManifestError("route", "must be vp, taylor, or both")
    if "pipeline" in obj:
        if not isinstance(obj["pipeline"], bool):
            raise ManifestError("pipeline", "must be true or false")
        man.pipeline = obj["pipeline"]
    if "k_list" in obj:
        man.k_list = _int_tuple("k_list", obj["k_list"], minimum=0)
    if "exponents" in obj:
        try:
            man.exponents = tuple(float(a) for a in obj["exponents"])
        except (TypeError, ValueError) as exc:
            raise ManifestError("exponents", "expected a list of numbers") from exc
        if not man.exponents or any(a <= 0 for a in man.exponents):
            raise ManifestError("exponents", "need positive exponents")
    if "n_max" in obj:
        man.n_max = _expect(obj, "n_max", "an integer", _as_int)
        if man.n_max < 2:
            raise ManifestError("n_max", "must be at least 2")
    if "schedule" in obj:
        try:
            man.schedule = ScheduleParams.from_json(obj["schedule"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError("schedule", f"bad schedule spec: {exc}") from exc
    man.measure_file = obj.get("measure_file")

    for key in ("out", "seed", "precision_bits", "oversample"):
        val = overrides.get(key)
        if val is not None:
            setattr(man, "out_dir" if key == "out" else key, val)
    if man.seed < 0:
        raise ManifestError("seed", "must be at least 0")
    if man.oversample < 4:
        raise ManifestError("oversample", "must be at least 4")
    # the dilation radius 1 + epsilon/n must be told apart from 1
    if command == "vs-bound" and 1.0 + man.epsilon / max(man.n_grid) == 1.0:
        raise ManifestError("epsilon", "too small for the largest n")
    if man.precision_bits is not None:
        try:
            PrecisionTag(man.precision_bits)
        except ValueError as exc:
            raise ManifestError("precision_bits", str(exc)) from exc

    if command in _NEEDS_MEASURE:
        man.measure = _load_measure(man)
    return man


def _load_measure(man: RunManifest) -> MeasureSpec:
    if man.measure_file is None:
        raise ManifestError("measure_file", "required for this command")
    if not os.path.isfile(man.measure_file):
        raise ManifestError("measure_file", f"no such file: {man.measure_file}")
    try:
        with open(man.measure_file, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError("measure_file", f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ManifestError("measure_file", "top level must be a JSON object")
    mu = MeasureSpec.from_json(obj)
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
    ray.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "uniform_disk":
        radii = np.sqrt(rng.random(n))
        angles = 2.0 * np.pi * rng.random(n)
    elif kind == "boundary_cluster":
        lo = max(0.0, 1.0 - 4.0 / n)
        hi = 1.0 - 1.0 / (4.0 * n)
        radii = lo + (hi - lo) * rng.random(n)
        angles = 2.0 * np.pi * rng.random(n)
    elif kind == "radial_line":
        r = 0.3 + 0.65 * rng.random()
        theta = 2.0 * np.pi * rng.random()
        radii = r ** np.arange(1, n + 1)
        angles = np.full(n, theta)
    else:
        raise ValueError(f"unknown zero-set kind {kind!r}")
    zs = radii * np.exp(1j * angles)
    return ZeroSet(tuple(complex(z) for z in zs))


# ----------------------------------------------------------------------
# output plumbing


def _thread_count() -> int:
    raw = os.environ.get("SZEGO_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ManifestError("SZEGO_LAB_THREADS", "must be an integer") from exc


def _map_ordered(fn, tasks):
    workers = min(_thread_count(), max(1, len(tasks)))
    if workers == 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        # shortest round-trip decimal; plain float strips numpy scalar reprs
        return repr(float(value))
    return str(value)


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
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ManifestError("out_dir", str(exc)) from exc
    return {"csv": csv_path, "json": json_path, "rows": len(rows)}


@functools.cache
def _version_string() -> str:
    try:
        from importlib.metadata import version
        base = version("szego-lab")
    except Exception:
        base = "0.1.0"
    tag = f"szego-lab-{base}"
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
    if man.command == "pipeline" or (man.command == "opuc" and man.pipeline):
        sched = sched or ScheduleParams.default()
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
    tasks = [(kind, n, s)
             for kind in man.kinds
             for n in man.n_grid
             for s in range(man.seed, man.seed + man.seeds)]
    bracketed = ["sup_phi"] + [f"ratio_s{sm}" for sm in man.smoothness]

    def work(task):
        kind, n, s = task
        corr = build_corrector(generate_zeros(kind, n, s), man.epsilon)
        cert = corrector_certificate(corr, man.smoothness, man.oversample)
        # the certificate record, its *_upper keys in report.json only
        row = dict(cert, kind=kind, seed=s)
        row["max_ratio"] = max(row[f"ratio_s{sm}"] for sm in man.smoothness)
        return row

    rows = _map_ordered(work, tasks)
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
        "max_upper_over_value": {
            key: max(r[f"{key}_upper"] / r[key] for r in rows)
            for key in bracketed},
    }
    return columns, rows, {"summary": summary}


def _run_besov(man: RunManifest):
    ks = man.k_list if man.k_list is not None else tuple(range(0, 11))
    pairs = [(k, n) for n in man.n_grid for k in ks if (1 << k) <= n]
    if not pairs:
        raise ManifestError("k_list", "no pair satisfies 2^k <= n on the grid")

    def work(pair):
        k, n = pair
        return {"k": k, "n": n, "identity_pass": kernel_identity_vk_vpn(k, n)}

    rows = _map_ordered(work, pairs)
    summary = {"pairs": len(rows),
               "all_pass": all(r["identity_pass"] for r in rows)}
    return ["k", "n", "identity_pass"], rows, {"summary": summary}


def _run_opuc(man: RunManifest):
    mu = man.measure
    if man.pipeline and min(man.n_grid) < 8:
        raise ManifestError("n_grid", "pipeline lower bounds need n >= 8")
    rec = convergence_experiment(mu, man.n_grid, which=man.which,
                                 pipeline=man.pipeline, sched=man.schedule,
                                 seed=man.seed)
    columns = ["n", "tau_n", "eta_n", "target", "tau_error", "eta_error"]
    if man.pipeline:
        columns += ["tau_lower_bound", "eta_lower_bound"]
    rows = []
    for r in rec["rows"]:
        rows.append({"n": r["n"], "tau_n": r.get("tau"),
                     "eta_n": r.get("eta"), "target": rec["target"],
                     "tau_error": r.get("tau_error"),
                     "eta_error": r.get("eta_error"),
                     "tau_lower_bound": r.get("tau_lower_bound"),
                     "eta_lower_bound": r.get("eta_lower_bound")})
    return columns, rows, {"target": rec["target"], "which": rec["which"],
                           "trend": rec["trend"]}


def _run_pipeline(man: RunManifest):
    mu = man.measure
    if min(man.n_grid, default=0) < 8:
        raise ManifestError("n_grid", "pipelines need n >= 8")
    sched = man.schedule or ScheduleParams.default()
    if len(man.n_grid) >= 2:
        validate_schedule(sched, man.n_grid)
    routes = ("vp", "taylor") if man.route == "both" else (man.route,)
    rows = []
    for route in routes:
        runner = vp_approximant if route == "vp" else taylor_approximant
        for n in man.n_grid:
            _, cert = runner(mu.spectrum, mu.weight, n, sched,
                             man.seed, mu.precision)
            rows.append(cert.to_row())
    columns = list(PipelineCertificate.FIELDS)
    summary = {"target_limit": target_limit(mu),
               "best_lower_bound": max(r["lower_bound_achieved"] for r in rows),
               "all_schwarz_pass": all(r["schwarz_pass"] for r in rows)}
    return columns, rows, {"summary": summary}


def _run_residue_check(man: RunManifest):
    mu = man.measure
    n_masses = len(mu.spectrum)
    if man.k_list is None:
        ks = tuple(range(0, min(2, n_masses) + 1))
    else:
        ks = man.k_list
        if any(k > n_masses for k in ks):
            raise ManifestError(
                "k_list", f"measure has only {n_masses} mass points")
    rows = []
    nodes = ResidueNodes(mu, max(ks, default=0))
    for n in man.n_grid:
        element = orthonormal_element(mu, n, laurent=True)
        for k in ks:
            rec = residue_identity_check(mu, n, k, element=element,
                                         nodes=nodes)
            rows.append({
                "n": n, "k": k,
                "lhs_re": float(rec["lhs"].real),
                "lhs_im": float(rec["lhs"].imag),
                "rhs_re": float(rec["rhs"].real),
                "rhs_im": float(rec["rhs"].imag),
                "abs_diff": float(rec["abs_diff"]),
                "schwarz_majorant": float(rec["schwarz_majorant"]),
                "grid": rec["grid"],
            })
    columns = ["n", "k", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
               "abs_diff", "schwarz_majorant", "grid"]
    summary = {"max_abs_diff": max(r["abs_diff"] for r in rows)}
    return columns, rows, {"summary": summary}


def _run_log_condition(man: RunManifest):
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
    except (ScheduleViolation, LogConditionFailed) as exc:
        _emit_error(4, exc)
        return 4
    except (PrecisionExhausted, NotPositiveDefinite, QuadratureError,
            TaylorToleranceError, PoleProximityError,
            KernelDomainError) as exc:
        _emit_error(3, exc)
        return 3
    print(f"wrote {result['csv']} and {result['json']} "
          f"({result['rows']} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
