"""Output checks: every certificates.csv row a request writes.

Thresholds come from the acceptance suite and the README.  A checker
returns one list of failure labels per row, empty for a row that passed; a
request with any label counts as failed.

Two labels are known defects of the program, recorded in bench/README.md
with inputs that reproduce them.  They count as failures like any other,
but a run whose only failures carry these labels still reports its output
as checked (``correct``); any other label means the program or the
benchmark broke in a new way.
"""

from __future__ import annotations

import csv
import math
import os

KNOWN_DEFECTS = frozenset({
    "opuc.tau_le_eta",           # 128-bit eta_n < tau_n, no escalation fires
    "pipeline.bookkeeping_gap",  # norm split off by up to ~1, masses off the axis
})

VS_BOUND_COLUMNS = ["kind", "n", "seed", "epsilon", "sup_phi", "phi0_err",
                    "ratio_s1", "besov_ratio_s1", "ratio_s2",
                    "besov_ratio_s2", "max_ratio"]
OPUC_COLUMNS = ["n", "tau_n", "eta_n", "target", "tau_error", "eta_error"]
RESIDUE_COLUMNS = ["n", "k", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                   "abs_diff", "schwarz_majorant", "grid"]
PIPELINE_COLUMNS = ["route", "n", "selection_cap", "margin_reciprocal",
                    "radius", "selected_count", "sup_defect",
                    "apriori_defect", "schedule_decay", "inverse_tail",
                    "leading_gap", "ac_norm", "inside_mass_sum",
                    "tail_mass_sum", "tail_majorant", "total_norm",
                    "lower_bound_achieved", "schwarz_excess", "schwarz_pass"]


def read_csv(path: str):
    """(header, rows as dicts), or (None, []) if the file is missing."""
    if not os.path.isfile(path):
        return None, []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [dict(zip(header, r)) for r in reader] if header else []
    return header, rows


def psi0(measure: dict) -> float:
    return float(measure["psi"][0][0])


def target(measure: dict) -> float:
    """B(0) psi(0): psi(0) times the product of 1/|z_k|."""
    out = psi0(measure)
    for re, im, _ in measure["masses"]:
        out /= abs(complex(re, im))
    return out


def _f(row: dict, key: str) -> float:
    return float(row[key])


class Malformed(ValueError):
    """The CSV does not have the columns or rows the request asked for."""


def _expect(cond: bool) -> None:
    if not cond:
        raise Malformed("shape")


def check_vs_bound(req, header, rows) -> list:
    _expect(header == VS_BOUND_COLUMNS and len(rows) == 1)
    row, man = rows[0], req.manifest
    bad = []
    if (row["kind"], int(row["n"]), int(row["seed"])) != (
            man["kinds"][0], man["n_grid"][0], man["seed"]):
        bad.append("vs-bound.inputs")
    n, eps = int(row["n"]), _f(row, "epsilon")
    if not _f(row, "phi0_err") <= 1e-12:
        bad.append("vs-bound.phi0_err")
    if not _f(row, "sup_phi") <= (1.0 + eps / n) ** n + 1e-9:
        bad.append("vs-bound.sup_phi")
    ratios = [_f(row, k) for k in VS_BOUND_COLUMNS[6:]]
    if not all(math.isfinite(r) and r > 0.0 for r in ratios):
        bad.append("vs-bound.ratios")
    return [bad]


def check_besov(req, header, rows) -> list:
    _expect(header == ["k", "n", "identity_pass"] and len(rows) > 0)
    out = []
    for row in rows:
        bad = []
        if (1 << int(row["k"])) > int(row["n"]):
            bad.append("besov.domain")
        if row["identity_pass"] != "True":
            bad.append("besov.identity_pass")
        out.append(bad)
    return out


def check_opuc(req, header, rows) -> list:
    _expect(header == OPUC_COLUMNS
            and [int(r["n"]) for r in rows] == req.manifest["n_grid"])
    mu = req.measure
    p0, limit = psi0(mu), target(mu)
    out = []
    for row in rows:
        tau, eta = _f(row, "tau_n"), _f(row, "eta_n")
        bad = []
        if not abs(_f(row, "target") - limit) <= 1e-12 * limit:
            bad.append("opuc.target")
        if not tau > 0.0:
            bad.append("opuc.tau_positive")
        if not tau <= eta + 1e-12:
            bad.append("opuc.tau_le_eta")
        if not mu["masses"] and not (abs(tau - p0) <= 1e-10
                                     and abs(eta - p0) <= 1e-10):
            bad.append("opuc.bernstein_szego")
        out.append(bad)
    return out


def check_residue(req, header, rows) -> list:
    man = req.manifest
    expect = [(n, k) for n in man["n_grid"] for k in man["k_list"]]
    _expect(header == RESIDUE_COLUMNS
            and [(int(r["n"]), int(r["k"])) for r in rows] == expect)
    out = []
    for row in rows:
        gap = abs(complex(_f(row, "lhs_re"), _f(row, "lhs_im"))
                  - complex(_f(row, "rhs_re"), _f(row, "rhs_im")))
        ok = _f(row, "abs_diff") <= 1e-8 and gap <= 1e-8
        out.append([] if ok else ["residue.abs_diff"])
    return out


def bookkeeping_gap(row: dict) -> float:
    """Relative gap of total_norm^2 against ac + inside + tail."""
    total_sq = _f(row, "total_norm") ** 2
    pieces = (_f(row, "ac_norm") + _f(row, "inside_mass_sum")
              + _f(row, "tail_mass_sum"))
    return abs(total_sq - pieces) / total_sq


def check_pipeline(req, header, rows) -> list:
    expect = [(route, n) for route in ("vp", "taylor")
              for n in req.manifest["n_grid"]]
    _expect(header == PIPELINE_COLUMNS
            and [(r["route"], int(r["n"])) for r in rows] == expect)
    # psi(0) is the mass-free optimum, an upper bound on every lower bound;
    # the 1e-12 allows for rounding when the measure has no masses
    upper = psi0(req.measure) + 1e-12
    out = []
    for row in rows:
        bad = []
        if row["schwarz_pass"] != "True":
            bad.append("pipeline.schwarz_pass")
        if not bookkeeping_gap(row) <= 1e-12:
            bad.append("pipeline.bookkeeping_gap")
        if not 0.0 < _f(row, "lower_bound_achieved") <= upper:
            bad.append("pipeline.lower_bound")
        out.append(bad)
    return out


def check_log_condition(req, header, rows) -> list:
    _expect(header == ["n", "tail_sum", "weighted_A1", "weighted_A2"]
            and len(rows) > 0)
    masses = [(abs(complex(re, im)), m) for re, im, m in req.measure["masses"]]
    out = []
    for row in rows:
        n = int(row["n"])
        tail = sum(m for r, m in masses if 1.0 < r < 1.0 + 1.0 / n)
        bad = []
        if not abs(_f(row, "tail_sum") - tail) <= 1e-12:
            bad.append("log-condition.tail_sum")
        for a in (1, 2):
            want = math.log(n) ** a * tail
            if not abs(_f(row, f"weighted_A{a}") - want) <= 1e-12 * max(1.0, want):
                bad.append("log-condition.weighted")
        out.append(bad)
    return out


CHECKERS = {
    "vs-bound": check_vs_bound,
    "besov": check_besov,
    "opuc": check_opuc,
    "residue-check": check_residue,
    "pipeline": check_pipeline,
    "log-condition": check_log_condition,
}


def check_request(req, exit_code, csv_path: str) -> tuple[list, int]:
    """(failure labels, rows written) for one finished request.

    exit_code is the CLI's return value, or a string naming the exception
    that escaped it.
    """
    if exit_code != 0:
        return [f"{req.command}.exit_{exit_code}"], 0
    header, rows = read_csv(csv_path)
    if header is None:
        return [f"{req.command}.no_csv"], 0
    try:
        per_row = CHECKERS[req.command](req, header, rows)
    except Malformed:
        return [f"{req.command}.shape"], len(rows)
    except (KeyError, ValueError) as exc:
        return [f"{req.command}.unreadable_{type(exc).__name__}"], len(rows)
    return sorted({label for bad in per_row for label in bad}), len(rows)
