"""End-to-end tests for the command-line runner.

Each test drives main() in process with a manifest written into tmp_path
and inspects the CSV/JSON artifacts.  The generators are checked against
their defining constructions, the exit-code contract is exercised for all
four classes, and byte determinism is checked over repeated runs.
"""

import collections
import copy
import csv
import io
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from szego_lab.asymptotics import PipelineCertificate
from szego_lab.measure_opuc import QuadratureError
from szego_lab.cli import generate_zeros, main
from szego_lab.xlinalg import NotPositiveDefinite

import szego_lab.asymptotics as asym
import szego_lab.blaschke as blaschke
import szego_lab.circle_fourier as circle_fourier
import szego_lab.cli as cli
import szego_lab.measure_opuc as mo


TWO_MASS_JSON = {"psi": [[1.0, 0.0]],
                 "masses": [[1.5, 0.0, 0.3], [-1.25, 0.0, 0.1]],
                 "precision_bits": 256}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(out_dir):
    with open(os.path.join(out_dir, "certificates.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def run_main(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def error_payload(out):
    return json.loads(out)["error"]


# ----------------------------------------------------------------------
# zero-set generation


def test_generate_zeros_reproducible():
    a = generate_zeros("uniform_disk", 1, 0)
    b = generate_zeros("uniform_disk", 1, 0)
    assert a.zeros == b.zeros
    assert len(a.zeros) == 1
    assert abs(a.zeros[0]) < 1.0
    c = generate_zeros("uniform_disk", 1, 1)
    assert c.zeros != a.zeros


def test_generate_zeros_boundary_cluster():
    zs = generate_zeros("boundary_cluster", 16, 3).zeros
    assert len(zs) == 16
    for z in zs:
        assert 1.0 - 4.0 / 16 <= abs(z) <= 1.0 - 1.0 / 64


def test_generate_zeros_radial_line():
    zs = generate_zeros("radial_line", 4, 2).zeros
    assert len(zs) == 4
    ratios = [zs[i + 1] / zs[i] for i in range(3)]
    for q in ratios:
        assert q == pytest.approx(ratios[0], rel=1e-12)
        assert abs(q.imag) < 1e-12 and 0 < q.real < 1
    assert abs(zs[0]) == pytest.approx(abs(ratios[0]), rel=1e-12)


def test_generate_zeros_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        generate_zeros("uniform_disk", 0, 0)
    with pytest.raises(ValueError, match="unknown zero-set kind"):
        generate_zeros("annulus", 4, 0)


# ----------------------------------------------------------------------
# subcommand artifacts


def test_vs_bound_artifacts(tmp_path, capsys):
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [4, 8], "seeds": 2,
        "kinds": ["uniform_disk", "boundary_cluster"],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert len(rows) == 8
    header = list(rows[0])
    assert header == ["kind", "n", "seed", "epsilon", "sup_phi", "phi0_err",
                      "ratio_s1", "besov_ratio_s1", "ratio_s2",
                      "besov_ratio_s2", "max_ratio"]
    for row in rows:
        n = int(row["n"])
        assert float(row["sup_phi"]) <= (1.0 + 1.0 / n) ** n + 1e-9
        assert float(row["phi0_err"]) <= 1e-12
        assert float(row["max_ratio"]) == max(float(row["ratio_s1"]),
                                              float(row["ratio_s2"]))
    report = read_report(str(tmp_path / "out"))
    assert report["summary"]["max_sup_phi_excess"] < 0.0
    # the upper bounds go to report.json only, as the worst upper/value
    worst = report["summary"]["max_upper_over_value"]
    assert list(worst) == ["sup_phi", "ratio_s1", "ratio_s2"]
    assert all(1.0 < v < 1.5 for v in worst.values())


def test_vs_bound_report_records_the_sampling_sizes(tmp_path, capsys):
    # boundary_cluster, n = 256, eps = 1, seed 1: the truncation degree D,
    # the alias grid and the trim degree K go to report.json only.  K
    # counts rounding noise, so it moves with the samples' order of
    # operations
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [256], "seed": 1, "seeds": 1,
        "kinds": ["boundary_cluster"], "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0
    row = read_report(str(tmp_path / "out"))["rows"][0]
    assert (row["truncation_degree"], row["alias_grid"], row["trim_degree"]) \
        == (6271, 8192, 3567)
    header = list(read_rows(str(tmp_path / "out"))[0])
    assert not {"truncation_degree", "alias_grid", "trim_degree"} & set(header)


def test_opuc_report_records_each_values_guard_and_radius(tmp_path, capsys):
    # psi = (1 - z/5)(1 - z/(10/3)) with the README's masses, 128 bits:
    # tau_1 and eta_1 come from the Gram route (degree below deg psi) and
    # record none; every closed-form value certifies in one run, at 32
    # guard bits, its relative radius below 2^-(128 + 32).  report.json only
    measure = write_json(tmp_path / "mu.json", dict(
        TWO_MASS_JSON, psi=[[1.0, 0.0], [-0.5, 0.0], [0.06, 0.0]],
        precision_bits=128))
    man = write_json(tmp_path / "man.json", {
        "command": "opuc", "measure_file": measure, "n_grid": [1, 4, 48],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "opuc", "--manifest", man)
    assert code == 0, out
    rows = read_report(str(tmp_path / "out"))["rows"]
    assert [rows[0][key] for key in ("tau_guard_bits", "tau_relative_radius",
                                     "eta_guard_bits", "eta_relative_radius")
            ] == [None] * 4
    for row in rows[1:]:
        for key in ("tau", "eta"):
            assert row[f"{key}_guard_bits"] == 32, (row["n"], key)
            assert 0.0 < row[f"{key}_relative_radius"] < 2.0 ** -160
    header = list(read_rows(str(tmp_path / "out"))[0])
    assert header == ["n", "tau_n", "eta_n", "target", "tau_error",
                      "eta_error"]


def test_vs_bound_report_records_the_besov_blocks_sized(tmp_path, capsys):
    # n = 256, eps = 1, seed 1: of the nonzero dyadic blocks (besov_blocks)
    # only those whose l1 norm can still reach the largest weighted sup take
    # a sup grid (besov_sups), at most 5 for each kind; report.json only
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [256], "seed": 1, "seeds": 1,
        "kinds": ["uniform_disk", "boundary_cluster", "radial_line"],
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0
    for row in read_report(str(tmp_path / "out"))["rows"]:
        assert 10 <= row["besov_blocks"] <= 14, row["kind"]
        assert 1 <= row["besov_sups"] <= 5, row["kind"]
    header = list(read_rows(str(tmp_path / "out"))[0])
    assert not {"besov_blocks", "besov_sups"} & set(header)


def test_vs_bound_certifies_a_zero_set_with_subnormal_zeros(tmp_path, capsys):
    # radial_line, n = 1024, seed 3 holds 35 subnormal zeros (and 304 that
    # underflow to 0), whose rotations -|z_k|/z_k overflow unless scaled
    zeros = generate_zeros("radial_line", 1024, 3).zeros
    assert sum(0.0 < abs(z) < 2.0 ** -1022 for z in zeros) == 35
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [1024], "seed": 3, "seeds": 1,
        "kinds": ["radial_line"], "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0, out
    row = read_report(str(tmp_path / "out"))["rows"][0]
    for key in ("sup_phi", "ratio_s1", "ratio_s2"):
        upper = row[f"{key}_upper"]
        assert upper is not None and math.isfinite(upper)
        assert 0.0 < row[key] <= upper
    # those zeros set to 0 change B phi0 by a unimodular constant only
    tiny = tuple(0j if abs(z) < 2.0 ** -1022 else z for z in zeros)
    plain = cli.corrector_certificate(cli.build_corrector(cli.ZeroSet(tiny), 1.0))
    for key in ("sup_phi", "ratio_s1", "ratio_s2"):
        assert row[key] == pytest.approx(plain[key], rel=1e-12, abs=0.0)
        assert row[f"{key}_upper"] == pytest.approx(plain[f"{key}_upper"],
                                                    rel=1e-12, abs=0.0)


def test_vs_bound_refuses_a_non_finite_sample(tmp_path, capsys, monkeypatch):
    # a NaN sample leaves no grid bound: a numeric failure, exit 3
    monkeypatch.setattr(blaschke, "eval_B_phi",
                        lambda c, z: np.full(np.shape(z), np.nan, dtype=complex))
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [8], "kinds": ["uniform_disk"],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 3, out
    assert error_payload(out)["type"] == "NonFiniteGridError"


def test_vs_bound_summary_measures_the_run_epsilon(tmp_path, capsys,
                                                  monkeypatch):
    # a sup_phi 1% above (1 + eps/n)^n breaks the bound of an eps = 0.1 run
    # while staying far below (1 + 1/n)^n, so the summary must show it
    real = cli.corrector_certificate

    def inflated(c, *args):
        cert = real(c, *args)
        cert["sup_phi"] = 1.01 * (1.0 + c.epsilon / c.n) ** c.n
        return cert

    monkeypatch.setattr(cli, "corrector_certificate", inflated)
    man = write_json(tmp_path / "man.json", {
        "command": "vs-bound", "n_grid": [4, 8], "seeds": 1,
        "epsilon": 0.1, "kinds": ["uniform_disk"],
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0
    excess = read_report(str(tmp_path / "out"))["summary"]["max_sup_phi_excess"]
    bound = max((1.0 + 0.1 / n) ** n for n in (4, 8))
    assert excess == pytest.approx(0.01 * bound, rel=1e-12)


def test_besov_artifacts(tmp_path, capsys):
    man = write_json(tmp_path / "man.json", {
        "n_grid": [8, 32], "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "besov", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    # k runs over 2^k <= n: four pairs at n=8, six at n=32
    assert [(r["k"], r["n"]) for r in rows] == (
        [(str(k), "8") for k in range(4)] + [(str(k), "32") for k in range(6)])
    assert all(r["identity_pass"] == "True" for r in rows)
    assert read_report(str(tmp_path / "out"))["summary"]["all_pass"] is True


def test_opuc_artifacts(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [2, 4, 8], "which": "both",
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "opuc", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert list(rows[0]) == ["n", "tau_n", "eta_n", "target",
                             "tau_error", "eta_error"]
    assert [r["n"] for r in rows] == ["2", "4", "8"]
    for row in rows:
        assert float(row["target"]) == pytest.approx(8.0 / 15.0, abs=1e-12)
        assert float(row["tau_n"]) > float(row["target"])
    errs = [float(r["eta_error"]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    report = read_report(str(tmp_path / "out"))
    assert report["trend"] == {"tau": True, "eta": True}
    assert report["reproducibility"]["schedule"] is None


@pytest.mark.parametrize("c0", [1e-30, 1e10])
def test_opuc_at_any_scale_of_psi(tmp_path, capsys, c0):
    # psi = c0 has tau_n = eta_n = c0; the moment 1/c0^2 is held at its own
    # scale, so 53 bits read it to the last bit at 1e60 and at 1e-20 alike
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[c0, 0]], "masses": [], "precision_bits": 53})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [2, 8], "which": "both",
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "opuc", "--manifest", man)
    assert code == 0, out
    for row in read_rows(str(tmp_path / "out")):
        assert float(row["tau_n"]) == pytest.approx(c0, rel=1e-14)
        assert float(row["eta_n"]) == pytest.approx(c0, rel=1e-14)


def test_opuc_builds_gram_matrices_only_up_to_deg_psi(tmp_path, capsys,
                                                     monkeypatch):
    # without masses each value is one Gram build of at most deg psi + 1
    # exponents (tau_n = tau_(min(n, deg psi)), eta_n = tau_(2n-1)); with
    # masses and n >= deg psi the closed form builds none
    builds = []

    def spy(mu, exps, bits, real=mo._gram_from_exponents):
        builds.append(len(exps))
        return real(mu, exps, bits)

    monkeypatch.setattr(mo, "_gram_from_exponents", spy)
    psi = [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]]
    for masses, want in (([], [3] * 6), ([[1.5, 0.8, 0.3]], [])):
        builds.clear()
        measure = write_json(tmp_path / "mu.json", {
            "psi": psi, "masses": masses, "precision_bits": 128})
        man = write_json(tmp_path / "man.json", {
            "measure_file": measure, "n_grid": [16, 32, 48], "which": "both",
            "out_dir": str(tmp_path / "out")})
        code, out = run_main(capsys, "opuc", "--manifest", man)
        assert code == 0, out
        assert builds == want, masses


def test_version_probe_runs_once_per_process(tmp_path, monkeypatch):
    calls = []

    def fake_run(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n",
                                           stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    cli._version_string.cache_clear()
    try:
        for name in ("a", "b"):
            path = write_json(tmp_path / f"{name}.json", {
                "n_grid": [8], "out_dir": str(tmp_path / name)})
            cli.run(cli.load_manifest("besov", path, {}))
            version = read_report(str(tmp_path / name))[
                "reproducibility"]["version"]
            assert version.endswith("+gabc1234")
    finally:
        cli._version_string.cache_clear()
    assert len(calls) <= 1


def test_pipeline_artifacts(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [8, 16], "route": "both",
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert list(rows[0]) == list(PipelineCertificate.FIELDS)
    assert [(r["route"], r["n"]) for r in rows] == [
        ("vp", "8"), ("vp", "16"), ("taylor", "8"), ("taylor", "16")]
    assert all(r["schwarz_pass"] == "True" for r in rows)
    report = read_report(str(tmp_path / "out"))
    assert report["summary"]["target_limit"] == pytest.approx(8.0 / 15.0)
    assert report["summary"]["best_lower_bound"] <= 8.0 / 15.0 + 1e-10
    repro = report["reproducibility"]
    assert list(repro) == ["seed", "precision_bits", "oversample",
                           "schedule", "version"]
    assert repro["precision_bits"] == 256
    assert repro["schedule"]["eps"]["family"] == "inv_loglog_sq"
    assert repro["version"].startswith("szego-lab-")


@pytest.mark.parametrize("psi", [
    [[1e-300, 0]], [[1e-100, 0], [-5e-101, 0]],
], ids=["1e-300", "1e-100-degree-1"])
def test_pipeline_at_the_scale_of_psi(tmp_path, capsys, psi):
    # the pipeline holds psi at psi(0)'s own scale, so a small psi(0) keeps
    # its bits: each lower bound is at most the exact tau_n and eta_n, and
    # the norm bookkeeping closes
    measure = write_json(tmp_path / "mu.json", {
        "psi": psi, "masses": [[1.5, 0, 0.3]], "precision_bits": 128})
    exact = {}
    for command, fields in (("opuc", {"which": "both"}),
                            ("pipeline", {"route": "both"})):
        man = write_json(tmp_path / f"{command}.json", dict(
            fields, measure_file=measure, n_grid=[8, 16],
            out_dir=str(tmp_path / command)))
        code, out = run_main(capsys, command, "--manifest", man)
        assert code == 0, (command, out)
        rows = read_rows(str(tmp_path / command))
        if command == "opuc":
            exact = {r["n"]: min(float(r["tau_n"]), float(r["eta_n"]))
                     for r in rows}
    assert len(rows) == 4
    for row in rows:
        lower = float(row["lower_bound_achieved"])
        norm = float(row["total_norm"])
        assert 0 < lower <= exact[row["n"]], row
        pieces = sum(float(row[key]) for key in (
            "ac_norm", "inside_mass_sum", "tail_mass_sum"))
        assert abs(norm ** 2 - pieces) <= 1e-12 * norm ** 2, row
        assert row["schwarz_pass"] == "True"


def test_residue_check_artifacts(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4], "k_list": [0, 1, 2],
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert [(r["n"], r["k"]) for r in rows] == [("4", "0"), ("4", "1"),
                                                ("4", "2")]
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-8
        assert "quad_bound" not in row
    report = read_report(str(tmp_path / "out"))
    assert report["summary"]["max_abs_diff"] <= 1e-8
    # each row's certified quadrature bound, in report.json only, meets the
    # grid's target 2^(14 - bits)
    for row in report["rows"]:
        assert 0 < row["quad_bound"] <= 2.0 ** (14 - 256)


def test_residue_check_without_masses(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", {"psi": [[1.0, 0.0]],
                                                "precision_bits": 53})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [1, 2, 4],
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert [(r["n"], r["k"]) for r in rows] == [("1", "0"), ("2", "0"),
                                                ("4", "0")]
    assert all(float(r["abs_diff"]) == 0.0 for r in rows)


@pytest.mark.parametrize("c0", [2.0 ** 62, 1e30], ids=["2^62", "1e30"])
def test_residue_check_at_any_scale_of_psi(tmp_path, capsys, c0):
    # a large psi(0) only rescales the measure's continuous part; the node
    # table works in psi's own scale, so the quadrature converges on the
    # grid it takes at psi(0) = 1 and to the same tolerance
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[c0, 0.0], [-0.5, 0.2]],
        "masses": [[1.5, 0.0, 0.3], [-1.25, 0.5, 0.1]],
        "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4], "k_list": [0, 1],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0, out
    rows = read_rows(str(tmp_path / "out"))
    assert [r["k"] for r in rows] == ["0", "1"]
    for row in rows:
        assert int(row["grid"]) <= 512
        assert float(row["abs_diff"]) <= 2.0 ** (16 - 128)


@pytest.mark.parametrize("psi", [
    [[1.0, 0], [-1.8, 0], [0.81, 0]],  # (1 - 0.9 z)^2, min |psi| 0.01
    [[math.comb(8, j) * (-0.5) ** j, 0] for j in range(9)],  # (1 - z/2)^8
    [[1.0, 0], [-0.995, 0]],  # its zero at 1.005
], ids=["square", "degree-8", "near-circle"])
def test_residue_check_on_psi_with_a_small_minimum(tmp_path, capsys, psi):
    # min |psi| on the circle is below 2 pi/1024 times psi's derivative
    # bound, so certifying it takes more than 1,024 samples; every row
    # still runs, to the check's tolerance and inside its certified bound
    measure = write_json(tmp_path / "mu.json", {
        "psi": psi, "masses": [[1.5, 0.0, 0.3]], "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4, 8], "k_list": [0, 1],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0, out
    rows = read_rows(str(tmp_path / "out"))
    assert len(rows) == 4
    for row in rows:
        assert float(row["abs_diff"]) <= 2.0 ** (16 - 128)
    for row in read_report(str(tmp_path / "out"))["rows"]:
        assert 0 < row["quad_bound"] <= 2.0 ** (14 - 128)


def test_residue_check_bounds_clustered_zeros_of_psi_locally(tmp_path,
                                                           capsys):
    # (1 - z/2)^8: |psi| is certified on the ladder's circles up to
    # |y| = 1.81, so each row's inside alias bound is small on at most 512
    # nodes (256 here; a global derivative bound took 1,024)
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[math.comb(8, j) * (-0.5) ** j, 0] for j in range(9)],
        "masses": [[1.5, 0.0, 0.3]], "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4, 8], "k_list": [0, 1],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0, out
    rows = read_rows(str(tmp_path / "out"))
    assert len(rows) == 4
    assert all(int(row["grid"]) <= 512 for row in rows)


def test_residue_check_refuses_a_table_past_its_memory_budget(
        tmp_path, capsys, monkeypatch):
    # three masses at 512 bits, one at 1.0005: the certified grid is 2^20
    # nodes, within the node cap, but its table would hold about 1.2 GiB,
    # so the run exits 3 before any node is evaluated
    def no_node(*args):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(mo, "_node_values", no_node)
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0]], "precision_bits": 512,
        "masses": [[1.0005, 0, 0.3], [-1.5, 0, 0.2], [0, 1.5, 0.1]]})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4], "k_list": [3],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 3, out
    err = json.loads(out, parse_constant=refuse_constant)["error"]
    assert err["type"] == "QuadratureError"
    assert "the residue table of 1048576 nodes needs about 1.22 GiB" in (
        err["message"])
    assert "budget of 1 GiB" in err["message"]


def test_residue_check_solves_one_element_per_n(tmp_path, capsys,
                                               monkeypatch):
    # the node table takes the closed-form element of each n once and keeps
    # it for every k
    solves = []
    real = mo._closed_form_element

    def counted(mu, n, frac):
        solves.append(n)
        return real(mu, n, frac)

    monkeypatch.setattr(mo, "_closed_form_element", counted)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4, 6], "k_list": [0, 1, 2],
        "out_dir": str(tmp_path / "out")})
    assert run_main(capsys, "residue-check", "--manifest", man)[0] == 0
    assert len(read_rows(str(tmp_path / "out"))) == 6
    assert solves == [4, 6]


def test_residue_check_builds_no_gram_matrix(tmp_path, capsys, monkeypatch):
    # on both frozen measures and a mass-free psi every row has
    # 2n - 1 >= deg psi, so no Gram matrix is built and no Gram witness
    # solved
    def refuse(*args, **kwargs):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(mo, "_gram_from_exponents", refuse)
    monkeypatch.setattr(mo, "_extremal", refuse)
    measures = dict(RESIDUE_FROZEN_MEASURES, mass_free={
        "psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]], "precision_bits": 128})
    for label, measure in measures.items():
        man = write_json(tmp_path / f"{label}-man.json", {
            "measure_file": write_json(tmp_path / f"{label}.json", measure),
            "n_grid": [2, 4, 8, 12], "out_dir": str(tmp_path / label)})
        code, out = run_main(capsys, "residue-check", "--manifest", man)
        assert code == 0, (label, out)
        rows = read_rows(str(tmp_path / label))
        assert rows and all(float(r["abs_diff"]) <= 2.0 ** (
            16 - measure["precision_bits"]) for r in rows), label


def test_residue_check_reaches_n_170_with_a_far_mass(tmp_path, capsys):
    # the Gram witness of this row needed 64 + 2n log2 3 = 603 bits, past
    # the top tag, and failed at pivot 334; the closed form settles
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0], [-0.5, 0]], "masses": [[3, 0, 1]],
        "precision_bits": 512})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [170], "k_list": [0],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0, out
    (row,) = read_rows(str(tmp_path / "out"))
    assert float(row["abs_diff"]) <= 1e-8
    assert abs(float(row["rhs_re"]) - 1 / 3) <= 1e-12  # eta_n -> psi(0)/|z|


def test_residue_check_certifies_each_row_once(tmp_path, capsys,
                                              monkeypatch):
    # the node table computes each row's right-hand side and certified grid
    # once, when it is built, and the checks read them from it
    rows = []
    real = mo.ResidueNodes._sides

    def counted(self, k):
        rows.append((self._n, k))
        return real(self, k)

    monkeypatch.setattr(mo.ResidueNodes, "_sides", counted)
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
        "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]],
        "precision_bits": 256})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4, 8, 12, 24], "k_list": [0, 1, 2],
        "out_dir": str(tmp_path / "out")})
    assert run_main(capsys, "residue-check", "--manifest", man)[0] == 0
    assert len(read_rows(str(tmp_path / "out"))) == 12
    assert rows == [(n, k) for n in (4, 8, 12, 24) for k in (0, 1, 2)]


RESIDUE_FROZEN = os.path.join(os.path.dirname(__file__), "data",
                              "residue_check_frozen.csv")

# the README's two-mass measure and a complex psi with two complex masses
RESIDUE_FROZEN_MEASURES = {
    "readme_two_mass": {"psi": [[1.0, 0.0], [-0.5, 0.0]],
                        "masses": [[1.5, 0.0, 0.3], [-1.25, 0.0, 0.1]],
                        "precision_bits": 256},
    "complex_psi": {"psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
                    "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]],
                    "precision_bits": 128},
}


# columns that must match residue_check_frozen.csv byte for byte; lhs_re,
# lhs_im and abs_diff carry the rounding of the quadrature's numerator sum,
# and the certified grid is at most the doubling's grid the file holds
RESIDUE_EXACT_COLUMNS = ("n", "k", "rhs_re", "rhs_im", "schwarz_majorant")


def test_residue_check_matches_frozen_csv(tmp_path, capsys):
    # residue_check_frozen.csv holds certificates.csv of both measures, each
    # line prefixed with the measure's name.  The header and the exact
    # columns match it byte for byte; lhs_re and lhs_im lie within
    # 2^(16 - bits) of it, abs_diff is at most 2^(16 - bits), and the grid
    # is at most the frozen one
    with open(RESIDUE_FROZEN, newline="") as fh:
        frozen_header = fh.readline()
        frozen = list(csv.DictReader(fh, fieldnames=frozen_header.strip().split(",")))
    got = []
    for label, measure in RESIDUE_FROZEN_MEASURES.items():
        man = write_json(tmp_path / f"{label}-man.json", {
            "measure_file": write_json(tmp_path / f"{label}.json", measure),
            "n_grid": [4, 8, 12], "k_list": [0, 1, 2],
            "out_dir": str(tmp_path / label)})
        assert run_main(capsys, "residue-check", "--manifest", man)[0] == 0
        with open(tmp_path / label / "certificates.csv", newline="") as fh:
            assert "measure," + fh.readline() == frozen_header
            fh.seek(0)
            got += [(measure["precision_bits"], dict(row, measure=label))
                    for row in csv.DictReader(fh)]
    assert len(got) == len(frozen)
    for (bits, row), want in zip(got, frozen):
        tol = 2.0 ** (16 - bits)
        where = (row["measure"], row["n"], row["k"])
        assert row["measure"] == want["measure"], where
        for col in RESIDUE_EXACT_COLUMNS:
            assert row[col] == want[col], (where, col)
        assert int(row["grid"]) <= int(want["grid"]), where
        for col in ("lhs_re", "lhs_im"):
            assert abs(float(row[col]) - float(want[col])) <= tol, (where, col)
        assert float(row["abs_diff"]) <= tol, where


def _data_script(name):
    """The script tests/data/NAME.py, loaded as a module."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _make_frozen():
    return _data_script("make_frozen")


def test_opuc_matches_frozen_csv(capsys):
    # opuc_frozen.csv holds the opuc CSVs of three mass-free measures with
    # complex psi of degree 1 to 3 and two measures with two masses, each at
    # 53, 128 and 256 bits, as the code before the fixed-point Cholesky
    # wrote them (make_frozen.py).  The 128- and 256-bit rows match byte for
    # byte.  At 53 bits every mass-free row now reads tau_n = eta_n =
    # psi(0) = 1.0 exactly, where the frozen file holds 1.0000000000000002
    # for complex_d1 at n = 4, 8, 16, complex_d3's eta_n at n = 4 and both
    # at n = 8, 16; so at 53 bits the values agree to 2^-50
    make_frozen = _make_frozen()
    name = "opuc_frozen.csv"
    got = make_frozen.frozen_text(
        name, lambda command, manifest: main([command, "--manifest", manifest]))
    capsys.readouterr()
    with open(os.path.join(make_frozen.HERE, name), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    assert got.splitlines()[0] == want.splitlines()[0]
    got_rows = list(csv.DictReader(got.splitlines()))
    want_rows = list(csv.DictReader(want.splitlines()))
    assert len(got_rows) == len(want_rows) == 45
    for new, old in zip(got_rows, want_rows):
        where = (old["measure"], old["bits"], old["n"])
        if old["bits"] != "53":
            assert new == old, where
            continue
        for key in ("measure", "bits", "n", "target"):
            assert new[key] == old[key], where
        for key in ("tau_n", "eta_n", "tau_error", "eta_error"):
            assert abs(float(new[key]) - float(old[key])) <= 2.0 ** -50, (where, key)


# pipeline_frozen.csv columns within 1e-13 relative; the other columns but
# sup_defect and schwarz_excess are integers, bools and doubles from
# unchanged double-precision code, and match byte for byte
PIPELINE_CLOSE_COLUMNS = ("ac_norm", "inside_mass_sum", "tail_mass_sum",
                          "total_norm", "lower_bound_achieved", "leading_gap")


def test_pipeline_matches_frozen_csv(capsys):
    # pipeline_frozen.csv holds both routes at n = 8, 16, 32, 64 on three
    # measures, as the code before the fixed-point pipeline wrote them
    # (make_frozen.py).  The approximant's coefficients are now rounded
    # once from fixed point instead of by mpmath recurrences; both round at
    # the pipeline's working bits, and values at the mass points see that
    # rounding amplified by |z|^n to about 2^-64 of the coefficient scale,
    # so a mass sum m |v|^2 moves by up to 2^-63 sqrt of itself, which the
    # relative bound misses only for sums below ~1e-26.  sup_defect was a
    # max of |approximant - target| sampled in double precision, and is now
    # sup_norm_certified's value on the exact series of their difference;
    # schwarz_excess builds on it, with the approximant by Horner's rule at
    # the Schwarz points.  The frozen values carry the rounding of the
    # size-one values they were differences of, so both agree to 4e-15
    # absolute, 16 units of that rounding.  leading_gap is now taken against
    # target_limit, which rounds each 1/|z| where the frozen run rounded
    # |1/z|: the limit, below 1 on these measures, moves by a few units in
    # its last place, and the gap with it (5.6e-17 on complex_two_mass), so
    # the gap is also allowed 2^-52 absolute.  apriori_defect took sup |p|
    # on |z| = R as a max over 2048 nodes, which can miss a peak between
    # them; it now takes the bound sum |p_j| R^j, so each value is that
    # closed form, never below the frozen one, and equal to it where the
    # peak sat on a node (the two real-psi measures)
    make_frozen = _make_frozen()
    name = "pipeline_frozen.csv"
    got = make_frozen.frozen_text(
        name, lambda command, manifest: main([command, "--manifest", manifest]))
    capsys.readouterr()
    with open(os.path.join(make_frozen.HERE, name), encoding="utf-8",
              newline="") as fh:
        want = fh.read()
    assert got.splitlines()[0] == want.splitlines()[0]
    got_rows = list(csv.DictReader(got.splitlines()))
    want_rows = list(csv.DictReader(want.splitlines()))
    assert len(got_rows) == len(want_rows) == 24
    for new, old in zip(got_rows, want_rows):
        where = (old["measure"], old["route"], old["n"])
        for key in old:
            a, b = new[key], old[key]
            if key in ("sup_defect", "schwarz_excess"):
                assert abs(float(a) - float(b)) <= 4e-15, (where, key)
            elif key in PIPELINE_CLOSE_COLUMNS:
                a, b = float(a), float(b)
                floor = 0.0
                if "mass" in key:
                    floor = 2.0 ** -63 * math.sqrt(abs(b))
                elif key == "leading_gap":
                    floor = 2.0 ** -52
                assert abs(a - b) <= 1e-13 * abs(b) + floor, (where, key)
            elif key == "apriori_defect":
                psi = make_frozen.PIPELINE_MEASURES[old["measure"]]["psi"]
                r, k, n = (float(new["radius"]), int(new["selected_count"]),
                           int(new["n"]))
                p_abs = sum(math.hypot(*c) * r ** j for j, c in enumerate(psi))
                bound = r ** k * p_abs * r ** -(n + 1) / (1.0 - 1.0 / r)
                a, b = float(a), float(b)
                assert a == pytest.approx(bound, rel=1e-15) and a >= b, where
                if old["measure"] != "complex_two_mass":
                    assert a == b, where
            else:
                assert a == b, (where, key)


# constant psi with three masses, one off the real axis
CONST_PSI_THREE_MASS = {"psi": [[1.0, 0.0]],
                        "masses": [[1.5, 0.0, 0.3], [-1.25, 0.0, 0.2],
                                   [0.4, 1.3, 0.1]],
                        "precision_bits": 256}


def test_pipeline_at_psi_1e300_runs_with_warnings_as_errors(tmp_path):
    # the defect's sup runs at psi's own scale, psi(0) 2^-s in [1, 2), so
    # the refiner's Newton step no longer overflows at psi(0) = 1e300
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1e300, 0]], "masses": [[1.5, 0, 0.3]], "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [8, 16], "route": "vp",
        "out_dir": str(tmp_path / "out")})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "szego_lab.cli",
         "pipeline", "--manifest", man], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""
    for row in read_rows(str(tmp_path / "out")):
        assert 0 < float(row["sup_defect"]) < math.inf, row


@pytest.mark.parametrize("bits", [128, 256])
def test_report_names_the_bits_of_each_pipeline_row(tmp_path, capsys, bits):
    # report.json only: each row's working bits f = bits_pipe + 32 and its
    # norms' bits max(precision, f); both masses are selected, so
    # bits_pipe = max(128, 64 + ceil(n log2 1.5)), 128, 139, 214 and 364
    measure = write_json(tmp_path / "mu.json",
                         dict(TWO_MASS_JSON, precision_bits=bits))
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [16, 128, 256, 512], "route": "vp",
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 0, out
    rows = read_report(str(tmp_path / "out"))["rows"]
    assert [r["selected_count"] for r in rows] == [2, 2, 2, 2]
    working = [160, 171, 246, 396]
    assert [r["working_bits"] for r in rows] == working
    assert [r["norm_bits"] for r in rows] == [max(bits, f) for f in working]
    # certificates.csv keeps the benchmark's columns
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "checks.py")
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    header = (tmp_path / "out" / "certificates.csv").read_text().split("\n")[0]
    assert header.split(",") == checks.PIPELINE_COLUMNS


def _pipeline_csv(tmp_path, capsys, measure, route, n_grid):
    out = tmp_path / f"out-{route}"
    man = write_json(tmp_path / f"{route}.json", {
        "measure_file": measure, "route": route, "n_grid": n_grid,
        "out_dir": str(out)})
    code, text = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 0, text
    return (out / "certificates.csv").read_bytes()


@pytest.mark.parametrize("label", ["readme_two_mass_128", "complex_two_mass",
                                   "d3", "const_psi_three_mass"])
def test_both_routes_write_what_each_route_writes_alone(tmp_path, capsys,
                                                        label):
    # route both builds each n's series once, run for vp's longer order, and
    # taylor reads its own prefix of it; at n = 64 taylor's degree (82 on
    # complex_two_mass, 126 on the others) stops short of vp's 127
    measures = dict(_make_frozen().PIPELINE_MEASURES,
                    const_psi_three_mass=CONST_PSI_THREE_MASS)
    measure = write_json(tmp_path / "mu.json", measures[label])
    n_grid = [8, 16, 32, 64]
    both = _pipeline_csv(tmp_path, capsys, measure, "both", n_grid)
    vp = _pipeline_csv(tmp_path, capsys, measure, "vp", n_grid)
    taylor = _pipeline_csv(tmp_path, capsys, measure, "taylor", n_grid)
    header, _, taylor_rows = taylor.partition(b"\n")
    assert vp.startswith(header + b"\n")
    assert both == vp + taylor_rows


def test_both_routes_build_each_n_once_in_route_major_order(tmp_path, capsys,
                                                            monkeypatch):
    # one series and one Cauchy envelope per n, however many routes read
    # them; the certificates come route by route, as each route alone
    # would raise its first error
    calls = collections.Counter()

    def count(name):
        real = getattr(asym, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(asym, name, spy)

    count("_bphi_series")
    count("_tail_envelope")
    order = []
    finish = asym._finish

    def recorded(base, spectrum, weight, route, precision):
        order.append((route, base.n))
        return finish(base, spectrum, weight, route, precision)

    monkeypatch.setattr(asym, "_finish", recorded)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    _pipeline_csv(tmp_path, capsys, measure, "both", [8, 16])
    rows = read_rows(str(tmp_path / "out-both"))
    assert all(int(r["selected_count"]) >= 1 for r in rows)
    assert calls == {"_bphi_series": 2, "_tail_envelope": 2}
    assert order == [("vp", 8), ("vp", 16), ("taylor", 8), ("taylor", 16)]
    assert [(r["route"], int(r["n"])) for r in rows] == order


def test_compare_summarises_each_moved_column(capsys):
    # after the cells, one line per moved column: its cell count and its
    # largest absolute and relative change, so that a -99% move at the
    # noise floor shows its absolute size
    old = "route,n,sup_defect,schwarz_pass\nvp,8,2e-15,True\nvp,16,1e-6,True\n"
    new = "route,n,sup_defect,schwarz_pass\nvp,8,2e-17,True\nvp,16,2e-6,False\n"
    assert _make_frozen().print_cells("f.csv", old, new) == 3
    summary = capsys.readouterr().out.splitlines()[3:]
    assert summary == [
        "f.csv: sup_defect: 2 cells, largest change 1.00e-06 absolute, "
        "1.00e+00 relative",
        "f.csv: schwarz_pass: 1 cells, not numbers"]


def test_every_mutant_pattern_matches_once():
    # tests/data/mutants.py refuses to run a table with a pattern that does
    # not match its file exactly once, so an edit that moves or deletes the
    # code a mutant names shows here, not only when the table next runs
    mutants = _data_script("mutants")
    assert mutants.check_patterns(mutants.MUTANTS) == []


def test_log_condition_artifacts(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_max": 64,
        "out_dir": str(tmp_path / "out")})
    code, _ = run_main(capsys, "log-condition", "--manifest", man)
    assert code == 0
    rows = read_rows(str(tmp_path / "out"))
    assert list(rows[0]) == ["n", "tail_sum", "weighted_A1", "weighted_A2"]
    assert [r["n"] for r in rows] == ["2", "4", "8", "16", "32", "64"]
    report = read_report(str(tmp_path / "out"))
    assert report["bounded"] == {"1": True, "2": True}
    assert report["any_bounded"] is True


def test_report_is_written_as_json_dump_writes_it(tmp_path, capsys):
    # one write of json.dumps: the bytes json.dump gave, on a pipeline, an
    # opuc and a vs-bound report
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    for command, fields in (("pipeline", {"measure_file": measure,
                                          "n_grid": [8, 16]}),
                            ("opuc", {"measure_file": measure,
                                      "n_grid": [4, 8]}),
                            ("vs-bound", {"n_grid": [4, 16], "seeds": 1})):
        out = tmp_path / command
        man = write_json(tmp_path / f"{command}.json",
                         dict(fields, out_dir=str(out)))
        assert run_main(capsys, command, "--manifest", man)[0] == 0
        got = (out / "report.json").read_text(encoding="utf-8")
        buf = io.StringIO()
        json.dump(json.loads(got), buf, indent=2, allow_nan=False)
        buf.write("\n")
        assert got == buf.getvalue(), command


def test_only_residue_check_finds_the_roots_of_psi(tmp_path, capsys,
                                                   monkeypatch):
    # zero_modulus places the residue check's circles and is computed on
    # first read, so no other subcommand runs np.roots
    def refuse(*args, **kwargs):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", refuse)
    measure = write_json(tmp_path / "mu.json", dict(
        TWO_MASS_JSON, psi=[[1.0, 0.0], [-0.5, 0.0]]))
    for command, fields in (("opuc", {"n_grid": [4, 8]}),
                            ("pipeline", {"n_grid": [8, 16]}),
                            ("log-condition", {"n_max": 32}),
                            ("residue-check", {"n_grid": [4]})):
        man = write_json(tmp_path / f"{command}.json", dict(
            fields, measure_file=measure, out_dir=str(tmp_path / command)))
        if command == "residue-check":
            with pytest.raises(AssertionError, match="np.roots"):
                main([command, "--manifest", man])
        else:
            assert run_main(capsys, command, "--manifest", man)[0] == 0


# ----------------------------------------------------------------------
# determinism


def test_csv_byte_determinism(tmp_path, capsys):
    man_obj = {"n_grid": [4, 8], "seeds": 2, "kinds": ["uniform_disk"]}
    blobs = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        man = write_json(tmp_path / f"man{i}.json",
                         dict(man_obj, out_dir=str(out)))
        assert run_main(capsys, "vs-bound", "--manifest", man)[0] == 0
        blobs.append((out / "certificates.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_pipeline_determinism(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    blobs = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        man = write_json(tmp_path / f"man{i}.json", {
            "measure_file": measure, "n_grid": [8], "route": "vp",
            "out_dir": str(out)})
        assert run_main(capsys, "pipeline", "--manifest", man)[0] == 0
        blobs.append((out / "certificates.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("oversample, code", [(3, 2), (4, 0)])
def test_oversample_minimum(tmp_path, capsys, oversample, code):
    # the sup refiner needs at least four grid nodes per coefficient
    man = write_json(tmp_path / "man.json", {
        "n_grid": [4], "kinds": ["uniform_disk"],
        "out_dir": str(tmp_path / "out")})
    got, out = run_main(capsys, "vs-bound", "--manifest", man,
                        "--oversample", str(oversample))
    assert got == code, out
    if code:
        assert error_payload(out)["field"] == "oversample"


def test_sup_grid_past_the_cap_is_refused_before_sampling(tmp_path, capsys,
                                                         monkeypatch):
    # oversample * (n + 1) = 466,033 * 9 passes the load-time rule, but the
    # truncation degree D > n, which bounds the trimmed degree K, puts the
    # sup grid past the cap: refused before B phi0 is sampled, naming
    # oversample
    calls = []
    sampled = blaschke.eval_B_phi

    def counted(c, z):
        calls.append(c)
        return sampled(c, z)

    monkeypatch.setattr(blaschke, "eval_B_phi", counted)
    man = write_json(tmp_path / "man.json", {
        "n_grid": [8], "oversample": 466033, "out_dir": str(tmp_path / "out")})
    start = time.perf_counter()
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert time.perf_counter() - start < 1.0
    assert code == 2, out
    assert error_payload(out)["field"] == "oversample"
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_is_strict_json_when_a_sampled_sup_is_zero(tmp_path, capsys):
    # at smoothness 39 the trimmed series of degree 33 has no nonzero
    # falling factorial, so ratio_s39 is 0: its upper/value ratio is null,
    # not Infinity, and no division by zero warns
    man = write_json(tmp_path / "man.json", {
        "n_grid": [4], "kinds": ["boundary_cluster"], "seed": 0,
        "smoothness": [39], "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0, out
    assert float(read_rows(str(tmp_path / "out"))[0]["ratio_s39"]) == 0.0

    with open(tmp_path / "out" / "report.json") as fh:
        report = json.load(fh, parse_constant=refuse_constant)
    ratios = report["summary"]["max_upper_over_value"]
    assert ratios["ratio_s39"] is None
    assert ratios["sup_phi"] >= 1.0


def refuse_constant(name):
    raise ValueError(f"{name} in report.json")


def test_report_is_strict_json_when_the_tail_majorant_overflows(tmp_path,
                                                                 capsys):
    # a mass 1e-4 outside the circle stays in the tail, and exp(c_bound/eps)
    # overflows: certificates.csv keeps inf, report.json writes null
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0]], "masses": [[1.0001, 0, 0.2], [3, 0, 0.1]],
        "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [8], "route": "taylor",
        "schedule": {"eps": {"family": "inv_loglog_sq"},
                     "a": {"family": "half_loglog"}, "c_bound": 5000},
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 0, out
    assert read_rows(str(tmp_path / "out"))[0]["tail_majorant"] == "inf"
    with open(tmp_path / "out" / "report.json") as fh:
        report = json.load(fh, parse_constant=refuse_constant)
    assert report["rows"][0]["tail_majorant"] is None
    assert report["rows"][0]["total_norm"] > 0


def test_tiny_epsilon_writes_its_row(tmp_path, capsys):
    # R - 1 = epsilon/n = 1.25e-13: no step of the certificate sizes a grid
    # by 1/(R - 1)
    man = write_json(tmp_path / "man.json", {
        "n_grid": [8], "epsilon": 1e-12, "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "vs-bound", "--manifest", man)
    assert code == 0, out
    assert len(read_rows(str(tmp_path / "out"))) == 1


def test_seed_flag_shifts_sweep(tmp_path, capsys):
    man_obj = {"n_grid": [4], "kinds": ["uniform_disk"]}
    man = write_json(tmp_path / "man.json",
                     dict(man_obj, out_dir=str(tmp_path / "a")))
    assert run_main(capsys, "vs-bound", "--manifest", man)[0] == 0
    man2 = write_json(tmp_path / "man2.json",
                      dict(man_obj, out_dir=str(tmp_path / "b")))
    assert run_main(capsys, "vs-bound", "--manifest", man2,
                    "--seed", "5")[0] == 0
    a = read_rows(str(tmp_path / "a"))
    b = read_rows(str(tmp_path / "b"))
    assert a[0]["seed"] == "0" and b[0]["seed"] == "5"
    assert a[0]["sup_phi"] != b[0]["sup_phi"]


# ----------------------------------------------------------------------
# exit codes and error JSON


def test_malformed_measure_names_field(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json",
                         {"psi": [[1.0, 0.0]],
                          "masses": [[0.5, 0.0, 0.3]]})
    man = write_json(tmp_path / "man.json",
                     {"measure_file": measure,
                      "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "opuc", "--manifest", man)
    assert code == 2
    err = error_payload(out)
    assert err["exit_code"] == 2
    assert err["field"] == "masses"


def test_missing_measure_key_names_field(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", {"masses": []})
    man = write_json(tmp_path / "man.json",
                     {"measure_file": measure,
                      "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "opuc", "--manifest", man)
    assert code == 2
    assert error_payload(out)["field"] == "psi"


def test_input_error_cases(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)

    def expect_field(manifest_obj, field, command="opuc"):
        # a case wrongly accepted writes its outputs under tmp_path
        man = write_json(tmp_path / "man.json",
                         {"out_dir": str(tmp_path / "out"), **manifest_obj})
        code, out = run_main(capsys, command, "--manifest", man)
        assert code == 2, out
        assert error_payload(out)["field"] == field

    expect_field({"measure_file": measure, "wavelength": 7}, "wavelength")
    expect_field({"measure_file": measure, "which": "sigma"}, "which")
    expect_field({"measure_file": measure, "n_grid": [8, 4]}, "n_grid")
    expect_field({"measure_file": measure, "precision_bits": 100},
                 "precision_bits")
    expect_field({}, "measure_file")
    expect_field({"measure_file": str(tmp_path / "absent.json")},
                 "measure_file")
    expect_field({"command": "opuc"}, "command", command="besov")
    expect_field({"measure_file": measure, "k_list": [0, 1, 2, 3]}, "k_list",
                 command="residue-check")
    # explicit empty lists
    expect_field({"n_grid": []}, "n_grid", command="vs-bound")
    expect_field({"smoothness": []}, "smoothness", command="vs-bound")
    expect_field({"measure_file": measure, "n_grid": []}, "n_grid",
                 command="residue-check")
    expect_field({"measure_file": measure, "k_list": []}, "k_list",
                 command="residue-check")
    expect_field({"n_grid": [8], "kinds": []}, "kinds", command="vs-bound")
    # negative seeds, from the manifest of each command that draws with one
    expect_field({"n_grid": [8], "seed": -3}, "seed", command="vs-bound")
    expect_field({"measure_file": measure, "n_grid": [8], "seed": -3},
                 "seed", command="pipeline")
    expect_field({"measure_file": measure, "seed": -3}, "seed")
    # integers are not read from fractions or booleans
    expect_field({"n_grid": [8.7]}, "n_grid", command="vs-bound")
    expect_field({"n_grid": [8], "seed": 2.9}, "seed", command="vs-bound")
    expect_field({"n_grid": [8], "seeds": True}, "seeds", command="vs-bound")
    # kinds is the one spelling of the zero-set kinds
    expect_field({"n_grid": [8], "kind": "uniform_disk"}, "kind",
                 command="vs-bound")
    # opuc reports the exact coefficients only; lower bounds are the
    # pipeline command's
    expect_field({"measure_file": measure, "pipeline": True}, "pipeline")
    expect_field({"measure_file": measure, "pipeline": False}, "pipeline")
    # 1 + epsilon/n rounds to 1, so the dilation radius is not above 1
    expect_field({"n_grid": [8], "epsilon": 1e-20}, "epsilon",
                 command="vs-bound")
    # malformed measure files name the key the error came from
    for obj, field in ((dict(TWO_MASS_JSON, precision_bits=100),
                        "precision_bits"),
                       (dict(TWO_MASS_JSON, precision_bits="abc"),
                        "precision_bits"),
                       (dict(TWO_MASS_JSON, precision_bits=128.5),
                        "precision_bits"),
                       (dict(TWO_MASS_JSON, masses=[[2.0, 0.0]]), "masses"),
                       ([TWO_MASS_JSON], "measure_file")):
        bad_measure = write_json(tmp_path / "bad_mu.json", obj)
        expect_field({"measure_file": bad_measure}, field)
    # a repeated mass point is a measure, but not one the residue identity
    # takes: residue-check names the masses, opuc runs
    repeated = write_json(tmp_path / "repeated_mu.json", {
        "psi": [[1, 0]], "masses": [[1.5, 0, 0.3], [1.5, 0, 0.2]],
        "precision_bits": 128})
    expect_field({"measure_file": repeated, "n_grid": [4]}, "masses",
                 command="residue-check")
    man = write_json(tmp_path / "man.json", {
        "measure_file": repeated, "n_grid": [4],
        "out_dir": str(tmp_path / "repeated")})
    assert run_main(capsys, "opuc", "--manifest", man)[0] == 0
    # manifest that is not JSON at all
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out = run_main(capsys, "opuc", "--manifest", str(bad))
    assert code == 2
    assert error_payload(out)["field"] == "manifest"
    # a negative seed from the flag
    man = write_json(tmp_path / "man.json", {"n_grid": [8]})
    code, out = run_main(capsys, "vs-bound", "--manifest", man, "--seed", "-1")
    assert code == 2, out
    assert error_payload(out)["field"] == "seed"
    # non-finite measure numbers: psi, a mass point, a mass weight
    nan, inf = math.nan, math.inf
    for command, obj, field in (
            ("opuc", {"psi": [[nan, 0]]}, "psi"),
            ("residue-check", {"psi": [[nan, 0]]}, "psi"),
            ("opuc", dict(TWO_MASS_JSON, masses=[[nan, 0, 0.3]]), "masses"),
            ("opuc", dict(TWO_MASS_JSON, masses=[[inf, 0, 0.3]]), "masses"),
            ("pipeline", dict(TWO_MASS_JSON, masses=[[1.5, 0, nan]]),
             "masses"),
            ("log-condition", dict(TWO_MASS_JSON, masses=[[1.01, 0, inf]]),
             "masses")):
        bad_measure = write_json(tmp_path / "bad_mu.json", obj)
        expect_field({"measure_file": bad_measure, "n_grid": [8]}, field,
                     command=command)
    expect_field({"measure_file": measure, "exponents": [inf]}, "exponents",
                 command="log-condition")
    # psi with a zero on the circle, (1 - z)(1 - 0.9 z) and (1 + z)(1 - 0.1 z),
    # or 1e-12 outside it, where 2^20 samples certify no minimum
    for psi in ([[1, 0], [-1.9, 0], [0.9, 0]], [[1, 0], [0.9, 0], [-0.1, 0]],
                [[1, 0], [-0.999999999999, 0]]):
        bad_measure = write_json(tmp_path / "bad_mu.json", {
            "psi": psi, "masses": [[1.5, 0, 0.3]], "precision_bits": 128})
        for command in ("opuc", "pipeline", "residue-check", "log-condition"):
            expect_field({"measure_file": bad_measure, "n_grid": [8, 16]},
                         "psi", command=command)
    # string and list fields are read as such
    expect_field({"n_grid": [8], "out_dir": None}, "out_dir",
                 command="vs-bound")
    expect_field({"measure_file": []}, "measure_file")
    expect_field({"n_grid": [8], "kinds": 5}, "kinds", command="vs-bound")
    expect_field({"measure_file": measure, "n_grid": [8], "schedule": 5},
                 "schedule", command="pipeline")
    # schedule numbers are ints or floats, finite, and its objects name no
    # other key
    eps, a = {"family": "inv_loglog_sq"}, {"family": "half_loglog"}
    for schedule in ({"eps": dict(eps, scale="1.0"), "a": a},
                     {"eps": dict(eps, scale=True), "a": a},
                     {"eps": eps, "a": a, "c_bound": True},
                     {"eps": eps, "a": a, "c_bound": "Infinity"},
                     {"eps": eps, "a": a, "c_bound": math.inf},
                     {"eps": eps, "a": dict(a, shift=1)},
                     {"eps": eps, "a": a, "c_bnd": 2.0}):
        expect_field({"measure_file": measure, "n_grid": [8, 16],
                      "route": "vp", "schedule": schedule},
                     "schedule", command="pipeline")
    # a repeated list value would repeat a column or a row of the output
    expect_field({"n_grid": [8], "smoothness": [2, 1, 2]}, "smoothness",
                 command="vs-bound")
    expect_field({"n_grid": [8], "kinds": ["radial_line", "radial_line"]},
                 "kinds", command="vs-bound")
    expect_field({"n_grid": [8, 16], "k_list": [1, 1, 0]}, "k_list",
                 command="besov")
    expect_field({"n_grid": [8, 8]}, "n_grid", command="vs-bound")
    expect_field({"measure_file": measure, "k_list": [1, 1]}, "k_list",
                 command="residue-check")
    expect_field({"measure_file": measure, "exponents": [1, 1]},
                 "exponents", command="log-condition")
    # and so would two exponents that agree in their column name's 6 digits
    expect_field({"measure_file": measure,
                  "exponents": [1.0000001, 1.0000002]},
                 "exponents", command="log-condition")
    # ranges from the limits of the code: the largest grid and a double
    expect_field({"n_grid": [8], "oversample": 10 ** 9}, "oversample",
                 command="vs-bound")
    expect_field({"n_grid": [8], "smoothness": [400]}, "smoothness",
                 command="vs-bound")
    expect_field({"n_grid": [8], "k_list": [10 ** 30]}, "k_list",
                 command="besov")
    expect_field({"n_grid": [2 ** 62]}, "n_grid", command="besov")
    # a pipeline's n_grid and a besov pairing are checked before any run
    expect_field({"measure_file": measure, "n_grid": [4]}, "n_grid",
                 command="pipeline")
    expect_field({"n_grid": [8], "k_list": [4]}, "k_list", command="besov")


def test_readme_inputs_table_names_every_field():
    # the README's Inputs table has one row per manifest field, no more
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Inputs\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)`", section, flags=re.M)
    assert sorted(names) == sorted(cli._KNOWN_KEYS)


def test_schedule_violation_exit_code(tmp_path, capsys):
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [8, 16],
        "schedule": {"eps": {"family": "inv_loglog_sq", "scale": 4.0},
                     "a": {"family": "half_loglog"}},
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 4
    err = error_payload(out)
    assert err["type"] == "ScheduleViolation"
    # a single-point grid skips the grid checks and runs
    man2 = write_json(tmp_path / "man2.json", {
        "measure_file": measure, "n_grid": [8], "route": "vp",
        "schedule": {"eps": {"family": "inv_loglog_sq", "scale": 4.0},
                     "a": {"family": "half_loglog"}},
        "out_dir": str(tmp_path / "out2")})
    assert run_main(capsys, "pipeline", "--manifest", man2)[0] == 0
    # a schedule whose selection cap overflows a float
    man3 = write_json(tmp_path / "man3.json", {
        "measure_file": measure, "n_grid": [8],
        "schedule": {"eps": {"family": "constant"},
                     "a": {"family": "constant", "scale": 1e300}},
        "out_dir": str(tmp_path / "out3")})
    code, out = run_main(capsys, "pipeline", "--manifest", man3)
    assert code == 4, out
    assert error_payload(out)["type"] == "ScheduleViolation"


def test_pipeline_defect_grid_past_the_cap_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    # the defect's sup grid is sized from its degree: past the cap it is a
    # numeric failure, reported as JSON
    monkeypatch.setattr(circle_fourier, "_GRID_CAP", 64)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [64],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "pipeline", "--manifest", man)
    assert code == 3, out
    err = error_payload(out)
    assert err["type"] == "GridCapError" and err["exit_code"] == 3


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("did not converge")
    monkeypatch.setattr(mo, "residue_identity_check", boom)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4], "k_list": [0],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 3
    err = error_payload(out)
    assert err["type"] == "QuadratureError"
    assert err["exit_code"] == 3


def test_no_cli_path_runs_mpc_linear_algebra(tmp_path, capsys,
                                             monkeypatch):
    # every subcommand, with the masses' Gram route (opuc at n < deg psi)
    # and the extremal witness (residue-check) among them, runs on the
    # integer Gram matrix: with what is left of the mpc layer refused (the
    # witness rounded to mpc, moment, and the tests' mpc factors and
    # triangular solves), each writes the certificates.csv of an unrefused
    # run
    import test_xlinalg

    complex_mass = write_json(tmp_path / "complex.json", {
        "psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
        "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]], "precision_bits": 128})
    mass_free = write_json(tmp_path / "free.json", {
        "psi": [[1.0, 0.0], [0.4, -0.3]], "precision_bits": 128})
    two_mass = write_json(tmp_path / "two.json", TWO_MASS_JSON)
    runs = [("vs-bound", {"n_grid": [4], "seeds": 1,
                          "kinds": ["uniform_disk"]}),
            ("besov", {"n_grid": [8]}),
            ("opuc", {"measure_file": complex_mass, "n_grid": [1, 2, 4]}),
            ("opuc", {"measure_file": mass_free, "n_grid": [2, 4]}),
            ("pipeline", {"measure_file": two_mass, "n_grid": [8]}),
            ("residue-check", {"measure_file": complex_mass, "n_grid": [2, 4],
                               "k_list": [0, 2]}),
            ("log-condition", {"measure_file": two_mass, "n_max": 16})]

    def outputs(tag):
        texts = []
        for i, (command, fields) in enumerate(runs):
            out_dir = tmp_path / f"{tag}{i}"
            man = write_json(tmp_path / f"{tag}{i}.json",
                             dict(fields, out_dir=str(out_dir)))
            code, out = run_main(capsys, command, "--manifest", man)
            assert code == 0, (command, out)
            texts.append((out_dir / "certificates.csv").read_text())
        return texts

    def refuse(*args, **kwargs):
        raise AssertionError("mpc linear algebra on a CLI path")

    want = outputs("plain")
    # in every package namespace that holds them, so a call through any
    # import is refused
    package = [m for name, m in sys.modules.items()
               if name == "szego_lab" or name.startswith("szego_lab.")]
    for name in ("constrained_max_leading", "moment"):
        held = [m for m in package if hasattr(m, name)]
        assert held, name
        for m in held:
            monkeypatch.setattr(m, name, refuse)
    for name in ("factor", "oracle_cholesky", "solve_lower",
                 "solve_upper_conj"):
        monkeypatch.setattr(test_xlinalg, name, refuse)
    assert outputs("refused") == want


def test_residue_check_refuses_a_far_mass_before_any_node(tmp_path, capsys,
                                                          monkeypatch):
    # at 53 bits the residue check holds the reflected masses at 85
    # fractional bits, where 1/|z| of a mass at 2^90 is 0: the mass is
    # refused with exit 3 before a node is evaluated; opuc and pipeline,
    # which read it through the closed form, still run
    def no_node(*args):
        raise AssertionError("a node was evaluated")

    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0]], "masses": [[1.2379400392853803e27, 0, 0.3]],
        "precision_bits": 53})
    runs = {"residue-check": {"n_grid": [1], "k_list": [0, 1]},
            "opuc": {"n_grid": [1, 4]}, "pipeline": {"n_grid": [8]}}
    for command, fields in runs.items():
        man = write_json(tmp_path / f"{command}.json", dict(
            fields, measure_file=measure, out_dir=str(tmp_path / command)))
        with monkeypatch.context() as m:
            m.setattr(mo, "_node_values", no_node)
            code, out = run_main(capsys, command, "--manifest", man)
        if command != "residue-check":
            assert code == 0, (command, out)
            continue
        assert code == 3, out
        err = json.loads(out, parse_constant=refuse_constant)["error"]
        assert err["type"] == "QuadratureError" and err["exit_code"] == 3
        assert "1.2379400392853803e+27" in err["message"]
        assert "53 bits" in err["message"]


@pytest.mark.parametrize("measure, named", [
    # a mass 1e-15 outside the circle, and a psi whose zero lies 2^-16
    # outside it: each needs far more than 2^20 nodes
    ({"psi": [[1, 0]], "masses": [[1 + 1e-15, 0, 0.3]]},
     "the mass at (1.000000000000001+0j)"),
    ({"psi": [[1, 0], [-1 / (1 + 2 ** -16), 0]], "masses": [[1.5, 0, 0.3]]},
     "the zero of psi at |y| = 1.00001525878906"),
], ids=["mass-near-circle", "psi-zero-near-circle"])
def test_residue_check_refuses_a_grid_past_the_cap_before_any_node(
        tmp_path, capsys, monkeypatch, measure, named):
    # every row's grid is certified first, so the run exits 3 naming what
    # sets the grid, with no node evaluated, k = 0 rows included
    nodes = []
    real = mo._node_values

    def counted(*args):
        nodes.append(args[0])
        return real(*args)

    monkeypatch.setattr(mo, "_node_values", counted)
    man = write_json(tmp_path / "man.json", {
        "measure_file": write_json(tmp_path / "mu.json",
                                   dict(measure, precision_bits=128)),
        "n_grid": [4, 8], "k_list": [0, 1], "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 3, out
    err = json.loads(out, parse_constant=refuse_constant)["error"]
    assert err["type"] == "QuadratureError"
    assert "needs more than 1048576 nodes" in err["message"]
    assert named in err["message"]
    assert nodes == []


def test_failed_witness_solve_is_named(tmp_path, capsys, monkeypatch):
    # a weight of 1e300 left the Laurent Gram matrix's last pivot below the
    # fixed point's resolution at every tag; the closed-form element takes
    # it, and the identity holds
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0]], "masses": [[1.5, 0, 1e300]], "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 0, out
    rows = read_rows(str(tmp_path / "out"))
    assert len(rows) == 2 and all(float(r["abs_diff"]) <= 1e-8 for r in rows)
    # a Gram-witness row (2n - 1 < deg psi) that fails at every tag exits 3
    # naming the extremal witness solve and its n
    def fail(g, frac=None):
        raise NotPositiveDefinite(g.dim - 1)

    monkeypatch.setattr(mo, "_extremal", fail)
    measure = write_json(tmp_path / "mu.json", {
        "psi": [[1, 0], [0.3, -0.2], [0, 0.1]], "masses": [[1.5, 0.8, 0.3]],
        "precision_bits": 128})
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [1],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 3, out
    err = json.loads(out, parse_constant=refuse_constant)["error"]
    assert err["type"] == "PrecisionExhausted"
    assert err["message"] == (
        "the extremal witness solve at n = 1: not positive definite at any "
        "of (128, 256, 512) bits (last failing pivot 1)")


def test_module_entry_point(tmp_path):
    # the module runs as a subprocess exactly like the console script
    measure = tmp_path / "mu.json"
    measure.write_text(json.dumps(TWO_MASS_JSON))
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"measure_file": str(measure),
                               "n_grid": [2, 4],
                               "out_dir": str(tmp_path / "out")}))
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "szego_lab.cli", "opuc",
         "--manifest", str(man)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "certificates.csv" in proc.stdout
    assert (tmp_path / "out" / "report.json").is_file()


# ----------------------------------------------------------------------
# seeded fuzz of the input contract

# one value of each kind: wrong types, non-finite numbers, empty and nested
# lists, an integer-valued float, a numeric string, huge and negative numbers
FUZZ_VALUES = ("x", {}, True, math.nan, math.inf, -math.inf, [], [[8]], 8.0,
               "8", 1e300, -1e300, 2 ** 62, -3)

FUZZ_MEASURE = {"psi": [[1.0, 0.0], [-0.5, 0.2]],
                "masses": [[1.5, 0.0, 0.3], [-1.25, 0.5, 0.1]],
                "precision_bits": 128}

# a small valid manifest, and measure file or None, for each subcommand
FUZZ_BASES = {
    "vs-bound": ({"n_grid": [4, 8], "kinds": ["radial_line"], "seeds": 1,
                  "epsilon": 0.5, "smoothness": [1, 2], "oversample": 8},
                 None),
    "besov": ({"n_grid": [8, 16], "k_list": [0, 2]}, None),
    "opuc": ({"n_grid": [2, 4], "which": "both"}, FUZZ_MEASURE),
    "pipeline": ({"n_grid": [8, 16], "route": "vp"}, FUZZ_MEASURE),
    "residue-check": ({"n_grid": [4], "k_list": [0, 1]}, FUZZ_MEASURE),
    "log-condition": ({"n_max": 16, "exponents": [1.0, 2.0]}, FUZZ_MEASURE),
}

MEASURE_FIELDS = ("psi", "masses", "precision_bits")


def _fuzz_targets(command):
    """Where one value may go: ("manifest" | "measure", key, index...)."""
    manifest, measure = FUZZ_BASES[command]
    targets = [("manifest", key) for key in sorted(cli._KNOWN_KEYS)]
    targets += [("manifest", key, 0) for key, val in manifest.items()
                if isinstance(val, list)]
    if measure is not None:
        targets += [("measure", key) for key in MEASURE_FIELDS]
        targets += [("measure", "psi", 0, 0), ("measure", "psi", 1, 1),
                    ("measure", "masses", 0, 0), ("measure", "masses", 1, 2)]
    return targets


def test_fuzz_input_contract(tmp_path, capsys, monkeypatch):
    # every input exits 0, 2, 3 or 4, and an exit 2 names a field of the
    # manifest or the measure file; the output directories land in tmp_path
    monkeypatch.chdir(tmp_path)
    named = cli._KNOWN_KEYS | set(MEASURE_FIELDS) | {"manifest"}
    rng = random.Random(2026)
    failures = []
    for case in range(300):
        command = rng.choice(sorted(FUZZ_BASES))
        target = rng.choice(_fuzz_targets(command))
        value = rng.choice(FUZZ_VALUES)
        manifest, measure = copy.deepcopy(FUZZ_BASES[command])
        obj = manifest if target[0] == "manifest" else measure
        *path, last = target[1:]
        for key in path:
            obj = obj[key]
        obj[last] = value
        manifest.setdefault("out_dir", f"out{case}")
        if measure is not None:
            manifest.setdefault("measure_file", write_json(
                tmp_path / f"mu{case}.json", measure))
        man = write_json(tmp_path / f"man{case}.json", manifest)
        where = (command, target, value)
        try:
            code, out = run_main(capsys, command, "--manifest", man)
        except Exception as exc:  # every escape is a failure
            failures.append((where, repr(exc)))
            continue
        if code not in (0, 2, 3, 4):
            failures.append((where, code))
        elif code == 2 and error_payload(out)["field"] not in named:
            failures.append((where, error_payload(out)))
        elif code == 0:
            # report.json is strict JSON: no NaN or Infinity
            try:
                with open(tmp_path / manifest["out_dir"] / "report.json") as fh:
                    json.load(fh, parse_constant=refuse_constant)
            except (OSError, TypeError, ValueError) as exc:
                failures.append((where, repr(exc)))
    assert not failures, failures
