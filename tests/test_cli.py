"""End-to-end tests for the command-line runner.

Each test drives main() in process with a manifest written into tmp_path
and inspects the CSV/JSON artifacts.  The generators are checked against
their defining constructions, the exit-code contract is exercised for all
four classes, and byte determinism is checked serial and threaded.
"""

import csv
import json
import os
import subprocess
import sys

import pytest

from szego_lab.asymptotics import PipelineCertificate
from szego_lab.measure_opuc import QuadratureError
from szego_lab.cli import generate_zeros, main

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
    assert read_report(str(tmp_path / "out"))["summary"]["max_abs_diff"] <= 1e-8


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


def test_residue_check_solves_one_element_per_n(tmp_path, capsys,
                                               monkeypatch):
    solves = []
    real = cli.orthonormal_element

    def counted(mu, n, laurent=False):
        solves.append((n, laurent))
        return real(mu, n, laurent)

    monkeypatch.setattr(cli, "orthonormal_element", counted)
    monkeypatch.setattr(mo, "orthonormal_element", counted)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4, 6], "k_list": [0, 1, 2],
        "out_dir": str(tmp_path / "out")})
    assert run_main(capsys, "residue-check", "--manifest", man)[0] == 0
    assert len(read_rows(str(tmp_path / "out"))) == 6
    assert solves == [(4, True), (6, True)]


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


def test_residue_check_matches_frozen_csv(tmp_path, capsys):
    # residue_check_frozen.csv holds certificates.csv of both measures, each
    # line prefixed with the measure's name; the output must match it byte
    # for byte
    lines = []
    for label, measure in RESIDUE_FROZEN_MEASURES.items():
        man = write_json(tmp_path / f"{label}-man.json", {
            "measure_file": write_json(tmp_path / f"{label}.json", measure),
            "n_grid": [4, 8, 12], "k_list": [0, 1, 2],
            "out_dir": str(tmp_path / label)})
        assert run_main(capsys, "residue-check", "--manifest", man)[0] == 0
        with open(tmp_path / label / "certificates.csv", "rb") as fh:
            header, *rows = fh.read().splitlines(keepends=True)
        if not lines:
            lines.append(b"measure," + header)
        lines += [label.encode() + b"," + row for row in rows]
    with open(RESIDUE_FROZEN, "rb") as fh:
        assert b"".join(lines) == fh.read()


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


# ----------------------------------------------------------------------
# determinism


def test_csv_byte_determinism(tmp_path, capsys, monkeypatch):
    man_obj = {"n_grid": [4, 8], "seeds": 2, "kinds": ["uniform_disk"]}
    blobs = []
    for i, threads in enumerate(("1", "1", "3")):
        out = tmp_path / f"out{i}"
        man = write_json(tmp_path / f"man{i}.json",
                         dict(man_obj, out_dir=str(out)))
        monkeypatch.setenv("SZEGO_LAB_THREADS", threads)
        assert run_main(capsys, "vs-bound", "--manifest", man)[0] == 0
        blobs.append((out / "certificates.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


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
        man = write_json(tmp_path / "man.json", manifest_obj)
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
    # manifest that is not JSON at all
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out = run_main(capsys, "opuc", "--manifest", str(bad))
    assert code == 2
    assert error_payload(out)["field"] == "manifest"


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


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("did not converge")
    monkeypatch.setattr(cli, "residue_identity_check", boom)
    measure = write_json(tmp_path / "mu.json", TWO_MASS_JSON)
    man = write_json(tmp_path / "man.json", {
        "measure_file": measure, "n_grid": [4], "k_list": [0],
        "out_dir": str(tmp_path / "out")})
    code, out = run_main(capsys, "residue-check", "--manifest", man)
    assert code == 3
    err = error_payload(out)
    assert err["type"] == "QuadratureError"
    assert err["exit_code"] == 3


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
