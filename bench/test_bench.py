"""Tests of the benchmark itself: generator, checker and tracer."""

import filecmp
import json
import os
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, run.SRC)

from szego_lab import cli  # noqa: E402


def _tree(path):
    return sorted(os.listdir(os.path.join(path, "in")))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a, b, c = (str(tmp_path / name) for name in "abc")
    run.generate(workload, 7, a, 20)
    run.generate(workload, 7, b, 20)
    run.generate(workload, 8, c, 20)
    names = _tree(a)
    assert names == _tree(b) and len(names) > 20
    match, mismatch, errors = filecmp.cmpfiles(
        os.path.join(a, "in"), os.path.join(b, "in"), names, shallow=False)
    assert not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(
        os.path.join(a, "in"), os.path.join(c, "in"), names, shallow=False)
    assert differ


def test_shapes_follow_the_stated_mix():
    weights = workloads.shape_weights(workloads.build_requests("corrector-sweep", 1, 360))
    assert weights["besov"] == pytest.approx(0.1)
    opuc = workloads.build_requests("opuc-exact", 1, 360)
    assert sum(r.command == "residue-check" for r in opuc) == len(opuc) // 4
    slots: dict = {}
    for req in opuc:
        slots.setdefault(tuple(req.manifest["n_grid"]), []).append(req)
        if req.command == "residue-check":
            assert req.manifest["k_list"] == list(range(len(req.measure["masses"]) + 1))
    for group in slots.values():
        # within each slot, every run of twelve: three mass-free, none of
        # them with constant psi, and three others at 128 bits
        for start in range(0, len(group) - 11, 12):
            block = [r.measure for r in group[start:start + 12]]
            free = [m for m in block if not m["masses"]]
            assert len(free) == 3 and all(len(m["psi"]) > 1 for m in free)
            low = [m for m in block if m["precision_bits"] == 128]
            assert len(low) == 3 and all(m["masses"] for m in low)


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def _pipeline_request():
    measure = {"psi": [[1.0, 0.0]], "masses": [[1.5, 0.0, 0.3]],
               "precision_bits": 256}
    return workloads.Request(0, "pipeline", "pipeline-n8",
                             {"n_grid": [8], "route": "both"}, measure)


def _pipeline_row(route, **override):
    row = dict.fromkeys(checks.PIPELINE_COLUMNS, 0.0)
    row.update(route=route, n=8, ac_norm=0.5, inside_mass_sum=0.25,
               tail_mass_sum=0.25, total_norm=1.0, lower_bound_achieved=0.6,
               schwarz_pass=True)
    row.update(override)
    return row


def test_checker_rejects_a_bookkeeping_gap(tmp_path):
    path = str(tmp_path / "certificates.csv")
    req = _pipeline_request()
    good = [_pipeline_row("vp"), _pipeline_row("taylor")]
    _write_csv(path, checks.PIPELINE_COLUMNS, good)
    assert checks.check_request(req, 0, path) == ([], 2)
    tampered = [_pipeline_row("vp", ac_norm=0.5 + 1e-6), _pipeline_row("taylor")]
    _write_csv(path, checks.PIPELINE_COLUMNS, tampered)
    assert checks.check_request(req, 0, path) == (["pipeline.bookkeeping_gap"], 2)
    above = [_pipeline_row("vp", lower_bound_achieved=1.5), _pipeline_row("taylor")]
    _write_csv(path, checks.PIPELINE_COLUMNS, above)
    assert checks.check_request(req, 0, path)[0] == ["pipeline.lower_bound"]


def test_checker_rejects_eta_below_tau(tmp_path):
    path = str(tmp_path / "certificates.csv")
    measure = {"psi": [[1.0, 0.0]], "masses": [[2.0, 0.0, 0.3]],
               "precision_bits": 128}
    req = workloads.Request(0, "opuc", "opuc-top16", {"n_grid": [4]}, measure)
    row = {"n": 4, "tau_n": 0.45, "eta_n": 0.46, "target": 0.5,
           "tau_error": 0.05, "eta_error": 0.04}
    _write_csv(path, checks.OPUC_COLUMNS, [row])
    assert checks.check_request(req, 0, path) == ([], 1)
    _write_csv(path, checks.OPUC_COLUMNS, [dict(row, eta_n=0.44)])
    assert checks.check_request(req, 0, path)[0] == ["opuc.tau_le_eta"]
    assert checks.check_request(req, 3, path)[0] == ["opuc.exit_3"]


def test_traced_run_restores_every_attribute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs("in")
    measure = {"psi": [[1.0, 0.0], [-0.5, 0.0]], "masses": [],
               "precision_bits": 128}
    req = workloads.Request(0, "opuc", "opuc-top4",
                            {"command": "opuc", "n_grid": [2, 4],
                             "measure_file": "in/m.json", "out_dir": "out"},
                            measure)
    for path, obj in ((req.manifest_file, req.manifest), ("in/m.json", measure)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        record = run.execute(cli, req)
    finally:
        tracer.restore()
    assert record.failures == [] and record.rows == 2
    assert all(getattr(ns, attr) is fn for ns, attr, fn in patched)
    names = {(ns.__name__, attr) for ns, attr, _ in patched}
    assert ("szego_lab.asymptotics", "_trig_moments") in names
    assert ("szego_lab.cli", "main") in names

    layers, functions = tracer.self_times()
    assert sum(layers.values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert tracer.root_seconds() <= record.seconds
    assert functions["measure_opuc.trig_moments_s"] > 0.0
    assert tracer.counts["measure_opuc.gram_builds"] == 4
    assert tracer.counts["cli.exit_nonzero"] == 0


def test_benchmark_json_names_the_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_end_to_end_weights_each_shape_by_its_share():
    def rec(shape, seconds, rows):
        return run.Record(workloads.Request(0, "besov", shape, {}), seconds, [], rows)

    records = [rec("a", 1.0, 2), rec("a", 1.0, 2), rec("b", 4.0, 8)]
    out = run.end_to_end(records, 0.5)
    assert out["request_s_p50"] == pytest.approx(4.0 ** (1 / 3))
    assert out["rows_per_s"] == pytest.approx(2.0)
    # a request timed while the machine ran at half speed counts half
    slow = rec("a", 2.0, 2)
    slow.slowdown = 2.0
    assert run.end_to_end([slow], 0.5)["request_s_p50"] == pytest.approx(1.0)
    assert run.hd_median([3.0]) == 3.0
    assert run.hd_median([1.0, 2.0, 9.0]) == pytest.approx(run.hd_median([9.0, 2.0, 1.0]))
