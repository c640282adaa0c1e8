"""Acceptance suite: ten criteria, one test and one printed verdict each.

All tolerances are pinned in this module.  Shared sweeps are computed once
per module in fixtures: the seeded corrector sweep feeds criteria 1 to 3,
the pipeline runs feed criteria 5 and 10, and the exact leading
coefficients are recomputed (by the closed form where the measure has
masses, by the Gram route where it has none) rather than read from frozen
baselines.
"""

import math
import time

import pytest
from mpmath import mp

from szego_lab.asymptotics import (
    convergence_experiment,
    taylor_approximant,
    vp_approximant,
)
from szego_lab.blaschke import build_corrector, corrector_certificate
from szego_lab.circle_fourier import LaurentPolynomial, kernel_identity_vk_vpn
from szego_lab.cli import generate_zeros
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    eta_n,
    gram_laurent,
    residue_identity_check,
    target_limit,
    tau_n,
)
from szego_lab.xlinalg import constrained_max_leading, schur_leading

SWEEP_NS = (4, 8, 16, 32, 64, 128, 256)
SWEEP_KINDS = ("uniform_disk", "boundary_cluster")
SWEEP_SEEDS = tuple(range(20))

TWO_MASS = PointSpectrum(((1.5, 0.3), (-1.25, 0.1)))


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    certs = {}
    for kind in SWEEP_KINDS:
        for n in SWEEP_NS:
            for seed in SWEEP_SEEDS:
                corr = build_corrector(generate_zeros(kind, n, seed), 1.0)
                certs[kind, n, seed] = corrector_certificate(corr, (1, 2), 16)
    return {"certs": certs, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def sweep_eps01():
    certs = {}
    for n in (16, 64):
        for seed in SWEEP_SEEDS:
            corr = build_corrector(generate_zeros("uniform_disk", n, seed), 0.1)
            certs[n, seed] = corrector_certificate(corr, (1,), 16)
    return certs


@pytest.fixture(scope="module")
def mu256():
    return MeasureSpec(OuterWeight.constant_one(), TWO_MASS, 256)


@pytest.fixture(scope="module")
def pipeline_runs(mu256):
    runs = []
    for route, fn in (("vp", vp_approximant), ("taylor", taylor_approximant)):
        for n in (8, 16, 64):
            _, cert = fn(mu256.spectrum, mu256.weight, n, None, 0, 256)
            exact_fn = eta_n if route == "vp" else tau_n
            with mp.workprec(256):
                exact = float(exact_fn(mu256, n))
            runs.append((route, n, cert, exact))
    return runs


def _ratio_max(certs, key, n):
    return max(float(cert[key])
               for (kind, m, seed), cert in certs.items() if m == n)


def test_criterion_01_corrector_identities(sweep):
    worst_err = max(float(c["phi0_err"]) for c in sweep["certs"].values())
    worst_excess = max(
        float(cert["sup_phi"]) - (1.0 + 1.0 / n) ** n
        for (kind, n, seed), cert in sweep["certs"].items())
    ok = (worst_err <= 1e-12 and worst_excess <= 1e-9
          and sweep["elapsed"] < 120.0)
    line = _verdict(1, "corrector identities", ok,
                    f"max |phi0(0)-1|={worst_err:.2e} "
                    f"max sup excess={worst_excess:.2e} "
                    f"sweep {sweep['elapsed']:.1f}s over "
                    f"{len(sweep['certs'])} instances")
    assert ok, line


def test_criterion_02_derivative_scaling(sweep, sweep_eps01):
    certs = sweep["certs"]
    c16 = _ratio_max(certs, "ratio_s1", 16)
    c256 = _ratio_max(certs, "ratio_s1", 256)
    overall = max(_ratio_max(certs, "ratio_s1", n) for n in SWEEP_NS)
    drift_ok = math.isfinite(overall) and c256 < 1.5 * c16
    sup_small = max(float(c["sup_phi"]) for c in sweep_eps01.values())
    sup_ok = sup_small <= math.exp(0.1) + 1e-6
    # derivative constant shrinking epsilon, identical seeds and kinds
    c_eps01 = max(float(c["ratio_s1"]) for c in sweep_eps01.values())
    c_eps1 = max(float(certs["uniform_disk", n, seed]["ratio_s1"])
                 for (n, seed) in sweep_eps01)
    grow_ok = c_eps01 > c_eps1
    ok = drift_ok and sup_ok and grow_ok
    line = _verdict(2, "derivative scaling", ok,
                    f"C(16)={c16:.3f} C(256)={c256:.3f} "
                    f"eps=0.1: sup={sup_small:.6f} "
                    f"C_0.1={c_eps01:.3f} > C_1={c_eps1:.3f}")
    assert ok, line


def test_criterion_03_higher_smoothness(sweep):
    certs = sweep["certs"]
    d16 = _ratio_max(certs, "ratio_s2", 16)
    d256 = _ratio_max(certs, "ratio_s2", 256)
    b16 = _ratio_max(certs, "besov_ratio_s1", 16)
    b256 = _ratio_max(certs, "besov_ratio_s1", 256)
    ok = d256 < 1.5 * d16 and b256 < 1.5 * b16
    line = _verdict(3, "higher smoothness", ok,
                    f"s=2: C(16)={d16:.3f} C(256)={d256:.3f}; "
                    f"besov: C(16)={b16:.3f} C(256)={b256:.3f}")
    assert ok, line


def test_criterion_04_kernel_identity():
    t0 = time.time()
    pairs = 0
    ok = True
    for n in range(1, 2049):
        k = 0
        while k <= 10 and (1 << k) <= n:
            ok = ok and kernel_identity_vk_vpn(k, n)
            pairs += 1
            k += 1
    line = _verdict(4, "kernel identity", ok,
                    f"{pairs} pairs exhaustive, {time.time() - t0:.1f}s")
    assert ok, line


def test_criterion_05_schwarz_certificates(pipeline_runs):
    worst = max(cert.schwarz_excess for _, _, cert, _ in pipeline_runs)
    ok = all(cert.schwarz_pass for _, _, cert, _ in pipeline_runs)
    ok = ok and worst <= 1e-9
    line = _verdict(5, "schwarz certificates", ok,
                    f"{len(pipeline_runs)} runs, max excess {worst:.2e}")
    assert ok, line


def test_criterion_06_bernstein_szego_baseline():
    psi = OuterWeight(LaurentPolynomial(0, [1.0, -0.5]))
    mu = MeasureSpec(psi, PointSpectrum.empty(), 128)
    worst = 0.0
    for n in range(1, 13):
        with mp.workprec(128):
            worst = max(worst, abs(float(tau_n(mu, n)) - 1.0))
    ok = worst <= 1e-10
    line = _verdict(6, "bernstein-szego baseline", ok,
                    f"max |tau_n - 1| = {worst:.2e} over n=1..12")
    assert ok, line


def test_criterion_07_coefficient_limit(mu256):
    t0 = time.time()
    rec = convergence_experiment(mu256, (8, 16, 24, 32, 40, 48), which="both")
    elapsed = time.time() - t0
    target = rec["target"]
    last = rec["rows"][-1]
    eta_errs = [r["eta_error"] for r in rec["rows"]]
    tau_errs = [r["tau_error"] for r in rec["rows"]]
    factor2 = all(e[i + 1] <= 2.0 * e[i] + 1e-15
                  for e in (eta_errs, tau_errs) for i in range(len(e) - 1))
    # the limit is a large-n statement: n = 10^4 through the closed form
    far = max(abs(float(f(mu256, 10 ** 4)) - 8.0 / 15.0)
              for f in (tau_n, eta_n))
    ok = (abs(target - 8.0 / 15.0) <= 1e-12
          and last["eta_error"] <= 0.05 and last["tau_error"] <= 0.05
          and factor2 and rec["trend"] == {"tau": True, "eta": True}
          and far <= 1e-12 and elapsed < 600.0)
    line = _verdict(7, "coefficient limit", ok,
                    f"|eta48-target|={last['eta_error']:.4f} "
                    f"|tau48-target|={last['tau_error']:.4f} "
                    f"factor-2 trend={factor2} "
                    f"max |x_10000-target|={far:.1e} {elapsed:.1f}s")
    assert ok, line


def test_criterion_08_extremal_route_equivalence(mu256):
    worst = 0.0
    for n in range(1, 17):
        g = gram_laurent(mu256, n)
        with mp.workprec(256):
            s = schur_leading(g)
            c, _ = constrained_max_leading(g)
            worst = max(worst, float(abs(s - c) / s))
    ok = worst <= 1e-10
    line = _verdict(8, "extremal route equivalence", ok,
                    f"max rel gap {worst:.2e} over n=1..16")
    assert ok, line


def test_criterion_09_residue_identity(mu256):
    recs = {}
    for n in (4, 8, 12):
        for k in (0, 1, 2):
            recs[n, k] = residue_identity_check(mu256, n, k)
    worst = max(float(r["abs_diff"]) for r in recs.values())
    trend = all(float(recs[12, k]["schwarz_majorant"])
                < float(recs[4, k]["schwarz_majorant"]) for k in (1, 2))
    zero_k = all(float(recs[n, 0]["schwarz_majorant"]) == 0.0
                 for n in (4, 8, 12))
    ok = worst <= 1e-8 and trend and zero_k
    line = _verdict(9, "residue identity", ok,
                    f"max |lhs-rhs|={worst:.2e}, majorant n=12 < n=4: {trend}")
    assert ok, line


def test_criterion_10_pipeline_dominance(pipeline_runs, mu256):
    b0 = target_limit(mu256)
    dominance = all(cert.lower_bound_achieved <= exact + 1e-10
                    for _, _, cert, exact in pipeline_runs)
    bookkeeping = max(cert.bookkeeping_gap for _, _, cert, _ in pipeline_runs)
    n64 = {route: cert.lower_bound_achieved
           for route, n, cert, _ in pipeline_runs if n == 64}
    close = all(abs(v - b0) <= 0.1 for v in n64.values())
    ok = dominance and bookkeeping <= 1e-12 and close and len(n64) == 2
    line = _verdict(10, "pipeline dominance", ok,
                    f"dominance={dominance} max bookkeeping gap="
                    f"{bookkeeping:.2e} n=64 lower bounds "
                    f"vp={n64.get('vp', float('nan')):.4f} "
                    f"taylor={n64.get('taylor', float('nan')):.4f} "
                    f"target={b0:.4f}")
    assert ok, line
