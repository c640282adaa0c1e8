"""Precision is a value: results do not depend on mpmath's global precision.

Every mpmath number the library makes comes from xlinalg.context(bits), so
the caller's mp.prec, and other threads computing at other precisions,
cannot change a result.  The moment cache is emptied before each run so the
moments are recomputed under the conditions being tested.
"""

import re
import sys
import threading
from pathlib import Path

import pytest
from mpmath import mp

import szego_lab
import szego_lab.measure_opuc as mo
from szego_lab.asymptotics import vp_approximant
from szego_lab.circle_fourier import LaurentPolynomial
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    eta_n,
    residue_identity_check,
    tau_n,
)

SRC = Path(szego_lab.__file__).parent


def measure(bits):
    psi = OuterWeight(LaurentPolynomial(0, [1.0, 0.3 - 0.2j, 0.1j]))
    spectrum = PointSpectrum(((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2)))
    return MeasureSpec(psi, spectrum, bits)


def bits_of(x):
    """The exact value of an mpf or mpc, independent of its context."""
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def results(monkeypatch):
    monkeypatch.setattr(mo, "_moment_cache", {})
    mu = measure(128)
    _, cert = vp_approximant(mu.spectrum, mu.weight, 8, precision=128)
    res = residue_identity_check(mu, 4, 2)
    return (bits_of(tau_n(mu, 6)), bits_of(eta_n(mu, 6)), cert,
            {key: bits_of(v) if hasattr(v, "context") else v
             for key, v in res.items()})


def test_results_ignore_the_callers_precision(monkeypatch):
    outside = results(monkeypatch)
    prec = mp.prec
    with mp.workprec(24):
        inside = results(monkeypatch)
        assert mp.prec == 24
    assert mp.prec == prec
    assert inside == outside


def test_threads_at_two_precisions_match_a_sequential_run(monkeypatch):
    ns = (4, 8, 12)
    plan = [128, 256, 128, 256]  # more threads than cores

    def run(bits, out):
        mu = measure(bits)
        out.extend(bits_of(f(mu, n)) for n in ns for f in (tau_n, eta_n))

    monkeypatch.setattr(mo, "_moment_cache", {})
    expected = {}
    for bits in set(plan):
        expected[bits] = []
        run(bits, expected[bits])

    monkeypatch.setattr(mo, "_moment_cache", {})
    outs = [[] for _ in plan]
    threads = [threading.Thread(target=run, args=(bits, out))
               for bits, out in zip(plan, outs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for bits, out in zip(plan, outs):
        assert out == expected[bits]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_never_uses_the_ambient_precision(path):
    text = path.read_text(encoding="utf-8")
    found = re.findall(r"workprec|\bmp\.(?:prec|dps)\b|_MP_LOCK", text)
    assert not found, f"{path.name} uses {sorted(set(found))}"
