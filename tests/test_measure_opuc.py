"""Tests for measures with point masses outside the circle.

Closed-form oracles: a pure point mass at z0 with weight m adds
m * z0^j * conj(z0)^k to the moment of (j, k), so small Gram matrices can be
written down by hand.  For psi = 1 - a z with |a| < 1 the trigonometric
moments are a^|m| / (1 - a^2) and the orthonormal polynomial leading
coefficients are sqrt(1 - a^2) at degree zero and exactly 1 afterwards.
"""

import functools
import importlib.util
import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import MPContext, mp
from mpmath.libmp import from_man_exp

from exact_oracle import as_fraction, bareiss_solve, exact_gram, exact_moments
from szego_lab.blaschke import BlaschkeProduct, ZeroSet, eval_blaschke
from szego_lab.circle_fourier import LaurentPolynomial, _next_pow2
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    PrecisionExhausted,
    QuadratureError,
    ResidueNodes,
    eta_n,
    gram_laurent,
    gram_polynomial,
    log_condition_report,
    moment,
    residue_identity_check,
    target_limit,
    tau_n,
)
from szego_lab.xlinalg import (
    NotPositiveDefinite,
    constrained_max_leading,
    context,
    schur_leading,
    toeplitz_leading,
)

import szego_lab.measure_opuc as mo
import szego_lab.xlinalg as xlinalg
from test_xlinalg import entry, factor, trusted

D1_MEASURE = Path(__file__).parents[1] / "bench" / "defects" / "d1-measure.json"


def one_mass(precision=256):
    return MeasureSpec(OuterWeight.constant_one(),
                       PointSpectrum(((1.5, 0.3),)), precision)


def two_mass(precision=256):
    return MeasureSpec(OuterWeight.constant_one(),
                       PointSpectrum(((1.5, 0.3), (1.25, 0.7))), precision)


def bernstein_szego(a=0.5, precision=128):
    psi = OuterWeight(LaurentPolynomial(0, [1.0, -a]))
    return MeasureSpec(psi, PointSpectrum.empty(), precision)


# ----------------------------------------------------------------------
# validation


def test_outer_weight_rejects_zero_in_disk():
    with pytest.raises(ValueError):
        OuterWeight(LaurentPolynomial(0, [1.0, -2.0]))  # root at 0.5


def test_outer_weight_rejects_nonpositive_origin():
    with pytest.raises(ValueError):
        OuterWeight(LaurentPolynomial(0, [-1.0, 0.5]))
    with pytest.raises(ValueError):
        OuterWeight(LaurentPolynomial(0, [1j]))


def test_outer_weight_rejects_laurent():
    with pytest.raises(ValueError):
        OuterWeight(LaurentPolynomial(-1, [1.0, 1.0]))


def test_outer_weight_floor_and_origin():
    w = OuterWeight(LaurentPolynomial(0, [1.0, -0.5]), label="bs-half")
    assert w.psi0 == 1.0
    assert w.label == "bs-half"


def test_point_spectrum_rejects_inside_or_on_circle():
    with pytest.raises(ValueError):
        PointSpectrum(((0.9, 0.1),))
    with pytest.raises(ValueError):
        PointSpectrum(((1.0, 0.1),))


def test_point_spectrum_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        PointSpectrum(((1.5, 0.0),))
    with pytest.raises(ValueError):
        PointSpectrum(((1.5, -0.2),))


@pytest.mark.parametrize("coeffs", [[math.nan], [1.0, math.inf],
                                    [1.0, complex(0.2, math.nan)]])
def test_outer_weight_rejects_nonfinite(coeffs):
    with pytest.raises(ValueError, match="finite"):
        OuterWeight(LaurentPolynomial(0, coeffs))


@pytest.mark.parametrize("mass", [(complex(math.nan, 0), 0.3),
                                  (complex(1.5, math.inf), 0.3),
                                  (1.5, math.nan), (1.5, math.inf)])
def test_point_spectrum_rejects_nonfinite(mass):
    # NaN passes both |z| <= 1 and m <= 0 unnoticed, so finiteness is its
    # own rule
    with pytest.raises(ValueError, match="finite"):
        PointSpectrum((mass,))


def test_point_spectrum_length():
    sp = PointSpectrum(((1.5, 0.3), (1.25, 0.7)))
    assert len(sp) == 2
    assert len(PointSpectrum.empty()) == 0


def test_measure_spec_requires_known_precision():
    with pytest.raises(ValueError):
        MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 100)


def test_measure_spec_json_roundtrip():
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [2.0, -0.5, 0.25j])),
                     PointSpectrum(((1.5 + 0.5j, 0.3),)), 128)
    back = MeasureSpec.from_json(mu.to_json())
    assert back.precision == 128
    assert back.spectrum.masses == mu.spectrum.masses
    assert np.allclose(back.weight.psi.coeffs, mu.weight.psi.coeffs)


def reflected(spectrum, count=None):
    """The reflected product of the first count masses (all by default)."""
    pts = spectrum.masses[:count]
    return BlaschkeProduct(ZeroSet(tuple(1.0 / z.conjugate() for z, _ in pts)))


def test_reflected_blaschke():
    rb = reflected(two_mass().spectrum)
    zeros = rb.zeros.zeros
    assert abs(zeros[0] - 2.0 / 3.0) < 1e-15
    assert abs(zeros[1] - 0.8) < 1e-15
    assert abs(eval_blaschke(rb, 0.0) - 8.0 / 15.0) < 1e-15
    rb1 = reflected(two_mass().spectrum, count=1)
    assert abs(eval_blaschke(rb1, 0.0) - 2.0 / 3.0) < 1e-15


def test_target_limit():
    assert abs(target_limit(one_mass()) - 2.0 / 3.0) < 1e-15
    assert abs(target_limit(two_mass()) - 8.0 / 15.0) < 1e-15
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [0.5, 0.25])),
                     PointSpectrum(((2.0, 1.0),)), 53)
    assert abs(target_limit(mu) - 0.25) < 1e-15


# ----------------------------------------------------------------------
# moments


def test_lebesgue_moments():
    mu = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    assert abs(moment(mu, 0, 0) - 1) < 1e-15
    for j, k in ((1, 0), (3, 1), (0, 2)):
        assert abs(moment(mu, j, k)) < 1e-15


def test_one_mass_moments():
    mu = one_mass(53)
    assert abs(moment(mu, 0, 0) - 1.3) < 1e-14
    assert abs(moment(mu, 1, 0) - 0.45) < 1e-14
    assert abs(moment(mu, 1, 1) - 1.675) < 1e-14
    # Hermitian symmetry
    a, b = moment(mu, 2, 0), moment(mu, 0, 2)
    assert abs(a - mp.conj(b)) < 1e-14


def test_bernstein_szego_moments_closed_form():
    mu = bernstein_szego(a=0.5, precision=128)
    with mp.workprec(160):
        for m in range(7):
            exact = mp.mpf(0.5) ** m / mp.mpf(0.75)
            assert abs(moment(mu, m, 0) - exact) < 1e-30


def moments_mpc(weight, m_max, bits):
    """_trig_moments' integer pairs t with their exponent e, as the exact
    mpc values t 2^e of context(bits + 32)."""
    t, e = mo._trig_moments(weight, m_max, bits)
    return [context(bits + 32).make_mpc((from_man_exp(re, e),
                                         from_man_exp(im, e)))
            for re, im in t]


def test_near_circle_moments_exact():
    # psi = 1 - a z with its root 1e-3 outside the circle: the moments decay
    # only like a^m, and the recurrence reproduces a^m / (1 - a^2) exactly
    a = 1.0 / (1.0 + 1e-3)
    psi = OuterWeight(LaurentPolynomial(0, [1.0, -a]))
    tab = moments_mpc(psi, 3000, 256)
    with mp.workprec(256):
        am = mp.mpf(a)
        t0 = 1 / (1 - am ** 2)
        for m in (0, 1, 2, 17, 1000, 3000):
            assert abs(tab[m] - am ** m * t0) < mp.mpf(2) ** -240 * t0


@pytest.mark.parametrize("coeffs", [
    [1.0, 0.4 - 0.3j],
    [1.3, 0.3 - 0.2j, 0.1j],
    [0.7, 0.2 + 0.1j, -0.05j, 0.03 - 0.02j],
])
def test_moments_match_fft_of_weight(coeffs):
    # t_m is the circle mean of e^(-i m t)/|psi|^2: numpy's forward FFT
    # divided by the grid size, exact to rounding on a fine grid
    grid = 4096
    nodes = np.exp(2j * np.pi * np.arange(grid) / grid)
    psi_vals = np.polynomial.polynomial.polyval(nodes, coeffs)
    fft = np.fft.fft(1.0 / np.abs(psi_vals) ** 2) / grid
    tab = moments_mpc(OuterWeight(LaurentPolynomial(0, coeffs)), 40, 128)
    for m in range(41):
        assert abs(complex(tab[m]) - fft[m]) < 1e-14


def head_by_lu_solve(coeffs, bits):
    """t_0..t_d by mpmath's lu_solve on the real system of
    _bernstein_szego_head, at bits: the oracle of its exact solve."""
    solver = MPContext()  # lu_solve changes its context's precision
    solver.prec = bits
    coeffs = [solver.mpc(c) for c in coeffs]
    d = len(coeffs) - 1
    size = 2 * (d + 1)
    a = solver.matrix(size, size)
    rhs = solver.matrix(size, 1)
    for k in range(d + 1):
        for j in range(d + 1):
            cre, cim = coeffs[j].real, coeffs[j].imag
            m = k - j
            sign = 1 if m >= 0 else -1
            col = 2 * abs(m)
            a[2 * k, col] += cre
            a[2 * k, col + 1] -= sign * cim
            a[2 * k + 1, col] += cim
            a[2 * k + 1, col + 1] += sign * cre
    rhs[0] = 1 / coeffs[0].real
    x = solver.lu_solve(a, rhs)
    return [solver.mpc(x[2 * m], x[2 * m + 1] if m else 0) for m in range(d + 1)]


@pytest.mark.parametrize("d", range(4))
def test_exact_head_matches_lu_solve(d):
    # the moments from the exact head against lu_solve at bits + 32: within
    # 2^-(bits + 24) of t_0, the largest moment
    rng = np.random.default_rng(60 + d)
    for trial in range(6):
        roots = (1.05 + 3 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        coeffs = np.array([0.3 + 4 * rng.random() + 0j])
        for r in roots:  # times (1 - z/r)
            coeffs = np.append(coeffs, 0) - np.append(0, coeffs) / r
        if trial % 3 == 0:
            coeffs = coeffs.real + 0j
        for bits in (53, 128, 256, 512):
            weight = OuterWeight(LaurentPolynomial(0, coeffs))
            got = moments_mpc(weight, d, bits)[: d + 1]
            want = head_by_lu_solve(coeffs, bits + 32)
            assert len(mo._bernstein_szego_head(coeffs, bits + 32)) == d + 1
            for g, w in zip(got, want):
                assert abs(g - w) <= got[0].real * mp.mpf(2) ** -(bits + 24)


# dyadic psi of degree 1 to 3; the first has its root at -1.05i
EXACT_PSI = [
    [1.3125, -1.25j],
    [1.0, 0.375 - 0.25j, 0.125j],
    [0.75, 0.25 + 0.125j, -0.0625j, 0.03125 - 0.015625j],
]


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 40, 2.0 ** -40],
                         ids=["unit", "times_2^40", "times_2^-40"])
@pytest.mark.parametrize("coeffs", EXACT_PSI, ids=["d1", "d2", "d3"])
def test_moments_match_an_exact_rational_oracle(coeffs, scale, monkeypatch):
    # the head's tolerance, 2^-(bits + 24) t_0, held by every moment through
    # the whole integer recurrence, and at every scale of psi: t_0 is then
    # about 2^-80 or 2^80
    monkeypatch.setattr(mo, "_moment_cache", {})
    coeffs = [c * scale for c in coeffs]
    weight = OuterWeight(LaurentPolynomial(0, coeffs))
    exact = exact_moments(coeffs, 97)
    assert exact[0][1] == 0
    for bits in (53, 128, 256, 512):
        got, e = mo._trig_moments(weight, 96, bits)
        unit = Fraction(2) ** -e  # the moments in units of 2^e
        tol = exact[0][0] * Fraction(2) ** (-bits - 24) * unit
        assert got[0][1] == 0  # t_0 is exactly real
        for m, ((re, im), (tr, ti)) in enumerate(zip(got[:97], exact)):
            dr, di = re - tr * unit, im - ti * unit
            assert dr * dr + di * di <= tol * tol, (bits, m)


def test_trig_moments_make_no_mpmath_number(monkeypatch):
    # the head, psi's pairs and the recurrence run with no mpmath context
    # to be had
    weight = OuterWeight(LaurentPolynomial(0, EXACT_PSI[2]))
    monkeypatch.setattr(mo, "_moment_cache", {})
    want = mo._trig_moments(weight, 40, 256)

    def refuse(bits):
        raise AssertionError(f"an mpmath context at {bits} bits")

    monkeypatch.setattr(mo, "context", refuse)
    monkeypatch.setattr(xlinalg, "context", refuse)
    monkeypatch.setattr(mo, "_moment_cache", {})
    mo._mass_terms.cache_clear()
    got = mo._trig_moments(weight, 40, 256)
    assert got == want
    assert all(type(v) is int for pair in got[0] for v in pair)


def test_moment_cache_is_bounded(monkeypatch):
    # 20 measures keep at most 8 entries, and the newest still hits: a
    # longer request reruns the recurrence from its cached numerator; a
    # hit makes its entry the last to be evicted
    monkeypatch.setattr(mo, "_moment_cache", {})
    heads = []
    real = mo._bernstein_szego_head
    monkeypatch.setattr(mo, "_bernstein_szego_head",
                        lambda c, f: heads.append(f) or real(c, f))
    mus = [MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.5 + i / 64])),
                       PointSpectrum.empty(), 256) for i in range(20)]
    for mu in mus:
        tau_n(mu, 12)
        eta_n(mu, 12)
    assert len(heads) == 20
    assert len(mo._moment_cache) <= 8
    first = mo._trig_moments(mus[-1].weight, 23, 256)
    assert mo._trig_moments(mus[-1].weight, 12, 256)[0] is first[0]
    eta_n(mus[-1], 24)
    assert len(heads) == 20
    mo._trig_moments(mus[12].weight, 4, 256)  # the oldest entry, a hit
    mo._trig_moments(OuterWeight(LaurentPolynomial(0, [1.0, 0.25j])), 4, 256)
    assert len(heads) == 21
    assert (mus[12].weight.coeff_key(), 256) in mo._moment_cache
    assert (mus[13].weight.coeff_key(), 256) not in mo._moment_cache


def test_moment_cache_evicts_safely_from_threads(monkeypatch):
    # threads that fill and evict at once raise nothing and leave at most
    # 8 entries
    monkeypatch.setattr(mo, "_moment_cache", {})
    errors = []

    def run(start):
        try:
            for i in range(start, start + 12):
                mo._trig_moments(OuterWeight(LaurentPolynomial(
                    0, [1.0, -0.5j + i / 128])), 24, 128)
        except Exception as exc:  # every escape is a failure
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(12 * k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(mo._moment_cache) <= 8


@pytest.mark.parametrize("coeffs, radius, low", [
    # 1 - a z, about a < 0.99390, has 1 - a > 2 pi a / 1024: 1,024 samples
    # certify its minimum on one side, more on the other
    *(([1.0, -a], 1.0, 1 - a) for a in (0.5, 0.98, 0.9937, 0.9938, 0.9939,
                                        0.9940, 0.9941, 0.995)),
    ([1.0, -1.8, 0.81], 1.0, 0.01),  # (1 - 0.9 z)^2: 4,096 samples
    # (1 - z/2)^8: 131,072 samples
    ([math.comb(8, j) * (-0.5) ** j for j in range(9)], 1.0, 0.5 ** 8),
    # 1 - 0.98 z on the ladder's last circle: 8,192 samples
    ([1.0, -0.98], 1 / 0.98 ** (15 / 16), 1 - 0.98 ** (1 / 16)),
])
def test_psi_floor_takes_the_samples_its_derivative_bound_needs(
        coeffs, radius, low):
    # the minimum, low, is attained at the sample y = radius: the floor is
    # at most low and within about half of it
    floor = mo._psi_floor(np.array(coeffs, dtype=complex), radius)
    assert (low - 1e-9) / 2 < floor <= low * (1 + 1e-9)


@pytest.mark.parametrize("coeffs, radius", [
    ([1.0, -0.999999999999], 1.0),  # min 1e-12: past 2^20 samples
    ([1.0, -2.0], 1.0),  # a zero inside: psi winds once
    ([1.0, -1.0], 1.0),  # a zero on the circle, at a sample
])
def test_psi_floor_certifies_nothing_past_the_cap_or_around_a_zero(
        coeffs, radius):
    assert mo._psi_floor(np.array(coeffs, dtype=complex), radius) == 0.0


def test_psi_floor_takes_the_half_step_around_each_sample():
    # psi = 1 - 0.9 e^(-i pi/1024) z has its minimum, 0.1, half-way between
    # two of the 1,024 samples, which read 0.10004 there
    psi = np.array([1.0, -0.9 * np.exp(-1j * math.pi / 1024)])
    floor = mo._psi_floor(psi, 1.0)
    assert 0.09 < floor <= 0.1


def test_psi_floor_keeps_its_rounding_margin():
    # psi = 1 - 2^-70 z has its minimum 1 - 2^-70 at the sample y = 1, where
    # the float sample rounds to 1 and the Taylor terms are below 2^-70
    floor = mo._psi_floor(np.array([1.0, -2.0 ** -70], dtype=complex), 1.0)
    assert 0 < Fraction(floor) <= 1 - Fraction(2) ** -70


@pytest.mark.parametrize("coeffs", [[1.0, -0.5], [1.0, -0.9],
                                    [1.0, -0.7 - 0.7j]])
def test_psi_floor_margin_covers_each_samples_rounding(coeffs):
    # the margin against what it covers: at each of the 1,024 samples of the
    # unit circle, every float |b_m| (the sum at the float node, as
    # _psi_floor takes it) against the exact b_m at the exact node.  The
    # error reads 2.5 to 3.5 u S_m here, above (d + 1) u S_m, so a margin
    # 64 times smaller would not cover it
    psi = np.array(coeffs, dtype=complex)
    js = np.arange(len(psi))
    binom = np.array([[float(math.comb(j, m)) for j in js] for m in js])
    margin = mo._psi_margin(psi, binom, 1.0)
    size = mo._PSI_SAMPLES
    y = np.exp(2j * math.pi * np.arange(size) / size)
    ref = context(160)
    for m in js:
        sums = LaurentPolynomial(0, binom[m, m:] * psi[m:])(y)
        got = np.abs(np.broadcast_to(sums, y.shape))
        exact = [ref.mpc(c) * math.comb(j, m) for j, c in enumerate(coeffs)]
        for k in range(size):
            node = ref.expjpi(ref.mpf(2 * k) / size)
            want = abs(ref.fsum(c * node ** (j - m)
                                for j, c in enumerate(exact) if j >= m))
            assert abs(want - got[k]) <= margin[m], (m, k)


def sampled_constant_floor(c, radius):
    """What _psi_floor's sampling pass gives for the constant psi = c: at
    each of its 1,024 samples, |psi| less the margin 2^-47 |c|, and no
    Taylor term beyond the constant."""
    y = radius * np.exp(2j * math.pi * np.arange(mo._PSI_SAMPLES + 1)
                        / mo._PSI_SAMPLES)
    b = np.broadcast_to(LaurentPolynomial(0, [c])(y), y.shape)
    return float(np.min(np.abs(b[:-1]) - 2.0 ** -47 * abs(c)))


@pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
def test_constant_psi_floor_is_the_sampled_floor_without_sampling(radius):
    # a constant psi's floor is |psi(0)| less its rounding margin, the float
    # the sampling pass returns, bit for bit, from 1e-300 to 1e300
    for c in [10.0 ** e * m for e in range(-300, 301, 25)
              for m in (1.0, 1.7, 3.3)] + [2.0 ** -1000, 0.5, 1.0]:
        floor = mo._psi_floor(np.array([c], dtype=complex), radius)
        assert floor == sampled_constant_floor(complex(c), radius), c
        assert floor < c


@pytest.mark.parametrize("zero, degree", [
    (1.05, 7), (1.02, 6), (1.01, 5),
    # minimum 2.6e-11, certified as 9.5e-12
    (1.05, 8)])
def test_outer_weight_loads_psi_whose_minimum_passes_the_rounding_margin(
        zero, degree):
    # (1 - z/zero)^degree, zero-free, its minimum (1 - 1/zero)^degree at
    # y = 1 between 2.6e-11 and 5.6e-10, above rounding margins of 1.3e-12
    # to 1.3e-11 (a margin of (d + 1) 2^-40 S_0 refused each of them)
    coeffs = np.array([math.comb(degree, j) * (-1 / zero) ** j
                       for j in range(degree + 1)], dtype=complex)
    low = (1 - 1 / zero) ** degree
    assert 0 < mo._psi_floor(coeffs, 1.0) <= low
    weight = OuterWeight(LaurentPolynomial(0, coeffs))
    mu = MeasureSpec(weight, PointSpectrum.empty(), 128)
    # mass-free, psi(0) = 1 and n >= degree: tau_n = 1
    assert float(tau_n(mu, 8)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("zero, radius, cap", [
    (2.0, 1.0, 1 << 12), (2.0, math.sqrt(2), 1 << 16), (1.1, 1.0, 1 << 12)])
def test_psi_floor_bounds_clustered_zeros_locally(monkeypatch, zero, radius,
                                                  cap):
    # (1 - z/zero)^8, eight zeros at one point: its derivatives are small
    # where |psi| is, so a bound taken at each sample certifies it with few
    # samples
    coeffs = np.array([math.comb(8, j) * (-1 / zero) ** j for j in range(9)],
                      dtype=complex)
    low = float(np.min(np.abs(np.polyval(coeffs[::-1], radius * np.exp(
        2j * math.pi * np.arange(1 << 16) / (1 << 16))))))
    monkeypatch.setattr(mo, "_GRID_CAP", cap)
    assert 0 < mo._psi_floor(coeffs, radius) <= low


@pytest.mark.parametrize("side, loads", [(1, True), (-1, False)])
def test_outer_weight_certifies_a_zero_next_to_the_circle(side, loads):
    # a zero 2^-16 outside the circle is certified with 2^19 samples; one
    # 2^-16 inside makes psi wind once
    psi = LaurentPolynomial(0, [1.0, -1 / (1 + side * 2.0 ** -16)])
    if loads:
        assert OuterWeight(psi).zero_modulus == pytest.approx(1 + 2.0 ** -16)
    else:
        with pytest.raises(ValueError, match="zero-free on the closed unit"):
            OuterWeight(psi)


def test_outer_weight_accepts_psi_exactly_when_its_zeros_are_outside():
    # psi of degree 1 to 4 with one zero 10^-k from the circle, inside or
    # outside it, and its other zeros beyond 1.5
    rng = np.random.default_rng(37)
    for case in range(24):
        k, side = case % 4 + 1, (-1) ** (case // 4)
        degree = rng.integers(1, 5)
        radii = np.concatenate(([1 + side * 10.0 ** -k],
                                rng.uniform(1.5, 3.0, degree - 1)))
        coeffs = np.ones(1, dtype=complex)  # prod (1 - z / r), psi(0) = 1
        for r in radii * np.exp(2j * math.pi * rng.random(degree)):
            coeffs = np.convolve(coeffs, [1.0, -1 / r])
        psi = LaurentPolynomial(0, coeffs)
        if side > 0:
            OuterWeight(psi)
        else:
            with pytest.raises(ValueError, match="zero-free"):
                OuterWeight(psi)


def test_residue_table_at_the_node_cap_fits_its_memory_budget():
    # psi = 1 with a mass at 1.0003 certifies 2^20 nodes at 256 bits, about
    # 0.56 GiB of table with one mass: built, no node evaluated
    mu = MeasureSpec(OuterWeight.constant_one(),
                     PointSpectrum(((1.0003, 0.3),)), 256)
    nodes = ResidueNodes(mu, [(4, 1)])
    assert nodes._rows[4, 1][3] == 1 << 20
    assert nodes.grid == 0


def test_psi_near_the_circle_keeps_its_whole_ladder():
    # psi = 1 - 0.98 z: every circle of the ladder, up to 15/16 of the way
    # to the zero, is certified, each with more than 1,024 samples
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.98])),
                     PointSpectrum(((1.5, 0.3),)), 128)
    nodes = ResidueNodes(mu, [(1, 0)])
    assert len(nodes._ladder) == len(mo._LADDER)
    assert nodes._zero == mu.weight.zero_modulus == pytest.approx(1 / 0.98)


def test_quadrature_cap_raises(monkeypatch):
    # the residue quadrature's certified grid, 512 nodes here, passes the
    # cap: refused before any node is evaluated
    def no_node(*args):
        raise AssertionError("a node was evaluated")

    assert residue_identity_check(one_mass(), 4, 1)["grid"] == 512
    monkeypatch.setattr(mo, "_GRID_CAP", 256)
    monkeypatch.setattr(mo, "_node_values", no_node)
    with pytest.raises(QuadratureError, match="the mass at"):
        residue_identity_check(one_mass(), 4, 1)


# ----------------------------------------------------------------------
# Gram matrices


def test_gram_polynomial_hand_example():
    g = gram_polynomial(one_mass(53), 1)
    assert g.dim == 2
    assert abs(entry(g, 0, 0) - 1.3) < 1e-14
    assert abs(entry(g, 1, 0) - 0.45) < 1e-14
    assert abs(entry(g, 0, 1) - 0.45) < 1e-14
    assert abs(entry(g, 1, 1) - 1.675) < 1e-14


def test_gram_nesting():
    mu = one_mass(53)
    small = gram_polynomial(mu, 2)
    big = gram_polynomial(mu, 4)
    for r in range(3):
        for c in range(3):
            assert abs(entry(small, r, c) - entry(big, r, c)) == 0


def test_gram_laurent_negative_power_entry():
    g = gram_laurent(one_mass(53), 2)
    # basis z^-1, 1, z, z^2: the (z^-1, z^-1) entry is 1 + 0.3/1.5^2
    assert abs(entry(g, 0, 0) - 17.0 / 15.0) < 1e-14
    assert g.dim == 4


# psi of degree 0-2 and 1-3 masses off the real axis, for the route checks
ROUTE_MEASURES = {
    "deg0-one-mass": ([1.3], ((1.5 + 0.8j, 0.3),)),
    "deg1-two-mass": ([1.0, 0.4 - 0.3j],
                      ((-1.2 + 0.9j, 0.2), (0.3 - 1.7j, 0.6))),
    "deg2-three-mass": ([1.0, 0.3 - 0.2j, 0.1j],
                        ((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2),
                         (0.2 - 2.1j, 0.5))),
}


def route_measure(name, bits):
    coeffs, masses = ROUTE_MEASURES[name]
    return MeasureSpec(OuterWeight(LaurentPolynomial(0, coeffs)),
                       PointSpectrum(masses), bits)


def complex_two_mass(precision):
    psi = OuterWeight(LaurentPolynomial(0, [1.0, 0.3 - 0.2j, 0.1j]))
    return MeasureSpec(psi, PointSpectrum(((1.5 + 0.8j, 0.3),
                                           (-1.2 + 0.9j, 0.2))), precision)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("gram", [gram_polynomial, gram_laurent])
def test_gram_is_hermitian_bit_for_bit(gram, bits):
    # the Gram build hands HermitianMatrix its lower triangle as integers,
    # which entry mirrors: Hermitian by construction, and the diagonal,
    # an exact sum whose imaginary part cancels, exactly real
    g = gram(complex_two_mass(bits), 9)
    assert g.bits == bits
    for j in range(g.dim):
        for k in range(g.dim):
            assert entry(g, j, k) == entry(g, k, j).conjugate()
        assert entry(g, j, j).imag == 0


def per_entry_gram(mu, exps, bits):
    """The mass-free Gram build that rounds every entry on its own: the
    oracle for the build that rounds each distinct moment once."""
    n = len(exps)
    lo, hi = min(exps), max(exps)
    t, e = mo._trig_moments(mu.weight, hi - lo, bits)
    values = [xlinalg._to_mpc(context(bits + 32), re, im, e) for re, im in t]
    ctx = context(bits)
    cols = [[None] * n for _ in range(n)]
    for c in range(n):
        for r in range(c, n):
            d = exps[c] - exps[r]
            val = ctx.conj(values[-d]) if d < 0 else ctx.mpc(values[d])
            if r != c:
                val = ctx.mpc(val)
                cols[c][r] = val
                cols[r][c] = ctx.conj(val)
            else:
                cols[c][c] = ctx.mpc(val.real)
    return cols


def spans(n):
    return ((gram_polynomial, range(n + 1)),
            (gram_laurent, range(-(n - 1), n + 1)))


def assert_gram_matches_per_entry_build(mu, bits, degrees):
    for n in degrees:
        for gram, exps in spans(n):
            want = per_entry_gram(mu, exps, bits)
            got = gram(mu, n)
            assert got.bits == bits
            assert ([[entry(got, r, c)._mpc_ for r in range(got.dim)]
                     for c in range(got.dim)]
                    == [[v._mpc_ for v in col] for col in want]), (n, gram)


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
@pytest.mark.parametrize("coeffs", [
    [1.0, 0.4 - 0.3j],
    [1.3, 0.3 - 0.2j, 0.1j],
    [0.7, 0.2 + 0.1j, -0.05j, 0.03 - 0.02j],
], ids=["d1", "d2", "d3"])
def test_mass_free_gram_matches_per_entry_build(coeffs, bits):
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, coeffs)),
                     PointSpectrum.empty(), bits)
    assert_gram_matches_per_entry_build(mu, bits, (3, 12, 24))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES))
def test_mass_gram_matches_per_entry_build(name, bits):
    # the Gram build with masses and moment share one entry rule, so each
    # entry (r, c) is moment(mu, e_c, e_r) bit for bit
    mu = route_measure(name, bits)
    for n in (1, 3, 12):
        for gram, exps in spans(n):
            g = gram(mu, n)
            assert g.bits == bits
            for c, e_c in enumerate(exps):
                for r, e_r in enumerate(exps):
                    assert entry(g, r, c)._mpc_ == moment(mu, e_c, e_r)._mpc_, (
                        n, gram, r, c)


@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES))
def test_mass_gram_entries_match_an_exact_rational_oracle(name):
    # each entry is rounded once from an exact integer sum, so it lies
    # within 2^-bits sqrt(g_rr g_cc) of the exact inner product
    coeffs, masses = ROUTE_MEASURES[name]
    for n in (1, 3, 12):
        for gram, exps in spans(n):
            exact = exact_gram(coeffs, masses, exps)
            for bits in (128, 256):
                g = gram(route_measure(name, bits), n)
                unit = Fraction(2) ** (-2 * bits)
                for (r, c), (er, ei) in exact.items():
                    v = entry(g, r, c)
                    dr, di = as_fraction(v.real) - er, as_fraction(v.imag) - ei
                    tol = unit * exact[r, r][0] * exact[c, c][0]
                    assert dr * dr + di * di <= tol, (n, gram, bits, r, c)


# the README's two-mass measure and complex_two_mass, for the exact solves
EXACT_MEASURES = {
    "readme_two_mass": ([1.0, -0.5], ((1.5, 0.3), (-1.25, 0.1))),
    "complex_two_mass": ([1.0, 0.3 - 0.2j, 0.1j],
                         ((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2))),
}


def exact_measure(name, bits):
    coeffs, masses = EXACT_MEASURES[name]
    return MeasureSpec(OuterWeight(LaurentPolynomial(0, coeffs)),
                       PointSpectrum(masses), bits)


def last_column_of_inverse(gram, n):
    """G^-1 e_N, exact, by the fraction-free solve; its last entry is
    (G^-1)_NN."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    return bareiss_solve(gram, n, [zero] * (n - 1) + [one])


@functools.lru_cache(maxsize=None)
def exact_last_column(name, exps):
    """last_column_of_inverse of the measure's exact Gram matrix."""
    return last_column_of_inverse(exact_gram(*EXACT_MEASURES[name], exps),
                                  len(exps))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(EXACT_MEASURES))
def test_leading_coefficients_match_the_exact_oracle(name, bits):
    # tau_0, tau_1 and eta_1 (the Gram route with masses below deg psi, the
    # closed form at and above it) against the exact tau_n = sqrt((G^-1)_NN):
    # within 2^-bits relative, one ulp; 0.63 units of 2^-bits is the largest
    # gap seen
    mu = exact_measure(name, bits)
    eps = Fraction(1, 2 ** bits)
    for n, laurent in ((0, False), (1, False), (1, True)):
        exps = tuple(range(1 - n, n + 1) if laurent else range(n + 1))
        want = exact_last_column(name, exps)[-1][0]  # tau_n^2
        got = as_fraction((eta_n if laurent else tau_n)(mu, n))
        assert (1 - eps) ** 2 <= got * got / want <= (1 + eps) ** 2, (n, laurent)


def exact_entries(g):
    """The entries of the HermitianMatrix g as the exact Fractions it
    holds, {(r, c): (re, im)}."""
    unit = Fraction(2) ** g.exp
    out = {}
    for r in range(g.dim):
        for c in range(r + 1):
            re, im = g.lower[r][c]
            out[r, c], out[c, r] = (re * unit, im * unit), (re * unit, -im * unit)
    return out


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(EXACT_MEASURES))
def test_integer_witness_matches_the_exact_oracle(name, bits):
    # the integer witness v = G^-1 e_N / eta, eta = v_N, held as
    # v_N^2 = (G^-1)_NN and v_i v_N = (G^-1 e_N)_i, both relative to
    # (G^-1)_NN.  Against the exact inverse of the matrix it is given (its
    # entries rounded to the tag) within 2^(-16 - bits): the solve's own
    # rounding at bits + 32 fractional bits, 2^(-24 - bits) seen.  Against
    # the measure's exact Gram matrix within 2^(10 - bits): the entries'
    # rounding to the tag times the conditioning, 2^(8.5 - bits) seen at
    # n = 8.  The exact Gram matrix of complex_two_mass's Laurent span holds
    # powers of 1/z with large odd denominators, so that span stops at n = 4
    # (n = 6 takes 10 s)
    mu = exact_measure(name, bits)
    for n in (1, 2, 4, 8):
        for gram, exps in spans(n):
            g = gram(mu, n)
            v, frac = xlinalg._extremal(g)
            unit = Fraction(1, 2 ** frac)
            v = [(re * unit, im * unit) for re, im in v]
            wants = [(last_column_of_inverse(exact_entries(g), g.dim), -16)]
            if name == "readme_two_mass" or gram is gram_polynomial or n <= 4:
                wants.append((exact_last_column(name, tuple(exps)), 10))
            for want, e in wants:
                x_nn = want[-1][0]
                tol = (x_nn * Fraction(2) ** (e - bits)) ** 2
                assert (v[-1][0] ** 2 - x_nn) ** 2 <= tol, (n, gram, e)
                for (vr, vi), (xr, xi) in zip(v, want):
                    dr, di = vr * v[-1][0] - xr, vi * v[-1][0] - xi
                    assert dr * dr + di * di <= tol, (n, gram, e)


def test_gram_validation():
    with pytest.raises(ValueError):
        gram_polynomial(one_mass(53), -1)
    with pytest.raises(ValueError):
        gram_laurent(one_mass(53), 0)
    # the precision is a tag: 7 bits built a matrix whose tau_3 read 0.703
    # (0.711 at 53 bits), and 0 fell back to the measure's precision
    for bits in (7, 0, 64):
        for gram in (gram_polynomial, gram_laurent):
            with pytest.raises(ValueError, match="bits"):
                gram(one_mass(53), 3, bits)


# ----------------------------------------------------------------------
# leading coefficients


def test_tau_zero_one_mass():
    v = tau_n(one_mass(), 0)
    with mp.workprec(300):
        # the stored mass is the double 0.3, so build the oracle from it too
        assert abs(v - 1 / mp.sqrt(1 + mp.mpf(0.3))) < 1e-70


def test_tau_one_frozen():
    assert abs(tau_n(one_mass(), 1) - mp.mpf("0.8113124232")) < 1e-9


def test_eta_equals_tau_at_n_one():
    mu = one_mass()
    assert abs(tau_n(mu, 1) - eta_n(mu, 1)) < 1e-40


def test_tau_converges_to_target_one_mass():
    v = tau_n(one_mass(), 24)
    assert abs(v - mp.mpf(2) / 3) < 1e-8


def test_eta_four_frozen():
    assert abs(eta_n(one_mass(), 4) - mp.mpf("0.693646231198")) < 1e-9


@pytest.mark.parametrize("psi", [
    [1.0, 0.4 - 0.3j],
    [1.0, -0.3 + 0.2j, 0.1 + 0.15j, 0.05 - 0.05j],
])
def test_mass_free_leading_coefficients_are_psi0_at_53_bits(psi):
    # without masses tau_n = eta_n = psi(0) for n >= deg psi.  The Schur
    # complement is the factor's last pivot, taken at 32 guard bits, so at
    # 53 bits it rounds to psi(0) itself, not to a neighbour one ulp away
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                     PointSpectrum.empty(), 53)
    deg = len(psi) - 1
    for n in sorted({deg, deg + 1, 4, 8, 16}):
        assert tau_n(mu, n) == mu.weight.psi0, ("tau", n)
        assert eta_n(mu, n) == mu.weight.psi0, ("eta", n)


def test_two_mass_frozen_and_bracketing():
    mu = two_mass()
    eta = eta_n(mu, 16)
    tau = tau_n(mu, 16)
    assert abs(eta - mp.mpf("0.534094060208")) < 1e-9
    assert abs(tau - mp.mpf("0.53328358249")) < 1e-9
    assert abs(eta - mp.mpf(8) / 15) < 1e-3
    assert abs(tau - mp.mpf(8) / 15) < 1e-3


def test_eta_dominates_tau():
    # the Laurent span contains the polynomial span with the same pivot
    mu = one_mass()
    for n in (2, 4, 8):
        assert eta_n(mu, n) >= tau_n(mu, n) - mp.mpf(2) ** -200


def test_rotation_covariance():
    # rotation by i keeps the double modulus exactly 1.5, so the Gram
    # matrices are exact diagonal-unitary conjugates of each other
    rot = MeasureSpec(OuterWeight.constant_one(),
                      PointSpectrum(((1.5j, 0.3),)), 256)
    with mp.workprec(300):
        assert abs(tau_n(rot, 4) - tau_n(one_mass(), 4)) < 1e-50
    # a generic rotation agrees to double-entry accuracy
    w = 1.5 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    gen = MeasureSpec(OuterWeight.constant_one(),
                      PointSpectrum(((w, 0.3),)), 256)
    with mp.workprec(300):
        assert abs(tau_n(gen, 4) - tau_n(one_mass(), 4)) < 1e-13


def test_bernstein_szego_leading_coefficients():
    mu = bernstein_szego(a=0.5, precision=128)
    with mp.workprec(200):
        assert abs(tau_n(mu, 0) - mp.sqrt(mp.mpf(3)) / 2) < 1e-25
        for n in range(1, 13):
            assert abs(tau_n(mu, n) - 1) < 1e-20
        assert abs(eta_n(mu, 8) - 1) < 1e-10


# mass-free measures: psi of degree 0-3 with complex coefficients
MASS_FREE_PSI = {
    "d0": [1.3],
    "d1": [0.8, 0.4 - 0.3j],
    "d2": [1.3, 0.3 - 0.2j, 0.1j],
    "d3": [0.7, 0.2 + 0.1j, -0.05j, 0.03 - 0.02j],
}


def mass_free(name, bits):
    return MeasureSpec(OuterWeight(LaurentPolynomial(0, MASS_FREE_PSI[name])),
                       PointSpectrum.empty(), bits)


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
@pytest.mark.parametrize("name", sorted(MASS_FREE_PSI))
def test_szego_recursion_matches_the_schur_complement(name, bits):
    # without masses the Gram route runs the Szego recursion on the
    # Toeplitz Gram matrix; the Cholesky factor's last pivot is its oracle
    mu = mass_free(name, bits)
    d = mu.weight.psi.hi
    for n in sorted({d, d + 1, 7, 20, 48}):
        for laurent in (False, True) if n else (False,):
            g = (gram_laurent if laurent else gram_polynomial)(mu, n)
            got, want = toeplitz_leading(g), schur_leading(g)
            assert mo._gram_leading(mu, n, laurent) == got
            if bits >= 256:
                assert abs(got - want) <= 1e-60 * want, (n, laurent)
            else:
                assert float(got) == float(want), (n, laurent)


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
@pytest.mark.parametrize("name", sorted(MASS_FREE_PSI))
def test_szego_recursion_gives_psi0_past_deg_psi(name, bits):
    # Bernstein-Szego: tau_n = eta_n = psi(0) for n >= deg psi.  The Gram
    # entries are the moments rounded to the tag, so the values agree with
    # psi(0) to one unit in the last place
    mu = mass_free(name, bits)
    d = mu.weight.psi.hi
    psi0 = mu.weight.psi0
    ulp = context(bits).ldexp(psi0, 1 - bits)
    for n in sorted({d, d + 1, 5, 16}):
        assert abs(tau_n(mu, n) - psi0) <= ulp, ("tau", n)
        if n:
            assert abs(eta_n(mu, n) - psi0) <= ulp, ("eta", n)


def test_gram_route_dispatches_on_the_masses(monkeypatch):
    calls = []
    for name in ("schur_leading", "toeplitz_leading"):
        def spy(g, real=getattr(mo, name), name=name):
            calls.append(name)
            return real(g)
        monkeypatch.setattr(mo, name, spy)
    mo._gram_leading(mass_free("d2", 128), 4, laurent=True)
    mo._gram_leading(route_measure("deg2-three-mass", 128), 1, laurent=False)
    assert calls == ["toeplitz_leading", "schur_leading"]


@pytest.mark.parametrize("bits", [256, 128, 53])
@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES))
def test_closed_form_schur_and_witness_agree(name, bits):
    # three routes to tau_n and eta_n: Uvarov's closed form (tau_n, eta_n),
    # the Schur complement of the Gram matrix, and the z^n coefficient of
    # the extremal witness; psi with non-real coefficients pins the moment
    # convention the closed form shares with the Gram route
    mu = route_measure(name, bits)
    d = mu.weight.psi.hi
    top = (48,) if bits == 256 else ()  # the n = 48 Gram solves take seconds
    for n in sorted({d, d + 1, 7, 20, *top}):
        for laurent in (False, True) if n else (False,):
            closed = (eta_n if laurent else tau_n)(mu, n)
            schur = mo._gram_leading(mu, n, laurent)
            witness = extremal_element(mu, n, laurent)[-1]
            assert mp.im(witness) == 0
            if bits == 256:
                for other in (schur, witness.real):
                    assert abs(closed - other) < 1e-30 * closed, (n, laurent)
            else:
                assert float(closed) == float(schur) == float(witness.real), (
                    n, laurent)


def test_closed_form_reaches_the_limit_at_large_n():
    mu = route_measure("deg2-three-mass", 256)
    target = target_limit(mu)
    for n in (1000, 10 ** 6):
        assert abs(tau_n(mu, n) - target) < 1e-14
        assert abs(eta_n(mu, n) - target) < 1e-14


# psi, masses and degrees where a fixed 32 guard bits lose the last bits
FAR_AND_NEAR_MEASURES = {
    # the last pivot is about |z|^-2 = 1e-20, so 1 minus a sum near 1
    # loses 66 bits
    "far": ([1.0], ((1e10, 1.0),), (1, 2, 3)),
    "far-complex": ([1.0, 0.3 + 0.2j], ((3e9 + 1e10j, 0.5),), (1, 2, 3)),
    # a pivot of 1e-60 is rounding noise at 32 guard bits
    "farther": ([1.0], ((1e30, 1.0),), (1,)),
    # 1 - |z|^2 = -2e-12 cancels in the kernel's denominator and numerator
    "near-circle": ([1.0], ((1 + 1e-12, 1.0),), (1, 3, 8)),
}


@pytest.mark.parametrize("name", sorted(FAR_AND_NEAR_MEASURES))
def test_closed_form_keeps_the_precision_of_the_gram_route(name):
    # the Gram route starts at the precision floor for the masses' growth,
    # so on these small degrees it is right to the last bit of a 53-bit tag
    psi, masses, ns = FAR_AND_NEAR_MEASURES[name]
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                     PointSpectrum(masses), 53)
    for n in ns:
        assert float(tau_n(mu, n)) == float(mo._gram_leading(mu, n, False)), n
        assert float(eta_n(mu, n)) == float(mo._gram_leading(mu, n, True)), n


def test_closed_form_raises_on_an_indefinite_system():
    # a negative weight is not a measure: S = M^-1 + K loses positivity, and
    # the closed form reports it rather than returning a number
    mu = one_mass()
    object.__setattr__(mu.spectrum, "masses", ((1.5, -1e-3),))
    with pytest.raises(NotPositiveDefinite):
        tau_n(mu, 4)


def test_closed_form_factors_with_the_gram_routes_cholesky(monkeypatch):
    # the Woodbury system [[S, f], [f^H, 1]] of K masses goes through
    # xlinalg's integer Cholesky core, the Gram route's factor, at the
    # measure's precision plus 32 guard bits, once: on the README's two-mass
    # measure the first run's radius decides the rounding
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.5])),
                     PointSpectrum(((1.5, 0.3), (-1.25, 0.1))), 256)
    seen = []
    factor = mo._cholesky_fixed

    def spy(lower, e, bits):
        seen.append((len(lower), bits))
        return factor(lower, e, bits)

    monkeypatch.setattr(mo, "_cholesky_fixed", spy)
    tau_n(mu, 8)
    assert seen == [(3, 256 + 32)]


def uvarov_ratio_by_mpc(mu, n, shift, bits):
    """_uvarov_ratio in mpc arithmetic at bits, factored by
    test_xlinalg.factor, its entries taken as given (test_xlinalg.trusted,
    as bits is not a tag): the oracle of the integer system."""
    ctx = context(bits)
    psi = [ctx.mpc(c) for c in mu.weight.psi.coeffs[::-1]]
    points = []
    for z, m in mu.spectrum.masses:
        z = ctx.mpc(z)
        r = 1 / abs(z)
        scale = r ** (n + 1)
        f = z ** n * scale * ctx.polyval(psi, 1 / z)
        points.append((z, scale * ctx.conj(ctx.polyval(psi, ctx.conj(z))),
                       f * z, f, r ** (2 * (n + 1 - shift)) / m))
    k = len(points)
    cols = [[None] * (k + 1) for _ in range(k + 1)]
    for l, (z_l, p_l, phi_l, f_l, inv_m) in enumerate(points):
        for i, (z_i, p_i, phi_i, _, _) in enumerate(points[l:], l):
            v = ((p_i * ctx.conj(p_l) - phi_i * ctx.conj(phi_l))
                 / (1 - z_i * ctx.conj(z_l)))
            cols[i][l], cols[l][i] = ctx.conj(v), v
        cols[l][l] += inv_m
        cols[l][k], cols[k][l] = ctx.conj(f_l), f_l
    cols[k][k] = ctx.mpc(1)
    return factor(trusted(cols, bits))[-1][-1]


def closed_form_by_mpc(mu, n, shift=0):
    """tau_n by the mpc oracle at 1,024 guard bits, more than any of these
    measures loses (the farthest mass, at 1e30, about 400), rounded once
    to the measure's precision."""
    ratio = uvarov_ratio_by_mpc(mu, n, shift, mu.precision + 1024)
    return context(mu.precision).mpf(ratio.context.mpf(mu.weight.psi0) * ratio)


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES)
                         + sorted(FAR_AND_NEAR_MEASURES))
def test_integer_closed_form_matches_the_mpc_oracle(name, bits):
    # the integer system's certified run and the mpc oracle at a high
    # guard round to the same mpf, for tau (shift 0) and eta (shift n - 1
    # at degree 2n - 1), up to n = 10^6
    if name in ROUTE_MEASURES:
        mu = route_measure(name, bits)
    else:
        psi, masses, _ = FAR_AND_NEAR_MEASURES[name]
        mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                         PointSpectrum(masses), bits)
    d = mu.weight.psi.hi
    for n in sorted({d, d + 1, 3, 8, 20, 48, 10 ** 6}):
        for degree, shift in ((n, 0), (2 * n - 1, n - 1)):
            if degree >= max(d, 1):
                want = closed_form_by_mpc(mu, degree, shift)
                got = mo._closed_form_leading(mu, degree, shift)[0]
                assert got == want and got.context.prec == bits, (n, shift)


def test_closed_form_system_makes_no_mpmath_number(monkeypatch):
    # the Woodbury system is built and factored on integers: with no mpmath
    # context to be had, _uvarov_ratio still returns the last pivot, as an
    # integer mantissa and exponent that _closed_form_leading rounds once,
    # and its radius
    mu = route_measure("deg2-three-mass", 256)
    want = {(n, shift): mo._uvarov_ratio(mu, n, shift, 288)
            for n, shift in ((2, 0), (39, 19), (10 ** 6, 0))}

    def refuse(bits):
        raise AssertionError(f"an mpmath context at {bits} bits")

    monkeypatch.setattr(mo, "context", refuse)
    monkeypatch.setattr(xlinalg, "context", refuse)
    mo._mass_terms.cache_clear()
    mo._uvarov_terms.cache_clear()
    for (n, shift), pivot in want.items():
        man, exp, radius = mo._uvarov_ratio(mu, n, shift, 288)
        assert type(man) is int and type(exp) is int and man > 0
        assert (man, exp, radius) == pivot


def test_mass_terms_are_shared_across_degrees():
    # the parts of the system that depend only on a mass are formed once
    # per fixed point, for every n of a request and both coefficients
    mu = route_measure("deg1-two-mass", 128)
    mo._mass_terms.cache_clear()
    mo._uvarov_terms.cache_clear()
    for n in (4, 8, 16):
        tau_n(mu, n)
        eta_n(mu, n)
    # one run, at 32 guard bits, on every call: _mass_terms reads the
    # masses, and psi at its own scale, once each
    assert mo._mass_terms.cache_info().misses == 2
    assert mo._uvarov_terms.cache_info().misses == 1


# ----------------------------------------------------------------------
# the closed form's certified radius (one run per value, Ziv's test)


def ratio_ball(mu, n, shift, guard):
    """The ball of tau_n / psi(0) from one run of _uvarov_ratio at guard
    bits past the tag, as exact Fractions (centre, radius)."""
    man, exp, radius = mo._uvarov_ratio(mu, n, shift, mu.precision + guard)
    centre = man * Fraction(2) ** exp
    return centre, Fraction(radius) * centre


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(EXACT_MEASURES))
def test_closed_form_ball_holds_the_exact_value(name, bits):
    # the first run's ball, at 32 guard bits, holds the exact
    # tau_n / psi(0) = sqrt((G^-1)_NN) / psi(0) of the exact oracle, for
    # tau_n and eta_n up to n = 8, and is narrow enough to decide the
    # rounding: below 2^-(bits + 16) relative.  complex_two_mass's Laurent
    # spans stop at n = 4 (see test_integer_witness_matches_the_exact_oracle)
    mu = exact_measure(name, bits)
    d = mu.weight.psi.hi
    psi0 = Fraction(mu.weight.psi0)
    for n in range(1, 9):
        for laurent in (False, True):
            degree, shift = (2 * n - 1, n - 1) if laurent else (n, 0)
            if degree < d or laurent and name == "complex_two_mass" and n > 4:
                continue
            exps = tuple(range(1 - n, n + 1) if laurent else range(n + 1))
            x_nn = exact_last_column(name, exps)[-1][0]  # tau_n^2
            centre, radius = ratio_ball(mu, degree, shift, 32)
            assert 0 < radius <= centre * Fraction(2) ** -(bits + 16)
            assert ((centre - radius) * psi0) ** 2 <= x_nn, (n, laurent)
            assert x_nn <= ((centre + radius) * psi0) ** 2, (n, laurent)


@pytest.mark.parametrize("name", sorted(FAR_AND_NEAR_MEASURES))
def test_closed_form_ball_holds_the_value_where_runs_lose_bits(name):
    # masses far out or next to the circle, where a run loses up to ~400
    # bits: at every guard whose run factors, the ball holds the mpc
    # oracle's ratio at 2,048 guard bits, also where it is too wide to
    # decide the rounding.  The radius is a bound, not an estimate: the
    # error reads at least 1/60 of it somewhere here, so a radius 64 times
    # too small would not hold
    psi, masses, ns = FAR_AND_NEAR_MEASURES[name]
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                     PointSpectrum(masses), 53)
    worst = 0.0
    for n in ns:
        for degree, shift in ((n, 0), (2 * n - 1, n - 1)):
            exact = uvarov_ratio_by_mpc(mu, degree, shift, 53 + 2048)
            for guard in (32, 64, 128, 256, 512):
                try:
                    centre, radius = ratio_ball(mu, degree, shift, guard)
                except NotPositiveDefinite:
                    continue
                if math.isinf(radius):
                    continue
                ctx = exact.context
                gap = abs(ctx.mpf(centre.numerator) / centre.denominator - exact)
                bound = ctx.mpf(radius.numerator) / radius.denominator
                assert gap <= bound, (n, shift, guard)
                worst = max(worst, float(gap / bound))
    assert worst >= 1 / 60


def test_closed_form_element_ball_holds_a_high_guard_element():
    # the element's radius holds the element of a run at 2,048 guard bits,
    # on the element measures and a far mass, from the first run on
    cases = [element_measure(name, 128) for name in sorted(ELEMENT_MEASURES)]
    cases.append(MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.5])),
                             PointSpectrum(((3e4, 1.0), (1.5, 0.3))), 128))
    for mu in cases:
        for n in (4, 12):
            want, _ = mo._uvarov_element(mu, 2 * n - 1, n - 1, 128 + 2048)
            for guard in (32, 64):
                got, radius = mo._uvarov_element(mu, 2 * n - 1, n - 1,
                                                 128 + guard)
                move = 2048 - guard
                gap = max(max(abs((gr << move) - wr), abs((gi << move) - wi))
                          for (gr, gi), (wr, wi) in zip(got, want))
                # the high-guard run's own error is below one of its units
                assert gap <= (math.ceil(radius) << move) + 2, (n, guard)


def closed_form_guards(monkeypatch):
    """The guard bits of every run of Uvarov's system, as they happen."""
    guards = []
    system = mo._uvarov_system

    def spy(mu, n, shift, bits):
        guards.append(bits - mu.precision)
        return system(mu, n, shift, bits)

    monkeypatch.setattr(mo, "_uvarov_system", spy)
    return guards


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """bench/workloads.py, which makes the benchmark's requests, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_requests(seed):
    """The first 48 opuc-exact requests of the benchmark for a seed."""
    return bench_workloads().build_requests("opuc-exact", seed, 48)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_takes_one_run_per_value_on_the_benchmark(
        seed, monkeypatch):
    # every closed-form tau_n, eta_n and residue element of the
    # benchmark's opuc-exact requests is certified by one run of Uvarov's
    # system, at 32 guard bits
    guards = closed_form_guards(monkeypatch)
    values = 0
    for req in benchmark_requests(seed):
        mu = MeasureSpec.from_json(req.measure)
        if not mu.spectrum.masses:
            continue
        d = mu.weight.psi.hi
        for n in req.manifest["n_grid"]:
            if req.command == "opuc":
                tau_n(mu, n)
                eta_n(mu, n)
                values += (n >= d) + (2 * n - 1 >= d)
            elif 2 * n - 1 >= d:
                mo._closed_form_element(mu, n, mu.precision + 32)
                values += 1
    assert values > 100 and guards == [32] * values


def test_closed_form_runs_again_only_where_ziv_asks(monkeypatch):
    # a mass at 1e10 or 1e30 loses more than the 64 bits a first run
    # carries past the tag, so its values take more than one run; a mass
    # at 1 + 1e-12 loses about 36, and takes one
    guards = closed_form_guards(monkeypatch)
    for name, runs in (("far", 3), ("far-complex", 3), ("farther", 5),
                       ("near-circle", 1)):
        psi, masses, ns = FAR_AND_NEAR_MEASURES[name]
        mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                         PointSpectrum(masses), 53)
        for n in ns:
            guards.clear()
            value, guard, _ = mo._closed_form_leading(mu, n)
            assert guards == [32 << k for k in range(runs)], (name, n)
            assert guard == guards[-1]


def test_closed_form_keeps_its_radius_in_the_float_range():
    # a mass at 1e150 costs about 2,000 bits: the run that decides tau_4
    # has f past 2,000, where 2^-f, the entry radii in its units (past
    # 1e300) and the last pivot's square times 2^f all leave the float
    # range, so every float step is scaled to stay inside it.  The value is
    # the mpc oracle's at 4,096 guard bits
    mu = MeasureSpec(OuterWeight.constant_one(),
                     PointSpectrum(((1e150, 0.3),)), 53)
    value, guard, radius = mo._closed_form_leading(mu, 4)
    assert guard == 2048 and 0 < radius < 2.0 ** -60
    ratio = uvarov_ratio_by_mpc(mu, 4, 0, 53 + 4096)
    assert value == context(53).mpf(ratio.real)


@pytest.mark.parametrize("c", [1e-300, 2.0 ** -40, 1.0, 1e300])
def test_closed_form_holds_psi_at_its_own_scale(c, monkeypatch):
    # psi = c (1 - z/2) with two masses, 128 bits: Uvarov's system holds
    # psi times 2^-s, psi(0) 2^-s in [1, 2), and the weights times 2^(2s),
    # so every value and element takes one run at any scale of psi
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [c, -c / 2])),
                     PointSpectrum(((1.5, 0.3), (-2 + 1j, 0.2))), 128)
    guards = closed_form_guards(monkeypatch)
    for n in (4, 8, 12):
        tau_n(mu, n)
        eta_n(mu, n)
    rows = [(n, k) for n in (4, 8, 12) for k in range(3)]
    nodes = ResidueNodes(mu, rows)
    assert guards == [32] * 9
    for n, k in rows:
        assert residue_identity_check(mu, n, k, nodes)["abs_diff"] < 1e-40


def test_closed_form_element_vanishes_where_the_masses_outweigh_psi():
    # psi = 1e300 (1 - z/2) makes the circle part 1e600 times lighter than
    # the masses, so the orthonormal element vanishes at them.  With psi
    # held at an absolute scale the mass terms' witness rounded to 0 and
    # the element was psi's own, off by its own size at z = 1.5
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [1e300, -5e299])),
                     PointSpectrum(((1.5, 0.3), (-2 + 1j, 0.2))), 128)
    ctx = context(256)
    for n in (4, 8, 12):
        element, _ = mo._closed_form_element(mu, n, 160)
        for z, _ in mu.spectrum.masses:
            terms = [ctx.mpc(re, im) * ctx.mpc(z) ** e
                     for (re, im), e in zip(element, range(1 - n, n + 1))]
            assert abs(ctx.fsum(terms)) <= 1e-30 * max(map(abs, terms)), n


# masses from next to the circle to far out, on and off the real axis
READER_POINTS = (1 + 2 ** -40, 1.048, 3.0, 1e10,
                 0.30989318677310634 - 2.453090435626173j, 1e-3 - 1.2j)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_mass_terms_against_a_512_bit_reference(bits):
    # psi, z and m read exactly; zeta = 1/conj(z), u = z/|z| and r = 1/|z|
    # each within one unit at f of the value at 512 bits
    f = bits + 32
    psi = (1.051676 + 0j, 0.3 - 0.2j, 0.1j)
    masses = tuple((complex(z), 0.204476) for z in READER_POINTS)
    coeffs, terms = mo._mass_terms(psi, masses, f)
    ref = context(512)
    unit = ref.ldexp(1, -f)
    exact = [(ref.ldexp(c.real, f), ref.ldexp(c.imag, f)) for c in psi]
    assert coeffs == tuple((int(re), int(im)) for re, im in exact)
    assert all(ref.isint(v) for pair in exact for v in pair)
    for (z, m), (zf, zeta, u, r, mf, _) in zip(masses, terms):
        x = ref.mpc(z)
        assert ref.mpc(ref.ldexp(zf[0], -f), ref.ldexp(zf[1], -f)) == x
        assert mf == int(ref.ldexp(m, f))
        for got, want in ((zeta, 1 / ref.conj(x)), (u, x / abs(x)),
                          ((r, 0), ref.mpc(1 / abs(x)))):
            for part, value in zip(got, (want.real, want.imag)):
                assert abs(ref.ldexp(part, -f) - value) <= unit, (z, want)


def test_mass_terms_make_no_mpmath_number(monkeypatch):
    # the reader runs with no mpmath context to be had
    psi = (1.0 + 0j, -0.5 + 0.25j)
    masses = tuple((complex(z), 0.3) for z in READER_POINTS)
    want = mo._mass_terms(psi, masses, 160)

    def refuse(bits):
        raise AssertionError(f"an mpmath context at {bits} bits")

    monkeypatch.setattr(mo, "context", refuse)
    monkeypatch.setattr(xlinalg, "context", refuse)
    mo._mass_terms.cache_clear()
    assert mo._mass_terms(psi, masses, 160) == want


# ----------------------------------------------------------------------
# orthonormal elements


def extremal_element(mu, n, laurent=False):
    """The orthonormal element of degree n as the extremal witness of its
    Gram matrix (constrained_max_leading), under the Gram route's
    escalation: its mpc coefficients of z^lo..z^n, lo = -(n - 1) for the
    Laurent element and 0 for the polynomial, untrimmed, the z^n
    coefficient last."""
    gram = gram_laurent if laurent else gram_polynomial
    return mo._escalate(mu, n, lambda bits: constrained_max_leading(
        gram(mu, n, bits))[1], "the extremal witness solve")


def test_orthonormal_element_lebesgue_monomial():
    mu = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    p = extremal_element(mu, 2)
    assert len(p) == 3 and all(c == 0 for c in p[:-1])
    assert abs(complex(p[-1]) - 1.0) < 1e-14


def test_orthonormal_element_degree_zero():
    p = extremal_element(one_mass(53), 0)
    assert len(p) == 1
    assert abs(complex(p[-1]) - 0.8770580193070292) < 1e-13


def test_orthonormal_element_laurent_validation():
    with pytest.raises(ValueError):
        extremal_element(one_mass(53), 0, laurent=True)


def test_orthonormal_element_is_orthonormal():
    # verified against the moments directly, not through the factorization
    mu = one_mass()
    el = extremal_element(mu, 10, laurent=True)
    assert len(el) == 20
    exps = list(range(-9, 11))
    with mp.workprec(320):
        worst = mp.mpf(0)
        for j in range(-9, 10):
            s = mp.mpc(0)
            for e, c in zip(exps, el):
                s += c * moment(mu, e, j)
            worst = max(worst, abs(s))
        assert worst < 1e-60
        nrm = mp.mpc(0)
        for e1, c1 in zip(exps, el):
            for e2, c2 in zip(exps, el):
                nrm += c1 * mp.conj(c2) * moment(mu, e1, e2)
        assert abs(nrm - 1) < 1e-60
    lead = el[-1]
    assert abs(lead - eta_n(mu, 10)) < mp.mpf(2) ** -200
    assert mp.im(lead) == 0


# the route measures, and a mass near the circle and one far from it, for
# the closed-form element
ELEMENT_MEASURES = dict(ROUTE_MEASURES, **{
    "near-circle-mass": ([1.0, -0.3], ((0.63 + 0.84j, 0.4),)),
    "mass-at-three": ([1.0, -0.5], ((3.0, 1.0),)),
})


def element_measure(name, bits):
    coeffs, masses = ELEMENT_MEASURES[name]
    return MeasureSpec(OuterWeight(LaurentPolynomial(0, coeffs)),
                       PointSpectrum(masses), bits)


def closed_form_element(mu, n):
    """The closed-form Laurent element of degree n at f = bits + 32
    fractional bits, as exact mpc coefficients of z^-(n-1)..z^n."""
    f = mu.precision + 32
    ctx = context(mu.precision)
    return [fixed_to_mpc(ctx, re, im, f)
            for re, im in mo._closed_form_element(mu, n, f)[0]]


@pytest.mark.parametrize("bits", [256, 128])
@pytest.mark.parametrize("name", sorted(ELEMENT_MEASURES))
def test_closed_form_element_matches_the_extremal_witness(name, bits):
    # Uvarov's element against the extremal witness of the Laurent Gram
    # matrix, relative to the largest coefficient: 1e-30 at 256 bits and
    # 1e-20 at 128 (the witness's own error grows with the Gram matrix's
    # condition); the z^n coefficient is the closed form's eta_n
    mu = element_measure(name, bits)
    tol = mp.mpf(1e-30) if bits == 256 else mp.mpf(1e-20)
    d = mu.weight.psi.hi
    for n in sorted({max(1, d), 4, 12, 20, *((48,) if bits == 256 else ())}):
        got = closed_form_element(mu, n)
        want = extremal_element(mu, n, laurent=True)
        assert len(got) == len(want) == 2 * n
        top = max(abs(c) for c in want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= tol * top, n
        assert abs(got[-1] - eta_n(mu, n)) <= 2 * tol * got[-1].real, n


@pytest.mark.parametrize("name", sorted(ELEMENT_MEASURES))
def test_closed_form_element_has_unit_norm(name):
    # v^H G v = 1 for the Gram matrix of the one entry rule, at 256 bits
    mu = element_measure(name, 256)
    for n in (4, 12, 48):
        v = closed_form_element(mu, n)
        lower, e = mo._inner_products(mu, range(1 - n, n + 1), 256)
        with mp.workprec(600):
            unit = mp.mpf(2) ** e
            norm = mp.mpc(0)
            for r, row in enumerate(lower):
                for c, (re, im) in enumerate(row):
                    g = mp.mpc(re, im) * unit  # <z^(e_c), z^(e_r)>
                    norm += mp.conj(v[r]) * g * v[c]
                    if c < r:
                        norm += mp.conj(v[c]) * mp.conj(g) * v[r]
            assert abs(norm - 1) <= mp.mpf(1e-30), n


@pytest.mark.parametrize("bits", [128, 256])
def test_closed_form_element_matches_the_exact_oracle(bits):
    # against the exact last column of the inverse of the measure's exact
    # Gram matrix: v_i = x_i / sqrt(x_N) within 2^(8 - bits) of v_N
    mu = exact_measure("readme_two_mass", bits)
    for n in (1, 2, 4, 8):
        want = exact_last_column("readme_two_mass", tuple(range(1 - n, n + 1)))
        x_nn = want[-1][0]
        f = bits + 32
        got, _ = mo._closed_form_element(mu, n, f)
        eta = Fraction(got[-1][0], 2 ** f)
        assert (eta * eta - x_nn) ** 2 <= (x_nn * Fraction(2) ** (8 - bits)) ** 2
        for (gr, gi), (xr, xi) in zip(got, want):
            # v_i v_N = x_i, so compare v_i eta against x_i
            dr = Fraction(gr, 2 ** f) * eta - xr
            di = Fraction(gi, 2 ** f) * eta - xi
            assert dr * dr + di * di <= (x_nn * Fraction(2) ** (8 - bits)) ** 2, n


@pytest.mark.parametrize("bits", [53, 256])
def test_mass_free_element_is_psi_itself(bits):
    # without masses the element is z^-(n-1) phi_(2n-1), psi's coefficients
    # c_j at z^(n-j), exactly; the Gram witness agrees far below the tag
    psi = [1.0, 0.3 - 0.2j, 0.1j]
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                     PointSpectrum.empty(), bits)
    for n in (2, 4, 9):
        got = closed_form_element(mu, n)
        assert got == [0] * (2 * n - 3) + [mp.mpc(c) for c in psi[::-1]]
        nodes = ResidueNodes(mu, [(n, 0)])
        assert nodes._witnesses[n] == [(0, 0)] * (2 * n - 3) + list(
            nodes._psi[::-1])
    want = extremal_element(mu, 4, laurent=True)
    assert max(abs(a - b) for a, b in
               zip(closed_form_element(mu, 4), want)) < 2.0 ** (8 - bits)


def test_residue_row_below_deg_psi_takes_the_gram_witness(monkeypatch):
    # the closed form needs 2n - 1 >= deg psi: with deg psi = 2 the row
    # n = 1 takes the extremal witness of its Gram matrix, solved once, and
    # n = 2 the closed form (the CLI test holds that no other row builds a
    # Gram matrix)
    solves = []
    real = mo._extremal

    def counted(g, frac=None):
        solves.append(g.dim)
        return real(g, frac)

    monkeypatch.setattr(mo, "_extremal", counted)
    nodes = ResidueNodes(COMPLEX_PSI, [(1, 0), (1, 1), (2, 0)])
    assert solves == [2]
    want = extremal_element(COMPLEX_PSI, 1, laurent=True)
    got = table_witness(nodes, 1)
    assert max(abs(a - b) for a, b in zip(got, want)) < 2.0 ** -120


# ----------------------------------------------------------------------
# precision escalation


def test_escalation_recovers_ill_conditioned_case():
    # at 53 bits the n=60 one-mass Gram loses positivity in the factorization
    mu = one_mass(53)
    with pytest.raises(NotPositiveDefinite):
        schur_leading(gram_polynomial(mu, 60, 53))
    v = mo._gram_leading(mu, 60, laurent=False)
    assert abs(v - mp.mpf(2) / 3) < 1e-8


def test_precision_floor_follows_mass_growth():
    # Gram entries reach |z|^(2n): 64 + 2n log2|z| bits, rounded up to a tag
    assert mo._precision_floor(one_mass(53), 2) == 128
    assert mo._precision_floor(one_mass(53), 60) == 256
    assert mo._precision_floor(one_mass(512), 2) == 512
    empty = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    assert mo._precision_floor(empty, 1000) == 53


def test_128_bit_request_starts_above_the_floor():
    # psi = 1 - 0.4z, masses at 2.5 and -1.2i: at 128 bits the n = 48 Gram
    # (entries up to 2.5^96 = 2^127) used to factor without a nonpositive
    # pivot and return eta_48 < tau_48
    mu = MeasureSpec.from_json(json.loads(D1_MEASURE.read_text()))
    assert mu.precision == 128
    tau = mo._gram_leading(mu, 48, laurent=False)
    eta = mo._gram_leading(mu, 48, laurent=True)
    assert tau <= eta
    assert abs(tau - mp.mpf("0.3333333381")) < 1e-9
    assert abs(eta - mp.mpf("0.3333333399")) < 1e-9
    # the closed form, which builds no Gram matrix, gives the same values
    assert float(tau_n(mu, 48)) == float(tau)
    assert float(eta_n(mu, 48)) == float(eta)


def test_precision_exhausted_reports_ladder(monkeypatch):
    def always_fail(g):
        raise NotPositiveDefinite(g.dim - 1, mp.mpf(-1))

    monkeypatch.setattr(mo, "schur_leading", always_fail)
    with pytest.raises(PrecisionExhausted) as info:
        mo._gram_leading(one_mass(256), 2, laurent=False)
    assert info.value.bits_tried == (256, 512)
    assert info.value.last_pivot == 2


# ----------------------------------------------------------------------
# residue identity


def test_residue_identity_no_masses_used():
    mu = one_mass()
    rec = residue_identity_check(mu, 4, 0)
    assert rec["n"] == 4 and rec["k"] == 0
    assert rec["abs_diff"] < 1e-50
    assert rec["schwarz_majorant"] == 0
    assert abs(rec["lhs"] - mp.mpf("0.693646231198")) < 1e-9
    assert abs(rec["lhs"] - eta_n(mu, 4)) < 1e-40


def test_residue_identity_with_masses():
    mu = MeasureSpec(OuterWeight.constant_one(),
                     PointSpectrum(((1.5, 0.3), (-2.0, 0.7))), 256)
    rec1 = residue_identity_check(mu, 6, 1)
    assert rec1["abs_diff"] < 1e-50
    assert abs(rec1["lhs"] - mp.mpf("0.486129415103")) < 1e-9
    assert abs(rec1["schwarz_majorant"] - mp.mpf("0.0178410801603")) < 1e-9
    rec2 = residue_identity_check(mu, 6, 2)
    assert rec2["abs_diff"] < 1e-50
    assert abs(rec2["lhs"] - mp.mpf("0.9882025322")) < 1e-8
    # the full-k mean is a Schwarz-type value: modulus at most one
    assert abs(rec1["lhs"]) <= 1 + 1e-30
    assert abs(rec2["lhs"]) <= 1 + 1e-30


def test_residue_identity_with_weight():
    psi = OuterWeight(LaurentPolynomial(0, [1.0, -0.5]))
    mu = MeasureSpec(psi, PointSpectrum(((1.5, 0.3),)), 256)
    rec = residue_identity_check(mu, 5, 1)
    assert rec["abs_diff"] < 1e-40
    assert abs(rec["lhs"]) <= 1 + 1e-30


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_residue_records_do_not_depend_on_the_scale_of_psi(bits):
    # the table reads psi and the element times 2^-s, psi(0) 2^-s in
    # [1, 2), so psi times a power of two, whose element is that power
    # times the unscaled one, gives the same records bit for bit
    def records(scale):
        psi = [c * scale for c in (1.0, -0.5 + 0.2j, 0.1j)]
        mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                         PointSpectrum.empty(), bits)
        nodes = ResidueNodes(mu, [(n, 0) for n in (4, 8, 12)])
        return [residue_identity_check(mu, n, 0, nodes=nodes)
                for n in (4, 8, 12)]

    want = records(1.0)
    for scale in (2.0 ** 40, 2.0 ** -40):
        got = records(scale)
        for rec, ref in zip(got, want):
            assert {key: repr(v) for key, v in rec.items()} == {
                key: repr(v) for key, v in ref.items()}, (scale, rec["n"])


class RecordedColumn(list):
    """A numerator column that logs the slot of every write."""

    def __init__(self, values, log):
        super().__init__(values)
        self.log = log

    def __setitem__(self, index, value):
        self.log.append(index)
        super().__setitem__(index, value)


def test_residue_quadrature_evaluates_each_node_once(monkeypatch):
    # one table shared by every (n, k): psi and the Blaschke prefix products
    # are evaluated once per node of the finest grid, the element once per
    # node per n (a doubled grid reuses the nodes of the coarser one): each
    # numerator slot of the table's G is filled once, four or eight per call
    dens, nums = [], {}
    real_dens, real_num = mo._node_values, ResidueNodes._numerators

    def counted_dens(x, psi, factors, f):
        dens.append(x)
        return real_dens(x, psi, factors, f)

    def counted_num(self, p):
        assert p < self.grid // 4
        log = []
        self._num = [RecordedColumn(col, log) for col in self._num]
        real_num(self, p)
        slots = sorted(set(log))
        assert len(slots) in (4, 8) and len(log) == 2 * len(slots)
        nums.setdefault(self._n, []).extend(
            (self._x[0][q], self._x[1][q]) for q in slots)

    mu = two_mass()
    rows = [(n, k) for n in (4, 6) for k in (0, 1, 2)]
    plain = residue_identity_check(mu, 6, 2)
    monkeypatch.setattr(mo, "_node_values", counted_dens)
    monkeypatch.setattr(ResidueNodes, "_numerators", counted_num)
    nodes = ResidueNodes(mu, rows)
    recs = {(n, k): residue_identity_check(mu, n, k, nodes=nodes)
            for n, k in rows}
    finest = max(rec["grid"] for rec in recs.values())
    assert finest > 256 and nodes.grid == finest
    assert len(dens) == len(set(dens)) == finest
    for n in (4, 6):
        assert len(nums[n]) == len(set(nums[n])) == max(
            recs[n, k]["grid"] for k in (0, 1, 2))
    # a shared table and a table of the row alone give the same record,
    # bit for bit
    assert all(recs[6, 2][key] == plain[key] for key in plain)


COMPLEX_PSI = MeasureSpec(
    OuterWeight(LaurentPolynomial(0, [1.0, 0.3 - 0.2j, 0.1j])),
    PointSpectrum(((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2))), 128)


def fixed_to_mpc(ctx, re, im, f):
    """The integer pair (re, im) at f fractional bits as an mpc of ctx,
    without rounding."""
    return ctx.make_mpc((from_man_exp(re, -f), from_man_exp(im, -f)))


def table_witness(nodes, n):
    """The integer witness of degree n that the table solved, as exact mpc
    coefficients of z^-(n-1)..z^n (the table holds it times 2^-s)."""
    ctx = context(nodes.mu.precision)
    return [fixed_to_mpc(ctx, re, im, nodes._f - nodes._s)
            for re, im in nodes._witnesses[n]]


@pytest.mark.parametrize("mu, n, trimmed", [
    (two_mass(256), 12, False),
    (COMPLEX_PSI, 8, False),
    (two_mass(53), 6, False),
    (MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53), 4,
     True),
], ids=["two-mass-256", "complex-psi-128", "two-mass-53", "trimmed-53"])
def test_residue_numerators_match_horner(mu, n, trimmed):
    # each numerator is one exact integer dot product over table nodes
    # x_((e p) mod G), rounded once; the oracle evaluates the table's
    # witness by Horner at the table node and powers the node
    nodes = ResidueNodes(mu, [(n, 0)])
    element = table_witness(nodes, n)
    assert all(c == 0 for c in element[:-1]) == trimmed
    nodes.mean(0, 1024)  # every numerator, by the quartets of _numerators
    assert nodes.grid == 1024
    ctx = context(mu.precision)
    coeffs = element[::-1]  # exact
    tol = mp.mpf(2) ** (8 - mu.precision)
    for p in range(nodes.grid):
        x = fixed_to_mpc(ctx, nodes._x[0][p], nodes._x[1][p], nodes._f)
        want = ctx.polyval(coeffs, x) * x ** (1 - 2 * n)
        # the table holds the element times 2^-s
        got = fixed_to_mpc(ctx, nodes._num[0][p], nodes._num[1][p],
                           nodes._f - nodes._s)
        assert abs(got - want) <= tol * abs(want), p


@pytest.mark.parametrize("mu, n", [
    (COMPLEX_PSI, 8), (two_mass(256), 12), (two_mass(53), 3)],
    ids=["complex-psi-128", "two-mass-256", "two-mass-53"])
def test_residue_numerators_are_the_direct_sums_rounded_once(mu, n):
    # every numerator, whichever quartet filled it (its own sums or the
    # conjugate sums of G/4 - p), equals the one exact sum; COMPLEX_PSI's
    # element has complex coefficients, so every part of those sums counts
    # sum_e a_e x_((e p) mod G), rounded once to f bits
    nodes = ResidueNodes(mu, [(n, 0)])
    nodes.mean(0, 1024)
    size, f = nodes.grid, nodes._f
    (cr, ci), (x_re, x_im) = nodes._coeffs, nodes._x
    for p in range(size):
        idx = [(1 - 2 * n + j) * p % size for j in range(2 * n)]
        re, im = xlinalg._dot(cr, ci, [x_re[i] for i in idx],
                              [x_im[i] for i in idx])
        assert nodes._num[0][p] == (re + (1 << f - 1)) >> f, p
        assert nodes._num[1][p] == (im + (1 << f - 1)) >> f, p


@pytest.mark.parametrize("mu, rows", [
    # a mass at |z| = 1.048 needs 4096 nodes at k = 1 where k = 0 needs
    # 256, so the table doubles while it holds the numerators of an element
    (MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.3])),
                 PointSpectrum(((0.42 + 0.96j, 0.2), (-1.5, 0.3))), 256),
     [(2, 0), (4, 1), (4, 0), (2, 2), (6, 0)]),
    (two_mass(128), [(n, k) for n in (4, 8) for k in (0, 1, 2)]),
], ids=["near-circle-256", "two-mass-128"])
def test_shared_nodes_give_the_unshared_records(mu, rows):
    nodes = ResidueNodes(mu, rows)
    grids = []
    for n, k in rows:
        shared = residue_identity_check(mu, n, k, nodes=nodes)
        plain = residue_identity_check(mu, n, k)
        assert list(shared) == list(plain)
        for key in plain:
            assert shared[key] == plain[key], (n, k, key)
        grids.append(shared["grid"])
    assert nodes.grid == max(grids)
    assert any(a < b for a, b in zip(grids, grids[1:]))


def reflected_factors(ctx, masses):
    """(zeta_i, rot_i) for the positively normalized reflected product, by
    mpc arithmetic at ctx: zeta_i = 1/conj(z_i), rot_i = -|zeta_i|/zeta_i."""
    out = []
    for z, _ in masses:
        zeta = 1 / ctx.conj(ctx.mpc(z))
        out.append((zeta, -abs(zeta) / zeta))
    return out


def oracle_node_values(ctx, x, psi, factors):
    """B^k(x) / conj(psi(x)) for k = 0..K by mpc arithmetic: psi by Horner
    (its coefficients highest first), one mpc division for 1/conj(psi) and
    one per reflected factor."""
    acc = 1 / ctx.conj(ctx.polyval(psi, x))
    weights = [acc]
    for zeta, rot in factors:
        acc *= rot * (x - zeta) / (1 - ctx.conj(zeta) * x)
        weights.append(acc)
    return weights


def oracle_quadrature(mu, n, ks, element):
    """mean(k, grid) of the residue quadrature by mpmath at the measure's
    precision: nodes by expjpi, each numerator one fdot of the element's
    coefficients against grid nodes, and each grid mean an fsum of
    numerator times weight; the integer table's oracle."""
    bits = mu.precision
    ctx = context(bits)
    psi = [ctx.mpc(c) for c in mu.weight.psi.coeffs[::-1]]
    factors = reflected_factors(ctx, mu.spectrum.masses[:max(ks)])
    r_elem = [ctx.convert(c) for c in element]
    exps = range(1 - 2 * n, 1)
    # node q of the finest grid, exp(2 pi i q / cap), stands for every
    # node p = q G / cap of a coarser grid G
    cap = mo._GRID_CAP
    nodes, values = {}, {}

    def node(q):
        if q not in nodes:
            nodes[q] = ctx.expjpi(ctx.mpf(2 * q) / cap)
        return nodes[q]

    def value(q):  # the numerator and the weights at node q
        if q not in values:
            num = ctx.fdot(r_elem, [node(e * q % cap) for e in exps])
            values[q] = num, oracle_node_values(ctx, node(q), psi, factors)
        return values[q]

    def mean(k, grid):
        terms = (num * w[k]
                 for num, w in map(value, range(0, cap, cap // grid)))
        return ctx.fsum(terms) / grid

    return mean


def doubling_oracle(mean, n, bits, k):
    """(lhs, grid) by the rule the certified grid replaced: from
    max(8(n + 1), 256) nodes, double until two grids agree to
    2^(20 - min(bits, 160)), and keep the finer one."""
    tol = mp.mpf(2) ** (-min(bits, 160) + 20)
    grid = _next_pow2(max(8 * (n + 1), 256))
    prev = mean(k, grid)
    while True:
        grid *= 2
        cur = mean(k, grid)
        if abs(cur - prev) <= tol:
            return cur, grid
        prev = cur


ORACLE_MEASURES = {
    "readme-two-mass": (LaurentPolynomial(0, [1.0, -0.5]),
                        PointSpectrum(((1.5, 0.3), (-1.25, 0.1)))),
    "complex-psi": (COMPLEX_PSI.weight.psi, COMPLEX_PSI.spectrum),
    # at 256 bits k = 1 certifies 4096 nodes where k = 0 certifies 256;
    # above 53 bits the doubling took 4096 and 512
    "near-circle": (LaurentPolynomial(0, [1.0, -0.3]),
                    PointSpectrum(((0.42 + 0.96j, 0.2), (-1.5, 0.3)))),
    "mass-free": (LaurentPolynomial(0, [1.0, 0.4 - 0.3j]),
                  PointSpectrum.empty()),
    # psi's root at 1.05 (0.6 + 0.8i), so min |psi| on the circle is 1/21
    "psi-root-1.05": (LaurentPolynomial(0, [1.0, (-0.6 + 0.8j) / 1.05]),
                      PointSpectrum(((2.0 + 0.5j, 0.3),))),
}


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("name", list(ORACLE_MEASURES))
def test_quad_bound_holds_against_a_four_times_finer_grid(name, bits):
    # the certified bound covers the certified grid's error: its mean is
    # within quad_bound of the mean on four times as many nodes, and the
    # bound meets the target 2^(14 - bits)
    psi, spectrum = ORACLE_MEASURES[name]
    mu = MeasureSpec(OuterWeight(psi), spectrum, bits)
    rows = [(n, k) for n in (1, 4, 8) for k in range(len(spectrum) + 1)]
    nodes = ResidueNodes(mu, rows)
    for n, k in rows:
        rec = residue_identity_check(mu, n, k, nodes=nodes)
        assert rec["quad_bound"] <= 2.0 ** (14 - bits), (n, k)
        finer = nodes.mean(k, 4 * rec["grid"])
        assert abs(rec["lhs"] - finer) <= rec["quad_bound"], (n, k)


def test_residue_table_charges_the_closed_form_elements_radius():
    # with a far mass at 1e3, the element a closed-form run keeps at 32
    # guard bits is 25-64 units of the table's 2^-f off the element of a
    # 2,048-guard run, and its numerators up to about 110 units: more than
    # the (A + L + 1) units one unit per coefficient gives.  The table
    # charges the run's certified radius e_a instead, (A + L e_a + 1)
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.5])),
                     PointSpectrum(((1e3, 1.0), (1.5, 0.3))), 128)
    ns = (4, 8, 12)
    nodes = ResidueNodes(mu, [(n, 2) for n in ns])
    x = np.exp(2j * np.pi * np.arange(1024) / 1024)
    move = 2048  # the high-guard run's f past the table's bits + 32
    for n in ns:
        want, _ = mo._uvarov_element(mu, 2 * n - 1, n - 1, 128 + 2048)
        gaps = [complex(((gr << move) - wr) / 2 ** move,
                        ((gi << move) - wi) / 2 ** move)
                for (gr, gi), (wr, wi) in zip(nodes._witnesses[n], want)]
        worst = max(max(abs(g.real), abs(g.imag)) for g in gaps)
        assert 16 < worst <= nodes._radii[n], n
        nodes._use(n)
        numerator = np.abs(sum(g * x ** e for g, e in
                               zip(gaps, range(1 - n, n + 1)))).max()
        big_a, length = sum(nodes._moduli), len(nodes._moduli)
        assert big_a + length + 1 < numerator, n
        assert numerator <= big_a + length * nodes._radii[n] + 1, n


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
@pytest.mark.parametrize("name", list(ORACLE_MEASURES))
def test_integer_quadrature_matches_mpmath_oracle(name, bits):
    psi, spectrum = ORACLE_MEASURES[name]
    mu = MeasureSpec(OuterWeight(psi), spectrum, bits)
    n = 4
    ks = range(len(spectrum) + 1)
    nodes = ResidueNodes(mu, [(n, k) for k in ks])
    mean = oracle_quadrature(mu, n, ks, table_witness(nodes, n))
    tol = mp.mpf(2) ** (8 - bits)
    doubled = []
    for k in ks:
        rec = residue_identity_check(mu, n, k, nodes=nodes)
        lhs = mean(k, rec["grid"])
        assert abs(rec["lhs"] - lhs) <= tol * max(1, abs(lhs)), k
        # the doubling rule, a second oracle: the certified grid is no
        # larger where its target 2^(14 - bits) is no finer than the
        # doubling's 2^(20 - min(bits, 160)) by more than the doubling's
        # one extra grid makes up
        lhs, grid = doubling_oracle(mean, n, bits, k)
        assert abs(rec["lhs"] - lhs) <= mp.mpf(2) ** (20 - min(bits, 160)), k
        if bits <= 256:
            assert rec["grid"] <= grid, k
        doubled.append(grid)
    if name == "near-circle" and bits > 53:
        assert doubled[:2] == [512, 4096]


def test_residue_nodes_validation():
    # a table answers only the rows it was built for, of its own measure
    mu = two_mass()
    nodes = ResidueNodes(mu, [(4, 1)])
    for n, k in ((4, 2), (4, 0), (6, 1)):
        with pytest.raises(ValueError, match="built for the row"):
            residue_identity_check(mu, n, k, nodes=nodes)
    with pytest.raises(ValueError, match="built for the row"):
        residue_identity_check(mu, 4, 1, nodes=ResidueNodes(one_mass(), [(4, 1)]))
    with pytest.raises(ValueError):
        ResidueNodes(mu, [])


@pytest.mark.parametrize("k, grid", [
    (1, 100), (1, 2), (1, 0), (1, 2048), (-1, 512), (3, 512),
], ids=["grid-100", "grid-2", "grid-0", "past-the-cap", "k-negative",
        "k-past-the-masses"])
def test_residue_mean_refuses_a_bad_k_or_grid(monkeypatch, k, grid):
    # mean reads the weight column of k and every (G/grid)-th node of the
    # table's G: a negative k would read the columns from the end, and a
    # grid that is not a power of two from 4 to the cap would give the mean
    # of other nodes, on a fresh table and on a grown one alike
    psi, spectrum = ORACLE_MEASURES["readme-two-mass"]
    nodes = ResidueNodes(MeasureSpec(OuterWeight(psi), spectrum, 128), [(4, 1)])
    monkeypatch.setattr(mo, "_GRID_CAP", 1024)
    with pytest.raises(ValueError):
        nodes.mean(k, grid)
    assert nodes.grid == 0
    nodes.mean(1, 256)
    with pytest.raises(ValueError):
        nodes.mean(k, grid)
    assert nodes.grid == 256


@pytest.mark.parametrize("n", [2, 4])
def test_residue_identity_without_masses(n):
    # the moments of dm are exactly 0 off the diagonal, so the witness has
    # exact zero coefficients below z^n
    mu = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    element = extremal_element(mu, n, laurent=True)
    assert all(c == 0 for c in element[:-1])
    nodes = ResidueNodes(mu, [(n, 0)])
    assert all(c == (0, 0) for c in nodes._witnesses[n][:-1])
    rec = residue_identity_check(mu, n, 0, nodes=nodes)
    assert rec == residue_identity_check(mu, n, 0)
    assert rec["lhs"] == rec["rhs"] == 1


def test_residue_identity_validation():
    mu = one_mass()
    with pytest.raises(ValueError):
        residue_identity_check(mu, 4, 2)
    with pytest.raises(ValueError):
        residue_identity_check(mu, 4, -1)
    dup = MeasureSpec(OuterWeight.constant_one(),
                      PointSpectrum(((1.5, 0.1), (1.5, 0.2))), 256)
    with pytest.raises(ValueError):
        residue_identity_check(dup, 3, 2)


# ----------------------------------------------------------------------
# slow-decay condition report


def test_log_condition_empty_spectrum():
    rep = log_condition_report(PointSpectrum.empty(), [1.0], 32)
    assert rep["n_values"] == [2, 4, 8, 16, 32]
    assert all(t == 0.0 for t in rep["tail_sums"])
    assert rep["per_A"][1.0]["bounded"]


def test_log_condition_dyadic_family():
    sp = PointSpectrum(tuple((1 + 2.0 ** -k, 2.0 ** -k)
                             for k in range(1, 30)))
    rep = log_condition_report(sp, [1.0, 2.0], 64)
    assert rep["n_values"] == [2, 4, 8, 16, 32, 64]
    for n, t in zip(rep["n_values"], rep["tail_sums"]):
        expect = sum(2.0 ** -k for k in range(1, 30) if 2.0 ** -k < 1.0 / n)
        assert abs(t - expect) < 1e-15
    # tail ~ 1/n, so (log n)^1 * tail decays and (log n)^2 * tail stays mild
    assert rep["per_A"][1.0]["bounded"]
    assert rep["per_A"][2.0]["bounded"]


def test_log_condition_unbounded_growth():
    # one mass hugging the circle: the tail never empties over the tested
    # range, so the weighted sequence grows like (log n)^2
    sp = PointSpectrum(((1 + 1e-9, 1.0),))
    rep = log_condition_report(sp, [2.0], 2 ** 20)
    assert not rep["per_A"][2.0]["bounded"]


def test_log_condition_needs_exponent():
    with pytest.raises(ValueError):
        log_condition_report(PointSpectrum.empty(), [], 16)
    # the grid starts at n = 2: n_max 0 divided by zero and n_max 1 gave
    # the one-point grid [1], whose weights log(1)^A are all 0
    for n_max in (1, 0, -4):
        with pytest.raises(ValueError, match="n_max"):
            log_condition_report(PointSpectrum(((1.01, 0.5),)), [1.0], n_max)
