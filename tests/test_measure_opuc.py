"""Tests for measures with point masses outside the circle.

Closed-form oracles: a pure point mass at z0 with weight m adds
m * z0^j * conj(z0)^k to the moment of (j, k), so small Gram matrices can be
written down by hand.  For psi = 1 - a z with |a| < 1 the trigonometric
moments are a^|m| / (1 - a^2) and the orthonormal polynomial leading
coefficients are sqrt(1 - a^2) at degree zero and exactly 1 afterwards.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import MPContext, mp
from mpmath.libmp import from_man_exp

from szego_lab.blaschke import BlaschkeProduct, ZeroSet, eval_blaschke
from szego_lab.circle_fourier import LaurentPolynomial
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
    orthonormal_element,
    residue_identity_check,
    target_limit,
    tau_n,
)
from szego_lab.xlinalg import (
    HermitianMatrix,
    NotPositiveDefinite,
    cholesky,
    context,
    schur_leading,
    toeplitz_leading,
)

import szego_lab.measure_opuc as mo
import szego_lab.xlinalg as xlinalg

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
    assert abs(w.delta_floor - 0.5) < 1e-12
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


def test_near_circle_moments_exact():
    # psi = 1 - a z with its root 1e-3 outside the circle: the moments decay
    # only like a^m, and the recurrence reproduces a^m / (1 - a^2) exactly
    a = 1.0 / (1.0 + 1e-3)
    psi = OuterWeight(LaurentPolynomial(0, [1.0, -a]))
    tab = mo._trig_moments(psi, 3000, 256)
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
    tab = mo._trig_moments(OuterWeight(LaurentPolynomial(0, coeffs)), 40, 128)
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
    # the exact solve rounded once at bits + 32 against lu_solve at the same
    # precision: within 2^-(bits + 24) of t_0, the largest moment
    rng = np.random.default_rng(60 + d)
    for trial in range(6):
        roots = (1.05 + 3 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        coeffs = np.array([0.3 + 4 * rng.random() + 0j])
        for r in roots:  # times (1 - z/r)
            coeffs = np.append(coeffs, 0) - np.append(0, coeffs) / r
        if trial % 3 == 0:
            coeffs = coeffs.real + 0j
        for bits in (53, 128, 256, 512):
            got = mo._bernstein_szego_head(coeffs, bits + 32)
            want = head_by_lu_solve(coeffs, bits + 32)
            assert len(got) == d + 1
            assert all(t.context.prec == bits + 32 for t in got)
            for g, w in zip(got, want):
                assert abs(g - w) <= got[0].real * mp.mpf(2) ** -(bits + 24)


def test_quadrature_cap_raises(monkeypatch):
    # the residue quadrature doubles its grid past the cap and gives up
    monkeypatch.setattr(mo, "_GRID_CAP", 256)
    with pytest.raises(QuadratureError):
        residue_identity_check(one_mass(), 4, 1)


# ----------------------------------------------------------------------
# Gram matrices


def test_gram_polynomial_hand_example():
    g = gram_polynomial(one_mass(53), 1)
    assert g.dim == 2
    assert abs(g.entry(0, 0) - 1.3) < 1e-14
    assert abs(g.entry(1, 0) - 0.45) < 1e-14
    assert abs(g.entry(0, 1) - 0.45) < 1e-14
    assert abs(g.entry(1, 1) - 1.675) < 1e-14


def test_gram_nesting():
    mu = one_mass(53)
    small = gram_polynomial(mu, 2)
    big = gram_polynomial(mu, 4)
    for r in range(3):
        for c in range(3):
            assert abs(small.entry(r, c) - big.entry(r, c)) == 0


def test_gram_laurent_negative_power_entry():
    g = gram_laurent(one_mass(53), 2)
    # basis z^-1, 1, z, z^2: the (z^-1, z^-1) entry is 1 + 0.3/1.5^2
    assert abs(g.entry(0, 0) - 17.0 / 15.0) < 1e-14
    assert g.dim == 4


def complex_two_mass(precision):
    psi = OuterWeight(LaurentPolynomial(0, [1.0, 0.3 - 0.2j, 0.1j]))
    return MeasureSpec(psi, PointSpectrum(((1.5 + 0.8j, 0.3),
                                           (-1.2 + 0.9j, 0.2))), precision)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("gram", [gram_polynomial, gram_laurent])
def test_gram_is_hermitian_bit_for_bit(gram, bits):
    # the Gram build skips HermitianMatrix's symmetry check, so it must
    # write an exactly Hermitian matrix, real diagonal included
    g = gram(complex_two_mass(bits), 9)
    assert g.bits == bits
    for j in range(g.dim):
        for k in range(g.dim):
            assert g.entry(j, k) == g.entry(k, j).conjugate()


def per_entry_gram(mu, exps, bits):
    """The Gram build that rounds every entry on its own and forms each
    mass term m z^j conj(z)^k entry by entry: the oracle for the build
    that rounds each distinct moment once and, with masses, forms m z^j and
    conj(z)^k once per exponent."""
    n = len(exps)
    lo, hi = min(exps), max(exps)
    values = mo._trig_moments(mu.weight, hi - lo, bits)
    ctx = context(bits)
    powers = []
    for z, m in mu.spectrum.masses:
        zl = ctx.mpc(z)
        pw = {0: ctx.mpc(1)}
        for e in range(1, hi + 1):
            pw[e] = pw[e - 1] * zl
        inv = 1 / zl
        for e in range(-1, lo - 1, -1):
            pw[e] = pw[e + 1] * inv
        powers.append((ctx.mpf(m), pw))
    cols = [[None] * n for _ in range(n)]
    for c in range(n):
        for r in range(c, n):
            d = exps[c] - exps[r]
            val = ctx.conj(values[-d]) if d < 0 else ctx.mpc(values[d])
            for m, pw in powers:
                val += m * pw[exps[c]] * ctx.conj(pw[exps[r]])
            if r != c:
                val = ctx.mpc(val)
                cols[c][r] = val
                cols[r][c] = ctx.conj(val)
            else:
                cols[c][c] = ctx.mpc(val.real)
    return cols


def assert_gram_matches_per_entry_build(mu, bits, degrees):
    for n in degrees:
        for gram, exps in ((gram_polynomial, range(n + 1)),
                           (gram_laurent, range(-(n - 1), n + 1))):
            want = per_entry_gram(mu, exps, bits)
            got = gram(mu, n)
            assert got.bits == bits
            assert ([[v._mpc_ for v in col] for col in got.columns]
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
@pytest.mark.parametrize("name", ["deg1-two-mass", "deg2-three-mass"])
def test_mass_gram_matches_per_entry_build(name, bits):
    # m z^j once per column and conj(z)^k once per row round as the
    # per-entry products did, so the build is the same bit for bit
    assert_gram_matches_per_entry_build(route_measure(name, bits), bits,
                                        (1, 3, 12))


def test_gram_validation():
    with pytest.raises(ValueError):
        gram_polynomial(one_mass(53), -1)
    with pytest.raises(ValueError):
        gram_laurent(one_mass(53), 0)


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
            witness = orthonormal_element(mu, n, laurent)[-1]
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
    # xlinalg's integer Cholesky core, the one under xlinalg.cholesky, at the
    # measure's precision plus the guard bits, 32 and then 64, which agree
    # on the README's two-mass measure
    mu = MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.5])),
                     PointSpectrum(((1.5, 0.3), (-1.25, 0.1))), 256)
    seen = []
    factor = mo._cholesky_fixed

    def spy(rows, bits):
        rows = list(rows)
        seen.append((len(rows), bits))
        return factor(rows, bits)

    monkeypatch.setattr(mo, "_cholesky_fixed", spy)
    tau_n(mu, 8)
    assert seen == [(3, 256 + 32), (3, 256 + 64)]


def uvarov_ratio_by_mpc(mu, n, shift, bits):
    """_uvarov_ratio in mpc arithmetic at bits, factored by
    xlinalg.cholesky: the oracle of the integer system."""
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
    return cholesky(HermitianMatrix(cols, bits, _skip_check=True)).rows[-1][-1]


def closed_form_by_mpc(mu, n, shift=0):
    """_closed_form_leading's guard policy on the mpc oracle."""
    guard, prev = 32, None
    while True:
        try:
            cur = uvarov_ratio_by_mpc(mu, n, shift, mu.precision + guard)
        except NotPositiveDefinite as err:
            cur, failed = None, err
        if (cur is not None and prev is not None
                and abs(cur - prev) <= cur * 2 ** -(mu.precision + 8)):
            return context(mu.precision).mpf(mu.weight.psi0 * cur)
        if guard >= mo._GUARD_CAP:
            raise failed if cur is None else NotPositiveDefinite(
                len(mu.spectrum), cur ** 2)
        prev, guard = cur, 2 * guard


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES)
                         + sorted(FAR_AND_NEAR_MEASURES))
def test_integer_closed_form_matches_the_mpc_oracle(name, bits):
    # the integer system and its mpc oracle settle on the same guard bits
    # and round to the same mpf, for tau (shift 0) and eta (shift n - 1 at
    # degree 2n - 1), up to n = 10^6
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
                got = mo._closed_form_leading(mu, degree, shift)
                assert got == want and got.context.prec == bits, (n, shift)


def test_closed_form_system_makes_no_mpmath_number(monkeypatch):
    # the Woodbury system is built and factored on integers: with no mpmath
    # context to be had, _uvarov_ratio still returns the last pivot, as an
    # integer mantissa and exponent that _closed_form_leading rounds once
    mu = route_measure("deg2-three-mass", 256)
    want = {(n, shift): mo._uvarov_ratio(mu, n, shift, 288)
            for n, shift in ((2, 0), (39, 19), (10 ** 6, 0))}

    def refuse(bits):
        raise AssertionError(f"an mpmath context at {bits} bits")

    monkeypatch.setattr(mo, "context", refuse)
    monkeypatch.setattr(xlinalg, "context", refuse)
    mo._mass_terms.cache_clear()
    for (n, shift), pivot in want.items():
        man, exp = mo._uvarov_ratio(mu, n, shift, 288)
        assert type(man) is int and type(exp) is int and man > 0
        assert (man, exp) == pivot


def test_mass_terms_are_shared_across_degrees():
    # the parts of the system that depend only on a mass are formed once
    # per fixed point, for every n of a request and both coefficients
    mu = route_measure("deg1-two-mass", 128)
    mo._mass_terms.cache_clear()
    for n in (4, 8, 16):
        tau_n(mu, n)
        eta_n(mu, n)
    # guard bits 32 and 64 on every call
    assert mo._mass_terms.cache_info().misses == 2


# ----------------------------------------------------------------------
# orthonormal elements


def test_orthonormal_element_lebesgue_monomial():
    mu = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    p = orthonormal_element(mu, 2)
    assert len(p) == 3 and all(c == 0 for c in p[:-1])
    assert abs(complex(p[-1]) - 1.0) < 1e-14


def test_orthonormal_element_degree_zero():
    p = orthonormal_element(one_mass(53), 0)
    assert len(p) == 1
    assert abs(complex(p[-1]) - 0.8770580193070292) < 1e-13


def test_orthonormal_element_laurent_validation():
    with pytest.raises(ValueError):
        orthonormal_element(one_mass(53), 0, laurent=True)


def test_orthonormal_element_is_orthonormal():
    # verified against the moments directly, not through the factorization
    mu = one_mass()
    el = orthonormal_element(mu, 10, laurent=True)
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


def test_residue_quadrature_evaluates_each_node_once(monkeypatch):
    # one table shared by every (n, k): psi and the Blaschke prefix products
    # are evaluated once per node of the finest grid, the element once per
    # node per n (a doubled grid reuses the nodes of the coarser one)
    dens, nums = [], {}
    real_dens, real_num = mo._node_values, ResidueNodes._numerator

    def counted_dens(x, psi, factors, f):
        dens.append(x)
        return real_dens(x, psi, factors, f)

    def counted_num(self, p):
        nums.setdefault(self._n, []).append((self._x[0][p], self._x[1][p]))
        return real_num(self, p)

    mu = two_mass()
    elements = {n: orthonormal_element(mu, n, laurent=True) for n in (4, 6)}
    plain = residue_identity_check(mu, 6, 2)
    monkeypatch.setattr(mo, "_node_values", counted_dens)
    monkeypatch.setattr(ResidueNodes, "_numerator", counted_num)
    nodes = ResidueNodes(mu)
    recs = {(n, k): residue_identity_check(mu, n, k, element=elements[n],
                                           nodes=nodes)
            for n in (4, 6) for k in (0, 1, 2)}
    finest = max(rec["grid"] for rec in recs.values())
    assert finest > 256 and nodes.grid == finest
    assert len(dens) == len(set(dens)) == finest
    for n in (4, 6):
        assert len(nums[n]) == len(set(nums[n])) == max(
            recs[n, k]["grid"] for k in (0, 1, 2))
    # a given element and a shared table give the same record, bit for bit
    assert all(recs[6, 2][key] == plain[key] for key in plain)


COMPLEX_PSI = MeasureSpec(
    OuterWeight(LaurentPolynomial(0, [1.0, 0.3 - 0.2j, 0.1j])),
    PointSpectrum(((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2))), 128)


def fixed_to_mpc(ctx, re, im, f):
    """The integer pair (re, im) at f fractional bits as an mpc of ctx,
    without rounding."""
    return ctx.make_mpc((from_man_exp(re, -f), from_man_exp(im, -f)))


@pytest.mark.parametrize("mu, n, trimmed", [
    (two_mass(256), 12, False),
    (COMPLEX_PSI, 8, False),
    (two_mass(53), 6, False),
    (MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53), 4,
     True),
], ids=["two-mass-256", "complex-psi-128", "two-mass-53", "trimmed-53"])
def test_residue_numerators_match_horner(mu, n, trimmed):
    # each numerator is one exact integer dot product over table nodes
    # x_((e p) mod G), rounded once; the oracle evaluates the element by
    # Horner at the table node and powers the node
    element = orthonormal_element(mu, n, laurent=True)
    assert all(c == 0 for c in element[:-1]) == trimmed
    nodes = ResidueNodes(mu)
    r_elem = nodes.use(element, n)
    nodes.mean(0, 1024)
    assert nodes.grid == 1024
    ctx = context(mu.precision)
    tol = mp.mpf(2) ** (8 - mu.precision)
    for p in range(nodes.grid):
        x = fixed_to_mpc(ctx, nodes._x[0][p], nodes._x[1][p], nodes._f)
        want = ctx.polyval(r_elem[::-1], x) * x ** (1 - 2 * n)
        got = fixed_to_mpc(ctx, *nodes._numerator(p), nodes._f)
        assert abs(got - want) <= tol * abs(want), p


def test_residue_nodes_use_rounds_evaluation_not_coefficients():
    # an element solved at 256 bits, used on a 128-bit measure, keeps its
    # coefficients: use moves them into context(128) without rounding, so
    # only the evaluation rounds at the measure's precision
    n = 4
    witness = orthonormal_element(two_mass(256), n, laurent=True)
    got = ResidueNodes(two_mass(128)).use(witness, n)
    assert [c._mpc_ for c in got] == [c._mpc_ for c in witness]
    assert all(c.context is context(128) for c in got)
    ctx = context(128)
    z = ctx.mpc(0.6, 0.7) / 7
    value = ctx.polyval(got[::-1], z) * z ** (1 - n)
    # reference: the Horner loop at an ambient precision of 128 bits over
    # the unrounded coefficients, and the same loop at 256 bits

    def horner(bits):
        with mp.workprec(256):
            coeffs = [mp.mpc(c) for c in witness]
        with mp.workprec(bits):
            x = mp.mpc(z)
            acc = coeffs[-1]
            for c in coeffs[-2::-1]:
                acc = acc * x + c
            return acc * x ** (1 - n)

    assert value._mpc_ == horner(128)._mpc_
    assert value.context.prec == 128
    assert horner(256)._mpc_ != value._mpc_  # the 256-bit evaluation differs


@pytest.mark.parametrize("mu, rows", [
    # a mass at |z| = 1.048 needs 4096 nodes at k = 1 where k = 0 needs
    # 512, so the table doubles while it holds the numerators of an element
    (MeasureSpec(OuterWeight(LaurentPolynomial(0, [1.0, -0.3])),
                 PointSpectrum(((0.42 + 0.96j, 0.2), (-1.5, 0.3))), 256),
     [(2, 0), (4, 1), (4, 0), (2, 2), (6, 0)]),
    (two_mass(128), [(n, k) for n in (4, 8) for k in (0, 1, 2)]),
], ids=["near-circle-256", "two-mass-128"])
def test_shared_nodes_give_the_unshared_records(mu, rows):
    nodes = ResidueNodes(mu)
    elements = {n: orthonormal_element(mu, n, laurent=True) for n, _ in rows}
    grids = []
    for n, k in rows:
        shared = residue_identity_check(mu, n, k, element=elements[n],
                                        nodes=nodes)
        plain = residue_identity_check(mu, n, k, element=elements[n])
        assert list(shared) == list(plain)
        for key in plain:
            assert shared[key] == plain[key], (n, k, key)
        grids.append(shared["grid"])
    assert nodes.grid == max(grids)
    assert any(a < b for a, b in zip(grids, grids[1:]))


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
    """{k: (lhs, grid)} of the residue quadrature by mpmath at the
    measure's precision: nodes by expjpi, each numerator one fdot of the
    element's coefficients against grid nodes, and each grid mean an fsum
    of numerator times weight; the integer table's oracle."""
    bits = mu.precision
    ctx = context(bits)
    psi = [ctx.mpc(c) for c in mu.weight.psi.coeffs[::-1]]
    factors = mo._reflected_factors(ctx, mu.spectrum.masses[:max(ks)])
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

    tol = ctx.mpf(2) ** (-min(bits, 160) + 20)
    out = {}
    for k in ks:
        grid = mo._next_pow2(max(8 * (n + 1), 256))
        prev = mean(k, grid)
        while True:
            grid *= 2
            cur = mean(k, grid)
            if abs(cur - prev) <= tol:
                break
            prev = cur
        out[k] = cur, grid
    return out


ORACLE_MEASURES = {
    "readme-two-mass": (LaurentPolynomial(0, [1.0, -0.5]),
                        PointSpectrum(((1.5, 0.3), (-1.25, 0.1)))),
    "complex-psi": (COMPLEX_PSI.weight.psi, COMPLEX_PSI.spectrum),
    # above 53 bits k = 1 needs 4096 nodes where k = 0 needs 512
    "near-circle": (LaurentPolynomial(0, [1.0, -0.3]),
                    PointSpectrum(((0.42 + 0.96j, 0.2), (-1.5, 0.3)))),
    "mass-free": (LaurentPolynomial(0, [1.0, 0.4 - 0.3j]),
                  PointSpectrum.empty()),
    # psi's root at 1.05 (0.6 + 0.8i), so min |psi| on the circle is 1/21
    "psi-root-1.05": (LaurentPolynomial(0, [1.0, (-0.6 + 0.8j) / 1.05]),
                      PointSpectrum(((2.0 + 0.5j, 0.3),))),
}


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
@pytest.mark.parametrize("name", list(ORACLE_MEASURES))
def test_integer_quadrature_matches_mpmath_oracle(name, bits):
    psi, spectrum = ORACLE_MEASURES[name]
    mu = MeasureSpec(OuterWeight(psi), spectrum, bits)
    n = 4
    ks = range(len(spectrum) + 1)
    element = orthonormal_element(mu, n, laurent=True)
    want = oracle_quadrature(mu, n, ks, element)
    nodes = ResidueNodes(mu)
    tol = mp.mpf(2) ** (8 - bits)
    for k in ks:
        rec = residue_identity_check(mu, n, k, element=element, nodes=nodes)
        lhs, grid = want[k]
        assert rec["grid"] == grid, k
        assert abs(rec["lhs"] - lhs) <= tol * max(1, abs(lhs)), k
    if name == "near-circle" and bits > 53:
        assert (want[0][1], want[1][1]) == (512, 4096)


def test_residue_nodes_validation():
    mu = two_mass()
    with pytest.raises(ValueError):
        residue_identity_check(mu, 4, 2, nodes=ResidueNodes(mu, 1))
    with pytest.raises(ValueError):
        residue_identity_check(mu, 4, 1, nodes=ResidueNodes(one_mass()))


@pytest.mark.parametrize("n", [2, 4])
def test_residue_identity_without_masses(n):
    # the moments of dm are exactly 0 off the diagonal, so the witness has
    # exact zero coefficients below z^n
    mu = MeasureSpec(OuterWeight.constant_one(), PointSpectrum.empty(), 53)
    element = orthonormal_element(mu, n, laurent=True)
    assert all(c == 0 for c in element[:-1])
    rec = residue_identity_check(mu, n, 0, element=element)
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
    with pytest.raises(ValueError):
        residue_identity_check(mu, 4, 1,
                               element=orthonormal_element(mu, 3, laurent=True))


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
