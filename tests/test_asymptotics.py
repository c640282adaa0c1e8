"""Tests for the lower-bound pipelines.

Oracles used here:
  * schedule arithmetic has closed forms; with the default pairing the
    decay sequence collapses to 1/log(n) exactly,
  * selection thresholds are rational, so dyadic mass families make the
    selected set computable by hand,
  * the product series is cross-checked against an independent route
    (sampled-circle Taylor coefficients of the same dilated corrector),
  * full-run certificate numbers are frozen from high-precision runs and
    compared against exact optima computed by the Gram-matrix code,
  * the Parseval circle norm is checked against the O(N^2) double sum over
    the moment table, and against a float grid mean of |Q|^2/|p|^2.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from szego_lab.asymptotics import (
    PipelineCertificate,
    ScheduleFn,
    ScheduleParams,
    ScheduleViolation,
    _bphi_series,
    _selection,
    convergence_experiment,
    taylor_approximant,
    validate_schedule,
    vp_approximant,
)
from szego_lab.blaschke import (
    BlaschkeProduct,
    ZeroSet,
    corrector_with_radius,
    eval_B_phi,
    eval_blaschke,
    taylor_coeffs,
)
from szego_lab.circle_fourier import LaurentPolynomial, grid_nodes
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    _trig_moments,
    eta_n,
    tau_n,
)
from szego_lab.xlinalg import _fixed, _to_mpc, context

import szego_lab.asymptotics as asym
import szego_lab.measure_opuc as mo
import szego_lab.xlinalg as xlinalg
from test_cli import _make_frozen
from test_xlinalg import fixed_pair

DEFECTS = Path(__file__).parents[1] / "bench" / "defects"
D2_MEASURE = DEFECTS / "d2-measure.json"
D3_MEASURE = DEFECTS / "d3-measure.json"
COMPLEX_PSI_MEASURE = {"psi": [[1.0, 0.0], [0.3, -0.2], [0.0, 0.1]],
                       "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]],
                       "precision_bits": 256}
# psi with roots at 1.05 e^i and at 2: the moments of 1/|p|^2 decay like
# 1.05^-m, so the h^H T h term of the circle norm carries real weight
_R1 = complex(math.cos(1.0), math.sin(1.0)) * 1.05
_C1, _C2 = -(1 / _R1 + 0.5), 1 / (2 * _R1)
NEAR_ROOT_MEASURE = {"psi": [[1.0, 0.0], [_C1.real, _C1.imag],
                             [_C2.real, _C2.imag]],
                     "masses": [[1.5, 0.8, 0.3], [-1.2, 0.9, 0.2]],
                     "precision_bits": 256}
CONST_THREE_MASS_MEASURE = {"psi": [[1.0, 0.0]],
                            "masses": [[1.5, 0.0, 0.3], [-1.25, 0.0, 0.2],
                                       [0.4, 1.3, 0.1]],
                            "precision_bits": 256}


TWO_MASS = PointSpectrum(((1.5, 0.3), (-1.25, 0.1)))
ONE = OuterWeight.constant_one()

# exact optima for the spectra above, computed by the Gram route at 256 bits
ETA64_TWO_MASS = 0.5333333333335659
TAU64_TWO_MASS = 0.5333333333335245
ETA8_TWO_MASS = 0.5490115211559835
ETA16_PSI_HALVING = 0.6666706906084409


def halving_weight():
    return OuterWeight(LaurentPolynomial(0, [1.0, -0.5]))


@pytest.fixture(scope="module")
def vp64():
    return vp_approximant(TWO_MASS, ONE, 64)


@pytest.fixture(scope="module")
def ty64():
    return taylor_approximant(TWO_MASS, ONE, 64)


@pytest.fixture(scope="module")
def psi16():
    return vp_approximant(PointSpectrum(((1.5, 0.3),)), halving_weight(), 16)


# ----------------------------------------------------------------------
# schedules


def test_schedule_family_values():
    sched = ScheduleParams.default()
    assert sched.eps(64) == pytest.approx(0.4922888552025098, rel=1e-14)
    assert sched.a(64) == pytest.approx(0.7126232743231953, rel=1e-14)
    assert ScheduleFn("constant", 3.0)(1000) == 3.0


def test_schedule_decay_closed_form():
    # default pairing: A * eps = 1 / (2 loglog n), so the decay sequence
    # log(n) * exp(-2 loglog n) is exactly 1/log(n)
    sched = ScheduleParams.default()
    for n in (8, 64, 1024, 10 ** 6):
        assert sched.decay(n) == pytest.approx(1.0 / math.log(n), rel=1e-13)


def test_schedule_json_roundtrip():
    sched = ScheduleParams(ScheduleFn("inv_loglog_sq", 2.0),
                           ScheduleFn("half_loglog"), c_bound=3.5)
    back = ScheduleParams.from_json(sched.to_json())
    assert back == sched
    assert back.eps(100) == sched.eps(100)
    default_back = ScheduleParams.from_json(ScheduleParams.default().to_json())
    assert default_back.c_bound is None


def test_schedule_bad_arguments():
    with pytest.raises(ValueError, match="unknown schedule family"):
        ScheduleFn("cubic")
    with pytest.raises(ValueError, match="positive"):
        ScheduleFn("constant", 0.0)
    with pytest.raises(ValueError, match="positive"):
        ScheduleParams(ScheduleFn("constant"), ScheduleFn("constant"),
                       c_bound=-1.0)


def test_validate_schedule_default_ok():
    validate_schedule(ScheduleParams.default(), (8, 16, 32, 64, 128, 256, 1024))
    validate_schedule(ScheduleParams.default(), (4, 8))


def test_validate_schedule_growth_violation():
    bad = ScheduleParams(ScheduleFn("constant"), ScheduleFn("inv_loglog_sq"))
    with pytest.raises(ScheduleViolation, match="growth factor .* not increasing"):
        validate_schedule(bad, (8, 16, 32))


def test_validate_schedule_product_violation():
    bad = ScheduleParams(ScheduleFn("constant"), ScheduleFn("half_loglog"))
    with pytest.raises(ScheduleViolation,
                       match="product of half_loglog and constant"):
        validate_schedule(bad, (8, 16, 32))


def test_validate_schedule_decay_violation():
    # scaling eps by 4 keeps the growth factor increasing and the product
    # decreasing but turns the decay sequence into sqrt(log n)
    bad = ScheduleParams(ScheduleFn("inv_loglog_sq", 4.0),
                         ScheduleFn("half_loglog"))
    ns = (8, 16, 32)
    assert bad.a(16) > bad.a(8)
    assert bad.a(16) * bad.eps(16) < bad.a(8) * bad.eps(8)
    assert bad.decay(16) > bad.decay(8)
    with pytest.raises(ScheduleViolation, match="decay sequence"):
        validate_schedule(bad, ns)


def test_validate_schedule_grid_errors():
    sched = ScheduleParams.default()
    with pytest.raises(ValueError, match="two grid points"):
        validate_schedule(sched, (16,))
    with pytest.raises(ValueError, match="at least 4"):
        validate_schedule(sched, (2, 8, 16))
    # order of the grid does not matter
    validate_schedule(sched, (64, 8, 16, 32))


# ----------------------------------------------------------------------
# selection and partial products


def partial_product(spectrum, n, sched):
    """(product, cap, margin_reciprocal, radius): the Blaschke product on
    the reflected points that _selection selects, and its dilation numbers."""
    cap, margin, radius, selected, _ = _selection(spectrum, n, sched)
    product = BlaschkeProduct(ZeroSet(
        tuple(1.0 / z.conjugate() for z, _ in selected)))
    return product, cap, margin, radius


def test_partial_product_empty_spectrum():
    prod, cap, margin, radius = partial_product(
        PointSpectrum.empty(), 16, ScheduleParams.default())
    assert (cap, margin) == (7, 4)
    assert radius == 1.25
    assert len(prod.zeros) == 0
    assert eval_blaschke(prod, 0.0) == 1.0


def test_partial_product_two_mass():
    prod, cap, margin, radius = partial_product(
        TWO_MASS, 64, ScheduleParams.default())
    assert (cap, margin) == (22, 16)
    assert radius == 1.0625
    moduli = sorted(abs(z) for z in prod.zeros.zeros)
    assert moduli == pytest.approx([2.0 / 3.0, 0.8], abs=1e-15)
    assert eval_blaschke(prod, 0.0) == pytest.approx(8.0 / 15.0, rel=1e-14)


def test_partial_product_threshold_excludes_near_circle():
    # at n=8 the cap is 5, so the threshold 1 - 1/5 throws out the
    # reflected point at exactly 0.8 but keeps the one at 2/3
    sched = ScheduleParams.default()
    single, _, _, _ = partial_product(PointSpectrum(((-1.25, 0.1),)), 8, sched)
    assert len(single.zeros) == 0
    both, cap, margin, radius = partial_product(TWO_MASS, 8, sched)
    assert (cap, margin, radius) == (5, 2, 1.5)
    assert [abs(z) for z in both.zeros.zeros] == pytest.approx(
        [2.0 / 3.0], abs=1e-15)


def test_partial_product_dyadic_selection():
    # reflected moduli 1 - 2^-k; the n=64 threshold 1 - 1/22 sits between
    # k=4 and k=5, so exactly four points are selected, smallest first
    masses = tuple((1.0 / (1.0 - 2.0 ** -k), 0.1) for k in range(1, 7))
    prod, cap, _, _ = partial_product(PointSpectrum(masses), 64,
                                      ScheduleParams.default())
    assert cap == 22
    assert 0.9375 < 1.0 - 1.0 / cap < 0.96875
    moduli = [abs(z) for z in prod.zeros.zeros]
    assert moduli == pytest.approx([0.5, 0.75, 0.875, 0.9375], abs=1e-15)


def test_partial_product_small_n():
    with pytest.raises(ValueError, match="n >= 8"):
        partial_product(TWO_MASS, 7, ScheduleParams.default())


def test_partial_product_empty_cap():
    starved = ScheduleParams(ScheduleFn("constant", 1e-6),
                             ScheduleFn("constant"))
    with pytest.raises(ScheduleViolation, match="empty selection cap"):
        partial_product(TWO_MASS, 8, starved)


# ----------------------------------------------------------------------
# corrector series


def series(zetas, radius, upto, bits):
    """_bphi_series of the product alone (times 1) at bits fractional bits,
    each coefficient as an mpc; each zero's (zeta, zeta/|zeta|, |zeta|)
    rounded once from 2 bits + 64 bits of precision."""
    ctx, wide = context(bits), context(2 * bits + 64)
    zeros = []
    for zeta in map(wide.mpc, zetas):
        r = abs(zeta)
        zeros.append((fixed_pair(zeta, bits), fixed_pair(zeta / r, bits),
                      _fixed(r._mpf_, bits)))
    return [_to_mpc(ctx, re, im, -bits)
            for re, im in _bphi_series(zeros, radius, upto, bits,
                                       [(1 << bits, 0)])]


def test_series_dual_route():
    # factor recurrences against sampled-circle Taylor coefficients of the
    # same dilated product
    zetas = [1.0 / (1.5 + 0j).conjugate(), 1.0 / (-1.25 + 0j).conjugate()]
    corr = corrector_with_radius(ZeroSet(tuple(zetas)), 1.0625)
    s1 = series(zetas, 1.0625, 40, 128)
    s2 = taylor_coeffs(corr, 40, tol=1e-13)
    diff = max(abs(complex(a) - complex(b)) for a, b in zip(s1, s2.coeffs))
    assert diff <= 5e-15


def test_series_constant_term():
    zetas = [2.0 / 3.0, -0.8]
    s = series(zetas, 1.0625, 8, 128)
    with mp.workprec(128):
        want = mp.mpf(2.0 / 3.0) * mp.mpf(0.8)
        gap = float(abs(s[0] - want))
    assert gap < 1e-30
    assert complex(s[0]).imag == 0.0


def test_series_empty_zero_set():
    s = series([], 1.25, 12, 128)
    assert len(s) == 13
    assert complex(s[0]) == 1.0 + 0.0j
    assert all(complex(c) == 0.0 for c in s[1:])


def test_series_makes_no_mpmath_number(monkeypatch):
    # the masses' reflections come from the integer reader, and the series
    # is built on them with no mpmath context to be had
    psi = (1.0 + 0j, 0.3 - 0.2j, 0.1j)
    masses = ((1.5 + 0.8j, 0.3), (-1.2 + 0.9j, 0.2))
    f = 180

    def run():
        coeffs, terms = mo._mass_terms(psi, masses, f)
        return asym._bphi_series([t[1:4] for t in terms], 1.0625, 40, f,
                                 [(re, -im) for re, im in coeffs])

    want = run()

    def refuse(bits):
        raise AssertionError(f"an mpmath context at {bits} bits")

    # asymptotics holds no context: only the modules that do are patched
    for module in (mo, xlinalg):
        monkeypatch.setattr(module, "context", refuse)
    mo._mass_terms.cache_clear()
    assert run() == want


def test_series_and_norm_reflect_the_same_point():
    # the Taylor competitor nearly vanishes at the reflected selected mass:
    # the series is built on the zero that the norm evaluates at, so the
    # inside mass sum reads the approximation, not a rounding of the zero
    mu = MeasureSpec.from_json({
        "psi": [[1.051676, 0]],
        "masses": [[0.30989318677310634, -2.453090435626173, 0.204476]]})
    _, cert = taylor_approximant(mu.spectrum, mu.weight, 64,
                                 precision=mu.precision)
    assert cert.selected_count == 1 and cert.tail_mass_sum == 0.0
    assert cert.inside_mass_sum <= 1e-50


# ----------------------------------------------------------------------
# full pipeline runs, frozen certificates


def test_vp_certificate_two_mass(vp64):
    approx, cert = vp64
    assert cert.route == "vp"
    assert cert.n == 64
    assert (cert.selection_cap, cert.margin_reciprocal) == (22, 16)
    assert cert.radius == 1.0625
    assert cert.selected_count == 2
    assert cert.schedule_decay == pytest.approx(
        ScheduleParams.default().decay(64), rel=1e-14)
    assert cert.lower_bound_achieved == pytest.approx(0.528631192563327,
                                                      rel=1e-9)
    # read from the exact series; within 5e-16 of the 2^18-node dense grid
    assert cert.sup_defect == pytest.approx(2.418668072654177e-11, rel=1e-6,
                                            abs=0)
    assert cert.apriori_defect == pytest.approx(0.3730145580858517, rel=1e-6)
    assert cert.ac_norm == pytest.approx(1.0178689924381996, rel=1e-9)
    assert cert.total_norm == pytest.approx(1.0088949362734456, rel=1e-9)
    assert cert.inside_mass_sum < 1e-20
    assert cert.tail_mass_sum == 0.0
    assert cert.tail_majorant == 0.0
    assert cert.inverse_tail == 0.0
    assert cert.leading_gap <= 1e-15
    assert cert.bookkeeping_gap <= 1e-12
    assert cert.schwarz_pass and cert.schwarz_excess <= 1e-9


def test_vp_competitor_support(vp64):
    # the competitor is conj(approx(1/conj(z))) z^n
    approx, _ = vp64
    assert approx.coeffs.dtype == np.complex128
    assert (64 - approx.hi, 64 - approx.lo) == (-63, 64)


def test_vp_dominated_by_exact_optimum(vp64):
    _, cert = vp64
    assert cert.lower_bound_achieved <= ETA64_TWO_MASS + 1e-10


def test_taylor_certificate_two_mass(ty64):
    approx, cert = ty64
    assert cert.route == "taylor"
    assert cert.lower_bound_achieved == pytest.approx(0.528631192563327,
                                                      rel=1e-9)
    assert cert.sup_defect == pytest.approx(4.5099279866178676e-10, rel=1e-6,
                                            abs=0)
    assert cert.sup_defect <= 2.0 * cert.schedule_decay
    assert cert.bookkeeping_gap <= 1e-12
    assert cert.schwarz_pass
    assert cert.lower_bound_achieved <= TAU64_TWO_MASS + 1e-10


def test_taylor_competitor_support(ty64):
    approx, _ = ty64
    assert (64 - approx.hi, 64 - approx.lo) == (0, 64)
    top = complex(approx.coefficient(0)).conjugate()
    assert abs(top.imag) <= 1e-12
    assert top.real == pytest.approx(8.0 / 15.0, rel=1e-12)


def test_empty_spectrum_run():
    approx, cert = vp_approximant(PointSpectrum.empty(), ONE, 16)
    assert cert.lower_bound_achieved == pytest.approx(1.0, abs=1e-12)
    assert cert.total_norm == pytest.approx(1.0, abs=1e-12)
    assert cert.sup_defect == 0.0
    assert cert.bookkeeping_gap <= 1e-14
    assert (16 - approx.hi, 16 - approx.lo) == (16, 16)


def test_mass_free_weight_run_is_exact():
    # without masses the approximant is the weight polynomial itself, and
    # the exact difference of their coefficients reads the defect as 0
    for route in (vp_approximant, taylor_approximant):
        approx, cert = route(PointSpectrum.empty(), halving_weight(), 16)
        assert [complex(c) for c in approx.coeffs] == [1.0, -0.5]
        assert cert.sup_defect == 0.0
        assert cert.lower_bound_achieved == pytest.approx(1.0, abs=1e-15)
        assert cert.bookkeeping_gap <= 1e-14 and cert.schwarz_pass


def test_psi_case_certificate(psi16):
    _, cert = psi16
    assert cert.lower_bound_achieved == pytest.approx(0.6443646993467514,
                                                      rel=1e-9)
    assert cert.sup_defect == pytest.approx(2.820594258157172e-08, rel=1e-6,
                                            abs=0)
    assert cert.ac_norm == pytest.approx(1.0704194740274162, rel=1e-9)
    assert cert.inverse_tail == 0.0
    assert cert.leading_gap <= 1e-15
    assert cert.bookkeeping_gap <= 1e-12
    assert cert.schwarz_pass
    assert cert.lower_bound_achieved <= ETA16_PSI_HALVING + 1e-10


def test_tail_case_n8():
    # at n=8 the point at -1.25 reflects to exactly the selection threshold
    # and lands in the tail; the reported majorant is informational and the
    # raw tail sum may exceed it
    _, cert = vp_approximant(TWO_MASS, ONE, 8)
    assert (cert.selection_cap, cert.margin_reciprocal) == (5, 2)
    assert cert.radius == 1.5
    assert cert.selected_count == 1
    assert cert.tail_mass_sum == pytest.approx(4.994100336137119, rel=1e-9)
    assert cert.tail_majorant == pytest.approx(0.17712770502287767, rel=1e-9)
    assert cert.lower_bound_achieved == pytest.approx(0.26894675281028174,
                                                      rel=1e-9)
    assert cert.bookkeeping_gap <= 1e-12
    assert cert.schwarz_pass
    assert cert.lower_bound_achieved <= ETA8_TWO_MASS


def test_tail_only_run():
    # the one mass reflects above the selection threshold, so nothing is
    # selected: the approximant is 1 and the tail sum m |z|^(2n) is read at
    # the reflected point through r_small = z^(-n)
    for route in (vp_approximant, taylor_approximant):
        _, cert = route(PointSpectrum(((1.02, 0.3),)), ONE, 16)
        assert cert.selected_count == 0
        assert cert.tail_mass_sum == pytest.approx(0.3 * 1.02 ** 32,
                                                   rel=1e-14)
        assert cert.bookkeeping_gap <= 1e-14


@pytest.mark.parametrize("lo", [-3, -1, 0])
def test_laurent_value_against_mpmath(lo):
    # exponents lo..lo+2: negative up to -1, straddling 0, and from 0
    f = 128
    ctx = context(256)
    cs = [ctx.mpc(1, 2), ctx.mpc(-0.5, 0.25), ctx.mpc(0.125, -1)]
    x = ctx.mpc(0.7, -0.4)
    got = asym._laurent_value([fixed_pair(c, f) for c in cs], lo,
                              fixed_pair(x, f), f)
    want = sum(c * x ** (lo + j) for j, c in enumerate(cs))
    assert abs(_to_mpc(ctx, *got, -f) - want) <= 1e-35


def test_bookkeeping_gap_off_the_real_axis():
    # masses at 1.3 and 1.1i: the n = 128 competitor is evaluated where
    # |z|^n reaches 2.7e14, so its coefficients must keep their working
    # precision through the conjugate reflection
    mu = MeasureSpec.from_json(json.loads(D2_MEASURE.read_text()))
    _, cert = vp_approximant(mu.spectrum, mu.weight, 128,
                             precision=mu.precision)
    assert cert.bookkeeping_gap <= 1e-12


@pytest.mark.parametrize("route", [vp_approximant, taylor_approximant],
                         ids=["vp", "taylor"])
@pytest.mark.parametrize("spectrum, weight, n", [
    (TWO_MASS, ONE, 16),
    (TWO_MASS, ONE, 64),
    (PointSpectrum(((1.5, 0.3),)), halving_weight(), 16),
], ids=["two_mass-16", "two_mass-64", "psi16"])
def test_sup_defect_matches_a_dense_grid(route, spectrum, weight, n):
    # sup_defect is read from the exact series; the oracle is the float
    # route of the Schwarz check, |approx - eval_B_phi p| on 2^18 nodes
    approx, cert = route(spectrum, weight, n)
    _, _, radius, selected, _ = _selection(spectrum, n,
                                           ScheduleParams.default())
    corrector = corrector_with_radius(ZeroSet(tuple(
        1.0 / complex(z).conjugate() for z, _ in selected)), radius)
    m = 1 << 18
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    padded = np.zeros(m, dtype=complex)
    padded[approx.lo:approx.hi + 1] = approx.coeffs
    p = np.polynomial.polynomial.polyval(nodes, np.conj(weight.psi.coeffs))
    dense = np.max(np.abs(np.fft.ifft(padded, norm="forward")
                          - eval_B_phi(corrector, nodes) * p))
    assert abs(cert.sup_defect - dense) <= 1e-6 * dense + 4e-15


def test_defect_decay_and_lower_bound_trend(vp64, ty64):
    for route, cached in ((vp_approximant, vp64), (taylor_approximant, ty64)):
        certs = [route(TWO_MASS, ONE, n)[1] for n in (8, 16, 32)]
        certs.append(cached[1])
        defects = [c.sup_defect for c in certs]
        lowers = [c.lower_bound_achieved for c in certs]
        for i in range(3):
            assert defects[i + 1] <= 2.0 * defects[i]
            assert lowers[i + 1] > lowers[i] - 1e-12
        assert defects[3] < defects[0]


@pytest.mark.parametrize("measure", ["d3", "complex_psi"])
def test_lower_bound_rises_with_a_nonconstant_weight(measure):
    # with the weight polynomial as the factor, the bound approaches
    # B(0) psi(0) for a nonconstant (here also complex) weight too
    obj = (json.loads(D3_MEASURE.read_text()) if measure == "d3"
           else COMPLEX_PSI_MEASURE)
    mu = MeasureSpec.from_json(obj)
    for route, exact in ((vp_approximant, eta_n), (taylor_approximant, tau_n)):
        lowers = []
        for n in (16, 32, 64):
            _, cert = route(mu.spectrum, mu.weight, n, precision=mu.precision)
            opt = float(exact(mu, n))
            assert cert.lower_bound_achieved <= opt + 1e-10
            assert cert.schwarz_pass and cert.bookkeeping_gap <= 1e-12
            lowers.append(cert.lower_bound_achieved)
        assert lowers[0] < lowers[1] < lowers[2]
        assert lowers[2] >= 0.98 * opt


def _double_sum_circle_norm(weight, q, bits):
    """The O(N^2) route: sum over r, c of conj(q_r) q_c t_(c-r)."""
    ctx = context(bits)
    span = len(q) - 1
    t, e = _trig_moments(weight, span, bits)
    values = [context(bits + 32).make_mpc((from_man_exp(re, e),
                                           from_man_exp(im, e)))
              for re, im in t]
    t_diff = [ctx.conj(t) for t in values[span:0:-1]] + values[: span + 1]
    return ctx.re(ctx.fsum(
        ctx.conj(q[r]) * ctx.fsum(q[c] * t_diff[span + c - r]
                                  for c in range(len(q)))
        for r in range(len(q))))


def _captured_runs(monkeypatch, obj):
    """(cert, weight, q, norm) per run of both routes at n = 16, 32, 64,
    with q the exact values of the integer pairs the pipeline hands to the
    circle norm, and norm what the circle norm returned."""
    mu = MeasureSpec.from_json(obj)
    seen = []
    real = asym._circle_norm_sq

    def spy(weight, q, bits):
        # mpc values in context(bits), as mpmath rounds at the context of
        # the left operand; the norm, an integer at 3 bits fractional bits,
        # rounded once to an mpf of the same context
        ctx = context(bits)
        norm = real(weight, q, bits)
        seen.append((weight, [ctx.make_mpc((from_man_exp(re, -bits),
                                            from_man_exp(im, -bits)))
                              for re, im in q], ctx.mpf((norm, -3 * bits))))
        return norm

    monkeypatch.setattr(asym, "_circle_norm_sq", spy)
    out = []
    for route in (vp_approximant, taylor_approximant):
        for n in (16, 32, 64):
            _, cert = route(mu.spectrum, mu.weight, n, precision=mu.precision)
            out.append((cert,) + seen[-1])
    return out


@pytest.mark.parametrize("obj", [
    json.loads(D3_MEASURE.read_text()), COMPLEX_PSI_MEASURE,
    CONST_THREE_MASS_MEASURE, NEAR_ROOT_MEASURE,
], ids=["d3", "complex_psi", "const_three_mass", "near_root"])
def test_circle_norm_matches_the_double_sum(monkeypatch, obj):
    for cert, weight, q, new in _captured_runs(monkeypatch, obj):
        old = _double_sum_circle_norm(weight, q, 256)
        assert abs(new - old) <= 1e-60 * abs(old)
        assert float(old) == cert.ac_norm


def test_circle_norm_matches_a_grid_mean(monkeypatch):
    nodes = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    for cert, weight, q, _ in _captured_runs(monkeypatch, COMPLEX_PSI_MEASURE):
        qf = LaurentPolynomial(0, [complex(c) for c in q])
        pf = LaurentPolynomial(0, np.conj(weight.psi.coeffs))
        mean = float(np.mean(np.abs(qf(nodes)) ** 2 / np.abs(pf(nodes)) ** 2))
        assert mean == pytest.approx(cert.ac_norm, rel=1e-10)


@pytest.mark.parametrize("name", ["readme_two_mass_128", "complex_two_mass",
                                  "d3"])
def test_total_norm_is_the_double_of_the_exact_root(monkeypatch, name):
    # the norms stay integers to the end: total_norm is the exact squared
    # norm's root, rounded once to the norm bits and once to a double, the
    # same double as mpmath's root at 512 bits gives
    mu = MeasureSpec.from_json(_make_frozen().PIPELINE_MEASURES[name])
    seen = []
    real = asym._norm_pieces

    def spy(*args):
        pieces = real(*args)
        seen.append((pieces[-1], args[-1]))
        return pieces

    monkeypatch.setattr(asym, "_norm_pieces", spy)
    for route in (vp_approximant, taylor_approximant):
        for n in (8, 64):
            _, cert = route(mu.spectrum, mu.weight, n, precision=mu.precision)
            total_sq, bits = seen[-1]
            exact = context(total_sq.bit_length()).mpf((total_sq, -3 * bits))
            assert float(context(512).sqrt(exact)) == cert.total_norm


def test_apriori_defect_bounds_p_between_the_nodes():
    # psi = 1 + 0.5 e^(i pi/2048) z: |p| on |z| = R peaks halfway between
    # two of 2048 nodes, and on a node of 2^16; the a priori defect holds
    # the peak, so it is at least the same expression at the 2^16-node max
    weight = OuterWeight(LaurentPolynomial(
        0, [1.0, 0.5 * complex(math.cos(math.pi / 2048),
                               math.sin(math.pi / 2048))]))
    p = LaurentPolynomial(0, np.conj(weight.psi.coeffs))
    for n in (8, 16, 32):
        _, cert = vp_approximant(TWO_MASS, weight, n)
        r = cert.radius
        peak = float(np.max(np.abs(p(r * grid_nodes(1 << 16)))))
        fine = r ** cert.selected_count * peak * r ** -(n + 1) / (1.0 - 1.0 / r)
        assert cert.apriori_defect >= fine


@pytest.mark.parametrize("psi", [(1.0, -0.5), (1.0, 0.3 - 0.2j, 0.1j)])
def test_sup_defect_is_taken_at_psis_own_scale(psi):
    # the defect's sup runs on psi 2^-s, psi(0) 2^-s in [1, 2), and is
    # scaled back: psi 2^600 gives exactly 2^600 times psi's sup
    for route in (vp_approximant, taylor_approximant):
        _, small = route(TWO_MASS, OuterWeight(LaurentPolynomial(0, psi)), 16)
        _, big = route(TWO_MASS, OuterWeight(LaurentPolynomial(
            0, [c * 2.0 ** 600 for c in psi])), 16)
        assert big.sup_defect == math.ldexp(small.sup_defect, 600)


def test_vp_bound_at_large_n():
    # the exact circle norm costs O(N d), so the pipeline reaches n = 1024
    mu = MeasureSpec.from_json(json.loads(D3_MEASURE.read_text()))
    certs = [vp_approximant(mu.spectrum, mu.weight, n,
                            precision=mu.precision)[1] for n in (512, 1024)]
    for cert in certs:
        assert cert.bookkeeping_gap <= 1e-12
        assert cert.schwarz_pass
    lower512, lower1024 = (c.lower_bound_achieved for c in certs)
    assert lower512 < lower1024 <= float(eta_n(mu, 1024))


def test_vp_route_passes_the_schwarz_check_on_two_masses():
    _, cert = vp_approximant(TWO_MASS, ONE, 16)
    assert cert.schwarz_pass


def test_schwarz_seed_determinism():
    _, a = vp_approximant(TWO_MASS, ONE, 16, seed=1)
    _, b = vp_approximant(TWO_MASS, ONE, 16, seed=1)
    _, c = vp_approximant(TWO_MASS, ONE, 16, seed=7)
    assert a.schwarz_excess == b.schwarz_excess
    assert a.schwarz_excess != c.schwarz_excess
    assert a.schwarz_pass and c.schwarz_pass


@pytest.mark.parametrize("c0", [1e-300, 1.0])
def test_schwarz_check_fails_a_halved_approximant_at_any_scale_of_psi(
        monkeypatch, c0):
    # the check's tolerance scales with psi(0) below 1: at psi = 1e-300 the
    # approximant at half its value misses B phi0 p by about 5.7e-301, far
    # inside an absolute 1e-9, and the check must still see it
    spectrum, weight = PointSpectrum(((1.5, 0.3),)), OuterWeight(
        LaurentPolynomial(0, [c0]))
    _, cert = vp_approximant(spectrum, weight, 16, precision=128)
    assert cert.schwarz_pass
    real = asym._schwarz_excess

    def halved(approx, base, sup_defect):
        return real(LaurentPolynomial(approx.lo, approx.coeffs / 2), base,
                    sup_defect)

    monkeypatch.setattr(asym, "_schwarz_excess", halved)
    _, cert = vp_approximant(spectrum, weight, 16, precision=128)
    assert cert.schwarz_excess > 0.1 * c0
    assert not cert.schwarz_pass


def test_certificate_row_shape(vp64):
    _, cert = vp64
    row = cert.to_row()
    assert tuple(row) == PipelineCertificate.FIELDS
    assert tuple(row) == (
        "route", "n", "selection_cap", "margin_reciprocal", "radius",
        "selected_count", "sup_defect", "apriori_defect", "schedule_decay",
        "inverse_tail", "leading_gap", "ac_norm", "inside_mass_sum",
        "tail_mass_sum", "tail_majorant", "total_norm",
        "lower_bound_achieved", "schwarz_excess", "schwarz_pass")
    pieces = cert.ac_norm + cert.inside_mass_sum + cert.tail_mass_sum
    manual = abs(cert.total_norm ** 2 - pieces) / cert.total_norm ** 2
    assert cert.bookkeeping_gap == manual


# ----------------------------------------------------------------------
# convergence experiments


def test_convergence_bernstein_szego():
    mu = MeasureSpec(halving_weight(), PointSpectrum.empty(), 128)
    rec = convergence_experiment(mu, (4, 8), which="tau")
    assert rec["target"] == pytest.approx(1.0, abs=1e-14)
    for row in rec["rows"]:
        assert row["tau"] == pytest.approx(1.0, abs=1e-10)
    assert rec["trend"]["tau"]


def test_convergence_two_mass_pipeline():
    mu = MeasureSpec(ONE, TWO_MASS, 256)
    rec = convergence_experiment(mu, (8, 16), which="eta")
    assert rec["target"] == pytest.approx(8.0 / 15.0, abs=1e-12)
    r8, r16 = rec["rows"]
    assert r8["eta"] == pytest.approx(0.5490115211559835, rel=1e-9)
    assert r8["eta_error"] == pytest.approx(0.01567818782265018, rel=1e-6)
    assert r16["eta"] == pytest.approx(0.5338007483053052, rel=1e-9)
    assert r16["eta_error"] == pytest.approx(0.0004674149719718912, rel=1e-6)
    assert rec["trend"] == {"eta": True}
    # the vp route's certified lower bound stays below the exact eta_n
    for row, pinned in zip(rec["rows"],
                           (0.26894675281028174, 0.5059144345774899)):
        _, cert = vp_approximant(TWO_MASS, ONE, row["n"], precision=256)
        assert cert.lower_bound_achieved == pytest.approx(pinned, rel=1e-9)
        assert cert.lower_bound_achieved <= row["eta"] + 1e-10


def test_convergence_validation():
    mu = MeasureSpec(ONE, TWO_MASS, 256)
    with pytest.raises(ValueError, match="strictly increasing"):
        convergence_experiment(mu, (16, 8))
    with pytest.raises(ValueError, match="tau, eta, or both"):
        convergence_experiment(mu, (8, 16), which="sigma")
    bad = ScheduleParams(ScheduleFn("inv_loglog_sq", 4.0),
                         ScheduleFn("half_loglog"))
    with pytest.raises(ScheduleViolation, match="decay sequence"):
        validate_schedule(bad, (8, 16))
    with pytest.raises(ValueError, match="at least 4"):
        validate_schedule(ScheduleParams.default(), (2, 8))
