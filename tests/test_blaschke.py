import csv
import json
import math
import os

import mpmath
import numpy as np
import pytest

from szego_lab.blaschke import (
    BlaschkeProduct,
    DilatedCorrector,
    PoleProximityError,
    TaylorToleranceError,
    ZeroSet,
    build_corrector,
    corrector_certificate,
    corrector_with_radius,
    eval_B_phi,
    eval_blaschke,
    eval_phi0,
    taylor_coeffs,
    _alias_grid,
    _arc_gaps,
    _block_length,
    _falling_factorial,
    _rotation,
    _sampled_sups,
    _tail_envelope,
    _truncation_degree,
)
import szego_lab.blaschke as blaschke_module
import szego_lab.circle_fourier as circle_fourier_module
from szego_lab.circle_fourier import (
    _GRID_CAP,
    grid_nodes,
    _analytic_values,
    _next_pow2,
)
from szego_lab.cli import generate_zeros, main

DATA = os.path.join(os.path.dirname(__file__), "data")


def random_zeros(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.uniform(size=n))
    return tuple(r * np.exp(2j * np.pi * rng.uniform(size=n)))


# ------------------------------------------------------------------ zero sets


def test_zero_set_validation():
    ZeroSet((0.5, -0.3j))
    with pytest.raises(ValueError):
        ZeroSet((1.0,))
    with pytest.raises(ValueError):
        ZeroSet((0.5, 2.0))


# ------------------------------------------------------------ Blaschke eval


def test_eval_blaschke_point_values():
    assert eval_blaschke(BlaschkeProduct(ZeroSet((0,))), 0.5) == 0.5
    assert abs(eval_blaschke(BlaschkeProduct(ZeroSet((0.5,))), 0.0) - 0.5) < 1e-15
    b = BlaschkeProduct(ZeroSet((0.5, -0.5)))
    assert abs(eval_blaschke(b, 0.0) - 0.25) < 1e-15


def test_positive_at_zero_for_random_sets():
    rng = np.random.default_rng(7)
    for n in (1, 3, 8):
        zs = random_zeros(rng, n)
        v = eval_blaschke(BlaschkeProduct(ZeroSet(zs)), 0.0)
        want = math.prod(abs(z) for z in zs)
        assert abs(v.imag) < 1e-14 and abs(v.real - want) < 1e-12


def test_unimodular_on_circle():
    rng = np.random.default_rng(12)
    n = 16
    b = BlaschkeProduct(ZeroSet(random_zeros(rng, n, rmax=0.97)))
    t = np.exp(2j * np.pi * rng.uniform(size=1024))
    vals = eval_blaschke(b, t)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 10 * n * 2.3e-16


def test_pole_proximity_raises():
    b = BlaschkeProduct(ZeroSet((0.5,)))
    with pytest.raises(PoleProximityError):
        eval_blaschke(b, 2.0 + 2.0 ** -45)
    # the pole of the corrector sits at R^2/conj(z): outside |z| < R^2
    c = build_corrector(ZeroSet((0.5,)), 1.0)
    with pytest.raises(ValueError):
        eval_B_phi(c, 4.5)


def _eval_blaschke_oracle(b: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """The block loop written out as expressions, allocating its
    temporaries: per block of 16 factors the product of the numerators over
    the product of the denominators, and the product of the rotations once
    at the end.  The reference the buffered loop must match bit for bit.
    Every operand is a named array: numpy may reuse an unnamed temporary as
    the output of the next product, and its fused complex products need
    not give the same bits with the operands swapped."""
    zs = np.asarray(b.zeros.zeros, dtype=np.complex128)
    out = np.ones(z.shape, dtype=np.complex128)
    for lo in range(0, len(zs), 16):
        num = np.ones(z.shape, dtype=np.complex128)
        den = np.ones(z.shape, dtype=np.complex128)
        for zk in zs[lo : lo + 16]:
            diff = z - zk
            num = num * diff
            if zk != 0:
                prod = np.conj(zk) * z
                cancel = 1.0 - prod
                den = den * cancel
        quotient = num / den
        out = out * quotient
    return out * _rotation(b.zeros.zeros)


def test_factor_loop_is_bit_identical_to_the_expression():
    rng = np.random.default_rng(71)
    # 256 factors with one at the origin: 16 full blocks on |z| < 1
    b = BlaschkeProduct(ZeroSet(generate_zeros("uniform_disk", 255, 3).zeros + (0,)))
    z = 0.999 * grid_nodes(1 << 15) * np.exp(0.1j * rng.uniform(size=1 << 15))
    assert _block_length(float(np.max(np.abs(z)))) == 16
    assert np.array_equal(eval_blaschke(b, z), _eval_blaschke_oracle(b, z))
    # a last block shorter than 16
    b = BlaschkeProduct(ZeroSet(b.zeros.zeros[:37]))
    assert np.array_equal(eval_blaschke(b, z), _eval_blaschke_oracle(b, z))


def test_pole_check_falls_back_to_the_elementwise_distance():
    # |pole| - max|z| cannot rule the pole 2 out for either array, so both
    # take the elementwise distance: -2 is far from it, 2 + 2^-45 is not
    b = BlaschkeProduct(ZeroSet((0.5, 0.3j)))
    far = np.concatenate([0.5 * grid_nodes(1024), [-2.0]])
    assert _block_length(2.0) == 16
    assert np.array_equal(eval_blaschke(b, far), _eval_blaschke_oracle(b, far))
    near = np.concatenate([0.5 * grid_nodes(1024), [2.0 + 2.0 ** -45]])
    with pytest.raises(PoleProximityError):
        eval_blaschke(b, near)


def _mp_blaschke(zeros, z, rr=1):
    """prod -|a|/a (z - a)/(1 - conj(a) z/rr) over the zeros as stored (z
    for a = 0), at 200 bits: rr = 1 is the Blaschke product, rr = R^2 the
    corrected product B phi0."""
    with mpmath.workprec(200):
        out = mpmath.mpc(1)
        for zk in zeros:
            a = mpmath.mpc(zk)
            out *= z if a == 0 else -abs(a) / a * (z - a) / (1 - mpmath.conj(a) * z / rr)
        return out


@pytest.mark.parametrize("kind", ["uniform_disk", "boundary_cluster", "radial_line"])
@pytest.mark.parametrize("n", [64, 256])
def test_samples_are_within_the_sample_budget(kind, n):
    # _series_error allows each sample of eval_B_phi 64 u R^n K,
    # K = sum 1/(1 - |z_k|/R^2); checked at 16 nodes of an 8192-node grid
    # against the product at 200 bits
    c = build_corrector(generate_zeros(kind, n, 1), 1.0)
    big_r = c.radius_R
    kappa = float(np.sum(1.0 / (1.0 - np.abs(c.zero_array()) / big_r ** 2)))
    budget = 64 * 2.0 ** -53 * big_r ** n * kappa
    m = 8192
    ps = np.random.default_rng(n).choice(m, 16, replace=False)
    samples = eval_B_phi(c, grid_nodes(m)[ps])
    with mpmath.workprec(200):
        rr = mpmath.mpf(big_r) ** 2
        for p, sample in zip(ps, samples):
            want = _mp_blaschke(c.zeros, mpmath.expjpi(mpmath.mpf(2 * int(p)) / m), rr)
            assert abs(sample - want) <= budget, (p, abs(sample - want), budget)


def test_eval_blaschke_keeps_its_range():
    # points at |z| = 1e20 (blocks of 9 factors), points equal to a zero,
    # and subnormal zeros, whose rotations -|z_k|/z_k overflow unless scaled
    rng = np.random.default_rng(5)
    zs = random_zeros(rng, 40) + (1e-310, 3e-320j, -5e-324 + 5e-324j, 0.0)
    b = BlaschkeProduct(ZeroSet(zs))
    big = 1e20 * grid_nodes(8)
    assert _block_length(1e20) == 9
    inner = np.array([0.3 + 0.1j, -0.5j, 2e-30])
    points = np.concatenate([big, grid_nodes(8), inner, [zs[0], zs[40], zs[41]]])
    vals = eval_blaschke(b, points)
    assert np.all(np.isfinite(vals))
    assert np.all(vals[-3:] == 0)
    tol = 64 * 2.0 ** -53 * len(zs)
    for z, v in zip(points[:-3], vals[:-3]):
        want = _mp_blaschke(zs, mpmath.mpc(z))
        assert abs(v - want) <= tol * abs(want), (z, v, want)
    with mpmath.workprec(200):
        for zk in zs[40:43]:
            want = -abs(mpmath.mpc(zk)) / mpmath.mpc(zk)
            assert abs(_rotation((zk,)) - want) <= 2.0 ** -51, zk


# --------------------------------------------------------------- corrector


def test_build_corrector_radius_and_formula():
    c = build_corrector(ZeroSet((0.5,)), 1.0)
    assert c.radius_R == 2.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(*rng.uniform(-0.9, 0.9, size=2))
        want = (1 - z / 2) / (1 - z / 8)
        assert abs(eval_phi0(c, z) - want) < 1e-14


def test_corrector_degenerate_and_validation():
    c0 = build_corrector(ZeroSet((0,)), 1.0)
    for z in (0.2, -0.7j, 0.9):
        assert eval_phi0(c0, z) == 1.0
    with pytest.raises(ValueError):
        build_corrector(ZeroSet(()), 1.0)
    with pytest.raises(ValueError):
        build_corrector(ZeroSet((0.5,)), 0.0)
    with pytest.raises(ValueError):
        build_corrector(ZeroSet((0.5,)), 1.5)


def test_phi0_at_origin_exact():
    rng = np.random.default_rng(5)
    for n in (1, 5, 17):
        c = build_corrector(ZeroSet(random_zeros(rng, n)), 1.0)
        assert eval_phi0(c, 0.0) == 1.0


def test_phi0_scalar_path_matches_the_array_path():
    rng = np.random.default_rng(41)
    c = build_corrector(ZeroSet(random_zeros(rng, 33) + (0,)), 0.5)
    pts = 0.99 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    vals = eval_phi0(c, pts)
    for z, want in zip(pts, vals):
        got = eval_phi0(c, complex(z))
        assert type(got) is complex
        assert abs(got - want) <= 1e-14 * abs(want)
    assert eval_phi0(c, np.complex128(0.0)) == 1.0


def test_phi0_pole_proximity_raises_for_scalars_and_arrays():
    # R = 2, so the pole of the factor of 0.5 sits at R^2/0.5 = 8
    c = build_corrector(ZeroSet((0.5,)), 1.0)
    for z in (8.0, 8.0 + 2.0 ** -45, 8.0 - 2.0 ** -45 * 1j):
        with pytest.raises(PoleProximityError):
            eval_phi0(c, z)
        with pytest.raises(PoleProximityError):
            eval_phi0(c, np.array([0.0, z]))
    # 2^-30 off the pole the denominator is -2^-33: no raise
    assert abs(eval_phi0(c, 8.0 + 2.0 ** -30) - (3 * 2.0 ** 33 + 4)) < 1e-3


def test_corrector_with_radius_records_epsilon():
    c = corrector_with_radius(ZeroSet((0.5, 0.2)), 1.25)
    assert c.radius_R == 1.25
    assert abs(c.epsilon - 0.5) < 1e-15


def test_factorization_identity():
    rng = np.random.default_rng(29)
    c = build_corrector(ZeroSet(random_zeros(rng, 9)), 0.7)
    b = BlaschkeProduct(ZeroSet(c.zeros.zeros))
    pts = 0.98 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    lhs = eval_B_phi(c, pts)
    rhs = eval_blaschke(b, pts) * eval_phi0(c, pts)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10


def test_monomial_case_on_circle():
    c = build_corrector(ZeroSet((0,)), 1.0)
    t = grid_nodes(16)
    assert np.max(np.abs(eval_B_phi(c, t) - t)) < 1e-14


def test_sup_bound_on_grid_strict():
    rng = np.random.default_rng(31)
    for n, eps in [(4, 1.0), (12, 1.0), (12, 0.25)]:
        c = build_corrector(ZeroSet(random_zeros(rng, n, rmax=0.95)), eps)
        vals = np.abs(eval_B_phi(c, grid_nodes(1024)))
        assert np.max(vals) < (1.0 + eps / n) ** n


# -------------------------------------------------------------- derivatives


def _derivative_apriori(c: DilatedCorrector, order: int, oversample: int) -> float:
    """The a-priori Cauchy bound on sup |(B phi0)^(order)| over the circle.

    order! * R^n * mean(r / |r e^(i t) - 1|^(order+1)) on the circle of
    radius r = (1+R)/2: the mean is r/(r^2 - 1) exactly at order 1, and a
    grid mean fine enough for the pole pair at distance r - 1 above.  Where
    that grid would pass _GRID_CAP nodes the mean is bounded by the
    integrand's max r/(r - 1)^(order+1) instead.
    """
    n = c.n
    big_r = c.radius_R
    r = 0.5 * (1.0 + big_r)
    if order == 1:
        return (big_r ** n) * r / (r * r - 1.0)
    m = _next_pow2(max(64 * n, 4 * oversample * (n + 1),
                       math.ceil(66.0 / (big_r - 1.0)), 1024))
    if m > _GRID_CAP:
        i_m = r / (r - 1.0) ** (order + 1)
    else:
        h = (r * grid_nodes(m) - 1.0) ** (-(order + 1))
        i_m = float(np.mean(r * np.abs(h)))
    return math.factorial(order) * (big_r ** n) * i_m


def _derivative_sup(c: DilatedCorrector, order: int) -> float:
    """Sup of |(B phi0)^(order)| on the circle, the sampled form's value."""
    return _sampled_sups(c, (order,), 16)[1][order].value


def test_derivative_monomial_exact():
    c1 = build_corrector(ZeroSet((0,)), 1.0)
    d = _derivative_sup(c1, 1)
    assert abs(d - 1.0) < 1e-12
    assert d <= _derivative_apriori(c1, 1, 16)
    c8 = build_corrector(ZeroSet((0,) * 8), 1.0)
    assert abs(_derivative_sup(c8, 1) - 8.0) < 1e-9
    assert abs(_derivative_sup(c8, 2) - 56.0) < 1e-8
    assert abs(_derivative_sup(c8, 3) - 336.0) < 1e-7


def _log_derivative_sums(c: DilatedCorrector, z: np.ndarray):
    """(L1, L2, L3): first three z-derivatives of log(B phi0), summed over
    factors (z - z_k)/(1 - w_k z) with w_k = conj(z_k)/R^2.  The closed-form
    oracle for the derivatives of the sampled form."""
    zs = c.zero_array()
    w = np.conj(zs) / (c.radius_R * c.radius_R)
    l1 = np.zeros(z.shape, dtype=np.complex128)
    l2 = np.zeros(z.shape, dtype=np.complex128)
    l3 = np.zeros(z.shape, dtype=np.complex128)
    for zk, wk in zip(zs, w):
        a = 1.0 / (z - zk)
        l1 += a
        l2 -= a * a
        l3 += 2.0 * a * a * a
        if wk != 0:
            b = wk / (1.0 - wk * z)
            l1 += b
            l2 += b * b
            l3 += 2.0 * b * b * b
    return l1, l2, l3


def _closed_form_derivative(c: DilatedCorrector, order: int, z: np.ndarray):
    f = eval_B_phi(c, z)
    if order == 0:
        return f
    l1, l2, l3 = _log_derivative_sums(c, z)
    if order == 1:
        return f * l1
    if order == 2:
        return f * (l1 ** 2 + l2)
    return f * (l1 ** 3 + 3 * l1 * l2 + l3)


def _closed_form_sup(c: DilatedCorrector, order: int) -> float:
    """sup over the unit circle of |(B phi0)^(order)| from the closed form.

    The grid max over 2^16 nodes sits up to about 5e-5 below the sup at
    n = 64, epsilon = 0.1, so the four best nodes are refined twice more on
    257-point local grids, each 128 times finer than the last.
    """
    def modulus(theta):
        return np.abs(_closed_form_derivative(c, order, np.exp(1j * theta)))

    h = 2.0 * np.pi / (1 << 16)
    theta = h * np.arange(1 << 16)
    vals = modulus(theta)
    best = float(np.max(vals))
    for k in np.argsort(vals)[-4:]:
        center, width = theta[k], h
        for _ in range(2):
            local = center + width * np.linspace(-1.0, 1.0, 257)
            lv = modulus(local)
            j = int(np.argmax(lv))
            best = max(best, float(lv[j]))
            center, width = local[j], width / 128.0
    return best


def test_log_derivative_sums_against_difference_quotient():
    rng = np.random.default_rng(37)
    c = build_corrector(ZeroSet(random_zeros(rng, 5)), 1.0)
    z = np.array([0.4 + 0.3j])
    h = 1e-6
    l1, l2, l3 = _log_derivative_sums(c, z)
    f0 = eval_B_phi(c, z[0])
    fp = eval_B_phi(c, z[0] + h)
    fm = eval_B_phi(c, z[0] - h)
    d1 = (fp - fm) / (2 * h)
    assert abs(f0 * l1[0] - d1) < 1e-7 * abs(d1)
    d2 = (fp - 2 * f0 + fm) / h ** 2
    assert abs(f0 * (l1[0] ** 2 + l2[0]) - d2) < 1e-3 * abs(d2)
    assert l3.shape == (1,)


def test_spectral_route_matches_closed_form():
    # derivative values of the sampled form (Taylor coefficients times the
    # falling factorials, summed by FFT at the nodes) against the
    # logarithmic-derivative closed forms: an independent route, compared
    # pointwise
    rng = np.random.default_rng(41)
    c = build_corrector(ZeroSet(random_zeros(rng, 6, rmax=0.8)), 1.0)
    m = 2048
    nodes = grid_nodes(m)
    d = _truncation_degree(c, 3, 1e-9, _tail_envelope(c))
    trunc = taylor_coeffs(c, d, tol=1e-10)
    a = np.array([trunc.coefficient(j) for j in range(d + 1)])
    for order in (2, 3):
        oracle = _closed_form_derivative(c, order, nodes)
        got = _analytic_values(_falling_factorial(d, order) * a, m) * nodes ** (-order)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got - oracle)) < 1e-9 * scale
        # the sup-norm route agrees with the closed-form grid sup
        ds = _derivative_sup(c, order)
        assert abs(ds - scale) < 1e-3 * scale
        assert ds <= _derivative_apriori(c, order, 16)


@pytest.mark.parametrize("kind", ["uniform_disk", "boundary_cluster"])
@pytest.mark.parametrize("eps", [1.0, 0.1])
@pytest.mark.parametrize("n", [6, 20, 64])
def test_certificate_sups_bracket_the_closed_form(n, eps, kind):
    # value <= sup <= upper, up to rounding.  The value's rounding is that
    # of the Taylor coefficients, about u R^n each, amplified by the falling
    # factorials: it reaches 1e-10 relative at order 2 with D = 31639 (n =
    # 64, epsilon = 0.1), and is allowed 16 u R^n sqrt(sum_(j<=D) j^(2s))
    c = build_corrector(generate_zeros(kind, n, 0), eps)
    cert = corrector_certificate(c, (1, 2))
    d = _truncation_degree(c, 2, 1e-9, _tail_envelope(c))
    js = np.arange(d + 1, dtype=np.float64)
    u = np.finfo(np.float64).eps
    for order, key in enumerate(("sup_phi", "ratio_s1", "ratio_s2")):
        scale = float(n) ** order
        oracle = _closed_form_sup(c, order) / scale
        rounding = 16.0 * u * c.radius_R ** n * math.sqrt(
            float(np.sum(js ** (2 * order)))) / scale
        assert cert[key] <= oracle * (1.0 + 1e-12) + rounding, key
        assert oracle <= cert[f"{key}_upper"] * (1.0 + 1e-12), key


@pytest.mark.parametrize("kind", ["uniform_disk", "boundary_cluster"])
def test_certified_uppers_need_no_slack(kind):
    # the upper bounds count rounding and the trimmed tail too, so they hold
    # as they are
    for n, eps in ((64, 0.1), (256, 1.0)):
        c = build_corrector(generate_zeros(kind, n, 0), eps)
        cert = corrector_certificate(c, (1, 2))
        for order, key in enumerate(("sup_phi", "ratio_s1", "ratio_s2")):
            oracle = _closed_form_sup(c, order) / float(n) ** order
            assert oracle <= cert[f"{key}_upper"], (n, key)


def test_certified_brackets_are_within_one_percent():
    # the grid bound is grid max / sqrt(cos(pi d/M)) (van der Corput and
    # Schaake), at most 1/sqrt(cos(pi/16)) = 1.0097 at the default
    # oversample, and rounding adds little to it
    for kind in ("uniform_disk", "boundary_cluster", "radial_line"):
        for n in (4, 16, 64):
            for eps in (1.0, 0.1):
                cert = corrector_certificate(
                    build_corrector(generate_zeros(kind, n, 0), eps), (1, 2))
                for key in ("sup_phi", "ratio_s1", "ratio_s2"):
                    if cert[key] > 0:
                        ratio = cert[f"{key}_upper"] / cert[key]
                        assert ratio <= 1.01, (kind, n, eps, key, ratio)


def test_sampled_series_is_trimmed_at_its_noise_floor():
    # boundary_cluster, n = 256, eps = 1, seed 1: with the whole-circle
    # envelope D was 11816 on 16384 nodes and the trim K 6908; per arc D is
    # 6271 on 8192 nodes, and the computed coefficients are rounding from
    # about degree 3600 on.  Before the trim every sup ran on degree D, and
    # the alias grid, floored at 2(D+1) nodes, had 32768
    c = build_corrector(generate_zeros("boundary_cluster", 256, 1), 1.0)
    env = _tail_envelope(c)
    d = _truncation_degree(c, 2, 1e-9, env)
    assert d <= 0.6 * 11816
    assert d == 6271
    assert _alias_grid(d, 1e-10, env) == 8192
    trunc, _, sizes = _sampled_sups(c, (0, 1, 2), 16)
    assert trunc.hi <= 0.6 * 11816
    assert sizes == {"truncation_degree": d, "alias_grid": 8192,
                     "trim_degree": trunc.hi}


def test_truncation_degree_at_n_1024():
    # boundary_cluster, n = 1024, eps = 1, seed 1: the whole-circle envelope
    # was 1.8e214 at the second radius and infinite past it, and gave D =
    # 51634 (a 65536-node alias grid)
    c = build_corrector(generate_zeros("boundary_cluster", 1024, 1), 1.0)
    d = _truncation_degree(c, 2, 1e-9, _tail_envelope(c))
    assert d < 51634
    assert d == 29379


@pytest.fixture
def grid_sizes(monkeypatch):
    """The size of every grid_nodes call blaschke makes."""
    sizes = []

    def recorded(size):
        sizes.append(size)
        return grid_nodes(size)

    monkeypatch.setattr(blaschke_module, "grid_nodes", recorded)
    return sizes


def test_alias_grid_is_set_by_its_bound(grid_sizes):
    # radial_line, n = 256, eps = 1, seed 1: D = 341, and the aliasing bound
    # holds on 512 nodes; a 64n floor made the certificate sample 16384
    c = build_corrector(generate_zeros("radial_line", 256, 1), 1.0)
    env = _tail_envelope(c)
    d = _truncation_degree(c, 2, 1e-9, env)
    assert d == 341
    assert _alias_grid(d, 1e-10, env) == 512
    corrector_certificate(c, (1, 2))
    assert grid_sizes == [512]


# (kind, n, epsilon): (D, alias grid) at seed 1, then the same from the
# whole-circle envelope; the alias grid goes through
# circle_fourier._certified_grid and must keep these sizes
ALIAS_GRIDS = {
    ("uniform_disk", 16, 1.0): ((289, 512), (343, 512)),
    ("uniform_disk", 16, 0.1): ((1180, 2048), (1334, 2048)),
    ("uniform_disk", 64, 1.0): ((1144, 2048), (1557, 2048)),
    ("uniform_disk", 64, 0.1): ((3763, 4096), (4522, 8192)),
    ("uniform_disk", 256, 1.0): ((6034, 8192), (8056, 8192)),
    ("uniform_disk", 256, 0.1): ((42900, 65536), (46223, 65536)),
    ("boundary_cluster", 16, 1.0): ((289, 512), (383, 512)),
    ("boundary_cluster", 16, 0.1): ((1125, 2048), (1372, 2048)),
    ("boundary_cluster", 64, 1.0): ((1398, 2048), (2691, 4096)),
    ("boundary_cluster", 64, 0.1): ((6211, 8192), (10676, 16384)),
    ("boundary_cluster", 256, 1.0): ((6271, 8192), (11816, 16384)),
    ("boundary_cluster", 256, 0.1): ((30973, 32768), (99582, 131072)),
    ("radial_line", 16, 1.0): ((79, 128), (79, 128)),
    ("radial_line", 16, 0.1): ((95, 128), (95, 128)),
    ("radial_line", 64, 1.0): ((141, 256), (141, 256)),
    ("radial_line", 64, 0.1): ((146, 256), (146, 256)),
    ("radial_line", 256, 1.0): ((341, 512), (341, 512)),
    ("radial_line", 256, 0.1): ((342, 512), (342, 512)),
}


@pytest.mark.parametrize("kind, n, eps", list(ALIAS_GRIDS))
def test_alias_grid_keeps_its_grids(kind, n, eps):
    c = build_corrector(generate_zeros(kind, n, 1), eps)
    env = _tail_envelope(c)
    d = _truncation_degree(c, 2, 1e-9, env)
    pinned, whole_circle = ALIAS_GRIDS[kind, n, eps]
    assert (d, _alias_grid(d, 1e-10, env)) == pinned
    assert pinned[0] <= whole_circle[0] and pinned[1] <= whole_circle[1]


def test_derivative_apriori_grid_is_capped(grid_sizes):
    # R - 1 = 1.25e-13 would ask for a 2^49-node grid; past 2^22 the mean
    # is bounded by the integrand's max
    c = build_corrector(generate_zeros("uniform_disk", 8, 0), 1e-12)
    d = _derivative_sup(c, 2)
    apriori = _derivative_apriori(c, 2, 16)
    assert grid_sizes and max(grid_sizes) <= 1 << 22
    assert math.isfinite(apriori) and apriori >= d


def test_first_derivative_apriori_holds_on_random_sets():
    rng = np.random.default_rng(43)
    for n in (2, 6, 20):
        for rmax in (0.5, 0.99):
            c = build_corrector(ZeroSet(random_zeros(rng, n, rmax)), 1.0)
            assert 0.0 < _derivative_sup(c, 1) <= _derivative_apriori(c, 1, 16)


def _dilated_values(c: DilatedCorrector, z: np.ndarray) -> np.ndarray:
    """B phi0 = R^n Btilde(z/R) out to the poles R^2/conj(z_k), past the
    |z| < R^2 that eval_B_phi accepts."""
    scaled = BlaschkeProduct(ZeroSet(tuple(zk / c.radius_R for zk in c.zeros)))
    return c.radius_R ** c.n * eval_blaschke(scaled, z / c.radius_R)


def _whole_circle_envelope(c: DilatedCorrector) -> list:
    """The envelope with each factor bounded by its sup over the whole
    circle, (rho - |z_k|)/(1 - |z_k| rho/R^2), on _tail_envelope's ladder:
    the oracle every per-arc (rho, A) must stay below."""
    big_r = c.radius_R
    out = [(big_r, big_r ** c.n)]
    moduli = np.abs(c.zero_array())
    zmax = float(np.max(moduli))
    if zmax > 0.0:
        pole = big_r * big_r / zmax
        for t in 1.0 - 2.0 ** -np.arange(1, 8):
            rho = big_r ** (1.0 - t) * pole ** t
            if rho > big_r:
                log_bound = float(np.sum(
                    np.log((rho - moduli) / (1.0 - moduli * rho / big_r ** 2))))
                out.append((rho, math.exp(log_bound) if log_bound < 700.0
                            else math.inf))
    return out


def _check_envelope_on_circles(c: DilatedCorrector, ray: complex) -> list:
    """Each (rho, A) of the envelope bounds max |B phi0| on a 2^14-node grid
    of |z| = rho turned by ray, and is at most the whole-circle product,
    equal to it at rho = R; returns the grid maxima."""
    env = _tail_envelope(c)
    oracle = _whole_circle_envelope(c)
    assert env[0] == oracle[0] == (c.radius_R, c.radius_R ** c.n)
    assert [rho for rho, _ in env] == [rho for rho, _ in oracle]
    nodes = ray * grid_nodes(1 << 14)
    tops = []
    for (rho, a), (_, whole) in zip(env, oracle):
        assert a <= whole, (rho, a, whole)
        top = float(np.max(np.abs(_dilated_values(c, rho * nodes))))
        assert top <= a * (1.0 + 1e-12), (rho, top, a)
        tops.append(top)
    return tops


@pytest.mark.parametrize("kind", ["uniform_disk", "boundary_cluster", "radial_line"])
@pytest.mark.parametrize("n", [1, 6, 64, 256])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_tail_envelope_bounds_every_circle(kind, n, eps):
    # each (rho, A) bounds |B phi0| on |z| = rho and is at most the
    # whole-circle product; the grid is turned so that a node lies on the
    # ray of the first zero, where the one factor of n = 1 attains its sup,
    # so there A is met to rounding and equals the whole-circle product
    c = build_corrector(generate_zeros(kind, n, 2), eps)
    env = _tail_envelope(c)
    assert len(env) == 8 and all(r < s for (r, _), (s, _) in zip(env, env[1:]))
    ray = c.zeros.zeros[0] / abs(c.zeros.zeros[0])
    tops = _check_envelope_on_circles(c, ray)
    if n == 1:
        assert env == _whole_circle_envelope(c)
        for (rho, a), top in zip(env, tops):
            assert top >= a * (1.0 - 1e-12), (rho, top, a)


@pytest.mark.parametrize("zeros", [
    (0.0, 0.9, 0.0, -0.5j),                       # zeros at the origin
    (0.7 + 0.2j,) * 3 + (-0.8,) * 2,              # repeated zeros
    tuple(0.9 * np.exp(2j * np.pi * np.arange(8) / 8)),  # on the arc ends
], ids=["origin", "repeated", "arc-ends"])
def test_tail_envelope_takes_origin_and_repeated_zeros(zeros):
    c = build_corrector(ZeroSet(zeros), 1.0)
    _check_envelope_on_circles(c, 1.0)


def test_arc_gaps_never_exceed_the_true_gap():
    # x[j, k] <= sin^2(gap/2) against the gap taken at 60 digits from the
    # zeros as stored, for random zeros and zeros next to the arc ends
    rng = np.random.default_rng(47)
    arcs = 64
    ends = 2 * np.pi * np.arange(arcs) / arcs
    angles = np.concatenate([rng.uniform(-np.pi, np.pi, 40),
                             ends[::8] + 1e-9, ends[::8] - 1e-9, ends[1::8]])
    zeros = rng.uniform(0.1, 0.99, len(angles)) * np.exp(1j * angles)
    x = _arc_gaps(zeros, arcs)
    with mpmath.workdps(60):
        two_pi = 2 * mpmath.pi
        for k, z in enumerate(zeros):
            alpha = mpmath.atan2(z.imag, z.real) % two_pi
            for j in range(arcs):
                # the angle from alpha to the arc, 0 on it
                t = (alpha - two_pi * j / arcs) % two_pi
                gap = max(0, min(t - two_pi / arcs, two_pi - t))
                assert x[j, k] <= mpmath.sin(gap / 2) ** 2, (j, k)


def test_tail_envelope_of_zeros_on_one_ray_is_the_whole_circle_product():
    # every factor is largest on the ray, which one arc holds
    c = build_corrector(ZeroSet((0.95, 0.5, 0.5, 0.0, 0.2)), 0.5)
    assert _tail_envelope(c) == _whole_circle_envelope(c)


@pytest.mark.parametrize("n", [16, 256])
def test_one_arc_envelope_skips_the_arc_loop_with_the_same_bits(n, monkeypatch):
    # radial_line puts every zero on one ray, so one arc holds them all and
    # the envelope takes no arc term; the arc loop, written out here over
    # every arc at once, gives the same pairs bit for bit
    c = build_corrector(generate_zeros("radial_line", n, 1), 1.0)
    calls = []
    monkeypatch.setattr(blaschke_module, "_arc_gaps", lambda *a: calls.append(a))
    env = _tail_envelope(c)
    assert calls == []
    big_r = c.radius_R
    zeros = c.zero_array()
    moduli = np.abs(zeros)
    rhos = np.array([rho for rho, _ in env[1:]])[:, None]
    q = moduli * rhos / big_r ** 2
    whole = np.sum(np.log((rhos - moduli) / (1.0 - q)), axis=1)
    u = (4.0 * rhos * moduli / (rhos - moduli) ** 2)[:, None, :]
    v = (4.0 * q / (1.0 - q) ** 2)[:, None, :]
    x = _arc_gaps(zeros, max(8, n // 4))
    best = np.log((u * x + 1.0) / (v * x + 1.0)).sum(axis=2).max(axis=1)
    loop = [(float(rho), math.exp(float(w) + 0.5 * min(0.0, float(b))))
            for rho, w, b in zip(rhos[:, 0], whole, best)]
    assert len(loop) == 7 and env == [(big_r, big_r ** n)] + loop


def test_tail_envelope_of_spread_zeros_is_below_the_whole_circle_product():
    # two opposite zeros: on every arc one factor is far below its sup
    c = build_corrector(ZeroSet((0.9, -0.9)), 1.0)
    env, oracle = _tail_envelope(c), _whole_circle_envelope(c)
    assert env[0] == oracle[0]
    assert all(a < 0.5 * whole for (_, a), (_, whole) in zip(env[1:], oracle[1:]))


def test_tail_envelope_of_the_origin_alone_is_R_to_the_n():
    c = build_corrector(ZeroSet((0.0, 0.0, 0.0)), 1.0)
    assert _tail_envelope(c) == [(c.radius_R, c.radius_R ** 3)]


def test_truncation_degree_follows_the_envelope():
    # boundary_cluster, n = 64, eps = 0.1, seed 1: with each factor bounded
    # by (rho + |z_k|)/(1 - |z_k| rho/R^2) no radius past R paid off and D was
    # 31639; the exact factor sups bring it to about a third
    c = build_corrector(generate_zeros("boundary_cluster", 64, 1), 0.1)
    assert _truncation_degree(c, 2, 1e-9, _tail_envelope(c)) <= 0.34 * 31639


def test_certificate_computes_one_envelope(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return _tail_envelope(c)

    monkeypatch.setattr(blaschke_module, "_tail_envelope", counted)
    c = build_corrector(generate_zeros("uniform_disk", 16, 0), 0.1)
    corrector_certificate(c, (1, 2))
    assert calls == [c]


def test_certificate_samples_once(monkeypatch):
    calls = []

    def counted(c, z):
        calls.append(c)
        return eval_B_phi(c, z)

    monkeypatch.setattr(blaschke_module, "eval_B_phi", counted)
    c = build_corrector(generate_zeros("boundary_cluster", 64, 1), 0.1)
    corrector_certificate(c, (1, 2))
    assert calls == [c]


def test_certificate_oversample_reaches_every_sup(monkeypatch):
    seen = set()
    certified = circle_fourier_module.sup_norm_certified

    def recorded(f, oversample=16):
        seen.add(oversample)
        return certified(f, oversample)

    monkeypatch.setattr(blaschke_module, "sup_norm_certified", recorded)
    monkeypatch.setattr(circle_fourier_module, "sup_norm_certified", recorded)
    c = build_corrector(generate_zeros("uniform_disk", 16, 0), 0.1)
    corrector_certificate(c, (1, 2), oversample=64)
    assert seen == {64}


# ------------------------------------------------------------------ Taylor


def test_taylor_monomial():
    c = build_corrector(ZeroSet((0,)), 1.0)
    t = taylor_coeffs(c, 3, 1e-12)
    assert t.lo == 1 and t.hi == 1 and t.coefficient(1) == 1.0


def test_taylor_single_zero_closed_form():
    # B phi0 for zero 1/2 at R = 2 is (1/2 - z)/(1 - z/8):
    # c_0 = 1/2, c_j = -(15/16) 8^{-(j-1)} for j >= 1
    c = build_corrector(ZeroSet((0.5,)), 1.0)
    t = taylor_coeffs(c, 6, 1e-13)
    assert abs(t.coefficient(0) - 0.5) < 1e-12
    for j in range(1, 7):
        want = -(15.0 / 16.0) * 8.0 ** (-(j - 1))
        assert abs(t.coefficient(j) - want) < 1e-12


def _series_oracle(c: DilatedCorrector, upto: int) -> np.ndarray:
    """a_0..a_upto of B phi0 by multiplying per-factor expansions
    rot_k (z - z_k) sum_m (w_k z)^m directly."""
    series = np.zeros(upto + 1, dtype=np.complex128)
    series[0] = 1.0
    rr = c.radius_R ** 2
    for zk in c.zeros:
        wk = np.conj(zk) / rr
        rot = -abs(zk) / zk
        geom = wk ** np.arange(upto + 1)
        # polymul in ascending order: (z - zk) has ascending coeffs [-zk, 1]
        factor = rot * (np.polymul([-zk, 1.0], geom)[: upto + 1])
        series = np.polymul(series, factor)[: upto + 1]
    return series


TAYLOR_ORACLE_ZEROS = (0.5, -0.3 + 0.4j, 0.2j)


def test_taylor_multi_zero_series_oracle():
    c = build_corrector(ZeroSet(TAYLOR_ORACLE_ZEROS), 1.0)
    upto = 24
    series = _series_oracle(c, upto)
    got = taylor_coeffs(c, upto, 1e-13)
    for j in range(upto + 1):
        assert abs(got.coefficient(j) - series[j]) < 1e-11


def test_taylor_one_sided_alias_grid(grid_sizes):
    # B phi0 has no negative frequencies, so 512 > 400 nodes separate
    # a_0..a_400 (the grid was floored at 2(upto+1), 1024 nodes)
    c = build_corrector(ZeroSet(TAYLOR_ORACLE_ZEROS), 1.0)
    got = taylor_coeffs(c, 400, 1e-13)
    assert grid_sizes == [512]
    series = _series_oracle(c, 400)
    for j in range(401):
        assert abs(got.coefficient(j) - series[j]) < 1e-11


def test_taylor_parseval_bound():
    rng = np.random.default_rng(53)
    c = build_corrector(ZeroSet(random_zeros(rng, 7, rmax=0.9)), 1.0)
    t = taylor_coeffs(c, 400, 1e-12)
    total = float(np.sum(np.abs(t.coeffs) ** 2))
    assert total <= math.e ** 2


def test_taylor_tolerance_unreachable():
    # pole pinned at distance ~3e-12 from the circle: no reachable grid
    c = DilatedCorrector(ZeroSet((1.0 - 1e-12,)), 1.0 + 1e-12, 1e-12)
    with pytest.raises(TaylorToleranceError) as err:
        taylor_coeffs(c, 10, 1e-12)
    assert err.value.achieved > 1e-12


def test_taylor_input_validation():
    c = build_corrector(ZeroSet((0.5,)), 1.0)
    with pytest.raises(ValueError):
        taylor_coeffs(c, -1, 1e-6)
    with pytest.raises(ValueError):
        taylor_coeffs(c, 3, 0.0)


# -------------------------------------------------------------- certificate


def test_certificate_monomial():
    cert = corrector_certificate(build_corrector(ZeroSet((0,)), 1.0), [1])
    assert cert["n"] == 1
    assert abs(cert["sup_phi"] - 1.0) < 1e-12
    assert cert["phi0_err"] == 0.0
    assert abs(cert["ratio_s1"] - 1.0) < 1e-12
    assert abs(cert["besov_ratio_s1"] - 1.0) < 1e-12


def test_certificate_sup_bounds():
    rng = np.random.default_rng(61)
    zs = ZeroSet(random_zeros(rng, 64, rmax=0.95))
    cert = corrector_certificate(build_corrector(zs, 0.1), s_list=[1])
    assert cert["sup_phi"] <= math.exp(0.1) + 1e-6
    assert cert["phi0_err"] < 1e-12
    corr1 = build_corrector(zs, 1.0)
    cert1 = corrector_certificate(corr1, s_list=[1, 2])
    assert cert1["sup_phi"] <= math.e + 1e-9
    for key in ("ratio_s1", "ratio_s2", "besov_ratio_s1", "besov_ratio_s2"):
        assert cert1[key] > 0.0
    # derivative ratios sit below their Cauchy a-priori counterparts
    assert cert1["ratio_s1"] * 64.0 <= _derivative_apriori(corr1, 1, 16)
    assert cert1["ratio_s2"] * 64.0 ** 2 <= _derivative_apriori(corr1, 2, 16)


def test_vs_bound_matches_the_frozen_csv(tmp_path, capsys):
    # vs-bound as written before the corrector certificate took every sup
    # from one sampling of B phi0.  sup_phi, ratio_s1 and the Besov ratios
    # agree to 1e-9; ratio_s2 (and max_ratio, its max with ratio_s1) to
    # 1e-4, as it came from a Cauchy quadrature without a refinement step
    man = tmp_path / "man.json"
    man.write_text(json.dumps({
        "command": "vs-bound", "out_dir": str(tmp_path / "out"),
        "kinds": ["uniform_disk", "boundary_cluster", "radial_line"],
        "n_grid": [4, 16, 64], "seeds": 2, "smoothness": [1, 2]}))
    assert main(["vs-bound", "--manifest", str(man)]) == 0
    capsys.readouterr()
    with open(os.path.join(DATA, "vs_bound_frozen.csv"), newline="") as fh:
        frozen = list(csv.DictReader(fh))
    with open(tmp_path / "out" / "certificates.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(frozen) == 18
    rel = {"sup_phi": 1e-9, "ratio_s1": 1e-9, "besov_ratio_s1": 1e-9,
           "besov_ratio_s2": 1e-9, "ratio_s2": 1e-4, "max_ratio": 1e-4}
    for old, new in zip(frozen, got):
        assert list(new) == list(old)
        for key in ("kind", "n", "seed", "epsilon", "phi0_err"):
            assert new[key] == old[key]
        for key, tol in rel.items():
            assert float(new[key]) == pytest.approx(float(old[key]), rel=tol), key


# vs-bound before the per-factor Cauchy envelope: the eps-0.1 runs at n = 16
# and 64, where the truncation degree fell most, and n = 256 at eps = 1
CORRECTOR_FROZEN_RUNS = ((0.1, [16, 64]), (1.0, [256]))


def test_vs_bound_matches_the_corrector_frozen_csv(tmp_path, capsys):
    # vs_bound_corrector_frozen.csv holds certificates.csv of both runs under
    # one header; every float column agrees to 1e-9, as the envelope moves
    # only the truncation degree and the grids, not the coefficients
    got = []
    for eps, n_grid in CORRECTOR_FROZEN_RUNS:
        out = tmp_path / f"out{eps}"
        man = tmp_path / f"man{eps}.json"
        man.write_text(json.dumps({
            "command": "vs-bound", "out_dir": str(out), "epsilon": eps,
            "kinds": ["uniform_disk", "boundary_cluster", "radial_line"],
            "n_grid": n_grid, "seeds": 2, "smoothness": [1, 2]}))
        assert main(["vs-bound", "--manifest", str(man)]) == 0
        with open(out / "certificates.csv", newline="") as fh:
            got += list(csv.DictReader(fh))
    capsys.readouterr()
    path = os.path.join(DATA, "vs_bound_corrector_frozen.csv")
    with open(path, newline="") as fh:
        frozen = list(csv.DictReader(fh))
    assert len(got) == len(frozen) == 18
    for old, new in zip(frozen, got):
        assert list(new) == list(old)
        assert new["kind"] == old["kind"]
        for key in list(old)[1:]:
            assert float(new[key]) == pytest.approx(float(old[key]), rel=1e-9), key
