import numpy as np
import pytest
from fractions import Fraction

from szego_lab.circle_fourier import (
    KernelDomainError,
    LaurentPolynomial,
    besov_seminorm,
    convolve,
    dirichlet,
    grid_nodes,
    kernel_identity_vk_vpn,
    kernel_multiplier,
    kernel_support,
    lp_norm,
    modified_v,
    modified_vp,
    sup_norm,
    sup_norm_certified,
    vallee_poussin,
    _certified_grid,
    _multiplier_scaled,
)


# ---------------------------------------------------------------- polynomials


def test_trim_and_canonical_zero():
    f = LaurentPolynomial(-3, [0.0, 0.0, 2.0, 0.0, 1.0, 0.0])
    assert f.lo == -1 and f.hi == 1
    assert f.coefficient(-1) == 2.0 and f.coefficient(1) == 1.0
    z = LaurentPolynomial(7, [0.0, 0.0])
    assert z.is_zero and z.lo == 0 and len(z.coeffs) == 1


def test_eval_against_naive():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    f = LaurentPolynomial(-2, c)
    for z in [0.3 + 0.4j, 1.0 + 0.0j, np.exp(0.7j), 2.0 - 1.0j]:
        naive = sum(c[i] * z ** (i - 2) for i in range(7))
        assert abs(f(z) - naive) < 1e-12 * max(1.0, abs(naive))


def test_grid_nodes_keep_the_bits_of_the_complex_phase_form():
    # the phases are taken in real arithmetic; on every power-of-two grid
    # that gives the bits of exp(2j pi p / m) with its complex division
    for k in range(21):
        m = 1 << k
        want = np.exp(2j * np.pi * np.arange(m) / m)
        assert np.array_equal(grid_nodes(m).view(np.uint64),
                              want.view(np.uint64)), m


# ------------------------------------------------------------------- kernels


def test_vallee_poussin_multipliers():
    vp1 = vallee_poussin(1)
    assert kernel_multiplier(vp1, 1) == 0
    assert kernel_multiplier(vp1, 2) == 1
    assert kernel_multiplier(vp1, 3) == Fraction(1, 2)
    assert kernel_multiplier(vp1, 4) == 0
    vp0 = vallee_poussin(0)
    assert kernel_multiplier(vp0, 0) == 1 and kernel_multiplier(vp0, 1) == 1
    assert kernel_multiplier(vp0, 2) == 0 and kernel_multiplier(vp0, -1) == 0
    vp3 = vallee_poussin(3)
    # peak at 2^3, endpoints of the open support vanish
    assert kernel_multiplier(vp3, 8) == 1
    assert kernel_multiplier(vp3, 4) == 0 and kernel_multiplier(vp3, 16) == 0
    assert kernel_multiplier(vp3, 6) == Fraction(1, 2)
    assert kernel_multiplier(vp3, 12) == Fraction(1, 2)


def test_modified_kernels_multipliers():
    mv2 = modified_v(2)
    assert kernel_multiplier(mv2, 0) == 1 and kernel_multiplier(mv2, 2) == 1
    assert kernel_multiplier(mv2, 3) == Fraction(1, 2)
    assert kernel_multiplier(mv2, 4) == 0
    assert kernel_multiplier(mv2, -3) == Fraction(1, 2)
    mvp2 = modified_vp(2)
    for j, want in [(-4, 0), (-3, Fraction(1, 2)), (-2, 1), (0, 1), (2, 1), (3, Fraction(1, 2)), (4, 0)]:
        assert kernel_multiplier(mvp2, j) == want
    # index 0 degenerates to the delta at 0
    assert kernel_multiplier(modified_v(0), 0) == 1
    assert kernel_multiplier(modified_v(0), 1) == 0
    assert kernel_multiplier(modified_vp(0), 0) == 1
    assert kernel_multiplier(modified_vp(0), -1) == 0


def test_dirichlet_multiplier():
    d3 = dirichlet(3)
    assert [kernel_multiplier(d3, j) for j in (-1, 0, 3, 4)] == [0, 1, 1, 0]


def test_kernel_support_matches_multiplier():
    for spec in [vallee_poussin(0), vallee_poussin(1), vallee_poussin(4),
                 modified_v(0), modified_v(3), modified_vp(0), modified_vp(5),
                 dirichlet(0), dirichlet(6)]:
        lo, hi = kernel_support(spec)
        assert kernel_multiplier(spec, lo - 1) == 0
        assert kernel_multiplier(spec, hi + 1) == 0
        assert kernel_multiplier(spec, lo) != 0
        assert kernel_multiplier(spec, hi) != 0


def test_kernel_coeffs_agree_with_multiplier():
    spec = vallee_poussin(3)
    lo, hi = kernel_support(spec)
    kc = convolve(LaurentPolynomial(lo, np.ones(hi - lo + 1)), spec)
    assert (kc.lo, kc.hi) == (lo, hi)
    for j in range(kc.lo, kc.hi + 1):
        assert kc.coefficient(j) == float(kernel_multiplier(spec, j))


def test_convolve_picks_multipliers():
    f = LaurentPolynomial(0, [1.0, 0.0, 0.0, 1.0])  # 1 + z^3
    g = convolve(f, vallee_poussin(1))
    assert g.lo == 3 and g.hi == 3
    assert g.coefficient(3) == 0.5
    h = convolve(f, dirichlet(2))
    assert h.lo == 0 and h.hi == 0 and h.coefficient(0) == 1.0


def test_convolve_laurent_clipping():
    f = LaurentPolynomial(-2, [5.0, 0.0, 1.0, 2.0])  # 5 z^-2 + 1 + 2 z
    g = convolve(f, modified_v(1))  # plateau on |j| <= 1, zero at |j| >= 2
    assert g.lo == 0 and g.coefficient(0) == 1.0 and g.coefficient(1) == 2.0
    assert convolve(LaurentPolynomial.zero(), modified_v(1)).is_zero


def test_convolve_dyadic_linearity_exact():
    # dyadic coefficients and dyadic multipliers: float arithmetic is exact
    rng = np.random.default_rng(3)
    ca = rng.integers(-16, 17, size=9) / 8.0
    cb = rng.integers(-16, 17, size=9) / 4.0
    spec = vallee_poussin(2)
    lhs = convolve(LaurentPolynomial(0, ca + cb), spec)
    parts = (convolve(LaurentPolynomial(0, c), spec) for c in (ca, cb))
    rhs = sum(np.array([p.coefficient(j) for j in range(9)]) for p in parts)
    assert np.array_equal([lhs.coefficient(j) for j in range(9)], rhs)
    assert lhs.lo == np.flatnonzero(rhs)[0]


def test_dirichlet_idempotent():
    rng = np.random.default_rng(4)
    f = LaurentPolynomial(0, rng.standard_normal(12))
    once = convolve(f, dirichlet(5))
    twice = convolve(once, dirichlet(5))
    assert np.array_equal(once.coeffs, twice.coeffs) and once.lo == twice.lo


# ---------------------------------------------------------- nesting identity


def test_identity_holds_in_claimed_range():
    for k, n in [(0, 1), (0, 7), (1, 2), (2, 4), (2, 9), (3, 8), (4, 16), (5, 40)]:
        assert kernel_identity_vk_vpn(k, n)


def test_identity_outside_claimed_range_raises():
    with pytest.raises(KernelDomainError):
        kernel_identity_vk_vpn(3, 4)
    with pytest.raises(KernelDomainError):
        kernel_identity_vk_vpn(1, 0)
    with pytest.raises(KernelDomainError):
        kernel_identity_vk_vpn(-1, 4)


def test_identity_window_matches_the_full_window():
    # the oracle checks |j| <= max(2^k, 2n) = 2n, where the function checks
    # |j| <= 2^k: the rows of vk hold modified_v(k)'s numerators on
    # |j| <= 2 top, and each n reads their middle 4n + 1 entries
    top = 4096
    js = np.arange(-2 * top, 2 * top + 1, dtype=np.int64)
    vk = np.array([_multiplier_scaled(modified_v(k), js)[0]
                   for k in range(top.bit_length())])
    for n in range(1, top + 1):
        window = slice(2 * (top - n), 2 * (top + n) + 1)
        num_vp, den_vp = _multiplier_scaled(modified_vp(n), js[window])
        ks = range(n.bit_length())  # every k with 2^k <= n
        full = np.all(vk[: len(ks), window] * (num_vp - den_vp) == 0, axis=1)
        assert [kernel_identity_vk_vpn(k, n) for k in ks] == full.tolist()


def test_identity_matches_fraction_arithmetic():
    # brute-force oracle in exact rationals
    for k, n in [(1, 3), (2, 4), (3, 11)]:
        vk, vpn = modified_v(k), modified_vp(n)
        ok = all(
            kernel_multiplier(vk, j) * kernel_multiplier(vpn, j) == kernel_multiplier(vk, j)
            for j in range(-2 * (2 * n), 2 * (2 * n) + 1)
        )
        assert kernel_identity_vk_vpn(k, n) == ok


# ------------------------------------------------------------------- norms


def test_sup_norm_monomial_and_binomials():
    assert abs(sup_norm(LaurentPolynomial(5, [1.0])) - 1.0) < 1e-12
    assert abs(sup_norm(LaurentPolynomial(0, [1.0, 1.0])) - 2.0) < 1e-12
    assert abs(sup_norm(LaurentPolynomial(0, [1.0, 0.0, -1.0])) - 2.0) < 1e-12
    assert sup_norm(LaurentPolynomial.zero()) == 0.0


def test_sup_norm_laurent_rotation_invariance():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    f = LaurentPolynomial(-4, c)
    # multiplying coefficients by e^{ij a} rotates the argument; sup unchanged
    a = 0.831
    rot = c * np.exp(1j * a * np.arange(-4, 6))
    g = LaurentPolynomial(-4, rot)
    assert abs(sup_norm(f) - sup_norm(g)) < 1e-9


def test_sup_norm_certified_brackets_dense_scan():
    rng = np.random.default_rng(17)
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    f = LaurentPolynomial(0, c)
    dense = np.max(np.abs(f(np.exp(2j * np.pi * np.arange(200003) / 200003))))
    got = sup_norm_certified(f)
    assert got.value <= got.upper
    # the dense scan lower-bounds the sup to within pi*span/M relative slack
    assert dense <= got.upper * (1 + 1e-12)
    assert got.value >= dense * (1 - 1e-6)
    assert got.value <= dense * (1 + np.pi * f.span / 200003)


def test_sup_norm_oversample_validation():
    with pytest.raises(ValueError):
        sup_norm(LaurentPolynomial(0, [1.0]), oversample=2)


def test_lp_norm_parseval():
    f = LaurentPolynomial(2, [3.0])
    assert lp_norm(f, 2) == 3.0
    g = LaurentPolynomial(-1, [3.0, 4.0])
    assert abs(lp_norm(g, 2) - 5.0) < 1e-12


def test_lp_norm_mean_modulus():
    # (2 pi)^-1 integral |1 + e^(i t)| dt = 4 / pi
    f = LaurentPolynomial(0, [1.0, 1.0])
    assert abs(lp_norm(f, 1) - 4.0 / np.pi) < 1e-4


def test_lp_norm_quadrature_against_dense_oracle():
    rng = np.random.default_rng(23)
    f = LaurentPolynomial(0, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    t = 2.0 * np.pi * (np.arange(400001) + 0.5) / 400001
    oracle = np.mean(np.abs(f(np.exp(1j * t))))
    assert abs(lp_norm(f, 1) - oracle) < 1e-6 * max(1.0, oracle)


def test_lp_norm_inf_and_bad_p():
    f = LaurentPolynomial(0, [1.0, 1.0])
    assert abs(lp_norm(f, np.inf) - sup_norm(f)) < 1e-12
    with pytest.raises(ValueError):
        lp_norm(f, 3)


def test_norm_comparisons():
    rng = np.random.default_rng(31)
    f = LaurentPolynomial(0, rng.standard_normal(9))
    n1, n2, ninf = lp_norm(f, 1), lp_norm(f, 2), lp_norm(f, np.inf)
    assert n1 <= n2 * (1 + 1e-9) <= ninf * (1 + 1e-9)


# ----------------------------------------------------------- besov seminorm


def test_besov_monomial_weights():
    # each monomial z^m is captured by every window whose multiplier at m is 1
    assert abs(besov_seminorm(LaurentPolynomial(0, [1.0]), 1.0, np.inf) - 1.0) < 1e-12
    assert abs(besov_seminorm(LaurentPolynomial(2, [1.0]), 1.0, np.inf) - 2.0) < 1e-12
    # z^4 peaks in window 2 (weight 4) and appears half-weighted elsewhere
    assert abs(besov_seminorm(LaurentPolynomial(4, [1.0]), 1.0, np.inf) - 4.0) < 1e-12


def test_besov_matches_fraction_oracle():
    rng = np.random.default_rng(41)
    c = rng.integers(-8, 9, size=13).astype(float)
    f = LaurentPolynomial(0, c)
    s = 1.5
    best = 0.0
    n = 0
    while (1 << max(n - 1, 0)) <= 12 + 1:
        spec = vallee_poussin(n)
        block = [float(kernel_multiplier(spec, j)) * c[j] for j in range(13)]
        block_poly = LaurentPolynomial(0, block)
        if not block_poly.is_zero:
            best = max(best, 2.0 ** (n * s) * sup_norm(block_poly))
        n += 1
    assert abs(besov_seminorm(f, s, np.inf) - best) < 1e-9 * max(best, 1.0)


def test_besov_rejects_laurent_input():
    with pytest.raises(ValueError):
        besov_seminorm(LaurentPolynomial(-1, [1.0, 1.0]), 1.0, np.inf)
    assert besov_seminorm(LaurentPolynomial.zero(), 1.0, np.inf) == 0.0




def test_certified_grid_doubles_to_its_bound_and_refuses_past_the_cap():
    # bound(m) = 2^-m / 64: the first power of two from 5 up with
    # bound <= 2^-30 is 32; a cap of 16 refuses with the bound there
    seen = []

    def bound(m):
        seen.append(m)
        return 2.0 ** -m / 64

    assert _certified_grid(5, bound, 2.0 ** -30, 1 << 20, ValueError) == (
        32, 2.0 ** -38)
    assert seen == [8, 16, 32]
    with pytest.raises(ValueError) as info:
        _certified_grid(5, bound, 2.0 ** -30, 16, ValueError)
    assert info.value.args == (2.0 ** -22,)
    # a start past the cap is kept where its bound holds
    assert _certified_grid(64, bound, 2.0 ** -30, 16, ValueError)[0] == 64
