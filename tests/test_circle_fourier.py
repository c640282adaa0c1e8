import numpy as np
import pytest
from fractions import Fraction

import szego_lab.circle_fourier as circle_fourier_module
from szego_lab.blaschke import _sampled_sups, build_corrector
from szego_lab.circle_fourier import (
    KernelDomainError,
    LaurentPolynomial,
    NonFiniteGridError,
    convolve,
    dirichlet,
    grid_nodes,
    kernel_identity_vk_vpn,
    kernel_multiplier,
    kernel_support,
    modified_v,
    modified_vp,
    sup_norm_certified,
    vallee_poussin,
    _besov_maxima,
    _certified_grid,
    _grid_max,
    _multiplier_scaled,
    _sup_grid,
)
from szego_lab.cli import generate_zeros


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


# every kind at indices 0-6, and one large index of each
KERNEL_SPECS = ([make(i) for make in (vallee_poussin, modified_v, modified_vp,
                                      dirichlet) for i in range(7)]
                + [vallee_poussin(12), modified_v(12), modified_vp(4095),
                   dirichlet(5000)])


def test_kernel_support_matches_multiplier():
    for spec in KERNEL_SPECS:
        lo, hi = kernel_support(spec)
        assert kernel_multiplier(spec, lo - 1) == 0
        assert kernel_multiplier(spec, hi + 1) == 0
        assert kernel_multiplier(spec, lo) != 0
        assert kernel_multiplier(spec, hi) != 0


def test_kernel_coeffs_agree_with_multiplier():
    # the trapezoid table against the exact per-kind oracle: the scaled
    # numerators the pipeline and the identity check use, and the floats
    # convolve applies
    for spec in KERNEL_SPECS:
        lo, hi = kernel_support(spec)
        js = np.arange(lo - 2, hi + 3)
        nums, den = _multiplier_scaled(spec, js)
        assert [Fraction(num, den) for num in nums.tolist()] == [
            kernel_multiplier(spec, j) for j in js.tolist()]
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
    for lo, c, want in ((5, [1.0], 1.0), (0, [1.0, 1.0], 2.0),
                        (0, [1.0, 0.0, -1.0], 2.0)):
        got = sup_norm_certified(LaurentPolynomial(lo, c)).value
        assert abs(got - want) < 1e-12
    assert sup_norm_certified(LaurentPolynomial.zero()).value == 0.0


def test_sup_norm_laurent_rotation_invariance():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    f = LaurentPolynomial(-4, c)
    # multiplying coefficients by e^{ij a} rotates the argument; sup unchanged
    a = 0.831
    rot = c * np.exp(1j * a * np.arange(-4, 6))
    g = LaurentPolynomial(-4, rot)
    assert abs(sup_norm_certified(f).value - sup_norm_certified(g).value) < 1e-9


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
    assert got.value <= dense * (1 + np.pi * (f.hi - f.lo) / 200003)


def test_sup_norm_certified_upper_covers_a_peak_between_nodes():
    # two peaks of degree 63 on the 1,024-node grid: the higher one, 64,
    # half-way between two nodes, the lower one, 63.936, on a node, where the
    # grid max and its Newton refinement stay; only the van der
    # Corput-Schaake factor lifts the upper above the true sup
    d, m = 63, 1024
    js = np.arange(d + 1)
    t1, t2 = (m / 4 + 0.5) * 2 * np.pi / m, (3 * m / 4) * 2 * np.pi / m
    c = np.exp(-1j * js * t1) + 0.999 * np.exp(-1j * js * t2)
    got = sup_norm_certified(LaurentPolynomial(0, c))
    padded = np.zeros(1 << 20, dtype=complex)
    padded[:d + 1] = c
    dense = float(np.max(np.abs(np.fft.ifft(padded, norm="forward"))))
    assert dense > 64.0
    assert got.value < 63.95 and got.value <= dense <= got.upper


def _one_full_fft(c, m):
    """The grid max and its first node from one m-point FFT of c."""
    padded = np.zeros(m, dtype=np.complex128)
    padded[: len(c)] = c
    av = np.abs(np.fft.ifft(padded, norm="forward"))
    k = int(np.argmax(av))
    return float(av[k]), k


@pytest.mark.parametrize("d, oversample, m", [
    (255, 16, 1 << 12),      # one FFT
    (3000, 16, 1 << 16),     # 16 cosets of one chunk
    (10000, 16, 1 << 18),    # 64 cosets of 3 folded chunks, the twist
                             # taken afresh at cosets 16, 32 and 48
    (10000, 4, 1 << 16),     # 3 folded chunks at the least oversample
    (1000, 64, 1 << 16),
    (40000, 4, 1 << 18),     # 10 folded chunks
])
def test_sup_grid_matches_one_full_fft(d, oversample, m, monkeypatch):
    # the coset grid max against one m-point FFT: the same best node and a
    # grid max within 1e-12, bit for bit where the grid is one FFT; then
    # value and upper against sup_norm_certified refined from that FFT's max
    rng = np.random.default_rng(d + oversample)
    c = (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) / np.sqrt(
        1.0 + np.arange(d + 1))
    f = LaurentPolynomial(0, c)
    assert _sup_grid(d, oversample) == m
    want_max, want_k = _one_full_fft(c, m)
    got_max, got_k = _grid_max(c, m)
    assert got_k == want_k
    assert abs(got_max - want_max) <= 1e-12 * want_max
    if m <= 1 << 12:
        assert got_max == want_max
    got = sup_norm_certified(f, oversample)
    monkeypatch.setattr(circle_fourier_module, "_grid_max", _one_full_fft)
    want = sup_norm_certified(f, oversample)
    assert abs(got.value - want.value) <= 1e-12 * want.value
    assert abs(got.upper - want.upper) <= 1e-12 * want.upper


def test_sup_grid_reports_a_nan_at_its_node(monkeypatch):
    # a NaN planted at node 7 of coset 5 of 16 is node 7 * 16 + 5 of the
    # 2^16-node grid, and is reported there, before any later coset's max
    rng = np.random.default_rng(3)
    c = rng.standard_normal(3001) + 1j * rng.standard_normal(3001)
    ifft = np.fft.ifft
    sizes = []

    def planted(x, *args, **kwargs):
        out = ifft(x, *args, **kwargs)
        if len(sizes) == 5:
            out[7] = np.nan
        sizes.append(len(x))
        return out

    monkeypatch.setattr(np.fft, "ifft", planted)
    with pytest.raises(NonFiniteGridError, match=f"at node {7 * 16 + 5}$"):
        _grid_max(c, 1 << 16)
    assert sizes == [1 << 12] * 6


@pytest.mark.parametrize("oversample", [4, 16, 64])
def test_sup_grid_ffts_hold_at_most_4096_nodes(oversample, monkeypatch):
    # every FFT the sup asks for is of at most 2^12 nodes, and together
    # they cover the grid once, for d up to 2^14
    ifft = np.fft.ifft
    sizes = []

    def recorded(x, *args, **kwargs):
        sizes.append(len(x))
        return ifft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recorded)
    rng = np.random.default_rng(oversample)
    for d in (0, 63, 255, 256, 4095, 4096, 1 << 14):
        sizes.clear()
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        sup_norm_certified(LaurentPolynomial(0, c), oversample)
        assert max(sizes) <= 1 << 12
        assert sum(sizes) == _sup_grid(d, oversample)


def test_sup_norm_oversample_validation():
    with pytest.raises(ValueError):
        sup_norm_certified(LaurentPolynomial(0, [1.0]), oversample=2)


def test_norm_comparisons():
    # mean |f| on a dense grid <= the L2 norm (Parseval) <= the sup
    rng = np.random.default_rng(31)
    f = LaurentPolynomial(0, rng.standard_normal(9))
    n1 = np.mean(np.abs(f(grid_nodes(4096))))
    n2 = np.sqrt(np.sum(np.abs(f.coeffs) ** 2))
    assert n1 <= n2 * (1 + 1e-9) <= sup_norm_certified(f).value * (1 + 1e-9)


# ----------------------------------------------------------- besov blocks


def _besov_blocks(f, oversample=16):
    """(n, sup |f * W_n|) for every dyadic window n with a nonzero block,
    every block's sup taken: the oracle _besov_maxima is held to.

    W_n is the vallee_poussin(n) trapezoid; the n=0 window is the multiplier
    carried by 1 + z.  Only analytic inputs (nonnegative exponents) are
    accepted.  Each block's sup is sup_norm_certified's value, at
    oversample grid nodes per coefficient.
    """
    if f.is_zero:
        return []
    if f.lo < 0:
        raise ValueError("besov blocks require nonnegative exponents")
    blocks = []
    n = 0
    while kernel_support(vallee_poussin(n))[0] <= f.hi:
        block = convolve(f, vallee_poussin(n))
        if not block.is_zero:
            blocks.append((n, sup_norm_certified(block, oversample).value))
        n += 1
    return blocks


def besov(f, s):
    """max over the dyadic windows n of 2^(n s) sup |f * W_n|, from every
    block's sup."""
    return max((2.0 ** (n * s) * v for n, v in _besov_blocks(f)), default=0.0)


def test_besov_monomial_weights():
    # each monomial z^m is captured by every window whose multiplier at m is 1
    assert abs(besov(LaurentPolynomial(0, [1.0]), 1.0) - 1.0) < 1e-12
    assert abs(besov(LaurentPolynomial(2, [1.0]), 1.0) - 2.0) < 1e-12
    # z^4 peaks in window 2 (weight 4) and appears half-weighted elsewhere
    assert abs(besov(LaurentPolynomial(4, [1.0]), 1.0) - 4.0) < 1e-12


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
            best = max(best, 2.0 ** (n * s)
                       * sup_norm_certified(block_poly).value)
        n += 1
    assert abs(besov(f, s) - best) < 1e-9 * max(best, 1.0)
    assert _besov_maxima(f, [s])[0][s] == besov(f, s)


def test_besov_rejects_laurent_input():
    with pytest.raises(ValueError):
        _besov_blocks(LaurentPolynomial(-1, [1.0, 1.0]))
    with pytest.raises(ValueError):
        _besov_maxima(LaurentPolynomial(-1, [1.0, 1.0]), [1])
    assert _besov_blocks(LaurentPolynomial.zero()) == []
    assert _besov_maxima(LaurentPolynomial.zero(), [1, 2]) == (
        {1: 0.0, 2: 0.0}, {"besov_blocks": 0, "besov_sups": 0})


def _assert_maxima_equal_the_oracle(f, orders):
    """_besov_maxima(f, orders) gives the all-blocks max, the same float,
    for each order, taking at most one sup per nonzero block."""
    blocks = _besov_blocks(f)
    maxima, counts = _besov_maxima(f, orders)
    for s in orders:
        assert maxima[s] == max((2.0 ** (n * s) * v for n, v in blocks),
                                default=0.0), s
    assert counts["besov_blocks"] == len(blocks)
    assert counts["besov_sups"] <= len(blocks)
    return counts


def _besov_cases(orders):
    """(orders, coefficients) of polynomials whose blocks' sups meet their
    l1 bounds, or nearly."""
    rng = np.random.default_rng(35)
    for _ in range(40):
        d = int(rng.integers(1, 1500))
        js = np.arange(d + 1)
        # all-positive: each block's sup is its l1 norm, at z = 1
        yield orders, rng.random(d + 1) + 0.01
        # one common phase: the sup is the l1 norm at a point of the circle
        yield orders, (rng.random(d + 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                       * 0.99 ** js)
        # random complex, decaying and growing
        z = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        yield orders, z * np.exp(-js * rng.uniform(0.0, 0.05))
        yield orders, z * (js + 1.0) ** rng.uniform(0.0, 3.0)
    for s in (1, 2, 3):
        for top in (3, 8, 11):
            # sparse monomials z^(2^k), one to a window, with coefficients
            # 2^(-k s): every weighted window ties at 1
            c = np.zeros((1 << top) + 1)
            c[1 << np.arange(top + 1)] = 2.0 ** (-s * np.arange(top + 1))
            yield (s,), c
            # and ties across windows: z^(3 2^(k-1)) sits in windows k and
            # k+1 at multipliers 1/2 and 1/2
            c = np.zeros(3 << top)
            c[3 << np.arange(top)] = 1.0
            yield (s,), c


@pytest.mark.parametrize("orders", [(1, 2, 3, 39), (0.5, 1.5)])
def test_besov_maxima_equal_the_oracle_on_polynomials(orders):
    for case_orders, c in _besov_cases(orders):
        _assert_maxima_equal_the_oracle(LaurentPolynomial(0, c), case_orders)


def test_besov_margin_keeps_a_block_whose_sup_passes_its_l1_norm():
    # positive coefficients on degrees 17..40, whose window-5 block, the
    # largest weighted, has a computed sup v above the float after its
    # computed l1 norm, and c z with c between the two, so 32 c also lies
    # between the weighted block's l1 norm and value.  c z is visited first
    # and sets the running max to 32 c: without the margin the block would
    # be passed over, and the max would be 32 c instead of 32 v
    for seed in range(400):
        c = np.zeros(41)
        c[17:] = np.random.default_rng(seed).random(24)
        block = convolve(LaurentPolynomial(0, c), vallee_poussin(5))
        l1 = float(np.abs(block.coeffs).sum())
        v = sup_norm_certified(block).value
        if v > np.nextafter(l1, np.inf):
            break
    else:
        pytest.fail("no block's computed sup passes its l1 norm by 2 ulps")
    c[1] = 32.0 * float(np.nextafter(l1, np.inf))  # window 0, weight 1
    f = LaurentPolynomial(0, c)
    counts = _assert_maxima_equal_the_oracle(f, (1,))
    assert _besov_maxima(f, (1,))[0][1] == 32.0 * v
    assert counts["besov_sups"] == 2


@pytest.mark.parametrize("kind", ["uniform_disk", "boundary_cluster",
                                  "radial_line"])
def test_besov_maxima_equal_the_oracle_on_sampled_series(kind):
    # the series the corrector certificate reads its Besov ratios from
    for n in (1, 4, 16, 64, 256):
        for eps in (1.0, 0.1):
            c = build_corrector(generate_zeros(kind, n, 1), eps)
            trunc = _sampled_sups(c, (0, 1, 2), 16)[0]
            _assert_maxima_equal_the_oracle(trunc, (1, 2, 3, 39))


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
