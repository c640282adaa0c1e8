import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from szego_lab.xlinalg import (
    _GUARD_BITS,
    PRECISION_BITS,
    HermitianMatrix,
    NotPositiveDefinite,
    PrecisionTag,
    constrained_max_leading,
    context,
    next_tag,
    schur_leading,
    _cholesky_fixed,
    _circle_nodes,
    _dot,
    _fixed,
    _horner,
    _quotient_series,
    _rdiv,
    _reflect,
    _round_bits,
    _to_float,
    _to_mpc,
    _to_mpf,
)


def fixed_pair(z, f: int) -> tuple:
    """The mpc z times 2^f, each part rounded to an integer by _fixed: how
    the tests bring mpc values into the fixed point."""
    re, im = z._mpc_
    return _fixed(re, f), _fixed(im, f)


def trusted(cols, bits):
    """HermitianMatrix at bits of the mpc columns cols (cols[k][j] the (j, k)
    entry), the lower triangle taken exactly as given, at the least exponent
    of its parts: neither rounded to bits nor checked, so the entries may be
    finer than the tag, and bits need not be a tag."""
    n = len(cols)
    parts = [[cols[k][j]._mpc_ for k in range(j + 1)] for j in range(n)]
    e = min((p[2] for row in parts for z in row for p in z if p[1]), default=0)
    return HermitianMatrix([[(_fixed(re, -e), _fixed(im, -e))
                             for re, im in row] for row in parts], e, bits)


def tagged(cols, bits=53):
    """trusted, with every entry first rounded to the tag bits, as the Gram
    builders round theirs; cols may hold floats, complexes or mpmath
    numbers."""
    ctx = context(bits)
    return trusted([[ctx.mpc(v) for v in col] for col in cols], bits)


def from_rows(rows, bits=53):
    """tagged, from the rows of a Hermitian matrix."""
    n = len(rows)
    return tagged([[rows[j][k] for j in range(n)] for k in range(n)], bits)


def identity(n, bits=53):
    return HermitianMatrix([[(int(j == k), 0) for k in range(j + 1)]
                            for j in range(n)], 0, bits)


def entry(g, j, k):
    """The (j, k) entry of g, exactly, as an mpc of context(g.bits)."""
    re, im = g.lower[j][k] if k <= j else g.lower[k][j]
    return _to_mpc(context(g.bits), re, im if k <= j else -im, g.exp)


def row(g, j) -> tuple:
    return tuple(entry(g, j, k) for k in range(g.dim))


def factor(g) -> tuple:
    """The Cholesky factor L, L L* = G, of _cholesky_fixed on g's integers:
    L = S^-1 L_A rounded to g's tag, mpc below the diagonal and mpf on it,
    row i holding the entries (i, 0..i).  Raises NotPositiveDefinite as
    _cholesky_fixed does."""
    res, ims, diag, scale = _cholesky_fixed(g.lower, g.exp, g.bits)
    ctx, f = context(g.bits), g.bits + _GUARD_BITS
    return tuple(
        tuple(_to_mpc(ctx, re, im, k_i - f) for re, im in zip(re_i, im_i))
        + (_to_mpf(ctx, l_ii, k_i - f),)
        for k_i, re_i, im_i, l_ii in zip(scale, res, ims, diag))


def solve_lower(l, b, bits):
    """Forward substitution for L y = b in mpc at bits."""
    ctx = context(bits)
    y = []
    for i in range(len(l)):
        s = ctx.fdot(l[i][:i], y) if i else ctx.mpc(0)
        y.append((ctx.mpc(b[i]) - s) / l[i][i])
    return y


def solve_upper_conj(l, y, bits):
    """Back substitution for L* x = y in mpc at bits: with solve_lower, the
    mpc oracle of the extremal witness's integer solve."""
    n = len(l)
    ctx = context(bits)
    x = [ctx.mpc(0)] * n
    for i in range(n - 1, -1, -1):
        s = ctx.fdot((ctx.conj(l[k][i]) for k in range(i + 1, n)),
                     (x[k] for k in range(i + 1, n)))
        x[i] = (ctx.mpc(y[i]) - s) / ctx.conj(l[i][i])
    return x


def frobenius_residual(g, l):
    """||L L* - G||_F / ||G||_F, measured 64 bits above the working tag."""
    n = g.dim
    ctx = context(g.bits + 64)
    num = ctx.mpf(0)
    den = ctx.mpf(0)
    for i in range(n):
        for j in range(n):
            m = min(i, j) + 1
            rec = ctx.fdot(l[i][:m], l[j][:m], conjugate=True)
            gij = ctx.mpc(entry(g, i, j))
            num += abs(rec - gij) ** 2
            den += abs(gij) ** 2
    return ctx.sqrt(num) / ctx.sqrt(den)


def oracle_cholesky(g):
    """Left-looking Cholesky in mpmath at the tag, one fdot per entry: the
    factorization the fixed-point kernel replaced, kept as its oracle.
    Returns the rows of L as factor does."""
    n = g.dim
    ctx = context(g.bits)
    rows = []
    for i in range(n):
        r = []
        for j in range(i):
            s = ctx.fdot(r[:j], rows[j][:j], conjugate=True) if j else ctx.mpc(0)
            r.append((entry(g, i, j) - s) / rows[j][j])
        s = ctx.fdot(r, r, conjugate=True) if r else ctx.mpf(0)
        pivot = ctx.re(entry(g, i, i) - s)
        if pivot <= 0:
            raise NotPositiveDefinite(i, pivot)
        r.append(ctx.sqrt(pivot))
        rows.append(tuple(r))
    return tuple(rows)


def random_pd(rng, n, bits, shift=None):
    """Gram of random complex rows plus a diagonal shift, mirrored exactly."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = a @ a.conj().T
    cols = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1):
            v = complex(g[j, k]) if j != k else g[j, j].real + (shift or n)
            cols[k][j] = v
            cols[j][k] = v.conjugate() if j != k else v
    return tagged(cols, bits)


def spread_pd(rng, n, bits, span):
    """random_pd scaled to D G D, D = diag(2^e_i) with e_i in [-span, span],
    so the diagonal spreads over 2^(+-2 span), as in a Laurent Gram matrix
    with masses off the circle."""
    g = random_pd(rng, n, bits)
    ctx = context(bits)
    e = [int(v) for v in rng.integers(-span, span + 1, n)]
    return tagged([[entry(g, j, k) * ctx.ldexp(1, e[j] + e[k])
                    for j in range(n)] for k in range(n)], bits)


# ---------------------------------------------------------------- structure


def test_precision_tag_validation():
    PrecisionTag(128)
    with pytest.raises(ValueError):
        PrecisionTag(64)
    assert next_tag(53) == 128 and next_tag(256) == 512
    assert next_tag(512) is None


@pytest.mark.parametrize("bits", PRECISION_BITS)
def test_identity_holds_tag_entries(bits):
    # the integer identity at each tag: its factor, both routes to the
    # leading coefficient and the witness are exact, each a number of the
    # tag's context
    g = identity(3, bits)
    l = factor(g)
    eta, wit = constrained_max_leading(g)
    values = [v for r in l for v in r] + list(wit) + [schur_leading(g), eta]
    assert all(v.context.prec == bits for v in values)
    assert l == ((1,), (0, 1), (0, 0, 1)) and wit == (0, 0, 1)
    assert schur_leading(g) == eta == 1


# ------------------------------------------------------------------ cholesky


def test_cholesky_identity_and_scalar():
    l3 = factor(identity(3))
    for i in range(3):
        for j in range(i + 1):
            want = 1.0 if i == j else 0.0
            assert l3[i][j] == want
    l1 = factor(from_rows([[4.0]]))
    assert l1 == ((2.0,),)


def test_cholesky_2x2_hand_oracle():
    # G = [[1, a], [conj(a), 1 + |a|^2]] factors as L = [[1, 0], [conj(a), 1]]
    a = 1.0 + 1.0j
    sq = (a * a.conjugate()).real  # exactly 2
    g = from_rows([[1.0, a], [a.conjugate(), 1.0 + sq]])
    l = factor(g)
    assert l[0][0] == 1.0
    assert l[1][0] == mp.mpc(a.conjugate())
    assert l[1][1] == 1.0


def test_cholesky_residual_contract():
    rng = np.random.default_rng(5)
    for bits in (53, 128, 256):
        for n in (4, 12, 25):
            g = random_pd(rng, n, bits)
            res = frobenius_residual(g, factor(g))
            assert res <= n * mp.mpf(2) ** (-bits + 8)


@pytest.mark.parametrize("bits", PRECISION_BITS)
def test_cholesky_matches_the_fdot_oracle(bits):
    # each factor entry l_ij agrees with the oracle's to 2^(8 - bits) of its
    # row's scale sqrt(g_ii), and L L* reproduces G to 2^(8 - bits) of
    # sqrt(g_ii g_jj), with the diagonal plain or spread over 2^(+-150)
    rng = np.random.default_rng(bits)
    ctx = context(bits + 64)
    tol = ctx.ldexp(1, 8 - bits)
    for n, span in ((3, 0), (12, 0), (24, 0), (12, 75), (24, 75)):
        g = spread_pd(rng, n, bits, span)
        got, want = factor(g), oracle_cholesky(g)
        root = [ctx.sqrt(ctx.re(entry(g, i, i))) for i in range(n)]
        for i in range(n):
            for j in range(i + 1):
                diff = abs(ctx.mpc(got[i][j]) - want[i][j])
                assert diff <= tol * root[i], (n, span, i, j)
                rec = ctx.fdot(got[i][:j + 1], got[j][:j + 1], conjugate=True)
                assert abs(rec - entry(g, i, j)) <= tol * root[i] * root[j], (n, span, i, j)


def test_not_positive_definite_pivot_index():
    with pytest.raises(NotPositiveDefinite) as e:
        factor(from_rows([[1.0, 2.0], [2.0, 1.0]]))
    assert e.value.pivot == 1
    with pytest.raises(NotPositiveDefinite) as e:
        factor(from_rows([[-1.0]]))
    assert e.value.pivot == 0
    with pytest.raises(NotPositiveDefinite) as e:
        factor(from_rows([[0.0]]))
    assert e.value.pivot == 0
    # the first failing pivot is 1, ahead of the negative diagonal at 2
    with pytest.raises(NotPositiveDefinite) as e:
        factor(from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]]))
    assert e.value.pivot == 1


def test_indefinite_raises_at_the_oracle_pivot():
    rng = np.random.default_rng(37)
    pivots = set()
    for bits in PRECISION_BITS:
        for _ in range(6):
            n = 12
            g = random_pd(rng, n, bits, shift=-float(rng.uniform(0.5, 2 * n)))
            with pytest.raises(NotPositiveDefinite) as want:
                oracle_cholesky(g)
            with pytest.raises(NotPositiveDefinite) as got:
                factor(g)
            assert got.value.pivot == want.value.pivot
            pivots.add(got.value.pivot)
    assert len(pivots) > 1


def test_pivot_below_the_resolution_raises():
    # [[1, 1], [1, 1 + d]] has the exact pivot d.  At 53 bits the kernel
    # works at 2^-85, so d = 2^-100 is below its resolution and raises,
    # while d = 2^-80 factors exactly; the entries are finer than the tag,
    # which the integer path keeps
    fine = context(128)
    one = fine.mpc(1)
    for d, fails in ((-100, True), (-80, False)):
        g = trusted([[one, one], [one, one + fine.ldexp(1, d)]], 53)
        if fails:
            with pytest.raises(NotPositiveDefinite) as e:
                factor(g)
            assert e.value.pivot == 1
        else:
            assert factor(g)[1][1] == mp.ldexp(1, d // 2)


def test_triangular_solves_roundtrip():
    rng = np.random.default_rng(8)
    g = random_pd(rng, 6, 128)
    l = factor(g)
    b = [complex(x, y) for x, y in rng.standard_normal((6, 2))]
    y = solve_lower(l, b, 128)
    x = solve_upper_conj(l, y, 128)
    # check G x = b by direct multiply
    with mp.workprec(128):
        for i in range(6):
            got = mp.fdot(row(g, i), x)
            assert abs(got - mp.mpc(b[i])) < mp.mpf(2) ** -100


# --------------------------------------------------------------- extremals


def test_schur_leading_examples():
    assert schur_leading(identity(4)) == 1.0
    v = schur_leading(from_rows([[1.3]]))
    assert abs(v - 1.0 / math.sqrt(1.3)) < 1e-15
    d = from_rows([[1.0, 0.0], [0.0, 4.0]])
    assert abs(schur_leading(d) - 0.5) < 1e-15


def test_constrained_max_leading_examples():
    eta, wit = constrained_max_leading(identity(2))
    assert abs(eta - 1.0) < 1e-15
    assert abs(wit[0]) < 1e-15 and abs(wit[1] - 1.0) < 1e-15
    eta, wit = constrained_max_leading(
        from_rows([[1.0, 0.0], [0.0, 4.0]]))
    assert abs(eta - 0.5) < 1e-15
    assert abs(wit[1] - 0.5) < 1e-15


@pytest.mark.parametrize("bits", PRECISION_BITS)
def test_witness_forward_solve_is_solve_lower(bits):
    # the integer witness against the mpc oracle, the factor's forward and
    # back substitutions at the tag (solve_lower, solve_upper_conj): eta
    # within 2^(2 - bits) relative and each coefficient v_i within
    # 2^(6 - bits) / sqrt(g_ii), its row's scale; on these matrices the
    # largest gaps seen are 1.9 ulp and 3.4 units
    rng = np.random.default_rng(61 + bits)
    ctx, wide = context(bits), context(bits + 64)
    for g in (random_pd(rng, 7, bits), spread_pd(rng, 12, bits, 75),
              random_toeplitz(rng, 9, bits, 1e-3)):
        l = factor(g)
        e_n = [ctx.mpc(0)] * (g.dim - 1) + [ctx.mpc(1)]
        x = solve_upper_conj(l, solve_lower(l, e_n, bits), bits)
        eta = ctx.sqrt(ctx.re(x[-1]))
        got_eta, got = constrained_max_leading(g)
        assert abs(wide.mpf(got_eta) - eta) <= eta * wide.ldexp(1, 2 - bits)
        assert got[-1] == got_eta
        for i, (v, xi) in enumerate(zip(got, x)):
            tol = wide.ldexp(1, 6 - bits) / wide.sqrt(wide.re(entry(g, i, i)))
            assert abs(wide.mpc(v) - xi / eta) <= tol, (g.dim, i)


def test_route_equivalence_random():
    rng = np.random.default_rng(21)
    for bits in PRECISION_BITS[:3]:
        for n in (2, 7, 19, 40):
            g = random_pd(rng, n, bits)
            s = schur_leading(g)
            eta, _ = constrained_max_leading(g)
            assert abs(s - eta) <= mp.mpf(2) ** (-bits // 2) * eta


def test_route_equivalence_5x5_at_256():
    rng = np.random.default_rng(23)
    g = random_pd(rng, 5, 256)
    s = schur_leading(g)
    eta, _ = constrained_max_leading(g)
    assert abs(s - eta) < 1e-12 * eta


def test_witness_feasibility_and_optimality():
    rng = np.random.default_rng(29)
    g = random_pd(rng, 9, 256)
    eta, wit = constrained_max_leading(g)
    with mp.workprec(256):
        quad = mp.fdot((mp.fdot(row(g, i), wit) for i in range(9)),
                       wit, conjugate=True)
        assert abs(quad - 1) < mp.mpf(2) ** -128
        assert abs(wit[-1] - eta) < mp.mpf(2) ** -128
        # pushing the leading coordinate past eta must break feasibility
        bumped = list(wit)
        bumped[-1] = bumped[-1] + mp.mpf("1e-3")
        quad2 = mp.fdot((mp.fdot(row(g, i), bumped) for i in range(9)),
                        bumped, conjugate=True)
        assert mp.re(quad2) > 1


def test_schur_monotone_under_span_growth():
    # Gram of (u_1..u_m, p) for nested m: enlarging the span can only
    # shrink the distance from p to it, so the reciprocal grows
    rng = np.random.default_rng(31)
    d = 12
    vecs = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    pivot = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    prev = None
    for m in range(1, 7):
        basis = [vecs[i] for i in range(m)] + [pivot]
        n = len(basis)
        cols = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1):
                v = complex(np.vdot(basis[k], basis[j]))  # <basis_j, basis_k>
                cols[k][j] = v
                cols[j][k] = v.conjugate()
        val = schur_leading(tagged(cols, 128))
        if prev is not None:
            assert val >= prev * (1 - mp.mpf(2) ** -60)
        prev = val


# ---------------------------------------------------------------- toeplitz


def random_toeplitz(rng, n, bits, shift=0.0, masses=None):
    """Hermitian Toeplitz G_jk = c_(j-k) with c_m = sum_i w_i e^(-i m t_i)
    + shift [m == 0], the moments of point masses on the circle (2n unless
    given): of rank min(n, masses) when shift = 0, so positive definite for
    shift > 0 and, with fewer masses than n, indefinite for shift < 0."""
    count = 2 * n if masses is None else masses
    t = rng.uniform(0, 2 * np.pi, count)
    w = rng.uniform(0.1, 1.0, count)
    c = [complex(np.sum(w * np.exp(-1j * m * t))) for m in range(n)]
    c[0] = c[0].real + shift
    cols = [[c[j - k] if j >= k else c[k - j].conjugate() for j in range(n)]
            for k in range(n)]
    return tagged(cols, bits)


def test_schur_leading_raises_on_an_indefinite_toeplitz():
    # shifted below zero, the moments of fewer point masses than rows make
    # an indefinite Toeplitz matrix; schur_leading raises at its first
    # failing pivot, which varies with the rank, and at the fixed pivots
    # of small examples
    rng = np.random.default_rng(43)
    pivots = set()
    for bits in PRECISION_BITS:
        for _ in range(6):
            n = 12
            g = random_toeplitz(rng, n, bits, -float(rng.uniform(0.01, 1.0)),
                                int(rng.integers(1, n)))
            with pytest.raises(NotPositiveDefinite) as e:
                schur_leading(g)
            pivots.add(e.value.pivot)
    assert len(pivots) > 1
    for rows, pivot in (([[-1.0]], 0), ([[0.0, 0.0], [0.0, 0.0]], 0),
                        ([[1.0, 2.0], [2.0, 1.0]], 1),
                        ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], 1)):
        with pytest.raises(NotPositiveDefinite) as e:
            schur_leading(from_rows(rows))
        assert e.value.pivot == pivot


def test_schur_leading_pivot_below_the_resolution_raises():
    # [[1, c], [conj(c), 1]], c = 1 - 2^-83 + i b, has the pivot
    # 1 - |c|^2 = 2^-82 - b^2 - 2^-166, and a quarter of it once scaled to
    # c_0 = 1/4.  At 53 bits the factor resolves 2^-85 of the scaled
    # matrix: b = 0 leaves about 2^-84 and factors, its isqrt good to
    # 2^-43 relative; b = 2^-41 - 2^-83 leaves about 2^-125, above zero
    # but below the resolution, and raises
    fine = context(128)
    one = fine.mpc(1)
    for b, fails in ((0, False), (fine.ldexp(1, -41) - fine.ldexp(1, -83), True)):
        c = fine.mpc(1 - fine.ldexp(1, -83), b)
        g = trusted([[one, fine.conj(c)], [c, one]], 53)
        if fails:
            with pytest.raises(NotPositiveDefinite) as e:
                schur_leading(g)
            assert e.value.pivot == 1
        else:
            want = 1 / fine.sqrt(fine.ldexp(1, -82) - fine.ldexp(1, -166))
            assert abs(schur_leading(g) - want) <= want * fine.ldexp(1, -42)


def test_escalation_is_explicit():
    # a matrix that defeats 53-bit factorization but yields at 128:
    # Gram of nearly parallel vectors separated at the 2^-30 scale
    eps = mp.mpf(2) ** -30
    with mp.workprec(300):
        g11 = mp.mpf(1)
        g12 = 1 - eps
        g22 = (1 - eps) ** 2 + eps ** 4
    rows = [[g11, g12], [g12, g22]]
    with pytest.raises(NotPositiveDefinite):
        factor(from_rows(rows, 53))
    bits = next_tag(53)
    l = factor(from_rows(rows, bits))
    assert len(l) == 2


# ------------------------------------------------------------- fixed point


def test_fixed_rounds_ties_up_and_negatives_by_magnitude():
    ctx = context(53)
    # 2.5, 3.5, -2.5 and -2.25 at 0 fractional bits: a tie rounds its
    # magnitude up, and the sign is applied after rounding
    assert [_fixed(ctx.mpf(x)._mpf_, 0) for x in (2.5, 3.5, -2.5, -2.25)] \
        == [3, 4, -3, -2]
    assert _fixed(ctx.mpf(0.375)._mpf_, 4) == 6  # exact
    assert _fixed(ctx.mpf(-0.375)._mpf_, 2) == -2  # -1.5 -> -2
    assert _fixed(ctx.mpf(0)._mpf_, 40) == 0


@pytest.mark.parametrize("bits", PRECISION_BITS)
def test_round_bits_is_the_tag_rounding(bits):
    # _round_bits keeps x at its own exponent with bits significant bits,
    # the value _to_mpf rounds it to (nearest, ties to even), on random
    # integers and on exact halfway cases, both signs
    ctx = context(bits)
    rng = random.Random(bits)
    xs = [rng.getrandbits(bits + rng.randrange(1, 300)) for _ in range(50)]
    # q 2^5 + 2^4 with q of bits bits lies halfway between two values
    xs += [(q << 5) + 16 for q in range(2 ** (bits - 1), 2 ** (bits - 1) + 4)]
    for x in xs + [-x for x in xs] + [0, 1, 2 ** bits - 1]:
        got = _round_bits(x, bits)
        m = abs(got)  # at most bits significant bits
        assert m == 0 or m.bit_length() - (m & -m).bit_length() < bits
        assert _to_mpf(ctx, got, -7) == _to_mpf(ctx, x, -7), x


@pytest.mark.parametrize("bits", PRECISION_BITS + (200,))
def test_to_float_is_float_of_to_mpf(bits):
    # one rounding to bits, then one to a double, as float(mpf) rounds: on
    # random integers over the whole double range and past it, on ties at
    # bits, on values past the double range directly or by rounding up to
    # 2^1024, and on values a nudge off a tie at 53 bits
    ctx = context(bits)
    rng = random.Random(bits)
    cases = []
    for _ in range(400):
        x = rng.getrandbits(rng.randrange(1, 1200))
        cases.append((x, rng.randrange(-1200 - x.bit_length(), 1100)))
    for q in range(2 ** (bits - 1), 2 ** (bits - 1) + 4):
        cases.append(((q << 5) + 16, -bits - 5))  # halfway at bits
    cases += [(1, 1024), (3, 5000), ((1 << 53) - 1, 971), ((1 << 60) - 1, 964)]
    # (m + 1/2) 2^-52 nudged by 2^-(bits + 62): one rounding to 53 bits
    # follows the nudge, but the rounding to bits first lands on the tie,
    # which goes to the even m
    nudged = [(m, nudge, ((2 * m + 1) << (bits + 10)) + nudge)
              for m in (2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1)
              for nudge in (1, -1)]
    cases += [(x, -bits - 63) for _, _, x in nudged]
    for x, e in cases:
        for v in (x, -x):
            assert _to_float(v, e, bits) == float(_to_mpf(ctx, v, e)), (v, e)
    assert _to_float(1, 1024, bits) == math.inf
    assert _to_float(-((1 << 60) - 1), 964, bits) == -math.inf
    for m, nudge, x in nudged:
        once = float(Fraction(x, 1 << (bits + 63)))
        twice = _to_float(x, -bits - 63, bits)
        assert twice == ((m + (m & 1)) * 2.0 ** -52 if bits > 53 else once)
        assert (twice != once) == (bits > 53 and (m & 1) == (nudge < 0))


def test_rdiv_rounds_to_nearest_with_ties_up():
    assert [_rdiv(a, 4) for a in (5, 6, 7, -5, -6, -7)] \
        == [1, 2, 2, -1, -1, -2]
    assert [_rdiv(a, 3) for a in (4, 5, -4, -5)] == [1, 2, -1, -2]
    assert _rdiv(10 ** 40 + 1, 10 ** 40) == 1
    rng = np.random.default_rng(3)
    for a, b in zip(rng.integers(-10 ** 9, 10 ** 9, 200),
                    rng.integers(1, 10 ** 6, 200)):
        q = _rdiv(int(a), int(b))
        assert abs(2 * (int(a) - q * int(b))) <= int(b)


def test_fixed_point_horner_and_reflection_against_mpmath():
    # the integer complex Horner rounds each step at f bits, so at f = 288
    # it agrees with a 512-bit mpmath Horner to about 2^-280
    f = 288
    ctx = context(512)
    rng = np.random.default_rng(5)
    coeffs = [ctx.mpc(complex(a, b)) for a, b in rng.standard_normal((40, 2))]
    pairs = [fixed_pair(c, f) for c in coeffs]
    for x in (ctx.mpc(0.3, -0.8), ctx.mpc(-1.1, 0.4), ctx.mpc(0.97, 0.2)):
        want = ctx.mpc(0)
        for c in reversed(coeffs):
            want = want * x + c
        got = _to_mpc(ctx, *_horner(pairs, fixed_pair(x, f), f), -f)
        assert abs(got - want) <= ctx.mpf(2) ** -270 * (1 + abs(want))
        refl = _to_mpc(ctx, *_reflect(fixed_pair(x, f), f), -f)
        assert abs(refl - 1 / ctx.conj(x)) <= ctx.mpf(2) ** (1 - f) * 4


def test_exact_dot_against_fdot():
    # _dot is exact, so rounded once it is fdot's correctly rounded sum
    ctx = context(128)
    f = 100
    rng = np.random.default_rng(9)
    a = [complex(u, v) for u, v in rng.standard_normal((50, 2))]
    b = [complex(u, v) for u, v in rng.standard_normal((50, 2))]
    ar, ai = zip(*(fixed_pair(ctx.mpc(z), f) for z in a))
    br, bi = zip(*(fixed_pair(ctx.mpc(z), f) for z in b))
    got = _to_mpc(ctx, *_dot(ar, ai, br, bi), -2 * f)
    wide = context(1024)
    want = wide.fdot([wide.mpc(z) for z in a], [wide.mpc(z) for z in b])
    assert got == ctx.mpc(want)
    assert abs(got - ctx.fdot([ctx.mpc(z) for z in a],
                              [ctx.mpc(z) for z in b])) \
        <= ctx.mpf(2) ** -120 * abs(want)
    assert _dot([], [], [], []) == (0, 0)


def reference_quotient_series(num, den, count, f):
    """a_k = (num_k 2^f - sum_(j=1..d) den_j a_(k-j)) / den_0 rounded to
    the nearest integer, halves up, in exact rationals: the recurrence as
    _quotient_series states it, with no shortcut."""
    a = []
    for k in range(count):
        xr, xi = num[k] if k < len(num) else (0, 0)
        xr, xi = xr * 2 ** f, xi * 2 ** f
        for j in range(1, min(k, len(den) - 1) + 1):
            (pr, pi), (ar, ai) = den[j], a[k - j]
            xr -= pr * ar - pi * ai
            xi -= pr * ai + pi * ar
        half = Fraction(1, 2)
        a.append((math.floor(Fraction(xr, den[0][0]) + half),
                  math.floor(Fraction(xi, den[0][0]) + half)))
    return a


@pytest.mark.parametrize("f", [85, 160, 288, 544])
def test_quotient_series_matches_the_plain_recurrence(f):
    # integer for integer, for den_0 a power of two (2^f, as in the
    # pipeline's series, and 2^(f-3)) or not, and d = 0..3: the shift that
    # a power of two takes rounds as the division does
    rng = random.Random(f)
    for d in range(4):
        for lead in (1 << f, 1 << (f - 3), 3 << (f - 2),
                     (1 << f) + 2 * rng.getrandbits(f - 8) + 1):
            # sum_j |den_j| < den_0: zero-free on the closed disk
            bound = lead // (4 * max(d, 1))
            den = [(lead, 0)] + [(rng.randint(-bound, bound),
                                  rng.randint(-bound, bound))
                                 for _ in range(d)]
            num = [(rng.randint(-1 << f, 1 << f), rng.randint(-1 << f, 1 << f))
                   for _ in range(rng.randint(1, d + 3))]
            for count in (1, 2, 37, 300):
                want = reference_quotient_series(num, den, count, f)
                assert _quotient_series(num, den, count, f) == want, (
                    d, lead, count)


@pytest.mark.parametrize("f", [85, 160, 288, 544])
def test_circle_nodes_come_in_exact_conjugate_pairs(f):
    # node G - q is node q conjugated, bit for bit, on every grid; each node
    # is within one unit of exp(2 pi i q / G), whichever way it was made;
    # a doubled grid's odd nodes and a direct grid give the same pairs
    ctx = context(f + 16)
    for size in (4, 8, 16, 64, 256, 1 << 12):
        nodes = _circle_nodes(size, 0, 1, f)
        assert len(nodes) == size
        for q in range(size):
            re, im = nodes[-q % size]
            assert nodes[q] == (re, -im), (size, q)
        for q in range(0, size, max(1, size // 64)):
            want = ctx.expjpi(ctx.mpf(2 * q) / size) * 2 ** f
            assert abs(nodes[q][0] - want.real) <= 1, (size, q)
            assert abs(nodes[q][1] - want.imag) <= 1, (size, q)
        if size > 4:
            assert _circle_nodes(size, 1, 2, f) == nodes[1::2]
            assert _circle_nodes(size // 2, 0, 1, f) == nodes[::2]
