"""Extended-precision Hermitian linear algebra for Gram-matrix certificates.

Everything here but the last roundings runs in one fixed point on Python
integers: a real number x is the integer round(x 2^f) at f fractional bits,
a complex one a pair of them (real, imaginary).  Sums and products of such
integers are exact; a product goes back to f bits by a rounded shift, a
quotient by _rdiv or _cdiv, and a result to an mpmath number by one
rounding (_to_mpf, _to_mpc), or to a double by one rounding to a precision
and one to 53 bits (_to_float), as float() of that mpmath number would.
The helpers are shared with measure_opuc and the lower-bound pipeline
(asymptotics); their one recurrence, _quotient_series, gives the moments of
1/|psi|^2 as N/psi and the pipeline's series and norms.

A HermitianMatrix holds its lower triangle as integer pairs at one
exponent, each part rounded to a precision tag by the Gram builder that
made it; no matrix is read from mpmath numbers.  The one Cholesky
factorization of the package (Gram matrices and the closed form's Woodbury
system alike), _cholesky_fixed, scales G to S G S with S a diagonal of
powers of two, S_ii^2 g_ii in [1/4, 1), so every scaled entry and factor
entry has modulus below 1 (van der Sluis's scaling, within a factor 2),
and works at bits + 32 fractional bits; a pivot at or below 2^-(bits + 32)
of the scaled diagonal is not told apart from zero and raises
NotPositiveDefinite.  The constrained leading-coefficient extremal problem
has two routes on that factor, the tests' oracles: the factor's last pivot
(schur_leading) and the maximizer G^-1 e_N by a back substitution
(_extremal, constrained_max_leading).

Error radii ride beside the fixed point where a caller certifies a result:
a value's error in units of 2^-f as a float rounded up (_float_up, _mag,
_bound_err, _mul_err, _horner_err, _pow_err), the package's one (value,
radius) calculus.  A factor's own rounding is bounded a posteriori, from
the factor, by _schur_ball; a ball decides its rounding to a precision by
Ziv's test on integers (_ziv), whose result _to_mpf or _to_float rounds
exactly.

Precision is a value, not ambient state: context(bits) is the mpmath
context that rounds at bits, and every number keeps the context that made
it; _to_mpf and _to_mpc build theirs through the context they are given.
mpmath itself is imported only by context and by _circle_nodes' cos/sin,
so the fixed point and the doubles it rounds to load without it.  The
contexts are never mutated, so threads share them without a lock, and
nothing here reads or sets mpmath.mp's precision.  A failed pivot raises
NotPositiveDefinite with the pivot as a double; measure_opuc._certify
decides what runs next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import isqrt
from operator import mul
from typing import Sequence

from szego_lab.contract import PRECISION_BITS, NotPositiveDefinite

__all__ = [
    "PRECISION_BITS",
    "PrecisionTag",
    "context",
    "HermitianMatrix",
    "NotPositiveDefinite",
    "schur_leading",
    "constrained_max_leading",
]


@functools.lru_cache(maxsize=64)
def context(bits: int):
    """The shared mpmath context with prec = bits; callers must not mutate it.

    An evicted context stays valid for the numbers that hold it, and a new
    one at the same precision rounds identically.  mpmath is imported here
    and in _circle_nodes only, so the fixed point loads without it.
    """
    from mpmath import MPContext

    ctx = MPContext()
    ctx.prec = bits
    return ctx


@dataclass(frozen=True)
class PrecisionTag:
    bits: int

    def __post_init__(self):
        if self.bits not in PRECISION_BITS:
            raise ValueError(f"bits must be one of {PRECISION_BITS}")


class HermitianMatrix:
    """Hermitian matrix at a precision tag, in fixed point.

    lower[j][k], k <= j, is the (j, k) entry as an integer pair times 2^exp,
    each part rounded to bits significant bits, and the (k, j) entry is its
    conjugate: Hermitian by construction.  The Gram builders hand it their
    integers, already rounded to the tag; it holds them as given.
    """

    __slots__ = ("dim", "lower", "exp", "bits")

    def __init__(self, lower: list, exp: int, bits: int):
        self.dim, self.lower, self.exp, self.bits = len(lower), lower, exp, bits


# ----------------------------------------------------------------------
# fixed point on Python integers (see the module docstring)

# fractional bits of the fixed point beyond the precision of its results
_GUARD_BITS = 32


def _fixed(part: tuple, shift: int) -> int:
    """The mpf tuple part times 2^shift, rounded to an integer, ties away
    from zero."""
    sign, man, exp, _ = part
    return _round_away(-man if sign else man, exp + shift)


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, halves up, for b != 0."""
    return (2 * a + b) // (2 * b)


def _rdiv_sqrt(a: int, b: int) -> int:
    """a / sqrt(b) rounded to the nearest integer, for b > 0, by one isqrt."""
    k = (isqrt((a * a << 2) // b) + 1) // 2
    return k if a >= 0 else -k


def _dot(ar: Sequence, ai: Sequence, br: Sequence, bi: Sequence) -> tuple:
    """sum_k a_k b_k, exactly, for complex integer vectors a and b given
    by their real and imaginary parts."""
    return (sum(map(mul, ar, br)) - sum(map(mul, ai, bi)),
            sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))


def _horner(coeffs: Sequence, x: tuple, f: int) -> tuple:
    """sum_j c_j x^j for integer pairs at f fractional bits, c_0 first, by
    Horner's rule with each step rounded to f bits."""
    half = 1 << (f - 1)
    xr, xi = x
    pr, pi = coeffs[-1]
    for cr, ci in coeffs[-2::-1]:
        pr, pi = ((pr * xr - pi * xi + (cr << f) + half) >> f,
                  (pr * xi + pi * xr + (ci << f) + half) >> f)
    return pr, pi


def _quotient_series(num: Sequence, den: Sequence, count: int,
                     f: int) -> list:
    """The first count Taylor coefficients of num/den, polynomials given as
    integer pairs at f fractional bits, constant first; den_0 > 0 and den
    is zero-free on the closed disk.  a_k = (num_k - sum_(j=1..d) den_j
    a_(k-j)) / den_0, the sum exact and a_k rounded once: stable, as the
    characteristic roots, the reciprocals of den's roots, lie in the disk.
    A den_0 of 2^s, s >= 1 (2^f for a monic den), divides by a rounded
    shift, the same integer as _rdiv's.
    """
    d = len(den) - 1
    rev = den[:0:-1]  # den_d, ..., den_1
    d0 = den[0][0]
    s = d0.bit_length() - 1
    shift = s > 0 and d0 == 1 << s
    half = 1 << (s - 1) if shift else 0
    a_re, a_im = [0] * d, [0] * d  # d leading zeros: a_(-d)..a_(-1)
    for k in range(count):
        nr, ni = num[k] if k < len(num) else (0, 0)
        nr <<= f
        ni <<= f
        if d:
            for (pr, pi), xr, xi in zip(rev, a_re[k:], a_im[k:]):
                nr -= pr * xr - pi * xi
                ni -= pr * xi + pi * xr
        if shift:
            a_re.append((nr + half) >> s)
            a_im.append((ni + half) >> s)
        else:
            a_re.append(_rdiv(nr, d0))
            a_im.append(_rdiv(ni, d0))
    return list(zip(a_re[d:], a_im[d:]))


def _dyadic(x: float, f: int) -> int:
    """The double x times 2^f, for any integer f, rounded to an integer:
    exact whenever the last bit of x is at or above 2^-f (x is dyadic)."""
    p, q = x.as_integer_ratio()
    return _rdiv(p << max(f, 0), q << max(-f, 0))


def _shift(x: int, s: int) -> int:
    """x 2^s rounded to an integer, ties up."""
    return x << s if s >= 0 else (x + (1 << (-s - 1))) >> -s


def _round_away(x: int, s: int) -> int:
    """x 2^s rounded to an integer, ties away from zero, as _fixed rounds
    the mpf x 2^e to e + s fractional bits."""
    v = _shift(abs(x), s)
    return -v if x < 0 else v


def _round_bits(x: int, bits: int) -> int:
    """x rounded to bits significant bits, nearest with ties to even, kept
    at x's own exponent: the value _to_mpf rounds x 2^e to at bits."""
    m = abs(x)
    drop = m.bit_length() - bits
    if drop <= 0:
        return x
    q, r, half = m >> drop, m & ((1 << drop) - 1), 1 << (drop - 1)
    q = (q + (r > half or r == half and q & 1)) << drop
    return -q if x < 0 else q


def _ziv(x: int, r: int, bits: int) -> int | None:
    """The integer that every point of the ball x +- r rounds to at bits
    significant bits (_round_bits), kept at x's exponent, for integers
    x > 0 and r >= 0: None where the ball reaches 0 or its ends round apart
    (Ziv's test)."""
    top = _round_bits(x + r, bits)
    return top if r < x and top == _round_bits(x - r, bits) else None


def _to_float(x: int, e: int, bits: int) -> float:
    """x 2^e rounded once to bits significant bits and that once to a
    double, each nearest with ties to even, as float(_to_mpf(context(bits),
    x, e)) rounds it; +-inf past the float range."""
    m = _round_bits(_round_bits(x, bits), 53)
    cut = max(abs(m).bit_length() - 53, 0)  # m's low cut bits are zero
    try:
        return math.ldexp(m >> cut, e + cut)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _cmul(a: tuple, b: tuple, f: int) -> tuple:
    """a b for pairs at f fractional bits, each part rounded once."""
    half = 1 << (f - 1)
    return ((a[0] * b[0] - a[1] * b[1] + half) >> f,
            (a[0] * b[1] + a[1] * b[0] + half) >> f)


def _cpow(x: tuple, e: int, f: int) -> tuple:
    """x^e for a pair at f fractional bits and e >= 0, by binary powering,
    each product rounded once as in _cmul."""
    half = 1 << (f - 1)
    xr, xi = x
    pr, pi = 1 << f, 0
    while e:
        if e & 1:
            pr, pi = ((pr * xr - pi * xi + half) >> f,
                      (pr * xi + pi * xr + half) >> f)
        e >>= 1
        if e:
            xr, xi = (xr * xr - xi * xi + half) >> f, (2 * xr * xi + half) >> f
    return pr, pi


def _cdiv(a: tuple, b: tuple, s: int) -> tuple:
    """a 2^s / b for integer pairs, b nonzero, each part rounded once: for
    a and b at f fractional bits, s = f gives the quotient at f."""
    (ar, ai), (br, bi) = a, b
    den = br * br + bi * bi
    return (_rdiv((ar * br + ai * bi) << s, den),
            _rdiv((ai * br - ar * bi) << s, den))


def _reflect(x: tuple, f: int) -> tuple:
    """1/conj(x) = x/|x|^2 for a nonzero pair at f fractional bits, each
    part rounded once."""
    return _cdiv((1 << f, 0), (x[0], -x[1]), f)


def _circle_nodes(size: int, start: int, step: int, f: int) -> list:
    """exp(2 pi i p / size) for p = start, start + step, ... below size, as
    integer pairs at f fractional bits; size is a power of two and step
    divides size/4.

    Each node q <= size/8 is evaluated at f + 4 bits and rounded once; a
    node p of the first quadrant past size/8 is node q = size/4 - p with its
    parts swapped, cos and sin of the complementary angle, and node
    p + j size/4 is a first-quadrant node times i^j, an exact swap and
    negation.  So node size - p is exactly the conjugate of node p.  The
    value depends only on p/size, so every grid that holds a node gives the
    same pair.
    """
    from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, round_nearest

    quarter = size // 4
    scale = size.bit_length() - 2  # 2p/size = p 2^-scale
    direct = {}  # q <= size/8 -> (cos, sin) of 2 pi q / size
    first = []
    for p in range(start, quarter, step):
        q = min(p, quarter - p)
        if q not in direct:
            c, s = mpf_cos_sin_pi(from_man_exp(q, -scale), f + 4, round_nearest)
            direct[q] = _fixed(c, f), _fixed(s, f)
        c, s = direct[q]
        first.append((c, s) if q == p else (s, c))
    return (first + [(-im, re) for re, im in first]
            + [(-re, -im) for re, im in first] + [(im, -re) for re, im in first])


# ----------------------------------------------------------------------
# error radii of the fixed point: a value's error in units of 2^-f beside
# it, as a float that every step rounds up (to within the floats' own
# rounding, which each caller covers by a factor 1 + 2^-20)


def _float_up(x: int, e: int) -> float:
    """x 2^e for an integer x >= 0, rounded up to a float; inf past the
    float range."""
    shift = max(x.bit_length() - 53, 0)
    try:
        return math.ldexp((x >> shift) + 1, e + shift)
    except OverflowError:
        return math.inf


def _scale_up(x: float, e: int) -> float:
    """x 2^e for a float x >= 0; inf past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _mag(a: tuple, f: int) -> float:
    """|a| for a pair at f fractional bits, rounded up to a float."""
    return _float_up(isqrt(a[0] * a[0] + a[1] * a[1]) + 1, -f)


def _mags(pairs: Sequence, f: int) -> list:
    """|a| for each pair a at f fractional bits, moduli below 2^900, as
    floats rounded up to within the floats' own rounding: each part is cut
    to its bits above 2^-62 and one unit of them added, cheaper than _mag's
    isqrt where many small moduli are read."""
    cut = max(f - 62, 0)
    unit = math.ldexp(1.0, cut - f)
    return [math.hypot((abs(re) >> cut) + 1, (abs(im) >> cut) + 1) * unit
            for re, im in pairs]


def _bound_err(ma: float, ea: float, mb: float, eb: float, f: int) -> float:
    """The error of _cmul(a, b, f) against the exact product, in units of
    2^-f, for pairs a and b within ea and eb units of exact values A and B
    with |a| <= ma and |b| <= mb: |a b - A B| <= |a| eb + |B| ea <=
    ma eb + mb ea + ea eb 2^-f, plus the rounding's unit (each part rounded
    to within half a unit)."""
    return ma * eb + mb * ea + math.ldexp(ea * eb, -f) + 1.0


def _mul_err(a: tuple, ea: float, b: tuple, eb: float, f: int) -> float:
    """_bound_err with the moduli read from the pairs a and b."""
    return _bound_err(_mag(a, f), ea, _mag(b, f), eb, f)


def _horner_err(coeffs: Sequence, x: tuple, ex: float, f: int,
                ec: float = 1.0) -> tuple:
    """(_horner(coeffs, x, f), its error in units of 2^-f) for coefficients
    each within ec units (one by default) and x within ex units of the
    exact ones: a Horner step is one rounded product (_mul_err) plus a
    coefficient."""
    acc, err = coeffs[-1], ec
    for cr, ci in coeffs[-2::-1]:
        err = _mul_err(acc, err, x, ex, f) + ec
        pr, pi = _cmul(acc, x, f)
        acc = pr + cr, pi + ci
    return acc, err


def _pow_err(ex: float, e: int, rho: float, f: int) -> float:
    """The error of _cpow(x, e, f) in units of 2^-f, for x within ex units
    of an exact X with |X| <= rho <= 1: x's own error gives
    e rho^(e-1) ex, every rounded product (fewer than 2 bitlen(e)) at most
    one unit, carried on by factors of modulus at most 1, and each product
    of two errors (_bound_err) at most E^2 2^-f for the first-order total E.
    """
    if e == 0:
        return 0.0
    steps = 2 * e.bit_length()
    big = e * rho ** (e - 1) * ex + steps
    return big + steps * math.ldexp(big * big, -f)


def _to_mpf(ctx, x: int, e: int):
    """x 2^e rounded once to an mpf of ctx (nearest, at ctx.prec)."""
    return ctx.mpf((x, e))


def _to_mpc(ctx, re: int, im: int, e: int):
    """(re + i im) 2^e, each part rounded once, as an mpc of ctx."""
    return ctx.mpc(ctx.mpf((re, e)), ctx.mpf((im, e)))


# ----------------------------------------------------------------------
# factorizations


def _balance(d: int, e: int) -> int:
    """The k with d 2^e 2^(-2k) in [1/4, 1), for an integer d > 0: the
    equilibration of a diagonal entry d 2^e."""
    return (e + d.bit_length() + 1) // 2


def _cholesky_fixed(lower: Sequence, e: int, bits: int) -> tuple:
    """The Cholesky factor L_A of A = S G S, on integers, for the Hermitian
    G whose lower triangle lower holds pairs times 2^e (of the diagonal
    only the real part is read).

    S = diag(2^-k_i) puts a_ii in [1/4, 1); row i of A is read as it is
    reached, a_ij = g_ij 2^(f - k_i - k_j) at f = bits + 32 fractional bits
    and a_ii at 2f, each rounded once, ties away from zero.  Then
    l_ij = (a_ij - sum_(m<j) l_im conj(l_jm)) / l_jj and
    l_ii = sqrt(a_ii - sum_(m<i) |l_im|^2), each sum exact and rounded once.
    Returns (re, im, diag, scale): per row the parts of l_i0..l_i(i-1) and
    l_ii at f, and the k_i.  Raises NotPositiveDefinite at the first row
    whose diagonal entry is <= 0 or whose pivot is at or below 2^-f.
    """
    f = bits + _GUARD_BITS
    res, ims, cims, diag, scale = [], [], [], [], []  # cims: -ims, for conj
    for i, row in enumerate(lower):
        d = row[i][0]
        if d <= 0:
            raise NotPositiveDefinite(i, _to_float(d, e, bits))
        k_i = _balance(d, e)
        re_i, im_i = [], []
        for j, ((a_re, a_im), k_j) in enumerate(zip(row, scale)):
            # (a_ij 2^f) 2^f - sum_m l_im conj(l_jm) 2^(2f)
            s = e + f - k_i - k_j
            d_re, d_im = _dot(re_i, im_i, res[j], cims[j])
            re_i.append(_rdiv((_round_away(a_re, s) << f) - d_re, diag[j]))
            im_i.append(_rdiv((_round_away(a_im, s) << f) - d_im, diag[j]))
        pivot = (_round_away(d, e + 2 * f - 2 * k_i)
                 - sum(map(mul, re_i, re_i)) - sum(map(mul, im_i, im_i)))
        if pivot <= 1 << f:
            raise NotPositiveDefinite(
                i, _to_float(pivot, 2 * k_i - 2 * f, bits))
        res.append(re_i)
        ims.append(im_i)
        cims.append([-v for v in im_i])
        diag.append(isqrt(pivot))
        scale.append(k_i)
    return res, ims, diag, scale


def _schur_ball(factor: tuple, radius: Sequence, bits: int):
    """A certified bound, a posteriori, on what the last pivot of a
    _cholesky_fixed factor and the back substitution from it miss, in O(N^3)
    floats; None where the bound cannot tell.

    factor is (re, im, diag, scale) of A = S G S at f = bits + 32, and
    radius[i][j], j <= i, bounds |A_ij - A'_ij| in units of 2^-f for the
    exact matrix A' that G's entries stand for, scaled as A is.  The
    factor's own product M = L L^H is then within radius + 2 units of A'
    entrywise (Delta): a_ij is rounded within 1/sqrt(2) of a unit, each
    quotient l_ij leaves l_jj / sqrt(2), and each isqrt under 2 l_ii.  Split
    M = [[S, c], [c^H, m]] at its last coordinate; the Schur complement
    sigma = m - c^H S^-1 c is min over w of (w, 1)^H M (w, 1), reached at
    w* = -S^-1 c = -L_S^-H l (l the factor's last row), and is l_NN^2.

    With v >= |(w*, 1)| entrywise, R = radius + 2, mu <= lambda_min(S) and
    rho >= ||R||: comparing the two minima gives
    |sigma' - sigma| <= v^T R v + ||R v||^2 2^-f / (mu - rho 2^-f) = eps,
    and w' - w* = S'^-1 (Delta (w*, 1))_S gives
    ||w' - w*|| <= ||R v|| / (mu - rho 2^-f) = delta, in units of 2^-f.
    The comparison matrix of L_S has an inverse N >= |L_S^-1| entrywise,
    by a forward substitution on nonnegative numbers, so |w*| <= N^T |l|,
    mu = 1 / ||N||_F^2 and rho = ||R||_F.  A back substitution from e_N
    (_extremal_of_factor) leaves residuals within one unit, which move
    w* by at most (N^T 1)_i / x_N units.  Returns (eps, w, delta, cols), w
    bounding |w*| and cols the column sums of N, or None unless
    mu > 2 rho 2^-f.  The floats are each within 2^-50 of a bound, which
    the caller's factor 1 + 2^-20 covers.
    """
    res, ims, diag, _ = factor
    f = bits + _GUARD_BITS
    n = len(diag) - 1
    inv: list = []  # N, by rows, lower triangle
    w, cols = [0.0] * n, [0.0] * n
    for i in range(n + 1):
        mags = _mags(zip(res[i], ims[i]), f)
        if i == n:  # the last row: w = N^T |l|
            for j, row in enumerate(inv):
                for m, x in enumerate(row):
                    w[m] += x * mags[j]
                    cols[m] += x
            break
        scale = 1.0 / _float_up(diag[i], -f)
        row = []
        for j in range(i):
            acc = 0.0
            for m in range(j, i):
                acc += mags[m] * inv[m][j]
            row.append(acc * scale)
        row.append(scale)
        inv.append(row)
    v = w + [1.0]
    rv, full = [0.0] * (n + 1), []
    for i, row in enumerate(radius):
        for j, r in enumerate(row):
            r += 2.0
            rv[i] += r * v[j]
            if j < i:
                rv[j] += r * v[i]
                full.append(r)  # for entry (j, i)
            full.append(r)
    # the norms by hypot, so that no square leaves the float range;
    # mu = 1 / ||N||_F^2, and room = mu in units of 2^-f
    beta, rho = math.hypot(*rv), math.hypot(*full)
    size = math.hypot(*(x for row in inv for x in row))
    room = _scale_up(1.0 / size, f) / size if size else math.inf
    if not room > 2.0 * rho:
        return None
    eps = sum(map(mul, v, rv)) + beta * (beta / (room - rho))
    return eps, w, beta * size * size / (1.0 - rho / room), cols


def schur_leading(g: HermitianMatrix):
    """1/sqrt of the Schur complement of the last coordinate.

    The factor's last row is the forward-solved coupling column y, and its
    diagonal is sqrt(G_NN - |y|^2), the distance from the pivot to the span
    of the others, which _cholesky_fixed takes on integers at its guard
    bits; it is rounded once to the tag and inverted.  Returns an mpf.
    """
    *_, diag, scale = _cholesky_fixed(g.lower, g.exp, g.bits)
    return 1 / _to_mpf(context(g.bits), diag[-1],
                       scale[-1] - g.bits - _GUARD_BITS)


def _extremal(g: HermitianMatrix, frac: int | None = None) -> tuple:
    """The maximizer v = G^-1 e_N / eta of |v_N| subject to v* G v <= 1,
    eta = sqrt((G^-1)_NN) = v_N, on integers: (v, frac), v_i 2^frac each
    rounded once; frac defaults to bits + 32 bits below G's finest scale.

    With A = S G S = L_A L_A* (_cholesky_fixed), L_A* x = e_N / l_NN gives
    x_N = 1 / l_NN^2 and x_i = -sum_(m>i) conj(l_mi) x_m / l_ii, each sum
    exact and each x_i rounded once at f = bits + 32: x = A^-1 e_N, so
    v_i = 2^-k_i x_i / sqrt(x_N), each part one isqrt (_extremal_of_factor).
    eta comes from x_N, not from the pivot l_NN, so it stays a second route
    to schur_leading.
    """
    factor = _cholesky_fixed(g.lower, g.exp, g.bits)
    if frac is None:
        frac = g.bits + _GUARD_BITS + max(factor[3])
    return _extremal_of_factor(factor, g.bits, frac), frac


def _extremal_of_factor(factor: tuple, bits: int, frac: int) -> list:
    """_extremal's v from a factor (re, im, diag, scale) of
    _cholesky_fixed at bits: v_i 2^frac, each part rounded once."""
    res, ims, diag, scale = factor
    f = bits + _GUARD_BITS
    n = len(diag)
    x_re, x_im = [0] * n, [0] * n
    x_re[-1] = _rdiv(_rdiv(1 << 2 * f, diag[-1]) << f, diag[-1])
    for i in range(n - 2, -1, -1):
        # sum_(m>i) conj(l_mi) x_m at 2f
        s_re, s_im = _dot([res[m][i] for m in range(i + 1, n)],
                          [-ims[m][i] for m in range(i + 1, n)],
                          x_re[i + 1:], x_im[i + 1:])
        x_re[i], x_im[i] = _rdiv(-s_re, diag[i]), _rdiv(-s_im, diag[i])
    v = []
    for k_i, a_re, a_im in zip(scale, x_re, x_im):
        # v_i 2^frac = a 2^(t/2) / sqrt(x_N 2^f), t = 2 (frac - k_i) - f
        t = 2 * (frac - k_i) - f
        u = max(0, (t + 1) // 2)
        b = x_re[-1] << (2 * u - t)
        v.append((_rdiv_sqrt(a_re << u, b), _rdiv_sqrt(a_im << u, b)))
    return v


def constrained_max_leading(g: HermitianMatrix):
    """Maximize |v_N| subject to v* G v <= 1.

    Returns (eta, witness): eta = sqrt((G^-1)_NN) and the maximizer
    v = G^-1 e_N / eta, so v_N = eta and v* G v = 1, from _extremal's
    integers rounded to the tag, eta an mpf and the witness mpc.
    """
    ctx = context(g.bits)
    v, frac = _extremal(g)
    return (_to_mpf(ctx, v[-1][0], -frac),
            tuple(_to_mpc(ctx, re, im, -frac) for re, im in v))
