"""Extended-precision Hermitian linear algebra for Gram-matrix certificates.

Dense column-stored Hermitian matrices at a working precision, the one
Cholesky factorization of the package (Gram matrices and the closed form's
Woodbury system alike), in fixed point on Python integers, and the two
routes to the constrained leading-coefficient extremal problem: the Schur
complement of the pivoted last coordinate, which is the factor's last pivot,
and the explicit maximizer G^-1 e_N by a back substitution from e_N / l_NN.
Both routes are kept deliberately distinct so their agreement is a check,
not a tautology.  For a Toeplitz Gram matrix the
Szego recursion gives the same Schur complement in O(N^2) instead of
O(N^3), in the same fixed point (toeplitz_leading); the factor's last pivot
is its oracle.

The factorization first equilibrates: it scales G to S G S with S a
diagonal of powers of two, S_ii^2 g_ii in [1/4, 1), so every entry of the
scaled matrix and of its factor has modulus below 1 (van der Sluis's
scaling, within a factor 2).  Its core, _cholesky_fixed, takes the scaled
entries as pairs of integers at bits + 32 fractional bits, takes every
inner product exactly and rounds it once; cholesky reads a
HermitianMatrix's mpc entries into it and undoes the scaling exactly, and
the closed form of measure_opuc, whose system is integers from the start,
calls the core directly.  A pivot at or below that fixed-point
resolution, 2^-(bits + 32) of the scaled diagonal, is not told apart from
zero and raises NotPositiveDefinite.

The fixed point is one section of helpers, shared with the residue
quadrature (measure_opuc) and the lower-bound pipeline (asymptotics): a
real number x is the integer round(x 2^f) at f fractional bits, a complex
one a pair of them (real, imaginary).  Sums and products of such integers
are exact; a product goes back to f bits by a rounded shift, a quotient by
_rdiv, and a result to an mpmath number by one rounding (_to_mpf,
_to_mpc).

Precision is a value, not ambient state: context(bits) is the mpmath
context that rounds at bits, and every number keeps the context that made
it.  An mpmath operation rounds at the context of its left operand, and
ctx.mpc(x) rounds x to ctx.prec.  The contexts are never mutated, so threads
share them without a lock, and nothing here reads or sets mpmath.mp's
precision.

Precision never escalates silently: a failed pivot raises
NotPositiveDefinite and the caller decides whether to retry higher.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt
from operator import mul
from typing import Sequence

from mpmath import MPContext, mp
from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, round_nearest

__all__ = [
    "PRECISION_BITS",
    "PrecisionTag",
    "context",
    "next_tag",
    "HermitianMatrix",
    "CholeskyFactor",
    "NotPositiveDefinite",
    "cholesky",
    "solve_lower",
    "solve_upper_conj",
    "schur_leading",
    "toeplitz_leading",
    "constrained_max_leading",
]

PRECISION_BITS = (53, 128, 256, 512)


@functools.lru_cache(maxsize=64)
def context(bits: int) -> MPContext:
    """The shared mpmath context with prec = bits; callers must not mutate it.

    An evicted context stays valid for the numbers that hold it, and a new
    one at the same precision rounds identically.
    """
    ctx = MPContext()
    ctx.prec = bits
    return ctx


@dataclass(frozen=True)
class PrecisionTag:
    bits: int

    def __post_init__(self):
        if self.bits not in PRECISION_BITS:
            raise ValueError(f"bits must be one of {PRECISION_BITS}")


def next_tag(bits: int) -> int | None:
    """The next escalation step above bits, or None at the top."""
    for b in PRECISION_BITS:
        if b > bits:
            return b
    return None


class NotPositiveDefinite(ArithmeticError):
    """Pivot <= 0 during factorization; carries the failing pivot index."""

    def __init__(self, pivot: int, value=None):
        self.pivot = pivot
        self.value = value
        super().__init__(f"nonpositive pivot at index {pivot}" +
                         (f" (value {mp.nstr(value, 8)})" if value is not None else ""))


class HermitianMatrix:
    """Hermitian matrix in dense column storage at a working precision.

    columns[k][j] is the (j, k) entry, a context(bits) mpc.  Construction
    checks that bits is a precision tag, rounds every entry to it and
    verifies Hermitian symmetry to one ulp.  With _skip_check the package's
    own builder vouches for all three: bits may be any working precision.
    """

    __slots__ = ("dim", "columns", "bits")

    def __init__(self, columns: Sequence[Sequence], bits: int = 53, _skip_check: bool = False):
        ctx = context(bits)
        if _skip_check:
            cols = tuple(map(tuple, columns))
        else:
            PrecisionTag(bits)
            cols = tuple(tuple(ctx.mpc(v) for v in col) for col in columns)
        n = len(cols)
        if any(len(col) != n for col in cols):
            raise ValueError("matrix must be square")
        if not _skip_check:
            ulp = ctx.mpf(2) ** (1 - bits)
            for k in range(n):
                for j in range(k, n):
                    a = cols[k][j]
                    b = ctx.conj(cols[j][k])
                    scale = max(abs(a), abs(b), ctx.mpf(1))
                    if abs(a - b) > ulp * scale:
                        raise ValueError(
                            f"not Hermitian at ({j},{k}): {a} vs conj {b}")
        self.dim = n
        self.columns = cols
        self.bits = bits

    def entry(self, j: int, k: int):
        return self.columns[k][j]

    def row(self, j: int) -> tuple:
        return tuple(self.columns[k][j] for k in range(self.dim))

    @classmethod
    def identity(cls, n: int, bits: int = 53) -> "HermitianMatrix":
        ctx = context(bits)
        one, zero = ctx.mpc(1), ctx.mpc(0)
        return cls([[one if j == k else zero for j in range(n)] for k in range(n)],
                   bits, _skip_check=True)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor; rows[i] holds entries (i, 0..i)."""

    rows: tuple
    bits: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        if j > i:
            return context(self.bits).mpc(0)
        return self.rows[i][j]


# ----------------------------------------------------------------------
# fixed point on Python integers (see the module docstring)

# fractional bits of the fixed point beyond the precision of its results
_GUARD_BITS = 32


def _fixed(part: tuple, shift: int) -> int:
    """The mpf tuple part times 2^shift, rounded to an integer."""
    sign, man, exp, _ = part
    e = exp + shift
    v = man << e if e >= 0 else (man + (1 << (-e - 1))) >> -e
    return -v if sign else v


def _fixed_pair(z, f: int) -> tuple:
    """The mpc z times 2^f, each part rounded to an integer."""
    re, im = z._mpc_
    return _fixed(re, f), _fixed(im, f)


def _rdiv(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


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


def _dyadic(x: float, f: int) -> int:
    """The double x times 2^f, rounded to an integer: exact whenever the
    last bit of x is at or above 2^-f, as doubles are dyadic."""
    p, q = x.as_integer_ratio()
    return _rdiv(p << f, q)


def _shift(x: int, s: int) -> int:
    """x 2^s rounded to an integer, ties up."""
    return x << s if s >= 0 else (x + (1 << (-s - 1))) >> -s


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


def _reflect(x: tuple, f: int) -> tuple:
    """1/conj(x) = x/|x|^2 for a nonzero pair at f fractional bits, each
    part rounded once."""
    xr, xi = x
    den = xr * xr + xi * xi
    return _rdiv(xr << 2 * f, den), _rdiv(xi << 2 * f, den)


def _circle_nodes(size: int, start: int, step: int, f: int) -> list:
    """exp(2 pi i p / size) for p = start, start + step, ... below size, as
    integer pairs at f fractional bits; size is a power of two and step
    divides size/4.

    Each node of the first quadrant is evaluated at f + 4 bits and rounded
    once; node p + j size/4 is that node times i^j, an exact swap and
    negation.  The value depends only on p/size, so every grid that holds a
    node gives the same pair.
    """
    quarter = size // 4
    scale = size.bit_length() - 2  # 2p/size = p 2^-scale
    first = []
    for p in range(start, quarter, step):
        c, s = mpf_cos_sin_pi(from_man_exp(p, -scale), f + 4, round_nearest)
        first.append((_fixed(c, f), _fixed(s, f)))
    return (first + [(-im, re) for re, im in first]
            + [(-re, -im) for re, im in first] + [(im, -re) for re, im in first])


def _to_mpf(ctx: MPContext, x: int, e: int):
    """x 2^e rounded once to an mpf of ctx."""
    return ctx.make_mpf(from_man_exp(x, e, ctx.prec, round_nearest))


def _to_mpc(ctx: MPContext, re: int, im: int, e: int):
    """(re + i im) 2^e, each part rounded once, as an mpc of ctx."""
    return ctx.make_mpc((from_man_exp(re, e, ctx.prec, round_nearest),
                         from_man_exp(im, e, ctx.prec, round_nearest)))


# ----------------------------------------------------------------------
# factorizations


def _cholesky_fixed(rows, bits: int) -> tuple:
    """The Cholesky factor L_A of an equilibrated Hermitian A, on integers.

    rows yields, row by row, (a_i, d_i, k_i): a_i the pairs a_i0..a_i(i-1)
    below the diagonal at f = bits + 32 fractional bits, d_i the diagonal
    a_ii at 2f, and k_i the row's scaling exponent, A = S G S with
    S = diag(2^-k_i), which only the error report reads.  Row i of L_A is
    l_ij = (a_ij - sum_(m<j) l_im conj(l_jm)) / l_jj and
    l_ii = sqrt(a_ii - sum_(m<i) |l_im|^2); each sum is exact over the
    integer real and imaginary parts and is rounded once, by one integer
    division or by isqrt.  Returns (re, im, diag): per row the real and
    imaginary parts of l_i0..l_i(i-1) and l_ii, all at f.

    Raises NotPositiveDefinite at the first row, in order, whose pivot is
    at or below 2^-f; rows is read lazily, so a row that raises while it is
    formed does so after every earlier pivot has been checked.
    """
    f = bits + _GUARD_BITS
    res: list[list[int]] = []
    ims: list[list[int]] = []
    cims: list[list[int]] = []  # negated imaginary parts, for the conj
    diag: list[int] = []
    for i, (a_i, d_i, k_i) in enumerate(rows):
        re_i: list[int] = []
        im_i: list[int] = []
        for j, (a_re, a_im) in enumerate(a_i):
            # (a_ij 2^f) 2^f - sum_m l_im conj(l_jm) 2^(2f)
            d_re, d_im = _dot(re_i, im_i, res[j], cims[j])
            re_i.append(_rdiv((a_re << f) - d_re, diag[j]))
            im_i.append(_rdiv((a_im << f) - d_im, diag[j]))
        pivot = d_i - sum(map(mul, re_i, re_i)) - sum(map(mul, im_i, im_i))
        if pivot <= 1 << f:
            raise NotPositiveDefinite(
                i, _to_mpf(context(bits), pivot, 2 * k_i - 2 * f))
        res.append(re_i)
        ims.append(im_i)
        cims.append([-v for v in im_i])
        diag.append(isqrt(pivot))
    return res, ims, diag


def cholesky(g: HermitianMatrix) -> CholeskyFactor:
    """Cholesky factor L with L L* = G, row by row, by _cholesky_fixed.

    G is equilibrated to A = S G S, S = diag(2^-k_i) with a_ii in [1/4, 1),
    and A's lower triangle is read from the entries' mpf tuples as integers
    at f = bits + 32 fractional bits, each rounded once.  L = S^-1 L_A is
    rounded to the tag, as mpc below the diagonal and mpf on it.

    Raises NotPositiveDefinite at the first row, in order, whose pivot is
    at or below 2^-f (a diagonal entry <= 0 fails as its row is reached);
    that signal drives the caller-side precision escalation protocol.
    """
    bits = g.bits
    f = bits + _GUARD_BITS
    ctx = context(bits)
    cols = g.columns
    scale: list[int] = []  # k_i

    def rows():
        for i, col in enumerate(cols):
            d_part = col[i]._mpc_[0]
            sign, man, exp, bc = d_part
            if sign or not man:
                raise NotPositiveDefinite(i, ctx.make_mpf(d_part))
            k_i = (exp + bc + 1) // 2
            scale.append(k_i)
            yield ([_fixed_pair(c[i], f - k_i - k_j)
                    for c, k_j in zip(cols[:i], scale)],
                   _fixed(d_part, 2 * f - 2 * k_i), k_i)

    res, ims, diag = _cholesky_fixed(rows(), bits)
    out = []
    for k_i, re_i, im_i, l_ii in zip(scale, res, ims, diag):
        e = k_i - f
        out.append(tuple(_to_mpc(ctx, re, im, e) for re, im in zip(re_i, im_i))
                   + (_to_mpf(ctx, l_ii, e),))
    return CholeskyFactor(tuple(out), bits)


def solve_lower(l: CholeskyFactor, b: Sequence) -> list:
    """Forward substitution for L y = b."""
    ctx = context(l.bits)
    y: list = []
    for i in range(l.dim):
        s = ctx.fdot(l.rows[i][:i], y) if i else ctx.mpc(0)
        y.append((ctx.mpc(b[i]) - s) / l.rows[i][i])
    return y


def solve_upper_conj(l: CholeskyFactor, y: Sequence) -> list:
    """Back substitution for L* x = y."""
    n = l.dim
    ctx = context(l.bits)
    x: list = [ctx.mpc(0)] * n
    for i in range(n - 1, -1, -1):
        s = ctx.fdot((ctx.conj(l.rows[k][i]) for k in range(i + 1, n)),
                     (x[k] for k in range(i + 1, n)))
        x[i] = (ctx.mpc(y[i]) - s) / ctx.conj(l.rows[i][i])
    return x


def schur_leading(g: HermitianMatrix):
    """1/sqrt of the Schur complement of the last coordinate.

    The factor's last row is the forward-solved coupling column y, and its
    diagonal is sqrt(G_NN - |y|^2), the distance from the pivot to the span
    of the others, which cholesky takes on integers at its guard bits and
    rounds once to the tag.  Returns an mpf.
    """
    return 1 / cholesky(g).rows[-1][-1]


def toeplitz_leading(g: HermitianMatrix):
    """schur_leading of a Hermitian Toeplitz G in O(N^2), by the Szego
    recursion on G's first column.

    G_jk = c_(j-k), c_j = G_j0 and c_(-j) = conj(c_j), is the Gram matrix
    <z^j, z^k> of a circle measure.  The monic Phi_k orthogonal to
    1, ..., z^(k-1) has E_k = ||Phi_k||^2 = det G_(k+1) / det G_k, the
    square of cholesky's pivot k, and (Levinson's algorithm)
    Phi_(k+1) = z Phi_k - gamma_k Phi_k^*,  gamma_k = <z Phi_k, 1> / E_k,
    E_(k+1) = E_k (1 - |gamma_k|^2),  <z Phi_k, 1> = sum_j p_j c_(j+1)
    for Phi_k = sum_j p_j z^j.  Returns 1/sqrt(E_(N-1)), an mpf.

    Fixed point as in cholesky: G is equilibrated to A = 2^-2s G with
    c_0 in [1/4, 1) after scaling, the c_j and p_j are integers at
    f = bits + 32 fractional bits and E_k at 2f.  Each <z Phi_k, 1> is
    exact, gamma_k and each p_j are rounded once, and
    E_(k+1) = E_k - |<z Phi_k, 1>|^2 / E_k is rounded once.  Raises
    NotPositiveDefinite(k) at the first E_k at or below 2^-f, cholesky's
    threshold and pivot index.  The root is taken by isqrt and rounded
    once to the tag, as schur_leading's is.  G's Toeplitz structure is the
    caller's promise; only its first column is read.
    """
    n, bits = g.dim, g.bits
    f = bits + _GUARD_BITS
    ctx = context(bits)
    col = g.columns[0]
    d_part = col[0]._mpc_[0]
    sign, man, exp, bc = d_part
    if sign or not man:
        raise NotPositiveDefinite(0, ctx.make_mpf(d_part))
    s = (exp + bc + 1) // 2
    # c_1..c_(N-1) of A
    c_re = [_fixed(v._mpc_[0], f - 2 * s) for v in col[1:]]
    c_im = [_fixed(v._mpc_[1], f - 2 * s) for v in col[1:]]
    half = 1 << (f - 1)
    p_re, p_im = [1 << f], [0]  # Phi_k 2^f, constant coefficient first
    err = _fixed(d_part, 2 * f - 2 * s)  # E_k 2^(2f)
    for k in range(n):
        if err <= 1 << f:
            raise NotPositiveDefinite(k, _to_mpf(ctx, err, 2 * s - 2 * f))
        if k == n - 1:
            break
        # <z Phi_k, 1> 2^(2f)
        d_re, d_im = _dot(c_re[: k + 1], c_im[: k + 1], p_re, p_im)
        if k < n - 2:
            # gamma_k 2^f; Phi_k^* has the coefficients conj(p_(k-j))
            g_re, g_im = _rdiv(d_re << f, err), _rdiv(d_im << f, err)
            q_re, q_im = p_re[::-1], p_im[::-1]
            p_re = [a - ((g_re * qr + g_im * qi + half) >> f)
                    for a, qr, qi in zip([0] + p_re, q_re, q_im)] + [1 << f]
            p_im = [a - ((g_im * qr - g_re * qi + half) >> f)
                    for a, qr, qi in zip([0] + p_im, q_re, q_im)] + [0]
        err -= _rdiv(d_re * d_re + d_im * d_im, err)
    return 1 / _to_mpf(ctx, isqrt(err), s - f)


def constrained_max_leading(g: HermitianMatrix):
    """Maximize |v_N| subject to v* G v <= 1.

    Returns (eta, witness): eta = sqrt((G^-1)_NN) and the maximizer
    v = G^-1 e_N / eta, so v_N = eta and v* G v = 1.  L y = e_N gives
    y = e_N / l_NN, solve_lower(l, e_N) bit for bit (its sums are 0).
    """
    n = g.dim
    l = cholesky(g)
    ctx = context(g.bits)
    y = [ctx.mpc(0)] * (n - 1) + [ctx.mpc(1) / l.rows[-1][-1]]
    x = solve_upper_conj(l, y)
    w = ctx.re(x[n - 1])
    if w <= 0:
        raise NotPositiveDefinite(n - 1, w)
    eta = ctx.sqrt(w)
    witness = tuple(xi / eta for xi in x)
    return eta, witness
