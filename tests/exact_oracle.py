"""Exact rational oracles for the OPUC numbers, independent of the package.

Every input the program reads is a double, and doubles are dyadic
rationals, so the moments of 1/|psi|^2, the Gram matrices with masses and
their Schur complements are exact rationals.  Complex values are pairs
(real, imaginary) of Fractions.  The solve is fraction-free: a Gram matrix
is scaled to integers by a common denominator, embedded as the real
symmetric system [[A, -B], [B, A]] of G = A + iB, and eliminated by
Bareiss's integer-preserving Gauss-Jordan steps, so every intermediate is
an integer (a minor of the system) and the cost stays polynomial.
"""

from fractions import Fraction
from math import lcm


def exact_moments(coeffs, count):
    """t_0..t_(count-1) of 1/|psi|^2 as exact (re, im) Fractions.

    The head t_0..t_d solves sum_j c_j t_(k-j) = [k == 0]/c_0 for
    k = 0..d, t_(-m) = conj(t_m): a real system in the parts of t_0..t_d,
    its columns the left side at unit vectors, solved by Gauss-Jordan
    elimination over Fraction.  Then t_k = -(1/c_0) sum_(j>=1) c_j t_(k-j).
    """
    c = [(Fraction(z.real), Fraction(z.imag)) for z in map(complex, coeffs)]
    d = len(c) - 1

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def left(t, k):
        parts = [times(c[j], t[k - j] if k >= j else
                       (t[j - k][0], -t[j - k][1])) for j in range(d + 1)]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    size = 2 * (d + 1)
    zero = (Fraction(0), Fraction(0))
    cols = []
    for u in range(size):
        unit = [zero] * (d + 1)
        unit[u // 2] = (Fraction(1 - u % 2), Fraction(u % 2))
        cols.append([part for k in range(d + 1) for part in left(unit, k)])
    a = [[col[r] for col in cols] + [Fraction(r == 0) / c[0][0]]
         for r in range(size)]
    for k in range(size):
        piv = next(r for r in range(k, size) if a[r][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(size):
            factor = a[i][k]
            if i != k and factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    t = [(a[2 * m][size], a[2 * m + 1][size]) for m in range(d + 1)]
    for k in range(d + 1, count):
        s = [times(c[j], t[k - j]) for j in range(1, d + 1)]
        t.append((-sum(p[0] for p in s) / c[0][0],
                  -sum(p[1] for p in s) / c[0][0]))
    return t


def as_fraction(x):
    """An mpf as the exact Fraction it holds."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def exact_gram(coeffs, masses, exps):
    """{(r, c): <z^(e_c), z^(e_r)>} as exact (re, im) Fractions: the exact
    moments t_(e_c - e_r) plus sum m z^(e_c) conj(z)^(e_r), the powers of
    the dyadic z exact and 1/z = conj(z)/|z|^2."""
    lo, hi = min(exps), max(exps)
    t = exact_moments(coeffs, hi - lo + 1)
    powers = []
    for z, m in masses:
        zr, zi = Fraction(z.real), Fraction(z.imag)
        inv = (zr / (zr * zr + zi * zi), -zi / (zr * zr + zi * zi))
        pw = {0: (Fraction(1), Fraction(0))}
        for e in range(1, max(hi, 0) + 1):
            a = pw[e - 1]
            pw[e] = (a[0] * zr - a[1] * zi, a[0] * zi + a[1] * zr)
        for e in range(-1, min(lo, 0) - 1, -1):
            a = pw[e + 1]
            pw[e] = (a[0] * inv[0] - a[1] * inv[1], a[0] * inv[1] + a[1] * inv[0])
        powers.append((Fraction(m), pw))
    out = {}
    for c, e_c in enumerate(exps):
        for r, e_r in enumerate(exps):
            re, im = t[abs(e_c - e_r)]
            im = im if e_c >= e_r else -im
            for m, pw in powers:
                (ar, ai), (br, bi) = pw[e_c], pw[e_r]
                re += m * (ar * br + ai * bi)
                im += m * (ai * br - ar * bi)
            out[r, c] = re, im
    return out


def bareiss_solve(gram, n, rhs):
    """G^-1 b as exact (re, im) Fractions, for the n-by-n nonsingular
    gram[r, c] = (re, im) and b = rhs, a list of (re, im).

    With a common denominator q, q G = A + iB and q b = c + id are
    integer; [[A, -B], [B, A]] [u; v] = [c; d] is solved by fraction-free
    Gauss-Jordan elimination (Bareiss), after which each diagonal entry is
    the last pivot D and the right-hand column holds D u and D v.
    """
    entries = [p for v in gram.values() for p in v]
    entries += [p for v in rhs for p in v]
    q = lcm(*(Fraction(p).denominator for p in entries))
    size = 2 * n

    def ints(x):
        return int(x * q)

    a = [[0] * (size + 1) for _ in range(size)]
    for r in range(n):
        for c in range(n):
            re, im = map(ints, gram[r, c])
            a[r][c], a[r][n + c] = re, -im
            a[n + r][c], a[n + r][n + c] = im, re
        a[r][size], a[n + r][size] = map(ints, rhs[r])
    prev = 1
    for k in range(size):
        piv = next(r for r in range(k, size) if a[r][k])
        a[k], a[piv] = a[piv], a[k]
        row_k, akk = a[k], a[k][k]
        for i in range(size):
            if i != k:
                aik = a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(a[i], row_k)]
        prev = akk
    return [(Fraction(a[r][size], prev), Fraction(a[n + r][size], prev))
            for r in range(n)]
