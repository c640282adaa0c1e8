"""Orthogonal systems for a circle measure with point masses outside.

The measure is dm/|psi|^2 on the unit circle plus finitely many point masses
at |z_k| > 1, psi a zero-free-on-the-closed-disk Taylor polynomial with
psi(0) > 0.  This module computes trigonometric moments (cached, exact:
a small linear system and the recurrence that psi defines), Gram matrices
over polynomial and Laurent spans, the leading coefficients tau_n and eta_n
of the orthonormal elements, the orthonormal elements themselves, a
contour-integral residue identity connecting the Laurent leading
coefficient to point evaluations at the masses, and the slow-decay
condition report for mass sequences accumulating at the circle.

The residue identity's quadrature evaluates its integrand at the nodes of
a power-of-two circle grid, in fixed point on Python integers.  A
ResidueNodes table, passed as nodes=, holds for one measure each node and
its weights B^k/conj(psi) as integer pairs at bits + 32 fractional bits,
so the checks of several (n, k) evaluate psi and the Blaschke factors once
per node and each Laurent element once per node.  Since every power of a
node is another node of the grid, each numerator R_n(x) x^(-n) is one
exact integer dot product of the element's coefficients against table
nodes, rounded once, and each grid mean is the exact integer sum of its
terms, rounded once to the measure's precision.  A check without a table
builds its own, and both give the same record bit for bit.

tau_n and eta_n have two routes.  With masses and degree at least deg psi
they come from Uvarov's closed form: the Bernstein-Szego orthonormal
polynomials and their Christoffel-Darboux kernel reduce the Gram solve to
a K-by-K system for K masses, whatever n is.  That system is built and
factored on Python integers (xlinalg._cholesky_fixed) and rounded to an
mpmath number once, and the terms that depend only on a mass are formed
once per fixed point for every n of a request.  Mass-free measures, where
the closed form is the constant psi(0), and lower degrees take the Gram
route: 1/sqrt of the Schur complement of z^n in the Gram matrix, in
extended precision.  Without masses that matrix is Toeplitz, and the
Szego recursion on its first column gives the Schur complement in O(n^2)
(toeplitz_leading); with masses the Cholesky factor's last pivot gives it
in O(n^3) (schur_leading), which stays the oracle for the recursion and
for the closed form.  The orthonormal elements are the extremal witnesses
of the same Gram matrices.

Precision escalation is explicit: the Gram route starts at the
first tag that holds its entries (at least the measure's tag), a failure
there is retried at the next tag, and the failure is reported, never
hidden.  The closed form adds guard bits above the measure's tag, 32 and
then twice as many each time, until two runs agree, and raises
NotPositiveDefinite if its system loses positivity at every try.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import isqrt
from typing import Sequence

import numpy as np
from mpmath.libmp import from_rational, fzero, round_nearest

from szego_lab.circle_fourier import LaurentPolynomial, _next_pow2, grid_nodes
from szego_lab.xlinalg import (
    _GUARD_BITS,
    PRECISION_BITS,
    HermitianMatrix,
    NotPositiveDefinite,
    PrecisionTag,
    _circle_nodes,
    _cholesky_fixed,
    _cmul,
    _cpow,
    _dot,
    _dyadic,
    _fixed_pair,
    _horner,
    _rdiv,
    _reflect,
    _shift,
    _to_mpc,
    _to_mpf,
    constrained_max_leading,
    context,
    next_tag,
    schur_leading,
    toeplitz_leading,
)

__all__ = [
    "OuterWeight",
    "PointSpectrum",
    "MeasureSpec",
    "FieldError",
    "ResidueNodes",
    "QuadratureError",
    "PrecisionExhausted",
    "moment",
    "gram_polynomial",
    "gram_laurent",
    "tau_n",
    "eta_n",
    "orthonormal_element",
    "target_limit",
    "residue_identity_check",
    "log_condition_report",
]


class FieldError(ValueError):
    """Invalid input: a missing or malformed field, named by field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


def _as_int(v) -> int:
    """v as an int, for an int or an integer-valued float; ValueError for
    anything else, so that 8.7, true and "8" are not read as integers."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(
            v, float) and v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


class QuadratureError(ArithmeticError):
    """Grid quadrature failed to converge before the node cap."""


class PrecisionExhausted(ArithmeticError):
    """Factorization failed at every precision tag; carries the report."""

    def __init__(self, bits_tried: tuple, last_pivot: int):
        self.bits_tried = bits_tried
        self.last_pivot = last_pivot
        super().__init__(
            f"not positive definite at any of {bits_tried} bits "
            f"(last failing pivot {last_pivot})")


@dataclass(frozen=True)
class OuterWeight:
    """Finite zero-free Taylor polynomial weight, positive at the origin.

    Zero-freeness on the closed disk is verified through the polynomial
    roots; the minimum of |psi| over a 4096-node circle grid is recorded as
    delta_floor.
    """

    psi: LaurentPolynomial
    label: str = ""
    delta_floor: float = field(init=False)

    def __post_init__(self):
        p = self.psi
        if not np.isfinite(p.coeffs).all():
            raise ValueError("psi coefficients must be finite")
        if p.lo < 0:
            raise ValueError("weight must have nonnegative exponents only")
        c0 = complex(p.coefficient(0))
        if c0.imag != 0.0 or c0.real <= 0.0:
            raise ValueError("psi(0) must be real and positive")
        if p.hi >= 1:
            roots = np.roots(p.coeffs[::-1])
            if np.any(np.abs(roots) <= 1.0):
                raise ValueError("psi must be zero-free on the closed unit disk")
        floor = float(np.min(np.abs(p(grid_nodes(4096)))))
        if floor <= 0.0:
            raise ValueError("psi vanishes on the sampling grid")
        object.__setattr__(self, "delta_floor", floor)

    @property
    def psi0(self) -> float:
        return float(self.psi.coefficient(0).real)

    def coeff_key(self) -> tuple:
        return tuple(complex(c) for c in self.psi.coeffs)

    @classmethod
    def constant_one(cls) -> "OuterWeight":
        return cls(LaurentPolynomial(0, [1.0]))


@dataclass(frozen=True)
class PointSpectrum:
    """Point masses (z_k, mu_k), finite, with |z_k| > 1 and mu_k > 0."""

    masses: tuple

    def __post_init__(self):
        ms = tuple((complex(z), float(m)) for z, m in self.masses)
        object.__setattr__(self, "masses", ms)
        for z, m in ms:
            if not all(map(math.isfinite, (z.real, z.imag, m))):
                raise ValueError(f"mass ({z}, {m}) not finite")
            if abs(z) <= 1.0:
                raise ValueError(f"mass point {z} not outside the circle")
            if m <= 0.0:
                raise ValueError(f"mass weight {m} not positive")

    def __len__(self) -> int:
        return len(self.masses)

    @classmethod
    def empty(cls) -> "PointSpectrum":
        return cls(())


@dataclass(frozen=True)
class MeasureSpec:
    weight: OuterWeight
    spectrum: PointSpectrum
    precision: int = 256

    def __post_init__(self):
        PrecisionTag(self.precision)

    def to_json(self) -> dict:
        psi = [[float(c.real), float(c.imag)] for c in self.weight.psi.coeffs]
        masses = [[z.real, z.imag, m] for z, m in self.spectrum.masses]
        return {"psi": psi, "masses": masses, "precision_bits": self.precision}

    @classmethod
    def from_json(cls, obj: dict) -> "MeasureSpec":
        """The measure a JSON object describes; FieldError names a missing
        or malformed field."""
        key = "psi"
        try:
            weight = OuterWeight(LaurentPolynomial(
                0, [complex(re, im) for re, im in obj[key]]))
            key = "masses"
            spectrum = PointSpectrum(tuple(
                (complex(re, im), float(m)) for re, im, m in obj.get(key, [])))
            key = "precision_bits"
            return cls(weight, spectrum, _as_int(obj.get(key, 256)))
        except KeyError as exc:
            raise FieldError(key, "missing measure field") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FieldError(key, str(exc)) from exc


def target_limit(mu: MeasureSpec) -> float:
    """The common limit of the leading coefficients: B(0) * psi(0)."""
    b0 = math.prod(1.0 / abs(z) for z, _ in mu.spectrum.masses)
    return b0 * mu.weight.psi0


# ----------------------------------------------------------------------
# trigonometric moments of the absolutely continuous part


# Threads that miss together each fill the entry with the same values, so
# the later write is as good as the earlier one.
_moment_cache: dict = {}


def _bernstein_szego_head(coeffs: Sequence[complex], bits: int) -> list:
    """t_0..t_d for psi = sum_j c_j z^j of degree d (see _trig_moments).

    psi/|psi|^2 = 1/conj(psi) has no positive frequencies and constant term
    1/c_0, so sum_j c_j t_(k-j) = [k == 0]/c_0 for k >= 0, where
    t_(-m) = conj(t_m).  Rows k = 0..d are a real linear system in the re
    and im parts of t_0..t_d; it is nonsingular, since with the recurrence
    for k > d they determine every moment.

    The c_j are doubles, so dyadic: 2^e times the system is an integer
    matrix A, and c_0 = p_0/q_0.  A y = e_0 is solved exactly by
    fraction-free Gauss-Jordan elimination (Bareiss), whose divisions by
    the previous pivot are exact, leaving a_ii y_i = b_i; then
    t = 2^e q_0 y / p_0, and each moment is rounded once, to an mpc of
    context(bits).
    """
    d = len(coeffs) - 1
    size = 2 * (d + 1)
    parts = [v.as_integer_ratio() for c in coeffs for v in (c.real, c.imag)]
    e = max(q for _, q in parts).bit_length() - 1
    ints = [p << (e - q.bit_length() + 1) for p, q in parts]
    # the augmented integer matrix [A | e_0], row by row
    a = [[0] * (size + 1) for _ in range(size)]
    for k in range(d + 1):
        for j in range(d + 1):
            cre, cim = ints[2 * j], ints[2 * j + 1]
            m = k - j
            sign = 1 if m >= 0 else -1  # t_m, or conj(t_|m|) when m < 0
            col = 2 * abs(m)
            a[2 * k][col] += cre
            a[2 * k][col + 1] -= sign * cim
            a[2 * k + 1][col] += cim
            a[2 * k + 1][col + 1] += sign * cre
    a[0][size] = 1
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
    p0, q0 = parts[0]
    ctx = context(bits)

    def rounded(i):
        num, den = a[i][size] * q0 << e, a[i][i] * p0
        if den < 0:
            num, den = -num, -den
        return from_rational(num, den, bits, round_nearest)

    return [ctx.make_mpc((rounded(2 * m), rounded(2 * m + 1) if m else fzero))
            for m in range(d + 1)]


def _trig_moments(weight: OuterWeight, m_max: int, bits: int) -> list:
    """t_m = circle mean of e^(-i m t)/|psi|^2 for m = 0..m_max, cached: a
    list of mpc that holds at least those moments and may hold more.

    Exact up to rounding at bits + 32: t_0..t_d solve the linear system of
    _bernstein_szego_head, and every higher moment follows from
    t_k = -(1/c_0) sum_(j=1..d) c_j t_(k-j).  The recurrence is stable: its
    characteristic roots 1/r_j, r_j the roots of psi, lie inside the disk.
    """
    key = (weight.coeff_key(), bits)
    cached = _moment_cache.get(key)
    if cached is not None and len(cached) > m_max:
        return cached
    ctx = context(bits + 32)
    coeffs = [ctx.mpc(c) for c in weight.psi.coeffs]
    t = (list(cached) if cached is not None
         else _bernstein_szego_head(weight.psi.coeffs, bits + 32))
    for k in range(len(t), m_max + 1):
        t.append(-ctx.fsum(coeffs[j] * t[k - j]
                           for j in range(1, len(coeffs))) / coeffs[0])
    _moment_cache[key] = t
    return t


def moment(mu: MeasureSpec, j: int, k: int):
    """The L2(mu) inner product of z^j against z^k, as an mpc.

    Absolutely continuous part: the trigonometric moment of order j-k of
    1/|psi|^2.  Point part: sum of mu_l * z_l^j * conj(z_l)^k.
    """
    bits = mu.precision
    ctx = context(bits)
    t = _trig_moments(mu.weight, abs(j - k), bits)[abs(j - k)]
    total = ctx.mpc(ctx.conj(t) if j < k else t)
    for z, m in mu.spectrum.masses:
        zl = ctx.mpc(z)
        total += m * zl ** j * ctx.conj(zl) ** k
    return total


def _gram_from_exponents(mu: MeasureSpec, exps: Sequence[int], bits: int) -> HermitianMatrix:
    n = len(exps)
    lo, hi = min(exps), max(exps)
    values = _trig_moments(mu.weight, hi - lo, bits)
    ctx = context(bits)
    if not mu.spectrum.masses:
        # every entry is a moment or its conjugate: round each moment once
        # (rounding commutes with conj) and let the entries share them; the
        # exponents are consecutive, so column c is t_c, ..., t_1 above the
        # diagonal and conj(t_0), ..., conj(t_(n-1-c)) from it down
        rounded = [ctx.mpc(t) for t in values[:n]]
        rounded[0] = ctx.mpc(values[0].real)
        conj_r = [ctx.conj(t) for t in rounded]
        return HermitianMatrix([rounded[c:0:-1] + conj_r[: n - c]
                                for c in range(n)], bits, _skip_check=True)
    cols: list[list] = [[None] * n for _ in range(n)]
    conj_t = [ctx.conj(t) for t in values[: hi - lo + 1]]
    # per mass, m z^e for each column and conj(z)^e for each row: the mass
    # term (m z^(e_c)) conj(z)^(e_r) of entry (r, c) is then one product,
    # with the roundings it had when formed entry by entry
    powers = []
    for z, m in mu.spectrum.masses:
        zl = ctx.mpc(z)
        pw = {0: ctx.mpc(1)}
        for e in range(1, hi + 1):
            pw[e] = pw[e - 1] * zl
        inv = 1 / zl
        for e in range(-1, lo - 1, -1):
            pw[e] = pw[e + 1] * inv
        m = ctx.mpf(m)
        powers.append(([m * pw[e] for e in exps],
                       [ctx.conj(pw[e]) for e in exps]))
    for c in range(n):
        for r in range(c, n):
            d = exps[c] - exps[r]
            val = conj_t[-d] if d < 0 else ctx.mpc(values[d])
            for m_pw, conj_pw in powers:
                val += m_pw[c] * conj_pw[r]
            if r != c:
                # conj_t keeps the moments' guard bits, so round once here
                val = ctx.mpc(val)
                cols[c][r] = val
                cols[r][c] = ctx.conj(val)
            else:
                # the mass terms m z^j conj(z)^j leave a rounding-size
                # imaginary part; cholesky and schur_leading read only the
                # real part of the diagonal, so dropping it moves no result
                cols[c][c] = ctx.mpc(val.real)
    # rounded to the tag and Hermitian by construction, so HermitianMatrix
    # neither re-rounds the entries nor checks the symmetry
    return HermitianMatrix(cols, bits, _skip_check=True)


def gram_polynomial(mu: MeasureSpec, n: int, bits: int | None = None) -> HermitianMatrix:
    """Gram matrix of {1, z, ..., z^n}; the pivot z^n sits last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _gram_from_exponents(mu, range(n + 1), bits or mu.precision)


def gram_laurent(mu: MeasureSpec, n: int, bits: int | None = None) -> HermitianMatrix:
    """Gram matrix of {z^-(n-1), ..., z^n}; the pivot z^n sits last."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gram_from_exponents(mu, range(-(n - 1), n + 1), bits or mu.precision)


def _precision_floor(mu: MeasureSpec, n: int) -> int:
    """First tag that holds the Gram entries of degree n, at least mu's.

    Entries reach |z_k|^(2n), so 64 + 2n log2 max|z_k| bits keep 64 bits
    after that cancellation; a tag too short for it can fail silently, with
    every pivot positive and a wrong leading coefficient.  Capped at the top
    tag.
    """
    need = mu.precision
    if mu.spectrum.masses:
        z_max = max(abs(z) for z, _ in mu.spectrum.masses)
        need = max(need, 64 + math.ceil(2 * n * math.log2(z_max)))
    for bits in PRECISION_BITS:
        if bits >= need:
            return bits
    return PRECISION_BITS[-1]


def _escalate(mu: MeasureSpec, n: int, build_and_solve):
    """Run build_and_solve(bits) under the explicit escalation protocol,
    starting at the precision floor for degree n."""
    tried = []
    bits = _precision_floor(mu, n)
    last = None
    while bits is not None:
        tried.append(bits)
        try:
            return build_and_solve(bits)
        except NotPositiveDefinite as err:
            last = err
            bits = next_tag(bits)
    raise PrecisionExhausted(tuple(tried), last.pivot)


def _gram_leading(mu: MeasureSpec, n: int, laurent: bool):
    """tau_n (or eta_n with laurent) by the Gram route, under the escalation
    protocol: 1/sqrt of the Schur complement of the pivot z^n.  Without
    masses the Gram matrix is Toeplitz and the Szego recursion gives it in
    O(N^2) (toeplitz_leading); with masses, where the route serves n < deg
    psi and is the oracle for the closed form, the Cholesky factor's last
    pivot does (schur_leading), and it stays the oracle for the recursion."""
    gram = gram_laurent if laurent else gram_polynomial
    leading = schur_leading if mu.spectrum.masses else toeplitz_leading
    return _escalate(mu, n, lambda b: leading(gram(mu, n, b)))


@functools.lru_cache(maxsize=8)
def _mass_terms(psi: tuple, masses: tuple, f: int) -> tuple:
    """Per mass (z, m), the parts of Uvarov's system that do not depend on
    the degree, as integers at f fractional bits (see _uvarov_ratio).

    z is read exactly, as doubles are dyadic; |z| = isqrt(|z|^2), and
    u = z/|z|, r = 1/|z|, 1/|z|^2, 1/z and 1/m are each rounded once.
    w = psi(1/z) by Horner, and q = sum_j conj(c_j) u^j r^(d-j), that is
    r^d p(z), by Horner in u, so that neither grows with |z|.  Cached per
    (psi, masses, f): the degrees of a request and both of its leading
    coefficients share them.
    """
    coeffs = [(_dyadic(c.real, f), _dyadic(c.imag, f)) for c in psi]
    out = []
    for z, m in masses:
        zr, zi = _dyadic(z.real, f), _dyadic(z.imag, f)
        z2 = zr * zr + zi * zi  # |z|^2 at 2f, exact
        a = isqrt(z2)
        u = _rdiv(zr << f, a), _rdiv(zi << f, a)
        r = _rdiv(1 << 2 * f, a)
        xr, xi = _reflect((zr, zi), f)  # 1/conj(z)
        w = _horner(coeffs, (xr, -xi), f)
        # conj(c_j) r^(d-j), from j = d down
        b, rj = [], (1 << f, 0)
        for cr, ci in reversed(coeffs):
            b.append(_cmul((cr, -ci), rj, f))
            rj = _cmul(rj, (r, 0), f)
        p, q = m.as_integer_ratio()
        inv_m = _rdiv(q << f, p) if p > 0 else -_rdiv(q << f, -p)
        out.append(((zr, zi), u, r, _rdiv(1 << 3 * f, z2), inv_m, w,
                    _horner(b[::-1], u, f)))
    return tuple(out)


def _uvarov_ratio(mu: MeasureSpec, n: int, shift: int, bits: int) -> tuple:
    """tau_n / c_0 = sqrt(1 - f^H S^-1 f) at bits (see _closed_form_leading),
    on integers: (man, exp) with the ratio man 2^exp, before any rounding
    to an mpmath number.

    Row and column i are scaled by |z_i|^-(n+1), so the entries stay
    bounded as n grows: with the terms of _mass_terms at f = bits + 32,
    p(z) |z|^-(n+1) = r^(n+1-d) q, phi_n(z) |z|^-(n+1) = u^n r w,
    phi_(n+1)(z) |z|^-(n+1) = u^(n+1) w, and the reweighted 1/m is
    |z|^-2(n+1-shift) / m.  Each kernel entry is the exact numerator
    divided once by the exact 1 - z_i conj(z_l).  The system
    [[S, f], [f^H, 1]] is equilibrated as in xlinalg.cholesky and factored
    by xlinalg._cholesky_fixed, whose last pivot is the ratio; it raises
    NotPositiveDefinite as on the Gram route.
    """
    f = bits + _GUARD_BITS
    d = mu.weight.psi.hi
    # per mass: z, p, f and phi_(n+1) at z, each times |z|^-(n+1), and the
    # reweighted 1/m
    points = []
    for z, u, r, r2, inv_m, w, q in _mass_terms(
            mu.weight.coeff_key(), mu.spectrum.masses, f):
        uw = _cmul(_cpow(u, n, f), w, f)
        r_pow = _cpow((r, 0), n + 1 - d, f)
        r2_pow = _cpow((r2, 0), n + 1 - shift, f)
        points.append((z, _cmul(q, r_pow, f), _cmul(uw, (r, 0), f),
                       _cmul(uw, u, f), _cmul((inv_m, 0), r2_pow, f)[0]))
    # G's lower triangle at f: S_il = [i == l]/m_i + K(z_i, z_l), and the
    # last row conj(f_l) and 1
    one = 1 << 2 * f
    rows = []
    for i, ((zr, zi), (pr, pi), _, (hr, hi), inv_m) in enumerate(points):
        row = []
        for (lr, li), (qr, qi), _, (gr, gi), _ in points[: i + 1]:
            # p_i conj(p_l) - phi_i conj(phi_l) over 1 - z_i conj(z_l)
            nr = pr * qr + pi * qi - hr * gr - hi * gi
            ni = pi * qr - pr * qi - hi * gr + hr * gi
            dr, di = one - zr * lr - zi * li, zr * li - zi * lr
            den = dr * dr + di * di
            row.append((_rdiv((nr * dr + ni * di) << f, den),
                        _rdiv((ni * dr - nr * di) << f, den)))
        row[-1] = row[-1][0] + inv_m
        rows.append(row)
    rows.append([(fr, -fi) for _, _, (fr, fi), _, _ in points] + [1 << f])
    scale: list[int] = []

    def equilibrated():
        for i, row in enumerate(rows):
            if row[-1] <= 0:
                raise NotPositiveDefinite(i, _to_mpf(context(bits), row[-1], -f))
            k_i = (row[-1].bit_length() - f + 1) // 2
            scale.append(k_i)
            yield ([(_shift(re, -k_i - k_l), _shift(im, -k_i - k_l))
                    for (re, im), k_l in zip(row[:-1], scale)],
                   _shift(row[-1], f - 2 * k_i), k_i)

    _, _, diag = _cholesky_fixed(equilibrated(), bits)
    return diag[-1], scale[-1] - f


_GUARD_CAP = 1 << 14


def _closed_form_leading(mu: MeasureSpec, n: int, shift: int = 0):
    """Uvarov's formula for tau_n, n >= deg psi, with each mass m_i
    reweighted by |z_i|^(-2 shift); O(K^3 + K^2 d) for K masses, any n.

    Writing psi = sum_j c_j z^j, the Gram route's continuous part (see
    moment) has weight 1/|p|^2, p(z) = sum_j conj(c_j) z^j, and orthonormal
    polynomials phi_k(z) = sum_j c_j z^(k-j) = z^k psi(1/z) for k >= d, with
    Christoffel-Darboux kernel
    K_n(z, w) = [p(z) conj p(w) - phi_(n+1)(z) conj phi_(n+1)(w)] / (1 - z conj w).
    The masses add sum_i m_i u_i^H u_i, u_i = (phi_k(z_i))_k, to the identity
    Gram matrix of phi_0..phi_n, and Woodbury gives
    tau_n^2 = c_0^2 (1 - f^H S^-1 f), S_il = [i == l]/m_i + K_n(z_i, z_l),
    f_i = phi_n(z_i).

    1 - f^H S^-1 f is about prod |z_i|^-2 at large n and is computed as 1
    minus a sum near 1; masses near the circle cancel in the kernel's
    numerator and denominator.  So no fixed number of guard bits suffices:
    the value is computed with 32, 64, ... guard bits until two runs agree
    to mu.precision + 8 bits, and the later one is rounded to mu.precision.
    If the runs have not settled by _GUARD_CAP guard bits, the last pivot
    is not told apart from zero and NotPositiveDefinite is raised.
    """
    out = context(mu.precision)
    guard, prev = 32, None
    while True:
        try:
            bits = mu.precision + guard
            cur = _to_mpf(context(bits), *_uvarov_ratio(mu, n, shift, bits))
        except NotPositiveDefinite as err:
            cur, failed = None, err
        if (cur is not None and prev is not None
                and abs(cur - prev) <= cur * 2 ** -(mu.precision + 8)):
            return out.mpf(mu.weight.psi0 * cur)
        if guard >= _GUARD_CAP:
            raise failed if cur is None else NotPositiveDefinite(
                len(mu.spectrum), cur ** 2)
        prev, guard = cur, 2 * guard


def tau_n(mu: MeasureSpec, n: int):
    """Leading coefficient of the degree-n orthonormal polynomial (mpf).

    With masses and n >= deg psi, by the closed form (_closed_form_leading);
    otherwise by the Gram route (_gram_leading).
    """
    if mu.spectrum.masses and n >= mu.weight.psi.hi:
        return _closed_form_leading(mu, n)
    return _gram_leading(mu, n, laurent=False)


def eta_n(mu: MeasureSpec, n: int):
    """Leading coefficient of the orthonormal Laurent element (mpf).

    Multiplying the span {z^-(n-1), ..., z^n} by z^(n-1) makes eta_n the
    tau_(2n-1) of the measure with masses m_i |z_i|^(-2(n-1)); with masses
    and 2n - 1 >= deg psi that goes through the closed form, otherwise
    through the Gram route.
    """
    if mu.spectrum.masses and n >= 1 and 2 * n - 1 >= mu.weight.psi.hi:
        return _closed_form_leading(mu, 2 * n - 1, shift=n - 1)
    return _gram_leading(mu, n, laurent=True)


def orthonormal_element(mu: MeasureSpec, n: int, laurent: bool = False) -> tuple:
    """The orthonormal element itself: its coefficients of z^lo..z^n, mpc
    at working precision, with lo = -(n - 1) for the Laurent element and 0
    for the polynomial.

    The witness of the constrained extremal problem, untrimmed: the last
    entry, the z^n coefficient, is real positive and equals tau_n (or
    eta_n).
    """
    lo = -(n - 1) if laurent else 0
    if laurent and n < 1:
        raise ValueError("laurent elements need n >= 1")
    return _escalate(mu, n, lambda bits: constrained_max_leading(
        _gram_from_exponents(mu, range(lo, n + 1), bits))[1])


# ----------------------------------------------------------------------
# residue identity

_GRID_CAP = 1 << 20


def _reflected_factors(ctx, masses: Sequence) -> list:
    """(zeta_i, rot_i) for the positively normalized reflected product."""
    out = []
    for z, _ in masses:
        zeta = 1 / ctx.conj(ctx.mpc(z))
        out.append((zeta, -abs(zeta) / zeta))
    return out


def _node_values(x: tuple, psi: list, factors: list, f: int) -> list:
    """The residue integrand's weights at the node x, in fixed point.

    x, psi's coefficients (constant first) and each reflected factor's
    (zeta, rot) are integer pairs at f fractional bits, and so is each
    weight w[k] = B^k(x) / conj(psi(x)) for k = 0..K, B^k the product of the
    first k reflected factors, taken as prefix products in one pass.  psi(x)
    is evaluated by Horner, 1/conj(psi) = psi/|psi|^2 by one integer
    division per part, and each factor rot (x - zeta) / (1 - conj(zeta) x)
    enters the running product by one integer complex division.  Each
    factor is unimodular on the circle, so w[k] is
    1 / (conj(psi(x)) conj(B^k(x))), and a term is numerator times weight.
    """
    one, half = 1 << f, 1 << (f - 1)
    xr, xi = x
    wr, wi = _reflect(_horner(psi, x, f), f)
    weights = [(wr, wi)]
    for (zr, zi), (rr, ri) in factors:
        # u = rot (x - zeta) and v = 1 - conj(zeta) x, rounded at f
        ur = (rr * (xr - zr) - ri * (xi - zi) + half) >> f
        ui = (rr * (xi - zi) + ri * (xr - zr) + half) >> f
        vr = ((one << f) - zr * xr - zi * xi + half) >> f
        vi = (zi * xr - zr * xi + half) >> f
        # w u conj(v) / |v|^2, rounded once
        ar, ai = wr * ur - wi * ui, wr * ui + wi * ur
        den = vr * vr + vi * vi
        wr, wi = _rdiv(ar * vr + ai * vi, den), _rdiv(ai * vr - ar * vi, den)
        weights.append((wr, wi))
    return weights


def _interleave(even: list, odd: list) -> list:
    out = [None] * (len(even) + len(odd))
    out[::2], out[1::2] = even, odd
    return out


class ResidueNodes:
    """The residue quadrature's nodes for one measure, shared by the checks
    of every (n, k) on it, in fixed point on Python integers.

    The table sits on the finest power-of-two grid asked for so far, in
    node order.  It holds, as integer pairs at f = bits + _GUARD_BITS
    fractional bits, each node x_p = exp(2 pi i p / G), the weights
    B^k(x_p) / conj(psi(x_p)) for k = 0..k_max (the first k_max masses, all
    by default; see _node_values), and the numerators R_n(x_p) x_p^(-n) of
    the element in use only: about k_max + 3 pairs per node.  A grid of
    g = G/m nodes reads every m-th node, and growing to twice the size
    evaluates only the odd nodes.

    A numerator is sum_j a_j x_p^(j-n), and x_p^e is itself the table node
    x_((e p) mod G); so each numerator is one exact integer dot product of
    the element's coefficients against table nodes, rounded once, filled
    once every node of the grid exists.  A term is one exact integer
    complex product of numerator and weight, and a grid mean (mean) is the
    exact integer sum of its terms rounded once to bits.  The same node
    comes out on any grid that holds x_p and an integer sum does not depend
    on its order, so a shared and an unshared table give the same mean bit
    for bit.

    Error bound.  Let eps = 2^-f.  Every input (a node, a coefficient c_j
    of psi, a reflected zero zeta_i and its rotation, a coefficient a_j of
    the element) is held within eps in modulus, and every rounding adds at
    most eps.  Write L for the number of element coefficients,
    A = sum |a_j|, d = deg psi, S = sum |c_j|, delta = min |psi| on the
    circle and rho_i = 1 - |zeta_i|.  To first order in eps a numerator is
    within (A + L + 1) eps, the weight w[k] within E_k eps with
    E_k = (1 + d (S + 2)) / delta^2 + 1 + sum_(i <= k) (8 / (delta rho_i) + 1),
    and so every term and the unrounded mean within
    (A E_k + (A + L + 1) / delta) eps of the exact trapezoidal sum of the
    element as given.  The mean's rounding adds a relative 2^-bits.  On
    the measures of the tests, n up to 12, the bracket stays below 2^13
    (largest for a root of psi at |z| = 1.05, where delta = 1/21), so the
    table adds at most 2^(-19 - bits), 2^-35 of the check's 2^(16 - bits).
    """

    def __init__(self, mu: MeasureSpec, k_max: int | None = None):
        masses = mu.spectrum.masses[:k_max]
        self.mu = mu
        self.k_max = len(masses)
        self._ctx = context(mu.precision)
        self._f = f = mu.precision + _GUARD_BITS
        wide = context(f + 4)
        self._psi = [_fixed_pair(wide.mpc(c), f) for c in mu.weight.psi.coeffs]
        self._factors = [(_fixed_pair(zeta, f), _fixed_pair(rot, f))
                         for zeta, rot in _reflected_factors(wide, masses)]
        # node, weight and numerator columns: real and imaginary parts
        self._x: list = [[], []]
        self._w: list = [[[], []] for _ in range(self.k_max + 1)]
        self._num: list = [[], []]
        self._given = self._element = None
        self._coeffs: tuple = ((), ())
        self._n = 0

    @property
    def grid(self) -> int:
        return len(self._x[0])

    def use(self, element: tuple, n: int) -> tuple:
        """Make element, the Laurent element of degree n (its coefficients
        of z^-(n-1)..z^n), the one whose numerators the table holds.

        Returns its coefficients moved into the measure's context without
        rounding, so that arithmetic on them rounds at the measure's
        precision even when the element was solved at an escalated one.
        """
        if element is not self._given:
            self._given, self._n = element, n
            self._element = tuple(map(self._ctx.convert, element))
            pairs = [_fixed_pair(c, self._f) for c in element]
            self._coeffs = tuple(map(list, zip(*pairs)))
            self._num = [[None] * self.grid, [None] * self.grid]
        return self._element

    def mean(self, k: int, grid: int):
        """The circle mean over the grid of that size of the terms
        R_n(x) x^(-n) / (conj(psi(x)) conj(B^k(x))) of the element in use:
        the exact integer sum of the terms, rounded once to an mpc at the
        measure's precision."""
        self._grow(grid)
        m = self.grid // grid
        num_re, num_im = self._num
        for p in range(0, self.grid, m):
            if num_re[p] is None:
                num_re[p], num_im[p] = self._numerator(p)
        wr, wi = (col[::m] for col in self._w[k])
        re, im = _dot(num_re[::m], num_im[::m], wr, wi)
        return _to_mpc(self._ctx, re, im,
                       -2 * self._f - (grid.bit_length() - 1))

    def _numerator(self, p: int) -> tuple:
        """R_n(x_p) x_p^(-n) of the element in use, the exact dot product of
        its coefficients with table nodes rounded once to f bits."""
        size, f = self.grid, self._f
        cr, ci = self._coeffs
        e0 = 1 - 2 * self._n
        idx = [(e * p) % size for e in range(e0, e0 + len(cr))]
        x_re, x_im = self._x
        re, im = _dot(cr, ci, [x_re[i] for i in idx], [x_im[i] for i in idx])
        half = 1 << (f - 1)
        return (re + half) >> f, (im + half) >> f

    def _grow(self, grid: int) -> None:
        while self.grid < grid:
            old = self.grid
            size = 2 * old if old else grid
            # the kept nodes are the even ones of the new grid
            xs = _circle_nodes(size, 1 if old else 0, 2 if old else 1, self._f)
            ws = [_node_values(x, self._psi, self._factors, self._f)
                  for x in xs]
            fresh = [list(col) for col in zip(*xs)]
            fresh_w = [[list(col) for col in zip(*w)] for w in zip(*ws)]
            fresh_num = [[None] * len(xs), [None] * len(xs)]
            if old:
                fresh = [_interleave(a, b) for a, b in zip(self._x, fresh)]
                fresh_w = [[_interleave(a, b) for a, b in zip(wa, wb)]
                           for wa, wb in zip(self._w, fresh_w)]
                fresh_num = [_interleave(a, b)
                             for a, b in zip(self._num, fresh_num)]
            self._x, self._w, self._num = fresh, fresh_w, fresh_num


def residue_identity_check(mu: MeasureSpec, n: int, k: int,
                           element: tuple | None = None,
                           nodes: ResidueNodes | None = None) -> dict:
    """Contour-integral identity for the Laurent element R_n and the first k
    masses.

    LHS: circle mean of R_n(x) x^(-n) / (conj(psi(x)) conj(B^k(x))), the
    quadrature of the contour integral of R_n/(psi_* z^(n+1) B^k_*).
    RHS: eta_n/(B^k(0) psi(0)) minus the residue sum at the first k mass
    points.  Returns both sides, their gap, and the Cauchy-Schwarz majorant
    of the residue sum.  element is orthonormal_element(mu, n, laurent=True),
    the 2n coefficients of z^-(n-1)..z^n, solved here when not given; a
    caller checking several k at one n solves it once.  nodes is a ResidueNodes table of mu, built here when not
    given; a caller checking several (n, k) shares one, so each node's
    psi and Blaschke values are computed once and its element value once
    per n.  The record is the same bit for bit either way.
    """
    if not 0 <= k <= len(mu.spectrum):
        raise ValueError("k must be between 0 and the number of masses")
    pts = mu.spectrum.masses[:k]
    for i in range(k):
        for j in range(i + 1, k):
            if pts[i][0] == pts[j][0]:
                raise FieldError("masses", "chosen mass points must be distinct")
    if nodes is None:
        nodes = ResidueNodes(mu, k)
    elif nodes.mu is not mu or nodes.k_max < k:
        raise ValueError("nodes must be a table of this measure holding k masses")
    bits = mu.precision
    ctx = context(bits)
    if element is None:
        element = orthonormal_element(mu, n, laurent=True)
    elif len(element) != 2 * n:
        raise ValueError("element must be the Laurent element of degree n")
    # an escalated element keeps its coefficients but is evaluated at bits;
    # Horner in ctx.polyval wants them highest first
    r_elem = nodes.use(element, n)[::-1]
    psi = [ctx.mpc(c) for c in mu.weight.psi.coeffs[::-1]]
    factors = _reflected_factors(ctx, pts)
    eta = r_elem[0].real

    # closed-form side
    b0 = ctx.mpf(1)
    for zeta, _ in factors:
        b0 *= abs(zeta)
    rhs = eta / (b0 * ctx.mpf(mu.weight.psi0))
    majorant = ctx.mpf(0)
    for i, (z, mass) in enumerate(pts):
        zi = ctx.mpc(z)
        zeta_i, rot_i = factors[i]
        deriv = ctx.conj(rot_i) * (-ctx.conj(zeta_i) ** 2 / (1 - abs(zeta_i) ** 2))
        for j, (zeta_j, rot_j) in enumerate(factors):
            if j != i:
                deriv *= ctx.conj(rot_j) * (1 - ctx.conj(zeta_j) * zi) / (zi - zeta_j)
        if deriv == 0:
            raise ValueError("degenerate double point in the reflected product")
        denom = deriv * ctx.conj(ctx.polyval(psi, zeta_i)) * zi ** (n + 1)
        rhs -= ctx.polyval(r_elem, zi) * zi ** (1 - n) / denom
        majorant += 1 / (abs(denom) ** 2 * mass)

    # quadrature side: each doubling of the grid evaluates only its odd
    # nodes (see ResidueNodes)
    tol = ctx.mpf(2) ** (-min(bits, 160) + 20)
    grid = _next_pow2(max(8 * (n + 1), 256))
    prev = nodes.mean(k, grid)
    while True:
        if 2 * grid > _GRID_CAP:
            raise QuadratureError(
                f"residue quadrature did not converge by {_GRID_CAP} nodes")
        grid *= 2
        cur = nodes.mean(k, grid)
        if abs(cur - prev) <= tol:
            break
        prev = cur
    lhs = cur
    return {
        "n": n,
        "k": k,
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs(lhs - rhs),
        "schwarz_majorant": majorant,
        "grid": grid,
    }


# ----------------------------------------------------------------------
# slow-decay condition report


def log_condition_report(spectrum: PointSpectrum, a_list: Sequence[float],
                         n_max: int) -> dict:
    """(log n)^A-weighted near-circle mass tails over a log-spaced n grid.

    For each A, reports (log n)^A * sum of mu_k over 1 < |z_k| < 1 + 1/n and
    whether the sequence stays bounded across the tested range (no growth
    from the first half of the grid to the second beyond a factor 2).
    """
    if not a_list:
        raise ValueError("need at least one exponent A")
    ns = []
    n = 2
    while n < n_max:
        ns.append(n)
        n *= 2
    ns.append(n_max)
    tails = []
    for n in ns:
        cut = 1.0 + 1.0 / n
        tails.append(sum(m for z, m in spectrum.masses if 1.0 < abs(z) < cut))
    per_a = {}
    for a in a_list:
        vals = [math.log(n) ** a * t for n, t in zip(ns, tails)]
        half = len(vals) // 2
        first = max(vals[: half + 1]) if vals else 0.0
        second = max(vals[half:]) if vals else 0.0
        bounded = second <= 2.0 * first + 1e-12
        per_a[a] = {"values": vals, "bounded": bounded}
    return {"n_values": ns, "tail_sums": tails, "per_A": per_a}
