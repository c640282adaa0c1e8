"""Orthogonal systems for a circle measure with point masses outside.

The measure is dm/|psi|^2 on the unit circle plus finitely many point
masses at |z_k| > 1, psi a zero-free-on-the-closed-disk Taylor polynomial
with psi(0) > 0.  This module computes trigonometric moments (cached, on
integers: the Taylor coefficients of N/psi, xlinalg._quotient_series), Gram
matrices over polynomial and Laurent spans, the leading coefficients tau_n
and eta_n of the orthonormal elements, a contour-integral residue identity
connecting the Laurent leading coefficient to point evaluations at the
masses, and the slow-decay condition report for mass sequences
accumulating at the circle.

The residue identity's quadrature evaluates its integrand at the nodes of
one power-of-two circle grid per (n, k), in fixed point on Python
integers.  A ResidueNodes table belongs to one measure and the rows (n, k)
of one run, and certifies every row's grid before any node is evaluated
(see the class).  It holds each node and its weights B^k/conj(psi) as
integer pairs at bits + 32 fractional bits, psi in its own scale, so the
checks of all its rows evaluate psi and the Blaschke factors once per node
and each Laurent element once per node.  Since every power of a
node is another node of the grid, each numerator R_n(x) x^(-n) is one
exact integer dot product of the element's coefficients against table
nodes, rounded once, and each grid mean is the exact integer sum of its
terms, rounded once to the measure's precision, as is the right-hand side
from the same integers.

tau_n and eta_n have two routes.  With masses and degree at least deg psi
they come from Uvarov's closed form: the Bernstein-Szego orthonormal
polynomials and their Christoffel-Darboux kernel reduce the Gram solve to
a K-by-K system for K masses, whatever n is.  That system is built and
factored on Python integers (xlinalg._cholesky_fixed) and rounded to an
mpmath number once.  Mass-free measures, where the closed form is the
constant psi(0), and lower degrees take the Gram route: 1/sqrt of the
Schur complement of z^n in the Gram matrix, held and factored on integers,
the Cholesky factor's last pivot (schur_leading).  A mass-free eta_n is
tau_(2n-1), and tau_n is tau_(min(n, deg psi)), so every Gram matrix the
route factors has at most deg psi + 1 rows; the full-size route stays the
tests' oracle for the reduced values and for the closed form.  The residue
check's orthonormal Laurent elements come from the same closed form where
2n - 1 >= deg psi: Uvarov's element, one back substitution on the ratio's
factor and a Christoffel-Darboux division per mass, O(K n); without masses
psi's own coefficients.  Below that degree they are the extremal witnesses
of the Laurent Gram matrices, one integer back substitution each, which
stay the tests' oracle.  The entries with masses, and moment, follow one
integer rule (_inner_products).  A measure enters the fixed point in one
place, _mass_terms, which the Gram entries, the closed form, the residue
check and the lower-bound pipeline (asymptotics) all read: psi and the
masses read exactly, the masses reflected.

Precision escalation is explicit: the Gram route starts at the
first tag that holds its entries (at least the measure's tag), a failure
there is retried at the next tag, and the failure is reported, never
hidden.  The closed form runs once, at 32 guard bits above the measure's
tag, with a certified error radius, and keeps the run when its ball
decides the rounding (Ziv's test); otherwise it runs again at twice the
guard bits, and raises NotPositiveDefinite if no run is decided by
_GUARD_CAP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from szego_lab.circle_fourier import (
    LaurentPolynomial,
    _alias_bound,
    _certified_grid,
    _next_pow2,
)
from szego_lab.contract import (
    FieldError,
    PrecisionExhausted,
    QuadratureError,
    _as_int,
)
from szego_lab.xlinalg import (
    _GUARD_BITS,
    PRECISION_BITS,
    HermitianMatrix,
    NotPositiveDefinite,
    PrecisionTag,
    _balance,
    _ball_to_mpf,
    _bound_err,
    _circle_nodes,
    _cholesky_fixed,
    _cdiv,
    _cmul,
    _cpow,
    _dot,
    _extremal,
    _extremal_of_factor,
    _dyadic,
    _float_up,
    _horner,
    _horner_err,
    _mag,
    _mags,
    _mul_err,
    _pow_err,
    _quotient_series,
    _rdiv,
    _rdiv_sqrt,
    _reflect,
    _round_bits,
    _scale_up,
    _schur_ball,
    _shift,
    _to_mpc,
    _to_mpf,
    context,
    next_tag,
    schur_leading,
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
    "target_limit",
    "residue_identity_check",
    "log_condition_report",
]


@dataclass(frozen=True)
class OuterWeight:
    """Finite zero-free Taylor polynomial weight, positive at the origin.

    Zero-freeness on the closed disk is certified by _psi_floor on the unit
    circle; the least root modulus of psi, zero_modulus (inf for a constant
    psi), is a float estimate that places the residue check's circles.
    """

    psi: LaurentPolynomial
    label: str = ""

    def __post_init__(self):
        p = self.psi
        if not np.isfinite(p.coeffs).all():
            raise ValueError("psi coefficients must be finite")
        if p.lo < 0:
            raise ValueError("weight must have nonnegative exponents only")
        c0 = complex(p.coefficient(0))
        if c0.imag != 0.0 or c0.real <= 0.0:
            raise ValueError("psi(0) must be real and positive")
        if not _psi_floor(p.coeffs, 1.0) > 0.0:
            raise ValueError("psi must be zero-free on the closed unit disk")

    @functools.cached_property
    def zero_modulus(self) -> float:
        """Computed on first read: the residue check is its one reader."""
        p = self.psi
        if p.hi < 1:
            return math.inf
        return float(np.abs(np.roots(p.coeffs[::-1])).min())

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


# (psi, bits) -> (N, t, e), the 8 last used (each call re-inserts its key).
_moment_cache: dict = {}


def _bernstein_szego_head(coeffs: Sequence[complex], f: int) -> list:
    """N_0..N_d, integer pairs at f fractional bits (any integer f), with
    sum_m t_m z^m = N/psi for psi = sum_j c_j z^j (see _trig_moments).

    1/conj(psi) = psi/|psi|^2 has no positive frequencies and constant term
    1/c_0, so sum_j c_j t_(k-j) = [k == 0]/c_0 for k >= 0, t_(-m) =
    conj(t_m): rows k = 0..d are a nonsingular real system in the parts of
    t_0..t_d, and N_k = [k == 0]/c_0 - sum_(j>k) c_j conj(t_(j-k)).
    The c_j = C_j 2^-e are dyadic, c_0 = p_0/q_0, so 2^e times the system
    is an integer matrix A.  A y = e_0 is solved exactly by fraction-free
    Gauss-Jordan elimination (Bareiss), which leaves every diagonal entry
    equal to the last pivot D; so y = Y/D, t_m = 2^e q_0 Y_m / (p_0 D) and
    N_k = q_0 ([k == 0] D - sum_(j>k) C_j conj(Y_(j-k))) / (p_0 D), each
    part rounded once; N_0 = c_0 t_0 is real, its imaginary part 0.
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
    c_re, c_im = ints[0::2], ints[1::2]
    y_re, y_im = [r[size] for r in a[0::2]], [-r[size] for r in a[1::2]]
    sums = [_dot(c_re[k + 1:], c_im[k + 1:], y_re[1:d + 1 - k],
                 y_im[1:d + 1 - k]) for k in range(d + 1)]
    num, den = q0 << max(f, 0), p0 * prev << max(-f, 0)  # 2^f / (c_0 D)
    return [(_rdiv(((k == 0) * prev - sr) * num, den), _rdiv(-si * num, den))
            for k, (sr, si) in enumerate(sums)]


def _trig_moments(weight: OuterWeight, m_max: int, bits: int) -> tuple:
    """t_m = circle mean of e^(-i m t)/|psi|^2 for m = 0..m_max, cached:
    (t, e), integer pairs t holding at least those moments as t 2^e; makes
    no mpmath number.  They are xlinalg._quotient_series(N, psi) for psi
    2^-s, c_0 2^-s in [1, 2): its N (_bernstein_szego_head) is 2^s N, its
    moments 2^(2s) t_m at f = bits + 32 fractional bits, its t_0 at least
    1/(4 binom(2d, d)) as |c_j| <= binom(d, j) c_0.  Each t_k = (N_k -
    sum_(j>=1) c_j t_(k-j)) / c_0 is rounded once, stably (the roots of the
    recurrence lie in the disk): a few units of 2^-f against t_0 in all.
    """
    key = (weight.coeff_key(), bits)
    cached = _moment_cache.pop(key, None)
    if cached is None or len(cached[1]) <= m_max:
        s, f = math.frexp(key[0][0].real)[1] - 1, bits + _GUARD_BITS
        head = cached[0] if cached else _bernstein_szego_head(key[0], f + s)
        t = _quotient_series(head, _mass_terms(key[0], (), f - s)[0], m_max + 1, f)
        cached = head, t, -f - 2 * s
    _moment_cache[key] = cached
    for old in list(_moment_cache)[:-8]:
        _moment_cache.pop(old, None)
    return cached[1:]


def moment(mu: MeasureSpec, j: int, k: int):
    """The L2(mu) inner product <z^j, z^k> at mu's precision, an mpc: the
    Gram entry of the one entry rule (_inner_products)."""
    lower, e = _inner_products(mu, (j, k), mu.precision)
    return _to_mpc(context(mu.precision), *lower[1][0], e)


def _inner_products(mu: MeasureSpec, exps: Sequence[int], bits: int) -> tuple:
    """The Gram matrix of the z^e, e in exps, at bits, as (lower, e): row
    r, column c <= r of lower is <z^(e_c), z^(e_r)> 2^-e =
    t_(e_c - e_r) + sum_i m_i z_i^(e_c) conj(z_i)^(e_r), on integers from
    _trig_moments and _mass_terms at f = bits + 32 (z and m exact,
    1/z = conj(zeta)), each power z^e one _cmul of the one before it.  Each
    entry is an exact sum with each part rounded once to the tag
    (_round_bits), so its diagonal is exactly real."""
    f = bits + _GUARD_BITS
    lo, hi = min(0, *exps), max(0, *exps)
    t, t_exp = _trig_moments(mu.weight, max(exps) - min(exps), bits)
    base = min(t_exp, -3 * f)  # the common exponent of every sum
    t = [(re << t_exp - base, im << t_exp - base) for re, im in t]
    masses = []  # per mass, m z^p and z^p for p in exps
    for z, (xr, xi), _, _, m, _ in _mass_terms(
            mu.weight.coeff_key(), mu.spectrum.masses, f)[1]:
        pw = {0: (1 << f, 0)}
        for p in range(1, hi + 1):
            pw[p] = _cmul(pw[p - 1], z, f)
        for p in range(-1, lo - 1, -1):
            pw[p] = _cmul(pw[p + 1], (xr, -xi), f)
        m <<= -3 * f - base
        masses.append(([(m * pw[p][0], m * pw[p][1]) for p in exps],
                       [pw[p] for p in exps]))
    lower = []
    for r, e_r in enumerate(exps):
        row = []
        for c, e_c in enumerate(exps[:r + 1]):
            re, im = t[abs(e_c - e_r)]
            im = im if e_c >= e_r else -im  # t_(-d) = conj(t_d)
            for mz, pw in masses:
                (ar, ai), (br, bi) = mz[c], pw[r]
                re, im = re + ar * br + ai * bi, im + ai * br - ar * bi
            row.append((_round_bits(re, bits), _round_bits(im, bits)))
        lower.append(row)
    return lower, base


def _gram_from_exponents(mu: MeasureSpec, exps: Sequence[int], bits: int) -> HermitianMatrix:
    if mu.spectrum.masses:
        return HermitianMatrix(*_inner_products(mu, exps, bits), bits)
    # every entry is a moment's conjugate: round each moment once (rounding
    # commutes with conj) for all entries; the exponents are consecutive,
    # so row r is conj(t_r), ..., conj(t_0)
    n = len(exps)
    values, e = _trig_moments(mu.weight, n - 1, bits)
    conj = [(_round_bits(re, bits), -_round_bits(im, bits))
            for re, im in values[:n]]
    return HermitianMatrix([conj[r::-1] for r in range(n)], e, bits)


def gram_polynomial(mu: MeasureSpec, n: int, bits: int | None = None) -> HermitianMatrix:
    """Gram matrix of {1, z, ..., z^n} at the tag bits (default mu's
    precision); the pivot z^n sits last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bits = mu.precision if bits is None else PrecisionTag(bits).bits
    return _gram_from_exponents(mu, range(n + 1), bits)


def gram_laurent(mu: MeasureSpec, n: int, bits: int | None = None) -> HermitianMatrix:
    """Gram matrix of {z^-(n-1), ..., z^n} at the tag bits (default mu's
    precision); the pivot z^n sits last."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = mu.precision if bits is None else PrecisionTag(bits).bits
    return _gram_from_exponents(mu, range(-(n - 1), n + 1), bits)


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


def _escalate(mu: MeasureSpec, n: int, build_and_solve, solve: str):
    """Run build_and_solve(bits) under the explicit escalation protocol,
    starting at the precision floor for degree n; PrecisionExhausted names
    the solve and n."""
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
    raise PrecisionExhausted(tuple(tried), last.pivot, f"{solve} at n = {n}")


def _gram_leading(mu: MeasureSpec, n: int, laurent: bool):
    """tau_n (or eta_n with laurent) by the Gram route, under the escalation
    protocol: 1/sqrt of the Schur complement of the pivot z^n, the
    Cholesky factor's last pivot (schur_leading).  tau_n and eta_n call it
    at degree at most deg psi; at any n it is their tests' oracle."""
    gram = gram_laurent if laurent else gram_polynomial
    return _escalate(mu, n, lambda b: schur_leading(gram(mu, n, b)),
                     "the Gram route's Schur complement")


@functools.lru_cache(maxsize=8)
def _mass_terms(psi: tuple, masses: tuple, f: int) -> tuple:
    """The measure at f fractional bits, on integers: (coeffs, terms) with
    psi's coefficients c_j, constant first, and per mass (z, m) the tuple
    (z, zeta, u, r, m, 1/m), complex values as pairs.  c_j, z and m are
    read exactly (doubles are dyadic); zeta = 1/conj(z), the reflected
    zero, u = z/|z|, r = 1/|z| = |zeta| and 1/m are each rounded once, and
    the rotation -|zeta|/zeta is -conj(u).  Makes no mpmath number."""
    coeffs = tuple((_dyadic(c.real, f), _dyadic(c.imag, f)) for c in psi)
    out = []
    for z, m in masses:
        zr, zi = _dyadic(z.real, f), _dyadic(z.imag, f)
        z2 = zr * zr + zi * zi  # |z|^2 at 2f, exact
        p, q = m.as_integer_ratio()
        out.append(((zr, zi), _reflect((zr, zi), f),
                    (_rdiv_sqrt(zr << f, z2), _rdiv_sqrt(zi << f, z2)),
                    _rdiv_sqrt(1 << 2 * f, z2), _dyadic(m, f), _rdiv(q << f, p)))
    return coeffs, tuple(out)


# radii, in units of 2^-f, of the values _uvarov_terms rounds from z (see
# there)
_E_ZETA, _E_U, _E_R, _E_R2 = 2.0, 3.0, 2.0, 3.0


@functools.lru_cache(maxsize=8)
def _uvarov_terms(psi: tuple, masses: tuple, f: int) -> tuple:
    """The degree-free parts of Uvarov's system at f, with psi held at its
    own scale: psi times 2^-s, psi(0) 2^-s in [1, 2), as ResidueNodes holds
    it.  That is the measure times 2^(2s), whose masses are m_i 2^(2s),
    whose tau_n / psi(0) is the measure's own and whose orthonormal
    elements are the measure's times 2^-s.  Returns (coeffs, psi_sum, terms):
    the scaled psi's coefficients c_j at f, constant first, a bound
    S >= sum_j |c_j|,
    and per mass (z, zeta, u, r, 1/|z|^2, 2^(-2s)/m, w, q, radii) from
    _mass_terms, w = psi(1/z) and q = sum_j conj(c_j) u^j r^(d-j) = r^d p(z)
    by Horner, neither growing with |z|; cached, so every n and both
    coefficients share them.

    radii is (|z|, 1/|z|, e_w, e_q), with w and q within e_w and e_q units
    of 2^-f of the exact values.  _mass_terms reads psi's coefficients and
    z within half a unit per part (exactly where they are dyadic at f), so
    within 1; a value rounded once from z moves with z by at most its
    derivative, so zeta = 1/conj(z) and r = 1/|z| are within 2 (_E_ZETA,
    _E_R), u = z/|z| (each part one isqrt, within 1) and 1/|z|^2 within 3
    (_E_U, _E_R2), and 2^(-2s)/m, m read exactly, within 1.  Each Horner step
    adds a rounded product (_bound_err), every partial sum of modulus at
    most S and the argument at most 1, and a coefficient's error.
    """
    s = math.frexp(psi[0].real)[1] - 1
    coeffs = _mass_terms(psi, (), f - s)[0]
    psi_sum = sum(_mag(c, f) for c in coeffs)
    out = []
    for (point, m), (z, (xr, xi), u, r, _, _) in zip(
            masses, _mass_terms(psi, masses, f)[1]):
        p, q = m.as_integer_ratio()
        b, rj = [], (1 << f, 0)  # conj(c_j) r^(d-j), from j = d down
        e_rj = e_b = 0.0
        for cr, ci in reversed(coeffs):
            b.append(_cmul((cr, -ci), rj, f))
            e_b = max(e_b, _bound_err(psi_sum, 1.0, 1.0, e_rj, f))
            rj = _cmul(rj, (r, 0), f)
            e_rj = _bound_err(1.0, e_rj, 1.0, _E_R, f)
        e_w, e_q = 1.0, e_b
        for _ in coeffs[1:]:
            e_w = _bound_err(psi_sum, e_w, 1.0, _E_ZETA, f) + 1.0
            e_q = _bound_err(psi_sum, e_q, 1.0, _E_U, f) + e_b
        z_abs = abs(point)
        out.append((z, (xr, xi), u, r,
                    _rdiv(1 << 3 * f, z[0] ** 2 + z[1] ** 2),
                    _rdiv(q << max(f - 2 * s, 0), p << max(2 * s - f, 0)),
                    _horner(coeffs, (xr, -xi), f), _horner(b[::-1], u, f),
                    (z_abs, 1.0 / z_abs, e_w, e_q)))
    return coeffs, psi_sum, tuple(out)


def _uvarov_system(mu: MeasureSpec, n: int, shift: int, bits: int) -> tuple:
    """Uvarov's system [[S, f], [f^H, 1]] at bits (see
    _closed_form_leading), on integers, with psi at its own scale
    (_uvarov_terms): (rows, points, radius), rows its lower triangle at
    f = bits + 32 fractional bits as _cholesky_fixed(rows, -f, bits) reads
    it, per mass (p, phi_n, e_p, e_f), the pair p and phi_n at z_i, each
    times |z_i|^-(n+1), within e_p and e_f units of 2^-f, and radius[i][j]
    a bound on entry (i, j)'s error in units of 2^-f, scaled as
    _cholesky_fixed scales the system (xlinalg._balance).

    Row and column i are scaled by |z_i|^-(n+1), so the entries stay
    bounded as n grows: with the terms of _uvarov_terms at f,
    p(z) |z|^-(n+1) = r^(n+1-d) q, phi_n(z) |z|^-(n+1) = u^n r w,
    phi_(n+1)(z) |z|^-(n+1) = u^(n+1) w, and the reweighted 1/m is
    |z|^-2(n+1-shift) / m.  Each kernel entry is the exact numerator
    divided once by the exact 1 - z_i conj(z_l).

    Each entry's radius comes from its own rounding and its inputs' radii,
    a priori.  Every exact input has modulus at most S (p, phi_n, phi_(n+1))
    or 1 (u^n, r^(n+1-d)); the powers are _cpow chains (xlinalg._pow_err).
    A kernel entry N'/D' from the computed N' and D' is within
    (|N' - N| + |N'/D'| |D' - D|) / |D| of N/D, and |D' - D| <= |z_i| + |z_l|
    + 1 units, as z is read within one.
    """
    f = bits + _GUARD_BITS
    d = mu.weight.psi.hi
    coeffs, psi_sum, terms = _uvarov_terms(mu.weight.coeff_key(),
                                        mu.spectrum.masses, f)
    # per mass: z, p, f and phi_(n+1) at z, each times |z|^-(n+1), the
    # reweighted 1/m, and the radii
    points = []
    e_un = _pow_err(_E_U, n, 1.0, f)
    for z, _, u, r, r2, inv_m, w, q, (z_abs, r_f, e_w, e_q) in terms:
        uw = _cmul(_cpow(u, n, f), w, f)
        e_uw = _bound_err(1.0, e_un, psi_sum, e_w, f)
        e_rp = _pow_err(_E_R, n + 1 - d, r_f, f)
        e_r2p = _pow_err(_E_R2, n + 1 - shift, r_f * r_f, f)
        r2_pow = _cpow((r2, 0), n + 1 - shift, f)
        points.append((
            z, _cmul(q, _cpow((r, 0), n + 1 - d, f), f), _cmul(uw, (r, 0), f),
            _cmul(uw, u, f), _cmul((inv_m, 0), r2_pow, f)[0],
            _bound_err(psi_sum, e_q, 1.0, e_rp, f),
            _bound_err(psi_sum, e_uw, 1.0, _E_R, f),
            _bound_err(psi_sum, e_uw, 1.0, _E_U, f), z_abs, inv_m, e_r2p))
    # G's lower triangle at f: S_il = [i == l]/m_i + K(z_i, z_l), and the
    # last row conj(f_l) and 1; beside it, each kernel entry's radius
    one = 1 << 2 * f
    rows, kernel = [], []
    for i, ((zr, zi), (pr, pi), _, (hr, hi), inv_m, e_p, _, e_h, z_abs,
            *_) in enumerate(points):
        row, rad = [], []
        for (lr, li), (qr, qi), _, (gr, gi), _, e_pl, _, e_hl, zl_abs, *_ in (
                points[: i + 1]):
            # p_i conj(p_l) - phi_i conj(phi_l) over 1 - z_i conj(z_l)
            nr = pr * qr + pi * qi - hr * gr - hi * gi
            ni = pi * qr - pr * qi - hi * gr + hr * gi
            dr, di = one - zr * lr - zi * li, zr * li - zi * lr
            den = dr * dr + di * di
            row.append((_rdiv((nr * dr + ni * di) << f, den),
                        _rdiv((ni * dr - nr * di) << f, den)))
            e_den = z_abs + zl_abs + 1.0
            # |N' - N|, |D' - D| and a bound below |D|
            rad.append((psi_sum * (e_p + e_pl + e_h + e_hl)
                        + math.ldexp(e_p * e_pl + e_h * e_hl, -f), e_den,
                        math.sqrt(_float_up(den, -4 * f))
                        - math.ldexp(e_den, -f)))
        kernel.append([(e_num + size * e_den) / low + 1.0 if low > 0.0
                       else math.inf for (e_num, e_den, low), size in zip(
                           rad, _mags(row, f))])
        row[-1] = (row[-1][0] + inv_m, 0)
        rows.append(row)
    rows.append([(fr, -fi) for _, _, (fr, fi), *_ in points] + [(1 << f, 0)])
    scale = [_balance(row[-1][0], -f) for row in rows]
    radius = [[_scale_up(e, -k - scale[l]) for l, e in enumerate(rad)]
              for k, rad in zip(scale, kernel)]
    for i, (k, (*_, inv_m, e_r2p)) in enumerate(zip(scale, points)):
        # the reweighted 1/m: 1/m within one unit, |z|^-2(n+1-shift) <= 1
        # within e_r2p, the product rounded once
        radius[i][i] += (_float_up(inv_m, -f - 2 * k) * e_r2p
                         + _scale_up(2.0 + math.ldexp(e_r2p, -f), -2 * k))
    radius.append([_scale_up(e_f, -scale[-1] - k)
                   for k, (*_, e_f, _, _, _, _) in zip(scale, points)] + [0.0])
    return rows, [(p, fv, e_p, e_f)
                  for _, p, fv, _, _, e_p, e_f, *_ in points], radius


def _uvarov_factor(mu: MeasureSpec, n: int, shift: int, bits: int) -> tuple:
    """Uvarov's system at bits (_uvarov_system), equilibrated and factored by
    xlinalg._cholesky_fixed as the Gram route's matrices are, which raises
    NotPositiveDefinite as on the Gram route: (factor, points, ball), ball
    the certified bound of xlinalg._schur_ball on the factor, or None."""
    rows, points, radius = _uvarov_system(mu, n, shift, bits)
    factor = _cholesky_fixed(rows, -bits - _GUARD_BITS, bits)
    return factor, points, _schur_ball(factor, radius, bits)


def _uvarov_ratio(mu: MeasureSpec, n: int, shift: int, bits: int) -> tuple:
    """tau_n / c_0 = sqrt(1 - f^H S^-1 f) at bits (see _closed_form_leading),
    on integers: (man, exp, radius), the ratio man 2^exp before any rounding
    to an mpmath number, the factor's last pivot, and radius a float bound
    on its relative error (inf where _schur_ball cannot tell).  With the
    pivot l = man 2^-f of the equilibrated system and eps its Schur ball,
    the exact pivot is within eps 2^-f / l of l, so the relative radius is
    eps 2^-f / l^2, taken from man's leading bits and its length, so that
    no step leaves the float range.
    """
    f = bits + _GUARD_BITS
    (*_, diag, scale), _, ball = _uvarov_factor(mu, n, shift, bits)
    man = diag[-1]
    if ball is None:
        return man, scale[-1] - f, math.inf
    length = man.bit_length()
    lead = _float_up(man, -length)  # man 2^-length, in [1/2, 1]
    radius = math.ldexp(ball[0] / (lead * lead), f - 2 * length)
    return man, scale[-1] - f, max(radius, math.ulp(0.0)) * (1 + 2.0 ** -20)


def _uvarov_element(mu: MeasureSpec, n: int, shift: int, bits: int) -> tuple:
    """phi_n, n >= deg psi, of the measure with each mass m_i reweighted by
    |z_i|^(-2 shift), times 2^-s for psi at its own scale (_uvarov_terms),
    on integers: (coeffs, radius), its coefficients of 1, z, ..., z^n as
    pairs at f = bits + 32 fractional bits, from the one factor of the
    ratio's system (see _closed_form_leading), and a bound on every
    coefficient's error in units of 2^-f (inf where _schur_ball cannot
    tell).

    For A = [[S, f], [f^H, 1]] of _uvarov_system, x = A^-1 e_K has
    x_K = 1/sigma, sigma = 1 - f^H S^-1 f, and x_i = -(S - f f^H)^-1 f for
    i < K, where S - f f^H is Uvarov's matrix diag(1/m) + [K_(n-1)(z_i,
    z_l)], scaled as S is: Uvarov's lambda times -c_0.  So
    phi_n^mu = sqrt(sigma) phi_n + sum_i v_i K_(n-1)(z, z_i) |z_i|^-(n+1),
    v = x / sqrt(x_K) the extremal witness of A (_extremal_of_factor) and
    sqrt(sigma) the factor's last pivot, the closed form's ratio.  By
    Christoffel-Darboux the i-th term is N_i(z) / (1 - z conj(z_i)),
    N_i = v_i [p(z) conj(p_i) - phi_n(z) conj(f_i)] with the system's
    scaled p_i and f_i, a polynomial whose root is zeta_i = 1/conj(z_i).
    Its quotient's coefficients come from the top down,
    b_(m-1) = (b_m - a_m) zeta_i for the coefficients a_m of N_i, each
    product rounded once: |zeta_i| < 1 shrinks every earlier rounding, so
    the division is stable.  O(K n) after the O(K^3) factor.

    The radius.  In the equilibrated system v_i = 2^-k_i w_i sqrt(x_K),
    against 2^-k_i w'_i / sqrt(sigma') exactly.  The ball (_schur_ball)
    bounds sigma' within eps units of l^2 and the computed w within delta
    plus the back substitution's cols_i l^2 units of w', so apart from
    sqrt(x_K) v_i is within 2^-k_i (cols_i l^2 + delta) / l units, plus its
    own rounding.  sqrt(x_K), after x_K's two roundings, is within
    1 + sqrt(2) eps / l^2 units relative of 1 / sqrt(sigma'); it scales
    every v_i alike, so it moves the mass terms' sum, the element less
    sqrt(sigma) psi, by that relative error as a whole.  The products
    alpha_i = v_i conj(p_i), beta_i = v_i conj(f_i) and each a_m follow
    _bound_err; the division carries an error through G_i =
    min(n, 1 / (1 - |zeta_i|)) steps at most, each adding
    |b - a| e_zeta + |zeta_i| e_a + 1 units with |b - a| <= A (1 + G_i),
    A >= |a_m|.  The ratio sqrt(sigma) is within 2^k_K eps / l units.
    """
    f = bits + _GUARD_BITS
    coeffs, psi_sum, terms = _uvarov_terms(mu.weight.coeff_key(),
                                        mu.spectrum.masses, f)
    d = len(coeffs) - 1
    factor, points, ball = _uvarov_factor(mu, n, shift, bits)
    _, _, diag, scale = factor
    ratio = (_shift(diag[-1], scale[-1]), 0)  # sqrt(sigma) at f
    out = [(0, 0)] * (n - d) + [_cmul(ratio, c, f) for c in coeffs[::-1]]
    v = _extremal_of_factor(factor, bits, f)
    parts = []  # per mass, (alpha, beta): what the radius reads
    for vi, (pv, fv, _, _), (_, zeta, *_) in zip(v, points, terms):
        alpha = _cmul(vi, (pv[0], -pv[1]), f)  # v_i conj(p_i)
        beta = _cmul(vi, (fv[0], -fv[1]), f)  # v_i conj(f_i)
        parts.append((alpha, beta))
        br, bi = 0, 0
        for m in range(n, 0, -1):
            # a_m = alpha conj(c_m) [m <= d] - beta c_(n-m) [n - m <= d]
            ar = ai = 0
            if m <= d:
                ar, ai = _cmul(alpha, (coeffs[m][0], -coeffs[m][1]), f)
            if n - m <= d:
                cr, ci = _cmul(beta, coeffs[n - m], f)
                ar, ai = ar - cr, ai - ci
            br, bi = _cmul((br - ar, bi - ai), zeta, f)
            out[m - 1] = out[m - 1][0] + br, out[m - 1][1] + bi
    if ball is None:
        return out, math.inf
    eps, _, delta, cols = ball
    low = _float_up(diag[-1], -f)
    if not _scale_up(low * low, f) > 2.0 * eps:
        return out, math.inf
    c_top = max(_mag(c, f) for c in coeffs)
    # the ratio's error, and sqrt(x_K)'s, which moves every v_i by the same
    # factor and so the mass terms' sum, out - ratio psi, as a whole
    top = _float_up(max(max(abs(re), abs(im)) for re, im in out), 1 - f)
    radius = (_bound_err(1.0, _scale_up(eps / low, scale[-1]), c_top, 1.0, f)
              + (1.0 + 1.5 * eps / (low * low)) * (top + c_top))
    for vi, (_, _, e_p, e_f), (*_, (_, r_f, _, _)), (alpha, beta), k, ci in (
            zip(v, points, terms, parts, scale, cols)):
        e_v = _scale_up((ci * low * low + delta) / low, -k) + 1.5
        v_mag, a_mag, b_mag = _mag(vi, f), _mag(alpha, f), _mag(beta, f)
        e_a = (_bound_err(a_mag, _bound_err(v_mag, e_v, psi_sum, e_p, f),
                          c_top, 1.0, f)
               + _bound_err(b_mag, _bound_err(v_mag, e_v, psi_sum, e_f, f),
                            c_top, 1.0, f))
        reach = min(n, 1.0 / (1.0 - r_f))
        big_a = (a_mag + b_mag) * c_top
        radius += reach * (big_a * (1.0 + reach) * _E_ZETA + r_f * e_a + 1.0)
    return out, radius * (1 + 2.0 ** -20)


_GUARD_CAP = 1 << 14


def _certify(mu: MeasureSpec, run):
    """One certified run: run(bits) at mu.precision plus 32 guard bits,
    and at twice as many each time it returns None, Ziv's test on its
    radius having failed, or raises NotPositiveDefinite: (result, guard).
    Past _GUARD_CAP guard bits the last run's failure is raised, a failed
    test as NotPositiveDefinite(number of masses)."""
    guard = 32
    while True:
        try:
            out, failed = run(mu.precision + guard), None
        except NotPositiveDefinite as err:
            out, failed = None, err
        if out is not None:
            return out, guard
        if guard >= _GUARD_CAP:
            raise failed or NotPositiveDefinite(len(mu.spectrum))
        guard *= 2


def _closed_form_leading(mu: MeasureSpec, n: int, shift: int = 0) -> tuple:
    """Uvarov's formula for tau_n, n >= deg psi, with each mass m_i
    reweighted by |z_i|^(-2 shift); O(K^3 + K^2 d) for K masses, any n.
    Returns (tau_n, guard, radius): the mpf at mu's precision, the guard
    bits of the run that certified it and its certified relative radius.

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
    numerator and denominator.  So no fixed number of guard bits suffices.
    The value is computed once, at 32 guard bits, with a certified radius
    (_uvarov_ratio), and accepted by Ziv's test: the ball of psi(0) times
    the ratio, on integers, rounds to a single mpf at mu.precision, which is
    the value.  Otherwise it is run again at twice the guard bits
    (_certify); past _GUARD_CAP the last pivot is not told apart from zero
    and NotPositiveDefinite is raised.
    """
    p0, q0 = mu.weight.psi0.as_integer_ratio()
    ctx = context(mu.precision)

    def run(bits):
        man, exp, radius = _uvarov_ratio(mu, n, shift, bits)
        if not math.isfinite(radius):
            return None
        a, b = radius.as_integer_ratio()
        value = _ball_to_mpf(ctx, p0 * man, -(-p0 * man * a // b),
                             exp + 1 - q0.bit_length())
        return None if value is None else (value, radius)

    (value, radius), guard = _certify(mu, run)
    return value, guard, radius


def _closed_form_element(mu: MeasureSpec, n: int, frac: int) -> tuple:
    """The orthonormal Laurent element of degree n, 2n - 1 >= deg psi, in
    closed form: (pairs, radius), its coefficients of z^-(n-1)..z^n as
    integer pairs at frac fractional bits, each rounded once, and a bound on
    every coefficient's error in units of 2^-frac.

    It is z^-(n-1) phi_(2n-1) of the measure whose masses are reweighted by
    |z_i|^(-2(n-1)), the measure eta_n's closed form reads.  Without masses
    that is psi's coefficients, exactly: c_j at z^(n-j).  With masses it is
    _uvarov_element under the closed form's policy (_certify): one run,
    accepted by Ziv's test when every coefficient's radius is at most
    2^-(mu.precision + 8) of the largest, which must not be 0.  That
    radius, moved to frac, plus one unit for the rounding, is the bound;
    without masses the bound is the one unit.
    """
    coeffs = _mass_terms(mu.weight.coeff_key(), (), frac)[0]
    if not mu.spectrum.masses:
        return [(0, 0)] * (2 * n - len(coeffs)) + list(coeffs[::-1]), 1.0

    def run(bits):
        element, radius = _uvarov_element(mu, 2 * n - 1, n - 1, bits)
        top = max(max(abs(re), abs(im)) for re, im in element)
        return ((element, radius)
                if _scale_up(radius, mu.precision + 8) <= top else None)

    (element, radius), guard = _certify(mu, run)
    # psi at its own scale: the element times 2^-s at f fractional bits
    s = math.frexp(mu.weight.psi0)[1] - 1
    move = frac + s - mu.precision - guard - _GUARD_BITS
    return ([(_shift(re, move), _shift(im, move)) for re, im in element],
            _scale_up(radius, move) + 1.0)


def _leading(mu: MeasureSpec, n: int, shift: int, record: dict | None):
    """The closed form's tau_n at degree n and shift, its guard bits and
    relative radius put in record if one is given."""
    value, guard, radius = _closed_form_leading(mu, n, shift)
    if record is not None:
        record.update(guard_bits=guard, relative_radius=radius)
    return value


def tau_n(mu: MeasureSpec, n: int, record: dict | None = None):
    """Leading coefficient of the degree-n orthonormal polynomial (mpf).

    With masses and n >= deg psi, by the closed form (_closed_form_leading),
    which puts the guard bits it settled at and its certified relative
    radius in record, if one is given; otherwise by the Gram route
    (_gram_leading).  Without masses dm/|psi|^2 is a Bernstein-Szego
    weight: its Verblunsky coefficients vanish from index deg psi on, so
    tau_n = tau_(deg psi) for n >= deg psi, and the Gram route runs at
    degree min(n, deg psi), on at most deg psi + 1 rows.
    """
    if not mu.spectrum.masses:
        return _gram_leading(mu, min(n, mu.weight.psi.hi), laurent=False)
    if n >= mu.weight.psi.hi:
        return _leading(mu, n, 0, record)
    return _gram_leading(mu, n, laurent=False)


def eta_n(mu: MeasureSpec, n: int, record: dict | None = None):
    """Leading coefficient of the orthonormal Laurent element (mpf).

    Multiplying the span {z^-(n-1), ..., z^n} by z^(n-1) makes eta_n the
    tau_(2n-1) of the measure with masses m_i |z_i|^(-2(n-1)); with masses
    and 2n - 1 >= deg psi that goes through the closed form, recorded as
    tau_n's, otherwise through the Gram route.  Without masses the
    reweighting is void and the Laurent span's Gram matrix is the Toeplitz
    matrix of the polynomials of degree 2n - 1, so eta_n is tau_n(mu, 2n - 1)
    bit for bit.
    """
    if n >= 1 and not mu.spectrum.masses:
        return tau_n(mu, 2 * n - 1)
    if n >= 1 and 2 * n - 1 >= mu.weight.psi.hi:
        return _leading(mu, 2 * n - 1, n - 1, record)
    return _gram_leading(mu, n, laurent=True)


# ----------------------------------------------------------------------
# residue identity

_GRID_CAP = 1 << 20
# the bytes a residue table may hold
_TABLE_BUDGET = 1 << 30
# the circles |y| = r^s, r the modulus of psi's nearest zero, on which the
# quadrature's inner side bounds the integrand: densest toward the zero
_LADDER = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16)
# the fewest samples of psi per circle whose minimum _psi_floor certifies
_PSI_SAMPLES = 1024
# and the most it evaluates at once
_PSI_BLOCK = 1 << 14


def _log_sum(logs: list) -> float:
    """log sum_j e^(l_j), for a nonempty list."""
    top = max(logs)
    if not math.isfinite(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _psi_margin(psi: np.ndarray, binom: np.ndarray, radius: float):
    """_psi_floor's rounding margin for each float |b_m| on the circle
    |y| = radius, binom holding the C(j, m): 64 (d + 1) u S_m, u = 2^-53
    and S_m = sum_j C(j, m) |c_j| radius^j (see _psi_floor)."""
    with np.errstate(all="ignore"):
        err = len(psi) * 2.0 ** -47 * binom @ (
            radius ** np.arange(len(psi)) * np.abs(psi))
    return err


def _psi_floor(psi: np.ndarray, radius: float) -> float:
    """A certified lower bound for min |psi| on the circle |y| = radius, or
    0.0 where none is certified; psi holds the coefficients, constant
    first, as complex floats.

    psi is sampled at N equispaced points y_k, h = 2 pi / N apart in angle.
    About y_k psi is its own finite Taylor series, psi(y_k (1 + w)) =
    sum_m b_m w^m with b_m = sum_j C(j, m) c_j y_k^j, and |w| <= t within
    angle t of y_k, so |psi| >= |b_0| - sum_(m >= 1) |b_m| t^m there.  If
    that is positive at t = h for every k, each arc from y_k to y_(k+1)
    keeps psi in a disk about psi_k that misses 0, so the winding number is
    the sum of the principal arguments of consecutive sample ratios, and it
    must be 0: psi has no zero in |y| <= radius.  The least bound at
    t = h / 2, which reaches every point, is the floor.

    For psi of degree d, the floats move each |b_m| by at most
    30 (d + 1) u S_m, u = 2^-53 and S_m = sum_j C(j, m) |c_j| radius^j, and
    the margin is 64 (d + 1) u S_m.  The rounded C(j, m) c_j and the d - m
    complex Horner steps of b_m / y_k^m, each a product within 2 sqrt(2) u
    and a sum within u (Higham, Accuracy and Stability, 2002, lemma 3.5 and
    section 5.1), leave 4 (d + 1) u S_m.  The sample point, 2 pi k / N
    rounded twice, then exp and the radius, lies within 16 u radius of y_k,
    which moves b_m by at most 17 u sum_j (j - m) C(j, m) |c_j| radius^j <=
    17 d u S_m.  The test's moduli, powers and sums add (2 d + 9) u S_0 at
    most, as its terms stay below |b_0| <= S_0.  N starts at _PSI_SAMPLES
    and jumps to the least power of two, at least 2N, whose step keeps each
    term below its sample's |b_0|; past _GRID_CAP samples nothing is
    certified.  A float root estimate may choose the radius; only this check
    certifies it.
    """
    js = np.arange(len(psi))
    binom = np.array([[float(math.comb(j, m)) for j in js] for m in js])
    # b_m / y_k^m, of modulus |b_m| radius^-m
    shifts = [LaurentPolynomial(0, binom[m, m:] * psi[m:]) for m in js]
    ms = js[1:, None]  # the orders m >= 1 of the sums
    err = _psi_margin(psi, binom, radius)
    if len(psi) == 1:  # every sample is psi(0), and no term bounds a step
        return float(abs(psi[0]) - err[0])
    size = _PSI_SAMPLES
    while True:
        h, block = 2 * math.pi / size, min(size, _PSI_BLOCK)
        low, ok, reach, turns = math.inf, True, math.inf, 0.0
        for start in range(0, size, block):
            # a block of samples and the next one, for the last ratio
            with np.errstate(all="ignore"):
                y = radius * np.exp(2j * math.pi * np.arange(
                    start, start + block + 1) / size)
                b = np.array([np.broadcast_to(p(y), y.shape) for p in shifts])
                a = np.abs(b[0, :-1]) - err[0]
                rest = np.abs(b[1:, :-1]) * radius ** ms + err[1:, None]
                near = rest * h ** ms  # the terms |b_m| t^m at t = h
                ok = ok and bool(np.all(a > near.sum(0)))
                if ok:
                    low = min(low, float(np.min(a - (near * 0.5 ** ms).sum(0))))
                else:  # a bound fails past the t where one term reaches a
                    ratio = (np.where(a > 0.0, a, 0.0) / rest) ** (1 / ms)
                    reach = min(reach, float(np.min(ratio, initial=math.inf)))
                turns += float(np.angle(b[0, 1:] / b[0, :-1]).sum())
        if ok:
            return low if abs(turns) < math.pi else 0.0
        if size >= _GRID_CAP or not 2 * math.pi < reach * _GRID_CAP:
            return 0.0
        size = max(2 * size, _next_pow2(math.ceil(2 * math.pi / reach)))


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
        # w u / v, rounded once
        wr, wi = _cdiv((wr * ur - wi * ui, wr * ui + wi * ur), (vr, vi), 0)
        weights.append((wr, wi))
    return weights


def _interleave(even: list, odd: list) -> list:
    out = [None] * (len(even) + len(odd))
    out[::2], out[1::2] = even, odd
    return out


class ResidueNodes:
    """The residue quadrature's nodes for one measure and the rows (n, k)
    of one run, in fixed point on Python integers.

    Building the table does every row's work that evaluates no node, in
    this order: each row is checked (0 <= k <= the number of masses, the
    first k masses distinct, n >= 1), a chosen mass too far for the fixed
    point is refused, and so is a row with 2n > _GRID_CAP; then, row by
    row, the element of each n is computed once (_use) and the row's
    right-hand side and certified grid are computed once (_sides).  So a
    row whose grid would pass _GRID_CAP is refused before any node is
    evaluated, whatever row comes first.  residue_identity_check reads a
    row's sides from the table and evaluates its grid; the table of a
    check that is given none holds that check's row alone, and either way
    the record is the same bit for bit.

    The nodes sit on the finest power-of-two grid asked for so far, in
    node order.  The table holds, as integer pairs at f = bits + _GUARD_BITS
    fractional bits, each node x_p = exp(2 pi i p / G), the weights
    B^k(x_p) / conj(psi(x_p)) for k up to the largest of the rows (see
    _node_values), and the numerators R_n(x_p) x_p^(-n) of the element in
    use only: about k + 3 pairs per node.  A grid of g = G/m nodes reads
    every m-th node, and growing to twice the size evaluates only the odd
    nodes.  psi and the element are held times 2^-s, psi(0) 2^-s in
    [1, 2), which cancels in every term and in the bound.

    A numerator is sum_e a_e x_p^e over the exponents e = 1 - 2n..0, and
    x_p^e is itself the table node x_((e p) mod G).  The nodes satisfy
    x_(p + G/4) = i x_p exactly, so x_(e (p + j G/4)) = i^(e j) x_(e p), and
    four exact sums S_r = sum_(e = r mod 4) a_e x_((e p) mod G) give the
    numerators at p, p + G/4, p + G/2 and p + 3G/4 as sum_r i^(r j) S_r,
    by swaps and negations (_numerators).  The nodes also satisfy
    x_(G - p) = conj(x_p) exactly, so for 0 < p < G/8 the same products,
    summed against the conjugated nodes, give the four numerators of
    G/4 - p: one pass over the element's coefficients and the table nodes
    per eight numerators, each numerator the same exact sum, rounded once.
    A term is one exact integer complex product of numerator and weight,
    and a grid mean (mean) is the exact integer sum of its terms rounded
    once to bits.  The same node comes out on any grid that holds x_p and
    an integer sum does not depend on its order, so a shared and an
    unshared table give the same mean bit for bit.

    Error bound.  Let eps = 2^-f.  Every input (a node, a coefficient c_j
    of psi, a reflected zero zeta_i and its rotation) is held within eps in
    modulus, each coefficient a_j of the element within e_a eps, and every
    rounding adds at most eps: e_a is 1 for psi's own coefficients and the
    Gram witness, and the certified radius of a closed-form run plus its
    rounding otherwise (_closed_form_element).  Write L for the number of
    element coefficients, A = sum |a_j|, d = deg psi, S = sum |c_j|,
    delta = min |psi| on the circle and rho_i = 1 - |zeta_i|.  To first
    order in eps a numerator is within (A + L e_a + 1) eps, the weight w[k]
    within E_k eps with
    E_k = (1 + d (S + 2)) / delta^2 + 1 + sum_(i <= k) (8 / (delta rho_i) + 1),
    and so every term and the unrounded mean within
    (A E_k + (A + L e_a + 1) / delta) eps of the exact trapezoidal sum of
    the exact element.  The mean's rounding adds a relative 2^-bits, at most
    2^-bits A / delta.  _sides computes this bracket for each row, from the
    row's element, the masses and a certified delta (_psi_floor); it is
    part of the row's quad_bound.
    """

    def __init__(self, mu: MeasureSpec, rows: Sequence[tuple]):
        rows = list(dict.fromkeys(rows))  # in order, each row once
        if not rows:
            raise ValueError("a residue table needs at least one row (n, k)")
        for _, k in rows:
            if not 0 <= k <= len(mu.spectrum):
                raise ValueError("k must be between 0 and the number of masses")
        k_max = max(k for _, k in rows)
        if len({z for z, _ in mu.spectrum.masses[:k_max]}) < k_max:
            raise FieldError("masses", "chosen mass points must be distinct")
        self.mu = mu
        self._ctx = context(mu.precision)
        self._f = f = mu.precision + _GUARD_BITS
        key = mu.weight.coeff_key()
        self._s = s = math.frexp(key[0].real)[1] - 1  # psi(0) 2^-s in [1, 2)
        self._psi = _mass_terms(key, (), f - s)[0]
        self._terms = _mass_terms(key, mu.spectrum.masses, f)[1][:k_max]
        # the right-hand side holds 1/z^2 at f bits: it must keep four
        for (z, m), (*_, r, _, _) in zip(mu.spectrum.masses, self._terms):
            if r * r < 1 << f + 4:
                raise QuadratureError(
                    f"mass at {z} (weight {m}) is too far for the residue "
                    f"check at {mu.precision} bits, which needs |z|^2 <= "
                    f"2^{f - 4} at its {f} fractional bits")
        for n, _ in rows:
            if n < 1:
                raise ValueError("laurent elements need n >= 1")
            if 2 * n > _GRID_CAP:  # refused before any element is solved
                raise QuadratureError(
                    f"the residue quadrature at n = {n} needs at least 2n "
                    f"nodes, more than {_GRID_CAP}")
        self._factors = [(zeta, (-ur, ui))  # rot = -|zeta|/zeta = -conj(u)
                         for _, zeta, (ur, ui), *_ in self._terms]
        # what the certified grid takes from psi (see _sides): S = sum |c_j|,
        # delta, psi's nearest zero r, and per certified circle
        # |y| = 1/rho = r^s of the ladder, (log rho, log min |psi|)
        psi = np.array([complex(re, im) for re, im in self._psi]) * 2.0 ** -f
        self._psi_sum = sum(_mag(c, f) for c in self._psi)
        self._delta = _psi_floor(psi, 1.0)
        self._zero, self._ladder = mu.weight.zero_modulus, []
        # without delta every row is refused (see _sides); the circles
        # nearer the zero are the harder to certify, so the ladder stops at
        # the first that fails
        for s in _LADDER if self._delta > 0.0 and self._zero > 1.0 else ():
            floor = _psi_floor(psi, self._zero ** s)
            if floor == 0.0:
                break
            self._ladder.append((-s * math.log(self._zero), math.log(floor)))
        # node, weight and numerator columns: real and imaginary parts
        self._x: list = [[], []]
        self._w: list = [[[], []] for _ in range(k_max + 1)]
        self._num: list = [[], []]
        self._witnesses: dict = {}  # n -> the element's integer pairs
        self._radii: dict = {}  # n -> its coefficients' error bound, in units
        self._n = 0  # no element in use
        self._rows: dict = {}  # (n, k) -> _sides(k) of the element of n
        for n, k in rows:
            self._use(n)
            self._rows[n, k] = self._sides(k)
        # the finest grid's table: k_max + 3 pairs of f-bit integers per
        # node, each integer about 36 + f/8 bytes with its list slot
        grid = max(g for *_, g, _ in self._rows.values())
        size = grid * (2 * k_max + 6) * (36 + f / 8)
        if size > _TABLE_BUDGET:
            raise QuadratureError(
                f"the residue table of {grid} nodes needs about "
                f"{size / 2 ** 30:.2f} GiB at {f} fractional bits and "
                f"{k_max} masses, more than its budget of "
                f"{_TABLE_BUDGET / 2 ** 30:g} GiB")

    @property
    def grid(self) -> int:
        return len(self._x[0])

    def _use(self, n: int) -> None:
        """Make the Laurent element of degree n (its coefficients of
        z^-(n-1)..z^n) the one whose numerators the table holds, each
        coefficient times 2^-s rounded once to f bits, computed once per n:
        in closed form where 2n - 1 >= deg psi (_closed_form_element, with
        its certified radius), else as the integer extremal witness of its
        Gram matrix (_extremal, escalated as needed, within one unit)."""
        if n == self._n:
            return
        self._n, frac = n, self._f - self._s
        if n not in self._witnesses and 2 * n - 1 < len(self._psi) - 1:
            self._witnesses[n] = _escalate(
                self.mu, n, lambda bits: _extremal(_gram_from_exponents(
                    self.mu, range(1 - n, n + 1), bits), frac)[0],
                "the extremal witness solve")
            self._radii[n] = 1.0
        elif n not in self._witnesses:
            self._witnesses[n], self._radii[n] = _closed_form_element(
                self.mu, n, frac)
        pairs = self._witnesses[n]
        self._coeffs = cr, ci = tuple(map(list, zip(*pairs)))
        # the coefficients by their exponent e = 1 - 2n + j mod 4, for the
        # quartets of numerators (_numerators)
        e0 = 1 - 2 * n
        self._classes = [(range(e0 + j, 1, 4), cr[j::4], ci[j::4])
                         for j in ((r - e0) % 4 for r in range(4))]
        self._moduli = [_mag(c, self._f) for c in pairs]
        self._num = [[None] * self.grid, [None] * self.grid]

    def _sides(self, k: int) -> tuple:
        """The closed-form side of the identity for the element in use and
        the first k masses, and its certified grid: (rhs_re, rhs_im,
        majorant, grid, bound), the right-hand side at f fractional bits and
        the Schwarz majorant at f + 2s.  Evaluates no node.

        The quadrature's integrand is h(x) = R_n(x) x^-n B^k(x) / psi#(1/x),
        psi# with the conjugated coefficients, and a G-point mean differs
        from its constant term by the sum of its coefficients at the nonzero
        multiples of G.  Outside the circle h is meromorphic and bounded at
        infinity, with simple poles at the chosen masses only, so for l >= 1
        its l-th coefficient is -sum_i Res_i z_i^(-l-1) exactly; the terms
        t_i = Res_i / z_i are those of the right-hand side, and that side's
        aliasing is at most sum_i |t_i| q_i / (1 - q_i), q_i = |z_i|^-G,
        with |t_i| rounded up: its computed modulus plus the error of the
        operations that form it, carried beside each value from its inputs'
        units and each rounding's (_mul_err, _horner_err).  Inside, for a
        constant psi, h has no coefficient below 1 - 2n, so that side
        aliases nothing once G >= 2n; otherwise a Cauchy estimate on each
        certified circle |x| = rho of the ladder bounds it by
        M(rho) rho^G / (1 - rho^G), M(rho) = sum_j |a_j| rho^(j-n) /
        min_(|y| = 1/rho) |psi|, as |B^k| <= 1 in the disk, and the least of
        them counts (circle_fourier._alias_bound, as for the outer side).
        The table's rounding (see the class) comes on top, and the sum,
        times 1 + 2^-20 for the floats' own rounding, is the bound.  The
        grid is the least power of two G >= max(2n, 4) whose bound is at
        most 2^(14 - bits), a quarter of the check's 2^(16 - bits)
        (circle_fourier._certified_grid); QuadratureError where it would
        pass _GRID_CAP.
        """
        n, f, bits = self._n, self._f, self.mu.precision
        one, terms, e_a = 1 << f, self._terms[:k], self._radii[self._n]
        # closed-form side, on the table's integers at f: psi and the
        # element times 2^-s, which cancels in every term, each quotient
        # rounded once
        rev = list(zip(*self._coeffs))[::-1]  # z^n first, a polynomial in 1/z
        den = math.prod(r for _, _, _, r, _, _ in terms) * self._psi[0][0]
        rhs_re, rhs_im = _rdiv(rev[0][0] << (k + 1) * f, den), 0  # eta/(B^k(0) psi(0))
        majorant, outer = 0, []
        # beside each value, its error in units of 2^-f (_mul_err): z_i is
        # exact, each element coefficient within e_a units, every other
        # input within one
        for i, (z, zeta, u, r, _, inv_m) in enumerate(terms):
            w = (zeta[0], -zeta[1])  # 1/z_i
            # B^k_*'(z_i) = p/q: conj(rot_i) (-conj(zeta_i)^2) / (1 - |zeta_i|^2)
            # times conj(rot_j) (1 - conj(zeta_j) z_i) / (z_i - zeta_j) for
            # j != i, where conj(rot_j) = -u_j
            ww = _cmul(w, w, f)
            p, ep = _cmul(u, ww, f), _mul_err(u, 1, ww, _mul_err(w, 1, w, 1, f), f)
            q, eq = (one - _shift(r * r, -f), 0), _mul_err((r, 0), 1, (r, 0), 1, f)
            for j, (_, (yr, yi), (vr, vi), *_) in enumerate(terms):
                if j != i:
                    c = _cmul((yr, -yi), z, f)
                    ec = _mul_err((yr, -yi), 1, z, 0, f)
                    v, c = (-vr, -vi), (one - c[0], -c[1])
                    m, em = _cmul(v, c, f), _mul_err(v, 1, c, ec, f)
                    p, ep = _cmul(p, m, f), _mul_err(p, ep, m, em, f)
                    y = (z[0] - yr, z[1] - yi)
                    q, eq = _cmul(q, y, f), _mul_err(q, eq, y, 1, f)
            if p == (0, 0):
                raise ValueError("degenerate double point in the reflected product")
            (pr, pi), epsi = _horner_err(self._psi, zeta, 1, f)
            # q B^k_*'(z_i) conj(psi(zeta_i))
            d, ed = _cmul(p, (pr, -pi), f), _mul_err(p, ep, (pr, -pi), epsi, f)
            # t_i = R_n(z_i) z_i^-(n+1) / (B^k_*'(z_i) conj(psi(zeta_i)))
            h, eh = _horner_err(rev, w, 1, f, e_a)
            h, eh = _cmul(h, w, f), _mul_err(h, eh, w, 1, f)
            h, eh = _cmul(h, q, f), _mul_err(h, eh, q, eq, f)
            tr, ti = _cdiv(h, d, f)
            rhs_re, rhs_im = rhs_re - tr, rhs_im - ti
            # 1 / (|B^k_*'(z_i) conj(psi(zeta_i)) z_i^(n+1)|^2 m_i)
            qr, qi = _cmul(q, _cpow((r, 0), n + 1, f), f)
            majorant += _rdiv((qr * qr + qi * qi) * inv_m, d[0] ** 2 + d[1] ** 2)
            # the outer side: log |z_i| rounded down, and log |t_i| rounded
            # up, with the quotient's error |h/d - H/D| <= (|h| ed + |d| eh)
            # / (|d| |D|), |D| >= |d| - ed, and its rounding
            low = _mag(d, f) * (1 - 2.0 ** -50) - math.ldexp(2, -f)  # <= |d|
            far = low - math.ldexp(ed, -f)  # <= |D|
            et = ((_mag(h, f) * ed + _mag(d, f) * eh) / (low * far)
                  if far > 0.0 else math.inf)
            t_up = (_mag((tr, ti), f) + math.ldexp(et + 1, -f)) * (1 + 2.0 ** -20)
            size = abs(self.mu.spectrum.masses[i][0])
            outer.append((math.log1p(size - 1.0 - size * 2.0 ** -52),
                          math.log(t_up)))
        # the inner side: per certified circle, -log rho and log M(rho)
        inner = [(-log_rho, _log_sum([math.log(a) + e * log_rho for e, a in
                                      enumerate(self._moduli, 1 - 2 * n)])
                  - log_floor) for log_rho, log_floor in self._ladder]
        big_a, delta = sum(self._moduli), self._delta
        gaps = [math.ldexp(max(one - r - 1, 0), -f) for _, _, _, r, _, _ in terms]
        if delta > 0.0 and all(gaps):
            e_k = ((1 + (len(self._psi) - 1) * (self._psi_sum + 2)) / delta ** 2
                   + 1 + sum(8 / (delta * rho) + 1 for rho in gaps))
            rounding = ((big_a * e_k
                         + (big_a + len(self._moduli) * e_a + 1) / delta)
                        * 2.0 ** -f + big_a / delta * 2.0 ** -bits)
        else:
            rounding = math.inf

        def parts(grid: int) -> list:
            """(error bound, what sets it) per source, for a grid."""
            out = [(_alias_bound([pair], grid), f"the mass at {point}")
                   for pair, (point, _) in zip(outer, self.mu.spectrum.masses)]
            if len(self._psi) > 1:
                out.append((_alias_bound(inner, grid),
                            f"the zero of psi at |y| = {self._zero:.15g}"))
            return out + [(rounding, "the fixed-point rounding")]

        def refuse(bound: float) -> QuadratureError:
            return QuadratureError(
                f"the residue quadrature at n = {n}, k = {k} needs more than "
                f"{_GRID_CAP} nodes: its certified bound there is {bound:.3g}, "
                f"above 2^(14 - {bits}), set by "
                f"{max(parts(_GRID_CAP), key=lambda p: p[0])[1]}")

        grid, bound = _certified_grid(
            max(2 * n, 4), lambda g: sum(b for b, _ in parts(g)) * (1 + 2 ** -20),
            2.0 ** (14 - bits), _GRID_CAP, refuse)
        return rhs_re, rhs_im, majorant, grid, bound

    def mean(self, k: int, grid: int):
        """The circle mean over the grid of that size of the terms
        R_n(x) x^(-n) / (conj(psi(x)) conj(B^k(x))) of the element in use:
        the exact integer sum of the terms, rounded once to an mpc at the
        measure's precision.  ValueError unless 0 <= k <= the table's
        masses and the grid is a power of two from 4 to _GRID_CAP."""
        if not 0 <= k <= len(self._factors):
            raise ValueError(f"k must be between 0 and the table's "
                             f"{len(self._factors)} masses")
        if not 4 <= grid <= _GRID_CAP or grid & (grid - 1):
            raise ValueError(f"the grid must be a power of two from 4 to "
                             f"{_GRID_CAP}, not {grid}")
        self._grow(grid)
        m = self.grid // grid
        for p in range(0, self.grid // 4, m):
            if self._num[0][p] is None:
                self._numerators(p)
        num_re, num_im = self._num
        wr, wi = (col[::m] for col in self._w[k])
        re, im = _dot(num_re[::m], num_im[::m], wr, wi)
        return _to_mpc(self._ctx, re, im,
                       -2 * self._f - (grid.bit_length() - 1))

    def _numerators(self, p: int) -> None:
        """Fill the numerators R_n(x) x^(-n) of the element in use at the
        nodes p + j G/4, j = 0..3, for p < G/4: the four exact sums S_r over
        the exponents e = r mod 4 of a_e x_((e p) mod G), combined as
        sum_r i^(r j) S_r, each part rounded once to f bits.  For
        0 < p < G/8 the same products give the nodes q + j G/4 of
        q = G/4 - p too: x_(e q) = i^e conj(x_(e p)) exactly (_circle_nodes),
        so q's sums are i^r T_r, T_r = sum a_e conj(x_((e p) mod G))."""
        size, (x_re, x_im) = self.grid, self._x
        sums, conj_sums = [], []
        for exps, cr, ci in self._classes:
            idx = [e * p % size for e in exps]
            xr, xi = [x_re[i] for i in idx], [x_im[i] for i in idx]
            rr, ii = sum(map(mul, cr, xr)), sum(map(mul, ci, xi))
            ri, ir = sum(map(mul, cr, xi)), sum(map(mul, ci, xr))
            sums.append((rr - ii, ri + ir))
            conj_sums.append((rr + ii, ir - ri))
        quarter = size // 4
        self._fill(p, sums)
        if 0 < 2 * p < quarter:
            (ar, ai), (br, bi), (cr, ci), (dr, di) = conj_sums
            self._fill(quarter - p, [(ar, ai), (-bi, br), (-cr, -ci), (di, -dr)])

    def _fill(self, p: int, sums: list) -> None:
        """The numerators at p + j G/4 from the class sums S_r of p:
        sum_r i^(r j) S_r, by swaps and negations, rounded once to f bits."""
        (ar, ai), (br, bi), (cr, ci), (dr, di) = sums
        f, quarter = self._f, self.grid // 4
        half = 1 << (f - 1)
        num_re, num_im = self._num
        for j, (re, im) in enumerate(((ar + br + cr + dr, ai + bi + ci + di),
                                      (ar - bi - cr + di, ai + br - ci - dr),
                                      (ar - br + cr - dr, ai - bi + ci - di),
                                      (ar + bi - cr - di, ai - br - ci + dr))):
            num_re[p + j * quarter] = (re + half) >> f
            num_im[p + j * quarter] = (im + half) >> f

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
                           nodes: ResidueNodes | None = None) -> dict:
    """Contour-integral identity for the Laurent element R_n and the first k
    masses.

    LHS: circle mean of R_n(x) x^(-n) / (conj(psi(x)) conj(B^k(x))), the
    quadrature of the contour integral of R_n/(psi_* z^(n+1) B^k_*), on one
    grid chosen before any node is evaluated (ResidueNodes._sides): the
    least power of two of at least 2n nodes whose certified bound on the
    quadrature's aliasing and rounding, quad_bound, is at most
    2^(14 - bits).  RHS: eta_n/(B^k(0) psi(0)) minus the residue sum at the
    first k mass points.  R_n is the orthonormal Laurent element, in
    closed form where 2n - 1 >= deg psi (ResidueNodes._use).  Returns both
    sides, their gap, the Cauchy-Schwarz majorant of the residue sum, the
    grid and quad_bound.
    nodes is a ResidueNodes table of mu whose rows include (n, k),
    ValueError otherwise; without one, ResidueNodes(mu, [(n, k)]).
    """
    if nodes is None:
        nodes = ResidueNodes(mu, [(n, k)])
    elif nodes.mu is not mu or (n, k) not in nodes._rows:
        raise ValueError("nodes must be a table of this measure built for "
                         f"the row (n, k) = ({n}, {k})")
    rhs_re, rhs_im, majorant, grid, bound = nodes._rows[n, k]
    nodes._use(n)
    ctx = context(mu.precision)
    lhs = nodes.mean(k, grid)
    rhs = _to_mpc(ctx, rhs_re, rhs_im, -nodes._f)
    return {
        "n": n,
        "k": k,
        "lhs": lhs,
        "rhs": rhs,
        "abs_diff": abs(lhs - rhs),
        "schwarz_majorant": _to_mpf(ctx, majorant, -nodes._f - 2 * nodes._s),
        "grid": grid,
        "quad_bound": bound,
    }


# ----------------------------------------------------------------------
# slow-decay condition report


def log_condition_report(spectrum: PointSpectrum, a_list: Sequence[float],
                         n_max: int) -> dict:
    """(log n)^A-weighted near-circle mass tails over a log-spaced n grid.

    For each A, reports (log n)^A * sum of mu_k over 1 < |z_k| < 1 + 1/n and
    whether the sequence stays bounded across the tested range (no growth
    from the first half of the grid to the second beyond a factor 2).
    The grid starts at n = 2, so n_max must be at least 2.
    """
    if not a_list:
        raise ValueError("need at least one exponent A")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
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
        bounded = max(vals[half:]) <= 2.0 * max(vals[: half + 1]) + 1e-12
        per_a[a] = {"values": vals, "bounded": bounded}
    return {"n_values": ns, "tail_sums": tails, "per_A": per_a}
