"""Finite Blaschke products with a dilated outer corrector.

Given zeros z_1..z_n inside the unit disk and a dilation radius R > 1, the
corrector phi0(z) = prod (1 - conj(z_k) z)/(1 - conj(z_k) z / R^2) is outer,
equals 1 at the origin, and the combined product B(z) phi0(z) coincides with
R^n times the Blaschke product whose zeros are z_k / R evaluated at z / R.
That dilated form is unimodular-factor stable and is how B phi0 is evaluated.

The certificate samples B phi0 once, on the alias grid of its Taylor
coefficients a_0..a_D, cuts them at the degree K <= D where the rest is
rounding, and takes everything from a_0..a_K: the sup of |B phi0| on the
circle, the sup of its s-th derivative from the series with multipliers
j(j-1)...(j-s+1), and the largest weighted dyadic Besov block, where a block
takes a sup grid only while its l1 norm can still reach the largest
(circle_fourier._besov_maxima).  Each sup goes through
circle_fourier.sup_norm_certified, and those of B phi0 and its derivatives
come as a bracket: a Newton-refined grid max, and an upper bound that adds
to the grid bound the truncation tail and the aliasing error, both from the
Cauchy estimates of _tail_envelope (on circles between R and the nearest
pole, the largest over arcs of the circle of the product of each factor's
sup on the arc), the rounding of the samples, the FFTs and the grid values,
and the dropped a_(K+1)..a_D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from szego_lab.circle_fourier import (
    _GRID_CAP,
    LaurentPolynomial,
    SupBound,
    grid_nodes,
    _alias_bound,
    _besov_maxima,
    _certified_grid,
    _sup_grid,
    sup_norm_certified,
)

__all__ = [
    "ZeroSet",
    "BlaschkeProduct",
    "DilatedCorrector",
    "PoleProximityError",
    "TaylorToleranceError",
    "eval_blaschke",
    "build_corrector",
    "corrector_with_radius",
    "eval_phi0",
    "eval_B_phi",
    "taylor_coeffs",
    "corrector_certificate",
]

_POLE_TOL = 2.0 ** -40
# factors per division in eval_blaschke (see _block_length)
_BLOCK = 16
# the sampled series is cut where the rest of its l1 mass falls below this
# share of its l2 norm: below the coefficients' own certified rounding
_NOISE_FLOOR = 2.0 ** -40
# the envelope's (radius, arc, zero) terms are formed this many at a time:
# 64 KB of floats, which glibc serves from the heap, not from fresh pages
_ENVELOPE_BLOCK = 1 << 13


class PoleProximityError(ValueError):
    """Evaluation point within 2^-40 of a pole of the product."""


class TaylorToleranceError(ArithmeticError):
    """Requested aliasing tolerance unreachable; carries the achieved bound."""

    def __init__(self, achieved: float, tol: float):
        self.achieved = achieved
        self.tol = tol
        super().__init__(
            f"aliasing tolerance {tol:g} unreachable; achieved bound {achieved:g}"
        )


@dataclass(frozen=True)
class ZeroSet:
    """Finite multiset of zeros strictly inside the unit circle.
    Multiplicity by repetition."""

    zeros: tuple

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        bad = [z for z in zs if abs(z) >= 1.0]
        if bad:
            raise ValueError(f"zeros must lie inside the disk: {bad[:3]}")

    def __len__(self) -> int:
        return len(self.zeros)

    def __iter__(self):
        return iter(self.zeros)


def _rotation(zeros) -> complex:
    """The product of the factors' unimodular multipliers -|z_k|/z_k =
    -conj(z_k)/|z_k| (1 for z_k = 0), which makes the product positive at
    0.  Each is taken on z_k scaled by 2^600 where |z_k| < 2^-500, which is
    exact and keeps a subnormal z_k's bits: unscaled, |z_k|/z_k overflows,
    or is not unimodular."""
    out = 1.0 + 0.0j
    for zk in zeros:
        if zk:
            s = zk * 2.0 ** 600 if abs(zk) < 2.0 ** -500 else zk
            h = abs(s)
            out *= complex(-s.real / h, s.imag / h)
    return out


def _block_length(zmax: float) -> int:
    """Factors per deferred division at points |z| <= zmax.  Off the 2^-40
    pole margin each denominator 1 - conj(z_k) z lies within
    [min(1/2, 2^-41/zmax), 1 + zmax], and each numerator z - z_k is at most
    1 + zmax, so L factors keep both running products within 2^(+-1000)
    when L max(log2(1 + zmax), 41 + log2 zmax) <= 1000: _BLOCK for
    zmax <= 1, down to 1 as zmax grows."""
    if not zmax > 1.0:
        return _BLOCK
    return max(1, min(_BLOCK, int(1000.0 // (41.0 + math.log2(zmax)))))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Product of disk automorphism factors vanishing at the given zeros.

    Each factor (z - z_k)/(1 - conj(z_k) z) carries the multiplier
    -|z_k|/z_k (plain z for z_k = 0), so the value at 0 is prod |z_k| >= 0.
    """

    zeros: ZeroSet

    @property
    def degree(self) -> int:
        return len(self.zeros)


def eval_blaschke(b: BlaschkeProduct, z):
    """Factor-by-factor evaluation; scalar or ndarray argument.

    The factors (z - z_k)/(1 - conj(z_k) z) are taken in blocks of
    _block_length(max|z|) (16 on |z| <= 1): a block keeps the running
    products of its numerators and of its denominators, each updated by
    one subtraction and one product per factor, and folds their one
    quotient into the result.  The rotations -|z_k|/z_k multiply into one
    unimodular scalar, applied once at the end.  A numerator product may
    sink below the normal range, but on |z| <= 1, where each denominator
    is above 2^-41, that loses less than 2^-400 in absolute value.

    Raises PoleProximityError if z comes within 2^-40 of a pole
    1/conj(z_k).  No pole is formed for a zero with |z_k| (2 max|z| + 1)
    < 1, whose pole lies more than 1/2 beyond every z, and the elementwise
    distance is taken only for a pole that |pole| - max|z| (with a factor
    2 for its rounding) does not already keep that far away.
    """
    zs = b.zeros.zeros
    za = np.asarray(z, dtype=np.complex128)
    scalar = za.ndim == 0
    za = np.atleast_1d(za)
    zmax = float(np.max(np.abs(za), initial=0.0))
    for zk in zs:
        if abs(zk) * (2.0 * zmax + 1.0) >= 1.0:
            pole = 1.0 / zk.conjugate()
            if (abs(pole) - zmax < 2.0 * _POLE_TOL
                    and np.min(np.abs(za - pole)) < _POLE_TOL):
                raise PoleProximityError(f"evaluation within 2^-40 of pole {pole}")
    out = np.ones(za.shape, dtype=np.complex128)
    num = np.empty_like(out)
    den = np.empty_like(out)
    tmp = np.empty_like(out)
    block = _block_length(zmax)
    for lo in range(0, len(zs), block):
        num.fill(1.0)
        den.fill(1.0)
        for zk in zs[lo : lo + block]:
            num *= np.subtract(za, zk, out=tmp)
            if zk:
                np.multiply(zk.conjugate(), za, out=tmp)
                den *= np.subtract(1.0, tmp, out=tmp)
        out *= np.divide(num, den, out=num)
    out *= _rotation(zs)
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class DilatedCorrector:
    """The outer corrector for a zero set at dilation radius R.

    epsilon records k*(R-1) where k is the zero count; constructions coming
    from build_corrector keep it in (0, 1], constructions at an externally
    chosen radius may exceed that and the value is reporting-only there.
    """

    zeros: ZeroSet
    radius_R: float
    epsilon: float

    def __post_init__(self):
        if len(self.zeros) == 0:
            raise ValueError("corrector requires a nonempty zero set")
        if not self.radius_R > 1.0:
            raise ValueError("dilation radius must exceed 1")

    @property
    def n(self) -> int:
        return len(self.zeros)

    def zero_array(self) -> np.ndarray:
        return np.asarray(self.zeros.zeros, dtype=np.complex128)


def build_corrector(zeros: ZeroSet, epsilon: float = 1.0) -> DilatedCorrector:
    """Corrector at the default radius R = 1 + epsilon/k, k the zero count."""
    if len(zeros) == 0:
        raise ValueError("corrector requires a nonempty zero set")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    r = 1.0 + epsilon / len(zeros)
    return DilatedCorrector(zeros, r, epsilon)


def corrector_with_radius(zeros: ZeroSet, radius_R: float) -> DilatedCorrector:
    """Corrector at an externally prescribed radius (epsilon is derived)."""
    return DilatedCorrector(zeros, float(radius_R), len(zeros) * (radius_R - 1.0))


def eval_phi0(c: DilatedCorrector, z):
    """Direct product form of the corrector alone; scalar or ndarray.

    Raises PoleProximityError where a factor's denominator
    1 - conj(z_k) z / R^2 falls below 2^-40 in modulus, that is at or next
    to a pole R^2/conj(z_k).  A scalar z takes a loop over Python complex
    numbers, with no array per factor.
    """
    rr = c.radius_R * c.radius_R
    if np.ndim(z) == 0:
        z = complex(z)
        out = 1.0 + 0.0j
        for zk in c.zeros.zeros:
            if zk == 0:
                continue
            denom = 1.0 - (zk.conjugate() / rr) * z
            if abs(denom) < _POLE_TOL:
                raise PoleProximityError("evaluation too close to a corrector pole")
            out *= (1.0 - zk.conjugate() * z) / denom
        return out
    za = np.asarray(z, dtype=np.complex128)
    out = np.ones(za.shape, dtype=np.complex128)
    for zk in c.zero_array():
        if zk == 0:
            continue
        denom = 1.0 - (np.conj(zk) / rr) * za
        if np.min(np.abs(denom)) < _POLE_TOL:
            raise PoleProximityError("evaluation too close to a corrector pole")
        out *= (1.0 - np.conj(zk) * za) / denom
    return out


def eval_B_phi(c: DilatedCorrector, z):
    """The combined product, evaluated in the dilated form R^n * Btilde(z/R).

    Valid for |z| < R^2; the factors of Btilde are unimodular on |z| = R,
    which keeps the evaluation free of cancellation between the Blaschke
    part and the corrector.
    """
    za = np.asarray(z, dtype=np.complex128)
    scalar = za.ndim == 0
    za = np.atleast_1d(za)
    rr = c.radius_R * c.radius_R
    if np.max(np.abs(za)) >= rr:
        raise ValueError(f"argument outside the analyticity disk |z| < {rr}")
    scaled = BlaschkeProduct(ZeroSet(tuple(zk / c.radius_R for zk in c.zeros)))
    out = (c.radius_R ** c.n) * eval_blaschke(scaled, za / c.radius_R)
    return complex(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Taylor coefficients


def _arc_gaps(zeros: np.ndarray, arcs: int, step: int):
    """x[j, k] <= sin^2(gap/2), gap the angle from arg z_k to the arc
    [2 pi j/arcs, 2 pi (j+1)/arcs], yielded step arcs at a time, rows j =
    lo..lo+step-1 for lo = 0, step, ...: 0 on the arc holding arg z_k, and
    else the squared chord |p - zeta_k|^2 / 4 to the nearer arc end p,
    zeta_k = z_k/|z_k|, lowered by 2^-40, far more than its float error of
    a few units of 2^-53, so that a computed x is never above the true
    one.  A block of step rows is the only matrix held."""
    angles = np.angle(zeros)
    cos, sin = np.cos(angles), np.sin(angles)
    own = _own_arcs(angles, arcs)
    for lo in range(0, arcs, step):
        hi = min(lo + step, arcs)
        ends = np.exp(2j * math.pi / arcs * np.arange(lo, hi + 1))
        chord = 0.5 - 0.5 * (np.outer(ends.real, cos) + np.outer(ends.imag, sin))
        x = np.minimum(chord[:-1], chord[1:])
        x -= 2.0 ** -40
        np.maximum(x, 0.0, out=x)
        (held,) = np.nonzero((own >= lo) & (own < hi))
        x[own[held] - lo, held] = 0.0
        yield x


def _own_arcs(angles: np.ndarray, arcs: int) -> np.ndarray:
    """The arc [2 pi j/arcs, 2 pi (j+1)/arcs] that holds each angle arg z_k.
    A zero within float error of an arc end may land on either arc: the
    other one's x in _arc_gaps is 0 after its margin anyway."""
    turns = angles % (2.0 * math.pi) * (arcs / (2.0 * math.pi))
    return turns.astype(np.intp) % arcs


def _tail_envelope(c: DilatedCorrector) -> list[tuple[float, float]]:
    """Candidate (log rho, log A) pairs with |B phi0| <= A on |z| = rho.

    On |z| = rho, with R <= rho < R^2/|z_k|, the factor of zero z_k has
    modulus |z - z_k| / |1 - conj(z_k) z / R^2|.  With x = sin^2(Delta/2),
    Delta the angle between z and z_k, and q = |z_k| rho / R^2, its square
    is ((rho - |z_k|)^2 + 4 rho |z_k| x) / ((1 - q)^2 + 4 q x), whose
    derivative in x has the sign of
    (1 - rho/R)(1 + |z_k|/R)(1 + rho/R)(1 - |z_k|/R) <= 0: the factor is
    largest at the smallest angle.  Its sup over the whole circle, at
    x = 0, is (rho - |z_k|) / (1 - q).  The circle is cut into
    max(8, n // 4) arcs, and on each arc every factor is bounded by its
    value at the arc point nearest arg z_k (x from _arc_gaps); A is the
    largest product over the arcs.  In logs, as A overflows a float for
    many zeros, it is the sum of the whole-circle log sups plus, on the best
    arc, half the sum of log((1 + u x)/(1 + v x)) <= 0, u = 4 rho |z_k|/
    (rho - |z_k|)^2 and v = 4 q/(1 - q)^2, so A is never above the product
    of the whole-circle sups, and equals it when one arc holds every
    arg z_k.  At rho = R every factor is R and A = R^n.  The ladder
    rho_t = R^(1-t) P^t, t = 1 - 2^-k for k = 1..7, toward the nearest pole
    P = R^2/max|z_k| trades a larger A for the faster decay rho^-j of the
    Cauchy estimate |a_j| <= A rho^-j; it is densest near P, where the best
    rho for a high degree lies, as A grows only like a power of the
    distance to P.
    """
    n = c.n
    big_r = c.radius_R
    out = [(math.log(big_r), n * math.log(big_r))]
    zeros = c.zero_array()
    moduli = np.abs(zeros)
    zmax = float(np.max(moduli))
    if zmax == 0.0:
        return out
    pole = big_r * big_r / zmax
    ladder = [big_r ** (1.0 - t) * pole ** t for t in 1.0 - 2.0 ** -np.arange(1, 8)]
    rhos = np.array([rho for rho in ladder if rho > big_r])[:, None]
    if len(rhos) == 0:  # every radius rounds to R
        return out
    q = moduli * rhos / big_r ** 2
    whole = np.sum(np.log((rhos - moduli) / (1.0 - q)), axis=1)
    arcs = max(8, n // 4)
    u = (4.0 * rhos * moduli / (rhos - moduli) ** 2)[:, None, :]
    v = (4.0 * q / (1.0 - q) ** 2)[:, None, :]
    # a zero with u, v <= 2^-53 on every circle (at or next to the origin,
    # where its angle may be rounding) adds log 1 = 0 on every arc; where
    # one arc holds every other zero, its terms are all 0 too, which the
    # clamp below at 0 gives without the arc loop
    moves = np.max(np.maximum(u, v), axis=(0, 1)) > 2.0 ** -53
    own = _own_arcs(np.angle(zeros[moves]), arcs)
    best = np.zeros(len(rhos))
    if np.any(own != own[:1]):
        step = max(1, _ENVELOPE_BLOCK // (len(rhos) * n))
        best.fill(-math.inf)
        for block in _arc_gaps(zeros, arcs, step):
            ratio = u * block
            ratio += 1.0
            den = v * block
            den += 1.0
            ratio /= den
            np.log(ratio, out=ratio)
            np.maximum(best, ratio.sum(axis=2).max(axis=1), out=best)
    out += [(math.log(rho), float(log_whole) + 0.5 * min(0.0, float(log_arc)))
            for rho, log_whole, log_arc in zip(rhos[:, 0], whole, best)]
    return out


def _alias_grid(upto: int, tol: float, env: list) -> int:
    """The power-of-two grid taylor_coeffs samples on: the first one above
    upto nodes, doubled until the aliasing bound from the envelope env of
    _tail_envelope, set by the distance to the nearest pole, is below tol;
    TaylorToleranceError past 2^22 nodes.  B phi0 has no negative
    frequencies, so an m-point DFT folds onto degree j < m only the
    a_(j+lm), l >= 1, and any m > upto separates a_0..a_upto."""
    return _certified_grid(upto + 1, lambda m: _alias_bound(env, m), tol,
                           _GRID_CAP, lambda b: TaylorToleranceError(b, tol))[0]


def _dft_coeffs(c: DilatedCorrector, upto: int, m: int) -> LaurentPolynomial:
    """a_0..a_upto of B phi0 from its samples on the m-point grid."""
    # the samples are dropped as soon as their FFT is taken
    coeffs = np.fft.fft(eval_B_phi(c, grid_nodes(m)))[: upto + 1] / m
    return LaurentPolynomial(0, coeffs)


def taylor_coeffs(c: DilatedCorrector, upto: int, tol: float = 1e-12) -> LaurentPolynomial:
    """Taylor coefficients of B phi0 on [0, upto] by sampled-circle DFT.

    The grid is doubled until the geometric aliasing bound (from circles
    between R and the nearest pole, all poles having modulus >= R^2) drops
    below tol; an unreachable tolerance raises TaylorToleranceError carrying
    the achieved bound.
    """
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    zs = c.zero_array()
    if np.all(zs == 0):
        # exact monomial z^n
        coeffs = np.zeros(upto + 1, dtype=np.complex128)
        if c.n <= upto:
            coeffs[c.n] = 1.0
        return LaurentPolynomial(0, coeffs)
    return _dft_coeffs(c, upto, _alias_grid(upto, tol, _tail_envelope(c)))


def _tail_bound(env: list, big_n: int, s: int) -> float:
    """Bound on sum_(j>=N) j^s |a_j| from the Cauchy estimates |a_j| <= A
    rho^-j of env: A N^s rho^-N / (1 - r), as the terms fall by at least
    r = ((N+1)/N)^s / rho < 1 from one to the next; the best rho.  That is
    the sum over l >= 1 of (A N^s rho^-N / r) r^l, _alias_bound at m = 1."""
    grow = s * math.log1p(1.0 / big_n)  # log ((N+1)/N)^s
    return _alias_bound([(log_rho - grow, log_a + s * math.log(big_n)
                          - (big_n - 1) * log_rho - grow)
                         for log_rho, log_a in env], 1)


def _truncation_degree(c: DilatedCorrector, s_max: int, tol: float,
                       env: list) -> int:
    """Smallest degree D > n whose truncation tail sum_(j>D) j^s_max |a_j|
    has _tail_bound below tol, from the envelope env of _tail_envelope."""

    def ok(d: int) -> bool:
        return _tail_bound(env, d + 1, s_max) <= tol

    lo = c.n + 1
    hi = lo
    while not ok(hi):
        hi *= 2
        if hi > (1 << 26):
            raise TaylorToleranceError(math.nan, tol)
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


# ----------------------------------------------------------------------
# the sampled form: every sup from one set of Taylor coefficients


def _falling_factorial(d: int, s: int) -> np.ndarray:
    """j (j-1) ... (j-s+1) for j = 0..d: the order-s derivative multipliers."""
    js = np.arange(d + 1, dtype=np.float64)
    out = np.ones(d + 1)
    for k in range(s):
        out *= js - k
    return out


def _alias_folds(env: list, d: int, m: int) -> list[tuple[float, np.ndarray]]:
    """(A rho^-m / (1 - rho^-m), rho^-j for j = 0..d) for each (log rho,
    log A) of env whose weight A rho^-m / (1 - rho^-m), from _alias_bound,
    is finite: the terms of _series_error's aliasing bound that do not
    depend on the derivative order."""
    js = np.arange(d + 1, dtype=np.float64)
    return [(weight, np.exp(-log_rho * js)) for log_rho, log_a in env
            if (weight := _alias_bound([(log_rho, log_a)], m)) < math.inf]


def _series_error(c: DilatedCorrector, env: list, folds: list, d: int, m: int,
                  s: int, oversample: int) -> float:
    """What the order-s grid bound of _sampled_sups misses: a bound on
    sum_j j^s |a_j - a~_j| over all j, where a~ holds the computed m-point
    DFT coefficients on 0..d and zero beyond, plus the rounding of the grid
    values themselves.

    From the Cauchy estimates |a_j| <= A rho^-j of the envelope env: the
    truncation tail _tail_bound(env, d+1, s), plus the aliases folded onto
    0..d, sum_(j<=d) j^s |a_(j+m) + a_(j+2m) + ...| <= A rho^-m /
    (1 - rho^-m) sum_(j<=d) j^s rho^-j at its best rho, with the factors
    folds = _alias_folds(env, d, m) that every order shares.

    Rounding, to first order in u = 2^-53, with real operations within u,
    complex products within sqrt(5) u and complex quotients (Smith's
    algorithm) allowed 8u, is u R^n ((64 K + 8 log2 m) sqrt(S_2) + G S_1)
    with S_1 = sum_(j<=d) j^s, S_2 = sum_(j<=d) j^(2s) and K = sum_k
    kappa_k, kappa_k = 1/(1 - |z_k|/R^2) >= 1:
    - a sample of eval_B_phi is R^n prod phi_k(w) with |phi_k| <= 1 and
      |phi_k'| <= 2 kappa_k on |w| = 1/R.  The node exp(2 pi i p/m) is off
      by 15u and w = z/R by 16u/R, which moves the product by 32u K; the
      rounded zero a = z_k/R moves its factor by 2 kappa_k u, and the
      cancellation in 1 - conj(a) w costs sqrt(5) kappa_k u.  eval_blaschke
      keeps running products of the numerators w - a and of the
      denominators 1 - conj(a) w over blocks of 16 factors, divides once per
      block, and multiplies the rotations -|a|/a = -conj(a)/|a| into one.
      Per factor, the two subtractions, the two running products, the
      rotation (within 3u: a modulus within 2u, then real quotients) and
      its product with the others cost (5 + 3 sqrt(5)) u <=
      (5 + 3 sqrt(5)) kappa_k u.  Each block's quotient (8u) and its
      product into the sample (sqrt(5) u), and once the rotation's product
      with the sample (sqrt(5) u) and the scaling by R^n (3u), cost at most
      (11 + 2 sqrt(5)) u per factor, as there are at most n blocks.  So each
      sample is within (50 + 6 sqrt(5)) u R^n K < 64 u R^n K.  A running
      product below the normal range loses at most 2^-1074 per operation,
      and its block's denominators, each above 2^-41, raise that to below
      2^-400: nothing at this order.
    - by Parseval the m-point DFT divided by m maps sample errors of at most
      e to coefficient errors of l2 norm at most e, and the FFT adds l2
      norm at most 8 u log2 m R^n (Higham, Accuracy and Stability of
      Numerical Algorithms, Thm. 24.2: eta = mu + gamma_4 (sqrt(2) + mu)
      < 8u for twiddles within mu = u).  Cauchy-Schwarz against the
      multipliers f_j <= j^s gives sqrt(S_2).
    - sup_norm_certified evaluates sum f_j a~_j z^j (s + 1 products per
      coefficient) on coset FFTs of at most 2^12 nodes.  A coefficient
      past the first 2^12 is multiplied by an r-th root of unity, its
      phase rounded twice below 2 pi, so within 4 pi u + sqrt(2) u < 15u,
      by a product within sqrt(5) u: 18 roundings.  The fold sums add
      fewer than (d+1)/2^12.  The twist e^(i p t h), p < 2^12, is taken
      exactly at every 16th coset, its phase rounded three times below
      2 pi (21u), and in between as a running product of at most 15
      steps e^(i p h), each of phase below pi (8u) and a product (sqrt(5)
      u), so within 21u + 15 (8 + sqrt(5)) u < 176u, and its product
      with the folded sum adds sqrt(5) u: 178 roundings.  Each output of
      the FFT comes through 12 butterfly stages of one twiddle product
      and one sum, so within 96u sum f_j |a~_j| <= 96u R^n S_1, as
      |a_j| <= R^n by Cauchy on |z| = R, and its modulus adds u.  The
      grid bound divides the grid max by sqrt(cos(pi d/M)) >
      sqrt(cos(pi/oversample)), which gives
      G = (294 + s + (d+1)/2^12) / sqrt(cos(pi/oversample)).
    """
    big_n = d + 1
    js = np.arange(big_n, dtype=np.float64)
    powers = js ** s
    alias = math.inf
    for weight, decay in folds:
        alias = min(alias, weight * float((powers * decay).sum()))
    big_r = c.radius_R
    kappa = float(np.sum(1.0 / (1.0 - np.abs(c.zero_array()) / big_r ** 2)))
    sampled = (64.0 * kappa + 8.0 * math.log2(m)) * math.sqrt(float((powers * powers).sum()))
    grid = (294 + s + big_n / 2 ** 12) / math.sqrt(math.cos(math.pi / oversample))
    rounding = (np.finfo(np.float64).eps / 2 * big_r ** c.n
                * (sampled + grid * float(powers.sum())))
    return _tail_bound(env, big_n, s) + alias + rounding


def _sampled_sups(c: DilatedCorrector, orders: Sequence[int],
                  oversample: int) -> tuple[LaurentPolynomial, dict, dict]:
    """B phi0 sampled once, and the sup of each derivative from its samples.

    One envelope env = _tail_envelope(c) sets the degree D =
    _truncation_degree(c, max order, 1e-9, env) and the alias grid
    _alias_grid(D, 1e-10, env), and the DFT on that grid gives a~_0..a~_D.
    Past the decay point those are rounding, so every sup runs on a~_0..a~_K
    only: K >= n + 1 is the least degree whose tail sum_(j>K) |a~_j| is at
    most _NOISE_FLOOR ||a~||_2.  Returns that truncation of degree K,
    {s: SupBound} for s in orders, and the sizes it settled on:
    truncation_degree D, alias_grid (0 where B phi0 = z^n is taken exactly,
    with D = n) and trim_degree K.  The order-s sup is that of the series
    sum j(j-1)...(j-s+1) a~_j z^j, j <= K, whose modulus on the circle is
    that of the s-th derivative of the truncation; its value is the
    Newton-refined grid max of sup_norm_certified, and its upper bound is
    the grid bound plus _series_error on degree D, which counts truncation,
    aliasing and rounding, plus the dropped sum_(K<j<=D) j(j-1)...(j-s+1)
    |a~_j|, so value <= sup |(B phi0)^(s)| <= upper.  A sup grid past
    _GRID_CAP for degree D, which bounds K, raises GridCapError before
    B phi0 is sampled.
    """
    exact = not np.any(c.zero_array())  # B phi0 = z^n
    env = _tail_envelope(c)
    d = c.n if exact else _truncation_degree(c, max(orders), 1e-9, env)
    _sup_grid(d, oversample)  # K <= D: refused before B phi0 is sampled
    m = 0 if exact else _alias_grid(d, 1e-10, env)
    trunc = taylor_coeffs(c, d) if exact else _dft_coeffs(c, d, m)
    a = np.zeros(d + 1, dtype=np.complex128)
    a[trunc.lo : trunc.hi + 1] = trunc.coeffs
    # beyond[j] = sum_(i>j) |a~_i|, nonincreasing, 0 at j = d
    beyond = np.append(np.cumsum(np.abs(a[:0:-1]))[::-1], 0.0)
    first = int(np.argmax(beyond <= _NOISE_FLOOR * np.linalg.norm(a)))
    k = min(d, max(c.n + 1, first))
    folds = _alias_folds(env, d, m)
    sups = {}
    for s in orders:
        series = _falling_factorial(d, s) * a
        grid = sup_norm_certified(LaurentPolynomial(0, series[: k + 1]), oversample)
        err = 0.0 if exact else (_series_error(c, env, folds, d, m, s, oversample)
                                 + float(np.abs(series[k + 1 :]).sum()))
        sups[s] = SupBound(grid.value, grid.upper + err)
    sizes = {"truncation_degree": d, "alias_grid": m, "trim_degree": k}
    return LaurentPolynomial(0, a[: k + 1]), sups, sizes


def corrector_certificate(c: DilatedCorrector, s_list: Sequence[int] = (1, 2),
                          oversample: int = 16) -> dict:
    """Per-instance certificate record, every sup from one sampling of B phi0.

    Keys: n, epsilon, sup_phi (sup of |phi0| on the circle, equal to the sup
    of |B phi0| there) with its certified upper bound sup_phi_upper,
    phi0_err = |phi0(0) - 1|, and for each s in s_list ratio_s{s} =
    sup |(B phi0)^(s)| / n^s with ratio_s{s}_upper, besov_ratio_s{s} =
    max over the dyadic blocks k of the Taylor truncation of
    2^(k s) sup |block| / n^s, every sup at oversample grid nodes per
    coefficient, the sampling's sizes truncation_degree (D), alias_grid and
    trim_degree (K), and besov_blocks, the nonzero blocks, of which
    besov_sups took a sup grid: _besov_maxima passes over a block whose l1
    norm shows it cannot reach the max.  Each value <= true sup <= its upper
    (see _sampled_sups).  The upper bounds count rounding (_series_error) and
    the coefficients trimmed as noise; a value may exceed the sup by its own
    rounding, about u R^n per Taylor coefficient amplified by the falling
    factorials, and by the trimmed tail.
    """
    n = c.n
    trunc, sups, sizes = _sampled_sups(c, (0, *s_list), oversample)
    # after the order sups, whose grids are at least any block's
    besov, counts = _besov_maxima(trunc, s_list, oversample)
    record = {
        "n": n,
        "epsilon": c.epsilon,
        "sup_phi": sups[0].value,
        "sup_phi_upper": sups[0].upper,
        "phi0_err": abs(eval_phi0(c, 0.0) - 1.0),
        **sizes,
        **counts,
    }
    for s in s_list:
        scale = float(n) ** s
        record[f"ratio_s{s}"] = sups[s].value / scale
        record[f"ratio_s{s}_upper"] = sups[s].upper / scale
        record[f"besov_ratio_s{s}"] = besov[s] / scale
    return record
