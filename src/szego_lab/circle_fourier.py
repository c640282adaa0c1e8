"""Two-sided trigonometric polynomial arithmetic on the unit circle.

Finitely supported coefficient sequences sum(c_j z^j), convolution against
multiplier kernels (de la Vallee-Poussin trapezoids in dyadic and linear
cutoff variants, Dirichlet projections), the sup norm with a certified
sampling bound, and the largest weighted sup of the dyadic blocks of the
trapezoid windows, from which the smoothness seminorm is read: found by
branch and bound, as each block's l1 norm bounds its sup, so that a block
takes a sup grid only while it can still reach the largest.

Every kernel is a trapezoid with four integer breakpoints (_trapezoid), the
Dirichlet indicator included, and its multipliers are integer numerators
over one denominator: the convolution path applies them as correctly rounded
floats, while the nesting-identity check and the pipeline use them exactly.
kernel_multiplier writes each kind's formula apart, in exact rationals: it
is the oracle the table is held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "LaurentPolynomial",
    "KernelSpec",
    "KernelDomainError",
    "GridCapError",
    "NonFiniteGridError",
    "SupBound",
    "vallee_poussin",
    "modified_v",
    "modified_vp",
    "dirichlet",
    "kernel_multiplier",
    "kernel_support",
    "convolve",
    "kernel_identity_vk_vpn",
    "grid_nodes",
    "sup_norm_certified",
]

VALLEE_POUSSIN = "vallee_poussin"
MODIFIED_V = "modified_v"
MODIFIED_VP = "modified_vp"
DIRICHLET = "dirichlet"

_KINDS = (VALLEE_POUSSIN, MODIFIED_V, MODIFIED_VP, DIRICHLET)
# the most nodes any sampled grid may take
_GRID_CAP = 1 << 22
# how far a computed block sup may pass the block's computed l1 norm, at
# most, in _besov_maxima's pruning test.  For a block of d + 1 <= 2^20
# float coefficients (a grid of oversample (d + 1) <= _GRID_CAP nodes) with
# exact l1 norm L, u = 2^-53, sup_norm_certified's value is the modulus of
# one of two computed sums:
# - a node of a coset FFT of p <= 2^12 nodes, whose input holds the
#   coefficients times computed roots of unity (each within 15u of
#   unimodular), folded by at most 2^8 sums, then times a computed twist
#   (within 176u, see blaschke._series_error), so of l1 norm at most
#   L (1 + 2^9 u).  The FFT errs at each node by at most its normwise error
#   bound (Higham, Accuracy and Stability of Numerical Algorithms, Thm.
#   24.2, as in blaschke._series_error), 8u log2(p) sqrt(p) times the
#   input's l2 norm, below 2^13 u times its l1 norm, which bounds the exact
#   node value;
# - a Newton sum of the d + 1 terms c_j e^(i j theta), each of modulus at
#   most |c_j| (1 + 5u), within sqrt(2) gamma_(d+1) <= 2^21 u of their l1.
# The computed l1 norm is at least L (1 - gamma_(d+1)), and the moduli and
# the products by 2^(n s) and the margin cost a few u more.  So a computed
# value is below the computed l1 times 1 + 2^22 u = 1 + 2^-31, and 2^-30
# holds that with room to spare.
_BESOV_MARGIN = 2.0 ** -30


class KernelDomainError(ValueError):
    """Arguments outside the range where a kernel statement is claimed."""


class GridCapError(ValueError):
    """A sup grid would pass _GRID_CAP nodes; refused before sampling."""


class NonFiniteGridError(ArithmeticError):
    """A sup grid holds a NaN or an infinity, so it bounds nothing."""


def _next_pow2(m: int) -> int:
    n = 1
    while n < m:
        n <<= 1
    return n


def _alias_bound(pairs, m: int) -> float:
    """The least, over (log rho, log A) pairs, of A q / (1 - q) with
    q = rho^-m: the sum of the coefficients at the nonzero multiples of m of
    a function whose l-th coefficient is at most A rho^-|l| on that side.
    In logs, so that neither A nor rho^m overflows; pairs with rho <= 1
    bound nothing, and inf where none bounds."""
    best = math.inf
    for log_rho, log_a in pairs:
        x = m * log_rho
        if x > 0.0:
            top = log_a - x
            best = min(best, (math.exp(top) if top < 709.0 else math.inf)
                       / -math.expm1(-x))
    return best


def _certified_grid(start: int, bound, tol: float, cap: int, refuse) -> tuple:
    """(m, bound(m)) for the first power of two m >= start, doubling, with
    bound(m) <= tol: the one grid a caller samples, its error bound known
    before any node is.  Where m reaches cap and the bound still fails,
    raises refuse(bound(m)), the caller's own exception."""
    m = _next_pow2(start)
    while True:
        b = bound(m)
        if b <= tol:
            return m, b
        if m >= cap:
            raise refuse(b)
        m <<= 1


class LaurentPolynomial:
    """Finite two-sided coefficient sequence c_lo z^lo + ... + c_hi z^hi.

    Coefficients are stored contiguously as complex128.  Construction trims
    exact zeros at both ends; the zero polynomial is canonically lo=0,
    coeffs=[0].
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            lo = 0
            arr = np.zeros(1, dtype=np.complex128)
        else:
            arr = arr[nz[0] : nz[-1] + 1].copy()
            lo = int(lo) + int(nz[0])
        self.lo = int(lo)
        self.coeffs = arr

    # ------------------------------------------------------------------
    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def coefficient(self, j: int):
        if self.lo <= j <= self.hi:
            return self.coeffs[j - self.lo]
        return 0.0 + 0.0j

    def __call__(self, z):
        """Evaluate by two-sided Horner; z may be a scalar or ndarray."""
        acc = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        if self.lo:
            acc = acc * z**self.lo
        return acc

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(0, [0.0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"LaurentPolynomial(lo={self.lo}, hi={self.hi})"


# ----------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class KernelSpec:
    """A convolution kernel named by its multiplier family and index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("kernel index must be >= 0")


def vallee_poussin(n: int) -> KernelSpec:
    return KernelSpec(VALLEE_POUSSIN, n)


def modified_v(k: int) -> KernelSpec:
    return KernelSpec(MODIFIED_V, k)


def modified_vp(n: int) -> KernelSpec:
    return KernelSpec(MODIFIED_VP, n)


def dirichlet(n: int) -> KernelSpec:
    return KernelSpec(DIRICHLET, n)


def kernel_multiplier(spec: KernelSpec, j: int) -> Fraction:
    """Exact multiplier value of the kernel at frequency j.

    vallee_poussin(0) is 1 at j in {0, 1}.  For n >= 1 the multiplier is the
    dyadic trapezoid: 1 at 2^n, 0 outside the open interval (2^(n-1), 2^(n+1)),
    affine on both closed slopes.  modified_v(k) is the symmetric dyadic
    plateau (1 on [-2^(k-1), 2^(k-1)], 0 for |j| >= 2^k).  modified_vp(n) is
    the symmetric linear plateau (1 on [-n, n], 0 for |j| >= 2n).
    dirichlet(n) is the indicator of [0, n].
    """
    n = spec.index
    if spec.kind == VALLEE_POUSSIN:
        if n == 0:
            return Fraction(1) if j in (0, 1) else Fraction(0)
        a = 1 << (n - 1)
        if j <= a or j >= 4 * a:
            return Fraction(0)
        if j <= 2 * a:
            return Fraction(j - a, a)
        return Fraction(4 * a - j, 2 * a)
    if spec.kind == MODIFIED_V:
        if n == 0:
            return Fraction(1) if j == 0 else Fraction(0)
        a = 1 << (n - 1)
        aj = abs(j)
        if aj <= a:
            return Fraction(1)
        if aj >= 2 * a:
            return Fraction(0)
        return Fraction(2 * a - aj, a)
    if spec.kind == MODIFIED_VP:
        if n == 0:
            return Fraction(1) if j == 0 else Fraction(0)
        aj = abs(j)
        if aj <= n:
            return Fraction(1)
        if aj >= 2 * n:
            return Fraction(0)
        return Fraction(2 * n - aj, n)
    # DIRICHLET
    return Fraction(1) if 0 <= j <= n else Fraction(0)


def _trapezoid(spec: KernelSpec) -> tuple[int, int, int, int]:
    """Integer breakpoints a < b <= c < e of the kernel's multiplier: 0 at
    j <= a and j >= e, rising linearly to 1 at b, 1 on [b, c], falling
    linearly to 0 at e.  kernel_multiplier is the oracle it is held to."""
    n = spec.index
    if spec.kind == DIRICHLET:
        return (-1, 0, n, n + 1)
    if spec.kind == VALLEE_POUSSIN:
        if n == 0:
            return (-1, 0, 1, 2)
        return (1 << (n - 1), 1 << n, 1 << n, 1 << (n + 1))
    if n == 0:
        return (-1, 0, 0, 1)
    w = 1 << (n - 1) if spec.kind == MODIFIED_V else n
    return (-2 * w, -w, w, 2 * w)


def kernel_support(spec: KernelSpec) -> tuple[int, int]:
    """Closed interval [lo, hi] containing all nonzero multipliers."""
    a, _, _, e = _trapezoid(spec)
    return (a + 1, e - 1)


def _multiplier_scaled(spec: KernelSpec, js: np.ndarray) -> tuple[np.ndarray, int]:
    """Multipliers as (integer numerators, common denominator), exactly:
    over den = lcm(b - a, e - c), the least of the rising side, the falling
    side and den, clipped at 0."""
    a, b, c, e = _trapezoid(spec)
    den = math.lcm(b - a, e - c)
    up = (js - a) * (den // (b - a))
    down = (e - js) * (den // (e - c))
    return np.maximum(np.minimum(np.minimum(up, down), den), 0), den


def convolve(f: LaurentPolynomial, spec: KernelSpec) -> LaurentPolynomial:
    """Coefficientwise product with the kernel multiplier: (f * K)^(j) = f^(j) K^(j)."""
    klo, khi = kernel_support(spec)
    lo = max(f.lo, klo)
    hi = min(f.hi, khi)
    if f.is_zero or lo > hi:
        return LaurentPolynomial.zero()
    num, den = _multiplier_scaled(spec, np.arange(lo, hi + 1, dtype=np.int64))
    chunk = f.coeffs[lo - f.lo : hi - f.lo + 1]
    return LaurentPolynomial(lo, chunk * (num / den))


def kernel_identity_vk_vpn(k: int, n: int) -> bool:
    """Exact check that modified_v(k) is reproduced by modified_vp(n).

    Verifies coefficientwise, in integer arithmetic, that the product of the
    two multipliers equals the modified_v(k) multiplier at every frequency.
    Claimed only for 2^k <= n; other arguments raise KernelDomainError.
    Only |j| <= 2^k is checked: beyond it the modified_v(k) multiplier is
    0, so both sides are.
    """
    if k < 0 or n < 1:
        raise KernelDomainError("need k >= 0 and n >= 1")
    if (1 << k) > n:
        raise KernelDomainError(f"identity not claimed for 2^{k} > {n}")
    vk = modified_v(k)
    vpn = modified_vp(n)
    js = np.arange(-(1 << k), (1 << k) + 1, dtype=np.int64)
    num_k, den_k = _multiplier_scaled(vk, js)
    num_vp, den_vp = _multiplier_scaled(vpn, js)
    # (num_k/den_k)*(num_vp/den_vp) == num_k/den_k  <=>  num_k*(num_vp - den_vp) == 0
    return bool(np.all(num_k * (num_vp - den_vp) == 0))


# ----------------------------------------------------------------------
# grids and norms


def grid_nodes(size: int) -> np.ndarray:
    """exp(2 pi i p / size), p = 0..size-1, phases in real arithmetic."""
    return np.exp(1j * (2.0 * np.pi * np.arange(size) / size))


class SupBound(NamedTuple):
    value: float
    upper: float


def _sup_grid(d: int, oversample: int) -> int:
    """The nodes of sup_norm_certified's grid for degree d: the first power
    of two at least oversample (d + 1) and 64.  Past _GRID_CAP it raises
    GridCapError, which a caller that knows a bound on d can meet before
    it computes the coefficients."""
    m = _next_pow2(max(oversample * (d + 1), 64))
    if m > _GRID_CAP:
        raise GridCapError(
            f"a sup grid of oversample * (degree + 1) = {oversample} * {d + 1}"
            f" nodes passes {_GRID_CAP}")
    return m


def _grid_max(c: np.ndarray, m: int) -> tuple[float, int]:
    """(max |sum c_j z^j|, the node k of that max) over z = e^(2 pi i k/m),
    for m a power of two at least len(c): the first max, smallest k mod r
    first, where r is the number of cosets, then smallest k.  The grid is
    taken by cosets of at most 2^12 nodes, so that no array here passes
    64 KB and each comes from the heap, not fresh pages: node q*r + t is
    node q of the coset grid for c_j e^(i j t h), h = 2 pi/m.  With j =
    p + k*part, p < part, that factor is the twist e^(i p t h) times the
    r-th root of unity e^(2 pi i k t/r): the coefficients are folded onto
    p with the roots, then twisted, the twist a running product of steps
    e^(i p h), taken exactly at every 16th coset, so that at most 15
    products err.  A grid of at most 2^12 nodes is one FFT of the
    coefficients.  A NaN or an infinity raises NonFiniteGridError at the
    first node that holds one."""
    part = min(m, 1 << 12)
    r = m // part
    width = min(len(c), part)
    h = 2.0 * np.pi / m
    js = np.arange(width, dtype=np.float64)
    padded = np.zeros(part, dtype=np.complex128)
    if r > 1:
        roots = grid_nodes(r)
        step = np.exp(1j * h * js)
        twist = np.ones(width, dtype=np.complex128)
    grid_max, kbest = -1.0, 0
    for t in range(r):
        padded[:width] = c[:width]
        for k in range(1, (len(c) + part - 1) // part):
            chunk = c[k * part : (k + 1) * part]
            padded[: len(chunk)] += chunk * roots[k * t % r]
        if t:
            if t % 16:
                twist *= step
            else:
                twist = np.exp((1j * h * t) * js)
            padded[:width] *= twist
        av = np.abs(np.fft.ifft(padded, norm="forward"))
        q = int(np.argmax(av))  # the first NaN, if any
        if not math.isfinite(av[q]):
            raise NonFiniteGridError(f"sup grid value {av[q]} at node {q * r + t}")
        if av[q] > grid_max:
            grid_max, kbest = float(av[q]), q * r + t
    return grid_max, kbest


def sup_norm_certified(f: LaurentPolynomial, oversample: int = 16) -> SupBound:
    """(value, upper) with value <= sup |f| <= upper on the circle, from the
    one grid-max refiner.

    |f| there equals |sum c_j z^j| over its d+1 coefficients.  value is the
    max on a power-of-two grid of at least oversample*(d+1) nodes, refined by
    up to three Newton steps on |f|^2 from the best node, each a vectorized
    O(d) sum; upper = grid max / sqrt(cos(pi d/M)) by the van der
    Corput-Schaake inequality for |f|^2, of degree d, as M >= 4(d+1) > 2d.
    A grid past _GRID_CAP nodes raises GridCapError before any sampling,
    and a grid that holds a NaN or an infinity raises NonFiniteGridError.
    """
    if oversample < 4:
        raise ValueError("oversample must be >= 4")
    if f.is_zero:
        return SupBound(0.0, 0.0)
    c = f.coeffs
    d = len(c) - 1
    m = _sup_grid(d, oversample)
    grid_max, kbest = _grid_max(c, m)
    js = np.arange(d + 1, dtype=np.float64)
    h = 2.0 * np.pi / m
    best = grid_max
    if d > 0:
        theta = h * kbest
        terms = c * np.exp(1j * theta * js)
        for _ in range(3):
            # f and its first two theta-derivatives at e^(i theta); sums,
            # not BLAS dot products, whose threads take milliseconds to wake
            f0 = terms.sum()
            f1 = 1j * (js * terms).sum()
            f2 = -(js * js * terms).sum()
            q1 = 2.0 * (np.conj(f0) * f1).real
            q2 = 2.0 * (abs(f1) ** 2 + (np.conj(f0) * f2).real)
            if q2 >= 0.0:
                break
            theta += min(max(-q1 / q2, -h), h)
            terms = c * np.exp(1j * theta * js)
            best = max(best, float(abs(terms.sum())))
    upper = grid_max / np.sqrt(np.cos(np.pi * d / m))
    return SupBound(best, max(upper, best))


def _besov_maxima(f: LaurentPolynomial, orders,
                  oversample: int = 16) -> tuple[dict, dict]:
    """({s: max_n 2^(n s) sup |f * W_n|} for s in orders, and the counts
    besov_blocks, of the nonzero blocks, and besov_sups, of those that took
    a sup grid), by branch and bound.

    W_n is the vallee_poussin(n) trapezoid; the n=0 window is the multiplier
    carried by 1 + z.  Only analytic inputs (nonnegative exponents) are
    accepted; the zero polynomial gives 0.0.  A block's sup is
    sup_norm_certified's value, at oversample grid nodes per coefficient,
    taken once and shared by the orders.  Its l1 norm sum |c_j| bounds it,
    so for each order the blocks are visited in decreasing 2^(n s) l1 and a
    block whose 2^(n s) l1 (1 + _BESOV_MARGIN) is below the running max is
    passed over: its value cannot reach the max (see _BESOV_MARGIN), and
    each max is the float that taking every block's sup gives.  Each
    block's grid is at most f's own, so a caller that has taken
    sup_norm_certified(f) at this oversample meets no GridCapError here.
    """
    if f.lo < 0:
        raise ValueError("besov blocks require nonnegative exponents")
    blocks = []  # (n, block, l1)
    n = 0
    while kernel_support(vallee_poussin(n))[0] <= f.hi:
        block = convolve(f, vallee_poussin(n))
        if not block.is_zero:
            blocks.append((n, block, float(np.abs(block.coeffs).sum())))
        n += 1
    values = {}  # n -> the block's sup value
    maxima = {}
    for s in orders:
        best = 0.0
        for n, block, l1 in sorted(blocks, reverse=True,
                                   key=lambda b: 2.0 ** (b[0] * s) * b[2]):
            weight = 2.0 ** (n * s)
            # not "if ... >= best: take", so that a NaN bound is taken
            if weight * l1 * (1.0 + _BESOV_MARGIN) < best:
                continue
            if n not in values:
                values[n] = sup_norm_certified(block, oversample).value
            best = max(best, weight * values[n])
        maxima[s] = best
    return maxima, {"besov_blocks": len(blocks), "besov_sups": len(values)}
