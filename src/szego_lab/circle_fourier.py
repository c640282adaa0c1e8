"""Two-sided trigonometric polynomial arithmetic on the unit circle.

Finitely supported coefficient sequences sum(c_j z^j), convolution against
multiplier kernels (de la Vallee-Poussin trapezoids in dyadic and linear
cutoff variants, Dirichlet projections), sup and Lp norms with a certified
sampling bound, and the dyadic-block smoothness seminorm built from the
trapezoid windows.

Kernel multipliers are exact rationals; the convolution path applies them as
correctly rounded floats while the nesting-identity check runs in exact
integer arithmetic.
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
    "sup_norm",
    "sup_norm_certified",
    "lp_norm",
    "besov_seminorm",
]

VALLEE_POUSSIN = "vallee_poussin"
MODIFIED_V = "modified_v"
MODIFIED_VP = "modified_vp"
DIRICHLET = "dirichlet"

_KINDS = (VALLEE_POUSSIN, MODIFIED_V, MODIFIED_VP, DIRICHLET)
_INF = (np.inf, "inf")
# the most nodes any sampled grid may take
_GRID_CAP = 1 << 22


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
    def span(self) -> int:
        return len(self.coeffs) - 1

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


def kernel_support(spec: KernelSpec) -> tuple[int, int]:
    """Closed interval [lo, hi] containing all nonzero multipliers."""
    n = spec.index
    if spec.kind == VALLEE_POUSSIN:
        if n == 0:
            return (0, 1)
        a = 1 << (n - 1)
        return (a + 1, 4 * a - 1)
    if spec.kind == MODIFIED_V:
        if n == 0:
            return (0, 0)
        b = (1 << n) - 1
        return (-b, b)
    if spec.kind == MODIFIED_VP:
        if n == 0:
            return (0, 0)
        return (-(2 * n - 1), 2 * n - 1)
    return (0, n)


def _multiplier_scaled(spec: KernelSpec, js: np.ndarray) -> tuple[np.ndarray, int]:
    """Multipliers as (integer numerators, common denominator), exactly."""
    n = spec.index
    num = np.zeros(js.shape, dtype=np.int64)
    if spec.kind == VALLEE_POUSSIN:
        if n == 0:
            num[(js == 0) | (js == 1)] = 1
            return num, 1
        a = 1 << (n - 1)
        up = (a < js) & (js <= 2 * a)
        num[up] = 2 * (js[up] - a)  # denominator 2a
        down = (2 * a < js) & (js < 4 * a)
        num[down] = 4 * a - js[down]
        return num, 2 * a
    if spec.kind == MODIFIED_V:
        if n == 0:
            num[js == 0] = 1
            return num, 1
        a = 1 << (n - 1)
        aj = np.abs(js)
        num[aj <= a] = a
        mid = (a < aj) & (aj < 2 * a)
        num[mid] = 2 * a - aj[mid]
        return num, a
    if spec.kind == MODIFIED_VP:
        if n == 0:
            num[js == 0] = 1
            return num, 1
        aj = np.abs(js)
        num[aj <= n] = n
        mid = (n < aj) & (aj < 2 * n)
        num[mid] = 2 * n - aj[mid]
        return num, n
    num[(0 <= js) & (js <= n)] = 1
    return num, 1


def _multiplier_array(spec: KernelSpec, lo: int, hi: int) -> np.ndarray:
    js = np.arange(lo, hi + 1, dtype=np.int64)
    num, den = _multiplier_scaled(spec, js)
    return num.astype(np.float64) / float(den)


def convolve(f: LaurentPolynomial, spec: KernelSpec) -> LaurentPolynomial:
    """Coefficientwise product with the kernel multiplier: (f * K)^(j) = f^(j) K^(j)."""
    klo, khi = kernel_support(spec)
    lo = max(f.lo, klo)
    hi = min(f.hi, khi)
    if f.is_zero or lo > hi:
        return LaurentPolynomial.zero()
    mults = _multiplier_array(spec, lo, hi)
    chunk = f.coeffs[lo - f.lo : hi - f.lo + 1]
    return LaurentPolynomial(lo, chunk * mults)


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


def _analytic_values(coeffs: np.ndarray, size: int) -> np.ndarray:
    """Values of sum c_j z^j (j >= 0) at the size-point grid via FFT."""
    padded = np.zeros(size, dtype=np.complex128)
    for start in range(0, len(coeffs), size):
        chunk = coeffs[start : start + size]
        padded[: len(chunk)] += chunk
    return np.fft.ifft(padded, norm="forward")


class SupBound(NamedTuple):
    value: float
    upper: float


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
    m = _next_pow2(max(oversample * (d + 1), 64))
    if m > _GRID_CAP:
        raise GridCapError(
            f"a sup grid of oversample * (degree + 1) = {oversample} * {d + 1}"
            f" nodes passes {_GRID_CAP}")
    js = np.arange(d + 1, dtype=np.float64)
    h = 2.0 * np.pi / m
    # the grid max by cosets of at most 2^16 nodes, to bound the memory:
    # node q*r + t is node q of the coset grid for c_j e^(i j t h)
    part = min(m, 1 << 16)
    r = m // part
    grid_max, kbest = -1.0, 0
    for t in range(r):
        twisted = c * np.exp(1j * h * t * js) if t else c
        av = np.abs(_analytic_values(twisted, part))
        q = int(np.argmax(av))  # the first NaN, if any
        if not math.isfinite(av[q]):
            raise NonFiniteGridError(f"sup grid value {av[q]} at node {q * r + t}")
        if av[q] > grid_max:
            grid_max, kbest = float(av[q]), q * r + t
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


def sup_norm(f: LaurentPolynomial, oversample: int = 16) -> float:
    """Sup of |f| on the unit circle.

    Equispaced power-of-two sampling followed by three Newton refinements of
    |f|^2 from the best node.  The returned value is a lower estimate, at
    least sqrt(cos(pi d/M)) times the true sup for degree d on the M-point
    grid; use sup_norm_certified for the matching upper bound.
    """
    return sup_norm_certified(f, oversample).value


def lp_norm(f: LaurentPolynomial, p) -> float:
    """L^p(dm) norm on the circle for p in {1, 2, inf}.

    p=2 is Parseval, exact from coefficients; p=1 uses grid quadrature with
    at least 8 nodes per coefficient; p=inf delegates to sup_norm.
    """
    if p == 2:
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    if p == 1:
        if f.is_zero:
            return 0.0
        m = _next_pow2(max(8 * (f.span + 1), 256))
        vals = _analytic_values(f.coeffs, m)
        return float(np.mean(np.abs(vals)))
    if p in _INF:
        return sup_norm(f)
    raise ValueError("p must be 1, 2 or inf")


def _besov_blocks(f: LaurentPolynomial, p,
                  oversample: int = 16) -> list[tuple[int, float]]:
    """(n, ||f * W_n||_p) for every dyadic window n with a nonzero block.

    W_n is the vallee_poussin(n) trapezoid; the n=0 window is the multiplier
    carried by 1 + z.  Only analytic inputs (nonnegative exponents) are
    accepted.  For p = inf each block's sup takes oversample grid nodes per
    coefficient.
    """
    if f.is_zero:
        return []
    if f.lo < 0:
        raise ValueError("besov seminorm requires nonnegative exponents")
    blocks = []
    n = 0
    while True:
        spec = vallee_poussin(n)
        lo_s, _ = kernel_support(spec)
        if lo_s > f.hi:
            break
        block = convolve(f, spec)
        if not block.is_zero:
            blocks.append((n, sup_norm(block, oversample) if p in _INF
                           else lp_norm(block, p)))
        n += 1
    return blocks


def besov_seminorm(f: LaurentPolynomial, s: float, p) -> float:
    """sup over dyadic windows n of 2^(n s) * ||f * W_n||_p (see _besov_blocks)."""
    return max((2.0 ** (n * s) * norm for n, norm in _besov_blocks(f, p)),
               default=0.0)
