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
a power-of-two circle grid.  A ResidueNodes table, passed as nodes=, holds
those nodes for one measure with psi and the reflected Blaschke prefix
products already evaluated, so the checks of several (n, k) evaluate psi
and the Blaschke factors once per node and each Laurent element once per
node; a check without a table builds its own, and both give the same
record bit for bit.

tau_n and eta_n have two routes.  With masses and degree at least deg psi
they come from Uvarov's closed form: the Bernstein-Szego orthonormal
polynomials and their Christoffel-Darboux kernel reduce the Gram solve to
a K-by-K system for K masses, whatever n is.  Mass-free measures, where
the closed form is the constant psi(0), and lower degrees take the Gram
route, the extended-precision Schur complement, which stays the oracle
for the closed form; the orthonormal elements are the extremal witnesses
of the same Gram matrices.

Precision escalation is explicit: the Gram factorization starts at the
first tag that holds its entries (at least the measure's tag), a failure
there is retried at the next tag, and the failure is reported, never
hidden.  The closed form adds guard bits above the measure's tag, 32 and
then twice as many each time, until two runs agree, and raises
NotPositiveDefinite if its system loses positivity at every try.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from mpmath import MPContext

from szego_lab.blaschke import BlaschkeProduct, ZeroSet
from szego_lab.circle_fourier import LaurentPolynomial, _next_pow2
from szego_lab.xlinalg import (
    PRECISION_BITS,
    HermitianMatrix,
    NotPositiveDefinite,
    PrecisionTag,
    constrained_max_leading,
    context,
    next_tag,
    schur_leading,
)

__all__ = [
    "OuterWeight",
    "PointSpectrum",
    "MeasureSpec",
    "ReflectedBlaschke",
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
    """Zero-free Taylor polynomial weight with positive value at the origin.

    Zero-freeness on the closed disk is verified through the polynomial
    roots; the minimum of |psi| over a 4096-node circle grid is recorded as
    delta_floor.
    """

    psi: LaurentPolynomial
    label: str = ""
    delta_floor: float = field(init=False)

    def __post_init__(self):
        p = self.psi.as_complex128()
        if p.lo < 0:
            raise ValueError("weight must have nonnegative exponents only")
        c0 = complex(p.coefficient(0))
        if c0.imag != 0.0 or c0.real <= 0.0:
            raise ValueError("psi(0) must be real and positive")
        if p.hi >= 1:
            roots = np.roots(p.coeffs[::-1])
            if np.any(np.abs(roots) <= 1.0):
                raise ValueError("psi must be zero-free on the closed unit disk")
        nodes = np.exp(2j * np.pi * np.arange(4096) / 4096)
        floor = float(np.min(np.abs(p(nodes))))
        if floor <= 0.0:
            raise ValueError("psi vanishes on the sampling grid")
        object.__setattr__(self, "delta_floor", floor)

    @property
    def psi0(self) -> float:
        return float(self.psi.coefficient(0).real)

    def coeff_key(self) -> tuple:
        return tuple(complex(c) for c in self.psi.as_complex128().coeffs)

    @classmethod
    def constant_one(cls) -> "OuterWeight":
        return cls(LaurentPolynomial(0, [1.0]))


@dataclass(frozen=True)
class PointSpectrum:
    """Point masses (z_k, mu_k) with |z_k| > 1 and mu_k > 0."""

    masses: tuple

    def __post_init__(self):
        ms = tuple((complex(z), float(m)) for z, m in self.masses)
        object.__setattr__(self, "masses", ms)
        for z, m in ms:
            if abs(z) <= 1.0:
                raise ValueError(f"mass point {z} not outside the circle")
            if m <= 0.0:
                raise ValueError(f"mass weight {m} not positive")

    def __len__(self) -> int:
        return len(self.masses)

    @property
    def blaschke_sum(self) -> float:
        return float(sum(abs(z) - 1.0 for z, _ in self.masses))

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.masses))

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
        p = self.weight.psi.as_complex128()
        psi = [[float(c.real), float(c.imag)] for c in p.coeffs]
        masses = [[z.real, z.imag, m] for z, m in self.spectrum.masses]
        return {"psi": psi, "masses": masses, "precision_bits": self.precision}

    @classmethod
    def from_json(cls, obj: dict) -> "MeasureSpec":
        psi = LaurentPolynomial(0, [complex(re, im) for re, im in obj["psi"]])
        masses = tuple((complex(re, im), float(m)) for re, im, m in obj.get("masses", []))
        return cls(OuterWeight(psi), PointSpectrum(masses),
                   int(obj.get("precision_bits", 256)))


@dataclass(frozen=True)
class ReflectedBlaschke:
    """Blaschke product on the disk-reflected mass points 1/conj(z_k)."""

    product: BlaschkeProduct

    @classmethod
    def from_spectrum(cls, spectrum: PointSpectrum, count: int | None = None) -> "ReflectedBlaschke":
        pts = spectrum.masses if count is None else spectrum.masses[:count]
        zetas = tuple(1.0 / z.conjugate() for z, _ in pts)
        return cls(BlaschkeProduct(ZeroSet(zetas)))


def target_limit(mu: MeasureSpec) -> float:
    """The common limit of the leading coefficients: B(0) * psi(0)."""
    b0 = math.prod(1.0 / abs(z) for z, _ in mu.spectrum.masses)
    return b0 * mu.weight.psi0


# ----------------------------------------------------------------------
# trigonometric moments of the absolutely continuous part


class _MomentTable:
    __slots__ = ("values",)

    def __init__(self, values: list):
        self.values = values  # t_m for m = 0..len-1


# Threads that miss together each fill the entry with the same values, so
# the later write is as good as the earlier one.
_moment_cache: dict = {}


def _bernstein_szego_head(coeffs: list, bits: int) -> list:
    """t_0..t_d for psi = sum_j c_j z^j of degree d (see _trig_moments).

    psi/|psi|^2 = 1/conj(psi) has no positive frequencies and constant term
    1/c_0, so sum_j c_j t_(k-j) = [k == 0]/c_0 for k >= 0, where
    t_(-m) = conj(t_m).  Rows k = 0..d are a real linear system in the re
    and im parts of t_0..t_d; it is nonsingular, since with the recurrence
    for k > d they determine every moment.  Returns mpc in context(bits).
    """
    # lu_solve raises its context's precision while it runs, so it gets a
    # context of its own rather than the shared one
    solver = MPContext()
    solver.prec = bits
    d = len(coeffs) - 1
    size = 2 * (d + 1)
    a = solver.matrix(size, size)
    rhs = solver.matrix(size, 1)
    for k in range(d + 1):
        for j in range(d + 1):
            cre, cim = coeffs[j].real, coeffs[j].imag
            m = k - j
            sign = 1 if m >= 0 else -1  # t_m, or conj(t_|m|) when m < 0
            col = 2 * abs(m)
            a[2 * k, col] += cre
            a[2 * k, col + 1] -= sign * cim
            a[2 * k + 1, col] += cim
            a[2 * k + 1, col + 1] += sign * cre
    rhs[0] = 1 / coeffs[0].real
    x = solver.lu_solve(a, rhs)
    ctx = context(bits)
    return [ctx.mpc(x[2 * m], x[2 * m + 1] if m else 0) for m in range(d + 1)]


def _trig_moments(weight: OuterWeight, m_max: int, bits: int) -> _MomentTable:
    """t_m = circle mean of e^(-i m t)/|psi|^2 for m = 0..m_max, cached.

    Exact up to rounding at bits + 32: t_0..t_d solve the linear system of
    _bernstein_szego_head, and every higher moment follows from
    t_k = -(1/c_0) sum_(j=1..d) c_j t_(k-j).  The recurrence is stable: its
    characteristic roots 1/r_j, r_j the roots of psi, lie inside the disk.
    """
    key = (weight.coeff_key(), bits)
    tab = _moment_cache.get(key)
    if tab is not None and len(tab.values) > m_max:
        return tab
    ctx = context(bits + 32)
    coeffs = list(weight.psi.as_complex128().at_precision(bits + 32).coeffs)
    t = (list(tab.values) if tab is not None
         else _bernstein_szego_head(coeffs, bits + 32))
    for k in range(len(t), m_max + 1):
        t.append(-ctx.fsum(coeffs[j] * t[k - j]
                           for j in range(1, len(coeffs))) / coeffs[0])
    tab = _MomentTable(t)
    _moment_cache[key] = tab
    return tab


def moment(mu: MeasureSpec, j: int, k: int):
    """The L2(mu) inner product of z^j against z^k, as an mpc.

    Absolutely continuous part: the trigonometric moment of order j-k of
    1/|psi|^2.  Point part: sum of mu_l * z_l^j * conj(z_l)^k.
    """
    bits = mu.precision
    ctx = context(bits)
    t = _trig_moments(mu.weight, abs(j - k), bits).values[abs(j - k)]
    total = ctx.mpc(ctx.conj(t) if j < k else t)
    for z, m in mu.spectrum.masses:
        zl = ctx.mpc(z)
        total += m * zl ** j * ctx.conj(zl) ** k
    return total


def _gram_from_exponents(mu: MeasureSpec, exps: Sequence[int], bits: int) -> HermitianMatrix:
    n = len(exps)
    lo, hi = min(exps), max(exps)
    values = _trig_moments(mu.weight, hi - lo, bits).values
    ctx = context(bits)
    conj_t = [ctx.conj(t) for t in values[: hi - lo + 1]]
    powers = []
    for z, m in mu.spectrum.masses:
        zl = ctx.mpc(z)
        pw = {0: ctx.mpc(1)}
        for e in range(1, hi + 1):
            pw[e] = pw[e - 1] * zl
        inv = 1 / zl
        for e in range(-1, lo - 1, -1):
            pw[e] = pw[e + 1] * inv
        powers.append((ctx.mpf(m), pw))
    cols: list[list] = [[None] * n for _ in range(n)]
    for c in range(n):
        for r in range(c, n):
            d = exps[c] - exps[r]
            val = conj_t[-d] if d < 0 else ctx.mpc(values[d])
            for m, pw in powers:
                val += m * pw[exps[c]] * ctx.conj(pw[exps[r]])
            if r != c:
                cols[c][r] = val
                cols[r][c] = ctx.conj(val)
            else:
                # the mass terms m z^j conj(z)^j leave a rounding-size
                # imaginary part; cholesky and schur_leading read only the
                # real part of the diagonal, so dropping it moves no result
                cols[c][c] = ctx.mpc(val.real)
    # Hermitian by construction, so the O(n^2) symmetry check is skipped
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
    """tau_n (or eta_n with laurent) by the Gram route: the Schur complement
    of the pivot z^n under the escalation protocol.  The oracle for the
    closed form, and the route for mass-free measures and n < deg psi."""
    gram = gram_laurent if laurent else gram_polynomial
    return _escalate(mu, n, lambda b: schur_leading(gram(mu, n, b)))


def _uvarov_ratio(mu: MeasureSpec, n: int, shift: int, bits: int):
    """tau_n / c_0 = sqrt(1 - f^H S^-1 f) at bits (see _closed_form_leading).

    Row and column i are scaled by |z_i|^-(n+1), so the entries stay
    bounded as n grows; 1 - f^H S^-1 f is the last pivot of the Cholesky
    factorization of [[S, f], [f^H, 1]].
    """
    ctx = context(bits)
    psi = mu.weight.psi.as_complex128().at_precision(bits)
    # per mass: z; p(z), phi_(n+1)(z) and phi_n(z) times |z|^-(n+1); and
    # 1/m times |z|^-2(n+1) (the shift reweights m)
    points = []
    for z, m in mu.spectrum.masses:
        z = ctx.mpc(z)
        r = 1 / abs(z)
        scale = r ** (n + 1)
        f = z ** n * scale * psi(1 / z)
        points.append((z, scale * ctx.conj(psi(ctx.conj(z))), f * z, f,
                       r ** (2 * (n + 1 - shift)) / m))
    # lower triangle of [[S, f], [f^H, 1]], factored in place
    mat = []
    for i, (z_i, p_i, phi_i, _, inv_m) in enumerate(points):
        row = [(p_i * ctx.conj(p_l) - phi_i * ctx.conj(phi_l))
               / (1 - z_i * ctx.conj(z_l))
               for z_l, p_l, phi_l, _, _ in points[: i + 1]]
        row[i] += inv_m
        mat.append(row)
    mat.append([ctx.conj(f) for _, _, _, f, _ in points] + [ctx.mpf(1)])
    for i, row in enumerate(mat):
        for l in range(i):
            row[l] = (row[l] - ctx.fdot(row[:l], mat[l][:l],
                                        conjugate=True)) / mat[l][l]
        pivot = ctx.re(row[i]) - ctx.re(ctx.fdot(row[:i], row[:i],
                                                 conjugate=True))
        if pivot <= 0:
            raise NotPositiveDefinite(i, pivot)
        row[i] = ctx.sqrt(pivot)
    return mat[-1][-1]


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
            cur = _uvarov_ratio(mu, n, shift, mu.precision + guard)
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


def orthonormal_element(mu: MeasureSpec, n: int, laurent: bool = False) -> LaurentPolynomial:
    """The orthonormal element itself, coefficients at working precision.

    Obtained as the witness of the constrained extremal problem, so the z^n
    coefficient is real positive and equals tau_n (or eta_n).
    """
    lo = -(n - 1) if laurent else 0
    if laurent and n < 1:
        raise ValueError("laurent elements need n >= 1")

    def solve(bits):
        g = _gram_from_exponents(mu, range(lo, n + 1), bits)
        _, wit = constrained_max_leading(g)
        arr = np.empty(len(wit), dtype=object)
        arr[:] = wit
        return LaurentPolynomial(lo, arr, precision=bits)

    return _escalate(mu, n, solve)


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


def _node_values(ctx, x, psi, factors, element, n: int) -> tuple:
    """The residue integrand's pieces at the node x: (dens, num).

    With psi given, dens[k] = conj(psi(x)) conj(B^k(x)) for k = 0..K, where
    B^k is the product of the first k reflected factors, taken as prefix
    products in one pass.  With element given, num = R_n(x) x^(-n).  Either
    is None when its input is.
    """
    dens = None
    if psi is not None:
        conj_psi = ctx.conj(psi(x))
        acc = ctx.mpc(1)
        dens = [conj_psi * ctx.conj(acc)]
        for zeta, rot in factors:
            acc *= rot * (x - zeta) / (1 - ctx.conj(zeta) * x)
            dens.append(conj_psi * ctx.conj(acc))
    num = None if element is None else element(x) * x ** (-n)
    return dens, num


class ResidueNodes:
    """The residue quadrature's nodes for one measure, shared by the checks
    of every (n, k) on it.

    The table sits on the finest power-of-two grid asked for so far, in
    node order.  It holds each node x_p = exp(2 pi i p / G), the
    denominators conj(psi(x_p)) conj(B^k(x_p)) for k = 0..k_max (the first
    k_max masses, all by default), and the numerators R_n(x_p) x_p^(-n) of
    the element in use only: about k_max + 3 numbers per node.  A grid of
    g = G/m nodes reads every m-th node, since 2/g * p == 2/G * (m p)
    exactly; growing to twice the size evaluates only the odd nodes.
    """

    def __init__(self, mu: MeasureSpec, k_max: int | None = None):
        masses = mu.spectrum.masses[:k_max]
        self.mu = mu
        self.k_max = len(masses)
        self._ctx = context(mu.precision)
        self._psi = mu.weight.psi.as_complex128().at_precision(mu.precision)
        self._factors = _reflected_factors(self._ctx, masses)
        self._x: list = []
        self._dens: list = []
        self._nums: list = []
        self._given = self._element = None
        self._n = 0

    @property
    def grid(self) -> int:
        return len(self._x)

    def use(self, element: LaurentPolynomial, n: int) -> LaurentPolynomial:
        """Make element, the Laurent element of degree n, the one whose
        numerators the table holds; returns it at the measure's precision."""
        if element is not self._given:
            self._given, self._n = element, n
            self._element = element.at_precision(self.mu.precision)
            self._nums = [None] * self.grid
        return self._element

    def terms(self, k: int, grid: int, start: int, step: int) -> list:
        """num/den_k of the element in use at the nodes start, start + step,
        ... of the grid of that size."""
        self._grow(grid)
        ctx, m = self._ctx, self.grid // grid
        out = []
        for i in range(start * m, self.grid, step * m):
            if self._nums[i] is None:
                self._nums[i] = _node_values(ctx, self._x[i], None, None,
                                             self._element, self._n)[1]
            out.append(self._nums[i] / self._dens[i][k])
        return out

    def _grow(self, grid: int) -> None:
        ctx = self._ctx
        while self.grid < grid:
            old = self.grid
            size = 2 * old if old else grid
            two_over = ctx.mpf(2) / size
            fresh = []
            for p in range(1 if old else 0, size, 2 if old else 1):
                x = ctx.expjpi(two_over * p)
                fresh.append((x, *_node_values(ctx, x, self._psi, self._factors,
                                               self._element, self._n)))
            if old:
                # the kept nodes are the even ones of the new grid
                fresh = [v for pair in zip(zip(self._x, self._dens, self._nums),
                                           fresh) for v in pair]
            self._x, self._dens, self._nums = (list(c) for c in zip(*fresh))


def residue_identity_check(mu: MeasureSpec, n: int, k: int,
                           element: LaurentPolynomial | None = None,
                           nodes: ResidueNodes | None = None) -> dict:
    """Contour-integral identity for the Laurent element R_n and the first k
    masses.

    LHS: circle mean of R_n(x) x^(-n) / (conj(psi(x)) conj(B^k(x))), the
    quadrature of the contour integral of R_n/(psi_* z^(n+1) B^k_*).
    RHS: eta_n/(B^k(0) psi(0)) minus the residue sum at the first k mass
    points.  Returns both sides, their gap, and the Cauchy-Schwarz majorant
    of the residue sum.  element is orthonormal_element(mu, n, laurent=True),
    solved here when not given; a caller checking several k at one n solves
    it once.  nodes is a ResidueNodes table of mu, built here when not
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
                raise ValueError("chosen mass points must be distinct")
    if nodes is None:
        nodes = ResidueNodes(mu, k)
    elif nodes.mu is not mu or nodes.k_max < k:
        raise ValueError("nodes must be a table of this measure holding k masses")
    bits = mu.precision
    ctx = context(bits)
    if element is None:
        element = orthonormal_element(mu, n, laurent=True)
    elif element.hi != n or element.lo < -(n - 1):
        # exact zeros are trimmed, so lo may sit above -(n - 1)
        raise ValueError("element must be the Laurent element of degree n")
    # an escalated element keeps its coefficients but is evaluated at bits
    r_elem = nodes.use(element, n)
    psi = mu.weight.psi.as_complex128().at_precision(bits)
    factors = _reflected_factors(ctx, pts)
    eta = r_elem.coefficient(n).real

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
        denom = deriv * ctx.conj(psi(zeta_i)) * zi ** (n + 1)
        rhs -= r_elem(zi) / denom
        majorant += 1 / (abs(denom) ** 2 * mass)

    # quadrature side: doubling the grid reads only its odd nodes and
    # interleaves them with the kept terms (see ResidueNodes)
    tol = ctx.mpf(2) ** (-min(bits, 160) + 20)
    grid = _next_pow2(max(8 * (n + 1), 256))
    terms = nodes.terms(k, grid, 0, 1)
    prev = ctx.fsum(terms) / grid
    while True:
        if 2 * grid > _GRID_CAP:
            raise QuadratureError(
                f"residue quadrature did not converge by {_GRID_CAP} nodes")
        odd = nodes.terms(k, 2 * grid, 1, 2)
        terms = [t for pair in zip(terms, odd) for t in pair]
        grid *= 2
        cur = ctx.fsum(terms) / grid
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
