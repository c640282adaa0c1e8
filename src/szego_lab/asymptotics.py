"""Lower-bound pipelines for the Laurent and polynomial leading coefficients.

The measure's point masses are reflected into the disk and the few that sit
well inside (a slowly growing selection cap keeps their count small) get
the dilated outer corrector.  The combined product is then approximated on
the circle by a trigonometric polynomial in one of two ways: a kernel
convolution whose multiplier is flat through order n, or the plain degree-n
Taylor truncation.  Either approximant, divided by z^n and conjugate
reflected, is an admissible competitor for the extremal problem defining
the leading coefficient, so its normalized top coefficient is a certified
lower bound.  Every run emits a PipelineCertificate with the measured
defect, a norm decomposition over the circle part, the selected masses and
the tail masses, and interior-point Schwarz checks.

The approximated function is the product times the weight polynomial, the
factor that the Bernstein-Szego extremal of the weight carries.  The
weight is a polynomial, so its product series is exact through the order
the kernel sees: nothing is truncated, and the certificate's inverse_tail
is always 0.

The exact part runs on Python integers at bits_pipe + 32 fractional bits
(xlinalg's fixed point): the product's series, the kernel's rational
multipliers, whose outputs are the certified approximant, and the norm
bookkeeping, each output rounded once.  psi, the masses and their
reflections enter it only through measure_opuc._mass_terms, so the series
and the norms see the same reflected points.  The defect is read from the
same series, run on past the approximant's degree until its Cauchy tail is
below double rounding: its coefficients are the exact differences, each
rounded once, and its sup is circle_fourier.sup_norm_certified's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import mul
from typing import Callable, ClassVar, Sequence

import numpy as np

from szego_lab.blaschke import (
    DilatedCorrector,
    ZeroSet,
    _tail_envelope,
    _truncation_degree,
    corrector_with_radius,
    eval_B_phi,
)
from szego_lab.circle_fourier import (
    LaurentPolynomial,
    _multiplier_scaled,
    dirichlet,
    grid_nodes,
    kernel_support,
    modified_vp,
    sup_norm_certified,
)
from szego_lab.contract import ScheduleViolation, _as_float
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    _mass_terms,
    _trig_moments,
    target_limit,
    tau_n,
    eta_n,
)
from szego_lab.xlinalg import (
    _GUARD_BITS,
    _dot,
    _dyadic,
    _horner,
    _quotient_series,
    _rdiv,
    _reflect,
    _shift,
    _to_mpf,
    context,
)

__all__ = [
    "SCHEDULE_FAMILIES",
    "ScheduleFn",
    "ScheduleParams",
    "ScheduleViolation",
    "PipelineCertificate",
    "validate_schedule",
    "vp_approximant",
    "taylor_approximant",
    "pipeline_certificates",
    "convergence_experiment",
]


# ----------------------------------------------------------------------
# schedules

# Unshifted iterated logarithms: defined for n >= 4 and, with the default
# pairing below, the decay sequence log(n) * exp(-1/(A*eps)) collapses to
# 1/log(n), which is strictly decreasing on the whole pipeline domain.
SCHEDULE_FAMILIES: dict[str, Callable[[float], float]] = {
    "inv_loglog_sq": lambda n: 1.0 / math.log(math.log(n)) ** 2,
    "half_loglog": lambda n: 0.5 * math.log(math.log(n)),
    "constant": lambda n: 1.0,
}


@dataclass(frozen=True)
class ScheduleFn:
    """A named slowly varying function of n, scaled by a positive factor."""

    family: str
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in SCHEDULE_FAMILIES:
            raise ValueError(f"unknown schedule family {self.family!r}")
        if not 0 < self.scale < math.inf:
            raise ValueError("schedule scale must be positive and finite")

    def __call__(self, n: int) -> float:
        return self.scale * SCHEDULE_FAMILIES[self.family](n)

    def to_json(self) -> dict:
        return {"family": self.family, "scale": self.scale}

    @classmethod
    def from_json(cls, obj: dict) -> "ScheduleFn":
        obj = _schedule_object(obj, ("family", "scale"))
        return cls(obj["family"], _as_float(obj.get("scale", 1.0)))


def _schedule_object(obj, keys: tuple) -> dict:
    """obj, a JSON object that names no key outside keys."""
    if not isinstance(obj, dict):
        raise TypeError(f"{obj!r} is not an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown schedule key {unknown[0]!r}")
    return obj


@dataclass(frozen=True)
class ScheduleParams:
    """Pipeline schedule: the shrink rate, the slow-growth factor, and the
    working constant of the tail majorants.

    c_bound None means: derive the constant from the measure at run time as
    twice the reflected Blaschke sum.
    """

    eps_fn: ScheduleFn
    a_fn: ScheduleFn
    c_bound: float | None = None

    def __post_init__(self):
        if self.c_bound is not None and not 0 < self.c_bound < math.inf:
            raise ValueError("c_bound must be positive and finite when given")

    def eps(self, n: int) -> float:
        return self.eps_fn(n)

    def a(self, n: int) -> float:
        return self.a_fn(n)

    def decay(self, n: int) -> float:
        """log n scaled by the exponentially small factor exp(-1/(A*eps))."""
        return math.log(n) * math.exp(-1.0 / (self.a(n) * self.eps(n)))

    @classmethod
    def default(cls) -> "ScheduleParams":
        return cls(ScheduleFn("inv_loglog_sq"), ScheduleFn("half_loglog"))

    def to_json(self) -> dict:
        return {"eps": self.eps_fn.to_json(), "a": self.a_fn.to_json(),
                "c_bound": self.c_bound}

    @classmethod
    def from_json(cls, obj: dict) -> "ScheduleParams":
        c = _schedule_object(obj, ("eps", "a", "c_bound")).get("c_bound")
        return cls(ScheduleFn.from_json(obj["eps"]), ScheduleFn.from_json(obj["a"]),
                   None if c is None else _as_float(c))


def validate_schedule(sched: ScheduleParams, ns: Sequence[int]) -> None:
    """Check the slow-growth requirements numerically over the given grid.

    Requires the growth factor to increase, its product with the shrink
    rate to decrease, and the decay sequence to decrease.
    """
    ns = sorted(set(int(n) for n in ns))
    if len(ns) < 2:
        raise ValueError("schedule validation needs at least two grid points")
    if ns[0] < 4:
        raise ValueError("schedule grid points must be at least 4")
    a_vals = [sched.a(n) for n in ns]
    prod = [sched.a(n) * sched.eps(n) for n in ns]
    dec = [sched.decay(n) for n in ns]
    for i in range(len(ns) - 1):
        if not a_vals[i + 1] > a_vals[i] - 1e-15:
            raise ScheduleViolation(
                f"growth factor {sched.a_fn.family} not increasing "
                f"between n={ns[i]} and n={ns[i + 1]}")
        if not prod[i + 1] < prod[i] + 1e-15:
            raise ScheduleViolation(
                f"product of {sched.a_fn.family} and {sched.eps_fn.family} "
                f"not decreasing between n={ns[i]} and n={ns[i + 1]}")
        if dec[i + 1] > dec[i] + 1e-15:
            raise ScheduleViolation(
                f"decay sequence of {sched.eps_fn.family}/{sched.a_fn.family} "
                f"not decreasing between n={ns[i]} and n={ns[i + 1]}")


# ----------------------------------------------------------------------
# mass selection and corrector series


def _selection(spectrum: PointSpectrum, n: int, sched: ScheduleParams):
    """Selection cap, dilation numbers, and the split of the mass points.

    Returns (cap, margin_reciprocal, radius, selected, tail) where radius
    = 1 + 1/margin_reciprocal.  Selection looks at the reflected moduli:
    below 1 - 1/cap, smallest first, at most cap of them; the rest is the
    near-circle tail.  Both lists hold original (point, mass) pairs.
    """
    if n < 8:
        raise ValueError("pipelines need n >= 8")
    a, eps = sched.a(n), sched.eps(n)
    name = f"schedule {sched.eps_fn.family}/{sched.a_fn.family}"
    if not math.isfinite(a * eps * n):
        raise ScheduleViolation(f"{name} overflows the selection cap at n={n}")
    cap = math.floor(a * eps * n)
    if cap < 1:
        raise ScheduleViolation(f"{name} gives an empty selection cap at n={n}")
    if not math.isfinite(a * cap):
        raise ScheduleViolation(f"{name} overflows the dilation margin at n={n}")
    margin = math.ceil(a * cap)
    radius = 1.0 + 1.0 / margin
    masses = list(spectrum.masses)
    refl = [1.0 / abs(z) for z, _ in masses]
    order = sorted(range(len(masses)), key=lambda i: refl[i])
    threshold = 1.0 - 1.0 / cap
    chosen = [i for i in order if refl[i] < threshold][:cap]
    chosen_set = set(chosen)
    selected = [masses[i] for i in chosen]
    tail = [masses[i] for i in range(len(masses)) if i not in chosen_set]
    return cap, margin, radius, selected, tail


def _bphi_series(zeros: Sequence, radius: float, upto: int, f: int,
                 times: Sequence) -> list:
    """Taylor coefficients of z^0..z^upto of the dilated product times the
    polynomial times, as integer pairs at f fractional bits (times too,
    constant first).

    zeros holds per zero zeta_i the pairs zeta_i and u_i = zeta_i/|zeta_i|
    and the integer r_i = |zeta_i| of measure_opuc._mass_terms at f.  The
    dilated product R^count B(z/R), B with zeros zeta_i/R, is
    prod_i (r_i + rot_i z) / (1 - w_i z), rot_i = -|zeta_i|/zeta_i =
    -conj(u_i) and w_i = conj(zeta_i)/R^2.  Numerator and denominator take
    one linear factor each per zero, every coefficient rounded once, and
    _quotient_series divides them.  The values at a reflected point carry
    the back-reflection factor |zeta|^(-n), so the coefficients need
    roughly n*log2(1/|zeta|) bits beyond the target accuracy.
    """
    one = (1 << f, 0)
    r2 = _dyadic(radius, f) ** 2  # R^2 at 2f
    num, den = list(times), [one]
    for (zr, zi), (ur, ui), r in zeros:
        num = _times_linear(num, (r, 0), (-ur, ui), f)
        den = _times_linear(den, one, (_rdiv(-zr << 2 * f, r2),
                                       _rdiv(zi << 2 * f, r2)), f)
    return _quotient_series(num, den, upto + 1, f)


def _times_linear(poly: list, c0: tuple, c1: tuple, f: int) -> list:
    """poly (c0 + c1 z) for integer pairs at f fractional bits, each
    coefficient exact at 2f bits and rounded once."""
    (ar, ai), (br, bi), half = c0, c1, 1 << (f - 1)
    return [((pr * ar - pi * ai + qr * br - qi * bi + half) >> f,
             (pr * ai + pi * ar + qr * bi + qi * br + half) >> f)
            for (pr, pi), (qr, qi) in zip(poly + [(0, 0)], [(0, 0)] + poly)]


def _series_degree(corrector: DilatedCorrector | None,
                   weight_poly: LaurentPolynomial) -> int:
    """The degree D past which the series of B phi0 p sums to at most 2^-53
    of its bound on |z| = R; a route that reads the series through order
    upto runs _bphi_series to max(upto, D).

    The bound is the Cauchy envelope of B phi0 (blaschke._tail_envelope),
    each log A plus log sum |p_j| rho^j, and D is _truncation_degree's for
    it.  Without a corrector the series is p itself, of degree p.hi.
    """
    if corrector is None:
        return weight_poly.hi
    p = LaurentPolynomial(weight_poly.lo, np.abs(weight_poly.coeffs))
    env = [(log_rho, log_a + math.log(float(p(math.exp(log_rho)).real)))
           for log_rho, log_a in _tail_envelope(corrector)]
    tol = 2.0 ** -53 * math.exp(env[0][1])
    return _truncation_degree(corrector, 0, tol, env)


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PipelineCertificate:
    """Per-run record of every quantity the lower-bound argument uses."""

    route: str
    n: int
    selection_cap: int
    margin_reciprocal: int
    radius: float
    selected_count: int
    sup_defect: float
    apriori_defect: float
    schedule_decay: float
    inverse_tail: float
    leading_gap: float
    ac_norm: float
    inside_mass_sum: float
    tail_mass_sum: float
    tail_majorant: float
    total_norm: float
    lower_bound_achieved: float
    schwarz_excess: float
    schwarz_pass: bool

    FIELDS: ClassVar[tuple]  # the field names in declaration order

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    @property
    def bookkeeping_gap(self) -> float:
        """Relative gap of total_norm^2 against its three-part split."""
        pieces = self.ac_norm + self.inside_mass_sum + self.tail_mass_sum
        return abs(self.total_norm ** 2 - pieces) / self.total_norm ** 2


PipelineCertificate.FIELDS = tuple(f.name for f in fields(PipelineCertificate))


def _circle_norm_sq(weight: OuterWeight, q: Sequence, bits: int):
    """Exact integral of |Q|^2/|p|^2 over the circle, Q = sum_k q_k z^k with
    the q_k integer pairs at bits fractional bits; an mpf of context(bits).

    p(z) = sum_j conj(c_j) z^j is the weight polynomial that the moment
    table integrates against (see measure_opuc.moment); it is zero-free on
    the closed disk, so Q/p = sum_k a_k z^k there and Parseval gives the
    integral as sum_k |a_k|^2.  The head a_0..a_D, D = deg Q, follows from
    the recurrence p_0 a_k = q_k - sum_(j=1..d) p_j a_(k-j)
    (_quotient_series).  Past D, Q - p A_D = z^(D+1) h with deg h < d,
    where A_D is the head as a polynomial, so the rest of Q/p is
    z^(D+1) h/p, orthogonal to A_D: its squared norm is h^H T h, with T the
    d-by-d Toeplitz block of the moments t_0..t_(d-1), each shifted once
    to bits fractional bits.  Both sums are exact and the result is rounded
    once.  O(D d + d^2) in all, and nothing is truncated.
    """
    ctx, f = context(bits), bits
    p = [(re, -im) for re, im in _mass_terms(weight.coeff_key(), (), f)[0]]
    d = len(p) - 1
    top = len(q) - 1
    a = _quotient_series(q, p, top + 1, f)
    a_re, a_im = ([0] * d + list(part) for part in zip(*a))
    head = sum(map(mul, a_re, a_re)) + sum(map(mul, a_im, a_im))
    if d == 0:
        return _to_mpf(ctx, head, -2 * f)
    p_re, p_im = map(list, zip(*p))
    half = 1 << (f - 1)
    # h_i = -sum_j p_(i+1+j) a_(D-j), rounded once to f bits
    h = [_dot(p_re[i + 1:], p_im[i + 1:], a_re[top + d:top + i:-1],
              a_im[top + d:top + i:-1]) for i in range(d)]
    h = [((half - hr) >> f, (half - hi) >> f) for hr, hi in h]
    t, e = _trig_moments(weight, d - 1, bits)
    t = [(_shift(re, e + f), _shift(im, e + f)) for re, im in t[:d]]
    rest = 0
    for r, (rr, ri) in enumerate(h):
        for c, (cr, ci) in enumerate(h):
            tr, ti = t[c - r] if c >= r else (t[r - c][0], -t[r - c][1])
            # Re(conj(h_r) h_c t_(c-r)), at 3f
            rest += (rr * cr + ri * ci) * tr - (rr * ci - ri * cr) * ti
    return _to_mpf(ctx, (head << f) + rest, -3 * f)


def _laurent_value(coeffs: Sequence, lo: int, x: tuple, f: int) -> tuple:
    """sum_j c_j x^(lo + j) for integer pairs at f fractional bits, c_0
    first, and lo <= 0 <= lo + len(coeffs): Horner's rule at x over the
    exponents >= 0 and at 1/x (rounded once) over the negative ones, so no
    part divides by a power of x."""
    neg, pos = coeffs[:-lo], coeffs[-lo:]
    vr = vi = 0
    if pos:
        vr, vi = _horner(pos, x, f)
    if neg:
        yr, yi = _reflect(x, f)  # 1/conj(x); 1/x is its conjugate
        nr, ni = _horner([(0, 0)] + neg[::-1], (yr, -yi), f)
        vr, vi = vr + nr, vi + ni
    return vr, vi


def _norm_pieces(weight: OuterWeight, spectrum: PointSpectrum, r_small: list,
                 lo: int, selected: list, tail: list, bits: int):
    """Norm bookkeeping in fixed point at bits fractional bits.

    r_small lists the pairs of z^lo, z^(lo+1), ...; the competitor,
    conj(r_small(1/conj(z))), lists their conjugates in reverse.  The
    circle part is the competitor's _circle_norm_sq.  The mass part of its
    squared norm is evaluated at the mass points themselves; the
    inside/tail split is evaluated independently at the reflected points
    through r_small.  Each value is a two-sided Horner sum
    (_laurent_value), and each sum of m |value|^2 is exact and rounded
    once.  The points z, the reflected points zeta = 1/conj(z) and the
    weights m are measure_opuc._mass_terms at bits, so both evaluations
    see the same point up to one rounding; their agreement then certifies
    the reflection step rather than the rounding of the points.
    """
    ctx, f = context(bits), bits
    competitor = [(re, -im) for re, im in reversed(r_small)]
    ac = _circle_norm_sq(weight, competitor, bits)
    key = weight.coeff_key()

    def mass_sum(coeffs: list, lo: int, masses: list, reflect: bool):
        total = 0
        for z, zeta, _, _, m, _ in _mass_terms(key, tuple(masses), f)[1]:
            vr, vi = _laurent_value(coeffs, lo, zeta if reflect else z, f)
            total += m * (vr * vr + vi * vi)
        return _to_mpf(ctx, total, -3 * f)

    total_sq = ac + mass_sum(competitor, 1 - lo - len(r_small),
                             spectrum.masses, False)
    inside = mass_sum(r_small, lo, selected, True)
    tail_sum = mass_sum(r_small, lo, tail, True)
    return (float(ac), float(inside), float(tail_sum),
            float(ctx.sqrt(total_sq)))


# the radii of the Schwarz check's circles, and its random points on each
_SCHWARZ_RADII = (0.5, 0.9)
_SCHWARZ_COUNT = 32


@dataclass(frozen=True, eq=False)
class _PipelineBase:
    """What every route reads at one n: the selection, the working bits f,
    the series of B phi0 p at f through order max(upto, trunc), and the
    route-free numbers of the certificate, with the Schwarz points (radii
    and points) and B phi0 p at them (target)."""

    n: int
    cap: int
    margin: int
    radius: float
    selected: list
    tail: list
    f: int
    trunc: int
    series: list
    apriori: float
    decay: float
    limit: float
    majorant: float
    radii: np.ndarray
    points: np.ndarray
    target: np.ndarray


def _route_upto(route: str, n: int) -> int:
    """The order through which a route reads the series: the vp kernel's
    support ends at 2n - 1, the Taylor truncation at n."""
    return 2 * n - 1 if route == "vp" else n


def _pipeline_base(spectrum: PointSpectrum, weight: OuterWeight, n: int,
                   sched: ScheduleParams, seed: int, upto: int) -> _PipelineBase:
    """The per-n part of a pipeline run, for routes reading the series
    through order upto at most.  _quotient_series fixes each coefficient
    from the earlier ones only, so a route with a smaller upto reads a
    prefix of this series, bit for bit the series of its own run."""
    cap, margin, radius, selected, tail = _selection(spectrum, n, sched)

    # reflected back, a coefficient error e shows up as e * |z_max|^n
    bits_pipe = 128
    if selected:
        z_max = max(abs(z) for z, _ in selected)
        bits_pipe = max(128, 64 + math.ceil(n * math.log2(z_max)))
    # psi at its own scale: a valid psi has |c_j| <= binom(d, j) psi(0)
    bits_pipe += max(0, -math.frexp(weight.psi0)[1])
    f = bits_pipe + _GUARD_BITS
    psi, terms = _mass_terms(weight.coeff_key(), tuple(selected), f)
    zeros = [(zeta, u, r) for _, zeta, u, r, _, _ in terms]
    corrector = corrector_with_radius(ZeroSet(tuple(
        complex(zr / 2 ** f, zi / 2 ** f) for (zr, zi), _, _ in zeros)),
        radius) if selected else None

    # the weight polynomial p(z) = sum conj(c_j) z^j, which is psi for real
    # coefficients: the moment table integrates against 1/|p|^2 (see
    # measure_opuc.moment)
    weight_f = LaurentPolynomial(0, np.conj(weight.psi.coeffs))
    trunc = _series_degree(corrector, weight_f)
    series = _bphi_series(zeros, radius, max(upto, trunc), f,
                          [(re, -im) for re, im in psi])

    rho_nodes = radius * grid_nodes(2048)
    m_radius = radius ** len(selected) * float(
        np.max(np.abs(weight_f(rho_nodes))))
    apriori = m_radius * radius ** (-(n + 1)) / (1.0 - 1.0 / radius)

    c_run = sched.c_bound
    if c_run is None:
        # each reflected zero's modulus |zeta| = |1/z|
        c_run = 2.0 * sum(1.0 - abs(1.0 / z) for z, _ in spectrum.masses)
    tail_mu = sum(m for _, m in tail)
    try:
        majorant = math.exp(c_run / sched.eps(n)) * tail_mu
    except OverflowError:
        majorant = math.inf if tail_mu else 0.0

    rng = np.random.default_rng(seed)
    radii = np.repeat(_SCHWARZ_RADII, _SCHWARZ_COUNT)
    points = radii * np.exp(1j * (2.0 * np.pi * rng.random(radii.size)))
    at_points = eval_B_phi(corrector, points) if corrector is not None else 1.0
    return _PipelineBase(
        n=n, cap=cap, margin=margin, radius=radius, selected=selected,
        tail=tail, f=f, trunc=trunc, series=series, apriori=apriori,
        decay=sched.decay(n),
        limit=target_limit(MeasureSpec(weight, spectrum)), majorant=majorant,
        radii=radii, points=points, target=at_points * weight_f(points))


def _schwarz_excess(approx: LaurentPolynomial, base: _PipelineBase,
                    sup_defect: float) -> float:
    diff = np.abs(approx(base.points) - base.target)
    return float(np.max(diff - sup_defect * base.radii ** base.n))


def _finish(base: _PipelineBase, spectrum: PointSpectrum, weight: OuterWeight,
            route: str, precision: int):
    """One route's approximant and certificate on the base of its n."""
    n, f = base.n, base.f
    upto = _route_upto(route, n)
    kernel = modified_vp(n) if route == "vp" else dirichlet(n)
    series = base.series[: max(upto, base.trunc) + 1]
    # the kernel's rational multipliers num_j/den on the series, each
    # coefficient rounded once to f bits: the certified approximant
    klo, khi = kernel_support(kernel)
    lo, hi = max(0, klo), min(upto, khi)
    nums, den = _multiplier_scaled(kernel, np.arange(lo, hi + 1))
    coeffs = [(_rdiv(re * k, den), _rdiv(im * k, den))
              for (re, im), k in zip(series[lo:hi + 1], nums.tolist())]
    scale = 1 << f
    approx = LaurentPolynomial(lo, [complex(re / scale, im / scale)
                                    for re, im in coeffs])
    # the defect B phi0 p - approx from the exact series, each coefficient
    # rounded once: those through order n cancel exactly
    defect = series
    for j, (re, im) in enumerate(coeffs, lo):
        defect[j] = (defect[j][0] - re, defect[j][1] - im)
    sup_defect = sup_norm_certified(LaurentPolynomial(0, [
        complex(re / scale, im / scale) for re, im in defect])).value

    leading_gap = abs(complex(approx.coefficient(0)) - base.limit)

    # r_small = approx z^(-n): exponents lo-n <= 0 <= hi-n, at the norm's bits
    bits = max(precision, f)
    r_small = [(re << (bits - f), im << (bits - f)) for re, im in coeffs]
    ac, inside, tail_sum, total_norm = _norm_pieces(
        weight, spectrum, r_small, lo - n, base.selected, base.tail, bits)

    excess = _schwarz_excess(approx, base, sup_defect)
    cert = PipelineCertificate(
        route=route, n=n, selection_cap=base.cap,
        margin_reciprocal=base.margin, radius=base.radius,
        selected_count=len(base.selected), sup_defect=sup_defect,
        apriori_defect=base.apriori, schedule_decay=base.decay,
        inverse_tail=0.0, leading_gap=leading_gap, ac_norm=ac,
        inside_mass_sum=inside, tail_mass_sum=tail_sum,
        tail_majorant=base.majorant, total_norm=total_norm,
        lower_bound_achieved=abs(complex(approx.coefficient(0))) / total_norm,
        # 1e-9, scaled with psi(0) below 1, so a small measure's check
        # keeps its strength
        schwarz_excess=excess,
        schwarz_pass=excess <= 1e-9 * min(1.0, weight.psi0))
    return approx, cert


def vp_approximant(spectrum: PointSpectrum, weight: OuterWeight, n: int,
                   sched: ScheduleParams | None = None, seed: int = 0,
                   precision: int = 256):
    """Kernel-convolution approximant and its certificate (Laurent route).

    The multiplier is flat through order n and vanishes beyond 2n, so the
    competitor, conj(approx(1/conj(z))) z^n, has exponent support inside
    [-(n-1), n].  The approximant is the certified one's complex128 image.
    """
    sched = sched or ScheduleParams.default()
    base = _pipeline_base(spectrum, weight, n, sched, seed,
                          _route_upto("vp", n))
    return _finish(base, spectrum, weight, "vp", precision)


def taylor_approximant(spectrum: PointSpectrum, weight: OuterWeight, n: int,
                       sched: ScheduleParams | None = None, seed: int = 0,
                       precision: int = 256):
    """Degree-n truncation approximant and its certificate (polynomial route).

    The competitor is a polynomial with support in [0, n].  The
    approximant is the certified one's complex128 image.
    """
    sched = sched or ScheduleParams.default()
    base = _pipeline_base(spectrum, weight, n, sched, seed,
                          _route_upto("taylor", n))
    return _finish(base, spectrum, weight, "taylor", precision)


def pipeline_certificates(spectrum: PointSpectrum, weight: OuterWeight,
                          n_grid: Sequence[int], sched: ScheduleParams,
                          routes: Sequence[str], seed: int = 0,
                          precision: int = 256) -> list:
    """The certificates of each route ("vp" or "taylor") over n_grid,
    route by route, each the one vp_approximant or taylor_approximant
    gives.  Each n's base is built once, where the first route reaches it,
    with the series run for the longest route, and dropped after the last
    route's run; so the runs raise in the same order as the one-route
    calls would."""
    bases = {}
    certs = []
    for route in routes:
        for n in n_grid:
            if n not in bases:
                bases[n] = _pipeline_base(
                    spectrum, weight, n, sched, seed,
                    max(_route_upto(r, n) for r in routes))
            base = bases.pop(n) if route == routes[-1] else bases[n]
            certs.append(_finish(base, spectrum, weight, route, precision)[1])
    return certs


# ----------------------------------------------------------------------
# convergence experiments


def convergence_experiment(mu: MeasureSpec, n_grid: Sequence[int],
                           which: str = "both") -> dict:
    """Exact leading coefficients against the limit over an n-grid.

    Computes the exact optimum per n and its error against the limit, with
    the closed form's guard bits and certified relative radius (None where
    the Gram route gives the value), and flags whether the error sequence
    is nonincreasing up to a factor 2.
    """
    ns = [int(n) for n in n_grid]
    if ns != sorted(set(ns)):
        raise ValueError("n_grid must be strictly increasing")
    if which not in ("tau", "eta", "both"):
        raise ValueError("which must be tau, eta, or both")
    want_tau = which in ("tau", "both")
    want_eta = which in ("eta", "both")
    target = target_limit(mu)
    rows = []
    for n in ns:
        row: dict = {"n": n}
        for key, want, leading in (("tau", want_tau, tau_n),
                                   ("eta", want_eta and n >= 1, eta_n)):
            if want:
                # the closed form's guard bits and certified relative
                # radius; None on the Gram route
                record = {"guard_bits": None, "relative_radius": None}
                row[key] = float(leading(mu, n, record))
                row[f"{key}_error"] = abs(row[key] - target)
                row[f"{key}_guard_bits"] = record["guard_bits"]
                row[f"{key}_relative_radius"] = record["relative_radius"]
        rows.append(row)

    def trend(key: str) -> bool:
        errs = [r[key] for r in rows if key in r]
        return all(errs[i + 1] <= 2.0 * errs[i] + 1e-15
                   for i in range(len(errs) - 1))

    flags = {}
    if want_tau:
        flags["tau"] = trend("tau_error")
    if want_eta:
        flags["eta"] = trend("eta_error")
    return {"target": target, "which": which, "n_grid": ns,
            "rows": rows, "trend": flags}
