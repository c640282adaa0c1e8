"""Extended-precision Hermitian linear algebra for Gram-matrix certificates.

Dense column-stored Hermitian matrices at a fixed mantissa-bit tag, a
left-looking Cholesky factorization, and the two routes to the constrained
leading-coefficient extremal problem: the Schur complement of the pivoted
last coordinate (via the leading principal sub-block) and the explicit
maximizer built from the full inverse applied to the last basis vector.
Both routes are kept deliberately distinct so their agreement is a check,
not a tautology.

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
from typing import Sequence

from mpmath import MPContext, mp

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
    "constrained_max_leading",
    "frobenius_residual",
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
    """Hermitian matrix in dense column storage at a precision tag.

    columns[k][j] is the (j, k) entry.  Construction verifies Hermitian
    symmetry to one unit in the last place of the tag.
    """

    __slots__ = ("dim", "columns", "bits")

    def __init__(self, columns: Sequence[Sequence], bits: int = 53, _skip_check: bool = False):
        PrecisionTag(bits)
        ctx = context(bits)
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
    def from_rows(cls, rows: Sequence[Sequence], bits: int = 53) -> "HermitianMatrix":
        n = len(rows)
        return cls([[rows[j][k] for j in range(n)] for k in range(n)], bits)

    @classmethod
    def identity(cls, n: int, bits: int = 53) -> "HermitianMatrix":
        return cls([[1 if j == k else 0 for j in range(n)] for k in range(n)],
                   bits, _skip_check=True)

    def principal_block(self, m: int) -> "HermitianMatrix":
        """Leading m-by-m principal sub-block (shares the tag)."""
        out = HermitianMatrix.__new__(HermitianMatrix)
        out.dim = m
        out.columns = tuple(col[:m] for col in self.columns[:m])
        out.bits = self.bits
        return out


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


def cholesky(g: HermitianMatrix) -> CholeskyFactor:
    """Left-looking Cholesky L with L L* = G.

    Raises NotPositiveDefinite (with the pivot index) on a nonpositive
    diagonal pivot; that signal drives the caller-side precision escalation
    protocol.
    """
    n = g.dim
    ctx = context(g.bits)
    rows: list[list] = []
    for i in range(n):
        row = []
        for j in range(i):
            s = ctx.fdot(row[:j], rows[j][:j], conjugate=True) if j else ctx.mpc(0)
            row.append((g.entry(i, j) - s) / rows[j][j])
        s = ctx.fdot(row, row, conjugate=True) if row else ctx.mpf(0)
        pivot = ctx.re(g.entry(i, i) - s)
        if pivot <= 0:
            raise NotPositiveDefinite(i, pivot)
        row.append(ctx.sqrt(pivot))
        rows.append(row)
    return CholeskyFactor(tuple(tuple(r) for r in rows), g.bits)


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

    The leading (N-1)-block is factored and the coupling column forward
    solved; the complement G_NN - |y|^2 is the squared distance from the
    pivot to the span of the others.  Returns an mpf.
    """
    n = g.dim
    ctx = context(g.bits)
    if n == 1:
        s = ctx.re(g.entry(0, 0))
    else:
        sub = cholesky(g.principal_block(n - 1))
        coupling = [g.entry(j, n - 1) for j in range(n - 1)]
        y = solve_lower(sub, coupling)
        s = ctx.re(g.entry(n - 1, n - 1)) - ctx.re(ctx.fdot(y, y, conjugate=True))
    if s <= 0:
        raise NotPositiveDefinite(n - 1, s)
    return 1 / ctx.sqrt(s)


def constrained_max_leading(g: HermitianMatrix):
    """Maximize |v_N| subject to v* G v <= 1.

    Returns (eta, witness): eta = sqrt((G^-1)_NN) and the maximizer
    v = G^-1 e_N / eta, so v_N = eta and v* G v = 1.
    """
    n = g.dim
    l = cholesky(g)
    ctx = context(g.bits)
    e_n = [ctx.mpc(0)] * n
    e_n[n - 1] = ctx.mpc(1)
    y = solve_lower(l, e_n)
    x = solve_upper_conj(l, y)
    w = ctx.re(x[n - 1])
    if w <= 0:
        raise NotPositiveDefinite(n - 1, w)
    eta = ctx.sqrt(w)
    witness = tuple(xi / eta for xi in x)
    return eta, witness


def frobenius_residual(g: HermitianMatrix, l: CholeskyFactor):
    """||L L* - G||_F / ||G||_F, measured 64 bits above the working tag."""
    n = g.dim
    ctx = context(g.bits + 64)
    num = ctx.mpf(0)
    den = ctx.mpf(0)
    for i in range(n):
        for j in range(n):
            m = min(i, j) + 1
            rec = ctx.fdot(l.rows[i][:m], l.rows[j][:m], conjugate=True)
            gij = ctx.mpc(g.entry(i, j))
            num += abs(rec - gij) ** 2
            den += abs(gij) ** 2
    return ctx.sqrt(num) / ctx.sqrt(den)
