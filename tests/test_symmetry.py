"""Maps that leave a certified number unchanged, checked with no oracle:
the number computed on the mapped input against the number computed on
the input itself.

Only relations that hold are here.  A quarter turn of a measure should
leave tau_n, eta_n and the pipeline unchanged too, but does not yet: the
moments and the mass terms pair the two parts of the inner product
inconsistently for a rotated psi (ROADMAP, "One inner-product
convention").
"""

import pytest

from szego_lab.blaschke import ZeroSet, build_corrector, corrector_certificate
from szego_lab.circle_fourier import LaurentPolynomial
from szego_lab.cli import generate_zeros
from szego_lab.contract import PRECISION_BITS
from szego_lab.measure_opuc import (
    MeasureSpec,
    OuterWeight,
    PointSpectrum,
    eta_n,
    tau_n,
)

# (psi coefficients, masses (z, m)): the README's two-mass measure, and
# psi = 1 + (0.3 - 0.2i) z + 0.1i z^2 with two complex masses
MEASURES = {
    "readme": ([1.0, -0.5], [(1.5, 0.3), (-1.25, 0.1)]),
    "complex": ([1.0, 0.3 - 0.2j, 0.1j], [(1.5 + 0.8j, 0.3),
                                          (-1.2 + 0.9j, 0.2)]),
}
NS = (1, 2, 8, 40)


def measure(psi, masses, bits):
    return MeasureSpec(OuterWeight(LaurentPolynomial(0, psi)),
                       PointSpectrum(tuple(masses)), bits)


def leading(mu):
    """tau_n and eta_n of mu at each n of NS, as mpf."""
    return [f(mu, n) for n in NS for f in (tau_n, eta_n)]


@pytest.mark.parametrize("bits", PRECISION_BITS)
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_leading_coefficients_are_unchanged_by_maps_of_the_measure(name, bits):
    """Permuting the masses, splitting a mass m at z into two of m/2 at z,
    and scaling (psi, m_i) to (c psi, m_i / c^2), c = 2^100 or 2^-100,
    which scales the measure by 1/c^2 and each leading coefficient by c.

    Tolerance: none, bit for bit.  Each value is the exact leading
    coefficient rounded once to the tag (Ziv's test keeps a run only when
    its certified ball decides the rounding), these maps leave the exact
    value unchanged, and a power of two commutes with the rounding.
    """
    psi, masses = MEASURES[name]
    want = leading(measure(psi, masses, bits))
    (z, m), rest = masses[0], masses[1:]
    assert leading(measure(psi, masses[::-1], bits)) == want
    assert leading(measure(psi, [(z, m / 2), (z, m / 2), *rest], bits)) == want
    for c in (2.0 ** 100, 2.0 ** -100):
        scaled = measure([c * p for p in psi],
                         [(z, m / c ** 2) for z, m in masses], bits)
        assert leading(scaled) == [c * v for v in want]


@pytest.mark.parametrize("turn", ["quarter", "reflection"])
def test_corrector_certificate_is_unchanged_by_a_turn_of_the_zeros(turn):
    """A quarter turn (z to iz) and a reflection (z to conj z) of a 64-zero
    uniform_disk set, eps 1, map the corrector's sampling grid onto itself,
    so sup_phi, ratio_s1, its upper bound and besov_ratio_s1 are the same
    numbers.

    Tolerance: 1e-13 relative.  Both maps are exact on the zeros, but the
    certificate's FFTs round in a permuted (or conjugated) basis, and its
    envelope reads the zeros' angles in another order, so the doubles
    differ in their last few places.
    """
    zeros = generate_zeros("uniform_disk", 64, 1).zeros
    moved = ([complex(-z.imag, z.real) for z in zeros] if turn == "quarter"
             else [z.conjugate() for z in zeros])
    got, want = (corrector_certificate(build_corrector(ZeroSet(tuple(zs)), 1.0),
                                       (1,))
                 for zs in (moved, zeros))
    for key in ("sup_phi", "ratio_s1", "ratio_s1_upper", "besov_ratio_s1"):
        assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0), key
