"""What the command line needs before it knows the command, on the
standard library alone: the input readers, the precision tags, the
exception classes of the exit-code contract (2 input, 3 numeric,
4 schedule) that the exact-arithmetic modules raise, and the seeded
stream that vs-bound's zero sets and the pipeline's Schwarz points draw.

Each class is re-exported by the module that raises it (measure_opuc,
xlinalg, asymptotics), under the same name and as the same object, so
cli catches it without importing those modules, and so without mpmath.
"""

PRECISION_BITS = (53, 128, 256, 512)


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


def _as_float(v) -> float:
    """v as a float, for an int or a float; TypeError for anything else, so
    that true and "1.0" are not read as numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


class QuadratureError(ArithmeticError):
    """Grid quadrature failed to converge before the node cap."""


class NotPositiveDefinite(ArithmeticError):
    """Pivot <= 0 during factorization; carries the failing pivot index and,
    if given, the pivot's value as a double, rounded once from the
    factor's integers (xlinalg._to_float)."""

    def __init__(self, pivot: int, value: float | None = None):
        self.pivot = pivot
        self.value = value
        super().__init__(f"nonpositive pivot at index {pivot}" + (
            "" if value is None else f" (value {value:.8g})"))


class ScheduleViolation(ValueError):
    """A schedule parameter failed its slow-growth requirements."""


# ----------------------------------------------------------------------
# the seeded stream: numpy's SeedSequence (NEP 19) feeding PCG64 (M. E.
# O'Neill, "PCG: A family of simple fast space-efficient statistically good
# algorithms for random number generation", HMC-CS-2014-0905, 2014), on
# Python integers

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash with its running constant: each call xors a
    32-bit word with the constant, steps the constant by mult, multiplies
    the word by it and xorshifts the product by 16."""
    def hashed(word: int) -> int:
        nonlocal const
        word ^= const
        const = const * mult & _M32
        word = word * const & _M32
        return word ^ word >> 16
    return hashed


def _mix(x: int, y: int) -> int:
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


def _pcg64_seed(seed: int) -> tuple:
    """(state, inc) of numpy's PCG64(seed) after seeding: the seed's 32-bit
    words, low first, hashed into a 4-word pool, and 8 words of the pool's
    generate_state(4, uint64) paired little-endian into w0..w3."""
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hash_a(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_a(word))
    hash_b = _hasher(0x8B51F9DD, 0x58F38DED)
    half = [hash_b(pool[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (half[i] | half[i + 1] << 32 for i in range(0, 8, 2))
    # from state 0: step, add the initial state, step
    inc = (w2 << 64 | w3) << 1 | 1
    return (inc + (w0 << 64 | w1)) * _PCG_MULT + inc & _M128, inc


def _xsl_rr_doubles(state: int, inc: int):
    """PCG64's doubles from (state, inc): each draw steps the 128-bit LCG
    once and outputs XSL-RR, the state's halves xored and rotated right by
    its top 6 bits; the output's top 53 bits times 2^-53 are the double."""
    while True:
        state = state * _PCG_MULT + inc & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0 ** -53


def seeded_uniforms(seed: int):
    """The doubles of numpy's default_rng(seed).random(), in order and bit
    for bit, as an endless iterator: np.fromiter(stream, float, n) draws
    what random(n) does, next(stream) what random() does.  ValueError for a
    negative seed, at the call."""
    return _xsl_rr_doubles(*_pcg64_seed(seed))
