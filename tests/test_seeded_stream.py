"""contract.seeded_uniforms against numpy's default_rng, bit for bit.

vs-bound's zero sets and the pipeline's Schwarz points draw from
contract.seeded_uniforms, numpy's SeedSequence and PCG64 on Python
integers, so every certificate keeps the zero sets and points that
numpy.random gave.  Each test draws in the order generate_zeros and the
pipeline do: random(n), random(n), random().
"""

import random

import numpy as np
import pytest

from szego_lab.contract import seeded_uniforms

# one pool word and more: a seed past 2^32 has a second word, past 2^128
# more words than the pool holds
SEEDS = list(range(50)) + [2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1,
                           (1 << 199) + 0x5EED, 3**120]


def draws(stream, n: int) -> bytes:
    """The bytes of random(n), random(n) and random() from stream: numpy's
    Generator or a seeded_uniforms iterator."""
    if isinstance(stream, np.random.Generator):
        arrays = [stream.random(n), stream.random(n), np.array([stream.random()])]
    else:
        arrays = [np.fromiter(stream, float, n), np.fromiter(stream, float, n),
                  np.array([next(stream)])]
    return b"".join(a.tobytes() for a in arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys_default_rng(seed):
    assert draws(seeded_uniforms(seed), 64) == draws(
        np.random.default_rng(seed), 64)


def test_stream_matches_on_random_seeds():
    rng = random.Random(20261022)
    for bits in [32, 64, 96, 128, 160] * 20:
        seed = rng.getrandbits(bits)
        assert draws(seeded_uniforms(seed), 8) == draws(
            np.random.default_rng(seed), 8), seed


def test_a_draw_is_a_python_float():
    # radial_line's modulus and angle are Python floats, as numpy's
    # random() returns them
    assert type(next(seeded_uniforms(7))) is float


def test_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        seeded_uniforms(-1)
