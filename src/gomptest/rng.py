"""Deterministic random-number streams for parallel Monte Carlo.

Every random draw in the package comes from a counter-based Philox
generator keyed by (seed, path...), so a given logical stream produces
the same numbers no matter which worker evaluates it or in which order.
"""

import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(z):
    """SplitMix64 finalizer: a bijective 64-bit hash."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(seed, *path):
    """Fold a seed and an integer path into a single 64-bit stream key.

    The seed and every path part must be integers in [0, 2^64); anything
    else raises ValueError, so no two distinct seeds share a stream.
    """
    h = mix64(_word(seed))
    for part in path:
        h = mix64(h ^ mix64(_word(part)))
    return h


def _word(v):
    # NumPy integers are Integral; int() gives the equal Python int, so the
    # same stream. A bool is not a seed.
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) and 0 <= int(v) <= _MASK64):
        raise ValueError(f"seeds and stream path parts must be integers in [0, 2**64), got {v!r}")
    return int(v)


def substream(seed, *path):
    """Generator for the logical stream addressed by (seed, path...).

    Distinct paths give statistically independent Philox streams; the same
    path always gives the same stream.
    """
    k = derive_key(seed, *path)
    key = np.array([k, mix64(k)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
