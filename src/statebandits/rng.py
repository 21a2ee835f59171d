"""Deterministic RNG substream derivation.

Every random quantity in the package is drawn from a named substream so that
results are reproducible from a single master seed and independent of how
work is scheduled across processes. A substream is addressed by a path of
int64 integers and short strings, e.g. ``substream(seed, env_index,
run_index, "rewards")``; equal paths always yield identical generators, and
an int outside the int64 range raises ``ConfigurationError``.

``substream_raw`` computes the first raw outputs of many substreams at once,
any of whose integer path parts may vary by row, with the same numbers as
``substream``:
numpy's ``SeedSequence`` hash of the path, PCG64 seeding from its state words,
then the XSL-RR output function (O'Neill, *PCG*, 2014), in uint64 arithmetic.
``substream_random`` and ``substream_integers`` map those outputs the way
numpy's ``.random()`` and ``.integers(0, m)`` (m in [1, 2**32]) do; every
numpy stream format the package relies on is written here.
"""

import zlib

import numpy as np

from .errors import ConfigurationError, _check_integer, _check_integers

__all__ = ["substream", "substream_raw", "substream_random", "substream_integers"]

_MASK32 = 0xFFFFFFFF
# SeedSequence hash constants (numpy.random.bit_generator), pool of 4 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves
_PCG_MULT = (2549297995355413924, 4865540595714422341)
_U32, _U64 = np.uint32, np.uint64
_HASH_ROWS = 2048  # rows hashed at once: bounds the temporaries at about 0.5 MiB


def _coerce(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
        raise TypeError(f"substream path parts must be int or str, got {part!r}")
    # SeedSequence entropy must be non-negative; map via two's complement.
    return _check_integer(part, "substream path part") & ((1 << 64) - 1)


def substream(*path) -> np.random.Generator:
    """Return a Generator for the named substream. Same path, same stream. Its
    ``SeedSequence`` gets the 32-bit words numpy would build from the path's ints."""
    if not path:
        raise TypeError("substream needs at least one path element")
    words = []  # low word first; one word below 2**32
    for value in map(_coerce, path):
        words += (value & _MASK32, value >> 32) if value > _MASK32 else (value,)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=_U32)))


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.pool`` of each row of ``entropy`` (one uint32 array per word)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * _U32(hash_const)
        return value ^ (value >> _U32(16))

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _U32(16))

    zero = np.zeros_like(entropy[0])
    mixer = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixer[dst] = mix(mixer[dst], hashmix(word))
    return mixer


def _state_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)`` from the pool."""
    hash_const, halves = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ _U32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * _U32(hash_const)
        halves.append((value ^ (value >> _U32(16))).astype(_U64))
    return [halves[i] | (halves[i + 1] << _U64(32)) for i in range(0, 8, 2)]


def _mul_wide(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit product of uint64 ``a`` and the constant ``b``, as (high, low)."""
    a1, a0 = a >> _U64(32), a & _U64(_MASK32)
    b1, b0 = _U64(b >> 32), _U64(b & _MASK32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_MASK32)) + (p10 & _U64(_MASK32))
    high = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return high, (p00 & _U64(_MASK32)) | (mid << _U64(32))


def _lcg_step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step ``state * MULT + inc`` modulo 2**128 on (high, low) halves."""
    hi, lo = state
    carry, low = _mul_wide(lo, _PCG_MULT[1])
    high = carry + lo * _U64(_PCG_MULT[0]) + hi * _U64(_PCG_MULT[1])
    return _add128((high, low), inc)


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(_U64), lo


def _raw_outputs(entropy: list[np.ndarray], draws: int) -> np.ndarray:
    """The first ``draws`` PCG64 outputs after seeding from each entropy row."""
    seed_hi, seed_lo, seq_hi, seq_lo = _state_words(_pool(entropy))
    # PCG seeding: inc = 2 * seq + 1; state steps from 0, adds the seed, steps again
    inc = ((seq_hi << _U64(1)) | (seq_lo >> _U64(63)), (seq_lo << _U64(1)) | _U64(1))
    state = _lcg_step(_add128(inc, (seed_hi, seed_lo)), inc)
    out = np.empty((len(seed_hi), draws), dtype=_U64)
    for d in range(draws):
        state = _lcg_step(state, inc)
        hi, lo = state
        x, rot = hi ^ lo, hi >> _U64(58)
        out[:, d] = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return out


def _part(part) -> np.ndarray:
    """A path part as uint64: a scalar (int or str), or an array or nested
    sequence of per-row ones."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":  # a negative int maps by two's complement
        return _check_integers(part, "substream path part").view(_U64)
    return np.asarray(np.frompyfunc(_coerce, 1, 1)(np.array(part, dtype=object)), dtype=_U64)


def _rows(path) -> tuple[list[np.ndarray], tuple]:
    """The path's parts as uint64 broadcast to one shape and flattened to rows,
    and that shape."""
    parts = [_part(p) for p in path]
    shape = np.broadcast_shapes(*(p.shape for p in parts))
    return [np.broadcast_to(p, shape).ravel() for p in parts], shape


def substream_raw(*path, draws: int = 1) -> np.ndarray:
    """The first ``draws`` raw 64-bit outputs of ``substream(*path)`` for many paths at once.

    Each part is a scalar (int or str) or an array of per-row ints; array
    parts broadcast together, and the result has their shape plus a trailing
    ``draws`` axis. Row ``r`` equals ``substream(*row_r).bit_generator.random_raw(draws)``
    for the path ``row_r`` of scalars at that position (negative ints map by
    two's complement, as there). All rows are derived in one pass of array
    arithmetic per word count: a part of two 32-bit words lengthens the
    entropy, which changes the mixing.
    """
    if not path:
        raise TypeError("substream needs at least one path element")
    parts, shape = _rows(path)
    table = np.stack(parts)  # (parts, rows)
    wide = table > _U64(_MASK32)
    pattern = (wide << np.arange(len(parts))[:, None]).sum(axis=0)
    out = np.empty((table.shape[1], draws), dtype=_U64)
    for key in np.flatnonzero(np.bincount(pattern)):  # each word-count pattern present
        same = np.flatnonzero(pattern == key)
        for rows in np.split(same, range(_HASH_ROWS, same.size, _HASH_ROWS)):
            entropy = []
            for values, two_words in zip(table[:, rows], wide[:, rows[0]]):
                entropy.append((values & _U64(_MASK32)).astype(_U32))
                if two_words:
                    entropy.append((values >> _U64(32)).astype(_U32))
            out[rows] = _raw_outputs(entropy, draws)
    return out.reshape(shape + (draws,))


def substream_random(*path) -> np.ndarray:
    """``substream(*row).random()`` for each row of the path (as ``substream_raw``
    takes it): the top 53 bits of the first raw output, scaled by 2**-53."""
    raw = substream_raw(*path)[..., 0]
    return (raw >> _U64(11)).astype(np.float64) * 2.0**-53


def substream_integers(*path, sizes) -> np.ndarray:
    """``substream(*row).integers(0, m)`` for each row of the path (as
    ``substream_raw`` takes it) and size ``m`` of ``sizes`` (ints in [1, 2**32], which numpy
    draws from 32-bit words; broadcast with the rows), by numpy's Lemire rule: the stream's
    32-bit words (low half of each raw output, then the high half) are scaled by m, and the
    first ``w`` with ``(w * m) mod 2**32 >= (2**32 - m) % m`` gives ``(w * m) >> 32``.
    Rows whose words are all rejected derive more outputs; another size raises ConfigurationError."""
    sizes = _check_integers(sizes, "sizes")
    if np.any((sizes < 1) | (sizes > 2**32)):
        raise ConfigurationError(f"sizes must lie in [1, 2**32], got {sizes[(sizes < 1) | (sizes > 2**32)][0]}")
    (m, *rows), shape = _rows((sizes, *path))
    low, shift = _U64(_MASK32), _U64(32)
    threshold = (_U64(2**32) - m) % m
    out = np.full(m.size, -1, dtype=np.int64)
    todo, draws = np.arange(m.size), 1
    while todo.size:
        raw = substream_raw(*(r[todo].view(np.int64) for r in rows), draws=draws)  # the words' int64 twins
        for word in np.stack([raw & low, raw >> shift], axis=2).reshape(len(todo), -1).T:
            scaled = word * m[todo]
            accept = (out[todo] < 0) & ((scaled & low) >= threshold[todo])
            out[todo[accept]] = (scaled[accept] >> shift).astype(np.int64)
        todo, draws = todo[out[todo] < 0], 2 * draws
    return out.reshape(shape)
