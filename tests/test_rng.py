"""The batch substream derivation against numpy's own generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebandits import ConfigurationError, rng
from statebandits.rng import substream, substream_integers, substream_random, substream_raw

# path parts of one and of two 32-bit words, negatives included (two's complement: a negative int64
# hashes the uint64 word 2**64 above it, so the upper half of the words is covered too)
seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1), st.integers(-2**63, -1))
ids = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1),
                st.integers(-2**63, -1))
tags = st.sampled_from(["nlp", "expert", "cohort", "rewards", ""])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(prefix=st.lists(seeds, min_size=0, max_size=3), suffix=st.lists(tags, max_size=2),
       batch=st.lists(ids, min_size=1, max_size=6), m=st.integers(1, 8))
def test_batch_matches_substream(prefix, suffix, batch, m):
    raw = substream_raw(*prefix, batch, *suffix, draws=3)
    uniforms = substream_random(*prefix, batch, *suffix)
    picks = substream_integers(*prefix, batch, *suffix, sizes=m)
    for row, i in enumerate(batch):
        path = (*prefix, i, *suffix)
        assert raw[row].tolist() == substream(*path).bit_generator.random_raw(3).tolist()
        assert uniforms[row] == substream(*path).random()
        assert picks[row] == substream(*path).integers(0, m)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(seeds, ids), min_size=1, max_size=5), cols=st.lists(ids, min_size=1, max_size=4),
       tag=tags, m=st.integers(1, 8))
def test_several_per_row_parts_broadcast(rows, cols, tag, m):
    # a (seed, id) column against a row of ids, as rater labels of many seeds take them
    seed_col, id_col = (np.array([r[i] for r in rows], dtype=np.int64)[:, None] for i in (0, 1))
    raw = substream_raw(seed_col, id_col, tag, cols, draws=2)
    sizes = np.arange(len(cols)) % m + 1
    picks = substream_integers(seed_col, id_col, tag, cols, sizes=sizes)
    assert raw.shape == (len(rows), len(cols), 2) and picks.shape == (len(rows), len(cols))
    for r, (s, i) in enumerate(rows):
        for c, j in enumerate(cols):
            assert raw[r, c].tolist() == substream(s, i, tag, j).bit_generator.random_raw(2).tolist()
            assert picks[r, c] == substream(s, i, tag, j).integers(0, sizes[c])


def test_integer_arrays_and_path_parts_agree():
    values = [0, 1, 2**32 - 1, 2**32, -2**63 + 5, -1, -2**40]
    as_parts = substream_raw(7, values, "t")
    assert np.array_equal(substream_raw(7, np.array(values[:4], dtype=np.uint64), "t"), as_parts[:4])
    assert np.array_equal(substream_raw(7, np.array(values[4:], dtype=np.int64), "t"), as_parts[4:])
    # scalars alone are one row
    assert np.array_equal(substream_raw(7, values[3], "t"), as_parts[3])
    assert substream_raw(7, [], "t", draws=2).shape == (0, 2)
    for bad in ([0.5], np.array([0.5]), np.array([True]), 0.5):
        with pytest.raises(TypeError):
            substream_raw(7, bad)
    with pytest.raises(ConfigurationError, match="substream path part 18446744073709551616 outside"):
        substream_raw(7, [1, 2**64])
    # a uint64 entry of 2**63 or more is refused as the same int in a list is: it is no int64
    for bad in ([1, 2**63], np.array([1, 2**63], dtype=np.uint64)):
        with pytest.raises(ConfigurationError, match=r"substream path part 9223372036854775808 outside "
                                                     r"\[-2\*\*63, 2\*\*63\)"):
            substream_raw(7, bad)
    with pytest.raises(TypeError):
        substream_raw()


_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _pcg64_first_output(first: int) -> np.random.PCG64:
    """A PCG64 whose next raw output is ``first`` (its state has rotation 0)."""
    inc = (12345 << 1) | 1
    state = (123 << 64) | (first ^ 123)  # xsl_rr: high ^ low, rotated by the top 6 bits
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (state - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128,
                            "inc": inc}}
    return bits


@pytest.mark.parametrize("first, m", [
    (0, 3),                        # both words rejected: the second output decides
    (5 << 32, 3),                  # low word rejected, high word accepted
    (715827883, 6),                # (w * 6) mod 2**32 = 2 < 4 rejects a would-be 1
    ((715827883 << 32) | 0, 6),    # both rejected
    (2**64 - 1, 7), (2**63, 5), (123456789, 1), (2**40 + 17, 8),
    (0, 2**32 - 1), (7, 2**32 - 1),                # at 2**32 - 1 only the word 0 is rejected
    (2**64 - 1, 2**32), ((5 << 32) | 9, 2**32),    # the largest size: no word is rejected
])
def test_integers_follow_lemire_rejection(monkeypatch, first, m):
    assert _pcg64_first_output(first).random_raw() == first
    monkeypatch.setattr(rng, "substream_raw", lambda *path, draws: np.array(
        [_pcg64_first_output(first).random_raw(draws) for _ in np.broadcast(*path)], dtype=np.uint64))
    expected = np.random.Generator(_pcg64_first_output(first)).integers(0, m)
    assert substream_integers(0, [1, 2], sizes=[m, m]).tolist() == [expected, expected]


@pytest.mark.parametrize("bad, message", [
    (0, "must lie in .*, got 0"), (-3, "must lie in .*, got -3"), ([1, 0], "must lie in .*, got 0"),
    (2**32 + 1, "must lie in .*, got 4294967297"), (2**40, "must lie in .*, got 1099511627776"),
    (np.array([2**40], dtype=np.uint64), "must lie in .*, got 1099511627776"), (1.5, "must be an integer, got 1.5"),
])
def test_integers_refuse_sizes_outside_1_to_2_32(bad, message):
    # numpy refuses a size below 1, and draws a size above 2**32 from 64-bit words, not by this rule
    with pytest.raises(ConfigurationError, match=rf"^sizes {message}$"):
        substream_integers(9, [1, 2], sizes=bad)


def test_integers_redraw_rows_with_negative_parts():
    # at m = 2**31 + 1 about half the words are rejected, so many rows derive more outputs from their
    # paths' uint64 words, the words of negative parts included
    m, seeds, ids = 2**31 + 1, np.array([-1, -2**63, 5], dtype=np.int64)[:, None], np.arange(-20, 20)
    expected = [[substream(int(s), int(i), "x").integers(0, m) for i in ids] for s in seeds[:, 0]]
    assert substream_integers(seeds, ids, "x", sizes=m).tolist() == expected


@pytest.mark.parametrize("path", [(0,), (2**32 - 1,), (2**32,), (-1,), (-1,), (-2**63,), ("rewards",),
                                  (7, 2**32 - 1, "bai", 2**32, 0), (-1, -1, "", "uniform_eba")])
def test_substream_seeds_as_numpy_coerces_a_list(path):
    # substream hands SeedSequence the path's 32-bit words itself; the generator state must be the
    # one numpy builds from the list of the path's ints (negatives by two's complement, strings by crc32)
    ints = [int(p) % 2**64 if isinstance(p, int) else rng._coerce(p) for p in path]
    expected = np.random.default_rng(np.random.SeedSequence(ints))
    assert substream(*path).bit_generator.state == expected.bit_generator.state
    assert substream(*path).random(3).tolist() == expected.random(3).tolist()


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, np.float64(2.0), None, 2**64, -2**63 - 1, 2**63,
                                 2**64 - 1])
def test_substream_rejects_floats_and_booleans(bad):
    # an int outside [-2**63, 2**63) would name the stream of one inside it
    error, message = ((ConfigurationError, f"substream path part {bad} outside") if type(bad) is int
                      else (TypeError, "substream path parts must be int or str"))
    with pytest.raises(error, match=message):
        substream(7, bad)
