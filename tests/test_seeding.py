"""Tests for the batched substreams against numpy's own SeedSequence path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathfinder.seeding import STREAM_CANDIDATE, STREAM_RESAMPLE, substream, substreams

KEY_WORD = st.integers(0, 2**32 - 1)
MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1, 2**128 + 3, 2**200 - 1]),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**300),
)


def assert_same_streams(master_seed, paths, stream, indices):
    rngs = substreams(master_seed, paths, stream, indices)
    assert len(rngs) == len(paths)
    for rng, path, index in zip(rngs, paths, indices):
        expected = substream(master_seed, path, stream, index)
        assert rng.bit_generator.state == expected.bit_generator.state
        np.testing.assert_array_equal(rng.standard_normal(3), expected.standard_normal(3),
                                      strict=True)


@settings(max_examples=80, deadline=None)
@given(MASTER_SEEDS, st.lists(st.tuples(KEY_WORD, KEY_WORD), max_size=8),
       st.integers(0, STREAM_RESAMPLE))
def test_substreams_match_substream_bit_for_bit(master_seed, keys, stream):
    paths = [path for path, _ in keys]
    indices = [index for _, index in keys]
    assert_same_streams(master_seed, paths, stream, indices)


@settings(max_examples=30, deadline=None)
@given(MASTER_SEEDS, st.lists(st.integers(0, 40), min_size=1, max_size=8))
def test_small_keys_counting_up_from_zero(master_seed, indices):
    # The layout the scoring pass uses: small path and candidate indices.
    assert_same_streams(master_seed, list(range(len(indices))), STREAM_CANDIDATE, indices)


def test_one_key_and_no_keys():
    # A single key still mixes inside arrays: a uint32 scalar that wrapped
    # would warn, and warnings fail the tests.
    assert_same_streams(2**64 - 1, [2**32 - 1], STREAM_CANDIDATE, [2**32 - 1])
    assert substreams(7, [], STREAM_CANDIDATE, []) == []


@pytest.mark.parametrize("paths, indices", [
    ([0, 2**32], [1, 1]),
    ([0, 1], [2**32, 1]),
    ([0, -1], [1, 1]),
    ([0, 1], [1, -5]),
])
def test_keys_outside_one_word_are_refused(paths, indices):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        substreams(1, paths, STREAM_CANDIDATE, indices)


def test_stream_id_outside_one_word_is_refused():
    with pytest.raises(ValueError):
        substreams(1, [0], 2**32, [0])
