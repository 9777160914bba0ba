"""Deterministic random substreams.

Every random draw in the package comes from a generator keyed by
``(path index, stream id, item index)`` under a single master seed, so the
output of a run never depends on the order in which paths or candidates are
processed.  The stream layout is frozen, since a run's draws and the
acceptance tests on them depend on it, so ``substreams``, which makes many
keys' generators at once, repeats numpy's ``SeedSequence`` mixing vectorized
over the keys (``tests/test_seeding.py::test_substreams_match_substream_bit_for_bit``).
"""

import numpy as np

STREAM_INIT = 0
STREAM_CANDIDATE = 1
STREAM_FINAL = 2
STREAM_RESAMPLE = 3

# numpy.random.SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def substream(master_seed: int, path: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for one (path, stream, index) cell of the seed lattice."""
    key = np.random.SeedSequence(int(master_seed), spawn_key=(int(path), int(stream), int(index)))
    return np.random.default_rng(key)


class _State(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words ``substreams`` computed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash(values, init, mult, skip=0):
    """SeedSequence's hash of uint32 ``values``, with its constants from call ``skip`` on."""
    consts = np.array([init] + [mult] * (skip + values.shape[1]), dtype=np.uint32)
    consts = np.multiply.accumulate(consts, dtype=np.uint32)   # in uint32, as numpy's hash
    values = (values ^ consts[skip:-1]) * consts[skip + 1:]
    return values ^ values >> 16


def substreams(master_seed: int, paths, stream: int, indices) -> list:
    """``substream(master_seed, paths[i], stream, indices[i])`` for every i, bit for bit.

    Keys must lie in [0, 2**32): a larger one takes two words of numpy's spawn key.
    """
    keys = np.array(np.broadcast_arrays(paths, stream, indices))    # (3, K)
    if keys.size and (keys.min() < 0 or keys.max() >= 2**32):
        raise ValueError("substream keys must lie in [0, 2**32)")
    # numpy's pool after the master seed's words (padded to the pool of 4) is
    # SeedSequence(master_seed).pool, made with 16 hash calls (4 to fill it, 12
    # to cross-mix it) and 4 more per word past the fourth.  Each key word is
    # then hashed once per pool word and mixed in.
    used = 16 + 4 * max(0, -(-int(master_seed).bit_length() // 32) - 4)
    pool = np.random.SeedSequence(int(master_seed)).pool
    for j, word in enumerate(keys.astype(np.uint32)):
        hashed = _hash(np.repeat(word[:, None], 4, 1), _INIT_A, _MULT_A, used + 4 * j)
        mixed = _MIX_L * pool - _MIX_R * hashed
        pool = mixed ^ mixed >> 16
    state = _hash(np.tile(pool, 2), _INIT_B, _MULT_B).astype(np.uint64)
    words = state[:, 0::2] | state[:, 1::2] << 32    # generate_state(4, np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in words]
