"""Deterministic random substreams.

Every random draw in the package comes from a generator keyed by
``(path index, stream id, item index)`` under a single master seed, so the
output of a run never depends on the order in which paths or candidates are
processed.
"""

import numpy as np

STREAM_INIT = 0
STREAM_CANDIDATE = 1
STREAM_FINAL = 2
STREAM_RESAMPLE = 3


def substream(master_seed: int, path: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator for one (path, stream, index) cell of the seed lattice."""
    key = np.random.SeedSequence(int(master_seed), spawn_key=(int(path), int(stream), int(index)))
    return np.random.default_rng(key)
