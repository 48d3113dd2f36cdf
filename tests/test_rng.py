import hashlib

import numpy as np
import pytest

from dpfewshot.rng import substream


def list_entropy_stream(master_seed, *path):
    """The substream formula in its list-entropy form: [seed mod 2**64, four digest words]."""
    digest = hashlib.sha256("/".join(str(p) for p in path).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed & (2**64 - 1)] + words))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -1]
RANDOM_SEEDS = [int(s) for s in np.random.default_rng(20).integers(0, 2**64, size=24, dtype=np.uint64)]
PATHS = [
    (),
    ("labels",),
    ("demo", 3, "token", 17, "mean"),
    ("private", "World", 2, 39),
    ("center", "Sci/Tech é", 0),
]


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_draws_match_the_list_entropy_formula(seed):
    for path in PATHS:
        got, want = substream(seed, *path), list_entropy_stream(seed, *path)
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.bit_generator.random_raw(8), want.bit_generator.random_raw(8))


def test_numpy_integer_seeds_match_python_ints():
    for seed in (np.uint64(2**64 - 1), np.int64(-1), np.uint32(2**32 - 1)):
        assert substream(seed, "x").bit_generator.state == list_entropy_stream(int(seed), "x").bit_generator.state

