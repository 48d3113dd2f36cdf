import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpfewshot
from dpfewshot.rng import _mix_state, substream, substreams


def list_entropy_stream(master_seed, *path):
    """The substream formula in its list-entropy form: [seed, four digest words]."""
    digest = hashlib.sha256("/".join(str(p) for p in path).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed] + words))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 - 1]
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
    for seed in (np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1)):
        assert substream(seed, "x").bit_generator.state == list_entropy_stream(int(seed), "x").bit_generator.state


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.bit_generator.random_raw(8), want.bit_generator.random_raw(8))


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_batch_matches_substream(seed):
    batch = substreams(seed, PATHS)  # mixed path lengths in one batch
    assert len(batch) == len(PATHS)
    for got, path in zip(batch, PATHS):
        assert_same_stream(got, substream(seed, *path))


@pytest.mark.parametrize("size", [0, 1, 2, 41])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1])  # 5- to 8-word entropy
def test_batch_sizes(seed, size):
    paths = [("private", "World", 2, i) if i % 3 else ("center", "x", i) for i in range(size)]
    batch = substreams(seed, paths)
    assert len(batch) == size
    for got, path in zip(batch, paths):
        assert_same_stream(got, substream(seed, *path))


def test_batch_numpy_integer_seeds():
    for seed in (np.uint64(2**64 - 1), np.int64(2**63 - 1), np.uint32(2**32 - 1), np.int32(7)):
        for got, path in zip(substreams(seed, PATHS), PATHS):
            assert_same_stream(got, substream(int(seed), *path))


@pytest.mark.parametrize("seed", [-1, np.int64(-1), 2**128, 2**128 + 5], ids=["-1", "int64(-1)", "2**128", "2**128+5"])
def test_seed_outside_the_range_is_refused(seed):
    """No seed aliases another: a negative seed, or one of 129 bits or more, derives no stream."""
    for derive in (lambda: substream(seed, "x"), lambda: substreams(seed, [("x",)]), lambda: substreams(seed, [])):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*128\), got {int(seed)}"):
            derive()


def test_batch_streams_are_independent_objects():
    first, second = substreams(3, [("x",), ("x",)])
    assert first is not second
    first.random(5)
    assert_same_stream(second, substream(3, "x"))


def test_import_leaves_numpy_random_unloaded():
    """numpy loads numpy.random lazily, and HttpProvider imports requests on its first
    request; importing the package must pull in neither."""
    env = dict(os.environ, PYTHONPATH=str(Path(dpfewshot.__file__).parents[1]))
    code = "import sys, dpfewshot; print([name in sys.modules for name in ('numpy.random', 'requests')])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[False, False]"


@pytest.mark.parametrize("n_words", [5, 6, 7, 8])  # a 1- to 4-word seed plus four digest words
def test_mix_state_matches_seed_sequence(n_words):
    entropy = np.random.default_rng(n_words).integers(0, 2**32, size=(n_words, 12), dtype=np.uint32)
    entropy[:, 0], entropy[:, 1] = 0, 2**32 - 1
    state = _mix_state(entropy)
    assert state.shape == (12, 4) and state.dtype == np.uint64
    for words, row in zip(entropy.T, state):
        np.testing.assert_array_equal(row, np.random.SeedSequence(words).generate_state(4, np.uint64))


SEEDS = st.one_of(
    st.integers(0, 2**128 - 1), st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**128 - 1]),
)
PATH_ELEMENTS = st.one_of(
    st.integers(-(2**70), 2**70), st.text(max_size=12), st.sampled_from(["/", "Sci/Tech", "é", "a/é/日本"]),
)


@given(seed=SEEDS, paths=st.lists(st.lists(PATH_ELEMENTS, max_size=5).map(tuple), max_size=60))
@example(seed=2**32 - 1, paths=[("a/b", "é", 3), ()])
@example(seed=2**32, paths=[("center", "Sci/Tech é", 0)] * 60)
@settings(max_examples=150, deadline=None)
def test_batch_equals_substream_for_any_seed_and_paths(seed, paths):
    batch = substreams(seed, paths)
    assert len(batch) == len(paths)
    for got, path in zip(batch, paths):
        assert_same_stream(got, substream(seed, *path))
