"""Deterministic named RNG substreams derived from one master seed.

Every noise site in the pipeline draws from its own stream, keyed by a
path of names/indices (e.g. ``("demo", 3, "token", 17, "mean")``).  Streams
are independent and stable across runs, so an early loop break at one
token position can never shift the draws consumed at another.

``substreams`` runs numpy's SeedSequence mixing once, vectorised over many
paths: its i-th Generator has exactly the state of ``substream(seed, *paths[i])``.
A batch has a fixed cost of about five ``substream`` calls, so callers batch
whole units of work: the synthetic provider derives a token's center and M
row streams in one call, and the pipeline derives every stream a demo's token
steps read in one call.  Per-token noise batches (three paths) would be slower
than three ``substream`` calls.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


def _seed_words(master_seed: int) -> list[int]:
    seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF
    return [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]


def _path_digest(path) -> bytes:
    return hashlib.sha256("/".join(map(str, path)).encode("utf-8")).digest()[:16]


def substream(master_seed: int, *path) -> np.random.Generator:
    """Return a Generator for the substream named by ``path``.

    The mapping (master_seed, path) -> stream is a pure function; calling
    twice yields independent Generator objects that produce identical draws.
    SeedSequence gets the uint32 array it builds from the list [master_seed
    mod 2**64, *the path's four big-endian SHA-256 words]: seed words low first.
    """
    words = _seed_words(master_seed) + list(struct.unpack(">4I", _path_digest(path)))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


# numpy's SeedSequence (pool size 4): the hash constant chains const * mult**i mod 2**32 of its mixing
# (4 fill, 12 cross, 4 per entropy word past the pool; 6 words at most) and generate_state (8 words).
_MIX_CHAIN = np.array([0x43B0D7E5 * pow(0x931E8875, i, 2**32) % 2**32 for i in range(25)], dtype=np.uint32)
_OUT_CHAIN = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)], dtype=np.uint32)


def _hashmix(value: np.ndarray, chain: np.ndarray, start: int, count: int) -> np.ndarray:
    value = (value ^ chain[start : start + count, None]) * chain[start + 1 : start + count + 1, None]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return result ^ (result >> 16)


@functools.cache
def _preset_seed() -> type:
    """The ISeedSequence that hands PCG64 precomputed words, built on first use (numpy.random loads lazily)."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass(frozen=True)
    class PresetSeed(ISeedSequence):
        words: np.ndarray
        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetSeed


def substreams(master_seed: int, paths) -> list[np.random.Generator]:
    """Generators for many paths at once: element i equals ``substream(master_seed, *paths[i])``."""
    seed = np.array(_seed_words(master_seed), dtype=np.uint32)[:, None].repeat(len(paths), axis=1)
    entropy = np.vstack([seed, np.frombuffer(b"".join(map(_path_digest, paths)), ">u4").reshape(-1, 4).T])
    with np.errstate(over="ignore"):
        pool = _hashmix(entropy[:4], _MIX_CHAIN, 0, 4)  # entropy always fills the pool
        for src in range(4):
            dst = [i for i in range(4) if i != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_CHAIN, 4 + 3 * src, 3))
        for extra, word in enumerate(entropy[4:]):
            pool = _mix(pool, _hashmix(word, _MIX_CHAIN, 16 + 4 * extra, 4))
        state = _hashmix(np.concatenate([pool, pool]), _OUT_CHAIN, 0, 8)
    seeds = np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_preset_seed()(row))) for row in seeds]


@dataclass(frozen=True)
class NoiseStreams:
    """The three noise sites of one aggregation call.

    goodradius: scalar draws inside the DP binary search
    mean:       one K-vector draw per noisy mean estimate
    check:      one scalar draw per coverage check
    """

    goodradius: np.random.Generator
    mean: np.random.Generator
    check: np.random.Generator

    #: The field names, each also the last element of its stream's path.
    SITES: ClassVar[tuple[str, ...]] = ("goodradius", "mean", "check")

    @classmethod
    def from_seed(cls, master_seed: int, *path) -> "NoiseStreams":
        return cls(**{site: substream(master_seed, *path, site) for site in cls.SITES})
