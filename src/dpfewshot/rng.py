"""Deterministic named RNG substreams derived from one master seed.

Every noise site in the pipeline draws from its own stream, keyed by a
path of names/indices (e.g. ``("demo", 3, "token", 17, "mean")``).  Streams
are independent and stable across runs, so an early loop break at one
token position can never shift the draws consumed at another.

``substreams`` runs numpy's SeedSequence mixing once, vectorised over many
paths: its i-th Generator has exactly the state of ``substream(seed, *paths[i])``.
A batch costs about three ``substream`` calls (45-50 us) plus about 3 us a
path (2-core host, numpy 2.4), so callers batch whole units of work: the
synthetic provider derives a token's center and M row streams in one call, and
the pipeline derives every stream a demo's token steps read in one call.  A
three-path batch (52-60 us) still costs more than three calls (43-46 us).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


def check_seed(seed: int, name: str = "seed") -> int:
    """seed as an int, refusing one outside [0, 2**128): its 1-4 words are
    fed whole, so no two seeds share a stream."""
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise ValueError(f"{name} must lie in [0, 2**128), got {seed}")
    return seed


def _seed_words(master_seed: int) -> list[int]:
    """The seed's 1-4 little-endian 32-bit words, as SeedSequence splits an int."""
    seed = check_seed(master_seed)
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def _path_digest(path) -> bytes:
    return hashlib.sha256("/".join(map(str, path)).encode("utf-8")).digest()


def substream(master_seed: int, *path) -> np.random.Generator:
    """Return a Generator for the substream named by ``path``.

    The mapping (master_seed, path) -> stream is a pure function; calling
    twice yields independent Generator objects that produce identical draws.
    SeedSequence gets the uint32 array it builds from the list [master_seed,
    *the path's four big-endian SHA-256 words]: seed words low first.  A seed
    outside [0, 2**128) is refused.
    """
    words = _seed_words(master_seed) + list(struct.unpack_from(">4I", _path_digest(path)))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@functools.cache
def _hash_rows() -> np.ndarray:
    """numpy's SeedSequence (pool size 4) hash constants, (XOR, multiply) x 11 steps x 4 x 1, built on
    first use. Hashmix i of a chain XORs with its i-th constant and multiplies by the next. Steps:
    fill, the cross steps of pool words 0-3 (each a placeholder at its own row), entropy words 4-7,
    then generate_state(4, uint64)'s 8 output words, which hash the pool twice on a second chain."""
    mix = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) % 2**32 for i in range(33)]
    out = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) % 2**32 for i in range(9)]
    cross = [0 if dst == src else 4 + 3 * src + dst - (dst > src) for src in range(4) for dst in range(4)]
    steps = [*range(4), *cross, *range(16, 32)]
    xor, mul = [mix[i] for i in steps] + out[:8], [mix[i + 1] for i in steps] + out[1:]
    return np.array([xor, mul], dtype=np.uint32).reshape(2, 11, 4, 1)


# 0-d operands, which numpy's ufuncs take faster than scalars or broadcast columns.
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _SHIFT
    return value


def _mix_into(pool: np.ndarray, value: np.ndarray) -> None:
    """pool = mix(pool, value), in place; value is spent."""
    value *= _MIX_R
    pool *= _MIX_L
    pool -= value
    pool ^= pool >> _SHIFT


def _mix_state(entropy: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(entropy[:, i]).generate_state(4, np.uint64)``, for a (w, n) uint32
    entropy array with 4 < w <= 8 words per column. uint32 arithmetic wraps silently on arrays."""
    xor, mul = np.repeat(_hash_rows(), entropy.shape[1], axis=3)  # same-shape operands: numpy's fast loops
    pool = _hashmix(entropy[:4], xor[0], mul[0])
    for src in range(4):  # each pool word crosses into the other three
        source = pool[src].copy()
        _mix_into(pool, _hashmix(source, xor[1 + src], mul[1 + src]))
        pool[src] = source
    for extra in range(4, len(entropy)):  # then each entropy word past the pool mixes into all four
        _mix_into(pool, _hashmix(entropy[extra], xor[1 + extra], mul[1 + extra]))
    return np.ascontiguousarray(_hashmix(pool, xor[9:], mul[9:]).reshape(8, -1).T).view(np.uint64)


@functools.cache
def _row_feeder() -> type:
    """The ISeedSequence that hands each PCG64 built on it the next state row (numpy.random loads lazily)."""
    from numpy.random.bit_generator import ISeedSequence

    class RowFeeder(ISeedSequence):
        def __init__(self, rows: np.ndarray):
            self.rows = iter(rows)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)

    return RowFeeder


def substreams(master_seed: int, paths) -> list[np.random.Generator]:
    """Generators for many paths at once: element i equals ``substream(master_seed, *paths[i])``."""
    seed = np.array(_seed_words(master_seed), dtype=np.uint32)[:, None].repeat(len(paths), axis=1)
    digests = np.frombuffer(b"".join([_path_digest(path) for path in paths]), ">u4").reshape(-1, 8)[:, :4].T
    feeder = _row_feeder()(_mix_state(np.vstack([seed, digests])))
    return [np.random.Generator(np.random.PCG64(feeder)) for _ in paths]


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
