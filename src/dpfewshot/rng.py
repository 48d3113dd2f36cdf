"""Deterministic named RNG substreams derived from one master seed.

Every noise site in the pipeline draws from its own stream, keyed by a
path of names/indices (e.g. ``("demo", 3, "token", 17, "mean")``).  Streams
are independent and stable across runs, so an early loop break at one
token position can never shift the draws consumed at another.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np


def substream(master_seed: int, *path) -> np.random.Generator:
    """Return a Generator for the substream named by ``path``.

    The mapping (master_seed, path) -> stream is a pure function; calling
    twice yields independent Generator objects that produce identical draws.
    SeedSequence gets the uint32 array it builds from the list [master_seed
    mod 2**64, *the path's four big-endian SHA-256 words]: seed words low first.
    """
    seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256("/".join(str(p) for p in path).encode("utf-8")).digest()
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    words.extend(struct.unpack_from(">4I", digest))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


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

    @classmethod
    def from_seed(cls, master_seed: int, *path) -> "NoiseStreams":
        return cls(
            goodradius=substream(master_seed, *path, "goodradius"),
            mean=substream(master_seed, *path, "mean"),
            check=substream(master_seed, *path, "check"),
        )
