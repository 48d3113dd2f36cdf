"""Vector primitives over the probability simplex.

Vectors are float arrays of length K, alone or as the rows of an (M, K)
batch.  A probability vector is nonnegative and sums to 1.  The enclosing
ball of the whole simplex has radius sqrt(2)/2, which is the starting
point of every radius search in this package.
"""

from __future__ import annotations

import math

import numpy as np

SIMPLEX_RADIUS = math.sqrt(2.0) / 2.0


def distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of points to center: the package's one distance rule."""
    return np.linalg.norm(points - center, axis=-1)


def project_to_simplex(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncate negatives and renormalize each row (last axis) to unit l1 mass.

    A row that truncation leaves all-zero has no such normalization and
    becomes the uniform distribution instead.  The mask, of shape
    ``v.shape[:-1]`` (0-d for one vector), flags the rows where that
    fallback fired.
    """
    clipped = np.maximum(np.asarray(v, dtype=float), 0.0)
    mass = clipped.sum(axis=-1, keepdims=True)
    degenerate = mass <= 0.0
    with np.errstate(all="ignore"):
        out = np.where(degenerate, 1.0 / clipped.shape[-1], clipped / mass)
    return out, degenerate[..., 0]


def project_to_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Pull each row of points radially toward center into the ball.

    Rows already inside pass through unchanged (bitwise), matching the
    scale factor max(1, d/R).  A zero radius maps every row to the center.
    """
    points = np.asarray(points, dtype=float)
    dists = distances(points, center)[:, None]
    with np.errstate(all="ignore"):
        pulled = center + (points - center) / (dists / radius)
    return np.where(dists > radius, pulled, points)


def coverage_count(points: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Number of rows of ``points`` within radius of center (boundary counts as in)."""
    return int(np.count_nonzero(distances(np.asarray(points, dtype=float), center) <= radius))
