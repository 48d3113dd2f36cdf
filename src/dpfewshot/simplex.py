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
    """Euclidean distance of each row of points to center: the package's one distance rule.

    sqrt of the sum of squares along the last axis, the reduction
    np.linalg.norm(points - center, axis=-1) runs, bit for bit, with one
    temporary fewer.
    """
    diff = points - center
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=-1))


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
    if not degenerate.any():  # a finite positive mass is at least each of its terms: no overflow
        return clipped / mass, degenerate[..., 0]
    with np.errstate(all="ignore"):
        out = np.where(degenerate, 1.0 / clipped.shape[-1], clipped / mass)
    return out, degenerate[..., 0]


def project_to_ball(points: np.ndarray, center: np.ndarray, radius: float, dists: np.ndarray) -> np.ndarray:
    """Pull each row of points radially toward center into the ball, given
    dists = ``distances(points, center)``.

    Rows already inside pass through unchanged (bitwise), matching the
    scale factor max(1, d/R).  A zero radius maps every row to the center.
    """
    points = np.asarray(points, dtype=float)
    out = points.copy()
    outside = np.flatnonzero(dists > radius)
    with np.errstate(all="ignore"):  # d / R overflows at a subnormal R; such a row maps to the center
        out[outside] = center + (points[outside] - center) / (dists[outside, None] / radius)
    return out


def coverage_count(dists: np.ndarray, radius: float) -> int:
    """Number of rows within radius of a center, given their ``distances`` to
    it (boundary counts as in)."""
    return int(np.count_nonzero(dists <= radius))
