"""Shared generators for clustered probability-vector test instances, and
the Gaussian RDP formula the accountant's table is checked against."""

from __future__ import annotations

import numpy as np


def peaked_center(rng: np.random.Generator, k: int, top_logit: float = 3.5) -> np.ndarray:
    """A probability vector with a decisive argmax at a random coordinate."""
    logits = 0.3 * rng.standard_normal(k)
    logits[rng.integers(k)] += top_logit
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def jitter_on_simplex(
    rng: np.random.Generator, center: np.ndarray, max_dist: float
) -> np.ndarray:
    """A probability vector within max_dist (l2) of center."""
    k = center.shape[0]
    direction = rng.standard_normal(k)
    direction -= direction.mean()  # stay on the sum-1 hyperplane
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return center.copy()
    step = rng.uniform(0.0, max_dist) * direction / norm
    point = np.clip(center + step, 0.0, None)
    point = point / point.sum()
    # clipping can only pull the point closer to the feasible region; nudge
    # until inside the requested ball (a couple of halvings suffice)
    while np.linalg.norm(point - center) > max_dist:
        step *= 0.5
        point = np.clip(center + step, 0.0, None)
        point = point / point.sum()
    return point


def clustered_points(
    rng: np.random.Generator,
    m: int,
    k: int,
    cluster_radius: float = 0.1,
    outlier_fraction: float = 0.2,
    top_logit: float = 3.5,
) -> tuple[np.ndarray, np.ndarray]:
    """(points, center): at least ceil((1-f)m) points within cluster_radius of
    center, the rest one-hot at coordinates other than the center argmax."""
    center = peaked_center(rng, k, top_logit)
    n_outliers = int(outlier_fraction * m)  # floor keeps the cluster >= (1-f)m
    points = [jitter_on_simplex(rng, center, cluster_radius) for _ in range(m - n_outliers)]
    top = int(np.argmax(center))
    for _ in range(n_outliers):
        idx = int(rng.integers(k))
        if idx == top:
            idx = (idx + 1) % k
        vertex = np.zeros(k)
        vertex[idx] = 1.0
        points.append(vertex)
    return np.stack(points), center


def gaussian_rdp(sensitivity: float, noise_std: float, alpha: float) -> float:
    """RDP cost of a Gaussian mechanism: alpha * sensitivity^2 / (2 noise_std^2)."""
    if sensitivity <= 0 or noise_std <= 0:
        raise ValueError("sensitivity and noise_std must be positive")
    if alpha <= 1:
        raise ValueError(f"RDP order must be > 1, got {alpha}")
    return alpha * sensitivity**2 / (2.0 * noise_std**2)
