"""Private radius estimation: count-based coverage score and DP binary search.

The coverage score L(r) is the capped-count average over the t best
data-point centers; its sensitivity to replacing one input point is 2,
so each noisy evaluation adds Gaussian noise of std 2*sigma0.  The search
brackets [0, sqrt(2)/2] and halves it binary_search_iterations(theta)
times, the count the accountant charges, evaluating both L(mid/2) and
L(mid) noisily every iteration in a fixed order so the number of draws
never depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import binary_search_iterations
from .simplex import SIMPLEX_RADIUS, pairwise_distances


@dataclass(frozen=True)
class RadiusSearchStep:
    """One binary-search iteration: midpoint and both noisy score values."""

    midpoint: float
    noisy_half: float
    noisy_mid: float
    branch: str  # "half_pass" | "mid_pass" | "raise_low"


class CoverageScore:
    """L(r) evaluator with the pairwise distance matrix computed once."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a non-empty (M, K) array")
        self.m = points.shape[0]
        self._dists = pairwise_distances(points)

    def l_value(self, t: int, r: float) -> float:
        """Average of the t largest capped counts min(B_r(x_i), t)."""
        if not 1 <= t <= self.m:
            raise ValueError(f"t must lie in [1, {self.m}], got {t}")
        counts = np.count_nonzero(self._dists <= r, axis=1)
        capped = np.minimum(counts, t)
        top = np.partition(capped, self.m - t)[self.m - t:]
        return float(top.sum()) / t


def good_radius(
    points: np.ndarray,
    t: int,
    sigma0: float,
    theta: float,
    rng: np.random.Generator,
    trace: list[RadiusSearchStep],
) -> float:
    """Privately estimate a radius covering at least t of the input points:
    a noisy bisection for r with L(r) >= t and L(r/2) < t.

    Both noisy evaluations happen before the branch, drawing mid/2 first,
    for exactly binary_search_iterations(theta) iterations, so every run
    consumes the 2 * iterations Gaussians the accountant charges.  The first
    two branches coincide deliberately: both evaluations are part of the
    analyzed mechanism and both are charged, so they are not collapsed into one.
    """
    score = CoverageScore(points)
    if not sigma0 >= 0:
        raise ValueError("sigma0 must be nonnegative")
    if not 0.0 < theta <= SIMPLEX_RADIUS:
        raise ValueError(f"theta must lie in (0, sqrt(2)/2], got {theta}")
    r_low, r_high = 0.0, SIMPLEX_RADIUS
    for _ in range(binary_search_iterations(theta)):
        r_mid = (r_low + r_high) / 2.0
        noisy_half = score.l_value(t, r_mid / 2.0) + 2.0 * sigma0 * rng.standard_normal()
        noisy_mid = score.l_value(t, r_mid) + 2.0 * sigma0 * rng.standard_normal()
        if noisy_half >= t:
            r_high = r_mid
            branch = "half_pass"
        elif noisy_mid >= t:
            r_high = r_mid
            branch = "mid_pass"
        else:
            r_low = r_mid
            branch = "raise_low"
        trace.append(RadiusSearchStep(r_mid, noisy_half, noisy_mid, branch))
    return (r_low + r_high) / 2.0
