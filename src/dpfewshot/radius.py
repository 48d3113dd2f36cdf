"""Private radius estimation: count-based coverage score and DP binary search.

The coverage score L(r) is the capped-count average over the t best
data-point centers; each noisy evaluation is one RADIUS_SEARCH release.
The search brackets [0, sqrt(2)/2] and halves it
binary_search_iterations(theta) times, evaluating both L(mid/2) and L(mid)
noisily every iteration in a fixed order so the number of draws never
depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import RADIUS_SEARCH, binary_search_iterations
from .simplex import SIMPLEX_RADIUS, distances


@dataclass(frozen=True)
class RadiusSearchStep:
    """One binary-search iteration: midpoint and both noisy score values."""

    midpoint: float
    noisy_half: float
    noisy_mid: float
    branch: str  # "half_pass" | "mid_pass" | "raise_low"


class CoverageScore:
    """L(r) evaluator that screens pairs with one Gram product and recomputes
    exactly only the pairs the screen cannot decide.

    Every mask equals the exact test ``distances(points[j], points[i]) <= r``
    (i < j), the one norm per pair that study.diagnostics.pairwise_distances
    stores: a pair whose Gram-form squared distance lies within its rounding
    bound of r^2 is decided by that norm.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a non-empty (M, K) array")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.m, k = points.shape
        self._points = points
        sq = np.einsum("ij,ij->i", points, points)
        tol = sq[:, None] + sq  # S, scaled to the tolerance below
        d2 = points @ points.T
        d2 *= -2.0
        d2 += tol  # S - 2 G in place: the negation is exact, so the bits are those of s - 2.0 * G
        np.fill_diagonal(d2, 0.0)
        # With u = eps/2 and D the true squared distance, to first order in u:
        # - Gram form, any summation order, FMA or not: |d2 - D| <= (2K + 3) u S,
        #   where S = sq_i + sq_j;
        # - the exact path's sqrt(sum diff^2) squared is D (1 + theta) with
        #   |theta| <= (K + 4) u, and D <= 2 S, so it is off by <= 2 (K + 4) u S;
        # - forming tol, r * r and the shifts d2 +- tol, r^2 -+ c r^2 takes
        #   five more roundings, each at most u (3 S + r^2).
        # Their sum, (4K + 26) u S + 5 u r^2, is below tol = 8 (K + 4) u (S + r^2)
        # for every K >= 1, and tiny covers the absolute error of underflow
        # (under 8K subnormal ulps).
        # A pair with d2 + tol <= r^2 is inside, d2 - tol > r^2 outside; an
        # overflowed d2 (NaN or inf) is neither, so it is recomputed exactly.
        self._c = 4 * (k + 4) * np.finfo(float).eps
        tol *= self._c
        tol += np.finfo(float).tiny
        self._upper = d2 + tol
        d2 -= tol
        self._lower = d2

    def within(self, r: float) -> np.ndarray:
        """(M, M) mask of the pairs at distance <= r."""
        if not r >= 0.0:  # no distance is <= a negative or NaN radius
            return np.zeros((self.m, self.m), dtype=bool)
        r2 = r * r
        inside = self._upper <= r2 - self._c * r2
        outside = self._lower > r2 + self._c * r2
        # inside and outside are disjoint, so a shortfall in their counts is the undecided pairs
        if np.count_nonzero(inside) + np.count_nonzero(outside) < inside.size:
            i, j = np.nonzero(~(inside | outside))
            near = distances(self._points[np.maximum(i, j)], self._points[np.minimum(i, j)])
            inside[i, j] = near <= r
        return inside

    def l_value(self, t: int, r: float) -> float:
        """Average of the t largest capped counts min(B_r(x_i), t)."""
        if not 1 <= t <= self.m:
            raise ValueError(f"t must lie in [1, {self.m}], got {t}")
        counts = np.add.reduce(self.within(r), axis=1)
        counts.sort()
        return float(np.minimum(counts[self.m - t:], t).sum()) / t


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
    consumes the RADIUS_SEARCH draws the accountant charges.  The first
    two branches coincide deliberately: both evaluations are part of the
    analyzed mechanism and both are charged, so they are not collapsed into one.

    Only the exact scores are cached, by radius: while r_low is 0, the
    midpoint after a passing iteration is that iteration's half radius.
    Every evaluation still releases a fresh noisy value.
    """
    score = CoverageScore(points)
    if not sigma0 >= 0:
        raise ValueError("sigma0 must be nonnegative")
    if not 0.0 < theta <= SIMPLEX_RADIUS:
        raise ValueError(f"theta must lie in (0, sqrt(2)/2], got {theta}")
    exact: dict[float, float] = {}
    std = RADIUS_SEARCH.noise_std(sigma0)

    def noisy_score(r: float) -> float:
        if r not in exact:
            exact[r] = score.l_value(t, r)
        return exact[r] + std * rng.standard_normal()

    r_low, r_high = 0.0, SIMPLEX_RADIUS
    for _ in range(binary_search_iterations(theta)):
        r_mid = (r_low + r_high) / 2.0
        noisy_half = noisy_score(r_mid / 2.0)
        noisy_mid = noisy_score(r_mid)
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
