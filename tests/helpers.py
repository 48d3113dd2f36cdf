"""Shared generators for clustered probability-vector test instances, the
Gaussian RDP formula the accountant's table is checked against, a scalar
transcription of the subsampling bound its term array must match bit for
bit, and the scalar ranking whose visits best_epsilon's array pass must
repeat."""

from __future__ import annotations

import math

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


def oracle_heads(gamma: float, alpha: int) -> list[float]:
    """The coefficient-free head of each term of the subsampling bound's
    log-sum, for j = 2..alpha, computed one scalar at a time."""
    log_gamma = math.log(gamma)
    prefixes = [2.0 * log_gamma + math.log(math.comb(alpha, 2))]
    for j in range(3, alpha + 1):
        prefixes.append(
            j * log_gamma
            + math.lgamma(alpha + 1) - math.lgamma(j + 1) - math.lgamma(alpha - j + 1)
        )
    return prefixes


def oracle_terms(coeff: float, gamma: float, alpha: int) -> list[float]:
    """Every term of the bound's log-sum at order alpha: 0.0, the pair term,
    then head + (j - 1) * (coeff * j) + log 2 for j = 3..alpha."""
    prefixes = oracle_heads(gamma, alpha)
    tau2 = coeff * 2
    if tau2 == 0.0:
        expm1_term = -math.inf
    elif tau2 > 1e-8:
        expm1_term = tau2 + math.log1p(-math.exp(-tau2))
    else:
        expm1_term = math.log(math.expm1(tau2))
    pair_term = min(math.log(4.0) + expm1_term, math.log(2.0) + tau2)
    terms = [0.0, prefixes[0] + pair_term]
    for j, prefix in enumerate(prefixes[1:], 3):
        terms.append(prefix + (j - 1) * (coeff * j) + math.log(2.0))
    return terms


def oracle_amplified(coeff: float, gamma: float, alphas) -> dict[int, float]:
    """The bound at each order whose terms are all finite or -inf, as the
    scalar log-sum-exp of its terms over alpha - 1."""
    amplified = {}
    for alpha in alphas:
        terms = oracle_terms(coeff, gamma, alpha)
        if all(t < math.inf for t in terms):
            peak = max(terms)
            amplified[alpha] = (peak + math.log(math.fsum(math.exp(t - peak) for t in terms))) / (alpha - 1)
    return amplified


def oracle_to_dp(alpha: int, tau: float, delta: float) -> float:
    """The (epsilon, delta) conversion of an (alpha, tau)-RDP guarantee."""
    return tau + math.log((alpha - 1) / alpha) - (math.log(delta) + math.log(alpha)) / (alpha - 1)


def oracle_best_epsilon(amplified: dict, t_max: int, delta: float) -> tuple[float, int] | None:
    """(epsilon, order) by an exhaustive scan in the mapping's order, the first
    order winning ties; None when no order gives a finite epsilon."""
    best_eps, best_alpha = math.inf, None
    for alpha, tau in amplified.items():
        eps = oracle_to_dp(alpha, t_max * tau, delta)
        if eps < best_eps:
            best_eps, best_alpha = eps, alpha
    return None if best_alpha is None else (max(best_eps, 0.0), best_alpha)


def oracle_visited_orders(floors: dict, amplified: dict, t_max: int, delta: float) -> set[int]:
    """The orders whose exact value a scalar ranking evaluates: sorted by the
    epsilon of their floor, then by their place in the mapping, and visited up
    to the first whose floor's epsilon is infinite or exceeds the best exact
    epsilon so far."""
    ranked = sorted((oracle_to_dp(alpha, t_max * floor, delta), rank, alpha)
                    for rank, (alpha, floor) in enumerate(floors.items()))
    best, visited = math.inf, set()
    for bound, _, alpha in ranked:
        if bound == math.inf or bound > best:
            break
        visited.add(alpha)
        best = min(best, oracle_to_dp(alpha, t_max * amplified[alpha], delta))
    return visited
