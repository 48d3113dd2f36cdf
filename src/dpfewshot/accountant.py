"""Renyi-DP accounting for the full synthesis run.

The per-token mechanism is a fixed composition of Gaussian mechanisms.
RELEASES lists each kind of release a token makes, with its count, its
sensitivity, the noise multiplier that scales it and the reader that counts
its draws in a token's trace; the draw sites draw through it (Release.draw),
and the charge, the audit and the report read it.  Each release's noise is
its multiplier times its sensitivity, so every primitive has an exactly
linear RDP curve tau(alpha) = alpha / (2 multiplier^2).

Accounting pipeline, evaluated per integer order alpha and minimized over
a grid:

    per-token curve -> without-replacement subsampling amplification
                    -> multiply by the t_max token positions
                    -> convert to (epsilon, delta)

The amplification bound is evaluated in log space because its j-th term
carries a factor e^{(j-1) tau(j)} that overflows double precision for
moderate tau.  Its terms at every order form one array: a head per j and
order that depends on gamma alone (kept by the SubsamplingContext) plus a row
per j that depends on the curve alone.  An order's floor, its largest term
over alpha - 1, never exceeds its value: the terms hold 0.0, so their
log-sum-exp is never below their peak, and composition and conversion round
monotonically.  best_epsilon converts every floor at once, visits orders by
that epsilon and evaluates the exact log-sum-exp only where it can still win.

Charging is worst-case over the data: the inner loop is always billed for
its full count of mean estimates and checks even when it breaks early, so a
data-dependent early stop can never reduce the charged budget.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .simplex import SIMPLEX_RADIUS

#: The integer Renyi orders every epsilon is minimized over: the subsampling
#: theorem is stated for integer orders only, and 64 covers every regime
#: this package calibrates (extending the grid can only tighten epsilon).
DEFAULT_ALPHA_GRID: tuple[int, ...] = tuple(range(2, 65))

#: The order-only parts of the bound's terms, one column per order: log k! for
#: k = 0..64, log C(alpha, 2), log (alpha - j)! per j = 2..64 (row), the cells of
#: AmplifiedCurve's term array within their order, and the (epsilon, delta)
#: conversion's log((alpha - 1) / alpha), log alpha and alpha - 1, taken with
#: math.log so that _to_dp rounds as rdp_to_dp does.
_ORDERS = np.array(DEFAULT_ALPHA_GRID)
_LOG_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(DEFAULT_ALPHA_GRID[-1] + 1)])
_LOG_PAIRS = np.array([math.log(math.comb(alpha, 2)) for alpha in DEFAULT_ALPHA_GRID])
_LOG_REST = _LOG_FACTORIAL[np.maximum(_ORDERS - _ORDERS[:, None], 0)]
_WITHIN_ORDER = np.arange(len(_ORDERS) + 1)[:, None] < _ORDERS
_CONVERSION = np.array([(math.log((a - 1) / a), math.log(a), a - 1) for a in DEFAULT_ALPHA_GRID]).T

CALIBRATION_BRACKET = (1e-3, 1e3)
CALIBRATION_REL_TOL = 1e-4


class AmplificationOverflowError(OverflowError):
    """The subsampling bound exceeded representable range even in log space."""


class UnachievableBudgetError(ValueError):
    """The target epsilon lies outside the calibration bracket."""


@dataclass(frozen=True)
class MechanismProfile:
    """Noise multipliers and loop bound of the per-token mechanism: the
    fields the charge depends on, each checked here and nowhere else.

    sigma1 may be left None for profiles that are inputs to calibration.  A
    zero multiplier runs noiselessly but cannot be charged: any cost
    evaluation raises (see Release), as it does while sigma1 is None.
    """

    sigma0: float
    sigma1: float | None
    sigma2: float
    t_hat: int
    theta: float = 0.1

    def __post_init__(self):
        if not all(0 <= s < math.inf for s in (self.sigma0, self.sigma2, self.sigma1 or 0.0)):
            raise ValueError("noise multipliers must be nonnegative and finite")
        if self.t_hat < 1 or int(self.t_hat) != self.t_hat:
            raise ValueError(f"t_hat must be positive, got {self.t_hat}")
        if not 0.0 < self.theta <= SIMPLEX_RADIUS:
            raise ValueError(f"theta must lie in (0, sqrt(2)/2], got {self.theta}")


@dataclass(frozen=True)
class SubsamplingContext:
    """Per-token without-replacement draw of m records from a population of n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.m > self.n:
            raise ValueError(f"cannot draw {self.m} from a population of {self.n}")

    @property
    def gamma(self) -> float:
        return self.m / self.n

    @cached_property
    def heads(self) -> np.ndarray:
        """The coefficient-free heads of the bound's terms, one row per j = 2..64
        and one column per order (finite filler past the order): j log gamma plus
        log C(alpha, j), summed in the order the full term adds them.  Built on
        first use and kept on this instance only, so commands share no memo."""
        log_gamma = math.log(self.gamma)
        heads = _ORDERS[:, None] * log_gamma + _LOG_FACTORIAL[_ORDERS] - _LOG_FACTORIAL[_ORDERS, None] - _LOG_REST
        heads[0] = 2.0 * log_gamma + _LOG_PAIRS
        return heads


@dataclass(frozen=True)
class DpBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be a positive finite number, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def binary_search_iterations(theta: float) -> int:
    """Iterations of the radius binary search: ceil(log2(sqrt(2) / (2 theta)))."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return max(0, math.ceil(math.log2(math.sqrt(2.0) / (2.0 * theta))))


@dataclass(frozen=True)
class Release:
    """One kind of Gaussian release a token makes: count(profile) draws, each
    of noise_std(multiplier) on a statistic of this sensitivity, with the
    multiplier held in the profile's multiplier_field.  trace_name names its
    counter in the audit, part its charge in the privacy report, and drawn
    counts the draws one token's AggregationTrace records.  count reads only
    t_hat and theta, so it is listed at any multiplier; total refuses one
    that cannot be priced (None, zero, or no positive finite square)."""

    trace_name: str
    part: str
    multiplier_field: str
    sensitivity: float
    count: Callable[[MechanismProfile], int]
    drawn: Callable[[object], int]

    def noise_std(self, multiplier: float, radius: float = 1.0) -> float:
        """Std of one release's noise: sensitivity * radius * multiplier, where
        radius scales a sensitivity stated per unit radius."""
        return self.sensitivity * radius * multiplier

    def draw(self, statistic, profile: MechanismProfile, rng, radius: float = 1.0):
        """statistic plus one release's noise: a normal per entry (a bare one for a scalar)."""
        shape = getattr(statistic, "shape", None)
        noise = rng.standard_normal() if shape is None else rng.standard_normal(shape)
        return statistic + self.noise_std(getattr(profile, self.multiplier_field), radius) * noise

    def total(self, profile: MechanismProfile) -> float:
        """RDP coefficient of all count releases."""
        s = getattr(profile, self.multiplier_field)
        if s is None or not (s > 0 and 0 < s * s < math.inf):
            raise ValueError(f"noise multipliers must be positive with a positive, finite square, got {s}")
        return self.count(profile) / (2.0 * s**2)


#: The releases charged for one token: the loop's full counts, and two scores
#: per bisection step, in the order the audit lists them.  A mean estimate's
#: sensitivity is per unit R.
MEAN_ESTIMATE = Release("mean_estimates", "mean_estimates", "sigma1", 2.0,
                        lambda p: p.t_hat + 1, lambda t: t.mean_estimates)
COVERAGE_CHECK = Release("coverage_checks", "coverage_checks", "sigma2", 1.0,
                         lambda p: p.t_hat, lambda t: len(t.coverage_checks))
RADIUS_SEARCH = Release("goodradius_draws", "radius_search", "sigma0", 2.0,
                        lambda p: 2 * binary_search_iterations(p.theta), lambda t: 2 * len(t.goodradius_steps))
RELEASES = (MEAN_ESTIMATE, COVERAGE_CHECK, RADIUS_SEARCH)


def per_iteration_coefficient(profile: MechanismProfile) -> float:
    """Linear coefficient c of the per-token curve tau(alpha) = c * alpha:
    the correctly rounded sum of every release's total, in any table order."""
    return math.fsum(release.total(profile) for release in RELEASES)


def _log_expm1(t: float) -> float:
    """log(e^t - 1), stable for large t; -inf at t == 0."""
    if t <= 0.0:
        if t == 0.0:
            return -math.inf
        raise ValueError("expected a nonnegative RDP value")
    if t > 1e-8:
        return t + math.log1p(-math.exp(-t))
    return math.log(math.expm1(t))


class AmplifiedCurve:
    """subsample_amplify(coeff, ctx, alpha) at each order of DEFAULT_ALPHA_GRID,
    evaluated on first access; the array floors holds each grid order's largest
    term over alpha - 1, inf if any is, and an order is on the curve exactly
    when its floor is finite.

    Row j - 1 of the term array holds term j at every order (row 0 holds 0.0;
    each j >= 3 term is added as head + (j - 1) * (coeff * j) + log 2), so the
    floors are one reduction down its columns; _terms is its transpose.
    """

    def __init__(self, coeff: float, ctx: SubsamplingContext):
        tau2 = coeff * 2
        pair_term = min(math.log(4.0) + _log_expm1(tau2), math.log(2.0) + tau2)
        terms = np.zeros((len(_ORDERS) + 1, len(_ORDERS)))
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(ctx.heads[0], pair_term, out=terms[1])
            np.add(ctx.heads[1:], ((_ORDERS[1:] - 1) * (coeff * _ORDERS[1:]))[:, None], out=terms[2:])
            terms[2:] += math.log(2.0)
            peaks = terms.max(axis=0, where=_WITHIN_ORDER, initial=-math.inf)
        self.floors = peaks / _CONVERSION[2]
        self._gamma = ctx.gamma
        self._terms = terms.T
        self._values: dict[int, float] = {}

    def __getitem__(self, alpha: int) -> float:
        if alpha not in DEFAULT_ALPHA_GRID:
            raise ValueError(f"subsampling amplification needs an integer order in 2..64, got {alpha}")
        alpha = int(alpha)
        if alpha not in self._values:
            if self.floors[alpha - DEFAULT_ALPHA_GRID[0]] == math.inf:
                raise AmplificationOverflowError(
                    f"amplification bound not representable at alpha={alpha}, gamma={self._gamma}")
            terms = self._terms[alpha - DEFAULT_ALPHA_GRID[0], :alpha].tolist()
            peak = max(terms)
            self._values[alpha] = (peak + math.log(math.fsum(math.exp(t - peak) for t in terms))) / (alpha - 1)
        return self._values[alpha]


def subsample_amplify(coeff: float, ctx: SubsamplingContext, alpha: int) -> float:
    """Amplified RDP at an integer order alpha of DEFAULT_ALPHA_GRID of a
    mechanism whose RDP curve is tau(alpha) = coeff * alpha.

    Implements the without-replacement bound

        tau'(alpha) <= 1/(alpha-1) * log(1
            + gamma^2 C(alpha,2) min{4(e^{tau(2)} - 1), 2 e^{tau(2)}}
            + sum_{j=3..alpha} gamma^j C(alpha,j) e^{(j-1) tau(j)} * 2)

    where the inner min{2, (e^{tau(inf)} - 1)^j} factors are already
    resolved to 2 because every composed primitive here is Gaussian
    (tau(inf) = inf).  The sum is accumulated in log space, from the
    coefficient-free heads of its terms that ctx holds (ctx.heads).
    """
    return AmplifiedCurve(coeff, ctx)[alpha]


def rdp_to_dp(alpha: float, tau: float, delta: float) -> float:
    """Convert an (alpha, tau)-RDP guarantee to epsilon at the given delta.

    epsilon = tau + log((alpha-1)/alpha) - (log delta + log alpha)/(alpha-1).
    The value may be negative for extreme alpha/delta combinations and is
    returned as-is; best_epsilon clamps it for reporting.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if alpha <= 1:
        raise ValueError(f"RDP order must be > 1, got {alpha}")
    if tau < 0:
        raise ValueError("RDP value must be nonnegative")
    return tau + math.log((alpha - 1) / alpha) - (math.log(delta) + math.log(alpha)) / (alpha - 1)


@np.errstate(over="ignore")
def _to_dp(taus: np.ndarray, t_max: int, delta: float) -> np.ndarray:
    """rdp_to_dp(alpha, t_max * tau, delta) at every grid order, to the bit."""
    log_ratio, log_alpha, less_one = _CONVERSION
    return t_max * taus + log_ratio - (math.log(delta) + log_alpha) / less_one


def best_epsilon(curve: AmplifiedCurve, t_max: int, delta: float) -> tuple[float, int]:
    """Compose t_max token positions at every order, convert to (epsilon, delta)
    and return (epsilon, order) of the smallest; ties go to the first order.
    A negative epsilon is reported as 0.

    The curve's floors are converted in one array pass, and orders are visited
    by that epsilon, ties by order, up to the first whose epsilon exceeds the
    best so far or is infinite.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    bounds = _to_dp(curve.floors, t_max, delta)
    best = (math.inf, 0)  # (eps, order); outranks every infinite eps
    for row in np.argsort(bounds, kind="stable").tolist():
        if bounds[row] > best[0] or bounds[row] == math.inf:
            break
        alpha = DEFAULT_ALPHA_GRID[row]
        best = min(best, (rdp_to_dp(alpha, t_max * curve[alpha], delta), alpha))
    best_eps, best_alpha = best
    if best_eps == math.inf:
        raise AmplificationOverflowError("no order of the grid gives a finite epsilon")
    return max(best_eps, 0.0), best_alpha


def calibrate_sigma1(
    target: DpBudget,
    profile: MechanismProfile,
    ctx: SubsamplingContext,
    t_max: int,
) -> float:
    """Solve for the sigma1 whose total epsilon meets the target budget.

    Bisection over sigma1 in CALIBRATION_BRACKET, exploiting that epsilon is
    monotone decreasing in sigma1; converges to relative tolerance
    CALIBRATION_REL_TOL on epsilon.
    """
    lo, hi = CALIBRATION_BRACKET

    def eps_at(s1: float) -> float:
        amplified = AmplifiedCurve(per_iteration_coefficient(replace(profile, sigma1=s1)), ctx)
        return best_epsilon(amplified, t_max, target.delta)[0]

    eps_hi = eps_at(lo)   # small sigma1 -> large epsilon
    eps_lo = eps_at(hi)   # large sigma1 -> small epsilon
    if not eps_lo < target.epsilon < eps_hi:
        raise UnachievableBudgetError(
            f"target epsilon {target.epsilon} outside achievable range: "
            f"sigma1={hi} gives {eps_lo:.6g}, sigma1={lo} gives {eps_hi:.6g}"
        )
    tol = CALIBRATION_REL_TOL * target.epsilon
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        eps_mid = eps_at(mid)
        if abs(eps_mid - target.epsilon) <= tol:
            return mid
        if eps_mid > target.epsilon:
            lo = mid
        else:
            hi = mid
    raise UnachievableBudgetError(
        f"calibration did not converge to {target.epsilon} within tolerance"
    )


def matched_baseline_sigma(profile: MechanismProfile) -> float:
    """Noise multiplier granting the baseline the same per-token curve.

    The baseline is one MEAN_ESTIMATE release at R = sqrt(2)/2.  Both
    aggregators have linear curves, so matching the coefficient matches the
    entire curve: alpha / (2 sigma^2) = c * alpha  =>  sigma = sqrt(1/(2c)).
    """
    return math.sqrt(1.0 / (2.0 * per_iteration_coefficient(profile)))
