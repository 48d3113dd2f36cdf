"""Renyi-DP accounting for the full synthesis run.

The per-token mechanism is a fixed composition of Gaussian mechanisms, and
charged_events lists what each token is billed for.  Each event's noise is
its noise multiplier times its sensitivity: a radius-search draw adds noise
std 2*sigma0 to a count of sensitivity 2, a projected mean estimate adds
2*R*sigma1 to a sum of sensitivity 2R (so the R cancels), and a coverage
check adds sigma2 to a count of sensitivity 1.  Every primitive therefore
has an exactly linear RDP curve tau(alpha) = alpha / (2 multiplier^2).

Accounting pipeline, evaluated per integer order alpha and minimized over
a grid:

    per-token curve -> without-replacement subsampling amplification
                    -> multiply by the t_max token positions
                    -> convert to (epsilon, delta)

The amplification bound is evaluated in log space because its j-th term
carries a factor e^{(j-1) tau(j)} that overflows double precision for
moderate tau.

Charging is worst-case over the data: the inner loop is always billed for
its full count of mean estimates and checks even when it breaks early, so a
data-dependent early stop can never reduce the charged budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .simplex import SIMPLEX_RADIUS

#: The integer Renyi orders every epsilon is minimized over: the subsampling
#: theorem is stated for integer orders only, and 64 covers every regime
#: this package calibrates (extending the grid can only tighten epsilon).
DEFAULT_ALPHA_GRID: tuple[int, ...] = tuple(range(2, 65))

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
    evaluation raises (see ChargedEvent), as it does while sigma1 is None.
    """

    sigma0: float
    sigma1: float | None
    sigma2: float
    t_hat: int
    theta: float = 0.1

    def __post_init__(self):
        if not all(s >= 0 for s in (self.sigma0, self.sigma2, self.sigma1 or 0.0)):
            raise ValueError("noise multipliers must be nonnegative")
        if self.t_hat < 1 or int(self.t_hat) != self.t_hat:
            raise ValueError(f"t_hat must be positive, got {self.t_hat}")
        if not 0.0 < self.theta <= SIMPLEX_RADIUS:
            raise ValueError(f"theta must lie in (0, sqrt(2)/2], got {self.theta}")


@dataclass(frozen=True)
class SubsamplingContext:
    """Per-token without-replacement draw of m records from a population of n."""

    m: int
    n: int
    _heads: dict[int, list[float]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.m > self.n:
            raise ValueError(f"cannot draw {self.m} from a population of {self.n}")

    @property
    def gamma(self) -> float:
        return self.m / self.n

    def heads(self, alpha: int) -> list[float]:
        """_log_binomial_prefixes(gamma, alpha), computed at most once per order
        and kept on this instance only, so separate commands share no memo."""
        if alpha not in self._heads:
            self._heads[alpha] = _log_binomial_prefixes(self.gamma, alpha)
        return self._heads[alpha]


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


def gaussian_rdp(sensitivity: float, noise_std: float, alpha: float) -> float:
    """RDP cost of a Gaussian mechanism: alpha * sensitivity^2 / (2 noise_std^2)."""
    if sensitivity <= 0 or noise_std <= 0:
        raise ValueError("sensitivity and noise_std must be positive")
    if alpha <= 1:
        raise ValueError(f"RDP order must be > 1, got {alpha}")
    return alpha * sensitivity**2 / (2.0 * noise_std**2)


@dataclass(frozen=True)
class ChargedEvent:
    """count Gaussian releases per token, each at noise_multiplier times its
    sensitivity.  count is listed at any multiplier; coefficient and total
    refuse one that cannot be priced (None, zero, or no positive finite square)."""

    count: int
    noise_multiplier: float | None

    def _priced(self) -> float:
        s = self.noise_multiplier
        if s is None or not (s > 0 and 0 < s * s < math.inf):
            raise ValueError(f"noise multipliers must be positive with a positive, finite square, got {s}")
        return s

    @property
    def coefficient(self) -> float:
        """RDP coefficient of one release: tau(alpha) = coefficient * alpha."""
        return 1.0 / (2.0 * self._priced()**2)

    @property
    def total(self) -> float:
        """RDP coefficient of all count releases."""
        return self.count / (2.0 * self._priced()**2)


def charged_events(profile: MechanismProfile) -> dict[str, ChargedEvent]:
    """The worst-case releases charged for one token, by trace counter name."""
    return {
        "goodradius_draws": ChargedEvent(2 * binary_search_iterations(profile.theta), profile.sigma0),
        "mean_estimates": ChargedEvent(profile.t_hat + 1, profile.sigma1),
        "coverage_checks": ChargedEvent(profile.t_hat, profile.sigma2),
    }


def per_iteration_coefficient(profile: MechanismProfile) -> float:
    """Linear coefficient c of the per-token curve tau(alpha) = c * alpha."""
    events = charged_events(profile)
    means, checks = events["mean_estimates"], events["coverage_checks"]
    # The radius search enters as one total and the loop release by release:
    # the published epsilons were computed so, and the two forms can differ
    # in the last bit.
    return (
        events["goodradius_draws"].total
        + means.count * means.coefficient
        + checks.count * checks.coefficient
    )


def _log_expm1(t: float) -> float:
    """log(e^t - 1), stable for large t; -inf at t == 0."""
    if t <= 0.0:
        if t == 0.0:
            return -math.inf
        raise ValueError("expected a nonnegative RDP value")
    if t > 1e-8:
        return t + math.log1p(-math.exp(-t))
    return math.log(math.expm1(t))


def _logsumexp(terms: list[float]) -> float:
    peak = max(terms)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


def _log_binomial_prefixes(gamma: float, alpha: int) -> list[float]:
    """The coefficient-free head of each term of subsample_amplify's log-sum,
    for j = 2..alpha: j log gamma plus log C(alpha, j), summed in the order
    the full term adds them, so head + rest equals the unsplit sum bitwise."""
    log_gamma = math.log(gamma)
    prefixes = [2.0 * log_gamma + math.log(math.comb(alpha, 2))]
    for j in range(3, alpha + 1):
        prefixes.append(
            j * log_gamma
            + math.lgamma(alpha + 1) - math.lgamma(j + 1) - math.lgamma(alpha - j + 1)
        )
    return prefixes


def subsample_amplify(coeff: float, ctx: SubsamplingContext, alpha: int) -> float:
    """Amplified RDP at integer order alpha >= 2 of a mechanism whose RDP
    curve is tau(alpha) = coeff * alpha.

    Implements the without-replacement bound

        tau'(alpha) <= 1/(alpha-1) * log(1
            + gamma^2 C(alpha,2) min{4(e^{tau(2)} - 1), 2 e^{tau(2)}}
            + sum_{j=3..alpha} gamma^j C(alpha,j) e^{(j-1) tau(j)} * 2)

    where the inner min{2, (e^{tau(inf)} - 1)^j} factors are already
    resolved to 2 because every composed primitive here is Gaussian
    (tau(inf) = inf).  The sum is accumulated in log space, from the
    coefficient-free heads of its terms that ctx holds (ctx.heads).
    """
    if int(alpha) != alpha:
        raise ValueError(f"subsampling amplification needs an integer order, got {alpha}")
    alpha = int(alpha)
    if alpha < 2:
        raise ValueError(f"order must be >= 2, got {alpha}")
    prefixes = ctx.heads(alpha)
    tau2 = coeff * 2
    pair_term = min(math.log(4.0) + _log_expm1(tau2), math.log(2.0) + tau2)
    terms = [0.0, prefixes[0] + pair_term]
    for j, prefix in enumerate(prefixes[1:], 3):
        terms.append(prefix + (j - 1) * (coeff * j) + math.log(2.0))
    if not all(t < math.inf and not math.isnan(t) for t in terms):
        raise AmplificationOverflowError(
            f"amplification bound not representable at alpha={alpha}, gamma={ctx.gamma}"
        )
    return _logsumexp(terms) / (alpha - 1)


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


def amplified_rdp(profile: MechanismProfile, ctx: SubsamplingContext) -> dict[int, float]:
    """Subsampled per-token RDP at each order of DEFAULT_ALPHA_GRID, ascending.

    Orders at which the amplification bound overflows are left out.
    """
    coeff = per_iteration_coefficient(profile)
    amplified = {}
    for alpha in DEFAULT_ALPHA_GRID:
        try:
            amplified[alpha] = subsample_amplify(coeff, ctx, alpha)
        except AmplificationOverflowError:
            continue
    return amplified


def best_epsilon(amplified: dict[int, float], t_max: int, delta: float) -> tuple[float, int]:
    """Compose t_max token positions at every order, convert to (epsilon, delta)
    and return (epsilon, order) of the smallest; ties go to the first order.
    A negative epsilon is reported as 0.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    best_eps = math.inf
    best_alpha = None
    for alpha, tau in amplified.items():
        eps = rdp_to_dp(alpha, t_max * tau, delta)
        if eps < best_eps:
            best_eps = eps
            best_alpha = alpha
    if best_alpha is None:
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
        amplified = amplified_rdp(replace(profile, sigma1=s1), ctx)
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

    The baseline is one mean_estimates release at R = sqrt(2)/2.  Both
    aggregators have linear curves, so matching the coefficient matches the
    entire curve: alpha / (2 sigma^2) = c * alpha  =>  sigma = sqrt(1/(2c)).
    """
    return math.sqrt(1.0 / (2.0 * per_iteration_coefficient(profile)))
