"""Differentially private few-shot demonstration synthesis.

Synthesizes prompt demonstrations token by token by privately aggregating
next-token distributions from an LLM, with a data-adaptive clipping radius
and a Renyi-DP accountant that calibrates noise to a target (epsilon, delta).
"""

from .accountant import (
    DEFAULT_ALPHA_GRID,
    AmplificationOverflowError,
    DpBudget,
    MechanismProfile,
    SubsamplingContext,
    UnachievableBudgetError,
    amplified_rdp,
    best_epsilon,
    binary_search_iterations,
    calibrate_sigma1,
    matched_baseline_sigma,
    rdp_to_dp,
    subsample_amplify,
)
from .aggregate import (
    AggregationConfig,
    AggregationTrace,
    adaptive_aggregate,
    baseline_aggregate,
    radius_coverage_check,
    select_token,
)
from .data import Example, PromptTemplate, load_dataset, partition_subsets
from .pipeline import (
    ConfigurationError,
    RunConfig,
    SyntheticDemo,
    audit_traces,
    generate_demo,
    generate_shots,
    report_privacy,
    resolve_run,
)
from .providers import (
    HttpProvider,
    NextTokenBatch,
    ProviderError,
    ProviderSpec,
    SyntheticProvider,
    next_token_generation,
    restrict_topk,
)
from .radius import good_radius
from .rng import NoiseStreams, substream
from .simplex import (
    SIMPLEX_RADIUS,
    coverage_count,
    distances,
    project_to_ball,
    project_to_simplex,
)

__version__ = "0.1.0"
