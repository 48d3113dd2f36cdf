"""Sources of next-token distributions and the public top-K restriction.

A provider maps a prompt to a full-vocabulary distribution keyed by token
string.  Two implementations: a deterministic synthetic provider for
desk-scale runs (clustered around hash-derived per-(label, position)
centers), and a client for OpenAI-compatible completions endpoints exposing
logprobs.  restrict_topk then fixes the candidate support from the public
(instruction-only) distribution so private data never influences it.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import partition_subsets
from .rng import substream

logger = logging.getLogger(__name__)


class ProviderError(RuntimeError):
    """A provider could not produce a next-token distribution."""


@dataclass(frozen=True)
class NextTokenBatch:
    """Top-K support plus the M private vectors restricted to it.

    support is ordered by descending public probability (ties by token
    string); all vectors share that ordering.  fallback_indices lists
    private vectors that had zero mass on the support and were replaced by
    the uniform distribution.
    """

    support: tuple[str, ...]
    private_vectors: np.ndarray
    fallback_indices: tuple[int, ...] = ()


def restrict_topk(public_p, private_ps, k: int) -> NextTokenBatch:
    """Zero private vectors outside the public top-k tokens and renormalize."""
    if k < 1 or k > len(public_p):
        raise ValueError(f"k must lie in [1, {len(public_p)}], got {k}")
    total = math.fsum(public_p.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"public distribution sums to {total}, expected 1")
    ranked = sorted(public_p.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    support = tuple(tok for tok, _ in ranked)
    rows = []
    fallbacks = []
    for i, pv in enumerate(private_ps):
        row = np.array([pv.get(tok, 0.0) for tok in support], dtype=float)
        mass = row.sum()
        if mass <= 0.0:
            rows.append(np.full(k, 1.0 / k))
            fallbacks.append(i)
        else:
            rows.append(row / mass)
    return NextTokenBatch(
        support=support,
        private_vectors=np.stack(rows) if rows else np.empty((0, k)),
        fallback_indices=tuple(fallbacks),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


#: Logit perturbation scale at which the synthetic provider's private
#: vectors cluster with an 80%-coverage radius of about 0.10 (calibrated by
#: seeded simulation at vocab_size=150, CENTER_SCALE=3, M in 10..40).
SPREAD_RADIUS_010 = 0.29
#: Scale of the synthetic provider's hash-derived center logits.
CENTER_SCALE = 3.0


@dataclass(frozen=True)
class SyntheticProvider:
    """Deterministic test double emitting clustered token distributions.

    The public distribution for (label, position) is the softmax of
    hash-derived center logits; private subset i perturbs those logits with
    Gaussian noise of scale ``spread``, or (with probability
    ``outlier_fraction``) returns a near-point-mass on some other token.
    Output is a pure function of (seed, label, position, subset_index); the
    prompt text is ignored.
    """

    seed: int
    vocab_size: int = 150
    spread: float = SPREAD_RADIUS_010
    outlier_fraction: float = 0.0

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")

    @property
    def vocab(self) -> tuple[str, ...]:
        return tuple(f" w{i:03d}" for i in range(self.vocab_size))

    def center_logits(self, label: str, position: int) -> np.ndarray:
        rng = substream(self.seed, "center", label, position)
        return CENTER_SCALE * rng.standard_normal(self.vocab_size)

    def next_token_distribution(
        self, prompt: str, *, label: str, position: int, subset_index: int | None, top_n: int = 0
    ) -> dict[str, float]:
        logits = self.center_logits(label, position)
        if subset_index is not None:
            rng = substream(self.seed, "private", label, position, subset_index)
            if rng.uniform() < self.outlier_fraction:
                target = int(rng.integers(self.vocab_size))
                if target == int(np.argmax(logits)):
                    target = (target + 1) % self.vocab_size
                logits = np.zeros(self.vocab_size)
                logits[target] = 12.0
            else:
                logits = logits + self.spread * rng.standard_normal(self.vocab_size)
        probs = _softmax(logits)
        return dict(zip(self.vocab, probs.tolist()))


@dataclass
class HttpProvider:
    """Client for an OpenAI-compatible /v1/completions endpoint with logprobs.

    Requests one generated token and reads the top_logprobs of its first
    position.  If the endpoint caps logprobs below the requested count the
    cap is requested instead and unreturned tokens get probability zero (a
    warning is logged once per provider).  The bearer token is read from the
    environment variable named by auth_env.
    """

    base_url: str
    model: str
    max_logprobs: int = 100
    auth_env: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 1.0
    session: object = field(default=None, repr=False)
    _cap_warned: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not self.base_url or not self.model:
            raise ValueError("http provider needs base_url and model")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be nonnegative, got {self.max_retries}")
        if self.max_logprobs < 1:
            raise ValueError(f"max_logprobs must be positive, got {self.max_logprobs}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.session is None:
            import requests

            self.session = requests.Session()

    def next_token_distribution(
        self, prompt: str, *, label: str, position: int, subset_index: int | None, top_n: int = 0
    ) -> dict[str, float]:
        wanted = top_n or self.max_logprobs
        if wanted > self.max_logprobs:
            if not self._cap_warned:
                self._cap_warned = True
                logger.warning(
                    "endpoint caps logprobs at %d (%d requested); unreturned tokens get zero mass",
                    self.max_logprobs,
                    wanted,
                )
            wanted = self.max_logprobs
        payload = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": 1,
            "logprobs": wanted,
        }
        response = self._post_with_retries(payload)
        try:
            top = response["choices"][0]["logprobs"]["top_logprobs"][0]
        except (KeyError, IndexError, TypeError) as err:
            raise ProviderError(f"malformed logprobs response: {err!r}") from err
        probs = {tok: math.exp(lp) for tok, lp in top.items()}
        total = math.fsum(probs.values())
        if total <= 0.0:
            raise ProviderError("logprobs response carried no probability mass")
        return {tok: p / total for tok, p in probs.items()}

    def _post_with_retries(self, payload: dict) -> dict:
        import requests

        headers = {}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if not token:
                raise ProviderError(f"auth environment variable {self.auth_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        url = self.base_url.rstrip("/") + "/v1/completions"
        last_error = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = self.session.post(url, json=payload, headers=headers, timeout=self.timeout)
                if resp.status_code == 200:
                    return resp.json()
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = ProviderError(f"HTTP {resp.status_code} from {url}")
                else:
                    raise ProviderError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
            except requests.RequestException as err:
                last_error = ProviderError(f"request to {url} failed: {err}")
            if attempt < self.max_retries:
                time.sleep(self.backoff * 2**attempt)
        raise last_error


@dataclass(frozen=True)
class ProviderSpec:
    """Configuration record selecting and parameterizing a provider.

    kind picks the provider class; every other field is a field of
    SyntheticProvider or HttpProvider, and build passes the picked class
    the ones it shares.
    """

    kind: str  # "synthetic" | "http"
    seed: int = 0
    vocab_size: int = SyntheticProvider.vocab_size
    spread: float = SyntheticProvider.spread
    outlier_fraction: float = SyntheticProvider.outlier_fraction
    base_url: str = ""
    model: str = ""
    max_logprobs: int = HttpProvider.max_logprobs
    auth_env: str | None = HttpProvider.auth_env
    timeout: float = HttpProvider.timeout
    max_retries: int = HttpProvider.max_retries

    def build(self):
        provider_type = {"synthetic": SyntheticProvider, "http": HttpProvider}.get(self.kind)
        if provider_type is None:
            raise ValueError(f"unknown provider kind {self.kind!r}")
        own = {f.name for f in fields(provider_type)}
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in own}
        return provider_type(**shared)


def next_token_generation(
    provider,
    data,
    label: str,
    m: int,
    n: int,
    k: int,
    template,
    prefix: str,
    rng: np.random.Generator,
    position: int = 0,
) -> NextTokenBatch:
    """One token position: draw subsets, query the provider, restrict to top-K.

    All randomness (the subset draw) happens before any provider call.  The
    public support comes from the instruction-only prompt, computed once.
    """
    subsets = partition_subsets(data, label, m, n, rng)
    public_prompt = template.render([], label, prefix)
    private_prompts = [template.render(subset, label, prefix) for subset in subsets]
    try:
        public_p = provider.next_token_distribution(
            public_prompt, label=label, position=position, subset_index=None, top_n=k
        )
        private_ps = [
            provider.next_token_distribution(
                prompt, label=label, position=position, subset_index=i, top_n=k
            )
            for i, prompt in enumerate(private_prompts)
        ]
    except ProviderError as err:
        raise ProviderError(f"token position {position}: {err}") from err
    return restrict_topk(public_p, private_ps, min(k, len(public_p)))
