"""Sources of next-token distributions and the public top-K restriction.

A provider answers one token position in one call: given the public
(instruction-only) prompt followed by the M private prompts, it returns
(vocab, block): row 0 of the (M+1, |vocab|) array is the public distribution
and row i+1 subset i's.  Two implementations: a deterministic synthetic
provider for desk-scale runs (clustered around hash-derived per-(label,
position) centers), and a client for OpenAI-compatible completions endpoints
exposing logprobs, which sends all M+1 prompts in one request.  restrict_topk
then fixes the candidate support from row 0 alone, so private data never
influences it: one ``np.lexsort`` ranks row 0 by descending probability, ties
by each token's rank in Python str order, computed once per vocabulary (the
synthetic provider's is fixed; an http reply's is new each call).
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import partition_subsets
from .rng import check_seed, substream, substreams
from .simplex import project_to_simplex

logger = logging.getLogger(__name__)


class ProviderError(RuntimeError):
    """A provider could not produce a next-token distribution."""


@dataclass(frozen=True)
class NextTokenBatch:
    """Top-K support plus the M private vectors restricted to it.

    support is ordered by descending public probability (ties in Python str
    order); private_vectors is the C-contiguous (M, |support|) matrix in that order.
    fallback_indices lists the rows that had zero mass on the support and
    were replaced by the uniform distribution.
    """

    support: tuple[str, ...]
    private_vectors: np.ndarray
    fallback_indices: tuple[int, ...]


@functools.lru_cache(maxsize=1)
def _str_rank(vocab: tuple[str, ...]) -> np.ndarray:
    """Each token's position in Python str order (read-only; the last vocabulary's is kept).

    Not numpy's ``U``-dtype order, which drops trailing NULs and so ties " a" with " a\\x00".
    """
    rank = np.empty(len(vocab), dtype=np.intp)
    rank[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    rank.flags.writeable = False
    return rank


def restrict_topk(vocab, block: np.ndarray, k: int) -> NextTokenBatch:
    """Restrict block rows 1.. to the top-min(k, |vocab|) tokens of public row 0 and renormalize."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    total = math.fsum(block[0].tolist())
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"public distribution sums to {total}, expected 1")
    vocab = tuple(vocab)
    columns = np.lexsort((_str_rank(vocab), -block[0]))[:k]
    vectors, fallback = project_to_simplex(block[1:].take(columns, axis=1))
    support = tuple(map(vocab.__getitem__, columns.tolist()))
    return NextTokenBatch(support, vectors, tuple(np.flatnonzero(fallback).tolist()))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of logits."""
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


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
    prompt text is ignored.  Each call derives the center stream and the M
    private streams in one ``substreams`` batch (the center is element 0,
    scaled by center_logits), and softmaxes each logit row.
    """

    seed: int
    vocab_size: int = 150
    spread: float = SPREAD_RADIUS_010
    outlier_fraction: float = 0.0

    def __post_init__(self):
        check_seed(self.seed, "seed")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")

    @functools.cached_property
    def vocab(self) -> tuple[str, ...]:
        return tuple(f" w{i:03d}" for i in range(self.vocab_size))

    def center_logits(self, label: str, position: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Center logits of (label, position), drawn from rng: its ("center", label, position)
        stream, derived here unless the caller derived it in a batch."""
        if rng is None:
            rng = substream(self.seed, "center", label, position)
        return CENTER_SCALE * rng.standard_normal(self.vocab_size)

    def next_token_distribution(
        self, prompts, *, label: str, position: int, top_n: int
    ) -> tuple[tuple[str, ...], np.ndarray]:
        paths = [("private", label, position, i) for i in range(len(prompts) - 1)]
        center_rng, *row_rngs = substreams(self.seed, [("center", label, position), *paths])
        center = self.center_logits(label, position, center_rng)
        noise, outliers = np.zeros((len(paths), self.vocab_size)), []
        for row, rng in enumerate(row_rngs):
            if rng.random() < self.outlier_fraction:
                target = int(rng.integers(self.vocab_size))
                if target == int(np.argmax(center)):
                    target = (target + 1) % self.vocab_size
                outliers.append((row, target))
            else:
                rng.standard_normal(out=noise[row])
        private = center + self.spread * noise
        for row, target in outliers:
            private[row] = 0.0
            private[row, target] = 12.0
        return self.vocab, _softmax(np.vstack([center, private]))


@dataclass
class HttpProvider:
    """Client for an OpenAI-compatible /v1/completions endpoint with logprobs.

    Sends a token's M+1 prompts as one list ``prompt`` requesting one
    generated token, and reads the top_logprobs of each choice's first
    position.  The reply must hold exactly one choice per prompt, matched by
    its ``index``; anything else raises ProviderError, so a subset is never
    dropped.  Each choice is renormalized on its own, then read over the
    public choice's tokens (absent ones read 0.0, others are dropped).  429
    and 5xx replies are retried after a numeric Retry-After, or else after
    an exponential backoff, each wait at most timeout seconds.  If the endpoint caps
    logprobs below the requested count the cap is requested instead and
    unreturned tokens get probability zero (a warning is logged once per
    provider, also across threads).  The bearer token is read from the
    environment variable named by auth_env.
    """

    #: Each call waits on a network reply, so generate_shots overlaps its demos' calls.
    waits_on_network = True

    base_url: str
    model: str
    max_logprobs: int = 100
    auth_env: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 1.0
    session: object = field(default=None, repr=False)
    _cap_warning: object = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

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
        self, prompts, *, label: str, position: int, top_n: int
    ) -> tuple[tuple[str, ...], np.ndarray]:
        if top_n > self.max_logprobs and self._cap_warning.acquire(blocking=False):  # never released
            logger.warning(
                "endpoint caps logprobs at %d (%d requested); unreturned tokens get zero mass",
                self.max_logprobs, top_n,
            )
        prompts = list(prompts)
        payload = {
            "model": self.model,
            "prompt": prompts,
            "max_tokens": 1,
            "logprobs": min(top_n, self.max_logprobs),
        }
        choices = _choices_in_prompt_order(self._post_with_retries(payload), len(prompts))
        dists = [_choice_distribution(choice) for choice in choices]
        return tuple(dists[0]), np.array([[dist.get(tok, 0.0) for tok in dists[0]] for dist in dists])

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
            delay = None
            try:
                resp = self.session.post(url, json=payload, headers=headers, timeout=self.timeout)
                if resp.status_code == 200:
                    return resp.json()
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = ProviderError(f"HTTP {resp.status_code} from {url}")
                    delay = _retry_after(resp)
                else:
                    raise ProviderError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
            except requests.JSONDecodeError as err:  # a RequestException too, but the reply came
                raise ProviderError(f"malformed logprobs response: {err}") from err
            except requests.RequestException as err:
                last_error = ProviderError(f"request to {url} failed: {err}")
            if attempt < self.max_retries:
                time.sleep(min(self.timeout, delay if delay is not None else self.backoff * 2**attempt))
        raise last_error


def _retry_after(resp) -> float | None:
    """The finite, nonnegative number of seconds a Retry-After header gives, else None."""
    try:
        seconds = float(resp.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


def _choices_in_prompt_order(response, count: int) -> list:
    """The reply's choices ordered by index: exactly one for each of count prompts."""
    try:
        choices = list(response["choices"])
        indices = [choice["index"] for choice in choices]
    except (KeyError, TypeError) as err:
        raise ProviderError(f"malformed logprobs response: {err!r}") from err
    if any(type(i) is not int for i in indices) or sorted(indices) != list(range(count)):
        raise ProviderError(
            f"malformed logprobs response: choice indices {indices!r} for {count} prompts"
        )
    by_index = dict(zip(indices, choices))
    return [by_index[i] for i in range(count)]


def _choice_distribution(choice) -> dict[str, float]:
    """The renormalized top_logprobs of one choice's first generated position."""
    try:
        top = choice["logprobs"]["top_logprobs"][0]
        probs = {tok: math.exp(lp) for tok, lp in top.items()}
        total = math.fsum(probs.values())
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as err:
        raise ProviderError(f"malformed logprobs response: {err!r}") from err
    if not 0.0 < total < math.inf:
        raise ProviderError(f"malformed logprobs response: probabilities sum to {total}")
    return {tok: p / total for tok, p in probs.items()}


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
    rng: np.random.Generator | None,
    position: int = 0,
) -> NextTokenBatch:
    """One token position: draw subsets, query the provider, restrict to top-K.

    data is label pools or a list of examples (see partition_subsets), or
    None for a run without private records: rng may then be None, nothing
    is drawn and all M+1 prompts are the public one.  All randomness (the
    subset draw) happens before the provider call, which answers the public
    prompt and the M private prompts in one block whose public row 0 alone fixes the support.
    A provider error, or a NaN or infinite value in a private row, raises ProviderError.
    """
    public_prompt = template.render([], label, prefix)
    if data is None:
        prompts = [public_prompt] * (m + 1)
    else:
        subsets = partition_subsets(data, label, m, n, rng)
        prompts = [public_prompt, *(template.render(subset, label, prefix) for subset in subsets)]
    try:
        vocab, block = provider.next_token_distribution(prompts, label=label, position=position, top_n=k)
        if not np.isfinite(block[1:]).all():
            raise ProviderError("a private row holds a NaN or infinite value")
    except ProviderError as err:
        raise ProviderError(f"token position {position}: {err}") from err
    return restrict_topk(vocab, block, k)
