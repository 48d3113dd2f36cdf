import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dpfewshot
from dpfewshot import providers
from dpfewshot.cli import EXIT_PROVIDER, main
from dpfewshot.data import Example, GENERIC_TEMPLATE
from dpfewshot.pipeline import RunConfig, generate_shots, resolve_run
from dpfewshot.providers import (
    HttpProvider,
    ProviderError,
    ProviderSpec,
    SyntheticProvider,
    next_token_generation,
    restrict_topk,
)
from dpfewshot.rng import substream
from dpfewshot.simplex import project_to_simplex


def topk(public, private, k):
    """restrict_topk on dict-valued rows, each read over the public tokens (absent reads 0.0)."""
    vocab = tuple(public)
    block = np.array([[row.get(tok, 0.0) for tok in vocab] for row in [public, *private]])
    return restrict_topk(vocab, block, k)


def as_dists(result):
    """A provider's (vocab, block) reply as one dict per row, keyed by token."""
    vocab, block = result
    return [dict(zip(vocab, row.tolist())) for row in block]


class TestRestrictTopk:
    def test_full_vocab_is_identity_up_to_ordering(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"a": 0.25, "b": 0.25, "c": 0.5}]
        batch = topk(public, private, 3)
        assert batch.support == ("a", "b", "c")
        np.testing.assert_allclose(batch.private_vectors[0], [0.25, 0.25, 0.5])

    def test_dropped_mass_renormalized(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"a": 0.1, "b": 0.1, "c": 0.8}]
        batch = topk(public, private, 2)
        assert batch.support == ("a", "b")
        np.testing.assert_allclose(batch.private_vectors[0], [0.5, 0.5])

    def test_zero_mass_private_gets_uniform_and_flag(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"c": 1.0}, {"a": 1.0}]
        batch = topk(public, private, 2)
        np.testing.assert_allclose(batch.private_vectors[0], [0.5, 0.5])
        np.testing.assert_allclose(batch.private_vectors[1], [1.0, 0.0])
        assert batch.fallback_indices == (0,)

    def test_tie_broken_by_token_string(self):
        public = {"z": 0.25, "a": 0.25, "m": 0.25, "b": 0.25}
        batch = topk(public, [], 2)
        assert batch.support == ("a", "b")

    def test_relative_order_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vocab = [f"t{i}" for i in range(20)]
            raw = rng.random(20)
            public = dict(zip(vocab, raw / raw.sum()))
            praw = rng.random(20)
            private = dict(zip(vocab, praw / praw.sum()))
            batch = topk(public, [private], 8)
            kept = [private[tok] for tok in batch.support]
            order_before = np.argsort(kept)
            order_after = np.argsort(batch.private_vectors[0])
            np.testing.assert_array_equal(order_before, order_after)

    def test_support_ignores_private_vectors(self):
        public = {"a": 0.4, "b": 0.35, "c": 0.25}
        one = topk(public, [{"a": 1.0}], 2)
        other = topk(public, [{"c": 1.0}], 2)
        assert one.support == other.support

    def test_public_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            topk({"a": 0.5, "b": 0.3}, [], 2)

    def test_nan_public_is_refused(self):
        with pytest.raises(ValueError, match="sums to nan"):
            topk({"a": math.nan, "b": 0.5}, [], 2)

    def test_empty_batch_keeps_support_width(self):
        batch = topk({"a": 0.5, "b": 0.3, "c": 0.2}, [], 2)
        assert batch.private_vectors.shape == (0, 2)
        assert batch.fallback_indices == ()

    def test_private_missing_every_support_token_falls_back(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"a": 0.4, "b": 0.6}, {}, {"c": 0.7, "z": 0.3}]
        batch = topk(public, private, 2)
        np.testing.assert_array_equal(batch.private_vectors, [[0.4, 0.6], [0.5, 0.5], [0.5, 0.5]])
        assert batch.fallback_indices == (1, 2)

    def test_k_above_vocabulary_keeps_whole_vocabulary(self):
        batch = topk({"a": 0.5, "b": 0.3, "c": 0.2}, [{"b": 1.0}], 10)
        assert batch.support == ("a", "b", "c")
        np.testing.assert_array_equal(batch.private_vectors, [[0.0, 1.0, 0.0]])
        assert batch.fallback_indices == ()


    def test_tie_follows_python_str_order(self):
        # numpy "<U" arrays drop trailing NULs, so np.asarray(vocab) would tie "a" and "a\x00".
        assert np.asarray(["a", "a\x00"]).tolist() == ["a", "a"]
        vocab = ("a\x00", "z", "b", "a")
        block = np.array([[0.2, 0.4, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]])
        batch = restrict_topk(vocab, block, 4)
        assert batch.support == ("z", "a", "a\x00", "b")
        np.testing.assert_array_equal(batch.private_vectors, [[0.2, 0.4, 0.1, 0.3]])
        assert restrict_topk(vocab, block, 2).support == ("z", "a")

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gather_is_c_contiguous_and_rowwise_exact(self, seed):
        provider = SyntheticProvider(seed=seed, vocab_size=150, outlier_fraction=0.2)
        for position in range(4):
            vocab, block = provider.next_token_distribution(["p"] * 41, label="x", position=position, top_n=100)
            batch = restrict_topk(vocab, block, 100)
            assert batch.private_vectors.flags.c_contiguous
            columns = [vocab.index(tok) for tok in batch.support]
            for i, row in enumerate(batch.private_vectors):
                want, _ = project_to_simplex(block[i + 1][columns])
                assert row.tobytes() == want.tobytes()


class TestSyntheticProvider:
    def test_distribution_sums_to_one(self):
        provider = SyntheticProvider(seed=4, vocab_size=50)
        dist = as_dists(provider.next_token_distribution(["pub", "p"], label="x", position=0, top_n=100))[1]
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist) == 50

    def test_pure_function_of_keys(self):
        a = SyntheticProvider(seed=4, vocab_size=30)
        b = SyntheticProvider(seed=4, vocab_size=30)
        ones = as_dists(a.next_token_distribution(["ignored"] * 5, label="y", position=2, top_n=100))
        twos = as_dists(b.next_token_distribution(["different prompt"] * 5, label="y", position=2, top_n=100))
        for row in (0, 1, 4):  # public, subsets 0 and 3
            assert ones[row] == twos[row]

    def test_zero_spread_collapses_subsets(self):
        provider = SyntheticProvider(seed=4, vocab_size=30, spread=0.0, outlier_fraction=0.0)
        dists = as_dists(provider.next_token_distribution(["p"] * 6, label="y", position=1, top_n=100))[1:]
        assert all(d == dists[0] for d in dists)

    def test_positive_spread_separates_subsets(self):
        provider = SyntheticProvider(seed=4, vocab_size=30, spread=0.3)
        _, one, two = as_dists(provider.next_token_distribution(["p"] * 3, label="y", position=1, top_n=100))
        assert one != two

    def test_outliers_appear_at_pinned_seed(self):
        provider = SyntheticProvider(seed=11, vocab_size=40, outlier_fraction=0.2)
        center = provider.center_logits("y", 0)
        top = int(np.argmax(center))
        outliers = 0
        for dist in as_dists(provider.next_token_distribution(["p"] * 21, label="y", position=0, top_n=100))[1:]:
            values = np.array([dist[t] for t in provider.vocab])
            if int(np.argmax(values)) != top and values.max() > 0.9:
                outliers += 1
        assert outliers >= 1

    def test_outlier_never_takes_the_public_argmax(self):
        # with two tokens, half the outlier draws land on the public argmax
        # and must move to the other token
        provider = SyntheticProvider(seed=2, vocab_size=2, outlier_fraction=1.0)
        collisions = 0
        for label in ("x", "y", "z"):
            for position in range(20):
                _, block = provider.next_token_distribution(["p"] * 9, label=label, position=position, top_n=2)
                top = int(np.argmax(block[0]))
                assert all(int(np.argmax(row)) != top for row in block[1:]), (label, position)
                for i in range(8):
                    rng = substream(provider.seed, "private", label, position, i)
                    rng.uniform()
                    collisions += int(rng.integers(2)) == top
        assert collisions > 100


def uncached_distribution(provider, label, position, subset_index):
    """SyntheticProvider's distribution derived straight from substream, no cache."""
    vocab_size = provider.vocab_size
    center = 3.0 * substream(provider.seed, "center", label, position).standard_normal(vocab_size)
    logits = center
    if subset_index is not None:
        rng = substream(provider.seed, "private", label, position, subset_index)
        if rng.uniform() < provider.outlier_fraction:
            target = int(rng.integers(vocab_size))
            if target == int(np.argmax(center)):
                target = (target + 1) % vocab_size
            logits = np.zeros(vocab_size)
            logits[target] = 12.0
        else:
            logits = center + provider.spread * rng.standard_normal(vocab_size)
    weights = np.exp(logits - logits.max())
    probs = weights / weights.sum()
    return dict(zip([f" w{i:03d}" for i in range(vocab_size)], probs.tolist()))


class TestSyntheticCenter:
    def test_interleaved_calls_match_uncached_formula(self):
        providers = [SyntheticProvider(seed=s, vocab_size=40, outlier_fraction=0.3) for s in (3, 8)]
        keys = [(p, label, pos) for p in providers for label in ("x", "y") for pos in (0, 1)]
        outliers = 0
        for provider, label, pos in keys:
            got = as_dists(provider.next_token_distribution(["p"] * 7, label=label, position=pos, top_n=100))
            assert got == [uncached_distribution(provider, label, pos, i) for i in (None, 0, 1, 2, 3, 4, 5)]
            outliers += sum(max(dist.values()) > 0.99 for dist in got)
        assert 0 < outliers < len(keys) * 6  # both private branches ran
        # A smaller M gives the same leading rows.
        for provider, label, pos in keys:
            got = as_dists(provider.next_token_distribution(["p"] * 2, label=label, position=pos, top_n=100))
            assert got == [uncached_distribution(provider, label, pos, i) for i in (None, 0)]

    def test_vocab_built_once(self):
        provider = SyntheticProvider(seed=1, vocab_size=10)
        assert provider.vocab is provider.vocab
        assert provider.vocab == tuple(f" w{i:03d}" for i in range(10))

    @pytest.mark.parametrize("m", [1, 4, 40])
    def test_one_center_derivation_per_call(self, monkeypatch, m):
        paths = []
        monkeypatch.setattr(
            providers, "substream", lambda seed, *path: paths.append(path) or substream(seed, *path)
        )
        SyntheticProvider(seed=5, vocab_size=10).next_token_distribution(
            ["p"] * (m + 1), label="x", position=2, top_n=10
        )
        assert [path for path in paths if path[0] == "center"] == [("center", "x", 2)]
        assert [path for path in paths if path[0] == "private"] == [("private", "x", 2, i) for i in range(m)]


class FakeSession:
    """Scripted transport for HttpProvider: pops one response per post.

    A response is an exception to raise or (status, body[, headers]).
    """

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        status, body, *rest = item

        class Response:
            status_code = status
            text = str(body)
            headers = rest[0] if rest else {}

            def json(self):
                return body

        return Response()


LOGPROBS_FIXTURE = {
    "choices": [
        {
            "index": 0,
            "text": " City",
            "logprobs": {
                "top_logprobs": [{" City": -0.1, " Town": -2.3, " Village": -4.0}]
            },
        }
    ]
}


def choices_reply(*tops, indices=None):
    """A completions body with one choice per top_logprobs dict, indexed in order unless given."""
    indices = range(len(tops)) if indices is None else indices
    return {"choices": [
        {"index": index, "logprobs": {"top_logprobs": [top]}} for index, top in zip(indices, tops)
    ]}


TOPS = [{" a": -0.1, " b": -2.0}, {" a": -1.0, " b": -0.5}, {" a": -3.0, " b": -0.2}]

#: Replies to a three-prompt request (M = 2) that must be refused.
MALFORMED_REPLIES = {
    "m_choices": choices_reply(*TOPS[:2]),
    "m_plus_2_choices": choices_reply(*TOPS, TOPS[0]),
    "duplicate_index": choices_reply(*TOPS, indices=[0, 1, 1]),
    "missing_index": {"choices": [
        *choices_reply(*TOPS[:2])["choices"], {"logprobs": {"top_logprobs": [TOPS[2]]}}
    ]},
    "non_integer_index": choices_reply(*TOPS, indices=[0, "1", 2]),
    "float_index": choices_reply(*TOPS, indices=[0, 1.0, 2]),
    "malformed_choice_among_good": choices_reply(TOPS[0], {" a": math.nan, " b": -1.0}, TOPS[2]),
}


class TestHttpProvider:
    def make(self, responses, **kw):
        return HttpProvider(
            base_url="http://api.test", model="m", session=FakeSession(responses),
            backoff=0.0, **kw,
        )

    def test_parses_and_renormalizes_logprobs(self):
        provider = self.make([(200, LOGPROBS_FIXTURE)])
        [dist] = as_dists(provider.next_token_distribution(["p"], label="y", position=0, top_n=3))
        raw = {tok: math.exp(lp) for tok, lp in {" City": -0.1, " Town": -2.3, " Village": -4.0}.items()}
        total = sum(raw.values())
        for tok, p in dist.items():
            assert p == pytest.approx(raw[tok] / total, abs=1e-9)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_request_shape(self):
        provider = self.make([(200, choices_reply(*TOPS))])
        provider.next_token_distribution(
            ["the prompt", "private 0", "private 1"], label="y", position=0, top_n=3
        )
        [request] = provider.session.requests
        assert request["url"] == "http://api.test/v1/completions"
        assert request["json"] == {
            "model": "m", "prompt": ["the prompt", "private 0", "private 1"], "max_tokens": 1, "logprobs": 3
        }

    def test_caps_requested_logprobs(self, caplog):
        provider = self.make([(200, choices_reply(*TOPS))] * 2, max_logprobs=5)
        with caplog.at_level("WARNING"):
            for position in (0, 1):
                provider.next_token_distribution(["p"] * 3, label="y", position=position, top_n=100)
        assert [r["json"]["logprobs"] for r in provider.session.requests] == [5, 5]
        assert [r.getMessage() for r in caplog.records if "caps logprobs" in r.getMessage()] == [
            "endpoint caps logprobs at 5 (100 requested); unreturned tokens get zero mass"
        ]

    @pytest.mark.parametrize("kw, message", [
        ({"base_url": ""}, "needs base_url and model"),
        ({"model": ""}, "needs base_url and model"),
        ({"max_retries": -1}, "max_retries must be nonnegative, got -1"),
        ({"timeout": 0}, "timeout must be positive, got 0"),
        ({"max_logprobs": 0}, "max_logprobs must be positive, got 0"),
    ])
    def test_refused_at_construction(self, kw, message):
        with pytest.raises(ValueError, match=message):
            HttpProvider(**{"base_url": "http://api.test", "model": "m", **kw})

    def test_retries_on_server_error_then_succeeds(self):
        provider = self.make([(503, {}), (200, LOGPROBS_FIXTURE)], max_retries=2)
        [dist] = as_dists(provider.next_token_distribution(["p"], label="y", position=0, top_n=3))
        assert len(dist) == 3
        assert len(provider.session.requests) == 2

    def test_retries_exhausted_raise(self):
        provider = self.make([(503, {})] * 3, max_retries=2)
        with pytest.raises(ProviderError, match="503"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=3)

    def test_client_error_fails_fast(self):
        provider = self.make([(400, {"error": "bad"})], max_retries=3)
        with pytest.raises(ProviderError, match="400"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=3)
        assert len(provider.session.requests) == 1

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekrit")
        provider = self.make([(200, LOGPROBS_FIXTURE)], auth_env="TEST_API_TOKEN")
        provider.next_token_distribution(["p"], label="y", position=0, top_n=3)
        assert provider.session.requests[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_auth_env_raises(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        provider = self.make([], auth_env="NOPE_TOKEN")
        with pytest.raises(ProviderError, match="NOPE_TOKEN"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=3)

    def test_malformed_body_raises(self):
        provider = self.make([(200, {"choices": []})])
        with pytest.raises(ProviderError, match="malformed"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, None, "x", 1000])
    def test_malformed_logprob_value_raises(self, value):
        body = {"choices": [{"index": 0, "logprobs": {"top_logprobs": [{"a": value, "b": -1.0}]}}]}
        provider = self.make([(200, body)])
        with pytest.raises(ProviderError, match="malformed logprobs response"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=2)

    def test_shuffled_choices_matched_by_index(self):
        provider = self.make([(200, choices_reply(TOPS[2], TOPS[0], TOPS[1], indices=[2, 0, 1]))])
        got = as_dists(provider.next_token_distribution(["pub", "s0", "s1"], label="y", position=0, top_n=2))
        in_order = self.make([(200, choices_reply(*TOPS))])
        want = in_order.next_token_distribution(["pub", "s0", "s1"], label="y", position=0, top_n=2)
        assert got == as_dists(want)
        assert [max(dist, key=dist.get) for dist in got] == [" a", " b", " b"]

    def test_private_replies_mapped_onto_public_tokens(self):
        tops = [
            {" a": -0.1, " b": -2.0, " c": -3.0},
            {" z": -0.5, " a": -1.0},  # " z" is private-only; " b" and " c" are missing
            {" c": -1.0, " b": -0.2, " a": -4.0},
        ]
        provider = self.make([(200, choices_reply(*tops))])
        vocab, block = provider.next_token_distribution(["pub", "s0", "s1"], label="y", position=0, top_n=3)
        dists = [providers._choice_distribution({"logprobs": {"top_logprobs": [top]}}) for top in tops]
        assert vocab == (" a", " b", " c")
        assert block[1].tolist() == [dists[1][" a"], 0.0, 0.0]
        assert dists[1][" a"] == math.exp(-1.0) / math.fsum([math.exp(-0.5), math.exp(-1.0)])
        assert block[2].tolist() == [dists[2][tok] for tok in vocab]
        for k in (1, 2, 3):
            batch = restrict_topk(vocab, block, k)
            rows = [[dist.get(tok, 0.0) for tok in batch.support] for dist in dists[1:]]
            want, fallback = project_to_simplex(np.array(rows))
            assert batch.private_vectors.tobytes() == want.tobytes()
            assert batch.fallback_indices == tuple(np.flatnonzero(fallback).tolist())

    @pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
    def test_choices_not_one_per_prompt_raise(self, case):
        provider = self.make([(200, MALFORMED_REPLIES[case])], max_retries=3)
        with pytest.raises(ProviderError, match="malformed logprobs response"):
            provider.next_token_distribution(["pub", "s0", "s1"], label="y", position=0, top_n=2)
        assert len(provider.session.requests) == 1

    def test_numeric_retry_after_sets_the_delay(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        provider = HttpProvider(
            base_url="http://api.test", model="m", backoff=0.5, max_retries=5,
            session=FakeSession([
                (429, {}, {"Retry-After": "2"}),
                (503, {}, {"Retry-After": "0.25"}),
                (503, {}, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
                (502, {}, {"Retry-After": "-1"}),
                (500, {}, {}),
                (200, LOGPROBS_FIXTURE),
            ]),
        )
        [dist] = as_dists(provider.next_token_distribution(["p"], label="y", position=0, top_n=3))
        assert len(dist) == 3
        assert delays == [2.0, 0.25, 0.5 * 2**2, 0.5 * 2**3, 0.5 * 2**4]

    def test_retry_after_keeps_the_attempt_count(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        provider = self.make([(429, {}, {"Retry-After": "3"})] * 3, max_retries=2)
        with pytest.raises(ProviderError, match="429"):
            provider.next_token_distribution(["p"], label="y", position=0, top_n=3)
        assert len(provider.session.requests) == 3
        assert delays == [3.0, 3.0]


def label_pool(label, count):
    return [Example(f"{label} item {i}", label) for i in range(count)]


class TestNextTokenGeneration:
    def test_zero_spread_gives_identical_vectors(self):
        provider = SyntheticProvider(seed=2, vocab_size=40, spread=0.0)
        data = label_pool("y", 8)
        batch = next_token_generation(
            provider, data, "y", 4, 2, 10, GENERIC_TEMPLATE, "", np.random.default_rng(0)
        )
        assert batch.private_vectors.shape == (4, 10)
        for row in batch.private_vectors[1:]:
            np.testing.assert_array_equal(row, batch.private_vectors[0])

    def test_distinct_subsets_share_support(self):
        provider = SyntheticProvider(seed=2, vocab_size=40, spread=0.4)
        data = label_pool("y", 4)
        batch = next_token_generation(
            provider, data, "y", 2, 1, 10, GENERIC_TEMPLATE, "", np.random.default_rng(0)
        )
        assert len(batch.support) == 10
        assert not np.array_equal(batch.private_vectors[0], batch.private_vectors[1])

    def test_provider_error_carries_position(self):
        class Boom:
            def next_token_distribution(self, *a, **kw):
                raise ProviderError("backend down")

        data = label_pool("y", 4)
        with pytest.raises(ProviderError, match="token position 7"):
            next_token_generation(
                Boom(), data, "y", 2, 1, 5, GENERIC_TEMPLATE, "", np.random.default_rng(0), position=7
            )

    def test_equal_seeds_give_bitwise_identical_batches(self):
        data = label_pool("y", 8)
        batches = []
        for _ in range(2):
            provider = SyntheticProvider(seed=6, vocab_size=40, spread=0.3, outlier_fraction=0.1)
            batches.append(
                next_token_generation(
                    provider, data, "y", 4, 2, 10, GENERIC_TEMPLATE, " pre", np.random.default_rng(3)
                )
            )
        assert batches[0].support == batches[1].support
        np.testing.assert_array_equal(batches[0].private_vectors, batches[1].private_vectors)
        assert batches[0].fallback_indices == batches[1].fallback_indices

    def test_http_fixture_end_to_end(self):
        fixture = choices_reply(*[{" a": -0.5, " b": -1.0, " c": -1.5}] * 3)
        provider = HttpProvider(
            base_url="http://api.test", model="m",
            session=FakeSession([(200, fixture)]), backoff=0.0,
        )
        data = label_pool("y", 2)
        batch = next_token_generation(
            provider, data, "y", 2, 1, 3, GENERIC_TEMPLATE, "", np.random.default_rng(0)
        )
        assert batch.support == (" a", " b", " c")
        expected = np.exp([-0.5, -1.0, -1.5])
        np.testing.assert_allclose(batch.private_vectors[0], expected / expected.sum(), atol=1e-9)
        [request] = provider.session.requests
        assert len(request["json"]["prompt"]) == 3

    def test_run_without_dataset_sends_the_public_prompt_m_plus_1_times(self):
        m, label = 3, "y"
        provider = HttpProvider(
            base_url="http://api.test", model="m", backoff=0.0,
            session=FakeSession([(200, choices_reply(*[{" a": -0.5, " b": -1.0}] * (m + 1)))]),
        )
        config = RunConfig(labels=(label,), n_shots=1, m=m, k=2, t_max=1, sigma1=0.6)
        generate_shots(resolve_run(config, provider=provider))
        [request] = provider.session.requests
        assert request["json"]["prompt"] == [GENERIC_TEMPLATE.render([], label, "")] * (m + 1)


@pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
def test_malformed_reply_through_main_exits_3(tmp_path, capsys, monkeypatch, case):
    import requests

    session = FakeSession([(200, MALFORMED_REPLIES[case])])
    monkeypatch.setattr(requests, "Session", lambda: session)
    demos = tmp_path / "d.jsonl"
    code = main([
        "generate", "--labels", "a,b", "--n-shots", "1", "--m", "2", "--t-max", "2", "--k", "2",
        "--sigma1", "1", "--provider", "http", "--base-url", "http://api.test", "--model", "m",
        "--demos-out", str(demos), "--traces-out", str(tmp_path / "t.jsonl"),
    ])
    assert code == EXIT_PROVIDER
    assert "provider error: token position 0: malformed logprobs response" in capsys.readouterr().err
    assert len(session.requests) == 1
    assert not demos.exists()


class TestProviderSpec:
    def test_builds_synthetic(self):
        provider = ProviderSpec(kind="synthetic", seed=3, vocab_size=20).build()
        assert isinstance(provider, SyntheticProvider)

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            ProviderSpec(kind="http").build()

    def test_every_field_belongs_to_a_provider(self):
        provider_fields = {f.name for cls in (SyntheticProvider, HttpProvider) for f in dataclasses.fields(cls)}
        spec_fields = {f.name for f in dataclasses.fields(ProviderSpec)} - {"kind"}
        assert spec_fields <= provider_fields

    def test_builds_http_from_its_fields(self):
        spec = ProviderSpec(kind="http", base_url="http://api.test", model="m", timeout=2.5, max_retries=0)
        provider = spec.build()
        assert isinstance(provider, HttpProvider)
        assert (provider.base_url, provider.model, provider.timeout, provider.max_retries) == (
            "http://api.test", "m", 2.5, 0
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProviderSpec(kind="quantum").build()


def test_package_import_leaves_requests_unloaded():
    """requests is imported only when an HttpProvider is built or posts."""
    env = dict(os.environ, PYTHONPATH=str(Path(dpfewshot.__file__).parents[1]))
    code = "import sys, dpfewshot; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
