import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpfewshot
from dpfewshot.data import Example, GENERIC_TEMPLATE
from dpfewshot.providers import (
    HttpProvider,
    ProviderError,
    ProviderSpec,
    SyntheticProvider,
    next_token_generation,
    restrict_topk,
)


class TestRestrictTopk:
    def test_full_vocab_is_identity_up_to_ordering(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"a": 0.25, "b": 0.25, "c": 0.5}]
        batch = restrict_topk(public, private, 3)
        assert batch.support == ("a", "b", "c")
        np.testing.assert_allclose(batch.private_vectors[0], [0.25, 0.25, 0.5])

    def test_dropped_mass_renormalized(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"a": 0.1, "b": 0.1, "c": 0.8}]
        batch = restrict_topk(public, private, 2)
        assert batch.support == ("a", "b")
        np.testing.assert_allclose(batch.private_vectors[0], [0.5, 0.5])

    def test_zero_mass_private_gets_uniform_and_flag(self):
        public = {"a": 0.5, "b": 0.3, "c": 0.2}
        private = [{"c": 1.0}, {"a": 1.0}]
        batch = restrict_topk(public, private, 2)
        np.testing.assert_allclose(batch.private_vectors[0], [0.5, 0.5])
        np.testing.assert_allclose(batch.private_vectors[1], [1.0, 0.0])
        assert batch.fallback_indices == (0,)

    def test_tie_broken_by_token_string(self):
        public = {"z": 0.25, "a": 0.25, "m": 0.25, "b": 0.25}
        batch = restrict_topk(public, [], 2)
        assert batch.support == ("a", "b")

    def test_relative_order_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vocab = [f"t{i}" for i in range(20)]
            raw = rng.random(20)
            public = dict(zip(vocab, raw / raw.sum()))
            praw = rng.random(20)
            private = dict(zip(vocab, praw / praw.sum()))
            batch = restrict_topk(public, [private], 8)
            kept = [private[tok] for tok in batch.support]
            order_before = np.argsort(kept)
            order_after = np.argsort(batch.private_vectors[0])
            np.testing.assert_array_equal(order_before, order_after)

    def test_support_ignores_private_vectors(self):
        public = {"a": 0.4, "b": 0.35, "c": 0.25}
        one = restrict_topk(public, [{"a": 1.0}], 2)
        other = restrict_topk(public, [{"c": 1.0}], 2)
        assert one.support == other.support

    def test_public_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            restrict_topk({"a": 0.5, "b": 0.3}, [], 2)


class TestSyntheticProvider:
    def test_distribution_sums_to_one(self):
        provider = SyntheticProvider(seed=4, vocab_size=50)
        dist = provider.next_token_distribution("p", label="x", position=0, subset_index=0)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist) == 50

    def test_pure_function_of_keys(self):
        a = SyntheticProvider(seed=4, vocab_size=30)
        b = SyntheticProvider(seed=4, vocab_size=30)
        for subset in (None, 0, 3):
            one = a.next_token_distribution("ignored", label="y", position=2, subset_index=subset)
            two = b.next_token_distribution("different prompt", label="y", position=2, subset_index=subset)
            assert one == two

    def test_zero_spread_collapses_subsets(self):
        provider = SyntheticProvider(seed=4, vocab_size=30, spread=0.0, outlier_fraction=0.0)
        dists = [
            provider.next_token_distribution("p", label="y", position=1, subset_index=i)
            for i in range(5)
        ]
        assert all(d == dists[0] for d in dists)

    def test_positive_spread_separates_subsets(self):
        provider = SyntheticProvider(seed=4, vocab_size=30, spread=0.3)
        one = provider.next_token_distribution("p", label="y", position=1, subset_index=0)
        two = provider.next_token_distribution("p", label="y", position=1, subset_index=1)
        assert one != two

    def test_outliers_appear_at_pinned_seed(self):
        provider = SyntheticProvider(seed=11, vocab_size=40, outlier_fraction=0.2)
        center = provider.center_logits("y", 0)
        top = int(np.argmax(center))
        outliers = 0
        for i in range(20):
            dist = provider.next_token_distribution("p", label="y", position=0, subset_index=i)
            values = np.array([dist[t] for t in provider.vocab])
            if int(np.argmax(values)) != top and values.max() > 0.9:
                outliers += 1
        assert outliers >= 1


class FakeSession:
    """Scripted transport for HttpProvider: pops one response per post."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        status, body = item

        class Response:
            status_code = status
            text = str(body)

            def json(self):
                return body

        return Response()


LOGPROBS_FIXTURE = {
    "choices": [
        {
            "text": " City",
            "logprobs": {
                "top_logprobs": [{" City": -0.1, " Town": -2.3, " Village": -4.0}]
            },
        }
    ]
}


class TestHttpProvider:
    def make(self, responses, **kw):
        return HttpProvider(
            base_url="http://api.test", model="m", session=FakeSession(responses),
            backoff=0.0, **kw,
        )

    def test_parses_and_renormalizes_logprobs(self):
        provider = self.make([(200, LOGPROBS_FIXTURE)])
        dist = provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)
        raw = {tok: math.exp(lp) for tok, lp in {" City": -0.1, " Town": -2.3, " Village": -4.0}.items()}
        total = sum(raw.values())
        for tok, p in dist.items():
            assert p == pytest.approx(raw[tok] / total, abs=1e-9)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_request_shape(self):
        provider = self.make([(200, LOGPROBS_FIXTURE)])
        provider.next_token_distribution("the prompt", label="y", position=0, subset_index=None, top_n=3)
        request = provider.session.requests[0]
        assert request["url"] == "http://api.test/v1/completions"
        assert request["json"] == {"model": "m", "prompt": "the prompt", "max_tokens": 1, "logprobs": 3}

    def test_caps_requested_logprobs(self, caplog):
        provider = self.make([(200, LOGPROBS_FIXTURE)] * 2, max_logprobs=5)
        with caplog.at_level("WARNING"):
            for subset in (0, 1):
                provider.next_token_distribution("p", label="y", position=0, subset_index=subset, top_n=100)
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
        dist = provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)
        assert len(dist) == 3
        assert len(provider.session.requests) == 2

    def test_retries_exhausted_raise(self):
        provider = self.make([(503, {})] * 3, max_retries=2)
        with pytest.raises(ProviderError, match="503"):
            provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)

    def test_client_error_fails_fast(self):
        provider = self.make([(400, {"error": "bad"})], max_retries=3)
        with pytest.raises(ProviderError, match="400"):
            provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)
        assert len(provider.session.requests) == 1

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TEST_API_TOKEN", "sekrit")
        provider = self.make([(200, LOGPROBS_FIXTURE)], auth_env="TEST_API_TOKEN")
        provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)
        assert provider.session.requests[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_auth_env_raises(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        provider = self.make([], auth_env="NOPE_TOKEN")
        with pytest.raises(ProviderError, match="NOPE_TOKEN"):
            provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)

    def test_malformed_body_raises(self):
        provider = self.make([(200, {"choices": []})])
        with pytest.raises(ProviderError, match="malformed"):
            provider.next_token_distribution("p", label="y", position=0, subset_index=0, top_n=3)


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
        fixture = {
            "choices": [
                {"logprobs": {"top_logprobs": [{" a": -0.5, " b": -1.0, " c": -1.5}]}}
            ]
        }
        provider = HttpProvider(
            base_url="http://api.test", model="m",
            session=FakeSession([(200, fixture)] * 3), backoff=0.0,
        )
        data = label_pool("y", 2)
        batch = next_token_generation(
            provider, data, "y", 2, 1, 3, GENERIC_TEMPLATE, "", np.random.default_rng(0)
        )
        assert batch.support == (" a", " b", " c")
        expected = np.exp([-0.5, -1.0, -1.5])
        np.testing.assert_allclose(batch.private_vectors[0], expected / expected.sum(), atol=1e-9)


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
