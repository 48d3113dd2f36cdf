import _thread
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import requests

import dpfewshot
from dpfewshot import providers
from dpfewshot.cli import EXIT_PROVIDER, main
from dpfewshot.data import Example, GENERIC_TEMPLATE
from dpfewshot.pipeline import RunConfig, generate_shots, resolve_run, step_streams, token_step, write_outputs
from dpfewshot.providers import (
    HttpProvider,
    ProviderError,
    ProviderSpec,
    SyntheticProvider,
    next_token_generation,
    restrict_topk,
)
from dpfewshot.rng import substream, substreams
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


def tuple_sort_topk(vocab, block, k):
    """restrict_topk by its former ranking, the reference: Python's sorted over (-p, token, index)."""
    ranked = sorted(zip([-p for p in block[0].tolist()], vocab, range(len(vocab))))[:k]
    columns = np.array([j for _, _, j in ranked], dtype=np.intp)
    vectors, fallback = project_to_simplex(block[1:].take(columns, axis=1))
    return tuple(tok for _, tok, _ in ranked), vectors, tuple(np.flatnonzero(fallback).tolist())


#: Tokens whose str order differs from their order here: unpadded numbers, NUL-suffixed
#: twins, case, combining marks, CJK and an emoji.
ORACLE_TOKENS = tuple(dict.fromkeys([
    " a", " a\x00", " a\x00\x00", "a", "a\x00", "\x00", "", " ", "\t", "Z", "z", "é", "e\u0301",
    "日本", "🙂", " w10", " w2", " w100", *(f" w{i}" for i in range(40)),
]))


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

    @pytest.mark.parametrize("seed", range(4))
    def test_lexsort_equals_the_tuple_sort(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            v = int(rng.integers(1, 40))
            vocab = tuple(ORACLE_TOKENS[i] for i in rng.choice(len(ORACLE_TOKENS), v, replace=False))
            # small integer weights tie exactly and include exact zeros
            weights = rng.integers(0, 4, size=(int(rng.integers(1, 6)), v)).astype(float)
            weights[0, int(rng.integers(v))] += 1.0
            if rng.random() < 0.5:
                weights[0] = rng.dirichlet(np.ones(v)) * weights[0].sum()
            block = weights / weights.sum(axis=1, keepdims=True).clip(min=1.0)
            k = int(rng.integers(1, v + 4))  # k >= V in about a quarter of the blocks
            for same_vocab in (vocab, tuple(list(vocab))):  # a fresh rank, then the kept one for an equal tuple
                batch = restrict_topk(same_vocab, block, k)
                support, vectors, fallback = tuple_sort_topk(vocab, block, k)
                assert batch.support == support
                assert np.array_equal(batch.private_vectors, vectors)
                assert batch.fallback_indices == fallback

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


def per_row_block(provider, prompts, label, position):
    """SyntheticProvider's block built row by row: one substream, uniform and normal draw per row."""
    center = provider.center_logits(label, position)
    logits = np.zeros((len(prompts), provider.vocab_size))
    logits[0] = center
    for row in range(1, len(prompts)):
        rng = substream(provider.seed, "private", label, position, row - 1)
        if rng.uniform() < provider.outlier_fraction:
            target = int(rng.integers(provider.vocab_size))
            if target == int(np.argmax(center)):
                target = (target + 1) % provider.vocab_size
            logits[row, target] = 12.0
        else:
            logits[row] = center + provider.spread * rng.standard_normal(provider.vocab_size)
    return providers._softmax(logits)


class TestSyntheticCenter:
    @pytest.mark.parametrize("m", [1, 4, 40])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.2, 1.0])
    def test_block_equals_per_row_loop(self, m, outlier_fraction):
        provider = SyntheticProvider(seed=11, outlier_fraction=outlier_fraction)
        prompts = ["p"] * (m + 1)
        for label, position in [("x", 0), ("x", 7), ("Sci/Tech", 99)]:
            vocab, block = provider.next_token_distribution(prompts, label=label, position=position, top_n=100)
            assert vocab == provider.vocab
            assert np.array_equal(block, per_row_block(provider, prompts, label, position))

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

    @pytest.mark.parametrize("m", [1, 40])
    def test_batched_center_equals_center_logits(self, monkeypatch, m):
        provider = SyntheticProvider(seed=11, outlier_fraction=0.2)
        keys = [("x", 0), ("x", 7), ("Sci/Tech", 99)]
        calls = []
        center_logits = SyntheticProvider.center_logits
        monkeypatch.setattr(
            SyntheticProvider, "center_logits",
            lambda self, *args: calls.append((args, center_logits(self, *args))) or calls[-1][1],
        )
        for label, position in keys:
            provider.next_token_distribution(["p"] * (m + 1), label=label, position=position, top_n=100)
        monkeypatch.undo()
        assert [args[:2] for args, _ in calls] == keys
        assert all(isinstance(args[2], np.random.Generator) for args, _ in calls)  # element 0 of the batch
        for (args, center), (label, position) in zip(calls, keys):
            assert center.tobytes() == provider.center_logits(label, position).tobytes()

    @pytest.mark.parametrize("m", [1, 4, 40])
    def test_one_center_derivation_per_call(self, monkeypatch, m):
        paths = []
        monkeypatch.setattr(
            providers, "substream", lambda seed, *path: paths.append(path) or substream(seed, *path)
        )
        monkeypatch.setattr(
            providers, "substreams", lambda seed, batch: paths.extend(batch) or substreams(seed, batch)
        )
        SyntheticProvider(seed=5, vocab_size=10).next_token_distribution(
            ["p"] * (m + 1), label="x", position=2, top_n=10
        )
        assert [path for path in paths if path[0] == "center"] == [("center", "x", 2)]
        assert [path for path in paths if path[0] == "private"] == [("private", "x", 2, i) for i in range(m)]


class FakeSession:
    """Scripted transport for HttpProvider: pops one response per post.

    A response is an exception to raise or (status, body[, headers]); a
    body that is an exception is what the response's json() raises.
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
                if isinstance(body, Exception):
                    raise body
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
    # A 200 whose body is not JSON; requests' JSONDecodeError is also a RequestException.
    "not_json": requests.JSONDecodeError("Expecting value", "<html>", 0),
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

    def test_retry_after_waits_at_most_the_timeout(self, monkeypatch):
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        provider = self.make([(429, {}, {"Retry-After": "86400"}), (200, LOGPROBS_FIXTURE)], timeout=7.5)
        provider.next_token_distribution(["p"], label="y", position=0, top_n=3)
        assert delays == [7.5]

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_private_row_is_a_provider_error(self, value):
        class Broken:
            def next_token_distribution(self, prompts, **kw):
                return ("a", "b"), np.array([[0.5, 0.5], [1.0, 0.0], [0.5, value]])

        with pytest.raises(ProviderError, match="^token position 7: a private row holds a NaN or infinite value$"):
            next_token_generation(
                Broken(), label_pool("y", 4), "y", 2, 1, 1, GENERIC_TEMPLATE, "", np.random.default_rng(0), position=7
            )

    def test_nan_public_row_keeps_its_value_error(self):
        class NanPublic:
            def next_token_distribution(self, prompts, **kw):
                return ("a", "b"), np.array([[math.nan, 0.5], [1.0, 0.0]])

        with pytest.raises(ValueError, match="sums to nan"):
            next_token_generation(NanPublic(), None, "y", 1, 1, 1, GENERIC_TEMPLATE, "", None)

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


def query_label(prompt: str) -> str:
    """The label of a GENERIC_TEMPLATE prompt's query block."""
    return prompt.rsplit("\n\n", 1)[-1].split("\n", 1)[0].removeprefix("Label: ")


def prompt_top(prompt: str, top_n: int) -> dict[str, float]:
    """top_n logprobs over eight tokens, a pure function of the prompt."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    logprobs = {f" t{i}": -digest[i] / 32 for i in range(8)}
    return dict(sorted(logprobs.items(), key=lambda item: -item[1])[:top_n])


class PromptSession:
    """Thread-safe transport whose reply is a pure function of each prompt.

    Every post is logged in arrival order by the label of its query, and so
    is every refusal, as ("refused", label); the threads that post are kept.
    Requests for a label in fail_labels are refused with HTTP 400.  Each
    reply comes after a delay_s sleep outside the lock, so that the demos'
    requests overlap.
    """

    def __init__(self, fail_labels=(), delay_s=0.001):
        self.fail_labels, self.delay_s = set(fail_labels), delay_s
        self.lock = threading.Lock()
        self.log, self.threads = [], set()
        self.inflight = self.inflight_max = 0

    def post(self, url, json=None, headers=None, timeout=None):
        label = query_label(json["prompt"][0])
        with self.lock:
            self.log.append(label)
            self.threads.add(threading.current_thread())
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            time.sleep(self.delay_s)
            if label in self.fail_labels:
                with self.lock:
                    self.log.append(("refused", label))
                return SimpleNamespace(status_code=400, text="bad request", headers={})
            body = choices_reply(*self.tops(label, json["prompt"], json["logprobs"]))
            return SimpleNamespace(status_code=200, text="", headers={}, json=lambda: body)
        finally:
            with self.lock:
                self.inflight -= 1

    def tops(self, label, prompts, top_n):
        return [prompt_top(prompt, top_n) for prompt in prompts]


SHOT_LABELS = ("World", "Sports", "Business", "Technology")


def http_run(tmp_path, session, **overrides):
    """A resolved 4-demo run over a small dataset through an HttpProvider on session."""
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"text": f"{label} text {i}", "label": label}) + "\n" for label in SHOT_LABELS for i in range(6)
    ))
    params = dict(
        dataset_path=str(dataset), m=3, n=2, k=6, t_max=6, n_shots=4,
        sigma0=2.0, sigma1=0.5, sigma2=1.0, seed=4, stop_tokens=(" t7",),
    )
    params.update(overrides)
    provider = HttpProvider(base_url="http://api.test", model="m", backoff=0.0, session=session)
    return resolve_run(RunConfig(**params), provider=provider)


class RecordingProvider:
    """A provider that records each call's public prompt and (vocab, block)."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def next_token_distribution(self, prompts, *, label, position, top_n):
        vocab, block = self.inner.next_token_distribution(prompts, label=label, position=position, top_n=top_n)
        self.calls.append((prompts[0], vocab, block))
        return vocab, block


def test_public_side_of_a_neighbour_coupled_run(tmp_path):
    """D and D' differ in one record's text within one label, and both are
    resolved with one seed.  Replaying each of D's steps (label, prefix,
    position) on D' gives the same public prompt, row 0 and top-K support."""
    records = [{"text": f"{label} text {i}", "label": label} for label in SHOT_LABELS for i in range(6)]
    neighbour_records = [dict(r, text="replaced") if r["text"] == "Sports text 3" else r for r in records]
    runs = []
    for name, rows in (("d", records), ("d_prime", neighbour_records)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = RunConfig(
            dataset_path=str(path), m=3, n=2, k=6, t_max=12, n_shots=4,
            sigma0=2.0, sigma1=0.5, sigma2=1.0, seed=4,
        )
        http = HttpProvider(base_url="http://api.test", model="m", session=PromptSession(delay_s=0.0))
        runs.append(resolve_run(config, provider=RecordingProvider(http)))
    run, neighbour = runs
    demos, _ = generate_shots(run)
    steps = [
        (index, demo.label, "".join(demo.tokens[:position]), position)
        for index, demo in enumerate(demos) for position in range(len(demo.tokens))
    ]
    assert {label for _, label, _, _ in steps} == set(SHOT_LABELS)
    private_rows_differ = 0
    for index, label, prefix, position in steps:
        batches = []
        for each in runs:
            [(draw, noise)] = step_streams(each, [("demo", index, "token", position)])
            batches.append(token_step(each, label, prefix, position, draw, noise)[0])
        (prompt, vocab, block), (n_prompt, n_vocab, n_block) = run.provider.calls[-1], neighbour.provider.calls[-1]
        assert n_prompt == prompt
        assert n_vocab == vocab
        assert n_block[0].tobytes() == block[0].tobytes()
        assert batches[1].support == batches[0].support
        private_rows_differ += n_block[1:].tobytes() != block[1:].tobytes()
    assert private_rows_differ > 0  # the replaced record reaches the private rows


def output_bytes(run, directory) -> tuple[bytes, bytes]:
    """The demo and trace file bytes of one generate_shots run."""
    demos_path, traces_path = directory / "demos.jsonl", directory / "traces.jsonl"
    write_outputs(*generate_shots(run), demos_path, traces_path)
    return demos_path.read_bytes(), traces_path.read_bytes()


class TestOverlappedDemos:
    """generate_shots runs an HttpProvider's demos in one thread each."""

    def test_writes_the_bytes_of_a_serial_run(self, tmp_path):
        serial_run = http_run(tmp_path, PromptSession())
        serial_run.provider.waits_on_network = False
        serial = output_bytes(serial_run, tmp_path)
        assert serial_run.provider.session.threads == {threading.current_thread()}
        assert serial_run.provider.session.inflight_max == 1
        inflight = []
        for _ in range(5):
            run = http_run(tmp_path, PromptSession())
            assert output_bytes(run, tmp_path) == serial
            assert threading.current_thread() not in run.provider.session.threads
            inflight.append(run.provider.session.inflight_max)
        assert max(inflight) >= 2, inflight

    @pytest.mark.parametrize("failing", SHOT_LABELS)
    def test_a_refused_request_stops_every_other_demo(self, tmp_path, failing):
        session = PromptSession(fail_labels={failing}, delay_s=0.02)
        run = http_run(tmp_path, session, t_max=20, stop_tokens=())
        with pytest.raises(ProviderError, match="token position 0: HTTP 400"):
            generate_shots(run)
        assert session.log.count(failing) == 1
        after = Counter(session.log[session.log.index(("refused", failing)) + 1:])
        assert set(after) <= set(SHOT_LABELS) - {failing}
        assert max(after.values(), default=0) <= 1, after

    def test_ctrl_c_while_waiting_stops_every_demo(self, tmp_path):
        class InterruptingSession(PromptSession):
            """Ctrl-C at demo 0's first request, which ends demo 0 (the waiting
            thread wakes, and raises, when demo 0 is done)."""

            def tops(self, label, prompts, top_n):
                if label != first:
                    return super().tops(label, prompts, top_n)
                _thread.interrupt_main()
                return [{" end": 0.0}] * len(prompts)

        session = InterruptingSession(delay_s=0.02)
        run = http_run(tmp_path, session, t_max=20, stop_tokens=(" end",))
        first = generate_shots(dataclasses.replace(run, provider=SyntheticProvider(seed=0)))[0][0].label
        with pytest.raises(KeyboardInterrupt):
            generate_shots(run)
        counts = Counter(session.log)
        assert counts[first] == 1
        assert max(counts.values()) <= 3, counts  # each other demo would send 20 unless stopped

    def test_cap_warning_is_logged_once(self, tmp_path, caplog):
        session = PromptSession()
        run = http_run(tmp_path, session, k=6)
        run.provider.max_logprobs = 4
        with caplog.at_level("WARNING"):
            generate_shots(run)
        assert threading.current_thread() not in session.threads
        assert [r.getMessage() for r in caplog.records if "caps logprobs" in r.getMessage()] == [
            "endpoint caps logprobs at 4 (6 requested); unreturned tokens get zero mass"
        ]

    def test_cap_warning_stress(self, caplog):
        """Many fresh providers, each called by eight threads at once with a
        1 µs switch interval: every provider warns exactly once."""
        count, workers = 40, 8
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level("WARNING"):
                for _ in range(count):
                    provider = HttpProvider(base_url="http://api.test", model="m", max_logprobs=2,
                                            session=PromptSession(delay_s=0.0))
                    barrier = threading.Barrier(workers)

                    def call():
                        barrier.wait(timeout=10)
                        provider.next_token_distribution(["Label: x\nText:"], label="x", position=0, top_n=6)

                    threads = [threading.Thread(target=call) for _ in range(workers)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert sum("caps logprobs" in r.getMessage() for r in caplog.records) == count

    def test_overlapped_failure_through_main_exits_3(self, tmp_path, capsys, monkeypatch):
        session = PromptSession(fail_labels={"b"})
        monkeypatch.setattr(requests, "Session", lambda: session)
        demos = tmp_path / "d.jsonl"
        code = main([
            "generate", "--labels", "a,b,c", "--n-shots", "3", "--m", "2", "--t-max", "20", "--k", "2",
            "--sigma1", "1", "--provider", "http", "--base-url", "http://api.test", "--model", "m",
            "--demos-out", str(demos), "--traces-out", str(tmp_path / "t.jsonl"),
        ])
        assert code == EXIT_PROVIDER
        assert "provider error: token position 0: HTTP 400" in capsys.readouterr().err
        assert threading.current_thread() not in session.threads
        assert not demos.exists()


def test_demos_overlap_on_the_bench_endpoint(tmp_path):
    """Four demos through the fake endpoint of bench/endpoint.py: at least two
    requests in flight at once, and the bytes of a serial run."""
    run = http_run(tmp_path, None, k=20)
    endpoint = subprocess.Popen(
        [sys.executable, str(Path(__file__).parents[1] / "bench" / "endpoint.py"), "--seed", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        url = f"http://127.0.0.1:{int(endpoint.stdout.readline().removeprefix('PORT '))}"
        run.provider.base_url = url
        overlapped = output_bytes(run, tmp_path)
        with urllib.request.urlopen(url + "/stats", timeout=10) as reply:
            stats = json.loads(reply.read())
        run.provider.waits_on_network = False
        assert output_bytes(run, tmp_path) == overlapped
        assert stats["inflight_max"] >= 2, stats
    finally:
        run.provider.session.close()
        endpoint.terminate()
        endpoint.wait(timeout=10)
        endpoint.stdout.close()


@pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
def test_malformed_reply_through_main_exits_3(tmp_path, capsys, monkeypatch, case):
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


def test_nan_private_row_through_main_exits_3(tmp_path, capsys, monkeypatch):
    original = SyntheticProvider.next_token_distribution

    def broken(self, prompts, *, label, position, top_n):
        vocab, block = original(self, prompts, label=label, position=position, top_n=top_n)
        if position == 1:
            block[len(prompts) - 1, np.argmin(block[0])] = math.nan  # the last private row, outside the top K
        return vocab, block

    monkeypatch.setattr(SyntheticProvider, "next_token_distribution", broken)
    demos = tmp_path / "d.jsonl"
    code = main([
        "generate", "--labels", "a,b", "--n-shots", "1", "--m", "3", "--t-max", "3", "--k", "5",
        "--sigma1", "1", "--demos-out", str(demos), "--traces-out", str(tmp_path / "t.jsonl"),
    ])
    assert code == EXIT_PROVIDER
    assert capsys.readouterr().err == (
        "provider error: token position 1: a private row holds a NaN or infinite value\n"
    )
    assert not demos.exists()


class TestProviderSpec:
    def test_builds_synthetic(self):
        provider = ProviderSpec(kind="synthetic", seed=3, vocab_size=20).build()
        assert isinstance(provider, SyntheticProvider)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_range_is_refused_when_built(self, seed):
        message = re.escape(f"seed must lie in [0, 2**128), got {seed}")
        with pytest.raises(ValueError, match=message):
            ProviderSpec(kind="synthetic", seed=seed).build()
        with pytest.raises(ValueError, match=message):
            SyntheticProvider(seed=seed)

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
    """requests is imported only when an HttpProvider is built or posts, and
    concurrent.futures only when generate_shots overlaps demos."""
    env = dict(os.environ, PYTHONPATH=str(Path(dpfewshot.__file__).parents[1]))
    code = (
        "import sys, dpfewshot; print(sorted({'requests', 'concurrent.futures'} & set(sys.modules)))\n"
        "from dpfewshot.pipeline import RunConfig, generate_shots, resolve_run\n"
        "generate_shots(resolve_run(RunConfig(labels=('a', 'b'), n_shots=2, t_max=2, sigma1=1.0)))\n"
        "print('concurrent.futures' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split("\n")[:2] == ["[]", "False"]
