"""Fake OpenAI-compatible /v1/completions endpoint with deterministic logprobs.

    python3 bench/endpoint.py --seed 0

Listens on a free localhost port, prints ``PORT <n>`` as its first line and
serves until terminated.  A request takes at least BASE_S plus PER_PROMPT_S
for every prompt it carries, as a stand-in for model time; the endpoint's
own work counts toward it.  ``prompt`` may be a string or a list; a list
gets one choice per prompt, each with its ``index``.  The center of a
prompt's next-token distribution is derived from a hash of its query block
(the text after the last blank line), and its perturbation from a hash of
the whole prompt, so the answer is a pure function of (seed, prompt).

Concurrent connections are served by threads, at most the CPU count at a
time.  ``GET /stats`` returns the counters (requests, prompts, inflight_max,
busy_s, model_s, failures, retries; model_s is the injected latency alone, and
a retry is a body equal to the previous one) and
``POST /reset`` zeroes them; neither counts as a request.  The server exits
when its parent process does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

VOCAB = tuple(f" w{i:03d}" for i in range(150))
CENTER_SCALE = 3.0
SPREAD = 0.29
BASE_S = 0.004
PER_PROMPT_S = 0.0005


def _normal(seed: int, kind: str, text: str) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}/{kind}/{text}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big")).standard_normal(len(VOCAB))


def top_logprobs(seed: int, prompt: str, top_n: int) -> dict[str, float]:
    """The top_n next-token log-probabilities for one prompt."""
    query = prompt.rsplit("\n\n", 1)[-1]
    logits = CENTER_SCALE * _normal(seed, "center", query) + SPREAD * _normal(seed, "prompt", prompt)
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    order = np.argsort(-logp, kind="stable")[: max(1, min(top_n, len(VOCAB)))]
    return {VOCAB[i]: float(logp[i]) for i in order}


def completion(seed: int, payload: dict) -> dict:
    """The /v1/completions response body for one request payload."""
    prompts = payload["prompt"]
    if isinstance(prompts, str):
        prompts = [prompts]
    if not isinstance(prompts, list) or not prompts or not all(isinstance(p, str) for p in prompts):
        raise ValueError("prompt must be a string or a non-empty list of strings")
    top_n = int(payload.get("logprobs") or 1)
    choices = []
    for index, prompt in enumerate(prompts):
        top = top_logprobs(seed, prompt, top_n)
        token, logprob = next(iter(top.items()))
        choices.append({
            "index": index,
            "text": token,
            "logprobs": {
                "tokens": [token],
                "token_logprobs": [logprob],
                "top_logprobs": [top],
                "text_offset": [0],
            },
            "finish_reason": "length",
        })
    return {
        "object": "text_completion",
        "model": payload.get("model", ""),
        "choices": choices,
    }


class Counters:
    """Request counters shared by the handler threads."""

    def __init__(self, workers: int):
        self.lock = threading.Lock()
        self.slots = threading.BoundedSemaphore(workers)
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.prompts = 0
            self.inflight = 0
            self.inflight_max = 0
            self.busy_s = 0.0
            self.model_s = 0.0
            self.failures = 0
            self.retries = 0
            self.last_body = b""

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "prompts": self.prompts,
                "inflight_max": self.inflight_max,
                "busy_s": self.busy_s,
                "model_s": self.model_s,
                "failures": self.failures,
                "retries": self.retries,
            }


def make_handler(seed: int, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this, a small response waits on the client's delayed ACK
        # (about 40 ms per request) and the benchmark would time that timer.
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, counters.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            if self.path == "/reset":
                counters.reset()
                self._send(200, {})
                return
            if self.path != "/v1/completions":
                self._send(404, {"error": "not found"})
                return
            with counters.lock:
                counters.requests += 1
                counters.retries += body == counters.last_body
                counters.last_body = body
                counters.inflight += 1
                counters.inflight_max = max(counters.inflight_max, counters.inflight)
            try:
                with counters.slots:
                    start = time.perf_counter()
                    try:
                        payload = json.loads(body)
                        response = completion(seed, payload)
                    except (ValueError, KeyError, TypeError) as err:
                        with counters.lock:
                            counters.failures += 1
                        self._send(400, {"error": str(err)})
                        return
                    n_prompts = len(response["choices"])
                    model_s = BASE_S + PER_PROMPT_S * n_prompts
                    time.sleep(max(0.0, model_s - (time.perf_counter() - start)))
                    self._send(200, response)
                    with counters.lock:
                        counters.prompts += n_prompts
                        counters.busy_s += time.perf_counter() - start
                        counters.model_s += model_s
            finally:
                with counters.lock:
                    counters.inflight -= 1

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    counters = Counters(os.cpu_count() or 1)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(args.seed, counters))
    server.daemon_threads = True
    parent = os.getppid()

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(0.5)
        server.shutdown()

    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
