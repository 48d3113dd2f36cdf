"""Seeded benchmark inputs: a labelled corpus, its template, the calibration rows.

Everything here is a pure function of the benchmark seed; the program under
test only ever sees the files and values produced here.
"""

from __future__ import annotations

import hashlib

import numpy as np

AGNEWS_LABELS = ("World", "Sports", "Business", "Technology")

AGNEWS_TEMPLATE = """[instruction]
Given a label of news type, generate the chosen type of news accordingly.
[example]
News Type: {label}
Text: {text}
[query]
News Type: {label}
Text:{generated}
"""

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe",
              "qui", "ro", "sa", "te", "vi", "wo", "xu", "ya", "ze", "ar", "en", "is")

#: Published per-task calibration settings (task, target epsilon, sigma0,
#: sigma2, sigma1, t_hat, m, n, t_max, train size, class count or None for
#: open label spaces), the same table the package's acceptance test checks.
REFERENCE_ROWS = (
    ("AGNews", 1, 10.0, 3.0, 1.23, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 2, 10.0, 3.0, 0.92, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 4, 10.0, 3.0, 0.71, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 8, 10.0, 3.0, 0.58, 1, 10, 2, 100, 120000, 4),
    ("DBPedia", 1, 10.0, 3.0, 1.54, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 2, 10.0, 3.0, 1.14, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 4, 10.0, 3.0, 0.89, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 8, 10.0, 3.0, 0.73, 1, 10, 2, 100, 49999, 14),
    ("TREC", 1, 17.5, 6.0, 2.52, 1, 20, 2, 15, 5452, 6),
    ("TREC", 2, 15.0, 5.0, 1.95, 1, 20, 2, 15, 5452, 6),
    ("TREC", 4, 10.0, 5.0, 1.15, 1, 20, 2, 15, 5452, 6),
    ("TREC", 8, 15.0, 5.0, 1.09, 2, 20, 2, 15, 5452, 6),
    ("MIT-G", 1, 15.0, 6.0, 1.59, 1, 40, 1, 20, 2953, None),
    ("MIT-G", 2, 10.0, 6.0, 1.17, 1, 40, 1, 20, 2953, None),
    ("MIT-G", 4, 10.0, 6.0, 1.12, 2, 40, 1, 20, 2953, None),
    ("MIT-G", 8, 10.0, 5.0, 0.90, 2, 40, 1, 20, 2953, None),
    ("MIT-D", 1, 17.5, 6.0, 2.57, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 2, 17.5, 6.0, 1.49, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 4, 15.0, 6.0, 1.07, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 8, 15.0, 5.0, 0.83, 1, 40, 1, 20, 1561, None),
)

#: Calibration targets are the published epsilon times exp(u), u uniform in
#: +-TARGET_SPREAD: every target stays well above each row's noise floor.
TARGET_SPREAD = 0.3


def derive(*parts) -> int:
    """A 63-bit seed that is a pure function of ``parts``."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def calibration_target(seed: int, command: int, row_index: int) -> float:
    """The epsilon target of one (row, command) pair; no pair repeats."""
    u = np.random.default_rng(derive("calibrate", seed, command, row_index)).uniform(
        -TARGET_SPREAD, TARGET_SPREAD
    )
    return float(REFERENCE_ROWS[row_index][1] * np.exp(u))


def write_corpus(path, seed: int, rows: int, labels=AGNEWS_LABELS) -> None:
    """A label-balanced JSONL corpus of pseudo-word texts, 15 to 40 words each."""
    rng = np.random.default_rng(derive("corpus", seed))
    lexicon = [
        "".join(_SYLLABLES[i] for i in rng.integers(len(_SYLLABLES), size=int(n)))
        for n in rng.integers(1, 4, size=3000)
    ]
    label_of = rng.permutation(np.arange(rows) % len(labels))
    lengths = rng.integers(15, 41, size=rows)
    words = rng.integers(len(lexicon), size=int(lengths.sum()))
    ends = np.cumsum(lengths)
    with open(path, "w", encoding="utf-8") as fh:
        start = 0
        for row in range(rows):
            end = int(ends[row])
            text = " ".join([lexicon[w] for w in words[start:end].tolist()])
            fh.write(f'{{"text": "{text}", "label": "{labels[label_of[row]]}"}}\n')
            start = end


def write_template(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(AGNEWS_TEMPLATE)
