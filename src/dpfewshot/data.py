"""Dataset ingestion, prompt templates, and private subset partitioning."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """A dataset file or record could not be used as configured."""


@dataclass(frozen=True)
class Example:
    text: str
    label: str

    def __post_init__(self):
        if not self.text:
            raise DatasetError("example text must be non-empty")


def load_dataset(path, fmt: str | None = None, label_set=None) -> list[Example]:
    """Read examples from a JSONL or CSV file.

    JSONL lines are objects with "text" and "label" keys; CSV needs a
    text,label header.  Malformed records raise DatasetError with the line
    number; labels outside label_set (when given) raise naming the label.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("jsonl", "csv"):
        raise DatasetError(f"unsupported dataset format {fmt!r} (expected jsonl or csv)")
    examples = _load_jsonl(path) if fmt == "jsonl" else _load_csv(path)
    if label_set is not None:
        allowed = set(label_set)
        for i, ex in enumerate(examples, start=1):
            if ex.label not in allowed:
                raise DatasetError(f"record {i}: unknown label {ex.label!r}")
    return examples


def _load_jsonl(path: Path) -> list[Example]:
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {err}") from err
            if not isinstance(record, dict) or "text" not in record or "label" not in record:
                raise DatasetError(f'{path}:{lineno}: record needs "text" and "label" fields')
            try:
                examples.append(Example(text=str(record["text"]), label=str(record["label"])))
            except DatasetError as err:
                raise DatasetError(f"{path}:{lineno}: {err}") from err
    return examples


def _load_csv(path: Path) -> list[Example]:
    examples = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        if "text" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise DatasetError(f"{path}: header must contain text and label columns")
        for lineno, row in enumerate(reader, start=2):
            if row.get("text") is None or row.get("label") is None:
                raise DatasetError(f"{path}:{lineno}: missing text or label value")
            try:
                examples.append(Example(text=row["text"], label=row["label"]))
            except DatasetError as err:
                raise DatasetError(f"{path}:{lineno}: {err}") from err
    return examples


@dataclass(frozen=True)
class PromptTemplate:
    """Label-first prompt pieces: instruction, per-example block, query block.

    example_format uses {label} and {text}; query_format uses {label} and
    {generated}, the running synthetic prefix.
    """

    instruction: str
    example_format: str
    query_format: str

    def __post_init__(self):
        if "{text}" not in self.example_format or "{label}" not in self.example_format:
            raise ValueError("example_format must use {label} and {text}")
        if "{generated}" not in self.query_format:
            raise ValueError("query_format must use {generated}")

    def render(self, subset, label: str, generated: str = "") -> str:
        """Instruction, then the subset label-first, then the query ending in
        generated.  An empty subset yields the public (instruction-only) prompt.
        """
        parts = [self.instruction]
        parts.extend(self.example_format.format(label=ex.label, text=ex.text) for ex in subset)
        parts.append(self.query_format.format(label=label, generated=generated))
        return "\n\n".join(parts)

    @classmethod
    def from_file(cls, path) -> "PromptTemplate":
        """Parse a plain-text file with [instruction], [example], [query] sections."""
        sections: dict[str, list[str]] = {}
        current = None
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            name = line.strip().lower()
            if name in ("[instruction]", "[example]", "[query]"):
                current = name[1:-1]
                sections[current] = []
            elif current is not None:
                sections[current].append(line)
        missing = {"instruction", "example", "query"} - sections.keys()
        if missing:
            raise ValueError(f"{path}: missing template sections: {sorted(missing)}")
        text = {k: "\n".join(v).strip("\n") for k, v in sections.items()}
        return cls(text["instruction"], text["example"], text["query"])


GENERIC_TEMPLATE = PromptTemplate(
    instruction="Given a label, generate a matching text accordingly.",
    example_format="Label: {label}\nText: {text}",
    query_format="Label: {label}\nText:{generated}",
)


def partition_subsets(
    data, label: str, m: int, n: int, rng: np.random.Generator
) -> list[list[Example]]:
    """Draw m*n label-matching examples without replacement, in m blocks of n."""
    candidates = [ex for ex in data if ex.label == label]
    needed = m * n
    if len(candidates) < needed:
        raise DatasetError(
            f"label {label!r} has {len(candidates)} examples, need {needed} (m={m}, n={n})"
        )
    chosen = rng.choice(len(candidates), size=needed, replace=False)
    drawn = [candidates[i] for i in chosen]
    return [drawn[i * n : (i + 1) * n] for i in range(m)]
