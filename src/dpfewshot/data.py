"""Dataset ingestion, prompt templates, and private subset partitioning."""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from string import Formatter

import numpy as np


class DatasetError(ValueError):
    """A dataset file or record could not be used as configured."""


@dataclass(frozen=True, slots=True)
class Example:
    text: str
    label: str

    def __post_init__(self):
        if not self.text:
            raise DatasetError("example text must be non-empty")
        if not self.label:
            raise DatasetError("example label must be non-empty")


def load_dataset(path, fmt: str | None = None, label_set=None) -> list[Example]:
    """Read examples from a JSONL or CSV file.

    JSONL lines are objects with "text" and "label" keys whose values are
    strings or numbers; CSV needs a text,label header.  Both may start with
    a UTF-8 byte-order mark.  Malformed records, empty values, JSON
    booleans and labels outside label_set (when given) raise DatasetError
    naming path:line; the first bad record in file order is the one named.
    Equal labels share one string object.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("jsonl", "csv"):
        raise DatasetError(f"unsupported dataset format {fmt!r} (expected jsonl or csv)")
    allowed = None if label_set is None else frozenset(label_set)
    return (_load_jsonl if fmt == "jsonl" else _load_csv)(path, allowed)


def _example(text: str, label: str, labels: dict[str, str], allowed) -> Example:
    """A checked Example whose label is labels' one copy of it."""
    example = Example(text, labels.setdefault(label, label))
    if allowed is not None and label not in allowed:
        raise DatasetError(f"unknown label {label!r}")
    return example


_DECODER = json.JSONDecoder()


def _load_jsonl(path: Path, allowed) -> list[Example]:
    examples = []
    labels: dict[str, str] = {}
    decode = _DECODER.raw_decode
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            # A value that starts the line and ends at its newline is what
            # json.loads would return; any other line takes json.loads' path.
            try:
                record, end = decode(line)
                canonical = line[end:] in ("\n", "")
            except (ValueError, RecursionError):
                canonical = False
            if not canonical:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as err:  # also too deep, or too many digits
                    raise DatasetError(f"{path}:{lineno}: invalid JSON: {err}") from err
            if not isinstance(record, dict) or "text" not in record or "label" not in record:
                raise DatasetError(f'{path}:{lineno}: record needs "text" and "label" fields')
            text, label = record["text"], record["label"]
            # exact types, because bool is an int: true must not load as the label "True"
            if type(text) not in (str, int, float) or type(label) not in (str, int, float):
                raise DatasetError(f"{path}:{lineno}: text and label must not be null, booleans, lists or objects")
            try:
                examples.append(_example(str(text), str(label), labels, allowed))
            except DatasetError as err:
                raise DatasetError(f"{path}:{lineno}: {err}") from err
    return examples


def _load_csv(path: Path, allowed) -> list[Example]:
    examples = []
    labels: dict[str, str] = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        if "text" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise DatasetError(f"{path}: header must contain text and label columns")
        for row in reader:
            # the line the record ends on: blank lines and quoted newlines count
            lineno = reader.line_num
            if row.get("text") is None or row.get("label") is None:
                raise DatasetError(f"{path}:{lineno}: missing text or label value")
            try:
                examples.append(_example(row["text"], row["label"], labels, allowed))
            except DatasetError as err:
                raise DatasetError(f"{path}:{lineno}: {err}") from err
    return examples


def _placeholder_problem(fmt: str, required: set[str], allowed: set[str]) -> str | None:
    """Why fmt is not plain {name} fields over allowed that cover required, or None."""
    try:
        fields = [(name, spec, conv) for _, name, spec, conv in Formatter().parse(fmt) if name is not None]
    except ValueError as err:  # a lone { or }
        return str(err)
    for name, spec, conv in fields:
        if name not in allowed or spec or conv:
            field = name + (f"!{conv}" if conv else "") + (f":{spec}" if spec else "")
            return f"{{{field}}} is not allowed"
    missing = required - {name for name, _, _ in fields}
    if missing:
        return "needs " + " and ".join(f"{{{name}}}" for name in sorted(missing))
    return None


@dataclass(frozen=True)
class PromptTemplate:
    """Label-first prompt pieces: instruction, per-example block, query block.

    example_format uses {label} and {text}; query_format uses {generated},
    the running synthetic prefix, and may use {label}.  Literal braces are
    written {{ and }}.  Any other placeholder, conversion or format spec is
    refused here, before the first provider call.
    """

    instruction: str
    example_format: str
    query_format: str

    def __post_init__(self):
        for section, fmt, required, allowed in (
            ("example", self.example_format, {"label", "text"}, {"label", "text"}),
            ("query", self.query_format, {"generated"}, {"label", "generated"}),
        ):
            problem = _placeholder_problem(fmt, required, allowed)
            if problem:
                raise ValueError(
                    f"template [{section}] section does not render ({problem}); "
                    "write literal braces as {{ and }}"
                )

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
        for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
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


def label_pools(examples) -> dict[str, tuple[Example, ...]]:
    """Each label's examples in file order: the pool its subsets are drawn from."""
    grouped: dict[str, list[Example]] = defaultdict(list)
    for ex in examples:
        grouped[ex.label].append(ex)
    return {label: tuple(pool) for label, pool in grouped.items()}


def pool_sizes(pools) -> dict[str, int]:
    """Examples per label of label_pools' grouping: the counts the accountant reads."""
    return {label: len(pool) for label, pool in pools.items()}


def partition_subsets(
    data, label: str, m: int, n: int, rng: np.random.Generator
) -> list[list[Example]]:
    """Draw m*n examples of label (from label pools or a list) without replacement, in m blocks of n."""
    pool = (data if isinstance(data, dict) else label_pools(data)).get(label, ())
    needed = m * n
    if len(pool) < needed:
        raise DatasetError(
            f"label {label!r} has {len(pool)} examples, need {needed} (m={m}, n={n})"
        )
    chosen = rng.choice(len(pool), size=needed, replace=False)
    drawn = [pool[i] for i in chosen]
    return [drawn[i * n : (i + 1) * n] for i in range(m)]
