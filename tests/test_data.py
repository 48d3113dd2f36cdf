import copy
import dataclasses
import json
import pickle
import re

import numpy as np
import pytest

from dpfewshot import data
from dpfewshot.data import (
    DatasetError,
    Example,
    GENERIC_TEMPLATE,
    PromptTemplate,
    label_pools,
    load_dataset,
    partition_subsets,
)
from dpfewshot.pipeline import RunConfig, load_population

NEWS_TEMPLATE = PromptTemplate(
    instruction="Given a label of news type, generate the chosen type of news accordingly.",
    example_format="News Type: {label}\nText: {text}",
    query_format="News Type: {label}\nText:{generated}",
)


@pytest.fixture
def jsonl_file(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"text": "stocks rallied", "label": "Business"},
        {"text": "team won the cup", "label": "Sports"},
        {"text": "rates were cut", "label": "Business"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_jsonl_records_and_labels(self, jsonl_file):
        examples = load_dataset(jsonl_file)
        assert len(examples) == 3
        assert {ex.label for ex in examples} == {"Business", "Sports"}

    def test_missing_label_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n{"text": "no label"}\n')
        with pytest.raises(DatasetError, match=":2"):
            load_dataset(path)

    @pytest.mark.parametrize("record", [
        {"text": None, "label": "a"},
        {"text": "ok", "label": None},
        {"text": "ok", "label": ["a"]},
        {"text": {"body": "ok"}, "label": "a"},
    ])
    def test_null_list_or_object_value_refused_with_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n' + json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:2: text and label must not be null"):
            load_dataset(path)

    @pytest.mark.parametrize("record", [{"text": "ok", "label": True}, {"text": False, "label": "a"}])
    def test_boolean_value_refused_with_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n' + json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match=r"bad\.jsonl:2: text and label must not be null, booleans"):
            load_dataset(path)

    @pytest.mark.parametrize("name, content", [
        ("data.csv", "text,label\nhello,\n"),
        ("data.jsonl", '{"text": "ok", "label": "a"}\n{"text": "hello", "label": ""}\n'),
    ])
    def test_empty_label_refused_with_line(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(DatasetError, match=re.escape(f"{name}:2: example label must be non-empty")):
            load_dataset(path)

    def test_example_refuses_empty_label(self):
        with pytest.raises(DatasetError, match="example label must be non-empty"):
            Example("text", "")

    @pytest.mark.parametrize("name, content", [
        ("data.csv", "text,label\nplain,y\n"),
        ("data.jsonl", '{"text": "plain", "label": "y"}\n'),
    ])
    def test_byte_order_mark_accepted(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text("\ufeff" + content, encoding="utf-8")
        assert load_dataset(path) == [Example("plain", "y")]

    def test_numbers_still_read_as_text(self, tmp_path):
        path = tmp_path / "numbers.jsonl"
        path.write_text('{"text": 12.5, "label": 3}\n')
        assert load_dataset(path) == [Example("12.5", "3")]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\nnot json\n')
        with pytest.raises(DatasetError, match=":2"):
            load_dataset(path)

    @pytest.mark.parametrize("pad", ["", " "], ids=["decoder_first", "json_loads_only"])
    @pytest.mark.parametrize("line, message", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"text": 1' + "0" * 5000 + ', "label": "a"}', "Exceeds the limit (4300 digits)"),
    ], ids=["unclosed-nesting", "closed-nesting", "too-many-digits"])
    def test_undecodable_line_refused_with_line(self, tmp_path, pad, line, message):
        # a leading space sends the line straight to json.loads; without it the
        # single decoder fails first and json.loads must fail the same way
        path = tmp_path / "deep.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n' + pad + line + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}:2: invalid JSON: ")
        assert message in str(err.value)

    def test_unknown_label_named(self, jsonl_file):
        with pytest.raises(DatasetError, match="Sports"):
            load_dataset(jsonl_file, label_set=["Business"])

    @pytest.mark.parametrize("name, content, line", [
        ("data.jsonl", '{"text": "a", "label": "Business"}\n\n{"text": "b", "label": "Sports"}\n', 3),
        ("data.csv", 'text,label\na,Business\n"two\nlines",Business\nb,Sports\n', 5),
    ])
    def test_unknown_label_names_path_and_line(self, tmp_path, name, content, line):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(DatasetError, match=re.escape(f"{path}:{line}: unknown label 'Sports'")):
            load_dataset(path, label_set=["Business"])
        assert load_dataset(path, label_set=["Business", "Sports"])[-1].label == "Sports"

    def test_first_bad_record_in_file_order_wins(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "a", "label": "Sports"}\nnot json\n')
        with pytest.raises(DatasetError, match=re.escape(f"{path}:1: unknown label 'Sports'")):
            load_dataset(path, label_set=["Business"])

    @pytest.mark.parametrize("content, line", [
        ("text,label\n\nhello,\n", 3),
        ('text,label\n"two\nlines",a\nhello,\n', 4),
    ])
    def test_csv_refusal_names_the_line_the_record_ends_on(self, tmp_path, content, line):
        path = tmp_path / "data.csv"
        path.write_text(content)
        with pytest.raises(DatasetError, match=re.escape(f"{path}:{line}: example label must be non-empty")):
            load_dataset(path)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,label\n"a, with comma",x\nplain,y\n')
        examples = load_dataset(path)
        assert examples == [Example("a, with comma", "x"), Example("plain", "y")]

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,category\nfoo,bar\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "data.parquet"
        path.write_text("x")
        with pytest.raises(DatasetError, match="format"):
            load_dataset(path)


def reference_load_jsonl(path) -> list[Example]:
    """The loader without the single-decode fast path: json.loads on every
    line that is not blank, and a line it cannot decode (invalid, nested
    too deep, or a number with too many digits) refused as invalid JSON.
    The oracle the fast path must equal."""
    examples = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as err:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {err}") from err
            if not isinstance(record, dict) or "text" not in record or "label" not in record:
                raise DatasetError(f'{path}:{lineno}: record needs "text" and "label" fields')
            text, label = record["text"], record["label"]
            if type(text) not in (str, int, float) or type(label) not in (str, int, float):
                raise DatasetError(f"{path}:{lineno}: text and label must not be null, booleans, lists or objects")
            try:
                examples.append(Example(text=str(text), label=str(label)))
            except DatasetError as err:
                raise DatasetError(f"{path}:{lineno}: {err}") from err
    return examples


#: Lines that load.  Each fuzzed file is mostly these, so later lines are reached.
GOOD_LINES = [
    '{"text": "stocks rallied", "label": "Business"}',
    '{"text":"team won","label":"Sports"}',
    '{"label": "Business", "text": "rates were cut", "extra": [1, {"x": null}]}',
    '{"text": 12.5, "label": 3}',
    '{"text": NaN, "label": "x"}',
    '{"text": -Infinity, "label": 1e400}',
    '{"text": 1' + "0" * 5000 + '.5, "label": "huge float"}',
    '{"text": "caf\\u00e9 \\"q\\" \\ud800", "label": "\\u2028"}',
    '{"text": "raw \u2028 line \u2029 separators \x85 \xa0", "label": "x"}',
    '{"text": "a", "label": "", "label": "dup"}',
    '{"text": "a", "label": "dup", "text": "last wins"}',
    '{"text": "a", "label": "x"}\t',
    '{"text": "a", "label": "x"} ',
    '  {"text": "padded", "label": "x"}',
    '\t{"text": "tabbed", "label": "x"}',
]

#: Lines that are blank, refused, or not one value per line.
ADVERSARIAL_LINES = [
    "", " ", "\t", "\x0b", "\x0c", "\xa0", " \x0c\xa0\x0b ",
    "\ufeff",
    '\ufeff{"text": "mid-file mark", "label": "x"}',
    '{"text": "split", ',
    '"label": "across lines"}',
    '{"text": "a", "label": "x"} {"text": "b", "label": "y"}',
    '{"text": "a", "label": "x"}{"text": "b", "label": "y"}',
    '{"text": "a", "label": "x"} trailing',
    '{"text": "a", "label": "x"},',
    '{"text": "a", "label": "x"}\x0c',
    '{"text": "a", "label": "x"}\xa0',
    "not json",
    "{'text': 'a', 'label': 'x'}",
    '{"text": "a", "label": x}',
    '{"text": "raw\ttab", "label": "x"}',
    '{"text": 1' + "0" * 5000 + ', "label": "too many digits"}',
    "[" * 50_000,
    "[1, 2]", '"text"', "5", "null", "NaN",
    '{"text": "a"}',
    '{"text": true, "label": "x"}',
    '{"text": "a", "label": null}',
    '{"text": ["a"], "label": "x"}',
    '{"text": "", "label": "x"}',
    '{"text": "a", "label": ""}',
]


def fuzzed_file(rng: np.random.Generator) -> bytes:
    """A few lines, mostly loadable, joined by mixed line endings."""
    lines = []
    for _ in range(int(rng.integers(1, 9))):
        pool = GOOD_LINES if rng.random() < 0.75 else ADVERSARIAL_LINES
        lines.append(pool[int(rng.integers(len(pool)))])
    endings = [("\n", "\r\n", "\r")[int(i)] for i in rng.integers(3, size=len(lines))]
    if rng.random() < 0.3:
        endings[-1] = ""  # no newline after the last line
    text = "".join(line + end for line, end in zip(lines, endings))
    return (("\ufeff" if rng.random() < 0.2 else "") + text).encode("utf-8", "surrogatepass")


def outcome(load, path):
    try:
        return "loaded", load(path)
    except (ValueError, RecursionError) as err:
        return type(err), str(err)


class TestFastPathExactness:
    def test_fuzzed_files_load_as_the_reference_does(self, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        loaded = 0
        for seed in range(1000):
            path.write_bytes(fuzzed_file(np.random.default_rng(seed)))
            want = outcome(reference_load_jsonl, path)
            assert outcome(load_dataset, path) == want, (seed, path.read_bytes()[:300])
            loaded += want[0] == "loaded"
        assert 100 < loaded < 900  # both outcomes are exercised

    def test_every_line_alone_loads_as_the_reference_does(self, tmp_path):
        path = tmp_path / "line.jsonl"
        for line in GOOD_LINES + ADVERSARIAL_LINES:
            for end in ("\n", "\r\n", "\r", ""):
                path.write_bytes((line + end).encode("utf-8", "surrogatepass"))
                assert outcome(load_dataset, path) == outcome(reference_load_jsonl, path), repr(line + end)


class TestFastPathAndLayout:
    @pytest.fixture
    def loads_calls(self, monkeypatch):
        calls = []
        real = data.json.loads

        def counting(s, **kwargs):
            calls.append(s)
            return real(s, **kwargs)

        monkeypatch.setattr(data.json, "loads", counting)
        return calls

    def test_canonical_lines_skip_json_loads(self, tmp_path, loads_calls):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps({"text": f"row {i}", "label": "ab"[i % 2]}) + "\n" for i in range(1000)))
        assert len(load_dataset(path)) == 1000
        assert loads_calls == []

    def test_padded_line_takes_json_loads_and_blank_line_is_skipped(self, tmp_path, loads_calls):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n {"text": "b", "label": "x"}\n')
        assert load_dataset(path) == [Example("a", "x"), Example("b", "x")]
        assert loads_calls == [' {"text": "b", "label": "x"}\n']
        path.write_text('{"text": "a", "label": "x"}\n \x0c\n{"text": "b", "label": "x"}')
        assert len(load_dataset(path)) == 2
        assert len(loads_calls) == 1  # blank lines are skipped before json.loads, as before

    @pytest.mark.parametrize("name, content", [
        ("data.jsonl", '{"text": "a", "label": "x"}\n{"text": "b", "label": "y"}\n{"text": "c", "label": "x"}\n'),
        ("data.csv", "text,label\na,x\nb,y\nc,x\n"),
    ])
    def test_slotted_examples_share_label_strings(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content)
        first, _, third = load_dataset(path)
        assert not hasattr(first, "__dict__")
        assert first.label is third.label

    def test_example_pickles_and_copies(self):
        ex = Example("some text", "label")
        copies = [pickle.loads(pickle.dumps(ex, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.deepcopy(ex), copy.copy(ex)]:
            assert other == ex and type(other) is Example
            with pytest.raises(dataclasses.FrozenInstanceError):
                other.label = "changed"


class TestPromptTemplate:
    def test_public_prompt_is_instruction_plus_query(self):
        prompt = NEWS_TEMPLATE.render([], "World")
        assert prompt == (
            "Given a label of news type, generate the chosen type of news accordingly."
            "\n\nNews Type: World\nText:"
        )

    def test_one_example_label_first(self):
        subset = [Example("Australia boosts anti-terror measures", "World")]
        prompt = NEWS_TEMPLATE.render(subset, "World")
        assert prompt == (
            "Given a label of news type, generate the chosen type of news accordingly."
            "\n\nNews Type: World\nText: Australia boosts anti-terror measures"
            "\n\nNews Type: World\nText:"
        )

    def test_prefix_ends_prompt_verbatim(self):
        prompt = NEWS_TEMPLATE.render([], "World", generated=" New York")
        assert prompt.endswith("Text: New York")

    def test_from_file(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_text(
            "[instruction]\nDo the thing.\n"
            "[example]\nLabel: {label}\nText: {text}\n"
            "[query]\nLabel: {label}\nText:{generated}\n"
        )
        template = PromptTemplate.from_file(path)
        assert template.instruction == "Do the thing."
        assert "{generated}" in template.query_format

    def test_from_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_text("\ufeff[instruction]\nDo it.\n[example]\n{label} {text}\n[query]\n{generated}\n", encoding="utf-8")
        assert PromptTemplate.from_file(path) == PromptTemplate("Do it.", "{label} {text}", "{generated}")

    def test_from_file_missing_section(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_text("[instruction]\nx\n[example]\nLabel: {label} {text}\n")
        with pytest.raises(ValueError, match="query"):
            PromptTemplate.from_file(path)

    def test_placeholders_required(self):
        with pytest.raises(ValueError, match=re.escape("[example] section does not render (needs {label} and {text})")):
            PromptTemplate("i", "no placeholders", "q {generated}")
        with pytest.raises(ValueError, match=re.escape("[query] section does not render (needs {generated})")):
            PromptTemplate("i", "{label} {text}", "no placeholder")

    @pytest.mark.parametrize("example, query, section", [
        ("{label} {text} from {source}", "{generated}", "[example]"),
        ('{"label": "{label}", "text": "{text}"}', "{generated}", "[example]"),
        ("{label} {text}", "{label} {text}{generated}", "[query]"),
        ("{label} {text}", "{generated} }", "[query]"),
        ("{{label}} {{text}}", "{generated}", "[example]"),
        ("{label} {text}", "Text:{{generated}}", "[query]"),
        ("{label.upper} {text}", "{generated}", "[example]"),
        ("{label} {text.upper:>3}", "{generated}", "[example]"),
        ("{label!r} {text}", "{generated}", "[example]"),
        ("{label} {text}", "{label[0]}{generated}", "[query]"),
    ])
    def test_unrenderable_section_refused_by_name(self, example, query, section):
        with pytest.raises(ValueError, match=re.escape(f"template {section} section does not render")):
            PromptTemplate("i", example, query)

    def test_escaped_braces_render_literally(self):
        template = PromptTemplate("i", '{{"label": "{label}", "text": "{text}"}}', "{{{generated}")
        assert template.render([Example("t", "l")], "l", "g") == 'i\n\n{"label": "l", "text": "t"}\n\n{g'

    def test_generic_template_renders(self):
        prompt = GENERIC_TEMPLATE.render([Example("body", "tag")], "tag", " x")
        assert "Label: tag\nText: body" in prompt
        assert prompt.endswith("Text: x")


class TestPartitionSubsets:
    def pool(self, label, count):
        return [Example(f"item {i}", label) for i in range(count)]

    def test_single_subset_is_permutation(self):
        data = self.pool("a", 6)
        subsets = partition_subsets(data, "a", 1, 6, np.random.default_rng(0))
        assert len(subsets) == 1
        assert sorted(ex.text for ex in subsets[0]) == sorted(ex.text for ex in data)

    def test_disjoint_singletons(self):
        data = self.pool("a", 4)
        subsets = partition_subsets(data, "a", 2, 1, np.random.default_rng(0))
        assert len(subsets) == 2
        assert subsets[0][0] != subsets[1][0]

    def test_insufficient_reports_available(self):
        data = self.pool("a", 3) + self.pool("b", 10)
        for source in (data, label_pools(data)):
            with pytest.raises(DatasetError, match="3 examples"):
                partition_subsets(source, "a", 2, 2, np.random.default_rng(0))
            with pytest.raises(DatasetError, match="label 'c' has 0 examples"):
                partition_subsets(source, "c", 1, 1, np.random.default_rng(0))

    def test_disjoint_union_sizes(self):
        data = self.pool("a", 30)
        for seed in range(10):
            subsets = partition_subsets(data, "a", 4, 3, np.random.default_rng(seed))
            drawn = [ex.text for subset in subsets for ex in subset]
            assert len(drawn) == 12
            assert len(set(drawn)) == 12

    def test_seeded_determinism(self):
        data = self.pool("a", 20)
        one = partition_subsets(data, "a", 3, 2, np.random.default_rng(9))
        two = partition_subsets(data, "a", 3, 2, np.random.default_rng(9))
        assert one == two

    def test_pool_draw_equals_filtered_list_draw(self):
        shuffle = np.random.default_rng(4)
        data = [Example(f"row {i}", str(label)) for i, label in enumerate(shuffle.integers(0, 3, 300))]
        pools = label_pools(data)
        for seed in range(20):
            label, m, n = str(seed % 3), 1 + seed % 5, 1 + seed % 3
            candidates = [ex for ex in data if ex.label == label]
            chosen = np.random.default_rng(seed).choice(len(candidates), size=m * n, replace=False)
            want = [[candidates[i] for i in chosen[j * n : (j + 1) * n]] for j in range(m)]
            assert partition_subsets(pools, label, m, n, np.random.default_rng(seed)) == want
            assert partition_subsets(data, label, m, n, np.random.default_rng(seed)) == want

    def test_pools_keep_file_order_and_sizes(self):
        data = [Example("1", "b"), Example("2", "a"), Example("3", "b"), Example("4", "b")]
        pools = label_pools(data)
        assert pools == {"b": (data[0], data[2], data[3]), "a": (data[1],)}


class TestLoadPopulation:
    ROWS = [("stocks rallied", "Business"), ("team won the cup", "Sports"), ("rates were cut", "Business"),
            ("polls closed", "World"), ("a late goal", "Sports"), ("bonds fell", "Business")]

    def write(self, tmp_path, fmt):
        path = tmp_path / f"data.{fmt}"
        if fmt == "jsonl":
            path.write_text("".join(json.dumps({"text": t, "label": l}) + "\n" for t, l in self.ROWS))
        else:
            path.write_text("text,label\n" + "".join(f"{t},{l}\n" for t, l in self.ROWS))
        return path

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("labels", [(), ("World", "Sports", "Business", "Weather")])
    def test_rows_are_read_once_and_counted_once(self, tmp_path, fmt, labels):
        config = RunConfig(dataset_path=str(self.write(tmp_path, fmt)), labels=labels, sigma1=1.0)
        rows, pools, counts = load_population(config)
        assert rows == len(self.ROWS) == sum(counts.values())
        assert counts == {label: len(pool) for label, pool in pools.items()}
        assert counts == {"Business": 3, "Sports": 2, "World": 1}

    def test_no_dataset_file(self):
        assert load_population(RunConfig(labels=("a",), sigma1=1.0)) == (None, None, {})
