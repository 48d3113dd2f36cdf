import json
import re

import numpy as np
import pytest

from dpfewshot.data import (
    DatasetError,
    Example,
    GENERIC_TEMPLATE,
    PromptTemplate,
    label_pools,
    load_dataset,
    partition_subsets,
    pool_sizes,
)

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

    def test_unknown_label_named(self, jsonl_file):
        with pytest.raises(DatasetError, match="Sports"):
            load_dataset(jsonl_file, label_set=["Business"])

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
        assert pool_sizes(pools) == {"b": 3, "a": 1}
