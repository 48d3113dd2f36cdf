import json

import numpy as np
import pytest

from dpfewshot.data import (
    DatasetError,
    Example,
    GENERIC_TEMPLATE,
    PromptTemplate,
    load_dataset,
    partition_subsets,
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

    def test_from_file_missing_section(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_text("[instruction]\nx\n[example]\nLabel: {label} {text}\n")
        with pytest.raises(ValueError, match="query"):
            PromptTemplate.from_file(path)

    def test_placeholders_required(self):
        with pytest.raises(ValueError):
            PromptTemplate("i", "no placeholders", "q {generated}")
        with pytest.raises(ValueError):
            PromptTemplate("i", "{label} {text}", "no placeholder")

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
        with pytest.raises(DatasetError, match="3 examples"):
            partition_subsets(data, "a", 2, 2, np.random.default_rng(0))

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
