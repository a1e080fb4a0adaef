"""Tests for the schema parser: its value types and error wording, rows read
as the hand-written readers read them, and the exemplar log's slim schema."""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_reference
from entry_dicts import instance_dict
from instructsmith.corpus import _record_of
from instructsmith.decontam import BenchmarkItem, read_benchmark_file
from instructsmith.discriminator import DiscriminationReport, RuleVerdict
from instructsmith.emitter import TrainingExample, iter_dataset
from instructsmith.errors import ConfigError, ConsistencyError
from instructsmith.exemplar_db import ExemplarDB, ExemplarEntry
from instructsmith.generator import InstructionInstance
from instructsmith.schema import Id, parse
from test_exemplar_db import filled_db


@dataclass
class Row:
    key: Id
    text: str = ""


def test_fields_are_parsed_not_coerced():
    # moved from test_ioutil.py, where text_field and id_field read rows
    row = {"s": "x", "n": 7, "z": None, "t": True, "f": 1.0, "l": ["x"]}
    assert parse(str, row["s"], "s") == "x"
    assert parse(Row, {"key": "k"}).text == ""
    assert parse(Id, row["s"], "s") == "x" and parse(Id, row["n"], "n") == "7"
    for key in ("n", "z", "t", "f", "l"):
        with pytest.raises(ConfigError, match=f"^{key} must be a string, got"):
            parse(str, row[key], key)
    for key in ("z", "t", "f", "l"):
        with pytest.raises(ConfigError,
                           match=f"^{key} must be a string or an integer"):
            parse(Id, row[key], key)
    with pytest.raises(ConfigError, match="^missing required key 'key'"):
        parse(Row, {})


@pytest.mark.parametrize("value,kind", [
    (None, "null"), (True, "a boolean"), (3, "an integer"), (2.5, "a number"),
    ("x", "a string"), ([1], "an array"), ({}, "an object")])
def test_a_wrong_type_is_named_by_its_json_kind(value, kind):
    # a row value can be kilobytes of code: the message names its JSON kind
    for tp, expected, accepted in (
            (str, "a string", (str,)), (Id, "a string or an integer", (str, int)),
            (int, "an integer", (int,)), (float, "a number", (int, float)),
            (dict[str, int], "an object", (dict,)), (list[int], "a list", (list,))):
        if type(value) in accepted:
            continue
        with pytest.raises(ConfigError) as info:
            parse(tp, value, "rows.v")
        assert str(info.value) == f"rows.v must be {expected}, got {kind}"


def test_rows_ignore_unknown_keys_and_whole_files_refuse_them():
    item = {"bench_id": "HumanEval/0", "canonical_solution": "return 1",
            "prompt": "def f():", "test": "assert f() == 1", "entry_point": "f"}
    assert parse(BenchmarkItem, item, ignore_unknown=True) == BenchmarkItem(
        "HumanEval/0", "return 1")
    with pytest.raises(ConfigError, match="^unknown key 'prompt'"):
        parse(BenchmarkItem, item)


def test_instance_dict_round_trip(circle_instance):
    # moved from test_generator.py, where InstructionInstance.from_dict read it
    back = parse(InstructionInstance, instance_dict(circle_instance))
    assert back == circle_instance


def test_load_builds_rows_without_entries(tmp_path, monkeypatch):
    # moved from test_exemplar_db.py: a loaded line becomes its row directly:
    # no entry, no report, no verdict, and the instance the row is rendered
    # from is dropped.
    path = tmp_path / "x.jsonl"
    filled_db(ExemplarDB.load(path)).close()

    def unexpected(*args, **kwargs):
        raise AssertionError("load built an entry, a report or a verdict")

    monkeypatch.setattr(ExemplarEntry, "__init__", unexpected)
    monkeypatch.setattr(DiscriminationReport, "__init__", unexpected)
    monkeypatch.setattr(RuleVerdict, "__init__", unexpected)
    refs = []
    post_init = InstructionInstance.__post_init__

    def watched(instance):
        post_init(instance)
        refs.append(weakref.ref(instance))

    monkeypatch.setattr(InstructionInstance, "__post_init__", watched)
    loaded = ExemplarDB.load(path)
    loaded.close()
    gc.collect()
    assert len(refs) == len(loaded) == 6
    assert [r() for r in refs] == [None] * 6
    monkeypatch.undo()
    assert loaded.entries() == filled_db().entries()


# -- rows read as the hand-written readers read them ---------------------------

VALUES = (st.text(max_size=8) | st.sampled_from(["", "  ", "def f(): pass"])
          | st.integers(-10**30, 10**30) | st.none() | st.booleans()
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.lists(st.integers(), max_size=2)
          | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
TEXT = st.text(max_size=8) | st.sampled_from(["", " ", "x = 1", "Write it."])
ID = TEXT | st.integers(-10**30, 10**30)
EXTRA = {key: VALUES for key in ("prompt", "test", "entry_point", "source", "")}
ABSENT = object()


def rows(fields: dict[str, st.SearchStrategy]) -> st.SearchStrategy:
    """JSON objects with a value of its strategy for each key of ``fields``,
    but now and then any JSON value or none at all, plus some keys no row
    class names; and now and then a value that is no object."""
    def field(valid):
        return st.sampled_from(["valid"] * 8 + ["any", "absent"]).flatmap(
            lambda pick: {"valid": valid, "any": VALUES,
                          "absent": st.just(ABSENT)}[pick])

    objects = st.builds(
        lambda known, extra: {**extra, **{k: v for k, v in known.items()
                                          if v is not ABSENT}},
        st.fixed_dictionaries({key: field(s) for key, s in fields.items()}),
        st.fixed_dictionaries({}, optional=EXTRA))
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda is_object: objects if is_object else VALUES)


def outcome(read, row):
    try:
        return read(row)
    except (ConfigError, KeyError, TypeError, ValueError):
        return "refused"


@settings(max_examples=400, deadline=None)
@given(row=rows({"id": ID, "code": TEXT, "comment": TEXT, "language": TEXT,
                 "repo": TEXT, "path": TEXT, "license": TEXT}))
def test_corpus_records_read_as_before(row):
    line = json.dumps(row, ensure_ascii=False).encode("utf-8")
    assert outcome(_record_of, line) == outcome(row_reference.corpus_record,
                                                line)


@settings(max_examples=400, deadline=None)
@given(row=rows({"instruction": TEXT, "input": TEXT, "output": TEXT,
                 "_task": st.sampled_from(["CodeRepair", "CodeGeneration",
                                           "CodeGolf"]),
                 "_source_id": ID}))
def test_dataset_rows_read_as_before(row):
    assert (outcome(lambda r: parse(TrainingExample, r, ignore_unknown=True),
                    row) == outcome(row_reference.dataset_row, row))


@settings(max_examples=400, deadline=None)
@given(row=rows({"bench_id": ID, "canonical_solution": TEXT,
                 "benchmark": TEXT}))
def test_bench_items_read_as_before(row):
    assert (outcome(lambda r: parse(BenchmarkItem, r, ignore_unknown=True),
                    row) == outcome(row_reference.bench_item, row))


def test_file_readers_read_rows_through_the_schema(tmp_path):
    dataset, bench = tmp_path / "dataset.jsonl", tmp_path / "bench.jsonl"
    dataset.write_text(json.dumps({
        "instruction": "Write it.", "output": "x = 1", "_task": "CodeRepair",
        "_source_id": 7, "score": 0.5}) + "\n" + json.dumps({
        "instruction": "Write it.", "output": "x = 1", "_task": None}) + "\n",
        encoding="utf-8")
    bench.write_text(json.dumps({"bench_id": 3, "canonical_solution": "y",
                                 "entry_point": "f"}) + "\n", encoding="utf-8")
    rows = iter_dataset(dataset)
    assert next(rows) == (1, TrainingExample("Write it.", "x = 1", "CodeRepair",
                                             source_record_id="7"))
    with pytest.raises(ConsistencyError) as info:
        next(rows)
    assert str(info.value) == (f"{dataset}:2: bad dataset row: _task must be "
                               f"a string, got null")
    assert read_benchmark_file(bench) == [BenchmarkItem("3", "y")]
    bench.write_text('{"bench_id": "b", "canonical_solution": 1}\n',
                     encoding="utf-8")
    with pytest.raises(ConfigError, match=(
            r":1: bad benchmark item: canonical_solution must be a string, "
            r"got an integer$")):
        read_benchmark_file(bench)
