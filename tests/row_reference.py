"""Reference row readers: the hand-written readers of corpus records,
dataset rows and benchmark items that `instructsmith.schema` replaced.

Each field is read with ``text_field`` (a JSON string) or ``id_field`` (a
JSON string, or a JSON integer in decimal); a missing key gives its default
or a KeyError, any other value a TypeError, and keys the row does not name
are ignored. The differential tests in `test_schema.py` require the schema
reader to accept exactly the rows these accept, with equal values.
"""

from __future__ import annotations

from typing import Any

from instructsmith.corpus import RawCodeRecord
from instructsmith.decontam import BenchmarkItem
from instructsmith.emitter import TrainingExample
from instructsmith.ioutil import parse_json

_OPTIONAL_FIELDS = ("comment", "language", "repo", "path", "license")


def _kind(value: Any) -> str:
    return {type(None): "null", bool: "a boolean", int: "an integer",
            float: "a number", list: "an array", dict: "an object"
            }.get(type(value), type(value).__name__)


def text_field(row: dict, key: str, default: str | None = None) -> str:
    value = row[key] if default is None else row.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {_kind(value)}")
    return value


def id_field(row: dict, key: str, default: str | None = None) -> str:
    value = row[key] if default is None else row.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if not isinstance(value, str):
        raise TypeError(
            f"{key} must be a string or an integer, got {_kind(value)}")
    return value


def corpus_record(raw: bytes) -> RawCodeRecord | None:
    """The record on one corpus line, or None if the line is blank; a line
    that holds no record raises ValueError or TypeError."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    if not line:
        return None
    obj = parse_json(line)
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    try:
        record = RawCodeRecord(
            id=id_field(obj, "id"), code=text_field(obj, "code"),
            **{key: text_field(obj, key, "") for key in _OPTIONAL_FIELDS})
    except KeyError as exc:
        raise ValueError(f"missing {exc.args[0]}") from None
    missing = [k for k in ("id", "code") if not getattr(record, k).strip()]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return record


def dataset_row(d: dict) -> TrainingExample:
    return TrainingExample(
        instruction=text_field(d, "instruction"),
        input=text_field(d, "input", ""), output=text_field(d, "output"),
        task_kind=text_field(d, "_task"),
        source_record_id=id_field(d, "_source_id", ""))


def bench_item(d: dict) -> BenchmarkItem:
    return BenchmarkItem(
        bench_id=id_field(d, "bench_id"),
        canonical_solution=text_field(d, "canonical_solution"),
        benchmark_name=text_field(d, "benchmark", ""))
