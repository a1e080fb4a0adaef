"""Tests for atomic writes and line-delimited JSON helpers."""

import gc
import os
import stat
import tracemalloc

import pytest

from instructsmith.errors import ConsistencyError
from instructsmith.ioutil import (
    JsonlAppender,
    atomic_write_json,
    atomic_write_jsonl,
    atomic_write_text,
    iter_jsonl,
    read_json,
    repair_torn_tail,
)


def test_atomic_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in target.parent.iterdir() if p.name != "out.txt"]
    assert leftovers == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    # the same mode open() gives the append logs: 0666 less the umask
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "x")
        with JsonlAppender(tmp_path / "log.jsonl") as appender:
            appender.append({})
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "log.jsonl").stat().st_mode) == mode


def test_atomic_write_overwrites(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"


def test_json_round_trip(tmp_path):
    target = tmp_path / "obj.json"
    obj = {"k": 3, "items": ["a", "b"], "text": "café"}
    atomic_write_json(target, obj)
    assert read_json(target) == obj


def test_jsonl_round_trip_and_count(tmp_path):
    target = tmp_path / "rows.jsonl"
    rows = [{"i": i} for i in range(5)]
    assert atomic_write_jsonl(target, rows) == 5
    assert [obj for _, obj in iter_jsonl(target)] == rows


def test_jsonl_write_failing_midway_leaves_target_and_no_temp(tmp_path):
    target = tmp_path / "rows.jsonl"
    atomic_write_jsonl(target, [{"old": True}])
    before = target.read_bytes()

    def rows():
        for i in range(3):
            yield {"i": i}
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write_jsonl(target, rows())
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_jsonl_write_holds_one_row_at_a_time(tmp_path):
    # 2,000 rows of ~1 KiB: writing the whole file at once would hold it
    # several times over (about 6 MiB); streaming holds one line.
    rows = ({"i": i, "text": "x" * 1000} for i in range(2000))
    tracemalloc.start()
    try:
        atomic_write_jsonl(tmp_path / "rows.jsonl", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "rows.jsonl").stat().st_size > 2_000_000
    assert peak < 256 * 1024, f"peak {peak} B"


def test_iter_jsonl_abandoned_midway_closes_file(tmp_path):
    # A file left open would raise ResourceWarning when the generator is
    # dropped, which the suite turns into an error.
    target = tmp_path / "rows.jsonl"
    atomic_write_jsonl(target, ({"i": i} for i in range(100)))
    for lineno, _ in iter_jsonl(target):
        if lineno == 3:
            break
    rows = iter_jsonl(target)
    assert next(rows) == (1, {"i": 0})
    del rows
    gc.collect()


def test_iter_jsonl_line_numbers_skip_blanks(tmp_path):
    target = tmp_path / "rows.jsonl"
    target.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
    assert list(iter_jsonl(target)) == [(1, {"a": 1}), (3, {"b": 2})]


def test_iter_jsonl_torn_tail_tolerated(tmp_path):
    # a torn tail is not JSON; it is tolerated once repair drops it
    target = tmp_path / "rows.jsonl"
    target.write_text('{"a": 1}\n{"b": 2}\n{"c": ', encoding="utf-8")
    with pytest.raises(ConsistencyError, match=f"{target}:3"):
        list(iter_jsonl(target))
    repair_torn_tail(target)
    assert [obj for _, obj in iter_jsonl(target)] == [{"a": 1}, {"b": 2}]


def test_iter_jsonl_mid_file_corruption_always_raises(tmp_path):
    # a complete line that is not JSON raises wherever it is, last included
    target = tmp_path / "rows.jsonl"
    for text, lineno in (('{"a": 1}\n{bad\n{"b": 2}\n', 2),
                         ('{"a": 1}\n{bad\n', 2)):
        target.write_text(text, encoding="utf-8")
        assert repair_torn_tail(target) == 0
        with pytest.raises(ConsistencyError, match=f"{target}:{lineno}"):
            list(iter_jsonl(target))


def test_appender_flushes_each_line(tmp_path):
    target = tmp_path / "log.jsonl"
    with JsonlAppender(target) as out:
        out.append({"n": 1})
        # visible on disk before close: the appender flushes per line
        assert target.read_text() == '{"n": 1}\n'
        out.append({"n": 2})
    assert [obj for _, obj in iter_jsonl(target)] == [{"n": 1}, {"n": 2}]


def test_appender_appends_across_reopen(tmp_path):
    target = tmp_path / "log.jsonl"
    with JsonlAppender(target) as out:
        out.append({"n": 1})
    with JsonlAppender(target) as out:
        out.append({"n": 2})
    assert [obj for _, obj in iter_jsonl(target)] == [{"n": 1}, {"n": 2}]


def test_repair_drops_unterminated_tail(tmp_path):
    target = tmp_path / "log.jsonl"
    target.write_text('{"n": 1}\n{"n": 2}\n{"n": ', encoding="utf-8")
    assert repair_torn_tail(target) == len('{"n": ')
    assert target.read_text() == '{"n": 1}\n{"n": 2}\n'


def test_repair_drops_parseable_but_unterminated_tail(tmp_path):
    # A fragment that happens to be valid JSON is still torn: a completed
    # append always ends in a newline.
    target = tmp_path / "log.jsonl"
    target.write_text('{"n": 1}\n{"n": 2}', encoding="utf-8")
    assert repair_torn_tail(target) > 0
    assert target.read_text() == '{"n": 1}\n'


def test_repair_noop_on_clean_missing_and_empty_files(tmp_path):
    clean = tmp_path / "clean.jsonl"
    clean.write_text('{"n": 1}\n', encoding="utf-8")
    assert repair_torn_tail(clean) == 0
    assert clean.read_text() == '{"n": 1}\n'
    assert repair_torn_tail(tmp_path / "missing.jsonl") == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert repair_torn_tail(empty) == 0


def test_repair_handles_file_that_is_one_torn_line(tmp_path):
    target = tmp_path / "log.jsonl"
    target.write_text('{"n": 1', encoding="utf-8")
    assert repair_torn_tail(target) == 7
    assert target.read_text() == ""


def test_repair_walks_back_across_blocks(tmp_path):
    # Torn fragment longer than one scan block still truncates to the
    # last complete line.
    target = tmp_path / "log.jsonl"
    fragment = '{"blob": "' + "x" * (1 << 17)
    target.write_text('{"n": 1}\n' + fragment, encoding="utf-8")
    assert repair_torn_tail(target) == len(fragment)
    assert target.read_text() == '{"n": 1}\n'


def test_appender_repairs_before_appending(tmp_path):
    # Appending after a crash must not fuse the new line onto a torn
    # fragment; the whole file stays parseable end to end.
    target = tmp_path / "log.jsonl"
    with JsonlAppender(target) as out:
        out.append({"n": 1})
    with open(target, "a", encoding="utf-8") as fh:
        fh.write('{"n": 2')
    with JsonlAppender(target) as out:
        out.append({"n": 3})
    assert [obj for _, obj in iter_jsonl(target)] == [{"n": 1}, {"n": 3}]
