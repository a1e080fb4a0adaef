"""Tests for corpus ingestion, filtering, and language statistics."""

import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instructsmith.corpus import (
    FilterConfig,
    FilterReport,
    RawCodeRecord,
    _blacklist_pattern,
    apply_filters,
    default_blacklist,
    ingest_records,
    language_distribution,
    write_records,
)

LONG_CODE = "def f(x):\n    return x * 2  # doubles the input value\n" * 3


def make_record(i, code=LONG_CODE, language="Python", comment=""):
    return RawCodeRecord(id=f"r{i}", code=code, language=language, comment=comment)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_three_well_formed_lines(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        rows = [{"id": f"r{i}", "code": f"print({i})", "comment": "c",
                 "language": "Python"} for i in range(3)]
        write_lines(p, [json.dumps(r) for r in rows])
        records = ingest_records(p)
        assert [r.id for r in records] == ["r0", "r1", "r2"]
        assert records[1].code == "print(1)"

    def test_missing_code_is_skipped_and_logged(self, tmp_path, caplog):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, [
            json.dumps({"id": "a", "code": "x = 1"}),
            json.dumps({"id": "b", "comment": "no code here"}),
            json.dumps({"id": "c", "code": "y = 2"}),
        ])
        with caplog.at_level(logging.WARNING, logger="instructsmith.corpus"):
            records = ingest_records(p)
        assert [r.id for r in records] == ["a", "c"]
        assert any("skipped" in m and "code" in m for m in caplog.messages)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text("", encoding="utf-8")
        assert ingest_records(p) == []

    def test_invalid_json_line_skipped(self, tmp_path, caplog):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, [json.dumps({"id": "a", "code": "x"}), "{not json"])
        with caplog.at_level(logging.WARNING, logger="instructsmith.corpus"):
            records = ingest_records(p)
        assert len(records) == 1

    def test_duplicate_id_skipped(self, tmp_path, caplog):
        p = tmp_path / "corpus.jsonl"
        write_lines(p, [
            json.dumps({"id": "a", "code": "first"}),
            json.dumps({"id": "a", "code": "second"}),
        ])
        with caplog.at_level(logging.WARNING, logger="instructsmith.corpus"):
            records = ingest_records(p)
        assert len(records) == 1
        assert records[0].code == "first"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            ingest_records(tmp_path / "nope.jsonl")

    def test_write_then_ingest_round_trip(self, tmp_path):
        records = [
            RawCodeRecord(id="a", code="x = 1", comment="sets x",
                          language="Python", repo="org/repo", path="a.py",
                          license="mit"),
            RawCodeRecord(id="b", code="y = 2", language="Go"),
        ]
        p = tmp_path / "corpus.jsonl"
        assert write_records(records, p) == 2
        assert ingest_records(p) == records


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.min_code_chars == 80
        assert cfg.max_code_chars == 4096
        assert cfg.match_scope == "code_only"

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(min_code_chars=100, max_code_chars=100)
        with pytest.raises(ValueError):
            FilterConfig(min_code_chars=0, max_code_chars=10)

    def test_blacklist_must_be_lowercase(self):
        with pytest.raises(ValueError):
            FilterConfig(blacklist=["Image"])
        with pytest.raises(ValueError):
            FilterConfig(blacklist=[""])

    def test_blacklist_deduplicated_in_order(self):
        cfg = FilterConfig(blacklist=["image", "plot", "image"])
        assert cfg.blacklist == ["image", "plot"]

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(match_scope="everything")


class TestApplyFilters:
    def test_short_code_rejected(self):
        cfg = FilterConfig(min_code_chars=80, max_code_chars=4096)
        records = [make_record(0, code="x" * 50)]
        kept, report = apply_filters(records, cfg)
        assert kept == []
        assert report.rejected["too_short"] == 1

    def test_blacklisted_word_rejected(self):
        cfg = FilterConfig(min_code_chars=1, max_code_chars=4096,
                           blacklist=["image"])
        records = [make_record(0, code="load the image from disk please")]
        kept, report = apply_filters(records, cfg)
        assert kept == []
        assert report.rejected["blacklisted"] == 1

    def test_conservation_on_mixed_batch(self):
        cfg = FilterConfig(min_code_chars=10, max_code_chars=100,
                           blacklist=["image"])
        records = (
            [make_record(i, code="a" * 50) for i in range(7)]
            + [make_record(7, code="short")]
            + [make_record(8, code="b" * 200)]
            + [make_record(9, code="draw the image now please ok")]
        )
        kept, report = apply_filters(records, cfg)
        assert report.kept_count == 7
        assert len(kept) == 7
        assert report.input_count == 10
        assert report.kept_count + sum(report.rejected.values()) == 10

    def test_empty_checked_before_too_short(self):
        cfg = FilterConfig(min_code_chars=10, max_code_chars=100)
        kept, report = apply_filters([make_record(0, code="   \n  ")], cfg)
        assert report.rejected["empty"] == 1
        assert report.rejected["too_short"] == 0

    def test_too_short_checked_before_blacklisted(self):
        cfg = FilterConfig(min_code_chars=10, max_code_chars=100,
                           blacklist=["image"])
        kept, report = apply_filters([make_record(0, code="image")], cfg)
        assert report.rejected["too_short"] == 1
        assert report.rejected["blacklisted"] == 0

    def test_length_measured_after_trimming(self):
        cfg = FilterConfig(min_code_chars=5, max_code_chars=10)
        padded = "   " + "x" * 10 + "   "
        kept, _ = apply_filters([make_record(0, code=padded)], cfg)
        assert len(kept) == 1

    def test_whole_word_matching(self):
        cfg = FilterConfig(min_code_chars=1, max_code_chars=200,
                           blacklist=["image"])
        kept, _ = apply_filters(
            [make_record(0, code="build imagery and images pipeline")], cfg)
        assert len(kept) == 1
        kept, _ = apply_filters(
            [make_record(1, code="an Image of the thing")], cfg)
        assert kept == []

    def test_multiword_blacklist_entry(self):
        cfg = FilterConfig(min_code_chars=1, max_code_chars=200,
                           blacklist=["go to"])
        kept, _ = apply_filters([make_record(0, code="then go to the page")], cfg)
        assert kept == []
        kept, _ = apply_filters([make_record(1, code="golang tokens together")], cfg)
        assert len(kept) == 1

    def test_comment_scope(self):
        cfg_code = FilterConfig(min_code_chars=1, max_code_chars=200,
                                blacklist=["image"], match_scope="code_only")
        cfg_both = FilterConfig(min_code_chars=1, max_code_chars=200,
                                blacklist=["image"],
                                match_scope="code_and_comment")
        rec = make_record(0, code="def f(): pass", comment="renders an image")
        kept, _ = apply_filters([rec], cfg_code)
        assert len(kept) == 1
        kept, report = apply_filters([rec], cfg_both)
        assert kept == []
        assert report.rejected["blacklisted"] == 1

    def test_idempotent(self):
        cfg = FilterConfig(min_code_chars=10, max_code_chars=100,
                           blacklist=["image"])
        records = [make_record(i, code="a" * (5 + 7 * i)) for i in range(20)]
        kept, _ = apply_filters(records, cfg)
        kept2, report2 = apply_filters(kept, cfg)
        assert kept2 == kept
        assert report2.kept_count == report2.input_count

    def test_order_preserved(self):
        cfg = FilterConfig(min_code_chars=1, max_code_chars=100)
        records = [make_record(i, code=f"v{i} = {i} + {i}") for i in range(10)]
        kept, _ = apply_filters(records, cfg)
        assert [r.id for r in kept] == [r.id for r in records]


class TestFilterReport:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            FilterReport(input_count=5, kept_count=3, rejected={"too_short": 1})

    def test_all_reasons_present(self):
        report = FilterReport(input_count=1, kept_count=1, rejected={})
        assert set(report.rejected) == {"empty", "too_short", "too_long",
                                        "blacklisted"}


class TestLanguageDistribution:
    REPORTED = ["Python", "PHP", "Go", "Java", "JavaScript"]

    def test_reference_corpus_proportions(self):
        counts = {"Python": 2944, "PHP": 2134, "Go": 1968, "Java": 1853,
                  "JavaScript": 556, "Ruby": 300, "C++": 245}
        records = []
        for lang, n in counts.items():
            records.extend(make_record(f"{lang}-{i}", language=lang)
                           for i in range(n))
        dist = language_distribution(records, keep_languages=self.REPORTED)
        assert dist == {"Python": 29.44, "PHP": 21.34, "Go": 19.68,
                        "Java": 18.53, "JavaScript": 5.56, "Others": 5.45}

    def test_single_language(self):
        dist = language_distribution([make_record(0, language="Rust")])
        assert dist == {"Rust": 100.00}

    def test_two_languages_even_split(self):
        dist = language_distribution([make_record(0, language="a"),
                                      make_record(1, language="b")])
        assert dist == {"a": 50.00, "b": 50.00}

    def test_sorted_descending(self):
        records = ([make_record(i, language="big") for i in range(6)]
                   + [make_record(10 + i, language="small") for i in range(2)]
                   + [make_record(20 + i, language="mid") for i in range(4)])
        assert list(language_distribution(records)) == ["big", "mid", "small"]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            language_distribution([])

    def test_missing_language_tag_counts_as_unknown(self):
        dist = language_distribution([make_record(0, language="")])
        assert dist == {"Unknown": 100.00}


@st.composite
def record_lists(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    records = []
    for i in range(n):
        code = draw(st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=0, max_size=120))
        records.append(RawCodeRecord(id=f"h{i}", code=code))
    return records


@settings(max_examples=150, deadline=None)
@given(records=record_lists(),
       min_chars=st.integers(min_value=1, max_value=40),
       span=st.integers(min_value=1, max_value=80),
       blacklist=st.lists(st.sampled_from(["image", "plot", "draw", "go to"]),
                          max_size=3))
def test_conservation_property(records, min_chars, span, blacklist):
    cfg = FilterConfig(min_code_chars=min_chars, max_code_chars=min_chars + span,
                       blacklist=blacklist)
    kept, report = apply_filters(records, cfg)
    assert report.input_count == len(records)
    assert report.kept_count == len(kept)
    assert report.kept_count + sum(report.rejected.values()) == len(records)


@settings(max_examples=100, deadline=None)
@given(records=record_lists(),
       min_chars=st.integers(min_value=1, max_value=40),
       span=st.integers(min_value=1, max_value=80))
def test_idempotence_property(records, min_chars, span):
    cfg = FilterConfig(min_code_chars=min_chars, max_code_chars=min_chars + span,
                       blacklist=["image"])
    kept, _ = apply_filters(records, cfg)
    kept2, report2 = apply_filters(kept, cfg)
    assert kept2 == kept
    assert sum(report2.rejected.values()) == 0


# Blacklist entries are lowercase. These add ones whose letters have
# non-ASCII case-insensitive equivalents: "ſ" (long s) matches s, the Kelvin
# sign matches k, and "İ" (dotted capital I) matches i.
FOLD_WORDS = default_blacklist() + ["kit", "stack", "is", "ink", "ſpam", "ıd",
                                    "k8s", "-flag", " go"]
FOLDS = {"s": "ſ", "k": "\u212a", "i": "\u0130"}


def plain_blacklist_pattern(words):
    """The blacklist pattern without the first-character lookahead."""
    return re.compile(rf"\b(?:{'|'.join(re.escape(w) for w in words)})\b",
                      re.IGNORECASE)


@st.composite
def fold_haystacks(draw):
    """Text made of blacklist words, some upper-cased or with letters swapped
    for their non-ASCII equivalents, between varied separators."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        word = draw(st.sampled_from(FOLD_WORDS))
        for ch in word:
            how = draw(st.sampled_from(["keep", "keep", "upper", "fold"]))
            parts.append(ch.upper() if how == "upper"
                         else FOLDS.get(ch, ch) if how == "fold" else ch)
        parts.append(draw(st.sampled_from([" ", "", "_", "x", ".", "\n", "é"])))
    parts.append(draw(st.text(max_size=12)))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(FOLD_WORDS), min_size=1, max_size=4,
                      unique=True),
       haystack=fold_haystacks())
def test_blacklist_pattern_matches_plain_alternation(words, haystack):
    found = _blacklist_pattern(words).search(haystack) is not None
    assert found == (plain_blacklist_pattern(words).search(haystack) is not None)


@pytest.mark.parametrize("word,haystack,found", [
    ("image", "an \u0130MAGE here", True),
    ("stack", "a ſtack frame", True),
    ("kit", "the \u212aIT", True),
    ("is", "this is", True),
    ("is", "this", False),
    ("go to", "then go\tto", False),
])
def test_blacklist_case_folding(word, haystack, found):
    assert (_blacklist_pattern([word]).search(haystack) is not None) is found
    assert (plain_blacklist_pattern([word]).search(haystack) is not None) is found


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["Python", "Go", "PHP", "Java", "Rust", "C"]),
                min_size=1, max_size=200))
def test_percentages_sum_property(langs):
    records = [make_record(i, language=lang) for i, lang in enumerate(langs)]
    dist = language_distribution(records)
    assert abs(sum(dist.values()) - 100.0) <= 0.05
