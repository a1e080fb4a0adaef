"""Raw code corpus: ingestion, rule-based filtering, and language statistics.

The corpus file is line-delimited JSON, one record per line, with keys
``id``, ``code``, ``comment``, ``language`` and optional ``repo``, ``path``,
``license``. Filtering drops records whose code is empty, too short, too
long, or contains a blacklisted word; every rejection is tallied by reason.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

#: rejection reasons, in the order they are checked
REJECT_REASONS = ("empty", "too_short", "too_long", "blacklisted")

MATCH_SCOPES = ("code_only", "code_and_comment")


@dataclass
class RawCodeRecord:
    """One corpus entry: a code body with its paired comment and provenance."""

    id: str
    code: str
    comment: str = ""
    language: str = ""
    repo: str = ""
    path: str = ""
    license: str = ""

    def to_dict(self) -> dict:
        d = {"id": self.id, "code": self.code, "comment": self.comment,
             "language": self.language}
        for key in ("repo", "path", "license"):
            value = getattr(self, key)
            if value:
                d[key] = value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RawCodeRecord":
        return cls(
            id=str(d["id"]),
            code=str(d["code"]),
            comment=str(d.get("comment", "") or ""),
            language=str(d.get("language", "") or ""),
            repo=str(d.get("repo", "") or ""),
            path=str(d.get("path", "") or ""),
            license=str(d.get("license", "") or ""),
        )


@dataclass
class FilterConfig:
    """Length bounds and blacklist for corpus filtering.

    The defaults keep typical functions while dropping stubs and pathological
    files; both bounds are measured in characters of the trimmed code body.
    """

    min_code_chars: int = 80
    max_code_chars: int = 4096
    blacklist: list[str] = field(default_factory=list)
    match_scope: str = "code_only"

    def __post_init__(self) -> None:
        if not (0 < self.min_code_chars < self.max_code_chars):
            raise ValueError(
                f"min_code_chars must be > 0 and < max_code_chars, got "
                f"{self.min_code_chars}, {self.max_code_chars}")
        if self.match_scope not in MATCH_SCOPES:
            raise ValueError(f"match_scope must be one of {MATCH_SCOPES}")
        cleaned: list[str] = []
        seen = set()
        for word in self.blacklist:
            if not word or not word.strip():
                raise ValueError("blacklist entries must be non-empty")
            low = word.lower()
            if low != word:
                raise ValueError(f"blacklist entry {word!r} must be lowercase")
            if low not in seen:
                seen.add(low)
                cleaned.append(low)
        self.blacklist = cleaned


@dataclass
class FilterReport:
    """Accounting for one `apply_filters` pass: every input is either kept
    or tallied under exactly one rejection reason."""

    input_count: int
    kept_count: int
    rejected: dict[str, int]

    def __post_init__(self) -> None:
        for reason in REJECT_REASONS:
            self.rejected.setdefault(reason, 0)
        total = self.kept_count + sum(self.rejected.values())
        if total != self.input_count:
            raise ValueError(
                f"report does not balance: kept {self.kept_count} + rejected "
                f"{sum(self.rejected.values())} != input {self.input_count}")

    def to_dict(self) -> dict:
        return {"input_count": self.input_count, "kept_count": self.kept_count,
                "rejected": dict(self.rejected)}


def ingest_records(path: str | Path) -> list[RawCodeRecord]:
    """Read a line-delimited corpus file.

    Malformed lines (bad JSON, missing/empty ``id`` or ``code``, duplicate id)
    are skipped and logged, never fatal. An unreadable file raises ``OSError``.
    Records come back in file order.
    """
    path = Path(path)
    records: list[RawCodeRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                skipped += 1
                log.warning("%s:%d: skipped (invalid JSON: %s)", path, lineno, exc)
                continue
            if not isinstance(obj, dict):
                skipped += 1
                log.warning("%s:%d: skipped (not an object)", path, lineno)
                continue
            missing = [k for k in ("id", "code") if not str(obj.get(k, "") or "").strip()]
            if missing:
                skipped += 1
                log.warning("%s:%d: skipped (missing %s)", path, lineno, ", ".join(missing))
                continue
            rec = RawCodeRecord.from_dict(obj)
            if rec.id in seen_ids:
                skipped += 1
                log.warning("%s:%d: skipped (duplicate id %r)", path, lineno, rec.id)
                continue
            seen_ids.add(rec.id)
            records.append(rec)
    if skipped:
        log.info("ingested %d records from %s (%d lines skipped)", len(records), path, skipped)
    return records


def write_records(records: Iterable[RawCodeRecord], path: str | Path) -> int:
    from .ioutil import atomic_write_jsonl
    return atomic_write_jsonl(path, (r.to_dict() for r in records))


def default_blacklist() -> list[str]:
    """The shipped no-go word list (skips blank and comment lines)."""
    from importlib import resources
    text = (resources.files("instructsmith") / "data" / "blacklist.txt"
            ).read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _blacklist_pattern(words: Sequence[str]) -> re.Pattern | None:
    """Any entry as a whole word, case-insensitive. The lookahead on the
    entries' first characters, folded like the rest, turns most positions
    away with one class test instead of trying every entry there."""
    if not words:
        return None
    alternatives = "|".join(re.escape(w) for w in words)
    firsts = "".join(sorted({re.escape(w[0]) for w in words}))
    return re.compile(rf"\b(?=[{firsts}])(?:{alternatives})\b", re.IGNORECASE)


def _reject_reason(record: RawCodeRecord, config: FilterConfig,
                   pattern: re.Pattern | None) -> str | None:
    """First matching rejection reason, or None if the record passes.

    Reasons are checked in the fixed order: empty, too_short, too_long,
    blacklisted.
    """
    code = record.code.strip()
    if not code:
        return "empty"
    if len(code) < config.min_code_chars:
        return "too_short"
    if len(code) > config.max_code_chars:
        return "too_long"
    if pattern is not None:
        haystack = code
        if config.match_scope == "code_and_comment":
            haystack = code + "\n" + record.comment
        if pattern.search(haystack):
            return "blacklisted"
    return None


def apply_filters(records: Sequence[RawCodeRecord],
                  config: FilterConfig) -> tuple[list[RawCodeRecord], FilterReport]:
    """Filter records by the length and blacklist rules.

    Order-preserving and deterministic; the report accounts for every input.
    """
    pattern = _blacklist_pattern(config.blacklist)
    kept: list[RawCodeRecord] = []
    rejected = {reason: 0 for reason in REJECT_REASONS}
    for record in records:
        reason = _reject_reason(record, config, pattern)
        if reason is None:
            kept.append(record)
        else:
            rejected[reason] += 1
    report = FilterReport(input_count=len(records), kept_count=len(kept),
                          rejected=rejected)
    return kept, report


def language_distribution(records: Sequence[RawCodeRecord],
                          keep_languages: Sequence[str] | None = None,
                          other_label: str = "Others") -> dict[str, float]:
    """Percentage of records per language tag, rounded to 2 decimals.

    Sorted descending by percentage (ties broken by name). When
    ``keep_languages`` is given, any language outside that list is grouped
    under ``other_label``.
    """
    if not records:
        raise ValueError("language_distribution is undefined for an empty corpus")
    counts: dict[str, int] = {}
    keep = set(keep_languages) if keep_languages is not None else None
    for record in records:
        lang = record.language or "Unknown"
        if keep is not None and lang not in keep:
            lang = other_label
        counts[lang] = counts.get(lang, 0) + 1
    total = len(records)
    percentages = {lang: round(100.0 * n / total, 2) for lang, n in counts.items()}
    ordered = sorted(percentages.items(), key=lambda kv: (-kv[1], kv[0]))
    return dict(ordered)
