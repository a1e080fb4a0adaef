"""Small file helpers: atomic writes and line-delimited JSON."""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from .errors import ConsistencyError

log = logging.getLogger(__name__)

# One encoder for every JSONL line; json.dumps(row, ensure_ascii=False) would
# build a new one per call. Encoding keeps no state between calls.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


@contextmanager
def atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Open a temp file beside ``path`` for binary writing; when the block
    ends without error the temp file replaces ``path``, so readers never
    observe a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file with mode 0666 less the umask, as open() would create path
    # itself (mkstemp would make it 0600)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 via a temp file + rename."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def atomic_write_json(path: str | Path, obj: Any, *, indent: int | None = 2) -> None:
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=indent) + "\n")


def atomic_write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Atomically write one JSON object per line; returns the row count.

    Rows are encoded and written one at a time into the temp file, so
    ``rows`` may be a generator and only one line is held at once. If
    ``rows`` raises, the temp file is removed and ``path`` is left as it
    was."""
    count = 0
    with atomic_open(path) as fh:
        for row in rows:
            fh.write((_LINE_ENCODER.encode(row) + "\n").encode("utf-8"))
            count += 1
    return count


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_number, parsed_object)`` for each non-blank line, reading
    the file line by line; a line that is not JSON raises `ConsistencyError`
    naming ``path:line``. A torn final line is the caller's to drop first,
    with `repair_torn_tail`. The file closes when the iteration ends or the
    generator is closed or dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ConsistencyError(f"{path}:{i}: not JSON: {exc}") from exc
            yield i, obj


def repair_torn_tail(path: str | Path) -> int:
    """Truncate a final line that lacks its newline terminator.

    A crash can kill a process mid-append, leaving a partial last line. Every
    complete append ends in a newline, so an unterminated tail is torn by
    definition — even if the fragment happens to parse as JSON. Dropping it
    restores the all-lines-complete invariant; the lost record is redone by
    the caller's resume logic. Returns the number of bytes removed.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return 0
    if size == 0:
        return 0
    with open(path, "rb+") as fh:
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return 0
        keep = 0
        pos = size
        while pos > 0:
            step = min(1 << 16, pos)
            fh.seek(pos - step)
            cut = fh.read(step).rfind(b"\n")
            if cut != -1:
                keep = pos - step + cut + 1
                break
            pos -= step
        fh.truncate(keep)
    removed = size - keep
    log.warning("%s: dropped torn final line (%d bytes)", path, removed)
    return removed


class JsonlAppender:
    """Append-only JSONL writer that flushes every line.

    A flush pushes each record to the OS, so a killed process loses at most
    the line being written. Opening repairs any torn tail a previous crash
    left behind, so appends never continue a partial line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        repair_torn_tail(self.path)
        self._fh = open(self.path, "a", encoding="utf-8", newline="\n")

    def append(self, row: dict) -> None:
        self._fh.write(_LINE_ENCODER.encode(row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
