"""The one reader and encoder of the program's JSON: the config, the
task-definition and ruleset files and the workdir artifacts, read whole, and
the corpus, dataset, benchmark and log lines, read row by row.

Each file's or row's dataclass is its schema: a field's JSON key is its
name, or the key its "json" metadata names; its annotation is the type of
the value, and its default what an absent key means. A TypedDict field is an
object whose keys are all required, or all optional when it is declared
``total=False``. An `Id` is a JSON string as it is, or a JSON integer in
decimal. Range checks live in each class's __post_init__, so an object
built in code is checked the same way. Each type's reader is built once and
cached. A whole file refuses keys its schema does not know; a row ignores
them, since rows come from outside and may carry more.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import (Callable, Iterator, NewType, get_args, get_origin,
                    get_type_hints, is_typeddict)

from .errors import ConfigError, ConsistencyError, InstructSmithError
from .ioutil import iter_jsonl, read_json
from .taskspec import MixPolicy

Id = NewType("Id", str)

_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", Path: "a path string", dict: "an object",
             list: "a list", tuple: "a list", Id: "a string or an integer"}
_KINDS = {type(None): "null", bool: "a boolean", int: "an integer",
          float: "a number", str: "a string", list: "an array",
          dict: "an object"}
#: JSON types each type takes (true is no integer); the first converts others
_ACCEPTED = {float: (float, int), Id: (str, int), Path: (str,)}
#: the JSON type whose values an object field of each type takes as they are
_AS_IS = {str: str, int: int, float: float, bool: bool, Id: str}
_HERE = Path()
_OMIT = object()  # an optional TypedDict key: left out when absent


def _refused(key: str, tp, value) -> ConfigError:
    kind = _KINDS.get(type(value), type(value).__name__)
    return ConfigError(f"{key} must be {_EXPECTED[tp]}, got {kind}")


def _dotted(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _renamed(key: str, exc: Exception) -> ConfigError:
    msg = str(exc)
    return ConfigError(msg if msg.startswith(key) else f"{key}.{msg}")


@cache
def config_keys(cls) -> tuple[tuple[str, str, object], ...]:
    """(JSON key, field name, type) of each field of schema class ``cls``."""
    hints = get_type_hints(cls)
    if is_typeddict(cls):
        return tuple((name, name, tp) for name, tp in hints.items())
    return tuple((f.metadata.get("json", f.name), f.name, hints[f.name])
                 for f in fields(cls))


def named(key: str, make: Callable):
    """``make()``, with a check that fails in it re-raised as a `ConfigError`
    whose message leads with ``key``."""
    try:
        return make()
    except (ConfigError, ConsistencyError, ValueError) as exc:
        raise _renamed(key, exc) from exc


def parse(tp, value, key: str = "", base: Path = _HERE,
          ignore_unknown: bool = False):
    """``value``, found at dotted ``key`` of a JSON file, as type ``tp``;
    relative paths resolve against ``base``. An object key the schema does
    not know is refused, or skipped when ``ignore_unknown``."""
    return _reader(tp, ignore_unknown)(value, key, base)


@cache
def _reader(tp, lax: bool) -> Callable:
    """The function ``(value, key, base)`` that reads a value as ``tp``."""
    args = get_args(tp)
    if type(None) in args:  # X | None
        inner = _reader(args[0], lax)
        return lambda value, key, base: (None if value is None
                                         else inner(value, key, base))
    if tp is MixPolicy:  # the JSON holds the raw weights
        weights = _reader(dict[str, float], lax)
        return lambda value, key, base: named(
            key, lambda: MixPolicy.from_raw(weights(value, key, base)))
    if is_dataclass(tp) or is_typeddict(tp):
        return _object_reader(tp, lax)
    if tp is object:  # any JSON value, as it is
        return lambda value, key, base: value
    kind = get_origin(tp) or tp
    if kind is dict:
        item = _reader(args[1], lax)

        def read(value, key, base):
            if type(value) is not dict:
                raise _refused(key, dict, value)
            return {k: item(v, f"{key}.{k}", base) for k, v in value.items()}
    elif kind in (list, tuple):
        item = _reader(args[0], lax)

        def read(value, key, base):
            if type(value) is not list:
                raise _refused(key, kind, value)
            items = [item(v, f"{key}[{i}]", base) for i, v in enumerate(value)]
            return items if kind is list else tuple(items)
    else:
        accepted = _ACCEPTED.get(kind, (kind,))

        def read(value, key, base):
            if type(value) not in accepted:
                raise _refused(key, kind, value)
            if kind is Path:
                return base / value  # an absolute path stays as it is
            try:
                return value if type(value) is accepted[0] else accepted[0](value)
            except OverflowError:  # an integer beyond the largest float
                raise ConfigError(f"{key} must be a number, got too large an "
                                  f"integer") from None
    return read


def _object_reader(cls, lax: bool) -> Callable:
    """The reader of schema class ``cls``: per field in turn, the value of
    its key is taken as it is or read by its reader, or its default stands
    in; a dataclass is built from the values in field order."""
    typed = is_typeddict(cls)
    defaults = ({name: (_OMIT, MISSING) for name in cls.__optional_keys__}
                if typed else {f.name: (f.default, f.default_factory)
                               for f in fields(cls)})
    keys = config_keys(cls)
    names = [name for _, name, _ in keys]
    # per field in order, its JSON key and the type it takes as it is; by JSON
    # key, the reader of any other value, the default and the default factory
    plan = [(key, _AS_IS.get(tp)) for key, _, tp in keys]
    other = {key: (_reader(tp, lax), *defaults.get(name, (MISSING, MISSING)))
             for key, name, tp in keys}

    def read_object(value, key: str, base):
        if type(value) is not dict:
            raise _refused(key or "the top level", dict, value)
        get = value.get
        values = []
        absent = 0
        missing = None  # the first required key that is absent
        for jkey, as_is in plan:
            v = get(jkey, MISSING)
            if type(v) is not as_is:
                read, default, factory = other[jkey]
                if v is not MISSING:
                    v = read(v, _dotted(key, jkey), base)
                else:
                    absent += 1
                    v = default if factory is MISSING else factory()
                    if v is MISSING and missing is None:
                        missing = jkey
            values.append(v)
        # a missing key is named last: a misspelt key may account for it
        if not lax and len(value) + absent > len(plan):
            unknown = next(k for k in value if k not in other)
            raise ConfigError(f"unknown key {_dotted(key, unknown)!r}")
        if missing is not None:
            raise ConfigError(f"missing required key {_dotted(key, missing)!r}")
        if typed:
            return {name: v for name, v in zip(names, values) if v is not _OMIT}
        try:
            return cls(*values)
        except (ConfigError, ConsistencyError, ValueError) as exc:
            raise _renamed(key, exc) from exc

    return read_object


def unparse(value):
    """``value`` as its JSON value, the inverse of `parse`."""
    if isinstance(value, MixPolicy):
        return dict(value.weights)
    if is_dataclass(value):
        return {key: unparse(getattr(value, name))
                for key, name, _ in config_keys(type(value))}
    if isinstance(value, dict):
        return {k: unparse(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [unparse(v) for v in value]
    return str(value) if isinstance(value, Path) else value


def read_file(path: Path, parse_value: Callable,
              error: type[InstructSmithError]):
    """``parse_value`` of the JSON value in file ``path``. A file that is not
    UTF-8 JSON, or a value the schema refuses, raises ``error`` (exit 2 for a
    `ConfigError`, 1 for a `ConsistencyError`) naming the file and the key."""
    try:
        return parse_value(read_json(path))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
    except (ConfigError, ValueError) as exc:
        raise error(f"{path}: {exc}") from exc


def load(tp, path: Path, error: type[InstructSmithError]):
    """The JSON file ``path`` parsed as schema type ``tp``; failures are as
    in `read_file`."""
    return read_file(path, lambda value: parse(tp, value, "", path.parent), error)


def read_rows(tp, path: Path, error: type[InstructSmithError], what: str,
              **lines) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, row)`` for each line of JSONL file ``path``
    (read by `iter_jsonl` with options ``lines``), parsed as schema type
    ``tp`` with unknown keys ignored. A line that is no JSON text, or that
    the schema refuses, raises ``error`` naming ``path:line`` and the key."""
    read = _reader(tp, True)
    for lineno, obj in iter_jsonl(path, error=error, **lines):
        try:
            row = read(obj, "", _HERE)
        except ConfigError as exc:
            raise error(f"{path}:{lineno}: {what}: {exc}") from exc
        yield lineno, row
