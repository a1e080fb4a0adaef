"""The one reader and encoder of the JSON files read or written whole: the
config, the task-definition and ruleset files, and the workdir artifacts.

Each file's dataclass is its schema: a field's JSON key is its name, or the
dotted key path its "json" metadata names; its annotation is the type of the
value, and its default what an absent key means. A TypedDict field is an
object whose keys are all required, or all optional when it is declared
``total=False``. Range checks live in each class's __post_init__, so an
object built in code is checked the same way.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints, is_typeddict

from .errors import ConfigError, ConsistencyError, InstructSmithError
from .ioutil import read_json
from .taskspec import MixPolicy

_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", Path: "a path string", dict: "an object",
             list: "a list", tuple: "a list"}


@cache
def config_keys(cls) -> tuple[tuple[tuple[str, ...], str, object], ...]:
    """(JSON key path, field name, type) of each field of schema class ``cls``."""
    hints = get_type_hints(cls)
    if is_typeddict(cls):
        return tuple(((name,), name, tp) for name, tp in hints.items())
    return tuple((tuple(f.metadata.get("json", f.name).split(".")), f.name,
                  hints[f.name]) for f in fields(cls))


@cache
def _object_keys(cls) -> tuple[dict, list[tuple[str, ...]]]:
    """(field name, type) of each JSON key path of ``cls``, and the paths it requires."""
    by_path = {path: (name, tp) for path, name, tp in config_keys(cls)}
    required = (cls.__required_keys__ if is_typeddict(cls) else
                {f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING})
    return by_path, [path for path, (name, _) in by_path.items()
                     if name in required]


def named(key: str, make: Callable):
    """``make()``, with a check that fails in it re-raised as a `ConfigError`
    whose message leads with ``key``."""
    try:
        return make()
    except (ConfigError, ConsistencyError, ValueError) as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(key) else f"{key}.{msg}") from exc


def parse(tp, value, key: str, base: Path):
    """``value``, found at dotted ``key`` of a JSON file, as type ``tp``;
    relative paths resolve against ``base``."""
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else parse(args[0], value, key, base)
    if tp is MixPolicy:  # the JSON holds the raw weights
        weights = parse(dict[str, float], value, key, base)
        return named(key, lambda: MixPolicy.from_raw(weights))
    if is_dataclass(tp) or is_typeddict(tp):
        return _parse_object(tp, value, key, base)
    kind = get_origin(tp) or tp
    accepted = {float: (int, float), Path: str, tuple: list}.get(kind, kind)
    # bool is an int subclass, but true is neither an integer nor a number
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")
    if kind is dict:
        return {k: parse(args[1], v, f"{key}.{k}", base) for k, v in value.items()}
    if kind in (list, tuple):
        return kind(parse(args[0], v, f"{key}[{i}]", base)
                    for i, v in enumerate(value))
    if kind is Path:
        return Path(value) if Path(value).is_absolute() else base / value
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer beyond the largest float
        raise ConfigError(f"{key} must be a number, got too large an integer") from None


def _parse_object(cls, value, key: str, base: Path):
    by_path, required = _object_keys(cls)
    kwargs = {}

    def dotted(*path: str) -> str:
        return ".".join((key, *path) if key else path)

    def read(obj, at: tuple[str, ...]) -> None:
        if not isinstance(obj, dict):
            raise ConfigError(f"{dotted(*at) or 'the top level'} must be an "
                              f"object, got {obj!r}")
        for k, v in obj.items():
            path = (*at, k)
            if path in by_path:
                name, tp = by_path[path]
                kwargs[name] = parse(tp, v, dotted(*path), base)
            elif any(p[:len(path)] == path for p in by_path):
                read(v, path)
            else:
                raise ConfigError(f"unknown key {dotted(*path)!r}")

    read(value, ())
    for path in required:
        if by_path[path][0] not in kwargs:
            raise ConfigError(f"missing required key {dotted(*path)!r}")
    return kwargs if is_typeddict(cls) else named(key, lambda: cls(**kwargs))


def unparse(value):
    """``value`` as its JSON value, the inverse of `parse`."""
    if isinstance(value, MixPolicy):
        return dict(value.weights)
    if is_dataclass(value):
        out: dict = {}
        for path, name, _ in config_keys(type(value)):
            where = out.setdefault(path[0], {}) if len(path) > 1 else out
            where[path[-1]] = unparse(getattr(value, name))
        return out
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
