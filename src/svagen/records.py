"""One typed decoder from parsed JSON onto dataclasses, and its encoder.

Every JSON record svagen reads or writes (the run config, the information
bank, a signal record, a scripted-backend file, the retrieval index) is a
dataclass, and `decode` and `encode` map it from and to JSON by the field
annotations alone: a scalar as it is, a list item by item, a record field
by field, so a decoded record shares no list or record with another (a
config layer is merged as JSON and decoded once). `load` reads one from a
file (the index is read one line, and one record, at a time), and `dumps`
is the one encoding of every JSON artifact svagen writes but the index.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

from svagen import read_text

_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
          type(None): "null"}


class _Kind:
    """What one annotation accepts, matched by exact type: a bool is never
    an int, an int is accepted for a float and `X | None` accepts null. A
    number must be finite."""

    __slots__ = ("types", "name", "item", "cls", "fields", "required")

    def __init__(self, types: tuple[type, ...], name: str, item=None, cls=None) -> None:
        self.types, self.name = types, name  # JSON value types, and their name for messages
        self.item, self.cls = item, cls  # a list's item kind; the dataclass of an object
        if cls is not None:
            hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
            self.fields = {f.name: _kind(hints[f.name]) for f in fields}
            missing = dataclasses.MISSING
            self.required = [f.name for f in fields if f.default is f.default_factory is missing]


@functools.cache
def _kind(hint) -> _Kind:
    if dataclasses.is_dataclass(hint):
        return _Kind((dict,), "an object", cls=hint)
    if typing.get_origin(hint) is list:
        return _Kind((list,), "a list", item=_kind(typing.get_args(hint)[0]))
    if typing.get_origin(hint) is not None:  # X | None, of scalars
        kinds = [_kind(arg) for arg in typing.get_args(hint)]
        return _Kind(tuple(t for k in kinds for t in k.types), " or ".join(k.name for k in kinds))
    return _Kind((int, float) if hint is float else (hint,), _NAMES[hint])


class _Invalid(Exception):
    """A bad value. Each enclosing object or list adds its key or index to
    `path` as the error unwinds, so no path is built unless one is wrong."""

    def __init__(self, before: str, after: str, key: str | None = None) -> None:
        self.before, self.after = before, after  # the message around the path
        self.path: list[str | int] = [] if key is None else [key]  # innermost first


def decode(cls, data, error: type[Exception]):
    """A fresh `cls` (a dataclass, or a `list[...]` of one) from parsed JSON.

    An unknown key is an error, and every value must have its field's type.
    A missing key takes the field's default; a field without a default is
    required. Every list and record is built anew, and each dataclass once,
    so its `__post_init__` runs once; a plain ValueError from it becomes
    "invalid <section> parameters". Every error is raised as `error` and
    names the field path."""
    try:
        return _value(_kind(cls), data, error)
    except _Invalid as bad:
        where = ""
        for part in reversed(bad.path):
            where += f"[{part}]" if type(part) is int else f".{part}" if where else part
        raise error(bad.before + (where or "top level") + bad.after) from bad.__cause__


def _value(kind: _Kind, value, error: type[Exception]):
    if type(value) not in kind.types:
        text = json.dumps(value)
        text = text if len(text) <= 60 else text[:57] + "..."
        raise _Invalid("", f" must be {kind.name}, not {text}")
    if type(value) is float and not math.isfinite(value):
        raise _Invalid("", f" must be a finite number, not {json.dumps(value)}")
    if kind.item is not None:
        out = []
        try:
            for i, v in enumerate(value):
                out.append(_value(kind.item, v, error))
        except _Invalid as bad:
            bad.path.append(i)
            raise
        return out
    if kind.cls is None:
        return value
    fields, kwargs = kind.fields, {}
    for key, v in value.items():
        sub = fields.get(key)
        if sub is None:
            raise _Invalid("unknown key ", "", key)
        try:
            kwargs[key] = _value(sub, v, error)
        except _Invalid as bad:
            bad.path.append(key)
            raise
    for key in kind.required:
        if key not in kwargs:
            raise _Invalid("", " is missing", key)
    try:
        return kind.cls(**kwargs)
    except error:
        raise
    except ValueError as err:  # a range check of a class defined outside the caller's module
        raise _Invalid("invalid ", f" parameters: {err}") from err


def loads(cls, text: str, error: type[Exception]):
    """`decode(cls, ...)` of JSON `text`; text that is not JSON raises
    `error` too."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"not valid JSON: {err}") from err
    return decode(cls, data, error)


def load(cls, path: str, what: str, error: type[Exception], build=None):
    """`loads` of the UTF-8 JSON file at `path`, passed through `build` when
    given; every error, `build`'s own included, is raised as `error` and
    names the file."""
    text = read_text(path, what, error)  # names the file itself
    try:
        record = loads(cls, text, error)
        return record if build is None else build(record)
    except error as err:
        raise error(f"{what} file {path!r}: {err}") from err


def encode(record) -> dict:
    """`dataclasses.asdict(record)` through `decode`'s field table, without a deep copy."""
    return _encode(_kind(type(record)), record)


def dumps(data) -> str:
    """JSON artifact text (docs/formats.md): sorted keys, two-space indent,
    trailing newline, so identical runs write identical bytes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _encode(kind: _Kind, value):
    if kind.cls is not None:
        return {name: _encode(sub, getattr(value, name)) for name, sub in kind.fields.items()}
    if kind.item is None:
        return value
    return [_encode(kind.item, v) for v in value]
