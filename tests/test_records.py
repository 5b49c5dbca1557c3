"""The JSON record decoder: exact types, unknown and missing keys, fresh
lists and records, and error paths."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from svagen.backends import ScriptEntry
from svagen.records import decode, encode


class RecordError(ValueError):
    pass


@dataclass
class Inner:
    size: int = 1
    ratio: float = 0.5
    label: str | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")


@dataclass
class Outer:
    name: str
    inner: Inner = field(default_factory=Inner)
    items: list[Inner] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    flag: bool = False


class TestDecode:
    def test_full_record(self):
        data = {
            "name": "n",
            "inner": {"size": 3, "ratio": 2, "label": None},
            "items": [{"size": 4}],
            "tags": ["a", "b"],
            "flag": True,
        }
        record = decode(Outer, data, RecordError)
        assert record == Outer("n", Inner(3, 2, None), [Inner(4)], ["a", "b"], True)
        assert type(record.inner.ratio) is int  # an int stands for a float, kept as given

    def test_omitted_fields_take_defaults(self):
        assert decode(Outer, {"name": "n"}, RecordError) == Outer("n")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({}, "name is missing"),
            ({"name": "n", "nmae": 1}, "unknown key nmae"),
            ({"name": "n", "inner": {"sise": 1}}, "unknown key inner.sise"),
            ({"name": 1}, "name must be a string, not 1"),
            ({"name": "n", "flag": 1}, "flag must be true or false, not 1"),
            ({"name": "n", "inner": {"size": True}}, "inner.size must be an integer, not true"),
            ({"name": "n", "inner": {"size": 1.0}}, "inner.size must be an integer, not 1.0"),
            ({"name": "n", "inner": {"ratio": "1"}}, 'inner.ratio must be a number, not "1"'),
            ({"name": "n", "inner": {"label": 2}}, "inner.label must be a string or null, not 2"),
            ({"name": "n", "tags": "abc"}, 'tags must be a list, not "abc"'),
            ({"name": "n", "tags": ["a", 1]}, "tags[1] must be a string, not 1"),
            ({"name": "n", "items": [{}, {"ratio": None}]}, "items[1].ratio must be a number"),
            ({"name": "n", "items": [{"size": -1}]}, "invalid items[0] parameters: size must be"),
            ([], "top level must be an object, not []"),
        ],
    )
    def test_error_names_the_path(self, data, message):
        with pytest.raises(RecordError) as err:
            decode(Outer, data, RecordError)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "shape, path",
        [
            (lambda v: {"name": "n", "inner": {"ratio": v}}, "inner.ratio"),  # a leaf beside the others
            (lambda v: {"name": "n", "items": [{}, {"ratio": v, "size": 2}]}, "items[1].ratio"),
        ],
    )
    def test_non_finite_float_names_the_path(self, shape, path, value):
        with pytest.raises(RecordError) as err:
            decode(Outer, shape(value), RecordError)
        assert str(err.value) == f"{path} must be a finite number, not {json.dumps(value)}"

    def test_finite_floats_in_a_list_are_kept(self):
        assert decode(list[float], [1.5, 2, -0.0], RecordError) == [1.5, 2, -0.0]
        with pytest.raises(RecordError, match=r"^\[2\] must be a finite number, not NaN$"):
            decode(list[float], [1.5, 2, float("nan")], RecordError)

    def test_lists_are_built_anew(self):
        data = {"name": "n", "tags": ["a"]}
        record = decode(Outer, data, RecordError)
        assert record.tags == ["a"] and record.tags is not data["tags"]
        record.tags.append("b")
        assert data["tags"] == ["a"]  # the parsed JSON is left as it was
        encoded = encode(record)
        assert encoded["tags"] == ["a", "b"] and encoded["tags"] is not record.tags

    def test_callers_error_passes_through(self):
        @dataclass
        class Checked:
            n: int = 0

            def __post_init__(self) -> None:
                if self.n < 0:
                    raise RecordError("n: negative")

        with pytest.raises(RecordError, match="^n: negative$"):
            decode(Checked, {"n": -1}, RecordError)

    def test_post_init_runs_once_per_record(self):
        built = []

        @dataclass
        class Counted:
            n: int = 0

            def __post_init__(self) -> None:
                built.append(self.n)

        decode(list[Counted], [{"n": 1}, {"n": 2}], RecordError)
        assert built == [1, 2]

    def test_list_of_records(self):
        entries = decode(list[ScriptEntry], [{"response": "a"}, {"response": "b", "match": "m"}],
                         RecordError)
        assert entries == [ScriptEntry("a"), ScriptEntry("b", "m")]
        with pytest.raises(RecordError, match=r"^\[1\]\.response is missing$"):
            decode(list[ScriptEntry], [{"response": "a"}, {"match": "m"}], RecordError)
