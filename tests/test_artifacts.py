"""The artifact writer and reader: whole writes, checked reads, kept modes."""

import json
import re
import stat
from pathlib import Path

import pytest

from melodygen.artifacts import (
    ArtifactError,
    SchemaError,
    expect_schema,
    parse,
    read,
    replace_dir,
    require,
    write,
    write_json,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "melodygen"


def mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def listing(directory):
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*"))


class TestWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "a" / "b" / "file.bin"
        write(target, b"one")
        write(target, b"two")
        assert target.read_bytes() == b"two"
        assert listing(tmp_path) == ["a", "a/b", "a/b/file.bin"]

    def test_json_form(self, tmp_path):
        write_json(tmp_path / "x.json", {"b": [1, 2], "a": "\u00e9"})
        assert (tmp_path / "x.json").read_bytes() == (
            b'{\n "a": "\\u00e9",\n "b": [\n  1,\n  2\n ]\n}\n'
        )

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "file.json"
        write(target, b"old")
        with pytest.raises(TypeError):
            write(target, "not bytes")
        assert target.read_bytes() == b"old"
        assert listing(tmp_path) == ["file.json"]


class TestReplaceDir:
    def test_swaps_in_the_new_contents(self, tmp_path):
        target = tmp_path / "out"
        write(target / "stale.txt", b"stale")
        with replace_dir(target) as staging:
            write(staging / "fresh.txt", b"fresh")
        assert listing(tmp_path) == ["out", "out/fresh.txt"]

    def test_failure_leaves_the_old_directory(self, tmp_path):
        target = tmp_path / "out"
        write(target / "kept.txt", b"kept")
        with pytest.raises(RuntimeError):
            with replace_dir(target) as staging:
                write(staging / "half.txt", b"half")
                raise RuntimeError("stage failed")
        assert listing(tmp_path) == ["out", "out/kept.txt"]
        assert (target / "kept.txt").read_bytes() == b"kept"

    def test_creates_a_missing_directory(self, tmp_path):
        with replace_dir(tmp_path / "deep" / "out") as staging:
            write(staging / "x", b"")
        assert listing(tmp_path) == ["deep", "deep/out", "deep/out/x"]


def test_modes_match_a_plain_write(tmp_path):
    write(tmp_path / "written.json", b"{}")
    with replace_dir(tmp_path / "built") as staging:
        write(staging / "inner.json", b"{}")
    (tmp_path / "plain.json").write_text("{}")
    (tmp_path / "plain").mkdir()
    assert mode(tmp_path / "written.json") == mode(tmp_path / "plain.json")
    assert mode(tmp_path / "built" / "inner.json") == mode(tmp_path / "plain.json")
    assert mode(tmp_path / "built") == mode(tmp_path / "plain")


class TestRead:
    def load(self, path):
        return json.loads(path.read_bytes())["value"]

    def test_returns_what_load_returns(self, tmp_path):
        write_json(tmp_path / "x.json", {"value": 3})
        assert read(tmp_path / "x.json", "ingest", self.load) == 3

    def test_missing_file_names_it_and_the_producer(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ArtifactError) as info:
            read(path, "profiles", self.load)
        assert str(info.value) == f"missing {path}; run `melodygen profiles` first"

    @pytest.mark.parametrize("text, problem", [
        ('{"other": 1}', "missing 'value'"),
        ("[1]", "list indices must be integers or slices, not str"),
        ("{", "Expecting property name enclosed in double quotes"),
    ])
    def test_malformed_file_names_it_and_the_producer(self, tmp_path, text, problem):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ArtifactError) as info:
            read(path, "train --variant 3L", self.load)
        message = str(info.value)
        assert message.startswith(f"{path}: {problem}")
        assert message.endswith("; re-run `melodygen train --variant 3L`")

    def test_nested_error_passes_through(self, tmp_path):
        write_json(tmp_path / "outer.json", {"value": "inner.json"})

        def load_outer(path):
            return read(tmp_path / self.load(path), "profiles", self.load)

        with pytest.raises(ArtifactError) as info:
            read(tmp_path / "outer.json", "ingest", load_outer)
        assert str(info.value) == (
            f"missing {tmp_path / 'inner.json'}; run `melodygen profiles` first"
        )


class TestParse:
    @pytest.mark.parametrize("data", [b'{"a": [1, {"b": null}]}', '{"a": [1, {"b": null}]}'])
    def test_returns_the_object(self, data):
        assert parse(data) == {"a": [1, {"b": None}]}

    @pytest.mark.parametrize("data, problem", [
        pytest.param(b"{", "not valid JSON: Expecting property name", id="malformed"),
        pytest.param(b'{"a": "\xff"}', "not valid JSON: 'utf-8' codec can't decode",
                     id="not UTF-8"),
        pytest.param(b"[" * 200_000, "not valid JSON: maximum recursion depth", id="too deep"),
        pytest.param(b'{"a": ' + b"1" * 5000 + b"}", "not valid JSON: Exceeds the limit",
                     id="over the digit limit"),
        pytest.param(b"[1, 2]", "the document must be a JSON object, not list", id="a list"),
        pytest.param(b"3", "the document must be a JSON object, not int", id="a number"),
    ])
    def test_every_failure_is_a_schema_error(self, data, problem):
        with pytest.raises(SchemaError) as info:
            parse(data)
        assert str(info.value).startswith(problem)


class TestRequire:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (True, bool), ("x", str), (2.5, float), ({}, dict), ([], list[int]),
        (3, int | float), (2.5, int | float), ([1, 2], list[int]),
        ([[0, 0.5], []], list[list[int | float]]),
    ])
    def test_returns_a_value_of_the_kind(self, value, kind):
        assert require({"f": value}, "f", kind) is value

    @pytest.mark.parametrize("value, kind, problem", [
        (True, int, "field 'notes[0].f' has wrong type bool"),
        (1, bool, "field 'notes[0].f' has wrong type int"),
        (3, float, "field 'notes[0].f' has wrong type int"),
        (3.0, int, "field 'notes[0].f' has wrong type float"),
        (False, int | float, "field 'notes[0].f' has wrong type bool"),
        ("3", int | float, "field 'notes[0].f' has wrong type str"),
        ({}, list[int], "field 'notes[0].f' has wrong type dict"),
        ([1, True], list[int], "field 'notes[0].f' must be list[int]"),
        ([[0.5, "1"]], list[list[int | float]],
         "field 'notes[0].f' must be list[list[int | float]]"),
        ([0.5], list[list[int | float]], "field 'notes[0].f' must be list[list[int | float]]"),
    ])
    def test_names_a_field_of_another_type(self, value, kind, problem):
        with pytest.raises(SchemaError) as info:
            require({"f": value}, "f", kind, "notes[0].")
        assert str(info.value) == problem

    def test_names_a_missing_field(self):
        with pytest.raises(SchemaError) as info:
            require({"g": 1}, "f", int, "notes[0].")
        assert str(info.value) == "missing field 'notes[0].f'"


class TestExpectSchema:
    def test_accepts_the_version(self):
        expect_schema({"schema": 2}, 2)

    @pytest.mark.parametrize("doc, problem", [
        ({}, "missing field 'schema'"),
        ({"schema": True}, "field 'schema' has wrong type bool"),
        ({"schema": 1.0}, "field 'schema' has wrong type float"),
        ({"schema": "1"}, "field 'schema' has wrong type str"),
        ({"schema": 2}, "unsupported schema version 2 (this build reads 1)"),
    ])
    def test_rejects_anything_else(self, doc, problem):
        with pytest.raises(SchemaError) as info:
            expect_schema(doc, 1)
        assert str(info.value) == problem


def test_only_the_artifact_module_parses_json():
    """Every JSON document the package reads goes through ``artifacts.parse``."""
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "artifacts.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "json.load" in line
    ]
    assert offenders == []


def test_only_the_artifact_module_writes_files():
    """Every file the package writes goes through ``artifacts.write``."""
    pattern = re.compile(r"\.write_(text|bytes)\(")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "artifacts.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
