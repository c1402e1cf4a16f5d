"""The artifact writer and reader: whole writes, checked reads, kept modes."""

import json
import re
import stat
from pathlib import Path

import pytest

from melodygen.artifacts import ArtifactError, read, replace_dir, write, write_json

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
