"""The tree A/B helper: this tree against itself, and a changed copy."""

import statistics
import sys

import pytest

import melodygen
from support import tree_ab


def test_import_tree_keeps_the_trees_apart():
    before = dict(sys.modules)
    tree = tree_ab.import_tree(tree_ab.THIS_SRC)
    assert tree is not melodygen and tree.encode is not melodygen.encode
    assert tree.neural.__name__ == "melodygen.neural"
    assert {name: sys.modules[name] for name in before} == before
    assert sys.modules["melodygen"] is melodygen


def test_this_tree_against_itself_has_no_differences():
    trees = tree_ab.import_tree(tree_ab.THIS_SRC), tree_ab.import_tree(tree_ab.THIS_SRC)
    assert tree_ab.compare("normalize", *trees, cases=500) == []
    assert tree_ab.compare("neural", *trees, cases=20) == []
    assert tree_ab.compare("profiles", *trees, cases=20) == []
    assert tree_ab.compare("features", *trees, cases=24) == []
    report = tree_ab.compare_decode(*trees, cases=4)
    assert report.differences == [] and report.worst_relative == 0.0
    assert report.equal_sequences == report.sequences == 4 * 2 * 3


def test_a_changed_tree_shows_differences(monkeypatch):
    same = tree_ab.import_tree(tree_ab.THIS_SRC)
    changed = tree_ab.import_tree(tree_ab.THIS_SRC)
    monkeypatch.setattr(changed.encode, "fold_octaves", lambda pitch: pitch % 12 + 48)
    monkeypatch.setattr(changed.neural, "ADAM_EPSILON", 1e-2)

    def sharper(logits):
        return changed.neural.log_softmax(logits * 1.001)

    monkeypatch.setattr(changed.hrnn.generation, "log_softmax", sharper)
    monkeypatch.setattr(changed.profiles, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(changed.hrnn.specs, "one_hot_matrix",
                        lambda events, size: 1.0 - changed.encode.one_hot_matrix(events, size))
    for check, cases in (("normalize", 200), ("neural", 4), ("decode", 2), ("profiles", 2),
                         ("features", 6)):
        assert tree_ab.compare(check, same, changed, cases)


def test_profiles_compares_the_elbow_rows(monkeypatch):
    same = tree_ab.import_tree(tree_ab.THIS_SRC)
    changed = tree_ab.import_tree(tree_ab.THIS_SRC)
    report = changed.profiles.elbow_report
    monkeypatch.setattr(changed.profiles, "elbow_report", lambda *args, **kwargs: [
        {**row, "wcss": row["wcss"] + 1.0} for row in report(*args, **kwargs)])
    assert tree_ab.compare("profiles", same, changed, 2) == ["case seed 0", "case seed 1"]


def _shifted_copy(params):
    return type(params)(params.layers, params.w_out + 1.0, params.b_out)


@pytest.mark.parametrize("change", ["copy", "checkpoint header", "loaded arrays"])
def test_neural_compares_copies_and_checkpoints(monkeypatch, change):
    same = tree_ab.import_tree(tree_ab.THIS_SRC)
    changed = tree_ab.import_tree(tree_ab.THIS_SRC)
    neural = changed.neural
    if change == "copy":
        monkeypatch.setattr(neural.GeneratorParams, "copy", _shifted_copy)
    elif change == "checkpoint header":
        monkeypatch.setattr(neural, "CHECKPOINT_META_KEY", "model")
    else:
        load = neural.load_checkpoint
        monkeypatch.setattr(neural, "load_checkpoint", lambda path: _shifted_copy(load(path)))
    assert tree_ab.compare("neural", same, changed, 2) == ["case seed 0", "case seed 1"]


def test_decode_fixes_levels_and_compares_the_rejections(monkeypatch):
    tree = tree_ab.import_tree(tree_ab.THIS_SRC)
    # A fixed level has no log-probs; a decoded one has one per position.
    for seed, fixed in ((0, None), (1, "bar"), (2, "beat")):
        for mode in tree_ab.DECODE_MODES:
            levels = tree_ab.decode_case(tree, seed, mode)
            assert [level for level, (_, logps) in levels.items() if not logps] == (
                [fixed] if fixed else [])
    assert tree_ab.rejection_case(tree, 0) == [
        "bar profile index outside the codebook",
        "a one-beat primer (4 note events) is required",
        "primer event outside the layer alphabet",
    ]
    assert tree_ab.rejection_case(tree, 1)[0] == "beat profile index outside the codebook"

    changed = tree_ab.import_tree(tree_ab.THIS_SRC)
    generate = changed.hrnn.generation.generate

    def reworded(*args):
        try:
            return generate(*args)
        except ValueError as exc:
            raise ValueError(f"{exc}.") from None

    monkeypatch.setattr(changed.hrnn.generation, "generate", reworded)
    report = tree_ab.compare_decode(tree, changed, cases=3)
    assert report.rejections == 9 and report.equal_rejections == 0
    assert report.equal_sequences == report.sequences == 3 * 2 * 3
    assert len(report.differences) == 9


def test_time_rounds_alternate_the_trees_and_keep_each_ones_fastest_call():
    turns, durations = [], iter([3, 1, 2, 5, 4, 6, 7, 1, 2, 2, 9, 8, 1, 1, 3, 3])
    now = [0]

    def clock():
        return now[0]

    def call(side):
        def run():
            turns.append(side)
            now[0] += next(durations)
        return run

    fastest = tree_ab.time_rounds((call("a"), call("b")), rounds=2, per_turn=2, clock=clock)
    assert turns == ["a", "a", "b", "b", "b", "b", "a", "a"] * 2
    assert fastest == ([1, 2], [2, 1])


def test_time_summary_fields():
    line = tree_ab.time_summary("sample", [1.0, 2.0, 3.0], [0.5, 2.0, 4.5])
    assert line == ("sample: median other 2000.0 ms, this 2000.0 ms; median ratio this/other "
                    "1.000 (95% interval [0.500, 1.500]); rounds won: other 1, this 1 of 3")


def test_median_interval_is_seeded_and_holds_the_median():
    ratios = [0.9, 1.1, 1.0, 0.95, 1.2, 1.05, 0.98, 1.01, 1.3, 0.97]
    low, high = tree_ab.median_interval(ratios)
    assert (low, high) == tree_ab.median_interval(ratios)
    assert min(ratios) <= low <= statistics.median(ratios) <= high <= max(ratios)


@pytest.mark.parametrize("load, warned", [(0.99, False), (1.0, True), (3.5, True)])
def test_time_warns_when_the_box_is_busy(monkeypatch, capsys, load, warned):
    monkeypatch.setattr(tree_ab.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tree_ab.os, "getloadavg", lambda: (load, 0.5, 0.25))
    monkeypatch.setattr(tree_ab, "time_stage", lambda *args: ["sample: timed"])
    assert tree_ab.main(["time", "generate", str(tree_ab.THIS_SRC), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "sample: timed"
    assert lines[2].startswith(f"load average before {load:.2f} ")
    assert lines[3:] == ([f"warning: the 1-minute load average before the run, {load:.2f}, "
                          "is at least half of the 2 cores: another job shares the box"]
                         if warned else [])


def test_time_generate_runs_an_a_a_round(monkeypatch, capsys):
    monkeypatch.setattr(tree_ab, "TIME_BARS", 1)
    monkeypatch.setattr(tree_ab, "TIME_HIDDEN", 4)
    monkeypatch.setattr(tree_ab, "TIME_LAYERS", 1)
    assert tree_ab.main(["time", "generate", str(tree_ab.THIS_SRC), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("time generate: 1 rounds of turns other, this, this, other; "
                        "calls per turn: 2")
    assert [line.split(":")[0] for line in lines[1:3]] == ["sample", "beam-5"]
    assert all("rounds won: other" in line and line.endswith(" of 1") for line in lines[1:3])
    assert lines[3].startswith("load average before ") and ", after " in lines[3]


def test_time_train_step_runs_an_a_a_round(monkeypatch, capsys):
    monkeypatch.setattr(tree_ab, "TRAIN_STEP_PIECES", 20)
    monkeypatch.setattr(tree_ab, "TRAIN_STEP_VAL_PIECES", 2)
    monkeypatch.setattr(tree_ab, "TRAIN_STEP_BARS", 2)
    monkeypatch.setattr(tree_ab, "TRAIN_STEP_BATCH", 2)
    monkeypatch.setattr(tree_ab, "TRAIN_STEP_SHAPES", {"tiny": (4, 1), "two layers": (4, 2)})
    assert tree_ab.main(["time", "train-step", str(tree_ab.THIS_SRC), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("time train-step: 1 rounds of turns other, this, this, other; "
                        "calls per turn: 2")
    assert [line.split(":")[0] for line in lines[1:3]] == ["tiny", "two layers"]
    assert all("rounds won: other" in line and line.endswith(" of 1") for line in lines[1:3])
    assert lines[3].startswith("load average before ") and ", after " in lines[3]
