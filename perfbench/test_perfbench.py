"""Self-tests of the benchmark: its statistics, output checks and tracing."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from melodygen import encode, midifile, musicxml, neural, synthetic
from perfbench import checks, computed, stats, tracing, workloads


def test_median_of_odd_and_even_counts():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail([float(v) for v in range(10)]) is None
    assert stats.tail([float(v) for v in range(11)]) == (100.0 / 11, 0.0)
    pct, value = stats.tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    assert sum(v > value for v in range(1, 101)) == stats.TAIL_BEYOND


def test_summary_reports_sample_count():
    s = stats.summary([1.0] * 30 + [2.0])
    assert s["n"] == 31 and s["p50"] == 1.0
    assert s["tail_pct"] == pytest.approx(100 * 21 / 31) and s["tail"] == 1.0
    empty = stats.summary([])
    assert empty == {"n": 0, "p50": None, "tail_pct": None, "tail": None}


def test_relative_spread_is_quartile_distance_over_median():
    assert stats.relative_spread([10.0] * 5) == 0.0
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_ledger_counts_a_failed_check_and_goes_on():
    ledger = checks.Ledger()
    with ledger.operation("ok"):
        pass
    with ledger.operation("bad"):
        checks.require(False, "output missing")
    with ledger.operation("raises"):
        raise FloatingPointError("diverged")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.error_rate == pytest.approx(2 / 3)
    assert ledger.failures[0] == "bad: CheckFailed: output missing"


def test_midi_check_needs_a_parsing_file_with_notes(tmp_path):
    data = midifile.write_midi([(60, 0, 2), (62, 2, 2), (64, 4, 1)], text_events=("x",))
    path = tmp_path / "a.mid"
    path.write_bytes(data)
    assert checks.check_midi(path) == data
    for bad in (data[:-3], b"RIFF" + data[4:], data[:10]):
        path.write_bytes(bad)
        with pytest.raises(checks.CheckFailed, match="does not parse"):
            checks.check_midi(path)
    path.write_bytes(midifile.write_midi([]))
    with pytest.raises(checks.CheckFailed, match="no notes"):
        checks.check_midi(path)
    with pytest.raises(checks.CheckFailed, match="not written"):
        checks.check_midi(tmp_path / "missing.mid")


def test_artifact_checks_flag_mismatches(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"accepted": 9}))
    with pytest.raises(checks.CheckFailed, match="accepted 9 of 10"):
        checks.check_manifest(tmp_path, 10)
    for kind, k in (("beat", 8), ("bar", 12)):
        (tmp_path / f"{kind}_codebook.json").write_text(json.dumps({"k": k}))
    with pytest.raises(checks.CheckFailed, match="bar codebook has k=12"):
        checks.check_codebooks(tmp_path, 8, 16)
    with pytest.raises(checks.CheckFailed):
        checks.require_finite(math.nan, "loss")
    (tmp_path / "curves_note.csv").write_text("# stamp\niteration,train_loss,val_loss\n20,nan,3.1\n")
    with pytest.raises(checks.CheckFailed, match="note train_loss"):
        checks.check_curves(tmp_path, ("note",))
    (tmp_path / "trace.json").write_text(json.dumps({"plan": {"mode": "beam"}, "levels": {}}))
    with pytest.raises(checks.CheckFailed, match="wrong mode"):
        checks.check_generation_trace(tmp_path / "trace.json", "sample")


def test_every_trace_target_exists():
    assert len(tracing.resolve_targets()) == len(tracing.TARGETS)


def test_missing_trace_target_fails_with_its_name(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("melodygen.neural", "gone"),))
    with pytest.raises(tracing.TraceTargetMissing, match="melodygen.neural.gone"):
        tracing.Tracer()


def test_install_wraps_every_import_site_and_uninstall_restores():
    from melodygen.hrnn import generation

    original = neural.lstm_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert neural.lstm_step is not original
        assert generation.lstm_step is neural.lstm_step
        params = neural.init_params(3, 4, 5, n_layers=1)
        generation.lstm_step(params, np.zeros(3))
    finally:
        tracer.uninstall()
    assert neural.lstm_step is original and generation.lstm_step is original
    assert [span[0] for span in tracer.spans] == ["neural.lstm_step"]


def _span(name, start, end, parent=None, tag=None):
    return [name, start, end, parent, 0, tag]


def test_self_time_subtracts_direct_children():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_split_training_from_evaluation_forwards():
    spans = [
        _span("hrnn.training.train_layer", 0.0, 10.0, None, "note"),
        _span("neural.forward_sequence", 0.0, 2.0, 0, "note"),
        _span("neural.adam_update", 2.0, 3.0, 0, "note"),
        _span("hrnn.evaluation.evaluate_layer", 3.0, 6.0, 0, "note"),
        _span("neural.forward_sequence", 3.0, 5.0, 3, "note"),
    ]
    metrics = tracing.layer_metrics(spans, {"profiles.lloyd_iterations": 8.0}, n_ops=2)
    assert metrics["neural.note.forward_s"] == 1.0
    assert metrics["neural.note.steps"] == 0.5
    assert metrics["evaluation.evaluate_s"] == 1.5
    assert metrics["layer.neural.self_s"] == 2.5
    assert metrics["layer.hrnn.training.self_s"] == 2.0
    assert metrics["profiles.lloyd_iterations"] == 4.0
    assert metrics["neural.bar.forward_s"] == 0.0 and metrics["cli.ingest_s"] == 0.0


def test_computed_work_from_shapes():
    shape = computed.StepShape(steps=2, batch=3, input_dim=5, hidden=4, layers=1, outputs=6)
    forward = 2 * (2 * 3 * (5 + 4) * 16 + 2 * 3 * 4 * 6)
    assert computed.train_step_gflop(shape) == pytest.approx(3 * forward / 1e9)


def test_forward_cache_is_read_off_the_program_arrays():
    shape = computed.StepShape(steps=4, batch=3, input_dim=5, hidden=4, layers=2, outputs=6)
    floor = computed.forward_floor(shape, dropout=0.5, repeats=1)
    # gates, cells, outputs and dropout masks per layer, then inputs, probs, mask, targets
    floats = 4 * 2 * 3 * (16 + 4 + 4 + 4) + 4 * 3 * (5 + 6 + 1 + 1)
    assert floor["cache_mb"] == pytest.approx(floats * 8 / 2**20)
    assert floor["ratio"] > 0


def test_val_nll_guard_is_deterministic_and_fails_without_gradients(monkeypatch):
    from melodygen.hrnn import training

    ledger = checks.Ledger()
    value = workloads.val_nll_guard(workloads.SMOKE, ledger)
    assert ledger.failed == 0, ledger.failures
    assert value == workloads.val_nll_guard(workloads.SMOKE, ledger)

    def no_gradients(params, cache):
        return {k: np.zeros_like(v) for k, v in neural.backward(params, cache).items()}

    monkeypatch.setattr(training, "backward", no_gradients)
    assert math.isnan(workloads.val_nll_guard(workloads.SMOKE, ledger))
    assert ledger.failed == 1 and "untrained loss" in ledger.failures[0]


def test_musicxml_writer_round_trips_through_the_parser():
    for sheet in synthetic.synthetic_corpus(6, seed=4, rest_probability=0.3, random_keys=True):
        parsed = musicxml.parse_musicxml(workloads.musicxml_document(sheet), sheet.id)
        assert not isinstance(parsed, musicxml.Rejection)
        assert parsed.key_fifths == sheet.key_fifths
        assert parsed.chords == sheet.chords
        assert [(n.midi_pitch, Fraction(n.onset), Fraction(n.duration)) for n in parsed.notes] == [
            (n.midi_pitch, n.onset, n.duration) for n in sheet.notes]
        assert encode.grid_encode(encode.normalize_sheet(parsed)) == encode.grid_encode(
            encode.normalize_sheet(sheet))


def test_smoke_mode_runs_every_workload_and_checks_its_outputs():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seed", "3"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in ("train", "generate", "pipeline"):
        assert f"{workload}.trace.overhead_frac" in result["metrics"]
    for metric in ("train_symbols_per_s", "gen_sample_p50_s", "gen_beam_tail_s", "pipeline_s",
                   "error_rate", "val_nll", "peak_rss_mb", "setup_s"):
        assert metric in proc.stdout
