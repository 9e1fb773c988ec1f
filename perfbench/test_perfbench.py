"""Tests of the benchmark itself, at a tiny size.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 20220714)
COUNTS = [name for name, unit in layers.LAYER_METRICS if unit in ("count", "B")]


def run_tiny(monkeypatch, capsys, workload: str, seed: int, trace: int) -> dict:
    monkeypatch.setattr(wl, "FULL", wl.TINY)
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("record: ")
    return json.loads(lines[-1])


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(wl.SUMMARY_METRICS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.TIMED) == list(run.WORKLOADS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(wl.TIMED))
def test_timed_run_prints_every_end_to_end_metric(monkeypatch, capsys, workload, seed):
    result = run_tiny(monkeypatch, capsys, workload, seed, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_prints_every_layer_metric_and_counts_repeat(monkeypatch, capsys):
    first, second = (run_tiny(monkeypatch, capsys, "classify", seed, trace=1) for seed in SEEDS)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert isinstance(first["metrics"][name]["value"], int), name
    for name, got in first["metrics"].items():
        if not name.endswith(".overhead_ms"):  # traced minus untraced may be negative
            assert got["value"] > 0, f"{name}: the workload no longer reaches this layer"


def test_paced_runs_whole_groups_and_divides_by_the_reference(monkeypatch):
    refs = iter([1.0, 3.0, 1.0, 1.0])
    monkeypatch.setattr(wl, "wall_s", lambda fn: next(refs))
    walls, costs = wl.paced(lambda i: 0.5 * (i + 1), None, 0.0, group=3)
    assert walls == [0.5, 1.0, 1.5]  # one whole group, though no time was given
    assert costs == [0.25, 0.5, 1.5]  # each wall over the mean of its two references
    assert wl.grouped([1.0, 2.0, 3.0, 4.0, 5.0], 2) == [3.0, 7.0]


def test_bulk_round_is_its_steps():
    inp = wl.bulk_inputs(1, wl.TINY)
    steps = wl.bulk_steps(inp)
    results = [wl.step(steps) for _ in range(wl.BULK_STEPS)]
    assert results[:-1] == [None] * (wl.BULK_STEPS - 1)
    assert results[-1][5] == wl.bulk_round(inp)[5]


def test_audit_gate_fails_on_an_altered_verdict(monkeypatch):
    monkeypatch.setitem(wl.EXPECTED_FAILS, "xiao", frozenset({"S4", "S4'"}))
    out = wl.time_audit(1, 0.01, wl.TINY)
    assert len(out.failures) == 1 and "audit xiao" in out.failures[0]


def test_classify_gate_fails_on_an_altered_winner():
    inp = wl.classify_inputs(1, wl.TINY)
    source, sample = inp.samples[0]
    out = wl.Outcome()
    wl.classify_sample(inp, source, sample, out)
    assert out.attempted == 4 and not out.failures
    wrong = "P999"
    wl.classify_sample(inp, wrong, sample, out)
    assert out.attempted == 8 and len(out.failures) == 4


def test_bulk_gate_fails_on_an_altered_dump_or_score():
    inp = wl.bulk_inputs(1, wl.TINY)
    loaded, weights, sets, scores, entropies, dumped = wl.bulk_round(inp)
    ok = wl.Outcome()
    wl.bulk_gate(ok, inp, (loaded, weights, sets, scores, entropies, dumped))
    assert ok.attempted > 0 and not ok.failures

    doc = json.loads(dumped)
    mu, nu = doc["sets"]["A"][0]
    doc["sets"]["A"][0] = [mu / 2, nu]
    bad = wl.Outcome()
    wl.bulk_gate(bad, inp, (loaded, weights, sets, scores, entropies, json.dumps(doc)))
    assert len(bad.failures) == 1 and "re-parsed" in bad.failures[0]

    skewed = dict(scores)
    skewed[("A", "B")] = (scores[("A", "B")][0] + 1e-15, *scores[("A", "B")][1:])
    bad = wl.Outcome()
    wl.bulk_gate(bad, inp, (loaded, weights, sets, skewed, entropies, dumped))
    assert len(bad.failures) == 2  # (A, B) and (B, A) no longer agree


def test_cli_gate_accepts_recorded_outputs_and_rejects_altered_ones():
    golden = wl.load_golden()
    code, text = layers._main_in_process(wl.CLI_MIX["classify"])
    assert wl.cli_check("classify", code, text, golden) == []
    assert wl.cli_check("classify", 2, text, golden)
    assert wl.cli_check("classify", code, text.replace("winner: P3", "winner: P1"), golden)
    value = "0.91357738158793167"
    assert value in text
    assert wl.cli_check("classify", code, text.replace(value, "0.91357738158803167"), golden) == []
    assert wl.cli_check("classify", code, text.replace(value, "0.91357748158793167"), golden)

    code, text = layers._main_in_process(wl.CLI_MIX["repro"])
    assert code == 1 and wl.cli_check("repro", code, text, golden) == []
    assert wl.cli_check("repro", 0, text, golden)


def test_long_outputs_are_sampled_and_summed():
    entry = wl.golden_entry(0, "\n".join(f"{i},{i / 7!r}" for i in range(1000)) + "\n")
    assert entry["count"] == 2000 and len(entry["sample"]) <= wl.GOLDEN_SAMPLES
    assert wl.output_fingerprint("result: PASS  (1.2 ms)\n")["numbers"] == []


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(10_000)))
    with tr.span("outer"):
        inner()
        inner()
    outer, child = tr.get("outer"), tr.get("inner")
    assert child.calls == 2
    assert outer.self_ns == outer.total_ns - child.total_ns


def test_patching_is_undone():
    import ifsim
    from ifsim import measures

    original = measures.js_norm_batch
    tr = Tracer()
    with tr.patched(layers.module_targets()):
        assert measures.js_norm_batch is not original
        assert ifsim.audit.js_norm_batch is measures.js_norm_batch
    assert measures.js_norm_batch is original and ifsim.audit.js_norm_batch is original
    assert dataclasses.is_dataclass(ifsim.IFS.from_pairs([(0.1, 0.2)]))
