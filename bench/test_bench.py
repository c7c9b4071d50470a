"""Self-tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

The minimal runs start the benchmark as the driver does, with
--seconds 1, and take about a minute and a half in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, DecomposeInput, WickInput

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.import_library(ROOT / "src")


def setup_for(workload, lib):
    return run.Setup(lib, [], workload.references(lib), 0.0)


def run_op(workload, setup, inp, tracer):
    return run.run_op(workload, setup, inp, tracer, run.ScaledClock())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_equal_seeds_and_differ_otherwise(name, lib):
    w = WORKLOADS[name]
    first = w.generate(run.seeded_rng(w, 7), lib)
    assert first == w.generate(run.seeded_rng(w, 7), lib)
    assert first != w.generate(run.seeded_rng(w, 8), lib)
    assert all(len(block) == w.block_size for block in first)


def test_decompose_blocks_are_stratified(lib):
    w = WORKLOADS["decompose"]
    for block in w.generate(run.seeded_rng(w, 3), lib)[:4]:
        assert sorted(i.max_twist for i in block) == [3, 3, 4, 4, 5, 5, 6, 6]
        assert sum(i.params[5] != 0 for i in block) == 4
        assert sum(i.params[5] != 0 and i.max_twist >= 5 for i in block) == 2


def decompose_input(B=Fraction(0), twist=3):
    return DecomposeInput((Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(1, 2), Fraction(3), B), twist, 10)


def test_decompose_op_passes(lib):
    w = WORKLOADS["decompose"]
    rec = run_op(w, setup_for(w, lib), decompose_input(), Tracer(False))
    assert rec.error is None
    assert rec.counts["f_coeffs"] > rec.counts["f_coeffs_useful"] > 0


def test_corrupted_rational_counts_as_failed(lib, monkeypatch):
    w = WORKLOADS["decompose"]
    solve = lib.partialwave.solve_structure_constants

    def corrupted(*args):
        values = solve(*args)
        return [values[0] + Fraction(1, 10**9)] + values[1:]

    monkeypatch.setattr(lib.partialwave, "solve_structure_constants", corrupted)
    rec = run_op(w, setup_for(w, lib), decompose_input(), Tracer(False))
    assert rec.error.startswith("CheckFailed") and not rec.expected
    assert rec.lines[-1].startswith("FAIL CheckFailed")


def test_corrupted_trace_counts_as_failed(lib, monkeypatch):
    w = WORKLOADS["wick"]
    setup = setup_for(w, lib)
    inp = w.generate(run.seeded_rng(w, 1), lib)[0][0]
    assert isinstance(inp, WickInput)
    assert run_op(w, setup, inp, Tracer(False)).error is None
    trace = lib.freefield.cycle_trace_numerator
    monkeypatch.setattr(
        lib.freefield, "cycle_trace_numerator", lambda *a: trace(*a) * Fraction(1001, 1000)
    )
    rec = run_op(w, setup, inp, Tracer(False))
    assert rec.error.startswith("CheckFailed") and not rec.expected


def test_known_defect_is_a_failed_but_expected_op(lib):
    w = WORKLOADS["decompose"]
    rec = run_op(w, setup_for(w, lib), decompose_input(Fraction(1), 5), Tracer(True))
    assert rec.error.startswith("InconsistentExpansion") and rec.expected
    # an unrelated exception is not the known defect
    assert not w.expected_failure(decompose_input(Fraction(1), 5), ValueError(), lib)


def test_nested_spans_give_self_time():
    from tracer import span_stats

    tracer = Tracer(True)
    tracer.call("outer", lambda: [tracer.call("inner", sum, range(1000)) for _ in range(3)])
    stats = span_stats(tracer.spans, {-1: 1.0})
    assert stats["inner"].calls == 3 and stats["outer"].calls == 1
    assert stats["outer"].self_s == pytest.approx(
        stats["outer"].busy_s - stats["inner"].busy_s, abs=1e-12
    )


def test_benchmark_json_lists_every_metric():
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in run.per_layer_spec()
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(bounds) == {"setup_s", "ops_per_s", "op_p50_s", "ops_ok_frac", "peak_rss_mb"}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def minimal_runs():
    cache = {}

    def get(name, trace, again=False):
        key = (name, trace, again)
        if key not in cache:
            proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            digest = next(line for line in lines if line.startswith("digest "))
            cache[key] = (json.loads(lines[-1]), digest)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_minimal_run_reports_every_metric(name, trace, minimal_runs):
    result, _ = minimal_runs(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if name != "decompose":
        assert result["failed"] == 0


def test_counts_and_digest_repeat_between_runs(minimal_runs):
    first, digest = minimal_runs("wick", 1)
    again, digest_again = minimal_runs("wick", 1, again=True)
    assert digest == digest_again
    assert digest == minimal_runs("wick", 0)[1]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: again["metrics"][n] for n in counts}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wick", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
