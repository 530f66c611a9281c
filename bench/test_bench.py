"""Self-test of the benchmark at tiny sizes; finishes in well under a minute.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import workloads as w
from spans import self_times

BENCHMARK = json.loads((w.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("workload", sorted(w.WORKLOADS))
def test_tiny_pass_checks_every_item(workload):
    record = w.run_pass(workload, seed=1, size="tiny")
    assert record["attempted"] > 0
    assert record["failed"] == 0
    assert record["wall_s"] > 0 and record["peak_rss_mib"] > 0


def test_wrong_reference_fails_the_item(tmp_path, monkeypatch):
    refs = json.loads(w.REFERENCES.read_text())
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps({key: "0" * 64 for key in refs}))
    monkeypatch.setattr(w, "REFERENCES", bad)
    for workload in ("ratio-sweep", "coeff-tables", "cache-resume"):
        record = w.run_pass(workload, seed=1, size="tiny")
        assert record["failed"] == record["attempted"] > 0


def test_oracle_disagreement_fails_the_item(monkeypatch):
    w.import_library()
    from snhurwitz import hurwitz

    monkeypatch.setattr(hurwitz, "brute_force_disconnected", lambda spec: Fraction(-1))
    record = w.run_pass("oracle-crosscheck", seed=1, size="tiny")
    drawn = len(w.ORACLE_SIZES["tiny"][1])
    assert record["failed"] == record["attempted"] - drawn > 0


def test_traced_pass_nests_thread_spans_and_restores_names(tmp_path):
    w.import_library()
    from snhurwitz import verify

    original = verify.character_ratio
    path = tmp_path / "spans.jsonl"
    record = w.run_pass("ratio-sweep", seed=1, size="tiny", trace=True, spans_path=str(path))
    assert verify.character_ratio is original
    assert sorted(record["layers"]) == sorted(set(PER_LAYER) - {"trace.overhead_s"})

    header, *spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert "child processes are not captured" in header["note"]
    names = {s["id"]: s["name"] for s in spans}
    ratio_parents = {names[s["parent"]] for s in spans if s["name"] == "characters.ratio"}
    assert ratio_parents == {"verify.conjecture1", "verify.theorem_b"}
    assert record["layers"]["parallel.jobs"] >= 1
    assert record["layers"]["characters.ratio_calls"] == record["layers"]["verify.checked"]


def test_exact_counts_repeat():
    first, second = (w.run_pass("coeff-tables", seed=5, size="tiny", trace=True)["layers"]
                     for _ in range(2))
    for name in ("hurwitz.connected_value_calls", "structure.tables",
                 "structure.table_entries", "characters.central_calls"):
        assert first[name] == second[name] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [(0, "parent", 0.0, 10.0, None),
             (1, "a", 1.0, 4.0, 0), (2, "b", 3.0, 6.0, 0),  # overlapping, as threads do
             (3, "c", 8.0, 9.0, 0), (4, "grandchild", 8.2, 8.4, 3)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(0.8)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_run_prints_the_result_line(trace, names):
    proc = _run(w.ROOT, "--workload", "cache-resume", "--seed", "2", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(names)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(w.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(w.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "ratio-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
