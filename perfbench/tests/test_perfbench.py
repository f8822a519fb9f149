"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

Every workload runs at tiny size so the whole file takes well under a
minute; the numbers are meaningless, the contract is what is checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metrics_match_spec(workload: str) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload: str) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1", "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = _result(done)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    # The wall time is clocked around the traced pass, apart from the
    # spans; the layers' self times must account for nearly all of it.
    wall = metrics["trace.wall_ms"]["value"]
    assert wall > 0
    unattributed = metrics["trace.unattributed_ms"]["value"]
    assert unattributed == pytest.approx(wall - metrics["trace.self_sum_ms"]["value"])
    assert 0 <= unattributed < 0.02 * wall
    assert (ROOT / ".perfbench-out" / f"{workload}-seed3-spans.csv").exists()


def test_dropped_row_is_caught_and_counted(monkeypatch, capsys) -> None:
    import run
    from repro.query.engine import QueryEngine

    evaluate = QueryEngine.evaluate

    def drop_last_row(self, query, doc_ids=None):
        rows = evaluate(self, query, doc_ids)
        return rows[:-1] if rows else rows

    monkeypatch.setattr(QueryEngine, "evaluate", drop_last_row)
    code = run.main(["--workload", "paper-queries", "--seed", "3", "--seconds", "0.5",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_wrong_repeated_answer_is_caught_and_counted(monkeypatch, capsys) -> None:
    """Only the second evaluation of each text is wrong (as a faulty
    result cache would be); the first, checked by NaiveEvaluator, is right."""
    import run
    from repro.query.engine import QueryEngine

    evaluate = QueryEngine.evaluate
    calls: dict = {}

    def wrong_second_time(self, query, doc_ids=None):
        rows = evaluate(self, query, doc_ids)
        calls[query] = calls.get(query, 0) + 1
        return rows[:-1] if calls[query] == 2 and rows else rows

    monkeypatch.setattr(QueryEngine, "evaluate", wrong_second_time)
    code = run.main(["--workload", "paper-queries", "--seed", "3", "--seconds", "0.5",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_query_mix_is_seeded() -> None:
    from querymix import QueryMix

    first, second = QueryMix(7), QueryMix(7)
    stream = [first.next() for _ in range(200)]
    assert stream == [second.next() for _ in range(200)]
    assert first.repeat_share() == pytest.approx(1 - len(set(stream)) / 200)
    assert stream != [QueryMix(8).next() for _ in range(200)]


def test_estimators() -> None:
    from common import interquartile_mean, tail_mean

    assert interquartile_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    # The quarter at either end is left out: 1, 2 and 9, 100.
    assert interquartile_mean([100.0, 1.0, 4.0, 2.0, 5.0, 3.0, 9.0, 6.0]) == pytest.approx(4.5)
    assert tail_mean([float(value) for value in range(1, 21)]) == pytest.approx(19.5)
    assert tail_mean([3.0, 1.0]) == pytest.approx(3.0)


def test_latencies_are_kept_as_measured_and_scaled() -> None:
    from common import REFERENCE_MS, Recorder

    recorder = Recorder()
    recorder.rescale()
    scale = recorder.scale
    assert scale == pytest.approx(REFERENCE_MS / recorder.references[-1])
    recorder.call("read", lambda: sum(range(10000)))
    [measured], [scaled] = recorder.samples["read"], recorder.scaled["read"]
    assert scaled == pytest.approx(measured * scale)
    assert recorder.summary(scaled=False)["p50_ms"] == pytest.approx(measured * 1000.0)
    assert recorder.summary()["p50_ms"] == pytest.approx(scaled * 1000.0)

