"""Count-based regression guard: traced runs must repeat their work counts.

Call counts and work counts (rows, words, lines, kernel kept ratio) do not
depend on timing, so two traced runs on one seed must report them
identically; a difference means the inputs or plotkit's work are not
deterministic. Run from the repository root:

    python3 -m pytest bench/test_trace_counts.py

Each workload makes two traced runs of about twenty seconds each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
WORK_STATS = ("calls", "rows_in", "words_out", "lines_in", "lines_out", "kept_ratio")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def work_counts(result: dict) -> dict:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if name.rsplit(".", 1)[1] in WORK_STATS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_on_one_seed(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert work_counts(first)["cli.cli_main.calls"] > 0
    assert work_counts(first) == work_counts(second)
