"""Quick-mode smoke test of the lifecycle benchmark.

Runs every workload at a tiny size, untraced and traced, and asserts
that every metric ``BENCHMARK.json`` names is emitted with its unit,
that every correctness check passed, and that the benchmark refuses to
run without the repository's source tree:

    python3 -m pytest perfbench/smoke.py -q
    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E, LAYERS, WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = REPO):
    return subprocess.run(
        [
            sys.executable, str(cwd / HERE.name / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_workload(workload: str) -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, listed, units in (
        (0, spec["end_to_end"], E2E),
        (1, spec["per_layer"], LAYERS),
    ):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout[-2000:]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in listed} == units
        assert {
            name: m["unit"] for name, m in result["metrics"].items()
        } == units
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
        if trace:
            assert "unattributed" in proc.stdout
            assert proc.stdout.count(f"finding {workload}:") == 3


def test_offline_lifecycle():
    check_workload("offline-lifecycle")


def test_net_mixed():
    check_workload("net-mixed")


def test_refuses_without_source_tree():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(REPO / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} ok")
