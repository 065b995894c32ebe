"""The benchmark's own checks: declared metrics and traced-run repeatability.

    python3 -m pytest perfbench -q        # about five minutes on two cores

Two traced runs of one seed must agree exactly on the counters and on the
output digests; times may differ.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (the benchmark entry point, importable for its tables)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600, check=True)
    lines = done.stdout.splitlines()
    digests = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digests


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: workloads.WORKLOADS[name].why for name in run.GATED}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counters_and_digests_repeat(workload):
    first, first_digests = _traced(workload)
    second, second_digests = _traced(workload)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
    for name in tracing.EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert len(first_digests) == 1 and first_digests == second_digests
    spans = (HERE.parent / ".perfbench_spans" / f"{workload}-seed42.tsv").read_text(
        encoding="utf-8").splitlines()
    assert spans[0].split("\t") == ["index", "parent", "name", "start_ns", "end_ns"]
    assert len(spans) > 1
