"""The benchmark's own tests: hermetic inputs, metric names, traced run.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracereport  # noqa: E402
import workloads  # noqa: E402
from spans import duration, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def input_hash(workload: str, seed: int) -> str:
    """Hash of everything the seed hands the program for ``workload``."""
    if workload == "kernel":
        text = "".join(
            workloads.generator.generate(prof).render()
            for prof in workloads.kernel_profiles(seed, workloads.FULL)
        )
    elif workload == "figure_sweep":
        text = repr(workloads.sweep_programs(seed, workloads.FULL))
    else:
        text = json.dumps(workloads.service_requests(seed, workloads.FULL),
                          sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_synth_determinism(workload):
    assert input_hash(workload, 7) == input_hash(workload, 7)
    assert input_hash(workload, 7) != input_hash(workload, 8)


def test_benchmark_json_names_the_runner_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracereport.PER_LAYER


def test_reference_mismatch_names_cell_and_field():
    expected = {"gcc/ooo": {"cycles": 10, "instructions": 5},
                "mcf/ooo": {"cycles": 7, "instructions": 3}}
    actual = {"gcc/ooo": {"cycles": 10, "instructions": 5},
              "mcf/ooo": {"cycles": 8, "instructions": 3}}
    assert run.compare(expected, actual) == [
        "reference mismatch at mcf/ooo field cycles: expected 7, got 8"
    ]


def check_tree(spans):
    """The first broken tree invariant, or None: every span is a root or
    has a recorded parent, self times are non-negative, and a tree's self
    times sum to its root's duration."""
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    totals = {}
    for span in spans:
        if span["parent"] is not None and span["parent"] not in by_id:
            return f"span {span['name']} ({span['id']}) has no parent record"
        if own[span["id"]] < -1e-9:
            return f"span {span['name']} has negative self time"
        top = span
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        totals[top["id"]] = totals.get(top["id"], 0.0) + own[span["id"]]
    for root_id, total in totals.items():
        if abs(total - duration(by_id[root_id])) > 1e-6:
            return (f"self times under {by_id[root_id]['name']} sum to "
                    f"{total}, not its duration")
    return None


TRACED = """
import json, sys
from pathlib import Path
import run, spans
sys.path.insert(0, str(run.ROOT / "src"))
args = run.parse_args(["--workload", sys.argv[1], "--seconds", "0",
                       "--trace", "1", "--smoke"])
run_dir = Path(sys.argv[2])
run.pin_environment(run_dir)
runner = run.Runner(args, run_dir)
runner.setup()
runner.measure()
metrics = runner.per_layer()
print(json.dumps({
    "errors": runner.check(),
    "metrics": metrics,
    "spans": spans.read_spans(runner.trace_dir),
}))
"""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run(workload, tmp_path):
    """A traced run emits every per-layer metric; its spans form trees
    whose self times are non-negative and add up to each root."""
    done = subprocess.run(
        [sys.executable, "-c", TRACED, workload, str(tmp_path / "run")],
        cwd=HERE, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names <= set(result["metrics"])
    assert check_tree(result["spans"]) is None
    shares = [v for k, v in result["metrics"].items()
              if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_fails_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, the run fails loudly
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
