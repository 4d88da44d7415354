"""Self-test of the benchmark; runs every workload briefly.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is printed, that every span a
workload is expected to reach was called (a wrapper bound at the wrong
attribute records nothing), that tracing puts every original function back,
and that the runner refuses to run without the package sources.
"""

import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing

LINALG_ORIGINALS = {f: getattr(np.linalg, f) for f in tracing.LINALG}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON_SPANS = ["robot.full_kinematics", "robot.load_model", "stiffness.assemble_joint_stiffness",
                "stiffness.symmetry_report", "connection.correction_matrix", "linalg.eigvalsh"]
EXPECTED_SPANS = {
    "wipe_sim": COMMON_SPANS + ["robot.jacobian", "robot.forward_kinematics", "sim.design_damping",
                                "sim.simulate", "linalg.eigh", "linalg.solve"],
    "query": COMMON_SPANS + ["stiffness.joint_stiffness"],
    "cli": COMMON_SPANS + ["robot.jacobian", "stiffness.joint_stiffness", "passivity.audit_stiffness",
                           "passivity.loop_work", "cli.main", "cli.resolve_model"],
}


@pytest.fixture(scope="module", autouse=True)
def checkout_sources():
    assert run.use_checkout_sources()


def _measure(name, trace):
    stamp, measured = run.measure([name], seed=7, seconds=0.2, trace=trace, setup_reps=1)
    result = run.report(stamp, measured, trace, out=io.StringIO())
    json.dumps(result, allow_nan=False)
    return result, measured[0]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_metrics_printed(name):
    result, m = _measure(name, trace=False)
    assert m.workload.gs.robot.full_kinematics.__name__ == "full_kinematics"  # step stamps removed
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run(name):
    result, m = _measure(name, trace=True)
    assert set(result["metrics"]) == {p["name"] for p in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for span in EXPECTED_SPANS[name]:
        assert m.tracer.calls(span) > 0, span
    assert m.tracer.restored()
    assert all(getattr(np.linalg, f) is fn for f, fn in LINALG_ORIGINALS.items())
    if name == "wipe_sim":
        assert result["metrics"]["linalg.calls_per_op"]["value"] == 7.0
        # traced windows see the corrected controller as often as the baseline
        assert result["metrics"]["connection.correction_matrix.calls_per_op"]["value"] == 0.5
    if name == "cli":
        assert result["metrics"]["passivity.loop_work.calls_per_audit"]["value"] == 21.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
