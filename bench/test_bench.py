"""Smoke test of the benchmark at tiny sizes: every metric is emitted with its
unit, the outputs pass their checks, and the traced run writes its spans.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Printed by every run but not gated (see README.md).
UNGATED = {"val_ade_m": "m", "infer_seq_ms_p50": "ms",
           "infer_seq_ms_p90": "ms", "failed_share": "ratio"}


def run(tmp_path, workload, trace, run_py=HERE / "run.py"):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny",
           "--out", str(tmp_path)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    return res


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    proc = run(tmp_path, workload, 0)
    res = result(proc)
    assert units(res["metrics"]) == {m["name"]: m["unit"]
                                     for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    printed = {line.split()[0]: line.split()[2]
               for line in proc.stdout.splitlines()
               if line.startswith("  ") and len(line.split()) >= 3}
    for name, unit in {**units(res["metrics"]), **UNGATED}.items():
        assert printed.get(name) == unit, name
    report = json.loads(
        (tmp_path / f"{workload}-seed0-trace0.json").read_text())
    assert {"nproc", "threads", "python", "numpy", "blas",
            "seed"} <= set(report["environment"])
    assert set(report["environment"]["threads"].values()) == {"1"}
    if workload == "train-desk":
        assert report["known_defect_probe"] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_spans(tmp_path,
                                                           workload):
    res = result(run(tmp_path, workload, 1))
    metrics = res["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, m in metrics.items():
        if m["unit"] == "count":
            assert m["value"] > 0 and m["value"] == int(m["value"]), name
    layers = sum(m["value"] for name, m in metrics.items()
                 if name.startswith("step."))
    assert layers == pytest.approx(metrics["harness.step_ms"]["value"],
                                   rel=1e-9)
    spans = (tmp_path / f"{workload}-seed0-trace1.spans.csv").read_text()
    lines = spans.splitlines()
    assert lines[0] == "id,parent,name,start_ns,end_ns"
    names = {line.split(",")[2] for line in lines[1:]}
    assert {"harness.train", "tensor.backward", "model.forward",
            "data.load_sequences"} <= names


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path / "out", WORKLOADS[0], 0,
               run_py=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
