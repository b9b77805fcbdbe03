"""Tests of the benchmark itself, on tiny ("smoke") operations.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(directory, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(directory, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=directory, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600,
    )


def _smoke(name, tmp_path, seed=3):
    workload = workloads.make(name, seed, str(tmp_path), smoke=True)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(name, trace, key):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if key == "end_to_end":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "search", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _raise_for(target, label):
    def wrapper(*args, **kwargs):
        if label in repr(args):
            raise RuntimeError(f"injected failure for {label}")
        return target(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name, module, attr, label", [
    ("cmp-apps", "repro.experiments.fig11_applications", "run_one", "center+BL"),
    ("faulted", "repro.exec.engine", "execute_point", "diagonal+BL"),
])
def test_an_operation_that_raises_is_counted_as_failed(
    name, module, attr, label, tmp_path, monkeypatch
):
    import importlib

    owner = importlib.import_module(module)
    workload = _smoke(name, tmp_path)
    monkeypatch.setattr(owner, attr, _raise_for(getattr(owner, attr), label))
    out = worker.measure(workload, seconds=0, trace=False)
    failing = [n for n in workload.op_names() if label in n]
    assert out["attempted"] == len(workload.op_names())
    assert out["failed"] == len(failing) >= 1
    assert out["failed_frac"] == len(failing) / out["attempted"]
    assert all("injected failure" in line for line in out["errors"])
    # A failed operation is not a wrong result.
    assert out["correct"] is True


def test_a_tampered_reference_digest_is_detected(tmp_path):
    workload = _smoke("search", tmp_path)
    clean = worker.measure(workload, seconds=0, trace=False)
    reference = {op_name: digest for op_name, digest, _ in clean["ops"]}
    assert worker.measure(workload, 0, False, reference)["correct"] is True

    tampered = dict(reference, annealing="0" * 16)
    out = worker.measure(workload, 0, False, tampered)
    assert out["correct"] is False
    assert out["failed"] == 1
    assert any("annealing: reference digest" in p for p in out["problems"])


def test_the_recorded_reference_covers_every_operation():
    reference = worker.load_reference()
    assert set(reference) == set(workloads.NAMES)
    for name, entry in reference.items():
        assert entry["seed"] == workloads.DEFAULT_SEEDS[name]
        assert len(entry["ops"]) == {
            "ur-sweep": 16, "faulted": 4, "cmp-apps": 9, "search": 2,
        }[name]
    # The known deadlock is recorded as a failure, not as a digest.
    assert reference["cmp-apps"]["ops"]["ddup/center+BL"] is None


@pytest.mark.parametrize("name, layer", [
    ("ur-sweep", "noc.cycles_on.c"),
    ("faulted", "faults.purge_n"),
    ("cmp-apps", "cmp.messages"),
    ("search", "search.evaluate_n"),
])
def test_traced_and_untraced_digests_are_equal(name, layer, tmp_path):
    from repro.noc.network import Network

    step = Network.__dict__["step"]
    workload = _smoke(name, tmp_path)
    untraced = workload.run_pass()
    out = worker.measure(workload, 0, True, spans_path=str(tmp_path / "spans.jsonl"))
    assert out["correct"] is True, out["problems"]
    assert [op.digest for op in untraced.ops] == [d for _, d, _ in out["ops"]]
    assert out["per_layer"][layer] > 0
    # The tracer put every original back.
    assert Network.__dict__["step"] is step
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert "totals" in json.loads(lines[-1])
    assert {json.loads(line)["name"] for line in lines[:-1]} >= {"bench.pass"}


def test_self_time_excludes_wrapped_children():
    import time

    tracer = Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "inner", False)
    outer = tracer._wrap(lambda: (time.sleep(0.01), inner()), "outer", True)
    outer()
    assert tracer.calls("inner") == tracer.calls("outer") == 1
    assert tracer.total_s("outer") >= tracer.total_s("inner") >= 0.02
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner")
    )
    assert [span[1] for span in tracer.spans] == ["outer"]
