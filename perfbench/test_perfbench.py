"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check that the printed metrics are the ones registered in
BENCHMARK.json, that a corrupted output is counted as a failure, that the
tracer changes no output and leaves no wrapper behind, and that per-layer
self times fit inside the case wall time.  Small inputs keep them quick.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


class SmallFrames(W.FramesDense):
    sizes = (("n8", 8, 16, 1, 4), ("tall", 4, 24, 1, 1))


class SmallCoherent(W.CoherentFock):
    levels = (6, 7)
    radius = 0.05


def _registered(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)[kind]}


def _run_bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "coherent-fock",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_registry_matches_benchmark_json():
    assert run.END_TO_END == _registered("end_to_end")
    assert run.PER_LAYER == _registered("per_layer")


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_registered_ones(trace, kind):
    result = _run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = _registered(kind)
    assert list(result["metrics"]) == list(registered)
    for name, value in result["metrics"].items():
        assert value["unit"] == registered[name][0]
        assert isinstance(value["value"], float)


def test_same_seed_same_inputs(tmp_path):
    a, b, c = (SmallFrames(s, str(tmp_path)) for s in (5, 5, 6))
    assert a.sha256 == b.sha256 != c.sha256


def test_corrupted_output_is_counted(monkeypatch, tmp_path):
    from gframes import frames

    wl = SmallFrames(1, str(tmp_path))
    clean = worker.measure(wl, wl.run, rounds=1)
    assert clean["problems"] == {} and len(clean["times"]) == 2

    real = frames.frame_bounds

    def corrupted(F, *args, **kwargs):
        return dataclasses.replace(real(F, *args, **kwargs),
                                   upper=real(F, *args, **kwargs).upper * (1.0 + 1e-8))

    monkeypatch.setattr(frames, "frame_bounds", corrupted)
    bad = worker.measure(wl, wl.run, rounds=1)
    assert len(bad["times"]) == 2 and len(bad["problems"]) == 2
    assert all("frame_bounds: bounds" in p for p in bad["problems"].values())


def test_corrupted_cli_report_is_counted(tmp_path):
    wl = W.CliMix(2, str(tmp_path))
    case = next(c for c in wl.items if c.label == "classify-f8")
    out = wl.run_in_process(case)
    assert wl.check(case, out) == []
    doc = json.loads(out["stdout"])
    doc["bounds"]["upper"] *= 1.0 + 1e-8
    assert wl.check(case, dict(out, stdout=json.dumps(doc).encode()))
    assert wl.check(case, dict(out, code=1))


@pytest.mark.parametrize("cls", [SmallFrames, SmallCoherent])
def test_tracing_changes_no_output_and_unwinds(cls, tmp_path):
    import gframes
    from gframes import duality, frames, linalg

    originals = (frames.classify, duality.classify, gframes.classify, linalg.fro,
                 frames.fro, np.linalg.eigh, np.linalg.svd)
    wl = cls(4, str(tmp_path))
    plain = [wl.fingerprint(wl.run(case)) for case in wl.items]

    tr = T.Tracer()
    tr.install()
    assert hasattr(duality.classify, "__perfbench_original__")
    assert duality.classify is frames.classify is gframes.classify
    traced, walls = [], []
    for i, case in enumerate(wl.items):
        tr.begin_case(i)
        t = worker.perf_counter()
        out = wl.run(case)
        walls.append(worker.perf_counter() - t)
        tr.end_case()
        assert wl.check(case, out) == []
        traced.append(wl.fingerprint(out))
    assert tr.uninstall() == []
    assert (frames.classify, duality.classify, gframes.classify, linalg.fro,
            frames.fro, np.linalg.eigh, np.linalg.svd) == originals
    assert traced == plain

    layers = {s[T.LAYER] for s in tr.spans}
    assert {"linalg", "frames", T.NUMPY} <= layers
    assert "duality" in layers if cls is SmallFrames else "coherent" in layers
    for i, self_s in T.case_self_times(tr.spans).items():
        assert 0.0 < self_s <= walls[i]
    metrics = T.layer_metrics(tr.spans, len(wl.items))
    assert metrics["linalg.eigh.calls"] > 0 and metrics["frames.calls"] > 0


def test_traced_cli_main_records_cli_layer(tmp_path):
    wl = W.CliMix(2, str(tmp_path))
    case = next(c for c in wl.items if c.label == "all-f8")
    tr = T.Tracer()
    tr.install()
    tr.begin_case(0)
    out = wl.run_in_process(case)
    tr.end_case()
    assert tr.uninstall() == []
    assert wl.check(case, out) == []
    m = T.layer_metrics(tr.spans, 1)
    assert m["cli.main_s"] > 0 and m["cli.self_s"] > 0 and m["frame_io.parse_s"] > 0
    assert m["cli.self_s"] < m["cli.main_s"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0 and proc.stdout == ""
