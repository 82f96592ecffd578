"""The benchmark's own tests, at the tiny size.

Run from the repository root with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import bench_workloads as bw  # noqa: E402
import run as runner  # noqa: E402
from bench_trace import per_layer_metric_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(result, meta) of a tiny run of every workload, untraced and traced."""
    cache = {}

    def get(workload: str, trace: bool):
        if (workload, trace) not in cache:
            out = tmp_path_factory.mktemp("bench")
            cache[workload, trace] = runner.run(
                workload, seed=3, seconds=0, trace=trace, size=bw.TINY, out_base=out)
        return cache[workload, trace]

    return get


def test_spec_names_the_runner_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOAD_NAMES)
    assert list(runner.WORKLOAD_NAMES) == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_metric_units()


@pytest.mark.parametrize("workload", runner.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tiny_runs, workload, trace):
    result, meta = tiny_runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert meta["units"] >= 2  # repeats reproduced the first unit's digest
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", runner.WORKLOAD_NAMES)
def test_traced_count_invariants_hold(tiny_runs, workload):
    result, meta = tiny_runs(workload, True)
    inv = meta["invariants"]
    assert inv and all(inv.values()), inv
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["plant.rk4_step.calls"] == 3 * m["env.step.calls"] > 0
    if workload == "pid-tune":
        assert m["pid.pid_output.calls"] == m["env.step.calls"]
        assert m["neural.forward_cached.calls"] == m["ppo.update_networks.calls"] == 0
    if workload == "smdp-train":
        assert m["env.steps_per_decision"] > 1.0
        assert m["cgmetppo.smdp_update.calls"] == m["ppo.update_networks.calls"] >= 1


def _tamper(path: Path) -> None:
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
        key = next(k for k, a in arrays.items() if a.dtype == np.float64 and a.size)
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] += 1e-12
        np.savez(path, **arrays)
    else:
        text = path.read_text()
        i = next(i for i, ch in enumerate(text) if ch.isdigit())
        path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


@pytest.mark.parametrize("workload", runner.WORKLOAD_NAMES)
def test_tampered_output_copy_is_reported_as_failure(tmp_path, workload):
    job = bw.WORKLOADS[workload](3, bw.TINY, tmp_path / "setup")
    result = job.run(tmp_path / "a")
    reference = job.output(tmp_path / "a").digest
    for k, target in enumerate(job.digest_files(tmp_path / "a")):
        copy = tmp_path / f"copy{k}"
        shutil.copytree(tmp_path / "a", copy)
        assert job.output(copy).digest == reference
        _tamper(copy / target.relative_to(tmp_path / "a"))
        unit = runner.UnitRun(copy, 1.0, 0, 1, 0, result, job.output(copy))
        failed, problems, _ = runner.check_units(job, [unit], reference)
        assert failed >= 1 and any("digest" in p for p in problems), target
    (job.digest_files(tmp_path / "a")[0]).unlink()
    with pytest.raises(bw.OutputCheckError):
        job.output(tmp_path / "a")


def test_without_library_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pid-tune",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
