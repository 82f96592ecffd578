"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload smdp-train --seed 3 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run. The line before it is ``{"meta": {...}}``: machine,
versions, BLAS threads, git sha, warm-up policy, source line count, output
digest and the sample counts behind each figure.

The program is imported from ``src/`` beside this directory, never from an
installed copy; without it the script exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_NAME = ".perfbench_out"  # scratch outputs and span dumps, under the root
WORKLOAD_NAMES = ("pid-tune", "smdp-train", "matrix-sweep")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 32
BLAS_THREADS = 1  # fixed; small matrices run best and steadiest single-threaded
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HARD_STOP_S = 150.0  # start no new unit after this, so a run ends within 180 s
WARMUP_POLICY = "one untimed tiny-size unit of the same workload before timing"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "decisions_per_s": "decisions/s",
    "episode_ms_p50": "ms",
    "episode_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "tir_pct": "%",
    "ecf_pct": "%",
}


def pin_blas_threads() -> None:
    """Fix the BLAS pool size; must run before numpy is first imported."""
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def check_program(root: Path) -> str | None:
    """An error message when the library sources are not beside the benchmark."""
    if not (root / "src" / "etglucose" / "__init__.py").is_file():
        return f"no library sources at {root / 'src' / 'etglucose'}"
    return None


# ---------------------------------------------------------------------------
# Run metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    """HEAD's sha read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_bytes().splitlines())
        for p in sorted((root / "src" / "etglucose").glob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": _git_sha(root),
        "warmup": WARMUP_POLICY,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(workload: str, seed: int, size: str, repeats: int,
                  workdir: Path) -> list[float]:
    """Set-up seconds of `repeats` fresh interpreters, run one after another."""
    samples = []
    for k in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload",
             workload, "--seed", str(seed), "--size", size,
             "--workdir", str(workdir / f"probe{k}")],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class UnitRun:
    """One timed unit: wall time, its episodes and its output check."""

    def __init__(self, out: Path, wall: float, first_ep: int, last_ep: int,
                 raised: int, result=None, output=None, error: str | None = None):
        self.out = out
        self.wall = wall
        self.episodes = slice(first_ep, last_ep)
        self.raised = raised
        self.result = result
        self.output = output
        self.error = error


def run_units(job, work: Path, probe, budget_s: float, min_units: int,
              min_episodes: int, tracer=None, tag: str = "u") -> list[UnitRun]:
    """Run units until both minimums are met and the budget is used.

    A further unit starts only if at least half of it (at the median unit
    time so far) fits in the budget, so a run ends within about half a
    unit of it.
    """
    from bench_trace import ROOT_UNIT

    runs: list[UnitRun] = []
    t_begin = time.perf_counter()
    while True:
        out = work / f"{tag}{len(runs)}"
        first, raised0 = probe.mark(), probe.raised
        result = error = output = None
        if tracer is not None:
            tracer.install()
            root_span = tracer.open_root(ROOT_UNIT)
        t0 = time.perf_counter()
        try:
            result = job.run(out)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.close_root(root_span)
            tracer.uninstall()
        if error is None:
            try:
                output = job.output(out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"unit {out.name} failed:\n{error}", file=sys.stderr)
        runs.append(UnitRun(out, wall, first, probe.mark(), probe.raised - raised0,
                            result, output, error))
        if len(runs) > 1:  # keep the first unit's outputs for the quality check
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - t_begin
        episodes = probe.mark() - runs[0].episodes.start
        half_unit = 0.5 * statistics.median(r.wall for r in runs)
        if elapsed >= HARD_STOP_S or (
            elapsed + half_unit >= budget_s and len(runs) >= min_units
            and episodes >= min_episodes
        ):
            return runs


def check_units(job, runs: list[UnitRun],
                reference: str | None) -> tuple[int, list[str], object]:
    """(failed count, failure messages, quality) for a set of unit runs.

    Every repeat must reproduce the first unit's digest, which must equal
    the recorded reference when there is one; the first unit's outputs are
    also checked for consistency and scored.
    """
    failed = sum(r.raised for r in runs)
    problems = []
    digests = [r.output.digest if r.output else None for r in runs]
    want = reference or digests[0]
    for run, got in zip(runs, digests):
        if run.error is not None:
            problems.append(f"unit {run.out.name} raised")
            failed += 0 if run.raised else 1
        elif got != want:
            problems.append(f"unit {run.out.name} digest {got} != {want}")
            failed += 1
    quality = None
    if runs[0].error is None:
        try:
            quality = job.quality(runs[0].out, runs[0].result)
        except Exception as exc:
            problems.append(f"output check: {exc}")
            failed += 1
    return failed, problems, quality


def _median_rate(runs: list[UnitRun], counts: list[int]) -> float:
    return statistics.median(
        sum(counts[r.episodes]) / r.wall for r in runs
    )


def end_to_end(job, probe, runs, setup_samples, quality) -> dict[str, float]:
    import numpy as np

    timed = slice(runs[0].episodes.start, runs[-1].episodes.stop)
    episode_ms = np.asarray(probe.seconds[timed]) * 1e3
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.wall for r in runs),
        "steps_per_s": _median_rate(runs, probe.steps),
        "decisions_per_s": _median_rate(runs, probe.decisions),
        "episode_ms_p50": float(np.median(episode_ms)),
        "episode_ms_tail": float(np.percentile(episode_ms, job.tail_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tir_pct": quality.tir_pct if quality else 0.0,
        "ecf_pct": quality.ecf_pct if quality else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(job, tracer, setup_span_end: int, traced_from: int,
              plain: list[UnitRun], traced: list[UnitRun],
              probe) -> tuple[dict, list[str], dict[str, bool]]:
    """Per-layer metrics for one set-up plus one unit, problems, invariants."""
    from bench_trace import SPAN_NAMES, per_layer_metric_units

    problems = []
    n = len(traced)
    s_calls, s_self = tracer.summarize(0, setup_span_end)
    u_calls, u_self = tracer.summarize(traced_from, len(tracer))
    calls, self_s = {}, {}
    for name in SPAN_NAMES:
        i = tracer.names.index(name)
        if u_calls[i] % n:
            problems.append(f"{name}: {u_calls[i]} calls over {n} identical units")
        calls[name] = int(s_calls[i]) + int(u_calls[i]) // n
        self_s[name] = float(s_self[i] + u_self[i] / n)

    decisions_per_unit = sum(probe.decisions[traced[0].episodes])
    substeps = job.episode_cfg.substeps
    invariants = {
        "plant.rk4_step.calls == substeps * env.step.calls":
            calls["plant.rk4_step"] == substeps * calls["env.step"],
    }
    if job.name == "pid-tune":
        invariants["pid.pid_output.calls == env.step.calls"] = (
            calls["pid.pid_output"] == calls["env.step"])
    if job.name == "smdp-train":
        # One update per full buffer of decisions; per-step PPO is the case
        # where every hold lasts one step, so decisions are steps.
        invariants["ppo.update_networks.calls == decisions // buffer_size"] = (
            calls["ppo.update_networks"]
            == decisions_per_unit // job.cfg.hyper.buffer_size)
    problems += [f"invariant failed: {k}" for k, ok in invariants.items() if not ok]

    c = tracer.counters
    derived = {
        "env.steps_per_decision":
            calls["env.step"] / (c["env.decisions"] / n) if c["env.decisions"] else 0.0,
        "ppo.minibatches": c["ppo.minibatches"] / n,
        "cgmetppo.steps_per_update":
            c["cgmetppo.buffer_steps"] / (n * calls["cgmetppo.smdp_update"])
            if calls["cgmetppo.smdp_update"] else 0.0,
        "harness.bytes_written": traced[0].output.bytes_written if traced[0].output else 0,
        "trace.overhead_pct": 100.0 * (
            statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in plain) - 1.0),
    }
    units = per_layer_metric_units()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics.update(derived)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            problems, invariants)


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", out_base: Path = ROOT / OUT_NAME) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, metadata).

    Scratch outputs go to a per-process directory under `out_base`, which is
    removed at the end; a traced run leaves its spans there as
    trace_<workload>.npz.
    """
    # Imported here, not at the top: they load numpy, which must come after
    # pin_blas_threads().
    import bench_workloads as bw
    from bench_trace import ROOT_SETUP, EpisodeProbe, Tracer

    cls = bw.WORKLOADS[workload]
    work = out_base / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "size": size, **run_metadata(ROOT)}
    problems: list[str] = []
    try:
        setup_samples = [] if trace else measure_setup(
            workload, seed, size, bw.SETUP_REPEATS[size], work)
        with EpisodeProbe() as probe:
            tracer = Tracer() if trace else None
            if tracer is not None:
                tracer.install()
                span = tracer.open_root(ROOT_SETUP)
            job = cls(seed, size, work / "setup")
            if tracer is not None:
                tracer.close_root(span)
                tracer.uninstall()
                setup_span_end = len(tracer)
            warm = cls(seed, bw.TINY, work / "warmup-setup")
            warm.run(work / "warmup")
            if trace:
                plain = run_units(job, work, probe, seconds / 2, 1, 0, tag="p")
                traced_from = len(tracer)
                traced = run_units(job, work, probe, seconds / 2, 1, 0,
                                   tracer=tracer, tag="t")
                runs = plain + traced
            else:
                runs = run_units(job, work, probe, seconds, bw.MIN_UNITS,
                                 job.min_episodes[size])
            reference = None
            if seed == DEFAULT_SEED and size == bw.FULL:
                refs = json.loads((BENCH_DIR / "reference.json").read_text())
                reference = refs["digests"].get(workload)
                if reference is None:
                    problems.append(f"no reference digest recorded for {workload}")
            failed, unit_problems, quality = check_units(job, runs, reference)
            problems += unit_problems
            timed_eps = runs[-1].episodes.stop - runs[0].episodes.start
            attempted = timed_eps + sum(r.raised for r in runs)
            if trace:
                metrics, trace_problems, invariants = per_layer(
                    job, tracer, setup_span_end, traced_from, plain, traced, probe)
                problems += trace_problems
                failed += len(trace_problems)
                meta["invariants"] = invariants
                meta["spans"] = len(tracer)
                tracer.dump(out_base / f"trace_{workload}.npz")
            else:
                metrics = end_to_end(job, probe, runs, setup_samples, quality)
        first = runs[0].episodes
        meta.update({
            "units": len(runs),
            "unit_wall_s": [r.wall for r in runs],
            "unit_steps": sum(probe.steps[first]),
            "unit_decisions": sum(probe.decisions[first]),
            "episodes": timed_eps,
            "episode_ms_tail_pct": job.tail_pct,
            "episodes_beyond_tail": timed_eps * (1.0 - job.tail_pct / 100.0),
            "setup_s_samples": setup_samples,
            "digest": runs[0].output.digest if runs[0].output else None,
            "reference_digest": reference,
            "aurr_pct": quality.aurr_pct if quality else None,
            "failed_pct": 100.0 * failed / max(attempted, 1),
            "problems": problems,
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not problems and failed == 0,
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    problem = check_program(ROOT)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
