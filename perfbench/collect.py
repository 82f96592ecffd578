"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline/end_to_end.json

Runs ``run.py`` once per (workload, seed), one after another, and records
every result line and its metadata. For each metric it reports the median
and the spread, the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) over the median, beside
the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace)
                for s in parse_seeds(args.seeds)]
        summary = summarise(runs, bounds)
        report[workload] = {"summary": summary, "runs": runs}
        bad = [r["seed"] for r in runs if not r["result"]["correct"]]
        print(f"{workload}: {len(runs)} runs, incorrect seeds {bad}")
        for name, s in summary.items():
            if args.trace == 0 or name.startswith(("trace.", "env.step.")):
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:24s} median {s['median']:.6g}  spread {spread}"
                      f"  bound {s['bound']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
