"""Time one benchmark set-up in a fresh interpreter.

Set-up is everything a run pays before its first unit of work: importing
the library (and numpy), loading the cohort with its basal verification,
building the config and constructing the trainer and networks. The clock
starts before the first import. Prints the seconds as the last line.

    python3 perfbench/setup_probe.py --workload smdp-train --seed 0 --workdir DIR
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main() -> None:
    parser = argparse.ArgumentParser(description="time one benchmark set-up")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    import bench_workloads

    bench_workloads.WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
