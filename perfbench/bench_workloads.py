"""The benchmark's workloads, driven only through the library's public functions.

Each workload turns a seed into a config, sets up (cohort load with basal
verification, config build, trainer/net construction) and then runs one
*unit* of work into a fresh output directory. A unit is deterministic given
the seed, so every repeat of it must leave outputs with the same digest.

Two sizes exist: ``full`` is what the benchmark measures, ``tiny`` is the
warm-up before timing and the size the benchmark's own tests run at.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from etglucose import config, harness, patients, pid, scenario, seeding
from etglucose.metrics import aurr, ecf, tir

METHODS = ("pid", "ppo", "hetppo", "cgmetppo-fixed", "cgmetppo-variable")
TRAIN_PATIENT = "adult#001"  # the patient of the packaged per-method configs
SWEEP_PATIENTS = ("adult#001", "adult#002")

FULL, TINY = "full", "tiny"
SETUP_REPEATS = {FULL: 5, TINY: 1}
# A run times at least MIN_UNITS units (so repeats can be compared) and the
# workload's min_episodes episodes. The latter fixes the tail percentile
# (the highest one with >= 10 episodes beyond it at that count), so it is
# the same on every run and every commit.
MIN_UNITS = 2


@dataclass(frozen=True)
class UnitOutput:
    digest: str
    bytes_written: int


@dataclass(frozen=True)
class Quality:
    tir_pct: float
    ecf_pct: float
    aurr_pct: float


class OutputCheckError(RuntimeError):
    """A unit's outputs are missing, malformed or inconsistent."""


# ---------------------------------------------------------------------------
# Digests


def npz_digest(path: Path) -> str:
    """Digest of a .npz's arrays (names, dtypes, shapes, bytes).

    The zip container embeds each member's write time, so the file bytes
    of two identical checkpoints differ; their contents must not.
    """
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for key in sorted(npz.files):
            arr = np.ascontiguousarray(npz[key])
            h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def files_digest(root: Path, files: list[Path]) -> str:
    """One digest over the given output files, keyed by relative path."""
    h = hashlib.sha256()
    for path in sorted(files):
        content = (npz_digest(path) if path.suffix == ".npz"
                   else hashlib.sha256(path.read_bytes()).hexdigest())
        h.update(f"{path.relative_to(root).as_posix()}|{content}\n".encode())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _read_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OutputCheckError(what)


# ---------------------------------------------------------------------------
# Workloads


def _write_config(workdir: Path, mapping: dict) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(mapping, fh, sort_keys=True)
    return path


class Workload:
    """Base: a seed-derived config, a set-up, a unit and its output checks."""

    name = ""
    min_episodes: dict[str, int] = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        """Set up: cohort load + basal verification, config build, trainer."""
        self.seed = seed
        self.size = size
        self.cohort = patients.default_cohort()
        names = [p.name for p in self.cohort]
        self.cfg = self.load(_write_config(workdir, self.mapping(names)))
        self.prepare()

    def mapping(self, names: list[str]) -> dict:
        raise NotImplementedError

    def load(self, path: Path):
        return config.load_config(path)

    def prepare(self) -> None:
        """Workload-specific construction done once in set-up."""

    def run(self, out: Path):
        raise NotImplementedError

    def digest_files(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def quality(self, out: Path, result) -> Quality:
        """Result quality; also checks the outputs for consistency."""
        raise NotImplementedError

    @property
    def tail_pct(self) -> float:
        return max(50.0, 100.0 * (1.0 - 10.0 / self.min_episodes[self.size]))

    @property
    def episode_cfg(self):
        return self.cfg.episode

    def output(self, out: Path) -> UnitOutput:
        files = self.digest_files(out)
        for f in files:
            _require(f.is_file(), f"missing output {f.relative_to(out)}")
        return UnitOutput(files_digest(out, files), tree_bytes(out))

    def _patient(self):
        return patients.get_patient(self.cfg.patient, self.cohort)


class PidTune(Workload):
    name = "pid-tune"
    min_episodes = {FULL: 450, TINY: 20}

    def mapping(self, names):
        m = {"method": "pid", "patient": random.Random(self.seed).choice(names),
             "seeds": [self.seed]}
        if self.size == TINY:
            m["episode"] = {"horizon": 20}
            m["pid_grid"] = {"kp": [0.0009, 0.0017], "ki": [0.0], "kd": [0.01]}
        return m

    def run(self, out):
        return harness.tune_pid(self.cfg, out, seeds=(self.seed,))

    def _gains_file(self, out):
        return harness.run_dir(out, self.cfg, self.seed) / "gains.yaml"

    def digest_files(self, out):
        return [self._gains_file(out)]

    def quality(self, out, result):
        gains, score = result
        _require(harness.load_gains(self._gains_file(out)) == gains,
                 "gains.yaml does not hold the returned gains")
        grid = self.cfg.pid_grid
        _require(gains.kp in grid.kp and gains.ki in grid.ki and gains.kd in grid.kd,
                 f"tuned gains {gains} are not on the grid")
        # Greedy re-roll of the tuned gains must reproduce the search score.
        recs = [
            pid.run_pid_episode(
                self._patient(), gains, sc, seeding.eval_noise_stream(i),
                self.cfg.episode, self.cfg.sensor, self.cfg.pump,
            )
            for i, sc in enumerate(scenario.default_eval_scenarios())
        ]
        tir_mean = float(np.mean([tir(r) for r in recs]))
        _require(tir_mean == score,
                 f"re-rolled mean TIR {tir_mean!r} != search score {score!r}")
        return Quality(tir_mean, float(np.mean([ecf(r) for r in recs])),
                       float(np.mean([aurr(r) for r in recs])))


class SmdpTrain(Workload):
    """run_train of cgmetppo-variable on TRAIN_PATIENT, master seed = the seed."""

    name = "smdp-train"
    min_episodes = {FULL: 200, TINY: 6}

    def mapping(self, names):
        m = {"method": "cgmetppo-variable", "patient": TRAIN_PATIENT,
             "seeds": [self.seed], "episodes": 32}
        if self.size == TINY:
            m.update({"episodes": 3, "episode": {"horizon": 60},
                      "hyper": {"buffer_size": 8, "minibatch": 4, "epochs": 1}})
        return m

    def prepare(self):
        self.trainer = harness.build_trainer(self.cfg, self._patient(), self.seed)

    def run(self, out):
        return harness.run_train(self.cfg, out, seeds=(self.seed,))

    def digest_files(self, out):
        rd = harness.run_dir(out, self.cfg, self.seed)
        return [rd / "train_log.csv", rd / "checkpoint.npz"]

    def quality(self, out, result):
        rd = harness.run_dir(out, self.cfg, self.seed)
        rows = _read_rows(rd / "train_log.csv")
        _require([int(r["episode"]) for r in rows] == list(range(self.cfg.episodes)),
                 "train_log.csv does not list every episode once")
        decisions = sum(int(r["K"]) for r in rows)
        n_updates = len(_read_rows(rd / "updates.csv"))
        _require(n_updates == decisions // self.cfg.hyper.buffer_size,
                 f"updates.csv has {n_updates} rows for {decisions} decisions "
                 f"at buffer size {self.cfg.hyper.buffer_size}")
        method, _policy, _vnet, _pin = harness.load_policy(rd / "checkpoint.npz")
        _require(method == self.cfg.method, f"checkpoint method {method!r}")
        return Quality(*(float(np.mean([float(r[k]) for r in rows]))
                         for k in ("tir", "ecf", "aurr")))


class MatrixSweep(Workload):
    name = "matrix-sweep"
    min_episodes = {FULL: 200, TINY: 20}

    def mapping(self, names):
        m = {
            "matrix": {"methods": list(METHODS), "patients": list(SWEEP_PATIENTS)},
            "seeds": [self.seed],
            "checkpoint_every": 1,
        }
        if self.size == FULL:
            m.update({
                "episodes": 2,
                "episode": {"horizon": 480},
                "hyper": {"buffer_size": 32, "minibatch": 16, "epochs": 2},
                "pid_grid": {"kp": [0.0009, 0.0017], "ki": [0.0], "kd": [0.0, 0.01]},
            })
        else:
            m.update({
                "episodes": 1,
                "episode": {"horizon": 20},
                "hyper": {"buffer_size": 8, "minibatch": 4, "epochs": 1},
                "pid_grid": {"kp": [0.0017], "ki": [0.0], "kd": [0.01]},
            })
        return m

    def load(self, path):
        return config.load_matrix_config(path)

    def prepare(self):
        self.configs = self.cfg.configs()

    @property
    def episode_cfg(self):
        return self.configs[0].episode

    def run(self, out):
        return harness.run_matrix(self.cfg, out)

    def digest_files(self, out):
        return [harness.run_dir(out, c, self.seed) / "metrics.csv"
                for c in self.configs] + [out / "summary.csv"]

    def quality(self, out, result):
        for c in self.configs:
            rows = _read_rows(harness.run_dir(out, c, self.seed) / "metrics.csv")
            _require([r["scenario"] for r in rows] == ["0", "1", "2", "3", "4", "mean"],
                     f"metrics.csv of {c.method}/{c.patient} lacks scenario rows")
        rows = _read_rows(out / "summary.csv")
        _require(len(rows) == 3 * len(self.configs),
                 f"summary.csv has {len(rows)} rows for {len(self.configs)} runs")
        means = {m: float(np.mean([float(r["mean"]) for r in rows if r["metric"] == m]))
                 for m in ("tir", "ecf", "aurr")}
        return Quality(means["tir"], means["ecf"], means["aurr"])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PidTune, SmdpTrain, MatrixSweep)
}
