"""Run orchestration: training, greedy evaluation, tuning, sweeps.

Directory layout under the output base:

    <method>/<patient>/seed_<s>/
        checkpoint.npz        final parameters + optimizer state (RL methods)
        checkpoint_ep<N>.npz  periodic checkpoints when configured
        gains.yaml            tuned gains (pid)
        train_log.csv         per-episode training statistics
        updates.csv           per-update optimizer diagnostics
        metrics.csv           per-scenario evaluation metrics + mean row
        eval_trace_scen<i>.csv  per-step evaluation traces with meal rates
        hist.csv              (interval-average CGM, threshold) counts at
                              bin centers

Every file above is written through write_atomic, so an interrupted run
leaves either the previous file or the new one.

Evaluation always runs the policy greedily (Gaussian mean, event iff
p >= 1/2) on the five fixed scenarios under fixed sensor-noise streams,
so a (config, seed) pair maps to byte-identical metrics.csv content.
"""
from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager
from numbers import Real
from pathlib import Path

import numpy as np
import yaml

from .cgmetppo import ETA_HI, ETA_LO, CgmEtppoTrainer, FixedCgmEtppoTrainer
from .config import ConfigError, ExperimentConfig, MatrixConfig
from .env import HYPER_MGDL, STEP_MINUTES, ApEnv, rollout
from .hetppo import HetppoTrainer, event_decide
from .metrics import METRICS, aggregate, aurr, ecf, interval_averages, tir
from .neural import (
    GaussianPolicy,
    Mlp,
    load_checkpoint,
    pack_mlp,
    pack_opt,
    save_checkpoint,
    unpack_mlp,
    whole,
)
from .patients import get_patient
from .pid import PidGains, grid_search_pid, pid_decider
from .ppo import PpoTrainer, greedy_decide
from .scenario import default_eval_scenarios, meal_rate_at
from .seeding import RngBundle, eval_noise_stream

log = logging.getLogger(__name__)

TRACE_HEADER = "step,t_min,y,u,event,eta,meal_mg_min"
METRICS_HEADER = "patient,method,seed,scenario,ecf,tir,aurr"
# Histogram bins for the (interval-average CGM, threshold) counts. An
# interval averages CGM values that did not end the episode, all inside
# (HYPO_MGDL, HYPER_MGDL), so every interval lands in a bin.
CGM_HIST_EDGES = np.arange(0.0, HYPER_MGDL + 1.0, 20.0)
ETA_HIST_EDGES = np.arange(ETA_LO, ETA_HI + 1.0, 1.0)


def write_atomic(path: Path, write, binary: bool = False) -> None:
    """Write path through write(fh) on a temporary file beside it, then
    rename it into place, so an interrupted write never leaves a partial
    file behind. binary opens the temporary file in bytes mode.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb" if binary else "w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def naming_run(cfg: ExperimentConfig, seed: int, where: str):
    """Note the run and where in it on an exception, which keeps its type."""
    try:
        yield
    except Exception as exc:
        exc.add_note(f"in {cfg.method} on {cfg.patient}, seed {seed}, {where}")
        raise


def patient_slug(name: str) -> str:
    return name.replace("#", "-")


def run_dir(out_base: str | Path, cfg: ExperimentConfig, seed: int) -> Path:
    return Path(out_base) / cfg.method / patient_slug(cfg.patient) / f"seed_{seed}"


def resolve_patient(cfg: ExperimentConfig):
    try:
        return get_patient(cfg.patient)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None


# The learning methods' table: each trainer class, which also holds its
# policy's widths, under its method name.
TRAINERS = {cls.method: cls for cls in (PpoTrainer, HetppoTrainer,
                                        FixedCgmEtppoTrainer, CgmEtppoTrainer)}


def build_trainer(cfg: ExperimentConfig, patient, seed: int):
    cls = TRAINERS[cfg.method]
    triggered = (dict(trigger=cfg.trigger, r1_only=cfg.r1_only)
                 if issubclass(cls, CgmEtppoTrainer) else {})
    return cls(patient, RngBundle.from_master(seed), hyper=cfg.hyper,
               episode_cfg=cfg.episode, sensor=cfg.sensor, pump=cfg.pump,
               **triggered)


# ---------------------------------------------------------------------------
# Checkpoints


def trainer_arrays(trainer) -> dict[str, np.ndarray]:
    arrays = pack_mlp("policy", trainer.policy.net)
    arrays["policy_log_std"] = trainer.policy.log_std
    arrays.update(pack_mlp("value", trainer.vnet))
    arrays.update(pack_opt(trainer.opt, {"opt_policy": trainer.policy.params(),
                                         "opt_value": trainer.vnet.params()}))
    # A fixed 0, kept so the checkpoint format stays as it was.
    arrays["pin_events"] = np.asarray(0, dtype=np.int64)
    return arrays


def save_trainer(trainer, path: Path) -> None:
    # np.savez appends ".npz" to a path without it, so it gets the open file.
    arrays = trainer_arrays(trainer)
    write_atomic(path, lambda fh: save_checkpoint(fh, trainer.method, arrays),
                 binary=True)


def load_policy(path: Path) -> tuple[str, GaussianPolicy, Mlp, bool]:
    """Rebuild (method, policy, value net, pin_events) from a checkpoint.

    The policy's widths must be its trainer's; every net reads the 2-wide
    observation, and the value net has one output. pin_events is always
    False: a checkpoint with pin_events 1 came from a hetppo run without
    its event head, which is a ppo run, and is refused.
    """
    method, data = load_checkpoint(path)
    try:
        if "pin_events" in data and whole(data, "pin_events"):
            raise ValueError("checkpoint of a pinned hetppo run (pin_events 1), "
                             "which is per-step PPO; retrain it with method: ppo")
        if method not in TRAINERS:
            raise ValueError(f"unknown method {method!r}")
        policy = GaussianPolicy(unpack_mlp("policy", data),
                                np.array(data["policy_log_std"], dtype=float))
        vnet = unpack_mlp("value", data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n_out, n_std = TRAINERS[method].widths
    for name, net, n in (("policy", policy.net, n_out), ("value", vnet, 1)):
        if (net.sizes[0], net.sizes[-1]) != (2, n):
            raise ValueError(f"{path}: {name} net maps {net.sizes[0]} inputs to "
                             f"{net.sizes[-1]} outputs, expected 2 to {n} for {method}")
    if policy.log_std.shape != (n_std,):
        raise ValueError(f"{path}: policy_log_std has shape {policy.log_std.shape}, "
                         f"expected ({n_std},) for {method}")
    return method, policy, vnet, False


# ---------------------------------------------------------------------------
# Greedy evaluation rollouts, one entry point per controller over the one
# loop env.rollout. Each returns (EpisodeRecord, trace rows); a trace row
# is (step, t_min, y, u, event, eta_text, meal) with y the CGM the step's
# command was decided on, eta_text the threshold in force ("" untriggered)
# and meal the scenario's carbohydrate rate at t_min.


def _roll(patient, scenario, noise_rng, cfg: ExperimentConfig, decide):
    env = ApEnv(patient, cfg.episode, cfg.sensor, cfg.pump)
    rec = rollout(env, env.reset(scenario, noise_rng), decide)
    etas = [""] * rec.T
    if rec.thresholds is not None:
        # Interval k's threshold covers steps [h_k, h_{k+1}).
        bounds = rec.update_times + (rec.T,)
        for k, eta in enumerate(rec.thresholds):
            etas[bounds[k]:bounds[k + 1]] = [f"{eta:.6f}"] * (bounds[k + 1] - bounds[k])
    return rec, [
        (h, h * STEP_MINUTES, env.y_trace[h], env.u_trace[h], env.event_trace[h],
         etas[h], meal_rate_at(h * STEP_MINUTES, scenario))
        for h in range(rec.T)
    ]


def roll_pid(patient, gains: PidGains, scenario, noise_rng, cfg: ExperimentConfig):
    return _roll(patient, scenario, noise_rng, cfg, pid_decider(gains, cfg.pump))


def roll_ppo(patient, policy: GaussianPolicy, scenario, noise_rng,
             cfg: ExperimentConfig):
    return _roll(patient, scenario, noise_rng, cfg,
                 lambda obs: greedy_decide(policy, obs, cfg.pump))


def roll_hetppo(patient, policy: GaussianPolicy, scenario, noise_rng,
                cfg: ExperimentConfig):
    return _roll(patient, scenario, noise_rng, cfg,
                 lambda obs: event_decide(policy, obs, cfg.pump))


def roll_cgmetppo(patient, policy: GaussianPolicy, scenario, noise_rng,
                  cfg: ExperimentConfig):
    return _roll(patient, scenario, noise_rng, cfg,
                 lambda obs: greedy_decide(policy, obs, cfg.pump, cfg.trigger))


# ---------------------------------------------------------------------------
# PID tuning


def tune_pid(cfg: ExperimentConfig, out_base: str | Path,
             seeds: tuple[int, ...] | None = None) -> tuple[PidGains, float]:
    """Grid-search gains for the configured patient; saves gains.yaml.

    The same gains are written to every seed directory (the search is
    deterministic and seed-free) so that evaluation finds them in place.
    """
    patient = resolve_patient(cfg)
    scenarios = default_eval_scenarios()
    gains, score = grid_search_pid(patient, scenarios, cfg.pid_grid,
                                   cfg.episode, cfg.sensor, cfg.pump)
    payload = {
        "kp": gains.kp, "ki": gains.ki, "kd": gains.kd, "target": gains.target,
        "mean_tir": round(score, 6),
    }
    for seed in seeds if seeds is not None else cfg.seeds:
        rd = run_dir(out_base, cfg, seed)
        rd.mkdir(parents=True, exist_ok=True)
        write_atomic(rd / "gains.yaml",
                     lambda fh: yaml.safe_dump(payload, fh, sort_keys=True))
    log.info("tuned pid for %s: %s (mean TIR %.2f)", cfg.patient, gains, score)
    return gains, score


def load_gains(path: Path) -> PidGains:
    if not path.exists():
        raise FileNotFoundError(f"no tuned gains at {path}; run train on a pid config")
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: gains must be a mapping")
    for key in ("kp", "ki", "kd", "target"):
        value = raw.get(key)
        if not isinstance(value, Real) or isinstance(value, bool):
            raise ValueError(f"{path}: {key} must be a number, got {value!r}")
        # the gains follow PidGrid's rule; the target need only be finite
        gain = key != "target"
        if not math.isfinite(value) or (gain and value < 0.0):
            rule = "finite and non-negative" if gain else "finite"
            raise ValueError(f"{path}: {key} must be {rule}, got {value!r}")
    return PidGains(kp=raw["kp"], ki=raw["ki"], kd=raw["kd"], target=raw["target"])


# ---------------------------------------------------------------------------
# Train / eval entry points


def run_train(cfg: ExperimentConfig, out_base: str | Path,
              seeds: tuple[int, ...] | None = None) -> list[Path]:
    """Train (or tune) one method on one patient for each seed."""
    seeds = seeds if seeds is not None else cfg.seeds
    if cfg.method == "pid":
        tune_pid(cfg, out_base, seeds)
        return [run_dir(out_base, cfg, s) for s in seeds]
    patient = resolve_patient(cfg)
    dirs = []
    for seed in seeds:
        rd = run_dir(out_base, cfg, seed)
        rd.mkdir(parents=True, exist_ok=True)
        trainer = build_trainer(cfg, patient, seed)
        train_log = ["episode,steps,K,ret,ecf,tir,aurr\n"]
        update_episode = []  # the episode each update ran in
        for ep in range(cfg.episodes):
            with naming_run(cfg, seed, f"episode {ep}"):
                s = trainer.run_episode(ep)
                if cfg.checkpoint_every and (ep + 1) % cfg.checkpoint_every == 0:
                    save_trainer(trainer, rd / f"checkpoint_ep{ep + 1}.npz")
            update_episode += [ep] * (len(trainer.updates) - len(update_episode))
            train_log.append(
                f"{s.episode},{s.steps},{s.K},{s.ret:.6f},"
                f"{s.ecf:.6f},{s.tir:.6f},{s.aurr:.6f}\n"
            )
        write_atomic(rd / "train_log.csv", lambda fh: fh.writelines(train_log))
        updates = ["update,policy_objective,value_loss,entropy,"
                   "mean_ratio,clip_frac,minibatches,diverged\n"] + [
            f"{i},{u.policy_objective:.6f},{u.value_loss:.6f},"
            f"{u.entropy:.6f},{u.mean_ratio:.6f},{u.clip_frac:.6f},"
            f"{u.minibatches},{int(u.diverged)}\n"
            for i, u in enumerate(trainer.updates)
        ]
        write_atomic(rd / "updates.csv", lambda fh: fh.writelines(updates))
        save_trainer(trainer, rd / "checkpoint.npz")
        diverged = [f"{i} (episode {update_episode[i]})"
                    for i, u in enumerate(trainer.updates) if u.diverged]
        if diverged:
            log.warning("%s/%s seed %d: diverged updates %s",
                        cfg.method, cfg.patient, seed, ", ".join(diverged))
        log.info("trained %s/%s seed %d: %d episodes, %d updates",
                 cfg.method, cfg.patient, seed, cfg.episodes, len(trainer.updates))
        dirs.append(rd)
    return dirs


def eval_records(cfg: ExperimentConfig, patient, out_base: str | Path, seed: int):
    """Greedy records + traces for the five fixed scenarios of one run."""
    rd = run_dir(out_base, cfg, seed)
    if cfg.method == "pid":
        controller, roll = load_gains(rd / "gains.yaml"), roll_pid
    else:
        path = rd / "checkpoint.npz"
        if not path.exists():
            raise FileNotFoundError(f"no checkpoint at {path}; train first")
        method, controller, _vnet, _pin = load_policy(path)
        if method != cfg.method:
            raise ValueError(f"{path}: checkpoint method {method!r} does not "
                             f"match config method {cfg.method!r}")
        roll = (roll_hetppo if method == "hetppo" else
                roll_ppo if method == "ppo" else roll_cgmetppo)
    rolled = []
    for i, sc in enumerate(default_eval_scenarios()):
        with naming_run(cfg, seed, f"evaluation scenario {i}"):
            rolled.append(roll(patient, controller, sc, eval_noise_stream(i), cfg))
    return rolled


def run_eval(cfg: ExperimentConfig, out_base: str | Path) -> list[Path]:
    """Evaluate trained runs; writes metrics.csv, traces, histogram."""
    patient = resolve_patient(cfg)
    paths = []
    for seed in cfg.seeds:
        rd = run_dir(out_base, cfg, seed)
        rolled = eval_records(cfg, patient, out_base, seed)
        rows = []
        for i, (rec, trace) in enumerate(rolled):
            lines = [TRACE_HEADER + "\n"] + [
                f"{step},{t_min:.1f},{y:.6f},{u:.8f},{event},{eta},{meal:.1f}\n"
                for step, t_min, y, u, event, eta, meal in trace
            ]
            write_atomic(rd / f"eval_trace_scen{i}.csv",
                         lambda fh: fh.writelines(lines))
            rows.append({"scenario": str(i), "ecf": ecf(rec), "tir": tir(rec),
                         "aurr": aurr(rec)})
        mean_row = {
            "scenario": "mean",
            **{m: float(np.mean([r[m] for r in rows])) for m in METRICS},
        }
        path = rd / "metrics.csv"
        lines = [METRICS_HEADER] + [
            f"{cfg.patient},{cfg.method},{seed},{r['scenario']},"
            f"{r['ecf']:.6f},{r['tir']:.6f},{r['aurr']:.6f}"
            for r in rows + [mean_row]
        ]
        write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))
        if cfg.method == "cgmetppo-variable":
            counts = sum(np.histogram2d(*interval_averages(rec),
                                        bins=(CGM_HIST_EDGES, ETA_HIST_EDGES))[0]
                         for rec, _ in rolled)
            cgm_centers = (CGM_HIST_EDGES[:-1] + CGM_HIST_EDGES[1:]) / 2
            eta_centers = (ETA_HIST_EDGES[:-1] + ETA_HIST_EDGES[1:]) / 2
            hist = ["cgm_center,eta_center,count\n"] + [
                f"{cgm:.1f},{eta:.1f},{int(counts[a, b])}\n"
                for a, cgm in enumerate(cgm_centers)
                for b, eta in enumerate(eta_centers)
            ]
            write_atomic(rd / "hist.csv", lambda fh: fh.writelines(hist))
        paths.append(path)
        log.info("evaluated %s/%s seed %d -> %s", cfg.method, cfg.patient, seed, path)
    return paths


# ---------------------------------------------------------------------------
# Full sweep


def _read_csv(path: Path, required: tuple[str, ...]) -> list[dict[str, str]]:
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    for col in required:
        if col not in header:
            raise ValueError(f"{path.name}: missing column: {col}")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def run_matrix(matrix: MatrixConfig, out_base: str | Path) -> Path:
    """Train + evaluate every run of the sweep in order; summarize."""
    summary_rows = []
    for cfg in matrix.configs():
        run_train(cfg, out_base)
        run_eval(cfg, out_base)
        per_seed = []
        for seed in cfg.seeds:
            rows = _read_csv(run_dir(out_base, cfg, seed) / "metrics.csv",
                             ("scenario",) + METRICS)
            per_seed.append([
                {m: float(r[m]) for m in METRICS}
                for r in rows if r["scenario"] != "mean"
            ])
        agg = aggregate(per_seed)
        for m in METRICS:
            summary_rows.append(
                f"{cfg.patient},{cfg.method},{m},{agg.mean[m]:.6f},"
                f"{agg.std[m]:.6f},{agg.n_seeds}"
            )
    path = Path(out_base) / "summary.csv"
    lines = ["patient,method,metric,mean,std,n_seeds"] + summary_rows
    write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))
    return path
