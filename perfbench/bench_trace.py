"""Instrumentation the benchmark installs around the library's public entry points.

Two layers of wrapping, both installed from outside the library:

* ``EpisodeProbe`` is always on. It wraps only the per-episode entry points
  (trainer ``run_episode``, ``pid.run_pid_episode`` and the greedy ``roll_*``
  rollouts), so it costs two clock reads per episode. It yields the
  per-episode wall times, simulated steps and pump decisions that the
  end-to-end metrics are computed from.
* ``Tracer`` is on only in a traced run. It wraps every function in
  ``TARGETS`` wherever the library looks it up, records one span per call
  (name, parent span, start, end) in compact in-memory arrays, and turns
  them into per-function call counts and self times at the end.

A function is wrapped "where it is looked up": every ``etglucose`` module
attribute bound to the function object is rebound to the wrapper, so
``etglucose.env.rk4_step`` and ``etglucose.plant.rk4_step`` both count.
Methods are wrapped on their class.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute or Class.method, span name). The span name is
# "<layer>.<function>"; layers are the library's modules.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("etglucose.plant", "rk4_step", "plant.rk4_step"),
    ("etglucose.plant", "cgm_read", "plant.cgm_read"),
    ("etglucose.scenario", "meal_rate_at", "scenario.meal_rate_at"),
    ("etglucose.scenario", "generate_episode_scenario",
     "scenario.generate_episode_scenario"),
    ("etglucose.env", "ApEnv.step", "env.step"),
    ("etglucose.env", "ApEnv.reset", "env.reset"),
    ("etglucose.env", "hold_until_trigger", "env.hold_until_trigger"),
    ("etglucose.neural", "GaussianPolicy.sample", "neural.sample"),
    ("etglucose.neural", "Mlp.forward_cached", "neural.forward_cached"),
    ("etglucose.neural", "Mlp.backward", "neural.backward"),
    ("etglucose.neural", "adam_step", "neural.adam_step"),
    ("etglucose.ppo", "update_networks", "ppo.update_networks"),
    ("etglucose.ppo", "compute_gae", "ppo.compute_gae"),
    ("etglucose.cgmetppo", "smdp_update", "cgmetppo.smdp_update"),
    ("etglucose.cgmetppo", "smdp_gae", "cgmetppo.smdp_gae"),
    ("etglucose.hetppo", "factored_sample", "hetppo.factored_sample"),
    ("etglucose.hetppo", "het_policy_grads", "hetppo.het_policy_grads"),
    ("etglucose.pid", "pid_output", "pid.pid_output"),
    ("etglucose.pid", "grid_search_pid", "pid.grid_search_pid"),
    ("etglucose.metrics", "EpisodeRecord.__init__", "metrics.EpisodeRecord"),
    ("etglucose.metrics", "ecf", "metrics.ecf"),
    ("etglucose.metrics", "tir", "metrics.tir"),
    ("etglucose.metrics", "aurr", "metrics.aurr"),
    ("etglucose.harness", "run_train", "harness.run_train"),
    ("etglucose.harness", "run_eval", "harness.run_eval"),
    ("etglucose.harness", "roll_pid", "harness.roll_pid"),
    ("etglucose.harness", "roll_ppo", "harness.roll_ppo"),
    ("etglucose.harness", "roll_hetppo", "harness.roll_hetppo"),
    ("etglucose.harness", "roll_cgmetppo", "harness.roll_cgmetppo"),
    ("etglucose.harness", "save_trainer", "harness.save_trainer"),
    ("etglucose.harness", "load_policy", "harness.load_policy"),
    ("etglucose.harness", "tune_pid", "harness.tune_pid"),
    ("etglucose.config", "load_config", "config.load_config"),
    ("etglucose.config", "config_from_dict", "config.config_from_dict"),
    ("etglucose.patients", "default_cohort", "patients.default_cohort"),
)

SPAN_NAMES: tuple[str, ...] = tuple(name for _, _, name in TARGETS)

# Derived per-layer values reported beside the per-function counts.
DERIVED: tuple[tuple[str, str], ...] = (
    ("env.steps_per_decision", "steps/decision"),
    ("ppo.minibatches", "count"),
    ("cgmetppo.steps_per_update", "steps"),
    ("harness.bytes_written", "bytes"),
    ("trace.overhead_pct", "%"),
)

# Spans the benchmark itself opens around one set-up and one unit of work.
ROOT_SETUP = "bench.setup"
ROOT_UNIT = "bench.unit"


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Patches:
    """Rebinds a library object everywhere it is looked up; undoes in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        current = getattr(owner, attr)
        wrapper = make_wrapper(current)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "etglucose"
                                   or mod_name.startswith("etglucose.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is current:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _episode_counts(result) -> tuple[int, int]:
    """(steps, decisions) from what an episode entry point returns."""
    if isinstance(result, tuple):  # roll_*: (EpisodeRecord, trace rows)
        result = result[0]
    if hasattr(result, "steps"):  # trainer EpisodeStats
        return result.steps, result.K
    return result.T, result.K  # EpisodeRecord


class EpisodeProbe:
    """Per-episode wall time, steps and decisions; counts episodes that raise."""

    ENTRY_POINTS = (
        ("etglucose.ppo", "PpoTrainer.run_episode"),
        ("etglucose.hetppo", "HetppoTrainer.run_episode"),
        ("etglucose.cgmetppo", "CgmEtppoTrainer.run_episode"),
        ("etglucose.pid", "run_pid_episode"),
        ("etglucose.harness", "roll_pid"),
        ("etglucose.harness", "roll_ppo"),
        ("etglucose.harness", "roll_hetppo"),
        ("etglucose.harness", "roll_cgmetppo"),
    )

    def __init__(self):
        self.seconds: list[float] = []
        self.steps: list[int] = []
        self.decisions: list[int] = []
        self.raised = 0
        self._patches = Patches()

    def __enter__(self) -> "EpisodeProbe":
        for module, attr in self.ENTRY_POINTS:
            owner, name = _resolve(module, attr)
            self._patches.replace(owner, name, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _wrap(self, fn):
        clock = time.perf_counter

        def episode(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            self.seconds.append(clock() - t0)
            steps, decisions = _episode_counts(result)
            self.steps.append(steps)
            self.decisions.append(decisions)
            return result

        return episode

    def mark(self) -> int:
        return len(self.seconds)


class Tracer:
    """In-memory spans around TARGETS, with a few exact counters.

    Spans live in parallel typed arrays (name id, parent index, start, end),
    about 22 bytes each, so a traced PID grid search (about two million
    spans) stays in tens of megabytes.
    """

    def __init__(self):
        self.names = [ROOT_SETUP, ROOT_UNIT, *SPAN_NAMES]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches = Patches()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "env.step": self._count_decision,
            "ppo.update_networks": self._count_minibatches,
            "cgmetppo.smdp_update": self._count_buffer_fill,
        }
        for module, attr, name in TARGETS:
            owner, key = _resolve(module, attr)
            self._patches.replace(
                owner, key,
                lambda fn, n=name: self._wrap(fn, self._ids[n], hooks.get(n)),
            )

    def uninstall(self) -> None:
        self._patches.undo()

    def _count_decision(self, args, kwargs, result) -> None:
        event = kwargs.get("event", args[2] if len(args) > 2 else False)
        if event:
            self.counters["env.decisions"] += 1

    def _count_minibatches(self, args, kwargs, result) -> None:
        self.counters["ppo.minibatches"] += result.minibatches

    def _count_buffer_fill(self, args, kwargs, result) -> None:
        self.counters["cgmetppo.buffer_steps"] += sum(e.tau for e in args[0].exps)

    def _wrap(self, fn, nid: int, hook):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- benchmark-side root spans ------------------------------------------

    def open_root(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close_root(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- results --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def summarize(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per name id over spans [lo, hi).

        The slice must hold whole root spans, so every child of a span in
        it is in it too. Self time is the span's duration minus the
        durations of its direct children.
        """
        # Slicing copies, so no numpy view pins the growable arrays.
        ids = np.frombuffer(self.name_id[lo:hi], dtype=np.uint8)
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int32).astype(np.int64) - lo
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        n = hi - lo
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        return (np.bincount(ids, minlength=k),
                np.bincount(ids, weights=own, minlength=k))

    def dump(self, path) -> None:
        """Write every span: names, name id, parent index, start and end."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id[:], dtype=np.uint8),
            parent=np.frombuffer(self.parent[:], dtype=np.int32),
            start=np.frombuffer(self.start[:], dtype=np.float64),
            end=np.frombuffer(self.end[:], dtype=np.float64),
        )
