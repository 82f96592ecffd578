"""Orchestration tests: config parsing, checkpoints, run layout, CLI.

Training budgets here are tiny (a couple of episodes, short horizon);
these tests exercise plumbing and reproducibility, not control quality.
"""
import builtins
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml

from etglucose import cli, harness, ppo
from etglucose import env as env_module
from etglucose.cgmetppo import CgmEtppoTrainer, FixedCgmEtppoTrainer
from etglucose.config import (
    METHODS,
    ConfigError,
    ExperimentConfig,
    MatrixConfig,
    config_from_dict,
    load_config,
    load_matrix_config,
)
from etglucose.env import ApEnv, obs_vec
from etglucose.hetppo import HetppoTrainer, PinnedHetppoTrainer
from etglucose.harness import (
    METRICS_HEADER,
    TRACE_HEADER,
    _read_csv,
    build_trainer,
    eval_records,
    load_gains,
    load_policy,
    patient_slug,
    resolve_patient,
    roll_hetppo,
    run_dir,
    run_eval,
    run_matrix,
    run_train,
    save_trainer,
    tune_pid,
)
from etglucose.neural import (
    DivergedUpdateError,
    GaussianPolicy,
    HetPolicy,
    load_checkpoint,
    save_checkpoint,
    unpack_opt,
)
from etglucose.patients import default_cohort
from etglucose.plant import PlantDivergedError
from etglucose.scenario import default_eval_scenarios
from etglucose.seeding import eval_noise_stream
from reference_adam import PerArrayState, per_array_adam_step


@pytest.fixture(scope="module")
def patient():
    return default_cohort()[0]


# The episode protocol, R2's constants, the event charge, the sampled-threshold
# range, the learner's constants and the pump's floor are module constants, not
# config keys: a config that sets one is refused as unknown, even at the value
# the constant holds (given here). So is a field the code derives from others:
# the sensor's innovation.
PROTOCOL_CONSTANTS = {
    ("episode", "step_minutes"): 3.0, ("episode", "ode_dt"): 1.0,
    ("episode", "substeps"): 3, ("episode", "hypo_threshold"): 10.0,
    ("episode", "hyper_threshold"): 600.0, ("episode", "init_spread"): 0.1,
    ("reward", "c"): 5.0, ("reward", "C"): 10.0, ("reward", "eta_e"): 0.1,
    ("trigger", "eta_lo"): 15.0, ("trigger", "eta_hi"): 25.0,
    ("hyper", "gamma"): 0.99, ("hyper", "lam"): 0.95,
    ("hyper", "clip_eps"): 0.2, ("hyper", "c_ent"): 0.01, ("hyper", "lr"): 3e-4,
    ("sensor", "innovation"): 1.0, ("pump", "u_min"): 0.0,
}
# Sections whose every key became a constant: the section itself is unknown.
REMOVED_SECTIONS = ("reward",)


def refusal(section: str, key: str) -> str:
    """The message refusing a config that sets a removed key."""
    if section in REMOVED_SECTIONS:
        return rf"^config: unknown keys \['{section}'\]$"
    return rf"^{section}: unknown keys \['{key}'\]$"


# Every value a config may set, as (section, key); None is the top level.
SETTABLE_KEYS = {
    (None, "method"), (None, "patient"), (None, "episodes"), (None, "seeds"),
    (None, "r1_only"), (None, "pin_events"), (None, "checkpoint_every"),
    (None, "cohort_file"),
    ("hyper", "buffer_size"), ("hyper", "epochs"), ("hyper", "minibatch"),
    ("trigger", "fixed_eta"), ("episode", "horizon"),
    ("sensor", "phi"), ("sensor", "sigma"), ("pump", "u_max"),
    ("pid_grid", "kp"), ("pid_grid", "ki"), ("pid_grid", "kd"),
}


def tiny_dict(method: str, **over) -> dict:
    """Config dict sized for fast tests."""
    base = {
        "method": method,
        "patient": "adult#001",
        "episodes": 2,
        "seeds": [0],
        "hyper": {"buffer_size": 64, "minibatch": 16, "epochs": 2},
        "episode": {"horizon": 240},
        "pid_grid": {"kp": [0.0012], "ki": [2.0e-5], "kd": [0.008]},
    }
    base.update(over)
    return base


def tiny_cfg(method: str, **over) -> ExperimentConfig:
    return config_from_dict(tiny_dict(method, **over))


def matrix_dict(methods: list, **over) -> dict:
    """Matrix file payload: tiny shared settings over methods on adult#001."""
    payload = tiny_dict("ppo")
    del payload["method"], payload["patient"]
    payload.update(over, matrix={"methods": methods, "patients": ["adult#001"]})
    return payload


def write_yaml(path, payload) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


class HalfWrite:
    """A file whose first write keeps half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def writelines(self, lines):
        self.write("".join(lines))


# ---------------------------------------------------------------------------


class TestConfig:
    def test_load_valid_file(self, tmp_path):
        p = write_yaml(tmp_path / "c.yaml", tiny_dict("ppo"))
        cfg = load_config(p)
        assert cfg.method == "ppo"
        assert cfg.patient == "adult#001"
        assert cfg.seeds == (0,)
        assert cfg.hyper.buffer_size == 64
        assert cfg.episode.horizon == 240
        assert cfg.pid_grid.kp == (0.0012,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(p)

    def test_non_mapping_root(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(p)

    def test_method_required(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"episodes": 5})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            config_from_dict(tiny_dict("ddpg"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*learning_rate"):
            config_from_dict(tiny_dict("ppo", learning_rate=1e-3))

    def test_unknown_nested_key(self):
        bad = tiny_dict("ppo")
        bad["hyper"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="hyper.*momentum"):
            config_from_dict(bad)

    def test_nested_value_error_becomes_config_error(self):
        bad = tiny_dict("ppo")
        bad["hyper"]["epochs"] = 0
        with pytest.raises(ConfigError, match="hyper"):
            config_from_dict(bad)

    @pytest.mark.parametrize("section,key,value", [
        ("hyper", "buffer_size", 0), ("hyper", "buffer_size", -5),
        ("hyper", "minibatch", 0), ("hyper", "epochs", 0),
        ("hyper", "lr", -1.0), ("hyper", "lr", math.nan),
        ("reward", "eta_e", math.nan), ("reward", "C", math.nan),
        ("reward", "c", math.inf),
        ("trigger", "fixed_eta", math.nan), ("trigger", "fixed_eta", math.inf),
        ("episode", "ode_dt", 0), ("episode", "ode_dt", -1.0),
        ("episode", "step_minutes", math.inf),
        ("episode", "init_spread", -0.1), ("episode", "init_spread", math.nan),
        ("episode", "init_spread", math.inf),
        ("sensor", "phi", 1.5), ("sensor", "phi", 1.0), ("sensor", "phi", -1.0),
        ("sensor", "phi", math.nan), ("sensor", "sigma", -1.0),
        ("sensor", "sigma", math.inf),
        ("pump", "u_max", 0.0), ("pump", "u_max", -0.1), ("pump", "u_max", math.nan),
        ("pump", "u_min", -0.01), ("pump", "u_min", 0.2),
        ("pid_grid", "kp", [math.nan]), ("pid_grid", "ki", [0.0, -1e-5]),
        ("pid_grid", "kd", [math.inf]),
        ("trigger", "eta_lo", -1.0),
        # a boolean key takes true or false, not any truthy or falsy value
        (None, "pin_events", "false"), (None, "r1_only", "no"),
        (None, "pin_events", 1), (None, "r1_only", None),
        # nor does a number, alone or in a list, and it takes no other type
        ("pid_grid", "kp", [True]), ("sensor", "sigma", True),
        ("pump", "u_max", True), ("trigger", "fixed_eta", True),
        ("sensor", "sigma", "5"), ("pid_grid", "ki", [0.0, None]),
    ])
    def test_out_of_range_value_rejected(self, section, key, value):
        raw = tiny_dict("cgmetppo-fixed")
        if section is None:
            raw[key] = value
        else:
            raw.setdefault(section, {})[key] = value
        message = (refusal(section, key) if (section, key) in PROTOCOL_CONSTANTS
                   else f"^{section or 'config'}: {key} must")
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    @pytest.mark.parametrize("section,key,value", [
        (*where, value) for where, value in PROTOCOL_CONSTANTS.items()])
    def test_removed_key_refused(self, section, key, value):
        raw = tiny_dict("cgmetppo-variable")
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=refusal(section, key)):
            config_from_dict(raw)

    def test_settable_keys_are_pinned(self):
        # a candidate is every field of the config dataclasses; it is
        # settable unless a config that sets it is refused as an unknown key
        sections = {f.name: f.default_factory for f in fields(ExperimentConfig)
                    if is_dataclass(f.default_factory)}
        candidates = [(None, f.name) for f in fields(ExperimentConfig)
                      if f.name not in sections]
        candidates += [(s, f.name) for s, cls in sections.items()
                       for f in fields(cls)]
        settable = set()
        for section, key in candidates:
            raw = tiny_dict("cgmetppo-fixed")
            if section is None:
                raw[key] = 1.0
            else:
                raw.setdefault(section, {})[key] = 1.0
            try:
                config_from_dict(raw)
            except ConfigError as exc:
                if "unknown keys" in str(exc):
                    continue
            settable.add((section, key))
        assert settable == SETTABLE_KEYS

    @pytest.mark.parametrize("value", [20.5, True, 64.0, "64"])
    @pytest.mark.parametrize("section,key", [
        ("episode", "horizon"), ("hyper", "buffer_size"),
        ("hyper", "minibatch"), ("hyper", "epochs"),
        (None, "episodes"), (None, "checkpoint_every"), (None, "seeds"),
    ])
    def test_non_integer_count_rejected(self, section, key, value):
        raw = tiny_dict("cgmetppo-fixed")
        if key == "seeds":
            value = [0, value]
        if section is None:
            raw[key] = value
        else:
            raw.setdefault(section, {})[key] = value
        where = section or "config"
        with pytest.raises(ConfigError, match=f"^{where}: {key} must be (an )?integers?$"):
            config_from_dict(raw)

    def test_integer_counts_accepted(self):
        raw = tiny_dict("cgmetppo-fixed", episodes=np.int64(3),
                        checkpoint_every=1, seeds=[0, np.int64(2)])
        raw["episode"]["horizon"] = np.int32(240)
        cfg = config_from_dict(raw)
        assert (cfg.episodes, cfg.episode.horizon, cfg.seeds) == (3, 240, (0, 2))


    def test_trigger_scheme_key_rejected(self):
        # the scheme follows from the method; the key used to be overwritten
        raw = tiny_dict("cgmetppo-fixed", trigger={"scheme": "variable"})
        with pytest.raises(ConfigError, match="scheme follows from method"):
            config_from_dict(raw)

    def test_nested_non_mapping(self):
        with pytest.raises(ConfigError, match="hyper.*mapping"):
            config_from_dict(tiny_dict("ppo", hyper=[1, 2]))

    @pytest.mark.parametrize("section", [
        "hyper", "trigger", "episode", "sensor", "pump", "pid_grid",
    ])
    def test_empty_section_rejected(self, section):
        # an empty YAML section loads as None, which used to stand in for
        # the section's defaults: an empty trigger trained cgmetppo-fixed per step
        with pytest.raises(ConfigError,
                           match=f"^{section}: expected a mapping, got NoneType$"):
            config_from_dict(tiny_dict("cgmetppo-fixed", **{section: None}))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("switch,readers", [
        ("pin_events", ("hetppo",)),
        ("r1_only", ("cgmetppo-fixed", "cgmetppo-variable")),
    ])
    def test_switch_only_for_the_methods_that_read_it(self, method, switch,
                                                       readers):
        raw = tiny_dict(method, **{switch: True})
        if method in readers:
            assert getattr(config_from_dict(raw), switch) is True
        else:
            with pytest.raises(ConfigError, match=f"^config: {switch} must be "
                               f"false for method '{method}'$"):
                config_from_dict(raw)

    def test_bad_seeds(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(tiny_dict("ppo", seeds=[]))
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(tiny_dict("ppo", seeds=[-1]))

    @pytest.mark.parametrize("seeds", [[0, 0], [2, 1, 2], [0, np.int64(0)]])
    def test_duplicate_seeds_rejected(self, seeds):
        # two runs of one seed would share a directory and pose as two seeds
        with pytest.raises(ConfigError, match="^config: seeds must be distinct$"):
            config_from_dict(tiny_dict("ppo", seeds=seeds))

    @pytest.mark.parametrize("key,value", [
        ("seeds", [1, 1]),
        ("methods", ["ppo", "pid", "ppo"]),
        ("patients", ["adult#001", "adult#002", "adult#001"]),
    ])
    def test_matrix_duplicates_rejected(self, tmp_path, key, value):
        payload = tiny_dict("ppo")
        del payload["method"], payload["patient"]
        payload["matrix"] = {"methods": ["pid", "ppo"], "patients": ["adult#001"]}
        (payload if key == "seeds" else payload["matrix"])[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be distinct"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))

    @pytest.mark.parametrize("key,value", [("method", "ppo"),
                                           ("patient", "adult#009")])
    def test_matrix_top_level_method_or_patient_rejected(self, tmp_path, key,
                                                         value):
        # used to be dropped: the sweep ran its own lists and exited 0
        payload = matrix_dict(["pid"], **{key: value})
        with pytest.raises(ConfigError, match="no top-level method or patient"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))

    def test_matrix_checks_every_run_with_its_own_method(self, tmp_path):
        # the shared settings suit hetppo, the first run, but not ppo
        payload = matrix_dict(["hetppo", "ppo"], pin_events=True)
        with pytest.raises(ConfigError,
                           match="^config: pin_events must be false for method 'ppo'$"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))
        payload["matrix"]["methods"] = ["hetppo"]
        runs = load_matrix_config(write_yaml(tmp_path / "m.yaml", payload)).runs
        assert [(c.method, c.pin_events) for c in runs] == [("hetppo", True)]

    def test_matrix_patient_must_be_a_name(self, tmp_path):
        payload = {"matrix": {"methods": ["pid"], "patients": [["adult#001"]]}}
        with pytest.raises(ConfigError, match="matrix patients must be patient names"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))

    def test_matrix_load(self, tmp_path):
        payload = tiny_dict("ppo")
        del payload["method"], payload["patient"]
        payload["matrix"] = {"methods": ["pid", "ppo"],
                             "patients": ["adult#001", "adult#002"]}
        m = load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))
        cfgs = m.configs()
        assert len(cfgs) == 4
        assert {(c.method, c.patient) for c in cfgs} == {
            ("pid", "adult#001"), ("pid", "adult#002"),
            ("ppo", "adult#001"), ("ppo", "adult#002"),
        }
        # base settings reach every combination
        assert all(c.episode.horizon == 240 for c in cfgs)

    def test_matrix_requires_section(self, tmp_path):
        p = write_yaml(tmp_path / "m.yaml", tiny_dict("ppo"))
        with pytest.raises(ConfigError, match="matrix"):
            load_matrix_config(p)

    def test_matrix_unknown_key(self, tmp_path):
        payload = {"matrix": {"methods": ["pid"], "patients": ["adult#001"],
                              "extra": 1}}
        p = write_yaml(tmp_path / "m.yaml", payload)
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            load_matrix_config(p)

    def test_matrix_empty_lists(self, tmp_path):
        payload = {"matrix": {"methods": [], "patients": ["adult#001"]}}
        with pytest.raises(ConfigError, match="at least one"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))

    @pytest.mark.parametrize("methods", [None, "ppo"])
    def test_matrix_methods_must_be_a_list(self, tmp_path, methods):
        # an empty "methods:" used to fail with a TypeError (exit 2)
        payload = {"matrix": {"methods": methods, "patients": ["adult#001"]}}
        with pytest.raises(ConfigError, match="needs lists of at least one"):
            load_matrix_config(write_yaml(tmp_path / "m.yaml", payload))

    def test_unknown_patient(self):
        cfg = tiny_cfg("ppo", patient="adult#999")
        with pytest.raises(ConfigError, match="adult#999"):
            resolve_patient(cfg)

    def test_missing_cohort_file(self):
        cfg = tiny_cfg("ppo", cohort_file="/does/not/exist.ini")
        with pytest.raises(ConfigError, match="cohort"):
            resolve_patient(cfg)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")),
        ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if "matrix" in raw:
            assert load_matrix_config(path).configs()
        else:
            assert load_config(path).method == raw["method"]


class TestLayout:
    def test_patient_slug(self):
        assert patient_slug("adult#003") == "adult-003"

    def test_run_dir(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed")
        rd = run_dir(tmp_path, cfg, 7)
        assert rd == tmp_path / "cgmetppo-fixed" / "adult-001" / "seed_7"


class TestCheckpoints:
    def test_ppo_round_trip(self, tmp_path, patient):
        cfg = tiny_cfg("ppo")
        trainer = build_trainer(cfg, patient, seed=3)
        path = tmp_path / "ck.npz"
        save_trainer(trainer, path)
        method, policy, vnet, pin = load_policy(path)
        assert method == "ppo"
        assert isinstance(policy, GaussianPolicy)
        assert not pin
        for got, want in zip(policy.net.params(), trainer.policy.net.params()):
            assert np.array_equal(got, want)
        for got, want in zip(vnet.params(), trainer.vnet.params()):
            assert np.array_equal(got, want)
        assert np.array_equal(policy.log_std, trainer.policy.log_std)

    @pytest.mark.parametrize("method", ["ppo", "hetppo"])
    def test_optimizer_arrays_are_the_two_state_ones(self, tmp_path, patient,
                                                     monkeypatch, method):
        # the one Adam state, split at the actor/critic boundary, writes the
        # keys, shapes, step counts and bytes of one per-array state per net
        trainer = build_trainer(tiny_cfg(method), patient, seed=1)
        trainer.run_episode(0)
        ref = build_trainer(tiny_cfg(method), patient, seed=1)
        n_actor = len(ref.policy.params())
        states = PerArrayState(lr=ref.opt.lr), PerArrayState(lr=ref.opt.lr)

        def two_state_step(params, grads, opt):
            per_array_adam_step(params[:n_actor], grads[:n_actor], states[0])
            per_array_adam_step(params[n_actor:], grads[n_actor:], states[1])

        monkeypatch.setattr(ppo, "adam_step", two_state_step)
        ref.run_episode(0)
        assert ref.opt.m is None and states[0].t == trainer.opt.t > 0
        want = {k: a for k, a in harness.trainer_arrays(ref).items()
                if not k.startswith("opt_")}
        pin = want.pop("pin_events")
        for prefix, st in zip(("opt_policy", "opt_value"), states):
            want.update({f"{prefix}_t": np.asarray(st.t, dtype=np.int64),
                         f"{prefix}_lr": np.asarray(st.lr),
                         f"{prefix}_n": np.asarray(len(st.m), dtype=np.int64)})
            for i, (m, v) in enumerate(zip(st.m, st.v)):
                want.update({f"{prefix}_m{i}": m, f"{prefix}_v{i}": v})
        want["pin_events"] = pin
        got = harness.trainer_arrays(trainer)
        assert list(got) == list(want)
        for key, arr in want.items():
            assert got[key].dtype == arr.dtype and got[key].shape == arr.shape, key
            assert got[key].tobytes() == arr.tobytes(), key
        save_trainer(trainer, tmp_path / "fused.npz")
        save_checkpoint(tmp_path / "two.npz", method, want)
        assert (tmp_path / "fused.npz").read_bytes() == (tmp_path / "two.npz").read_bytes()

    @pytest.mark.parametrize("episodes", [0, 1])
    def test_resume_reader_rebuilds_the_one_state(self, tmp_path, patient, episodes):
        trainer = build_trainer(tiny_cfg("ppo"), patient, seed=2)
        for ep in range(episodes):
            trainer.run_episode(ep)
        save_trainer(trainer, tmp_path / "ck.npz")
        _, data = load_checkpoint(tmp_path / "ck.npz")
        back = unpack_opt(data, ("opt_policy", "opt_value"))
        assert (back.t, back.lr) == (trainer.opt.t, trainer.opt.lr)
        if episodes:
            assert back.m.tobytes() == trainer.opt.m.tobytes()
            assert back.v.tobytes() == trainer.opt.v.tobytes()
        else:
            assert back.m is None and back.v is None and back.t == 0

    def test_resume_reader_refuses_split_states(self, patient):
        trainer = build_trainer(tiny_cfg("ppo"), patient, seed=2)
        trainer.run_episode(0)
        data = harness.trainer_arrays(trainer)
        with pytest.raises(ValueError, match="step counts"):
            unpack_opt({**data, "opt_value_t": data["opt_value_t"] - 1},
                       ("opt_policy", "opt_value"))

    def test_hetppo_loads_event_head(self, tmp_path, patient):
        trainer = build_trainer(tiny_cfg("hetppo"), patient, seed=0)
        path = tmp_path / "ck.npz"
        save_trainer(trainer, path)
        method, policy, _, pin = load_policy(path)
        assert method == "hetppo"
        assert isinstance(policy, HetPolicy)
        assert not pin

    def test_pinned_hetppo_loads_plain_gaussian(self, tmp_path, patient):
        cfg = tiny_cfg("hetppo", pin_events=True)
        trainer = build_trainer(cfg, patient, seed=0)
        path = tmp_path / "ck.npz"
        save_trainer(trainer, path)
        method, policy, _, pin = load_policy(path)
        assert method == "hetppo"
        assert pin
        assert isinstance(policy, GaussianPolicy)

    def test_method_mismatch_rejected(self, tmp_path, patient):
        other = tiny_cfg("cgmetppo-fixed")
        rd = run_dir(tmp_path, other, 0)
        rd.mkdir(parents=True)
        save_trainer(build_trainer(tiny_cfg("ppo"), patient, seed=0),
                     rd / "checkpoint.npz")
        with pytest.raises(ValueError, match="does not match"):
            eval_records(other, patient, tmp_path, 0)

    @pytest.mark.parametrize("trained,evaluated", [(False, True), (True, False)])
    def test_pin_events_mismatch_rejected(self, tmp_path, patient, trained,
                                          evaluated):
        cfg = tiny_cfg("hetppo", pin_events=trained)
        rd = run_dir(tmp_path, cfg, 0)
        rd.mkdir(parents=True)
        save_trainer(build_trainer(cfg, patient, seed=0), rd / "checkpoint.npz")
        other = tiny_cfg("hetppo", pin_events=evaluated)
        with pytest.raises(ValueError, match=f"checkpoint pin_events {trained} "
                           f"does not match config pin_events {evaluated}"):
            eval_records(other, patient, tmp_path, 0)
        assert len(eval_records(cfg, patient, tmp_path, 0)) == 5

    def test_eval_without_checkpoint(self, tmp_path, patient):
        cfg = tiny_cfg("ppo")
        rd = run_dir(tmp_path, cfg, 0)
        rd.mkdir(parents=True)
        with pytest.raises(FileNotFoundError, match="train first"):
            eval_records(cfg, patient, tmp_path, 0)

    def test_missing_gains(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="tune-pid"):
            load_gains(tmp_path / "gains.yaml")


# ---------------------------------------------------------------------------


class TestTrainEval:
    def test_train_outputs(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed", checkpoint_every=1)
        dirs = run_train(cfg, tmp_path)
        assert dirs == [run_dir(tmp_path, cfg, 0)]
        rd = dirs[0]
        log_rows = read_rows(rd / "train_log.csv")
        assert log_rows[0] == "episode,steps,K,ret,ecf,tir,aurr"
        assert len(log_rows) == 1 + cfg.episodes
        # episode index is the first field
        assert [r.split(",")[0] for r in log_rows[1:]] == ["0", "1"]
        upd_rows = read_rows(rd / "updates.csv")
        assert upd_rows[0].startswith("update,policy_objective,value_loss")
        assert (rd / "checkpoint.npz").exists()
        assert (rd / "checkpoint_ep1.npz").exists()
        assert (rd / "checkpoint_ep2.npz").exists()

    def test_eval_outputs_and_mean_row(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed")
        run_train(cfg, tmp_path)
        paths = run_eval(cfg, tmp_path)
        assert len(paths) == 1
        rows = read_rows(paths[0])
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + 5 + 1  # header, one per scenario, mean
        body = [r.split(",") for r in rows[1:]]
        assert [r[3] for r in body] == ["0", "1", "2", "3", "4", "mean"]
        assert all(r[0] == "adult#001" for r in body)
        assert all(r[1] == "cgmetppo-fixed" for r in body)
        assert all(r[2] == "0" for r in body)
        for col in (4, 5, 6):  # mean row is the column average
            vals = [float(r[col]) for r in body[:5]]
            assert float(body[5][col]) == pytest.approx(np.mean(vals), abs=1e-5)

    def test_trace_rows_match_episode_length(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed")
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        metrics = {r["scenario"]: r for r in
                   _read_csv(rd / "metrics.csv", ("scenario", "ecf"))}
        for i in range(5):
            rows = read_rows(rd / f"eval_trace_scen{i}.csv")
            assert rows[0] == TRACE_HEADER
            t = len(rows) - 1
            h = cfg.episode.horizon
            assert float(metrics[str(i)]["ecf"]) == pytest.approx(
                100.0 * t / h, abs=1e-4
            )
            # fixed scheme: the threshold column repeats the configured eta
            etas = {r.split(",")[5] for r in rows[1:]}
            assert etas == {f"{cfg.trigger.fixed_eta:.6f}"}

    def test_eval_is_byte_deterministic(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed")
        run_train(cfg, tmp_path)
        path = run_eval(cfg, tmp_path)[0]
        first = path.read_bytes()
        assert run_eval(cfg, tmp_path)[0].read_bytes() == first

    def test_retrain_reproduces_metrics(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed")
        run_train(cfg, tmp_path / "a")
        run_train(cfg, tmp_path / "b")
        a = run_eval(cfg, tmp_path / "a")[0].read_bytes()
        b = run_eval(cfg, tmp_path / "b")[0].read_bytes()
        assert a == b

    def test_seed_override(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-fixed", seeds=[0, 1])
        dirs = run_train(cfg, tmp_path, seeds=(5,))
        assert dirs == [run_dir(tmp_path, cfg, 5)]
        assert not run_dir(tmp_path, cfg, 0).exists()

    def test_hetppo_eval_traces(self, tmp_path):
        cfg = tiny_cfg("hetppo", episodes=1)
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        rows = read_rows(rd / "eval_trace_scen0.csv")[1:]
        events = {r.split(",")[4] for r in rows}
        assert events <= {"0", "1"}
        # no threshold column content for the event-head controller
        assert {r.split(",")[5] for r in rows} == {""}
        assert not (rd / "hist.csv").exists()

    def test_variable_scheme_histogram(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-variable", episodes=1)
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        hist = _read_csv(rd / "hist.csv", ("cgm_lo", "eta_lo", "count"))
        assert all(int(r["count"]) >= 0 for r in hist)
        total = sum(int(r["count"]) for r in hist)
        events = 0
        for i in range(5):
            rows = read_rows(rd / f"eval_trace_scen{i}.csv")[1:]
            events += sum(1 for r in rows if r.split(",")[4] == "1")
        # the bins cover every interval average, so no interval drops out
        assert total == events > 0

    def test_pid_tune_and_eval(self, tmp_path):
        cfg = tiny_cfg("pid", seeds=[0, 1])
        gains, score = tune_pid(cfg, tmp_path)
        assert gains.kp == 0.0012 and gains.ki == 2.0e-5 and gains.kd == 0.008
        for seed in (0, 1):
            path = run_dir(tmp_path, cfg, seed) / "gains.yaml"
            assert load_gains(path) == gains
        run_eval(cfg, tmp_path)
        rows = _read_csv(run_dir(tmp_path, cfg, 0) / "metrics.csv",
                         ("scenario", "aurr"))
        # updating every step leaves nothing above the update-reduction floor
        assert all(float(r["aurr"]) == 0.0 for r in rows)

    def test_pid_tunes_from_a_config_with_a_switch(self, tmp_path):
        # pid reads neither switch; the gains still land in pid's run directory
        gains, _ = tune_pid(tiny_cfg("hetppo", pin_events=True), tmp_path)
        assert load_gains(run_dir(tmp_path, tiny_cfg("pid"), 0)
                          / "gains.yaml") == gains

    def test_failed_gains_write_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_cfg("pid")
        tune_pid(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        before = (rd / "gains.yaml").read_bytes()

        def half_dump(payload, fh, **kwargs):
            fh.write("kp: ")
            raise OSError("disk full")

        monkeypatch.setattr(yaml, "safe_dump", half_dump)
        with pytest.raises(OSError, match="disk full"):
            tune_pid(cfg, tmp_path)
        assert (rd / "gains.yaml").read_bytes() == before
        assert sorted(p.name for p in rd.iterdir()) == ["gains.yaml"]

    @pytest.mark.parametrize("target", ["metrics.csv", "summary.csv"])
    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                                  target):
        matrix = MatrixConfig((tiny_cfg("pid", episodes=1),))
        run_matrix(matrix, tmp_path)
        path = (tmp_path / "summary.csv" if target == "summary.csv"
                else run_dir(tmp_path, tiny_cfg("pid"), 0) / "metrics.csv")
        before = path.read_bytes()

        class DiskFull:
            """Keeps half of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        def open_(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return DiskFull(fh) if str(file).endswith(target + ".tmp") else fh

        monkeypatch.setattr(harness, "open", open_, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_matrix(matrix, tmp_path)
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("target", [
        "train_log.csv", "updates.csv", "checkpoint.npz", "checkpoint_ep1.npz",
        "eval_trace_scen0.csv", "hist.csv",
    ])
    def test_failed_run_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                                  target):
        cfg = tiny_cfg("cgmetppo-variable", episodes=1, checkpoint_every=1)
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        path = run_dir(tmp_path, cfg, 0) / target
        before = path.read_bytes()

        def open_(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return HalfWrite(fh) if str(file).endswith(target + ".tmp") else fh

        monkeypatch.setattr(harness, "open", open_, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run_train(cfg, tmp_path)
            run_eval(cfg, tmp_path)
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_diverged_updates_are_named(self, tmp_path, monkeypatch, caplog):
        calls = {"update": -1}
        real_update, real_value_grads = ppo.update_networks, ppo.value_grads

        def counting_update(*args, **kwargs):
            calls["update"] += 1
            return real_update(*args, **kwargs)

        def value_grads(*args):
            if calls["update"] in (1, 3):
                raise DivergedUpdateError("diverged-update: forced")
            return real_value_grads(*args)

        monkeypatch.setattr(ppo, "update_networks", counting_update)
        monkeypatch.setattr(ppo, "value_grads", value_grads)
        cfg = tiny_cfg("ppo")
        with caplog.at_level("WARNING", logger="etglucose.harness"):
            run_train(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        rows = read_rows(rd / "updates.csv")[1:]
        assert len(rows) > 4
        assert [i for i, r in enumerate(rows) if r.endswith(",1")] == [1, 3]
        # ppo updates once per buffer_size decisions, one decision per step
        steps = np.cumsum([int(r.split(",")[1])
                           for r in read_rows(rd / "train_log.csv")[1:]])
        ep = [int(np.searchsorted(steps, 64 * (i + 1))) for i in (1, 3)]
        assert ep == [0, 1]
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "etglucose.harness" and r.levelname == "WARNING"]
        assert warnings == ["ppo/adult#001 seed 0: diverged updates "
                            "1 (episode 0), 3 (episode 1)"]

    def test_pid_train_alias(self, tmp_path):
        # run_train on the pid method is tuning
        cfg = tiny_cfg("pid")
        dirs = run_train(cfg, tmp_path)
        assert (dirs[0] / "gains.yaml").exists()


class TestGreedyRollout:
    @staticmethod
    def cgm_gated_policy() -> HetPolicy:
        """Insulin mean 0.4; the event logit has the sign of y - 150."""
        pol = HetPolicy.create(2, np.random.default_rng(0))
        for a in pol.net.weights + pol.net.biases:
            a[:] = 0.0
        pol.net.weights[0][0, 0] = 6.0  # input y / 600 -> 0.01 * y
        pol.net.biases[0][0] = -1.5
        pol.net.weights[1][0, 0] = 1.0
        pol.net.weights[2][0, 1] = 1.0
        pol.net.biases[-1][0] = 0.4
        return pol

    def test_factored_policy_holds_between_events(self, patient):
        cfg = tiny_cfg("hetppo")
        pol = self.cgm_gated_policy()
        for i, sc in enumerate(default_eval_scenarios()):
            rec, rows = roll_hetppo(patient, pol, sc, eval_noise_stream(i), cfg)
            # the factored greedy loop written out step by step
            env = ApEnv(patient, cfg.episode, cfg.sensor, cfg.pump)
            obs = env.reset(sc, eval_noise_stream(i))
            held, times = 0.0, []
            while not env.done:
                mean, logit = pol.heads(obs_vec(obs, cfg.pump)[None, :])
                if logit[0] >= 0.0:
                    held = float(np.clip(mean[0], 0.0, 1.0)) * cfg.pump.u_max
                    times.append(env.steps)
                obs, _ = env.step(held, event=logit[0] >= 0.0)
            assert 0 < rec.K < rec.T  # both branches run
            assert rec.update_times == tuple(times)
            assert rec.y_trace == tuple(env.y_trace) and rec.thresholds is None
            assert [r[2:] for r in rows] == [
                (y, u, e, "") for y, u, e in
                zip(env.y_trace, env.u_trace, env.event_trace)
            ]


class TestEpisodeEntryPoints:
    """What perfbench's episode probe relies on: it wraps the four
    harness.roll_* globals and each trainer class's own run_episode, and
    must see every episode exactly once."""

    ROLLS = ("roll_pid", "roll_ppo", "roll_hetppo", "roll_cgmetppo")

    @pytest.mark.parametrize("method,over,trainer_cls,roll", [
        ("pid", {}, None, "roll_pid"),
        ("ppo", {}, ppo.PpoTrainer, "roll_ppo"),
        ("hetppo", {}, HetppoTrainer, "roll_hetppo"),
        ("hetppo", {"pin_events": True}, PinnedHetppoTrainer, "roll_ppo"),
        ("cgmetppo-fixed", {}, FixedCgmEtppoTrainer, "roll_cgmetppo"),
        ("cgmetppo-variable", {}, CgmEtppoTrainer, "roll_cgmetppo"),
    ])
    def test_eval_runs_one_roll_per_scenario(self, tmp_path, monkeypatch, patient,
                                             method, over, trainer_cls, roll):
        cfg = tiny_cfg(method, episodes=1, episode={"horizon": 20}, **over)
        if trainer_cls is not None:
            assert type(build_trainer(cfg, patient, 0)) is trainer_cls
        run_train(cfg, tmp_path)
        calls = {}

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return counted

        for name in self.ROLLS:
            monkeypatch.setattr(harness, name, spy(name, getattr(harness, name)))
        run_eval(cfg, tmp_path)
        assert calls == {roll: 5}

    def test_run_episode_defined_once_per_loop_owner(self):
        for cls in (ppo.PpoTrainer, HetppoTrainer, CgmEtppoTrainer):
            assert "run_episode" in cls.__dict__, cls
        # subclasses inherit it, so a wrapper on the parent counts them once
        for cls in (PinnedHetppoTrainer, FixedCgmEtppoTrainer):
            assert "run_episode" not in cls.__dict__, cls


class TestExportAndMatrix:
    def test_export_plotdata(self, tmp_path):
        cfg = tiny_cfg("cgmetppo-variable", episodes=1)
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        from etglucose.harness import export_plotdata

        out = export_plotdata(cfg, tmp_path)
        rd = run_dir(tmp_path, cfg, 0)
        names = {p.name for p in out}
        assert names == {f"timeresponse_scen{i}.csv" for i in range(5)} | {
            "hist_points.csv"
        }
        for i in range(5):
            rows = read_rows(rd / "plotdata" / f"timeresponse_scen{i}.csv")
            assert rows[0] == "t_min,y,u,event,eta,meal_mg_min"
            trace = read_rows(rd / f"eval_trace_scen{i}.csv")
            assert len(rows) == len(trace)
            assert all(float(r.split(",")[5]) >= 0.0 for r in rows[1:])
        pts = _read_csv(rd / "plotdata" / "hist_points.csv",
                        ("cgm_center", "eta_center", "count"))
        assert all(float(r["cgm_center"]) % 10 == 0 for r in pts)

    @pytest.mark.parametrize("target", ["timeresponse_scen0.csv", "hist_points.csv"])
    def test_failed_export_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                                     target):
        from etglucose.harness import export_plotdata

        cfg = tiny_cfg("cgmetppo-variable", episodes=1)
        run_train(cfg, tmp_path)
        run_eval(cfg, tmp_path)
        export_plotdata(cfg, tmp_path)
        path = run_dir(tmp_path, cfg, 0) / "plotdata" / target
        before = path.read_bytes()

        def open_(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return HalfWrite(fh) if str(file).endswith(target + ".tmp") else fh

        monkeypatch.setattr(harness, "open", open_, raising=False)
        with pytest.raises(OSError, match="disk full"):
            export_plotdata(cfg, tmp_path)
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_export_requires_eval(self, tmp_path):
        cfg = tiny_cfg("ppo", episodes=1)
        run_train(cfg, tmp_path)
        from etglucose.harness import export_plotdata

        with pytest.raises(FileNotFoundError, match="missing file"):
            export_plotdata(cfg, tmp_path)

    def test_read_csv_missing_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        assert _read_csv(p, ("a", "b")) == [{"a": "1", "b": "2"}]
        with pytest.raises(ValueError, match="missing column: c"):
            _read_csv(p, ("a", "c"))

    def test_matrix_summary(self, tmp_path):
        base = tiny_dict("ppo", episodes=1, seeds=[0, 1])
        base["episode"]["horizon"] = 120
        matrix = MatrixConfig(tuple(config_from_dict(dict(base, method=m))
                                    for m in ("pid", "ppo")))
        path = run_matrix(matrix, tmp_path)
        rows = read_rows(path)
        assert rows[0] == "patient,method,metric,mean,std,n_seeds"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 2 * 3  # methods x metrics
        assert {(r[0], r[1]) for r in body} == {
            ("adult#001", "pid"), ("adult#001", "ppo")
        }
        assert {r[2] for r in body} == {"ecf", "tir", "aurr"}
        assert all(r[5] == "2" for r in body)
        # pid tuning is seed-free, so its seed spread is exactly zero
        pid_rows = [r for r in body if r[1] == "pid"]
        assert all(float(r[4]) == 0.0 for r in pid_rows)


# ---------------------------------------------------------------------------


class TestCli:
    def test_tune_pid_exit_zero(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("pid"))
        rc = cli.main(["tune-pid", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kp=0.0012" in out
        assert (tmp_path / "runs" / "pid" / "adult-001" / "seed_0"
                / "gains.yaml").exists()

    def test_train_then_eval_exit_zero(self, tmp_path, capsys):
        cfg_path = write_yaml(
            tmp_path / "c.yaml", tiny_dict("cgmetppo-fixed", episodes=1)
        )
        out_dir = str(tmp_path / "runs")
        assert cli.main(["train", "--config", cfg_path, "--out-dir", out_dir,
                         "--seed", "4"]) == 0
        rd = tmp_path / "runs" / "cgmetppo-fixed" / "adult-001" / "seed_4"
        assert (rd / "checkpoint.npz").exists()
        assert cli.main(["eval", "--config", cfg_path, "--out-dir", out_dir,
                         "--seed", "4"]) == 0
        assert (rd / "metrics.csv").exists()
        assert str(rd / "metrics.csv") in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("not-a-method"))
        rc = cli.main(["train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_zero_ode_dt_exit_one(self, tmp_path, capsys):
        # the substep is a module constant, so any ode_dt is refused
        cfg_path = write_yaml(tmp_path / "c.yaml",
                              tiny_dict("ppo", episode={"ode_dt": 0}))
        rc = cli.main(["train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert ("config error: episode: unknown keys ['ode_dt']"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_fractional_horizon_exit_one(self, tmp_path, capsys):
        # used to pass validation and fail in the first episode with exit 2
        cfg_path = write_yaml(tmp_path / "c.yaml",
                              tiny_dict("pid", episode={"horizon": 20.5}))
        rc = cli.main(["tune-pid", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert ("config error: episode: horizon must be an integer"
                in capsys.readouterr().err)

    def test_missing_config_exit_one(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("ppo"))
        rc = cli.main(["eval", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def diverge_at(monkeypatch, call: int) -> None:
        """Make the plant step raise at its call-th call, as a diverged
        plant does."""
        calls = 0
        step = env_module.rk4_step

        def rk4_step(*args):
            nonlocal calls
            calls += 1
            if calls == call:
                raise PlantDivergedError("plant-diverged: non-finite state or input")
            return step(*args)

        monkeypatch.setattr(env_module, "rk4_step", rk4_step)

    def test_training_failure_names_its_run(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict(
            "cgmetppo-fixed", episodes=3, seeds=[2], episode={"horizon": 20}))
        # 3 substeps per step: call 61 is the first of episode 1
        self.diverge_at(monkeypatch, 3 * 20 + 1)
        args = ["train", "--config", cfg_path, "--out-dir", str(tmp_path / "runs")]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            "error: plant-diverged: non-finite state or input "
            "(in cgmetppo-fixed on adult#001, seed 2, episode 1)\n")
        self.diverge_at(monkeypatch, 1)
        assert cli.main(["-v"] + args) == 2
        err = capsys.readouterr().err
        assert "etglucose.plant.PlantDivergedError: plant-diverged" in err
        assert "in cgmetppo-fixed on adult#001, seed 2, episode 0" in err

    def test_evaluation_failure_names_its_run(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict(
            "ppo", episodes=1, episode={"horizon": 20}))
        out_dir = str(tmp_path / "runs")
        assert cli.main(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
        self.diverge_at(monkeypatch, 2 * 3 * 20 + 5)  # inside scenario 2
        rc = cli.main(["eval", "--config", cfg_path, "--out-dir", out_dir])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: plant-diverged: non-finite state or input "
            "(in ppo on adult#001, seed 0, evaluation scenario 2)\n")
        assert not (tmp_path / "runs" / "ppo" / "adult-001" / "seed_0"
                    / "metrics.csv").exists()

    def test_pin_events_mismatch_exit_two(self, tmp_path, capsys):
        out_dir = str(tmp_path / "runs")
        trained = write_yaml(tmp_path / "a.yaml", tiny_dict(
            "hetppo", episodes=1, episode={"horizon": 20}))
        pinned = write_yaml(tmp_path / "b.yaml", tiny_dict(
            "hetppo", episodes=1, episode={"horizon": 20}, pin_events=True))
        assert cli.main(["train", "--config", trained, "--out-dir", out_dir]) == 0
        rc = cli.main(["eval", "--config", pinned, "--out-dir", out_dir])
        assert rc == 2
        assert ("checkpoint pin_events False does not match config "
                "pin_events True") in capsys.readouterr().err
        rd = tmp_path / "runs" / "hetppo" / "adult-001" / "seed_0"
        assert not (rd / "metrics.csv").exists()

    def test_runtime_error_traceback_only_when_verbose(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("ppo"))
        args = ["eval", "--config", cfg_path, "--out-dir", str(tmp_path / "runs")]
        assert cli.main(args) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert cli.main(["-v"] + args) == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "Traceback (most recent call last)" in err
        assert "FileNotFoundError" in err

    @pytest.mark.parametrize("command", ["train", "eval", "export-plots"])
    def test_negative_seed_exit_one(self, tmp_path, capsys, command):
        # used to exit 2 from the seed streams after making seed_-1/
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("ppo", episodes=1))
        rc = cli.main([command, "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs"), "--seed", "-1"])
        assert rc == 1
        assert ("config error: --seed: seeds must be non-negative"
                in capsys.readouterr().err)
        assert not list(tmp_path.rglob("seed_-1"))

    def test_duplicate_seeds_exit_one(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict("ppo", seeds=[0, 0]))
        rc = cli.main(["train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert ("config error: config: seeds must be distinct"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_negative_eta_lo_exit_one(self, tmp_path, capsys):
        # the sampled-threshold range is a module constant, not a config key
        cfg_path = write_yaml(tmp_path / "c.yaml", tiny_dict(
            "cgmetppo-variable", trigger={"eta_lo": -5.0, "eta_hi": 5.0}))
        rc = cli.main(["train", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert ("config error: trigger: unknown keys ['eta_hi', 'eta_lo']"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command,payload,message", [
        ("train", tiny_dict("cgmetppo-fixed", trigger=None),
         "trigger: expected a mapping, got NoneType"),
        ("train", tiny_dict("hetppo", reward={"eta_e": 0.1}),
         "config: unknown keys ['reward']"),
        ("train", tiny_dict("ppo", pin_events=True),
         "config: pin_events must be false for method 'ppo'"),
        ("train", tiny_dict("hetppo", r1_only=True),
         "config: r1_only must be false for method 'hetppo'"),
        ("matrix", matrix_dict(["pid"], hyper=None),
         "hyper: expected a mapping, got NoneType"),
        ("matrix", matrix_dict(["pid"], method="ppo"),
         "a matrix file has no top-level method or patient"),
        ("matrix", matrix_dict(["pid"], patient="adult#009"),
         "a matrix file has no top-level method or patient"),
        # the first run is valid; the sweep must not start it
        ("matrix", matrix_dict(["hetppo", "ppo"], pin_events=True),
         "config: pin_events must be false for method 'ppo'"),
        ("matrix", matrix_dict(["cgmetppo-fixed", "pid"], r1_only=True),
         "config: r1_only must be false for method 'pid'"),
        # a top-level value of the wrong type is a config error, not a
        # failure of the cohort loader or of the patient lookup
        ("train", tiny_dict("ppo", cohort_file=5),
         "config: cohort_file must be a file path or null"),
        ("train", tiny_dict("ppo", patient=["adult#001"]),
         "config: patient must be a patient name"),
        # a scalar where a list is wanted names its key
        ("train", tiny_dict("ppo", seeds=5), "config: seeds must be a list"),
        ("train", tiny_dict("pid", pid_grid={"kp": 0.001}),
         "pid_grid: kp must be a list"),
    ])
    def test_refused_config_exit_one(self, tmp_path, capsys, command, payload,
                                     message):
        cfg_path = write_yaml(tmp_path / "c.yaml", payload)
        rc = cli.main([command, "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_matrix_bad_section_exit_one(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "m.yaml", tiny_dict("ppo"))
        rc = cli.main(["matrix", "--config", cfg_path,
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
