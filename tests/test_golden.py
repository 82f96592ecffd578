"""Golden output digests: every trainer variant, trained and evaluated.

The train_log, updates and metrics digests were recorded before the
trainers were merged onto one SMDP core. The trace and histogram digests
were re-recorded when the traces gained a meal-rate column and the
histogram moved from bin edges to bin centers. Every digest hashes a
file's raw bytes, so a checkpoint's array headers and memory order count
as much as its values: any change to a training or evaluation path that
alters a single byte of an output file fails here. Each learning variant
trains 2 episodes of 240 steps with a buffer of 8, so every one runs at
least two optimizer updates, then evaluates greedily on the five fixed
scenarios. The pid variant grid-searches a small grid over the same
240-step episodes instead and evaluates the gains it found.

The bytes depend on the numeric kernels the process runs: the core type
numpy's bundled OpenBLAS picks and whether numpy dispatches to its
AVX-512 (X86_V4) loops, both chosen from the CPU at load time. So the
pins are kept per numeric platform, keyed by those two values, and a
platform with no recorded set fails with a message naming its key.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etglucose
from etglucose.config import config_from_dict
from etglucose.harness import run_dir, run_eval, run_train
from numeric_platform import numeric_platform


VARIANTS = {
    "ppo": {"method": "ppo"},
    "hetppo": {"method": "hetppo"},
    "cgmetppo-fixed": {"method": "cgmetppo-fixed"},
    "cgmetppo-fixed-r1": {"method": "cgmetppo-fixed", "r1_only": True},
    "cgmetppo-variable": {"method": "cgmetppo-variable"},
    "pid": {"method": "pid", "pid_grid": {"kp": [0.0009, 0.0017],
                                          "ki": [0.0, 1e-4], "kd": [0.0, 0.01]}},
}

FILES = (
    "train_log.csv", "updates.csv", "metrics.csv",
    *(f"eval_trace_scen{i}.csv" for i in range(5)),
    "checkpoint.npz", "checkpoint_ep1.npz", "checkpoint_ep2.npz",
)
PID_FILES = ("gains.yaml", "metrics.csv", *(f"eval_trace_scen{i}.csv" for i in range(5)))

# Recorded on OpenBLAS's SkylakeX kernels with numpy's X86_V4 loops.
SKYLAKEX_AVX512: dict[str, dict[str, str]] = {
    "ppo": {
        "train_log.csv": "1ba0ec5b54e36c8d6e7d3a046a40b8fb3e58185041c271d44efda29e427d8cf1",
        "updates.csv": "cc774310548c8e4726e7619a977116af36c357bf13a8b82f6e50792c4ea21f0f",
        "metrics.csv": "f115bcff369feb511965893169bc8dce5a3bb44cc793b3b7344052f84650f756",
        "eval_trace_scen0.csv": "13db48ec55e8b5ff30dc3097c6aab421de5eeca0614286f3115314454136f025",
        "eval_trace_scen1.csv": "e263251394da330a1880e0d79193a5ceaf02159bcaf4bfd20f8d184891b38aa4",
        "eval_trace_scen2.csv": "ba7cae9ca2a1107a375d05927fa0620e385931de71309bfcfb577be104e80e48",
        "eval_trace_scen3.csv": "fd34978785a78f701c648719b27c161abe82ea736fddd4d547000587f641632e",
        "eval_trace_scen4.csv": "f1688a419fae75e181275d3806a0f87c77060b79c6399775eaa1a96b52bb4bea",
        "checkpoint.npz": "6aab9a38bccf103cd0969abc529158b590f7c4b40a4c39c31d7aff0550d53ac2",
        "checkpoint_ep1.npz": "b92bb9a9a278e30c07388b0a68232e8a8169c97e61cd2cccdec9e860168410b5",
        "checkpoint_ep2.npz": "6aab9a38bccf103cd0969abc529158b590f7c4b40a4c39c31d7aff0550d53ac2",
    },
    "hetppo": {
        "train_log.csv": "bfe97db3b8aecf2c57b535dddd018b4ac5e2a5925a6e2036f10b95520dee6274",
        "updates.csv": "3d813b5fffa5ef44e3123f82152749ecb4b74a5ecfe3f152db1ad36fc4380dc4",
        "metrics.csv": "ca9dcde30be2dbd70bdb81e8bb2187c5b0955f0c40929eb1a78e5f57bbcbd86c",
        "eval_trace_scen0.csv": "41e7881f7bf260d058731bac358877dd77960cec68db208a46d52a0685c389b4",
        "eval_trace_scen1.csv": "56b759c9d15bba27001d8633b24cc37f1b1d8231a187674a0a0b2ae42227badd",
        "eval_trace_scen2.csv": "7cfdfaec9dc82a5125dc49ad64f97070c81d90e8cc50212acf9753ebb3b97326",
        "eval_trace_scen3.csv": "57b975a9eb76989e32b1282d958520319d63d07309802980de894434bd46b1f1",
        "eval_trace_scen4.csv": "bc8ce3b1b0707c72d9cb4d5d859cc81fc5816c02490ef41bfcd082d129e15809",
        "checkpoint.npz": "92cb4ee8951b3b8288c1b7a4363bcc26531107cee749fe28e8512f76efaac2d3",
        "checkpoint_ep1.npz": "3d3f1042abccebe93010250dc2bb4da8a6b567b28b44e8df99cf5939d08be0b2",
        "checkpoint_ep2.npz": "92cb4ee8951b3b8288c1b7a4363bcc26531107cee749fe28e8512f76efaac2d3",
    },
    "cgmetppo-fixed": {
        "train_log.csv": "393b121048c7a4df2f813d57f61476a5e966a4beaa7b742deef8e44c914f33e7",
        "updates.csv": "bfb3510625e762d0f6ddd23f2183df92261331988094f6c4d9753b501f5d7d67",
        "metrics.csv": "07ede92ad1089a3d2d163046f7a32000aaba8477e3f3d5b82c802ec304d7731a",
        "eval_trace_scen0.csv": "f49d2cbe76b1dfab8fe997f48a1210cc771a100b2baea2d63f8ce942fed6d921",
        "eval_trace_scen1.csv": "e8260c5d633b15a935c201889adac66ec35dcd5a993bccf6ab5dd0218bbc4947",
        "eval_trace_scen2.csv": "f40b52f89f6c164f3a5bbaf468c3560838a899cadf013be1893ca17141e627af",
        "eval_trace_scen3.csv": "e43f0ebc1514396415e98b02cbe76f6e2cd1302445ee0058e9a19a5d01f97074",
        "eval_trace_scen4.csv": "5b8392070994a3be8d0bb346825fd95020550dccfab804025647fd634545f29f",
        "checkpoint.npz": "eb79a62bc2c8729c2c5e45fc02a9927495e0d5f40bbf0d0bff2c72f9c560da7b",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "eb79a62bc2c8729c2c5e45fc02a9927495e0d5f40bbf0d0bff2c72f9c560da7b",
    },
    "cgmetppo-fixed-r1": {
        "train_log.csv": "efbd7d9918693f82f9bdc7615926112109c6582c01d8db00444ba047bba0074a",
        "updates.csv": "f7c88f1f56ea0a11f2e4dabbf5c33a95a86f360f4a93aad5a19cb59938b8d482",
        "metrics.csv": "07ede92ad1089a3d2d163046f7a32000aaba8477e3f3d5b82c802ec304d7731a",
        "eval_trace_scen0.csv": "f49d2cbe76b1dfab8fe997f48a1210cc771a100b2baea2d63f8ce942fed6d921",
        "eval_trace_scen1.csv": "e8260c5d633b15a935c201889adac66ec35dcd5a993bccf6ab5dd0218bbc4947",
        "eval_trace_scen2.csv": "f40b52f89f6c164f3a5bbaf468c3560838a899cadf013be1893ca17141e627af",
        "eval_trace_scen3.csv": "e43f0ebc1514396415e98b02cbe76f6e2cd1302445ee0058e9a19a5d01f97074",
        "eval_trace_scen4.csv": "5b8392070994a3be8d0bb346825fd95020550dccfab804025647fd634545f29f",
        "checkpoint.npz": "476bf772b5d36f844cfb405fe6378d296395b5d2fe52743dff08a8d949e83933",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "476bf772b5d36f844cfb405fe6378d296395b5d2fe52743dff08a8d949e83933",
    },
    "cgmetppo-variable": {
        "train_log.csv": "402edd7d01c2835a00519b51606a638ae46d9b3d59d03fa2571d47ff777d8d3f",
        "updates.csv": "b3dfc6e957147ea3dd2ac5361ee9e50af9f75ed4d82235c0d0118ada111fc523",
        "metrics.csv": "c1966d4230c856371cc09da2554e213c928c2c7fd77844f57ab0ff87abf2cbf0",
        "eval_trace_scen0.csv": "ccbf408c1de91d831b1116b3fb6d328dbc6d0c9c8153b87d8039b792a76fc750",
        "eval_trace_scen1.csv": "35702331a3a5b9c78ba3cf2426ded0b379ed59566c63a92adc00abf19593487b",
        "eval_trace_scen2.csv": "1c56b3afa45fc17fc6eed29a5b28cb2a63db0de426bc3b372856df609bc00b13",
        "eval_trace_scen3.csv": "56c1ede5c30740945dba2890afdb3e89d8a48909258001b2b7409347cd01c76f",
        "eval_trace_scen4.csv": "1f331a80fee9eaac0f7c2ddb87369558cb074831dd2a695cbae6a278cdd86085",
        "checkpoint.npz": "94229e42c5457f66ee625fc5f4570f70e1ac6a5d3ccab9e2b5bed73d2bf59c6e",
        "checkpoint_ep1.npz": "5e91ca75b9a40084a3161262072c8828095001e64a8f1ac0fbf14c4b53bf76b6",
        "checkpoint_ep2.npz": "94229e42c5457f66ee625fc5f4570f70e1ac6a5d3ccab9e2b5bed73d2bf59c6e",
        "hist.csv": "eeaee99084fa730691534a2d1897cf0c004008045be739214ef3c999f8229f8c",
    },
    "pid": {
        "gains.yaml": "13bcf992fe99493f8bd3301115cb1825027e1a81cde167e87d4a6e215cdd825f",
        "metrics.csv": "c674f35a4adef26d5c8072999e57315b23a10446ba127a48d3aae299b33bc131",
        "eval_trace_scen0.csv": "a1b3b55ba290288aa24f3a25da5edcc4eec22ef949cb6cb4da495cab18ee6799",
        "eval_trace_scen1.csv": "82dc925aec27dfac0c0902783fdfa7b4429bcb290bc1c292ec3b5200fa900227",
        "eval_trace_scen2.csv": "b2781e60b55a8d7d60c051388abcc7ba3dc427a943931ecf2f92815f1dc0fc5f",
        "eval_trace_scen3.csv": "46176d4c834ce15de8d60a5b51d9d2c5adade34e2d34a0ed422e09e254d31d28",
        "eval_trace_scen4.csv": "3ae4726c43d2bbb1a4acf69996f320f13f381bc14b7cb6919d94c0473c27f6ca",
    },
}

# The same runs on OpenBLAS's Haswell kernels without numpy's X86_V4 loops:
# only the checkpoints differ from the set above. Forcing the Zen core type
# selects these same kernels (its core name reads Haswell) and gives these
# same bytes.
HASWELL_CHECKPOINTS: dict[str, dict[str, str]] = {
    "ppo": {
        "checkpoint.npz": "29a55bcba3d3997c22f4dca21c07663a51f72685b87d91b326391f840ed59370",
        "checkpoint_ep1.npz": "8b3ec8d061e97b08363285aa385e407c28aae8a59bb9c4f94ed13c860386ecf1",
        "checkpoint_ep2.npz": "29a55bcba3d3997c22f4dca21c07663a51f72685b87d91b326391f840ed59370",
    },
    "hetppo": {
        "checkpoint.npz": "7f9c4d19b3cdb3700d38ecf4135521d5be4e9eec9d9542703c0c6f5f1664f30d",
        "checkpoint_ep1.npz": "2e1792c3d04e91300b5e7b4b7623c3ab6a800d12b170c466aa6c1da840a80381",
        "checkpoint_ep2.npz": "7f9c4d19b3cdb3700d38ecf4135521d5be4e9eec9d9542703c0c6f5f1664f30d",
    },
    "cgmetppo-fixed": {
        "checkpoint.npz": "49c3b0a78fd55c8aa5fc2d74929a310c65072c052f7d6705cee4a74bd9817782",
        "checkpoint_ep1.npz": "e434cfcbbca57c2540ca1f7f96a53a00517f9a8dcda2cedb028c9afd208af599",
        "checkpoint_ep2.npz": "49c3b0a78fd55c8aa5fc2d74929a310c65072c052f7d6705cee4a74bd9817782",
    },
    "cgmetppo-fixed-r1": {
        "checkpoint.npz": "1dc7fecbbf50a2972229747dbfec881313c6ba412bc5843217b466368c15045f",
        "checkpoint_ep1.npz": "e434cfcbbca57c2540ca1f7f96a53a00517f9a8dcda2cedb028c9afd208af599",
        "checkpoint_ep2.npz": "1dc7fecbbf50a2972229747dbfec881313c6ba412bc5843217b466368c15045f",
    },
    "cgmetppo-variable": {
        "checkpoint.npz": "d7c8d53d009f849bb0ed11d546c6e23e2b243996f33f7873eccad9ca118ae436",
        "checkpoint_ep1.npz": "8cfef3408e82556961340f07523feebf029deb092672093baceaf930e942d8fc",
        "checkpoint_ep2.npz": "d7c8d53d009f849bb0ed11d546c6e23e2b243996f33f7873eccad9ca118ae436",
    },
}

# The same runs on OpenBLAS's Haswell kernels with numpy's X86_V4 loops:
# again only the checkpoints differ from the first set.
HASWELL_AVX512_CHECKPOINTS: dict[str, dict[str, str]] = {
    "ppo": {
        "checkpoint.npz": "5669b91cae99a67ab91e254d7eb95111ef9d29de24da5aed979849908d0a369f",
        "checkpoint_ep1.npz": "764e3df92196630876aa22d0065a694a5c56412ea783ef54cc530b91d739368e",
        "checkpoint_ep2.npz": "5669b91cae99a67ab91e254d7eb95111ef9d29de24da5aed979849908d0a369f",
    },
    "hetppo": {
        "checkpoint.npz": "e23d066c209f5bf859e9521801d8d7b81813cd904a685337e29fa16a0113606d",
        "checkpoint_ep1.npz": "3384052d50c860c6561fe97cb7592ce0dee6ac6e938d6292019a003f489b889f",
        "checkpoint_ep2.npz": "e23d066c209f5bf859e9521801d8d7b81813cd904a685337e29fa16a0113606d",
    },
    "cgmetppo-fixed": {
        "checkpoint.npz": "08864079c77a40ee35b3cd31281e08566d027ac9b8f44d02262da34df072ce29",
        "checkpoint_ep1.npz": "e434cfcbbca57c2540ca1f7f96a53a00517f9a8dcda2cedb028c9afd208af599",
        "checkpoint_ep2.npz": "08864079c77a40ee35b3cd31281e08566d027ac9b8f44d02262da34df072ce29",
    },
    "cgmetppo-fixed-r1": {
        "checkpoint.npz": "48e9e05a8630852986b0540d535811fb99e141a608f429d22eb947f4c375bea5",
        "checkpoint_ep1.npz": "e434cfcbbca57c2540ca1f7f96a53a00517f9a8dcda2cedb028c9afd208af599",
        "checkpoint_ep2.npz": "48e9e05a8630852986b0540d535811fb99e141a608f429d22eb947f4c375bea5",
    },
    "cgmetppo-variable": {
        "checkpoint.npz": "631153b5e09c94aed9629a0dfe08e281a9dadceec809a79a6a9620aaa4dcd020",
        "checkpoint_ep1.npz": "ee9ec7862b8e625c0010fd9f947c33cdb0856084981bb13a4fdb83b9c5a2ef8b",
        "checkpoint_ep2.npz": "631153b5e09c94aed9629a0dfe08e281a9dadceec809a79a6a9620aaa4dcd020",
    },
}

# The same runs on OpenBLAS's SkylakeX kernels without numpy's X86_V4 loops:
# again only the checkpoints differ from the first set.
SKYLAKEX_CHECKPOINTS: dict[str, dict[str, str]] = {
    "ppo": {
        "checkpoint.npz": "52656e762020cb7f92f40c0f66f99409d6e4933baa70e5e43ce43a81c3d63cfa",
        "checkpoint_ep1.npz": "c5ec12035012f9b11e9eafe4960330537150911f0848ffd11bf86c02e19c9ee0",
        "checkpoint_ep2.npz": "52656e762020cb7f92f40c0f66f99409d6e4933baa70e5e43ce43a81c3d63cfa",
    },
    "hetppo": {
        "checkpoint.npz": "ab45198882aa265f0284253ec4ace40e78a82d408c60c06ba49a19ab642650f0",
        "checkpoint_ep1.npz": "a27abfd336e29b814e53e92c3fd76ff2317cfef1a0cded65cf9ae705612b599e",
        "checkpoint_ep2.npz": "ab45198882aa265f0284253ec4ace40e78a82d408c60c06ba49a19ab642650f0",
    },
    "cgmetppo-fixed": {
        "checkpoint.npz": "67483656b5c047462ed581ad6fa6af0b9c39e82e8d5df446f2afdc479be1af7b",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "67483656b5c047462ed581ad6fa6af0b9c39e82e8d5df446f2afdc479be1af7b",
    },
    "cgmetppo-fixed-r1": {
        "checkpoint.npz": "86b144557e76d628c8d076b9253e5082b4abc1818ca53b7f678cd649d0984e8a",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "86b144557e76d628c8d076b9253e5082b4abc1818ca53b7f678cd649d0984e8a",
    },
    "cgmetppo-variable": {
        "checkpoint.npz": "3b7ae6b68bf98145dae28570b2f6819b4331d053e57e7854f4a0361353b946bf",
        "checkpoint_ep1.npz": "54115538883bc564f056bd8e83df747a4c337a3a3fdd2fe4c63ab6c67ffdd2a1",
        "checkpoint_ep2.npz": "3b7ae6b68bf98145dae28570b2f6819b4331d053e57e7854f4a0361353b946bf",
    },
}

# Each non-native set's checkpoint overlay, and the environment that makes an
# AVX-512 host run that set's kernels. An override reaches the key, but a
# real CPU that reports the key may still run other kernels.
NO_X86_V4 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
OVERLAYS = {
    ("Haswell", False): (HASWELL_CHECKPOINTS,
                         {"OPENBLAS_CORETYPE": "Haswell", **NO_X86_V4}),
    ("Haswell", True): (HASWELL_AVX512_CHECKPOINTS, {"OPENBLAS_CORETYPE": "Haswell"}),
    ("SkylakeX", False): (SKYLAKEX_CHECKPOINTS, NO_X86_V4),
}

GOLDEN_SETS = {
    ("SkylakeX", True): SKYLAKEX_AVX512,
    **{key: {variant: {**pins, **overlay.get(variant, {})}
             for variant, pins in SKYLAKEX_AVX512.items()}
       for key, (overlay, _env) in OVERLAYS.items()},
}


def golden_set(platform: tuple[str, bool]) -> dict[str, dict[str, str]]:
    if platform not in GOLDEN_SETS:
        pytest.fail(f"no golden pins recorded for numeric platform {platform}; "
                    f"recorded: {sorted(GOLDEN_SETS)}")
    return GOLDEN_SETS[platform]


def train_and_eval(out, variant: str):
    """Train and evaluate one variant; returns (config, run directory)."""
    cfg = config_from_dict({
        **VARIANTS[variant], "patient": "adult#001", "episodes": 2, "seeds": [0],
        "checkpoint_every": 1, "episode": {"horizon": 240},
        "hyper": {"buffer_size": 8, "minibatch": 4, "epochs": 2},
    })
    run_train(cfg, out)
    run_eval(cfg, out)
    return cfg, run_dir(out, cfg, 0)


def file_digests(cfg, rd) -> dict[str, str]:
    if cfg.method == "pid":
        names = PID_FILES
    else:
        names = FILES + (("hist.csv",) if cfg.method == "cgmetppo-variable" else ())
    return {name: hashlib.sha256((rd / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_outputs_match_golden_digests(tmp_path, variant):
    golden = golden_set(numeric_platform())
    cfg, rd = train_and_eval(tmp_path, variant)
    if cfg.method != "pid":
        assert len((rd / "updates.csv").read_text().splitlines()) - 1 >= 2
    assert file_digests(cfg, rd) == golden[variant]


@pytest.mark.parametrize("key", list(OVERLAYS), ids=lambda key: "-".join(map(str, key)))
def test_platform_set_holds_in_a_child_process(tmp_path, key):
    # A child process under the key's environment reruns one learning
    # variant, so each non-native set is checked on one host. An environment
    # only takes kernels away: any host reaches the Haswell core, but the
    # SkylakeX core and the X86_V4 loops only where the host has them.
    native = numeric_platform()
    if (key[0] != "Haswell" and key[0] != native[0]) or (key[1] and not native[1]):
        pytest.skip(f"this host's platform {native} cannot reach {key}")
    child = ("import json, sys; import test_golden as g; "
             "cfg, rd = g.train_and_eval(sys.argv[1], 'hetppo'); "
             "print(json.dumps([g.numeric_platform(), g.file_digests(cfg, rd)]))")
    path = os.pathsep.join([str(Path(etglucose.__file__).parents[1]),
                            str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                          env={**os.environ, **OVERLAYS[key][1], "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    platform, digests = json.loads(done.stdout)
    assert tuple(platform) == key
    assert digests == GOLDEN_SETS[key]["hetppo"]
