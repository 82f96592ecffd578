"""Golden output digests: every trainer variant, trained and evaluated.

The CSV digests were recorded before the trainers were merged onto one
SMDP core. Every digest hashes a file's raw bytes, so a checkpoint's
array headers and memory order count as much as its values: any change
to a training or evaluation path that alters a single byte of an output
file fails here. Each learning variant trains 2 episodes of 240 steps
with a buffer of 8, so every one runs at least two optimizer updates,
then evaluates greedily on the five fixed scenarios. The pid variant
grid-searches a small grid over the same 240-step episodes instead and
evaluates the gains it found.

The bytes depend on the numeric kernels the process runs: the core type
numpy's bundled OpenBLAS picks and whether numpy dispatches to its
AVX-512 (X86_V4) loops, both chosen from the CPU at load time. So the
pins are kept per numeric platform, keyed by those two values, and a
platform with no recorded set fails with a message naming its key.
"""
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import etglucose
from etglucose.config import config_from_dict
from etglucose.harness import run_dir, run_eval, run_train


def numeric_platform() -> tuple[str, bool]:
    """(OpenBLAS core name, X86_V4 dispatch) of this process's numpy."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    if not libs:
        return "no bundled OpenBLAS", bool(__cpu_features__.get("X86_V4"))
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode(), bool(__cpu_features__.get("X86_V4"))


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
        "eval_trace_scen0.csv": "ed09c832885adac3d6f2be36b1b3c68ca13e8ec5822aac53a3ed7245cd6fc3b1",
        "eval_trace_scen1.csv": "ac21afafea09ca1942b9ee7b8ede12b44db017fda0afcadf757a00fbcc1eab94",
        "eval_trace_scen2.csv": "7fbddeb6b2808bc9f86d193edb5daf72e1f6c552d339bd518fecb78396df46ca",
        "eval_trace_scen3.csv": "ca798822421ba6595aee89db380171d0fbfd9a9a9b729c8b579767f63a9db2e1",
        "eval_trace_scen4.csv": "fe5ede66d11c129a7d15d60863fb12e5dd4a140369ff2390007fe64263746bba",
        "checkpoint.npz": "6aab9a38bccf103cd0969abc529158b590f7c4b40a4c39c31d7aff0550d53ac2",
        "checkpoint_ep1.npz": "b92bb9a9a278e30c07388b0a68232e8a8169c97e61cd2cccdec9e860168410b5",
        "checkpoint_ep2.npz": "6aab9a38bccf103cd0969abc529158b590f7c4b40a4c39c31d7aff0550d53ac2",
    },
    "hetppo": {
        "train_log.csv": "bfe97db3b8aecf2c57b535dddd018b4ac5e2a5925a6e2036f10b95520dee6274",
        "updates.csv": "3d813b5fffa5ef44e3123f82152749ecb4b74a5ecfe3f152db1ad36fc4380dc4",
        "metrics.csv": "ca9dcde30be2dbd70bdb81e8bb2187c5b0955f0c40929eb1a78e5f57bbcbd86c",
        "eval_trace_scen0.csv": "89e1dc442e566aca51762ecfa0d534e0bb142365f28306c6ed35cd815c6335fa",
        "eval_trace_scen1.csv": "56afad2846568751b62b06ead9e13ddfbc5b4b1356ac10570edb5058f4a87896",
        "eval_trace_scen2.csv": "9d869007e80a005d671dc6fa494e3e9be33abe5c886d69eec5cf9a5b980de289",
        "eval_trace_scen3.csv": "57c7ef66ccac0004b1e2b3098a6c153d3d3dd907ea5a29d828e38d6e7fee1634",
        "eval_trace_scen4.csv": "8ff9f290fc19ce0f6f1ca2432d4be245c03e88a7daf873ab48530a64de128dc2",
        "checkpoint.npz": "92cb4ee8951b3b8288c1b7a4363bcc26531107cee749fe28e8512f76efaac2d3",
        "checkpoint_ep1.npz": "3d3f1042abccebe93010250dc2bb4da8a6b567b28b44e8df99cf5939d08be0b2",
        "checkpoint_ep2.npz": "92cb4ee8951b3b8288c1b7a4363bcc26531107cee749fe28e8512f76efaac2d3",
    },
    "cgmetppo-fixed": {
        "train_log.csv": "393b121048c7a4df2f813d57f61476a5e966a4beaa7b742deef8e44c914f33e7",
        "updates.csv": "bfb3510625e762d0f6ddd23f2183df92261331988094f6c4d9753b501f5d7d67",
        "metrics.csv": "07ede92ad1089a3d2d163046f7a32000aaba8477e3f3d5b82c802ec304d7731a",
        "eval_trace_scen0.csv": "2ce041d60684e464b0966cebe67b6601dda8d75353596332299f491e051c3452",
        "eval_trace_scen1.csv": "e3f7ce8dc5dd42a5c3fd9270fc6922123a187bc707dc3f60c6662c2def0179b1",
        "eval_trace_scen2.csv": "90361a37bb89615eb13aab2322c7810e2bc0eaeac41bf60b68de7b3acedc127e",
        "eval_trace_scen3.csv": "d1e3cf1cf71ed5d4ae088d96f70bee34a6db03a604a32494d659f8a897d9331c",
        "eval_trace_scen4.csv": "5d30d0d804ff061bc1fe2252a34ea3d9f0aa0773a283f1eeff88b18bef973f18",
        "checkpoint.npz": "eb79a62bc2c8729c2c5e45fc02a9927495e0d5f40bbf0d0bff2c72f9c560da7b",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "eb79a62bc2c8729c2c5e45fc02a9927495e0d5f40bbf0d0bff2c72f9c560da7b",
    },
    "cgmetppo-fixed-r1": {
        "train_log.csv": "efbd7d9918693f82f9bdc7615926112109c6582c01d8db00444ba047bba0074a",
        "updates.csv": "f7c88f1f56ea0a11f2e4dabbf5c33a95a86f360f4a93aad5a19cb59938b8d482",
        "metrics.csv": "07ede92ad1089a3d2d163046f7a32000aaba8477e3f3d5b82c802ec304d7731a",
        "eval_trace_scen0.csv": "2ce041d60684e464b0966cebe67b6601dda8d75353596332299f491e051c3452",
        "eval_trace_scen1.csv": "e3f7ce8dc5dd42a5c3fd9270fc6922123a187bc707dc3f60c6662c2def0179b1",
        "eval_trace_scen2.csv": "90361a37bb89615eb13aab2322c7810e2bc0eaeac41bf60b68de7b3acedc127e",
        "eval_trace_scen3.csv": "d1e3cf1cf71ed5d4ae088d96f70bee34a6db03a604a32494d659f8a897d9331c",
        "eval_trace_scen4.csv": "5d30d0d804ff061bc1fe2252a34ea3d9f0aa0773a283f1eeff88b18bef973f18",
        "checkpoint.npz": "476bf772b5d36f844cfb405fe6378d296395b5d2fe52743dff08a8d949e83933",
        "checkpoint_ep1.npz": "3548059f299a3128fcce618ad8cee343e44e908da4c896a7ab3a51e1b4264d62",
        "checkpoint_ep2.npz": "476bf772b5d36f844cfb405fe6378d296395b5d2fe52743dff08a8d949e83933",
    },
    "cgmetppo-variable": {
        "train_log.csv": "402edd7d01c2835a00519b51606a638ae46d9b3d59d03fa2571d47ff777d8d3f",
        "updates.csv": "b3dfc6e957147ea3dd2ac5361ee9e50af9f75ed4d82235c0d0118ada111fc523",
        "metrics.csv": "c1966d4230c856371cc09da2554e213c928c2c7fd77844f57ab0ff87abf2cbf0",
        "eval_trace_scen0.csv": "a59013470d714e4a9a266b0b06a8beea8f4275a5ed329856bc3b51357e7f6a4c",
        "eval_trace_scen1.csv": "9d58b57524d4836f2639c842f1685e013a4d28cf844fb362db40c1e02dccd9fc",
        "eval_trace_scen2.csv": "fa363f85f2d1d503e6296c3065d4f23d90db0edede92ab99ab150970d2b2f445",
        "eval_trace_scen3.csv": "1b33601d557a1fff1bc3aa53b4ddf809b20d1051c9ca0cec24e427d7b4ba5293",
        "eval_trace_scen4.csv": "00d6cd7fea060f05b283cbfd24737ceb5983d9140d8306037838d050fcdcfd9e",
        "checkpoint.npz": "94229e42c5457f66ee625fc5f4570f70e1ac6a5d3ccab9e2b5bed73d2bf59c6e",
        "checkpoint_ep1.npz": "5e91ca75b9a40084a3161262072c8828095001e64a8f1ac0fbf14c4b53bf76b6",
        "checkpoint_ep2.npz": "94229e42c5457f66ee625fc5f4570f70e1ac6a5d3ccab9e2b5bed73d2bf59c6e",
        "hist.csv": "aad8a433c25a351061e4902f8052456f6f8c922f9cf5a330dc4c34fb22d4382d",
    },
    "pid": {
        "gains.yaml": "13bcf992fe99493f8bd3301115cb1825027e1a81cde167e87d4a6e215cdd825f",
        "metrics.csv": "c674f35a4adef26d5c8072999e57315b23a10446ba127a48d3aae299b33bc131",
        "eval_trace_scen0.csv": "974b7f3e59ffd70af8f792490af2e95bdfe6d0305062dd206dcc3d5fef9c5152",
        "eval_trace_scen1.csv": "63eb1f0bd89487b63116398bfabd305e96d9c6b450619e29d5ff2c4add6759db",
        "eval_trace_scen2.csv": "9187ab4e60401303c5764540a59d9cfc857ff4887fc33d0dbda7f822d9562f5f",
        "eval_trace_scen3.csv": "90391af6a2d5a85d2c9f7d092a484d0756a98c66e9af6137a582a4dc36341ac4",
        "eval_trace_scen4.csv": "06af3aba1b8fa0641f47e8c6d52a967da7060c4205f78d3be265c06daae46478",
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

# The environment that makes an AVX-512 host run the Haswell set's kernels.
HASWELL_ENV = {"OPENBLAS_CORETYPE": "Haswell",
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

GOLDEN_SETS = {
    ("SkylakeX", True): SKYLAKEX_AVX512,
    ("Haswell", False): {variant: {**pins, **HASWELL_CHECKPOINTS.get(variant, {})}
                         for variant, pins in SKYLAKEX_AVX512.items()},
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


def test_haswell_set_holds_in_a_child_process(tmp_path):
    # Whatever this host's own platform, a child process under HASWELL_ENV
    # reruns one learning variant, so the Haswell set is checked here too.
    child = ("import json, sys; import test_golden as g; "
             "cfg, rd = g.train_and_eval(sys.argv[1], 'hetppo'); "
             "print(json.dumps([g.numeric_platform(), g.file_digests(cfg, rd)]))")
    path = os.pathsep.join([str(Path(etglucose.__file__).parents[1]),
                            str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                          env={**os.environ, **HASWELL_ENV, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    platform, digests = json.loads(done.stdout)
    assert tuple(platform) == ("Haswell", False)
    assert digests == GOLDEN_SETS["Haswell", False]["hetppo"]
