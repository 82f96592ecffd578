"""The numeric platform key of this process's numpy.

The golden pins and perfbench's smdp-train digest are recorded per key.
It imports numpy only, so a job without pytest can print it.
"""
import ctypes
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__


def numeric_platform() -> tuple[str, bool]:
    """(OpenBLAS core name, X86_V4 dispatch) of this process's numpy."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    if not libs:
        return "no bundled OpenBLAS", bool(__cpu_features__.get("X86_V4"))
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode(), bool(__cpu_features__.get("X86_V4"))

