"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform

# (symbol reporting the live thread count, symbol reporting the build) for
# numpy's 64-bit-integer OpenBLAS and scipy's bundled 32-bit-integer copy
POOLS = {
    "numpy": ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    "scipy": ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
}


def blas_pools() -> dict:
    """Live thread count and build string of each OpenBLAS loaded into
    this process, found through /proc/self/maps."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    pools = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for pool, (threads_sym, config_sym) in POOLS.items():
            threads = getattr(lib, threads_sym, None)
            if threads is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config = getattr(lib, config_sym)
            config.restype, config.argtypes = ctypes.c_char_p, []
            pools[pool] = {"threads": threads(), "build": config().decode(),
                           "library": os.path.basename(path)}
    return pools


def record() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_pools(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k == "SECTORSUM_THREADS"},
    }
