"""Host fingerprint, the verified BLAS thread pin, and host-speed probes.

``PIN_ENV`` must be in the environment *before* numpy is imported: the
BLAS reads it once at load.  :func:`fingerprint` then asks the loaded
libraries how many threads they will really use, so a pin that did not
take (numpy already imported, a BLAS that ignores the variable) is a
refusal rather than a silently 2x-noisier number.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import platform
import subprocess
import time
from pathlib import Path

PIN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The benchmark is sized for two cores (engine workers=2).
MIN_CORES = 2


class HostRefused(RuntimeError):
    """This host cannot produce a comparable measurement."""


def _loaded_blas_libs() -> list[str]:
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.rsplit(None, 1)[-1]
            base = os.path.basename(path)
            if "openblas" in base or "libmkl" in base or "libblis" in base:
                libs.add(path)
    return sorted(libs)


def _openblas_call(lib: ctypes.CDLL, stem: str, restype):
    """Call ``<prefix>openblas_<stem><suffix>`` under whichever name exists."""
    for name in (f"openblas_{stem}", f"openblas_{stem}64_",
                 f"scipy_openblas_{stem}", f"scipy_openblas_{stem}64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_threads() -> tuple[int, list[str]]:
    """Effective BLAS thread count (max over loaded libs) and their versions.

    ``threadpoolctl`` when importable, else ``openblas_get_num_threads``
    through ctypes on every BLAS shared object mapped into this process
    (numpy and scipy each bundle their own OpenBLAS).
    """
    import numpy  # noqa: F401  (load the libraries being inspected)
    import scipy.linalg  # noqa: F401

    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        threadpool_info = None
    if threadpool_info is not None:
        pools = [p for p in threadpool_info() if p.get("user_api") == "blas"]
        if pools:
            return (max(p["num_threads"] for p in pools),
                    [f"{p.get('internal_api')} {p.get('version')}" for p in pools])
    counts, versions = [], []
    for path in _loaded_blas_libs():
        lib = ctypes.CDLL(path)
        n = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        if n is not None:
            counts.append(int(n))
            cfg = _openblas_call(lib, "get_config", ctypes.c_char_p)
            versions.append(cfg.decode() if cfg else os.path.basename(path))
    if not counts:
        raise HostRefused(
            "cannot determine the effective BLAS thread count: threadpoolctl "
            "is not importable and no loaded BLAS exports openblas_get_num_threads"
        )
    return max(counts), versions


def commit(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def fingerprint(root: Path, seed: int) -> dict:
    """Who measured: raises :class:`HostRefused` when the pin is not real."""
    cores = len(os.sched_getaffinity(0))
    if cores < MIN_CORES:
        raise HostRefused(
            f"affinity allows {cores} core(s); the benchmark runs the engines "
            f"at workers=2 and needs at least {MIN_CORES}"
        )
    threads, blas = blas_threads()
    if threads != 1:
        raise HostRefused(
            f"effective BLAS threads = {threads}, expected 1: set "
            f"{'/'.join(PIN_ENV)}=1 before numpy is imported"
        )
    import numpy
    import scipy

    return {
        "cores": cores,
        "blas_threads": threads,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit(root),
        "seed": seed,
    }


def _llc_bytes() -> int:
    """Largest cache of cpu0 (sysfs), 32 MiB when it cannot be read."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        unit = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        best = max(best, int(text.rstrip("KM")) * unit)
    return best or 32 << 20


def _best_rate(work: float, fn, reps: int) -> float:
    """``work`` units over the fastest of ``reps`` calls (a peak, not a typical)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return work / best


def speed_probes(reps: int) -> dict[str, float]:
    """This run's roofline: single-thread dgemm, memcpy and pickle rates."""
    import numpy as np

    n = 768
    a = np.ones((n, n))
    b = np.ones((n, n))
    out = np.empty((n, n))
    dgemm = _best_rate(2.0 * n**3 / 1e9, lambda: np.matmul(a, b, out=out), reps + 1)

    # Bandwidth needs arrays well past the last-level cache (4x, capped
    # so the probe stays a fraction of a second).
    nbytes = min(max(4 * _llc_bytes(), 64 << 20), 256 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    memcpy = _best_rate(nbytes / 1e9, lambda: np.copyto(dst, src), reps)

    blob = np.ones((16 << 20) // 8)
    pick = _best_rate(
        blob.nbytes / 1e9,
        lambda: pickle.loads(pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)),
        reps,
    )
    return {"host.dgemm_gflops": dgemm, "host.memcpy_gbps": memcpy,
            "host.pickle_gbps": pick}


def child_env(root: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PIN_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
