"""Environment stamp written into every result record.

Results from different environments must never be compared, so each record
names the code (git SHA when the tree is a git checkout, and always a hash of
the package sources), the CPU count, and the Python, NumPy, SciPy and BLAS
builds with the BLAS thread counts the run actually used.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads() -> int:
    """Thread count the run grants BLAS; never more than the usable CPUs, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _is_blas(name: str) -> bool:
    name = name.lower()
    return "openblas" in name or "mkl_rt" in name or name.startswith(("libblas", "libcblas", "libflexiblas"))


def _loaded_blas() -> dict[str, int | None]:
    """Thread count of every BLAS/LAPACK library mapped into this process."""
    found: dict[str, int | None] = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh}
    for path in sorted(p for p in paths if p.startswith("/") and _is_blas(os.path.basename(p))):
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads = int(fn())
                break
        found[os.path.basename(path)] = threads
    return found


def program_env() -> dict:
    """Stamp taken inside a child after fraclab, NumPy and SciPy are imported."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _loaded_blas(),
    }


def host_env(root: Path) -> dict:
    """Stamp taken by the parent: code identity and CPU count (no SHA outside git)."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fraclab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_requested": blas_threads(),
        "machine": platform.machine(),
    }
