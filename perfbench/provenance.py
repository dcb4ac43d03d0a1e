"""Where a result was measured: software versions, machine, threads, revision."""

from __future__ import annotations

import glob
import hashlib
import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env() -> dict:
    """Environment for the workload processes: BLAS threads pinned to nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def llc_bytes():
    """Size of the highest cache level of cpu0, read from sysfs; None if unreadable."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = _size_bytes(fh.read())
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else best[1]


def _git_revision(root: str):
    """Commit named by .git/HEAD, read without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """SHA-256 over the package sources, a revision stand-in for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "stabcert", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        return {}
    keep = ("name", "version", "openblas configuration")
    return {lib: {k: v for k, v in deps.get(lib, {}).items() if k in keep}
            for lib in ("blas", "lapack")}


def collect(root: str, env: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": nproc(),
        "llc_bytes": llc_bytes(),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
        "machine": platform.machine(),
    }
