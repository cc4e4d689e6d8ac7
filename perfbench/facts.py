"""Facts about the machine and the code, recorded with every result.

Everything here only reads: /proc, /sys, the loaded BLAS library and the
checkout's files.  The BLAS thread count is the one in effect, never set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = _read(index / "level"), _read(index / "type"), _read(index / "size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded how many threads it uses."""
    libraries = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines() if "openblas" in line.lower()}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "restrictlab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads_in_effect": _blas_threads()},
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }
