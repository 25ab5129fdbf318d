"""Machine and configuration block recorded with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_bytes(level: int) -> int:
    """Size of the CPU 0 unified or data cache at ``level``; 0 if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                text = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
                return int(text.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return 0


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            return ctypes.CDLL(str(lib))
        except OSError:
            continue
    return None


def _blas_threads_in_use() -> int | str:
    handle = _openblas()
    if handle is None:
        return "unknown"
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from the files; 'none' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: Path) -> str:
    """sha256 over the package sources, identifying the code when no git
    metadata is present."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_block(root: Path, seed: int, blas_threads_set: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_set": blas_threads_set,
        "blas_threads_in_use": _blas_threads_in_use(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
