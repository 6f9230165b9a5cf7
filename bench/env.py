"""Where the benchmark finds planelift, and the machine facts it records.

The benchmark always measures the library in ``src/`` of the checkout it
sits in, never an installed copy, so that two checkouts of different
commits measure their own code.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout has no ``src/planelift`` to measure."""


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "planelift" / "__init__.py").is_file():
        raise MissingSource(f"no planelift package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_source(module_file: str) -> None:
    """Refuse to measure a planelift module imported from anywhere else."""
    if not Path(module_file).resolve().is_relative_to(SRC / "planelift"):
        raise MissingSource(f"planelift resolved to {module_file}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a child Python that must import the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # OpenBLAS exports its thread count under one of these names depending
    # on how it was built; read it from the copy numpy actually loaded.
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out["threads"] = int(fn())
                return out
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance() -> dict:
    """Facts about the machine and the code measured; recorded, never compared."""
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_line_count(),
    }
