"""Locating and importing the package under test, and the per-session seed.

The benchmark always imports ``ising_trinity`` from the ``src`` directory of
the checkout that holds it, never from an installed copy, and stops with an
error when that source is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_package():
    """Import ``ising_trinity`` from ``ROOT/src`` or exit with an error."""
    package_dir = SRC / "ising_trinity"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import ising_trinity

    if Path(ising_trinity.__file__).resolve().parent != package_dir:
        raise SystemExit(f"error: imported ising_trinity from {ising_trinity.__file__}")
    return ising_trinity


def session_rng(seed: int, index: int) -> np.random.Generator:
    """The generator that draws session ``index``'s inputs for run seed ``seed``."""
    return np.random.default_rng([seed, index])
