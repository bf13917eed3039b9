"""Background-solution cache: versioned npz files keyed by a run-parameter hash."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .background import BackgroundSolution
from .potential import PotentialParams

CACHE_VERSION = BackgroundSolution.CACHE_FORMAT


def cache_key(params: PotentialParams, t_start: float, t_end: float,
              rtol: float, atol: float) -> str:
    """Hash of the run parameters, each keyed as the repr of its float value,
    so a numpy scalar and the equal float share a key."""
    values = (params.kappa, params.lam, params.G, t_start, t_end, rtol, atol)
    blob = "|".join([f"v{CACHE_VERSION}", __version__, *(repr(float(x)) for x in values)])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def cache_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"background_{key}.npz"


def save_background(sol: BackgroundSolution, cache_dir: str | Path) -> Path:
    """Write the solution's to_arrays members (format, meta, tau, y, coef)
    atomically: a temp file in the same directory, renamed into place, so a
    reader never sees a partial file.  The format is part of the key, so a
    file of an older format is never read.

    The npz is stored uncompressed: deflate saves 13% of the bytes at about
    twenty times the write time.  Its members keep the ZIP CRC-32, which
    np.load checks, so a corrupted file still loads as a miss; files written
    compressed load the same way."""
    path = cache_path(cache_dir, cache_key(sol.params, sol.t_start, sol.t_end,
                                           sol.rtol, sol.atol))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **sol.to_arrays())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_background(params: PotentialParams, t_start: float, t_end: float,
                    rtol: float, atol: float,
                    cache_dir: str | Path) -> BackgroundSolution | None:
    path = cache_path(cache_dir, cache_key(params, t_start, t_end, rtol, atol))
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            return BackgroundSolution.from_arrays(dict(data.items()))
    except Exception:
        return None   # stale or corrupt cache falls back to a fresh solve
