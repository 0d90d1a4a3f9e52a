"""The demos print the same bytes from one change to the next."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rapkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# first 12 hex digits of the sha256 of each demo's stdout, on one BLAS thread
DIGESTS = {
    "cover_reduction_tour": "8a4fd06cbbef",
    "robust_rostering": "1ae0be079371",
    "tightness_sweep": "439b0189b792",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_pinned(name):
    # robust_rostering solves an LP relaxation, whose pivot path can move on a
    # threaded BLAS, so each demo runs in a child with one BLAS thread
    src = str(Path(rapkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], env=env, capture_output=True, check=True
    ).stdout
    assert hashlib.sha256(out).hexdigest()[:12] == DIGESTS[name]
