"""The serving processes import no scipy.

``import scipy.spatial`` alone costs about 37 MB of resident memory, and
the engine, the gateway, every mesh peer and the remote client import the
packages below. Only the paper experiments' baselines (Euclidean greedy,
Prob, the offline optimum, the planar Laplace inverse) and a snap index
over a point set that is not a lattice use scipy, and they import it
where they call it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SERVING = ("repro", "repro.api", "repro.gateway", "repro.service", "repro.mesh")


def test_serving_packages_load_no_scipy():
    code = (
        "import importlib, sys\n"
        f"for name in {SERVING!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_serving_shard_builds_no_kdtree():
    from repro.geometry import Box
    from repro.service.shard import ShardServer

    shard = ShardServer("s0", Box.square(100.0), grid_nx=8, seed=0)
    assert shard.tree.snap_index._tree is None
