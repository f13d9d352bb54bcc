"""Import cost: cloneregion.cli loads NumPy and the package, and SciPy only
when a command needs it.

Each check runs in a fresh interpreter, since the test process itself has
long since imported SciPy.  SciPy is imported inside the functions that use
it: linprog (membership LPs), ConvexHull (hull), and qmc and ndtri (sampled
regions of blocks of dimension >= 4); bare scipy, for its version, in the
JSON envelope.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cloneregion import decompose

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.stats", "scipy.special", "scipy.linalg",
         "scipy.sparse")

_CHILD = r"""
import contextlib, io, json, sys
import cloneregion.cli as cli
from cloneregion import decompose
from cloneregion.regions import symmetric_max

report = {"after_import": sorted(sys.modules), "jobs": []}
jobs = [
    ["check", "--n", "5", "--d", "4"],
    ["symmetric", "--n", "4", "--d", "3"],
    ["convert", "--d", "2", "--singlet", "0.75"],
    "symmetric_max(decompose(6, 3))",
    ["irreps", "--n", "4", "--d", "2"],
    ["hull", "--n", "4", "--d", "2"],
    ["channels", "--n", "3", "--d", "2", "--samples", "5"],
    ["region", "--n", "5", "--d", "2", "--samples", "10"],
]
for job in jobs:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        result = cli.main(job) if isinstance(job, list) else eval(job)
    report["jobs"].append({"result": result, "added": sorted(set(sys.modules) - before)})
print(json.dumps(report))
"""

_BARE_SCIPY = r"""
import json, sys
import cloneregion.cli
before = set(sys.modules)
import scipy
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _fresh(code: str):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def report():
    return _fresh(_CHILD)


def _job(report, index):
    job = report["jobs"][index]
    assert job["result"] == 0 or isinstance(job["result"], float), job
    return set(job["added"])


def test_import_loads_no_scipy(report):
    loaded = report["after_import"]
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert not set(HEAVY) & set(loaded)


def test_numpy_random_is_loaded_with_the_package(report):
    # NumPy 2 loads numpy.random lazily; the oracle and check draw from it
    assert "numpy.random" in report["after_import"]


@pytest.mark.parametrize("index,name", [(0, "check"), (1, "symmetric"), (2, "convert"),
                                        (3, "decompose + symmetric_max")])
def test_numpy_only_paths_import_nothing(report, index, name):
    assert _job(report, index) == set()


def test_irreps_loads_bare_scipy_only(report):
    # the JSON envelope records scipy.__version__; no SciPy subpackage is loaded
    assert _job(report, 4) <= set(_fresh(_BARE_SCIPY))
    assert not set(HEAVY) & _job(report, 4)


@pytest.mark.parametrize("index,modules", [
    (5, ("scipy.spatial",)),                  # hull: ConvexHull
    (6, ("scipy.optimize",)),                 # channels: the membership LP
    (7, ("scipy.stats",)),                    # region: Halton points on S^{dim-1}
])
def test_deferred_imports_run(report, index, modules):
    added = _job(report, index)
    assert set(modules) <= added


def test_region_size_reaches_the_halton_branch():
    assert max(b.dim for b in decompose(5, 2).blocks) >= 4
