"""The memory budget: refusals under an address-space limit, and predictions
that bound the measured peaks.

Every large allocation predicts its bytes and calls algebra.require_memory
first.  The refusals run in one child process whose address space is limited
to 4 GiB, so an allocation that escaped its prediction would end in a
MemoryError there instead of an exit status of 2.  The predictions are
compared with tracemalloc peaks, which include NumPy's buffers.
"""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
# The package imports these on first use; loading them here keeps their
# one-time module objects out of the peaks that the predictions must bound.
import scipy.optimize  # noqa: F401
import scipy.spatial  # noqa: F401
import scipy.stats  # noqa: F401

from cloneregion import algebra, cli, oracle, regions
from cloneregion.symgroup import Permutation

SRC = str(Path(__file__).resolve().parents[1] / "src")
ADDRESS_LIMIT = 4 * 2**30

_CHILD = r"""
import contextlib, io, json, resource, sys, time
limit, jobs = int(sys.argv[1]), json.loads(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cloneregion import cli, oracle
from cloneregion.symgroup import Permutation
results = []
for job in jobs:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job) if isinstance(job, list) else eval(job)
        raised = None
    except BaseException as exc:
        rc, raised = None, f"{type(exc).__name__}: {exc}"
    results.append({"rc": rc, "raised": raised, "stdout": out.getvalue(),
                    "stderr": err.getvalue(), "seconds": time.perf_counter() - start})
print(json.dumps(results))
"""


def run_under_address_limit(jobs, limit=ADDRESS_LIMIT):
    """Run each job in one child process whose address space is capped at limit.

    A job is an argv list for cloneregion.cli.main, or a Python expression over
    the names cli, oracle and Permutation.  Returns one dict a job: the exit
    status (None for an expression), the exception raised if any, the captured
    stdout and stderr, and the wall time.  The limit binds the child only.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(limit), json.dumps(jobs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


REFUSED = [
    ["region", "--n", "6", "--d", "6", "--samples", "100000000"],
    ["irreps", "--n", "1000", "--d", "2"],
    ["check", "--n", "10", "--d", "4"],
]


class TestRefusalsUnderAddressLimit:
    @pytest.fixture(scope="class")
    def results(self):
        dense = "oracle.perm_operator(Permutation.identity(20), 20, 2)"
        return run_under_address_limit(REFUSED + [dense])

    @pytest.mark.parametrize("index", range(len(REFUSED)), ids=[" ".join(a[:3]) for a in REFUSED])
    def test_command_exits_2_naming_the_budget(self, results, index):
        result = results[index]
        assert result["raised"] is None, result["raised"]
        assert result["rc"] == 2
        assert "memory budget of 2048 MiB" in result["stderr"]
        assert result["stdout"] == ""

    def test_irreps_refused_within_a_second(self, results):
        assert results[REFUSED.index(["irreps", "--n", "1000", "--d", "2"])]["seconds"] < 1.0

    def test_dense_operator_raises_value_error(self, results):
        assert results[-1]["raised"].startswith("ValueError:")
        assert "memory budget" in results[-1]["raised"]


def test_symmetric_reads_no_generator_under_1_gib():
    # decompose builds one block at a time and holds no factors; the generators
    # would take 1.4 GiB at (11, 4) and 1.0 GiB at (15, 2)
    werner = {(11, 4): "F = 0.325000, f = 0.460000", (15, 2): "F = 0.535714, f = 0.690476"}
    results = run_under_address_limit([["symmetric", "--n", str(n), "--d", str(d)] for n, d in werner],
                                      limit=2**30)
    for result, reference in zip(results, werner.values()):
        assert result["raised"] is None, result["raised"]
        assert result["rc"] == 0, result["stderr"]
        assert f"(Werner reference {reference})" in result["stdout"]


def test_decompose_holds_no_factors():
    # every block's factors at (10, 5) would hold 24.5 MiB; the blocks keep labels only
    algebra.young_orthogonal_rep.cache_clear()
    tracemalloc.start()
    try:
        dec = algebra.decompose(10, 5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dec.blocks) == 18
    assert held <= 2 * 2**20, f"decompose(10, 5) holds {held / 2**20:.1f} MiB"


@pytest.mark.parametrize("size,limit_mib", [((10, 5), 9), ((14, 2), 90)], ids=["10-5", "14-2"])
def test_decompose_forms_no_dense_Q(size, limit_mib):
    # the certificate reads Q(alpha) one block row at a time; the dense Q of the
    # largest block, alpha = (7, 5) at (14, 2), alone would take 113.7 MiB
    algebra.young_orthogonal_rep.cache_clear()
    tracemalloc.start()
    try:
        algebra.decompose(*size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, f"decompose{size} peaks at {peak / 2**20:.1f} MiB"


def _measure(monkeypatch, call):
    """(tracemalloc peak above the start, largest prediction made) for call()."""
    predictions = []
    real = algebra.require_memory

    def spy(nbytes, what):
        predictions.append(nbytes)
        real(nbytes, what)

    for module in (algebra, oracle, regions):
        monkeypatch.setattr(module, "require_memory", spy)
    algebra.young_orthogonal_rep.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert predictions, "no prediction was made"
    return peak, max(predictions)


def _quiet_main(*argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main([str(a) for a in argv]) == 0


def _site_call(site, size):
    """The call that exercises site at size; the inputs it takes are built first."""
    if site == "decompose":
        return lambda: algebra.decompose(*size)
    if site == "generators":  # the whole store that decompose's prediction charges
        return lambda: [block.generators for block in algebra.decompose(*size).blocks]
    if site.startswith("sector_blocks"):  # the inputs: every block with its generators
        dec = algebra.decompose(*size)
        for block in dec.blocks:
            block.generators
    if site == "sector_blocks":
        w = np.random.default_rng(sum(size)).normal(size=dec.clone_count)
        return lambda: oracle.full_vs_block_spectrum(dec, w)
    if site == "sector_blocks_stack":  # five directions in one call, as `check` makes it
        W = np.random.default_rng(sum(size)).normal(size=(5, dec.clone_count))
        return lambda: oracle.full_vs_block_spectrum(dec, W)
    if site == "haar_isometry":
        return lambda: oracle.haar_isometry(*size, 0)
    if site == "perm_operator":
        return lambda: oracle.perm_operator(Permutation.identity(size[0]), *size)
    if site == "pt_transposition":
        return lambda: oracle.pt_transposition(2, *size)
    n, d, *flags = size  # a command, run whole: its text output is part of the site
    return lambda: _quiet_main(site, "--n", n, "--d", d, *flags)


SITES = [
    ("decompose", (10, 2)), ("decompose", (8, 4)), ("decompose", (9, 4)), ("decompose", (14, 2)),
    ("generators", (10, 2)), ("generators", (9, 4)), ("generators", (14, 2)),
    ("generators", (10, 5)), ("generators", (11, 3)),
    ("irreps", (6, 4)), ("irreps", (7, 4)), ("irreps", (9, 2)),
    ("sector_blocks", (5, 4)), ("sector_blocks", (7, 4)), ("sector_blocks", (8, 3)),
    ("sector_blocks", (6, 8)),
    ("sector_blocks_stack", (5, 4)), ("sector_blocks_stack", (7, 4)),
    ("sector_blocks_stack", (8, 3)), ("sector_blocks_stack", (6, 8)),
    ("sector_blocks_stack", (4, 60)), ("sector_blocks_stack", (3, 600)),
    ("haar_isometry", (8, 5)), ("haar_isometry", (4, 5)), ("haar_isometry", (2, 14)),
    ("region", (3, 2, "--samples", 2000)), ("region", (4, 3, "--samples", 2000)),
    ("region", (4, 3, "--samples", 2000, "--format", "csv")),
    ("perm_operator", (6, 3)), ("perm_operator", (5, 4)),
    ("pt_transposition", (6, 3)), ("pt_transposition", (5, 4)),
]


@pytest.mark.parametrize("site,size", SITES, ids=[f"{s}{z}" for s, z in SITES])
def test_prediction_bounds_the_peak(monkeypatch, site, size):
    peak, predicted = _measure(monkeypatch, _site_call(site, size))
    print(f"{site}{size}: peak/predicted = {peak / predicted:.3f}")
    assert 0 < peak <= predicted, f"peak {peak} B, predicted {predicted} B"
