"""The three workloads, their output checks, and the spans that trace them.

Each workload is a list of items derived from the workload seed. ``call`` is
the timed part of an item; ``check`` runs afterwards, outside the timed span,
and counts the workload's check units: check rows for ``certify``, channel
verdicts for ``classify`` and invariants for ``decompose``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import numpy as np

# Tolerances of the checks, relative to d where the quantity scales with d.
REL_TOL = 1e-10
FIDELITY_TOL = 1e-9


class Workload:
    layers: tuple[str, ...]  # layers the workload exists to stress
    units_per_item: int  # check units charged as failed when an item fails outright

    def item(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def call(self, lib, item: dict):
        return run_cli(lib, item["argv"])

    def check(self, lib, item: dict, output) -> dict:
        """Count check units; returns {"units", "failed", "verified", "reason"}.

        ``verified`` is false when the output is incomplete or disagrees with
        the benchmark's own checks. A wrong result that the output itself
        states, a [FAIL] row or an "outside" verdict, counts in ``failed``
        only. ``reason`` is None unless the item failed (nonzero exit included).
        """
        raise NotImplementedError

    def run_check(self, lib) -> dict | None:
        """A check made once per run rather than once per item, or None."""
        return None


def run_cli(lib, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _exit_reason(output: dict) -> str | None:
    if output["rc"] == 0:
        return None
    return f"exit {output['rc']}: {output['stderr'].strip()[-200:]}"


class Certify(Workload):
    N, D = 5, 4
    layers = ("oracle",)
    units_per_item = 17  # rows `check` prints at n = 5, d = 4

    def item(self, seed, index):
        return {"argv": ["check", "--n", str(self.N), "--d", str(self.D),
                         "--seed", str(seed * 1000 + index)]}

    def check(self, lib, item, output):
        rows = [ln for ln in output["stdout"].splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        failed = sum(ln.startswith("[FAIL]") for ln in rows)
        reason = _exit_reason(output)
        if not rows:
            return {"units": self.units_per_item, "failed": self.units_per_item,
                    "verified": False, "reason": reason or "no check rows printed"}
        consistent = output["rc"] == int(failed > 0)  # check exits 1 exactly when a row fails
        return {"units": len(rows), "failed": failed, "verified": consistent, "reason": reason}


class Classify(Workload):
    N, D, SAMPLES = 4, 3, 100
    layers = ("regions",)
    units_per_item = SAMPLES

    def item(self, seed, index):
        first = (seed * 1000 + index) * self.SAMPLES
        return {"argv": ["channels", "--n", str(self.N), "--d", str(self.D),
                         "--samples", str(self.SAMPLES), "--seed", str(first)]}

    def check(self, lib, item, output):
        first = int(item["argv"][-1])
        rows = {}
        for row in list(csv.reader(io.StringIO(output["stdout"])))[1:]:
            if row:
                rows[int(row[0])] = row
        # A Haar channel is a valid channel, so "outside" is a wrong verdict. It
        # counts as failed; a missing row or a wrong fidelity also fails the item.
        wrong_verdicts = invalid = 0
        for seed in range(first, first + self.SAMPLES):
            row = rows.get(seed)
            if row is None or row[-1] not in ("inside", "boundary", "outside"):
                invalid += 1
                continue
            F = np.array([float(x) for x in row[1:-1]])
            if np.max(np.abs(F - isometry_singlet_fractions(lib, seed, self.N, self.D))) > FIDELITY_TOL:
                invalid += 1
            elif row[-1] == "outside":
                wrong_verdicts += 1
        reason = _exit_reason(output)
        if invalid and reason is None:
            reason = f"{invalid} channel rows missing or with wrong fidelities"
        return {"units": self.SAMPLES, "failed": wrong_verdicts + invalid,
                "verified": reason is None, "reason": reason}


def isometry_singlet_fractions(lib, seed: int, n: int, d: int) -> np.ndarray:
    """F_1k straight from the channel's isometry, without a Choi matrix.

    With v[i, j_1..j_N] = W[j, i]/sqrt(d) the Choi vector, F_1k is
    sum over the other legs of |sum_a v[a, .., j_k = a, ..]|^2 / d.
    """
    W = lib.oracle.haar_isometry(d, n - 1, seed).isometry
    v = (W.T / np.sqrt(d)).reshape([d] * n)
    return np.array([
        np.sum(np.abs(np.trace(v, axis1=0, axis2=k - 1)) ** 2) / d for k in range(2, n + 1)
    ])


class Decompose(Workload):
    N, D = 10, 5
    layers = ("symgroup", "algebra", "regions")
    units_per_item = 37  # Werner, plus trace and symmetry for each of 18 blocks

    def item(self, seed, index):
        return {"n": self.N, "d": self.D}

    def call(self, lib, item):
        dec = lib.cloneregion.decompose(item["n"], item["d"])
        return dec, lib.regions.symmetric_max(dec)

    def check(self, lib, item, output):
        dec, F = output
        N, d = dec.clone_count, dec.d
        failed = int(abs(F - (N + d - 1) / (N * d)) > FIDELITY_TOL)
        for block in dec.blocks:
            gens = block.generators
            failed += any(abs(np.trace(B) - d * block.dim_phi) > REL_TOL * d for B in gens)
            failed += any(np.max(np.abs(B - B.T)) > REL_TOL * d for B in gens)
        return {"units": 1 + 2 * len(dec.blocks), "failed": failed, "verified": not failed,
                "reason": f"{failed} invariants failed" if failed else None}

    def run_check(self, lib):
        """Full |B^2 - dB| residual relative to d; seconds at 810x810, so once a run."""
        dec = lib.cloneregion.decompose(self.N, self.D)
        worst = max(float(np.max(np.abs(B @ B - dec.d * B))) / dec.d
                    for block in dec.blocks for B in block.generators)
        bad = worst > REL_TOL
        return {"units": 1, "failed": int(bad), "verified": not bad, "residual_rel": worst,
                "reason": f"|B^2 - dB|/d = {worst:.2e} > {REL_TOL}" if bad else None}


WORKLOADS = {"certify": Certify(), "classify": Classify(), "decompose": Decompose()}


def instrument(tracer, lib):
    """Wrap the library's public names where their callers look them up.

    Returns the unwrapped Young-orthogonal-form cache, whose ``cache_info``
    gives the hit ratio.
    """
    mods = [lib.cloneregion, lib.symgroup, lib.algebra, lib.oracle, lib.regions, lib.cli]

    def of(home):
        return [home] + [m for m in mods if m is not home]

    def dense(t, args, result):
        t.count("oracle.dense_bytes", result.matrix.nbytes)

    def spectrum(t, args, result):
        dim = args[0].d ** args[0].n
        t.count("oracle.dense_bytes", 8 * dim * dim)

    def eigh_work(t, args, result):
        t.count("algebra.eigh_work", result.entries.shape[0] ** 3)

    def verdict(t, args, result):
        t.count(f"regions.verdict.{result}")

    yor = tracer.patch(of(lib.symgroup), "young_orthogonal_rep", "symgroup.young_orthogonal_rep")
    tracer.patch(of(lib.symgroup), "rep_matrix", "symgroup.rep_matrix")
    tracer.patch(of(lib.algebra), "build_Q", "algebra.build_Q", eigh_work)
    tracer.patch(of(lib.algebra), "build_block", "algebra.build_block")
    tracer.patch(of(lib.algebra), "decompose", "algebra.decompose")
    for name in ("perm_operator", "pt_transposition", "choi_state", "special_states"):
        tracer.patch(of(lib.oracle), name, f"oracle.{name}", dense)
    tracer.patch(of(lib.oracle), "full_vs_block_spectrum", "oracle.full_vs_block_spectrum", spectrum)
    for name in ("haar_isometry", "singlet_fractions"):
        tracer.patch(of(lib.oracle), name, f"oracle.{name}")
    for name in ("build_hull", "sample_block_region", "support", "symmetric_max"):
        tracer.patch(of(lib.regions), name, f"regions.{name}")
    tracer.patch_method(lib.regions.MembershipOracle, "__init__", "regions.MembershipOracle.init")
    tracer.patch_method(lib.regions.MembershipOracle, "classify",
                        "regions.MembershipOracle.classify", verdict)
    tracer.patch(of(lib.cli), "main", "cli.main")
    tracer.patch(of(lib.cli), "run_checks", "cli.run_checks")
    return yor
