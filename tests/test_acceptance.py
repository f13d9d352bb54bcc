"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines as they are produced.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cloneregion.algebra import build_Q, build_block, decompose
from cloneregion.oracle import (
    choi_state,
    clone_fidelity_from_singlet,
    full_vs_block_spectrum,
    haar_isometry,
    singlet_fractions,
    special_states,
)
from cloneregion.regions import (
    MembershipOracle,
    support,
    symmetric_max,
)
from cloneregion.symgroup import Partition

from loop_reference import axis_width, blocks_equivalent, reference_fixtures


def P(*parts):
    return Partition(tuple(parts))


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_algebra_relations():
    with criterion(1, "B^2 = dB, symmetry, traces for n in 3..5, d in 2..5", budget=5.0):
        for n in (3, 4, 5):
            for d in (2, 3, 4, 5):
                for block in decompose(n, d).blocks:
                    for B in block.generators:
                        assert np.max(np.abs(B @ B - d * B)) < 1e-10
                        assert np.max(np.abs(B - B.T)) < 1e-10
                        assert abs(np.trace(B) - d * block.dim_phi) < 1e-10


def test_criterion_2_Q_checkpoints():
    with criterion(2, "Q matrices and spectra for the closed-form cases"):
        for d in (2, 3, 4, 5):
            np.testing.assert_array_equal(
                build_Q(P(1), 3, d).entries, [[d, 1], [1, d]]
            )
            np.testing.assert_array_equal(
                build_Q(P(2), 4, d).entries, [[d, 1, 1], [1, d, 1], [1, 1, d]]
            )
            np.testing.assert_array_equal(
                build_Q(P(1, 1), 4, d).entries,
                [[d, -1, -1], [-1, d, -1], [-1, -1, d]],
            )
            for alpha, n, expect in [
                (P(1), 3, [d - 1, d + 1]),
                (P(2), 4, [d - 1, d - 1, d + 2]),
                (P(1, 1), 4, [d - 2, d + 1, d + 1]),
            ]:
                vals = np.linalg.eigvalsh(build_Q(alpha, n, d).entries)
                np.testing.assert_allclose(vals, expect, atol=1e-10)


def test_criterion_3_fixture_equivalence():
    with criterion(3, "built blocks match the explicit n=3 and n=4 matrices"):
        for d in (2, 3, 4, 5):
            built = build_block(P(1), 3, d).generators
            [(_, fixture)] = reference_fixtures(3, d)
            assert blocks_equivalent(built, fixture, tol=1e-10)

        # n=4, d=2, alpha=(1,1): entrywise up to sign conjugation
        built = build_block(P(1, 1), 4, 2).generators
        fixtures = dict((a.parts, m) for a, m in reference_fixtures(4, 2))
        expect = fixtures[(1, 1)]
        for S in (np.eye(2), np.diag([1.0, -1.0])):
            if all(
                np.max(np.abs(B - S @ E @ S)) < 1e-10
                for B, E in zip(built, expect)
            ):
                break
        else:
            raise AssertionError("no sign conjugation matches the printed block")

        for d in (3, 4, 5):
            for alpha, fixture in reference_fixtures(4, d):
                built = build_block(alpha, 4, d).generators
                assert blocks_equivalent(built, fixture, tol=1e-10)


def test_criterion_4_spectrum_oracle():
    with criterion(4, "full-space vs block spectra, 20 directions x 5 cases", budget=30.0):
        for n, d in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]:
            dec = decompose(n, d)
            rng = np.random.Generator(np.random.PCG64(n * 100 + d))
            seen_r = None
            for _ in range(20):
                rep = full_vs_block_spectrum(dec, rng.normal(size=n - 1))
                assert rep.max_abs_gap < 1e-8
                r = {a.parts: v for a, v in rep.r.items()}
                assert all(isinstance(v, int) and v >= 1 for v in r.values())
                assert seen_r is None or r == seen_r
                seen_r = r


def test_criterion_5_werner_checkpoint():
    with criterion(5, "symmetric optimum matches Werner; f = 5/6 and 7/9"):
        for n in (3, 4):
            N = n - 1
            for d in (2, 3, 4, 5):
                got = symmetric_max(decompose(n, d))
                assert abs(got - (N + d - 1) / (N * d)) < 1e-6
        assert abs(
            clone_fidelity_from_singlet(symmetric_max(decompose(3, 2)), 2) - 5 / 6
        ) < 1e-9
        assert abs(
            clone_fidelity_from_singlet(symmetric_max(decompose(4, 2)), 2) - 7 / 9
        ) < 1e-9


def test_criterion_6_qubit_regression():
    with criterion(6, "qubit hull boundary points + Haar channel containment", budget=60.0):
        oracle3 = MembershipOracle(decompose(3, 2))
        for p in ([0.75, 0.75], [0.0, 0.0], [0.0, 0.75], [0.75, 0.0]):
            assert oracle3.classify(np.array(p), tol=1e-6) == "boundary", p
        # the constant channel's point, at gauge 0.25
        assert oracle3.classify(np.array([0.25, 0.25]), tol=1e-6) == "inside"

        # The semi-trivial ideal sits at the origin, since the fidelity
        # observables act as zero on it; so every channel is contained, down to
        # the spin-flip channel at (0, 1/4).
        for n in (3, 4):
            oracle = MembershipOracle(decompose(n, 2))
            for seed in range(1000):
                F = singlet_fractions(choi_state(haar_isometry(2, n - 1, seed)))
                assert oracle.classify(F, tol=1e-9) in ("inside", "boundary"), (
                    n, seed, F.tolist(),
                )


def test_criterion_7_classical_cloning_point():
    with criterion(7, "classical cloning lands exactly on the 1/d point"):
        for n in (3, 4):
            for d in (2, 3, 4):
                F = singlet_fractions(special_states("classical_clone", n, d))
                assert np.max(np.abs(F - np.full(n - 1, 1 / d))) < 1e-12


def test_criterion_8_squeeze_limit():
    with criterion(8, "width along the symmetric axis is sqrt(2)/d, shrinking in d"):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        widths = []
        for d in range(2, 11):
            w = axis_width(decompose(3, d), u)
            assert abs(w - np.sqrt(2) / d) < 1e-9
            widths.append(w)
        assert all(a > b for a, b in zip(widths, widths[1:]))


def test_criterion_9_perfect_clone_extremes():
    with criterion(9, "each clone can be perfect: h(e_k) = 1; routed channel at (1, 1/4)"):
        for n in (3, 4, 5):
            for d in (2, 3, 4, 5):
                dec = decompose(n, d)
                for k in range(n - 1):
                    e = np.zeros(n - 1)
                    e[k] = 1.0
                    assert abs(support(dec, e) - 1.0) < 1e-10
        F = singlet_fractions(special_states("perfect_to_clone_j", 3, 2, j=2))
        assert np.max(np.abs(F - [1.0, 0.25])) < 1e-12


def test_criterion_10_constant_point_experiment():
    with criterion(10, "documented experiment: the constant channel is admissible"):
        for n in (3, 4):
            for d in (2, 3, 4):
                dec = decompose(n, d)
                p = np.full(n - 1, 1 / d**2)
                cert = MembershipOracle(dec).certify(p)
                w = cert.direction / np.linalg.norm(cert.direction)
                margin = float(w @ p - support(dec, w))
                print(
                    f"  constant channel, N={n - 1}, d={d}, point 1/d^2 = {1 / d**2:.4f}: "
                    f"{cert.verdict}, gauge <= {cert.gauge[1]:.6f}, margin {margin:+.6f}"
                )
                # the constant channel is a valid channel, strictly inside
                assert cert.verdict == "inside"


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
