import json

import numpy as np
import pytest
from scipy.linalg import block_diag

from cloneregion import algebra
from cloneregion.algebra import (
    InconsistencyError,
    admissible_N_irreps,
    build_Q,
    build_block,
    decompose,
    decomposition_to_dict,
)
from cloneregion.symgroup import Partition, branch_up, partitions_of, young_orthogonal_rep

from loop_reference import (
    allocating_factors,
    blocks_equivalent,
    clone_observable,
    eigh_block,
    reference_fixtures,
    reference_Q,
    whole_strip_residual,
)


def P(*parts):
    return Partition(tuple(parts))


def _added_row(alpha, nu):
    return next(i for i, p in enumerate(nu.parts) if i >= alpha.height or p > alpha.parts[i])


class TestAdmissibleIrreps:
    def test_M_examples(self):
        # the blocks are labeled by the partitions of n - 2 with height <= d, in canonical order
        assert [b.alpha.parts for b in decompose(3, 2).blocks] == [(1,)]
        assert [b.alpha.parts for b in decompose(4, 2).blocks] == [(2,), (1, 1)]
        assert [b.alpha.parts for b in decompose(4, 1).blocks] == [(2,)]

    def test_N_examples(self):
        assert [v.parts for v in admissible_N_irreps(4, 2)] == [(3,), (2, 1)]
        assert [v.parts for v in admissible_N_irreps(4, 3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [v.parts for v in admissible_N_irreps(3, 2)] == [(2,), (1, 1)]

    def test_trivial_always_present(self):
        for n in (3, 4, 5, 6):
            for d in (2, 3, 4):
                assert P(n - 1) in admissible_N_irreps(n, d)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            decompose(2, 2)
        with pytest.raises(ValueError):
            admissible_N_irreps(2, 2)


class TestBuildQ:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_checkpoint_matrices(self, d):
        np.testing.assert_array_equal(
            build_Q(P(1), 3, d).entries, [[d, 1], [1, d]]
        )
        np.testing.assert_array_equal(
            build_Q(P(2), 4, d).entries, [[d, 1, 1], [1, d, 1], [1, 1, d]]
        )
        np.testing.assert_array_equal(
            build_Q(P(1, 1), 4, d).entries, [[d, -1, -1], [-1, d, -1], [-1, -1, d]]
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_checkpoint_spectra(self, d):
        for alpha, n, expect in [
            (P(1), 3, [d - 1, d + 1]),
            (P(2), 4, [d - 1, d - 1, d + 2]),
            (P(1, 1), 4, [d - 2, d + 1, d + 1]),
        ]:
            vals = np.linalg.eigvalsh(build_Q(alpha, n, d).entries)
            np.testing.assert_allclose(vals, expect, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_structure(self, n, d):
        for alpha in partitions_of(n - 2, d):
            Q = build_Q(alpha, n, d)
            M = Q.entries
            w = Q.dim_phi
            np.testing.assert_allclose(M, M.T, atol=1e-12)
            for a in range(n - 1):
                np.testing.assert_allclose(
                    M[a * w : (a + 1) * w, a * w : (a + 1) * w],
                    d * np.eye(w),
                    atol=1e-12,
                )
            vals = np.linalg.eigvalsh(M)
            assert vals[0] > -1e-10
            if d > n - 2:  # Q is nonsingular above the critical dimension
                assert abs(np.linalg.det(M)) > 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_reference(self, n):
        for d in (2, max(n - 2, 3)):  # the larger d admits every alpha
            for alpha in partitions_of(n - 2, d):
                Q = build_Q(alpha, n, d).entries
                if n <= 4:
                    np.testing.assert_array_equal(Q, reference_Q(alpha, n, d))
                else:
                    np.testing.assert_allclose(Q, reference_Q(alpha, n, d), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_rows_are_the_upper_block_triangle_of_entries(self, n):
        for d in (2, max(n - 2, 3)):
            for alpha in partitions_of(n - 2, d):
                Q = build_Q(alpha, n, d)
                M, w = Q.entries, Q.dim_phi
                rows = [list(row) for row in Q.rows()]
                assert [len(row) for row in rows] == list(range(n - 1, 0, -1))
                for a, row in enumerate(rows):
                    for b, block in enumerate(row, start=a):
                        assert block.shape == (w, w)
                        np.testing.assert_array_equal(block, M[a * w : (a + 1) * w, b * w : (b + 1) * w])
                        # block (b, a) mirrors block (a, b)
                        np.testing.assert_array_equal(block, M[b * w : (b + 1) * w, a * w : (a + 1) * w])
                np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_Q(P(2), 3, 2)  # wrong size
        with pytest.raises(ValueError):
            build_Q(P(1, 1), 4, 1)  # height exceeds d


class TestBuildBlock:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_eigen_structure(self, n, d):
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            Q = build_Q(alpha, n, d)
            expected = branch_up(alpha)
            if block.dropped is not None:
                assert block.dropped in expected
            assert list(block.labels) == [nu for nu in expected if nu != block.dropped]
            # Y^T Y = sum_a B_a carries the kept eigenvalues, and Y Y^T = Q
            np.testing.assert_allclose(
                sum(block.generators), np.diag(block.eigenvalues_full()), rtol=0, atol=1e-13 * d
            )
            assert block.gram_residual <= 1e-10
            assert block.dim == np.linalg.matrix_rank(Q.entries, tol=1e-8)

    def test_n3_closed_form(self):
        for d in (2, 3, 4, 5):
            block = build_block(P(1), 3, d)
            np.testing.assert_allclose(
                sorted(block.eigenvalues), [d - 1, d + 1], atol=1e-12
            )
            s = np.sqrt(d**2 - 1.0)
            expect = 0.5 * np.array([[d + 1, -s], [-s, d - 1]])
            B1 = block.generators[0]
            # equal up to conjugation by diag(+-1)
            assert np.allclose(B1, expect, atol=1e-10) or np.allclose(
                B1, np.diag([1, -1]) @ expect @ np.diag([1, -1]), atol=1e-10
            )
            np.testing.assert_allclose(
                np.abs(block.generators[1]), np.abs(expect), atol=1e-10
            )

    def test_zero_eigenvalue_dropped_at_small_d(self):
        block = build_block(P(1, 1), 4, 2)
        assert block.dropped == P(1, 1, 1)
        assert block.dim == 2
        np.testing.assert_allclose(block.eigenvalues_full(), [3.0, 3.0], atol=1e-12)

    def test_cross_traces_clone_symmetric(self):
        for n, d in [(3, 2), (3, 4), (4, 2), (4, 3), (5, 3)]:
            for alpha in partitions_of(n - 2, d):
                B = build_block(alpha, n, d).generators
                offdiag = [
                    np.trace(B[a] @ B[b])
                    for a in range(len(B))
                    for b in range(len(B))
                    if a != b
                ]
                np.testing.assert_allclose(offdiag, offdiag[0], atol=1e-10)

    def test_n3_pair_trace(self):
        for d in (2, 3, 4, 5):
            B = build_block(P(1), 3, d).generators
            assert np.trace(B[0] @ B[1]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_eigenvalues_are_exact_contents(self, n, d):
        def content(p):
            return sum(j - i for i, row in enumerate(p.parts) for j in range(row))

        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            expect = [float(d + content(nu) - content(alpha)) for nu in block.labels]
            assert list(block.eigenvalues) == expect
            assert all(nu.height <= d for nu in block.labels)
            assert (block.dropped is not None) == (alpha.height == d)
            assert block.gram_residual <= 1e-10

    @pytest.mark.parametrize("n,d", [(4, 3), (6, 3), (8, 4), (10, 5)])
    def test_residual_matches_the_dense_certificate(self, n, d):
        # the certificate as it read the dense Q: each coset row of Y Y^T
        # against Q's block row and block column
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            factors = algebra._factors(alpha, block.labels, block.eigenvalues)
            factors[-1] = young_orthogonal_rep(alpha).left(1, factors[-1])
            Q = build_Q(alpha, n, d).entries
            w, dim = factors.shape[1:]
            deviations = []
            for a in range(n - 1):
                R = factors[a] @ factors[a:].reshape(-1, dim).T
                row, column = Q[a * w : (a + 1) * w, a * w :], Q[a * w :, a * w : (a + 1) * w]
                for D in (R - row, R - column.T):
                    deviations += [D.max(), -D.min()]
            assert block.gram_residual == float(np.max(deviations)) / d

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 4), (6, 8), (8, 4), (10, 5)])
    def test_in_place_build_is_bit_identical(self, n, d):
        # factors written in place and differences taken a block at a time give
        # the floats of fresh arrays and whole strips
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            factors = algebra._factors(alpha, block.labels, block.eigenvalues)
            reference = allocating_factors(alpha, block.labels, block.eigenvalues)
            assert np.array_equal(factors, reference)
            assert block.gram_residual == whole_strip_residual(alpha, n, d, reference)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 9) for d in (2, n - 1)] + [(10, 5)])
    def test_factors_vanish_off_the_gelfand_tsetlin_pattern(self, n, d):
        # phi(s_b) and psi(s_b) for b >= a commute with S(a-1), so Y_a[T, U] = 0
        # unless the alpha-tableau T and the nu-tableau U agree on letters 1..a-1
        allowed = total = 0
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            factors = algebra._factors(alpha, block.labels, block.eigenvalues)
            rows = young_orthogonal_rep(alpha).words
            cols = np.vstack([young_orthogonal_rep(nu).words for nu in block.labels])
            for a, Y in enumerate(factors, start=1):
                agree = (rows[:, None, : a - 1] == cols[None, :, : a - 1]).all(axis=2)
                assert not np.any(Y[~agree]), (alpha, a)
                allowed, total = allowed + agree.sum(), total + agree.size
        if (n, d) == (10, 5):
            assert allowed < 0.4 * total  # 34% of the dense factors

    def test_unlabelable_spectrum_raises(self, monkeypatch):
        # a shift of 3/4 breaks Y Y^T = Q far beyond the 1e-8 d certificate
        class Shifted(algebra.QMatrix):
            def rows(self):
                for row in super().rows():
                    diagonal = next(row)
                    yield iter([diagonal + 0.75 * np.eye(self.dim_phi), *row])

        monkeypatch.setattr(algebra, "build_Q", Shifted)
        with pytest.raises(InconsistencyError, match="misses Y Y\\^T = Q"):
            build_block(P(2, 1), 5, 3)

    def test_wrong_box_in_the_factor_raises(self, monkeypatch):
        # nu = (3, 1) is given the box one column left of its own: the same
        # grown tableaux, but the weight of content 1 instead of 2
        original = algebra._added_box

        def misplaced(alpha, nu):
            row, col = original(alpha, nu)
            return (row, col - 1) if nu == P(3, 1) else (row, col)

        monkeypatch.setattr(algebra, "_added_box", misplaced)
        with pytest.raises(InconsistencyError, match="misses Y Y\\^T = Q"):
            build_block(P(2, 1), 5, 3)

    @pytest.mark.parametrize("alpha", list(partitions_of(4, 3)), ids=str)
    def test_one_lower_triangle_entry_of_Q_is_compared(self, monkeypatch, alpha):
        # the rows hold Q's upper block triangle only; entry (dim_phi - 1, 0) of
        # the first row's last block, which entries mirrors to Q[-1, 0] below the
        # diagonal in the last coset's block row, is perturbed in a copy
        class Perturbed(algebra.QMatrix):
            def rows(self):
                for a, row in enumerate(super().rows()):
                    blocks = list(row)
                    if a == 0:
                        blocks[-1] = blocks[-1].copy()
                        blocks[-1][-1, 0] += 1e-3
                    yield iter(blocks)

        assert Perturbed(alpha, 6, 3).entries[-1, 0] == build_Q(alpha, 6, 3).entries[-1, 0] + 1e-3
        monkeypatch.setattr(algebra, "build_Q", Perturbed)
        with pytest.raises(InconsistencyError, match="misses Y Y\\^T = Q"):
            build_block(alpha, 6, 3)


class TestClosedForm:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_eigh_reference(self, n, d):
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            eigenvalues, labels, generators = eigh_block(alpha, n, d)
            assert list(block.eigenvalues) == eigenvalues
            assert list(block.labels) == labels
            assert blocks_equivalent(block.generators, generators)
            np.testing.assert_allclose(
                sum(block.generators), np.diag(block.eigenvalues_full()), rtol=0, atol=1e-13 * d
            )

    @pytest.mark.parametrize("n, d", [(10, 5), (8, 4), (6, 50)])
    def test_gram_certificate_at_scale(self, n, d):
        dec = decompose(n, d)
        assert max(block.gram_residual for block in dec.blocks) <= 1e-10

    @pytest.mark.parametrize("n, d", [(7, 4), (8, 5)])
    def test_canonical_young_basis(self, n, d):
        # the basis is fixed by the Young tableaux, whatever the eigensolver
        m = n - 1
        for alpha in partitions_of(n - 2, d):
            block = build_block(alpha, n, d)
            # coordinates (nu, S) whose tableau S holds m outside the box nu/alpha
            outside = np.concatenate([
                young_orthogonal_rep(nu).words[:, -1] != _added_row(alpha, nu)
                for nu in block.labels
            ])
            B = block.generators
            assert not np.any(B[m - 1][outside]) and not np.any(B[m - 1][:, outside])
            for a in range(1, m):
                psi = block_diag(*[young_orthogonal_rep(nu).left(a, np.eye(nu.dimension))
                                   for nu in block.labels])
                np.testing.assert_allclose(psi @ B[a] @ psi, B[a - 1], rtol=0, atol=1e-13 * d)


class TestGeneratorArray:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 3), (6, 3)])
    def test_one_contiguous_float_array(self, n, d):
        for block in decompose(n, d).blocks:
            Y = algebra._factors(block.alpha, block.labels, block.eigenvalues)
            assert Y.shape == (n - 1, block.dim_phi, block.dim)
            assert Y.dtype == np.float64 and Y.flags.c_contiguous
            G = block.generators
            assert type(G) is np.ndarray
            assert G.shape == (n - 1, block.dim, block.dim)
            assert G.dtype == np.float64
            assert G.flags.c_contiguous

    @pytest.mark.parametrize("n,d", [(4, 3), (6, 3), (10, 5)])
    def test_generators_read_the_certified_factors(self, monkeypatch, n, d):
        # build_block twists its factors in place, so each call's array is copied on return
        calls = []
        real = algebra._factors

        def spy(*args):
            factors = real(*args)
            calls.append(factors.copy())
            return factors

        monkeypatch.setattr(algebra, "_factors", spy)
        dec = decompose(n, d)
        assert len(calls) == len(dec.blocks)
        for block in dec.blocks:
            block.generators
        assert len(calls) == 2 * len(dec.blocks)
        for certified, read in zip(calls, calls[len(dec.blocks):]):
            assert certified.shape == read.shape
            assert certified.tobytes() == read.tobytes()


class TestCloneObservable:
    def test_mapping(self):
        block = build_block(P(2), 4, 3)
        for k in (2, 3, 4):
            B = clone_observable(block, k)
            assert np.shares_memory(B, block.generators[k - 2])
            assert np.array_equal(B, block.generators[k - 2])
        with pytest.raises(ValueError):
            clone_observable(block, 5)
        with pytest.raises(ValueError):
            clone_observable(block, 1)


class TestReferenceFixtures:
    def test_n3_d2_printed(self):
        [(alpha, mats)] = reference_fixtures(3, 2)
        assert alpha == P(1)
        r3 = np.sqrt(3.0)
        np.testing.assert_allclose(
            mats[0], 0.5 * np.array([[3, -r3], [-r3, 1]]), atol=1e-15
        )

    def test_n4_d2_degenerate_block(self):
        fixtures = dict((a.parts, m) for a, m in reference_fixtures(4, 2))
        np.testing.assert_allclose(fixtures[(1, 1)][2], [[0, 0], [0, 2]], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fixtures_satisfy_algebra(self, d):
        for alpha, mats in reference_fixtures(4, d):
            if alpha.height > d:
                continue
            for X in mats:
                np.testing.assert_allclose(X @ X, d * X, atol=1e-10)
                assert np.trace(X) == pytest.approx(d * alpha.dimension, abs=1e-10)

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            reference_fixtures(5, 2)


class TestBlocksEquivalent:
    def test_built_vs_fixture_n3(self):
        for d in (2, 3, 4, 5):
            built = build_block(P(1), 3, d).generators
            [(_, fixture)] = reference_fixtures(3, d)
            assert blocks_equivalent(built, fixture, tol=1e-10)

    def test_sign_conjugation_invariance(self):
        B = build_block(P(2), 4, 3).generators
        S = np.diag([1.0, -1.0, 1.0])
        flipped = [S @ X @ S for X in B]
        assert blocks_equivalent(B, flipped, tol=1e-12)

    def test_distinct_d_differ(self):
        b2 = build_block(P(1), 3, 2).generators
        b3 = build_block(P(1), 3, 3).generators
        assert not blocks_equivalent(b2, b3, tol=1e-10)

    def test_shape_mismatch(self):
        b = build_block(P(1), 3, 2).generators
        with pytest.raises(ValueError):
            blocks_equivalent(b, b[:1])


class TestDecomposition:
    def test_contents(self):
        dec = decompose(4, 2)
        assert [b.alpha.parts for b in dec.blocks] == [(2,), (1, 1)]
        assert [v.parts for v in dec.n_irreps] == [(3,), (2, 1)]
        assert dec.clone_count == 3

    def test_json_round_trip(self):
        dec = decompose(4, 3)
        doc = decomposition_to_dict(dec)
        again = json.loads(json.dumps(doc))
        assert again == json.loads(json.dumps(again))
        assert again["n"] == 4 and again["d"] == 3
        for bdoc, block in zip(again["blocks"], dec.blocks):
            np.testing.assert_allclose(
                np.array(bdoc["generators"]),
                np.array([g.tolist() for g in block.generators]),
            )
