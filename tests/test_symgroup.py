import itertools
import math
import time

import numpy as np
import pytest

from cloneregion.symgroup import (
    Partition,
    Permutation,
    branch_up,
    partitions_of,
    rep_matrix,
    young_orthogonal_rep,
)

from loop_reference import (
    hook_content_dimension,
    hook_dimension,
    loop_hook_lengths,
    loop_standard_tableaux,
    loop_young_matrices,
    prefix_orthogonal_rep,
)


def P(*parts):
    return Partition(tuple(parts))


def images(rep):
    """The images of s_1, ..., s_{m-1}, applied to the identity by rep.left."""
    return [rep.left(i, np.eye(rep.dim)) for i in range(1, rep.degree)]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition(())

    def test_stats_examples(self):
        for alpha, height, dimension in [(P(2), 1, 1), (P(1, 1), 2, 1), (P(2, 1), 2, 2)]:
            assert (alpha.height, alpha.dimension) == (height, dimension)

    def test_hook_lengths_2_1(self):
        # the hooks behind the reference dimensions below
        assert loop_hook_lengths(P(2, 1)) == [[3, 1], [1]]

    def test_dimensions_match_the_hook_formulas(self):
        # Frobenius' and Weyl's formulas against the hook length and hook content
        # rules, on all 683 partitions of 1..15
        for m in range(1, 16):
            for alpha in partitions_of(m):
                assert alpha.dimension == hook_dimension(alpha)
                for d in range(1, m + 3):
                    assert alpha.unitary_dimension(d) == hook_content_dimension(alpha, d)

    @pytest.mark.parametrize("size", [10**5, 10**7])
    def test_dimensions_of_one_and_two_row_shapes_at_large_size(self, size):
        # exact binomials; the hook rule multiplies size hooks and divides size!, 4.5 s at 10^5
        start = time.perf_counter()
        assert P(size).dimension == 1 and P(size - 1, 1).dimension == size - 1
        assert P(size - 2, 2).dimension == size * (size - 3) // 2
        assert P(size).unitary_dimension(2) == size + 1
        assert time.perf_counter() - start < 0.1

    def test_dimension_squares_sum_to_factorial(self):
        for m in range(1, 7):
            total = sum(a.dimension**2 for a in partitions_of(m))
            assert total == math.factorial(m)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_unitary_dimension_examples(self, d):
        assert P(1).unitary_dimension(d) == d
        assert P(2).unitary_dimension(d) == d * (d + 1) // 2
        assert P(1, 1).unitary_dimension(d) == d * (d - 1) // 2
        assert P(*[1] * (d + 1)).unitary_dimension(d) == 0
        assert P(3, 2, *[1] * (d - 1)).unitary_dimension(d) == 0

    def test_unitary_dimension_schur_weyl(self):
        # (C^d)^{x m} = sum_alpha phi^alpha x U(d)-irrep alpha
        for m in range(1, 8):
            for d in range(1, 6):
                total = sum(a.dimension * a.unitary_dimension(d) for a in partitions_of(m))
                assert total == d**m


class TestPartitionsOf:
    def test_small(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]
        assert [p.parts for p in partitions_of(2)] == [(2,), (1, 1)]

    def test_four(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_reverse_lex_no_duplicates(self):
        for m in range(1, 8):
            ps = [p.parts for p in partitions_of(m)]
            assert len(set(ps)) == len(ps)
            assert ps == sorted(ps, reverse=True)

    def test_max_parts_filters_by_height_in_order(self):
        for m in range(1, 19):
            every = list(partitions_of(m))
            for k in range(1, m + 2):
                assert list(partitions_of(m, k)) == [p for p in every if p.height <= k]

    def test_invalid(self):
        with pytest.raises(ValueError):
            partitions_of(0)


class TestBranchUp:
    def test_examples(self):
        assert [v.parts for v in branch_up(P(1))] == [(2,), (1, 1)]
        assert [v.parts for v in branch_up(P(2))] == [(3,), (2, 1)]
        assert [v.parts for v in branch_up(P(1, 1))] == [(2, 1), (1, 1, 1)]

    def test_induced_dimension_identity(self):
        # dim of the induced rep from S(m) to S(m+1) is (m+1) * dim(alpha),
        # and induction decomposes multiplicity-free over the branchings
        for m in range(1, 6):
            for alpha in partitions_of(m):
                total = sum(v.dimension for v in branch_up(alpha))
                assert total == (m + 1) * alpha.dimension


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_compose_inverse(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            m = int(rng.integers(1, 8))
            p = Permutation(tuple(rng.permutation(m) + 1))
            assert p.compose(p.inverse()) == Permutation.identity(m)
            assert p.inverse().compose(p) == Permutation.identity(m)

    def test_compose_convention(self):
        # (p q)(i) = p(q(i))
        p = Permutation((2, 3, 1))
        q = Permutation((1, 3, 2))
        pq = p.compose(q)
        for i in (1, 2, 3):
            assert pq(i) == p(q(i))

    def test_transposition_and_restrict(self):
        t = Permutation.transposition(1, 3, 5)
        assert t.images == (3, 2, 1, 4, 5)
        assert t.fixes(4) and not t.fixes(1)
        assert t.restrict(3).images == (3, 2, 1)
        with pytest.raises(ValueError):
            t.restrict(2)

    def test_adjacent_word_reconstructs(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            m = int(rng.integers(2, 8))
            p = Permutation(tuple(rng.permutation(m) + 1))
            acc = Permutation.identity(m)
            for i in p.adjacent_word():
                acc = acc.compose(Permutation.transposition(i, i + 1, m))
            assert acc == p


class TestYoungOrthogonalRep:
    def test_trivial_and_sign(self):
        np.testing.assert_allclose(images(young_orthogonal_rep(P(2)))[0], [[1.0]])
        np.testing.assert_allclose(images(young_orthogonal_rep(P(1, 1)))[0], [[-1.0]])

    def test_standard_rep_of_s3(self):
        s1, s2 = images(young_orthogonal_rep(P(2, 1)))
        np.testing.assert_allclose(s1, np.diag([1.0, -1.0]))
        r3 = np.sqrt(3.0)
        np.testing.assert_allclose(s2, np.array([[-0.5, r3 / 2], [r3 / 2, 0.5]]), atol=1e-15)

    def test_tableaux_count(self):
        # one basis vector a standard tableau; the library's own assert is stripped under -O
        for m in range(1, 9):
            for alpha in partitions_of(m):
                rep = young_orthogonal_rep(alpha)
                assert rep.dim == alpha.dimension == len(loop_standard_tableaux(alpha))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_generator_relations(self, m):
        for alpha in partitions_of(m):
            mats = images(young_orthogonal_rep(alpha))
            eye = np.eye(alpha.dimension)
            for i, s in enumerate(mats):
                np.testing.assert_allclose(s, s.T, atol=1e-13)
                np.testing.assert_allclose(s @ s, eye, atol=1e-13)
                if i + 1 < len(mats):
                    braid = s @ mats[i + 1]
                    np.testing.assert_allclose(
                        braid @ braid @ braid, eye, atol=1e-13
                    )
                for j in range(i + 2, len(mats)):
                    np.testing.assert_allclose(
                        s @ mats[j], mats[j] @ s, atol=1e-13
                    )


class TestVectorisedYoungForm:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_loop_construction(self, m):
        # every image of s_i equal to the loop's, entry for entry: a basis in
        # another order would change some image, by Schur's lemma
        for alpha in partitions_of(m):
            rep = young_orthogonal_rep(alpha)
            expect = loop_young_matrices(alpha)
            assert len(rep.diag) == len(expect) == m - 1
            for i, ref in enumerate(expect, start=1):
                np.testing.assert_array_equal(rep.left(i, np.eye(rep.dim)), ref)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_branching_matches_prefix_growth(self, m):
        # the words merged from each shape less a corner give the same fields, bit for bit
        for alpha in partitions_of(m):
            rep, ref = young_orthogonal_rep(alpha), prefix_orthogonal_rep(alpha)
            for field in ("words", "diag", "partner", "off"):
                got, expect = getattr(rep, field), getattr(ref, field)
                assert got.dtype == expect.dtype and got.shape == expect.shape
                assert np.array_equal(got, expect), (alpha, field)

    def test_sub_shapes_are_read_through_the_cache(self):
        young_orthogonal_rep.cache_clear()
        young_orthogonal_rep(P(3, 2, 1))
        hits = young_orthogonal_rep.cache_info().hits
        young_orthogonal_rep(P(3, 2))  # built on the way to (3, 2, 1)
        assert young_orthogonal_rep.cache_info().hits == hits + 1
        young_orthogonal_rep.cache_clear()
        assert young_orthogonal_rep.cache_info().currsize == 0

    def test_left_in_place_gives_the_floats_of_left(self):
        rep = young_orthogonal_rep(P(4, 2, 1))
        X = np.random.Generator(np.random.PCG64(3)).normal(size=(rep.dim, 7))
        for i in range(1, rep.degree):
            Y = X.copy()
            rep.left_in_place(i, Y, np.empty_like(Y))
            assert np.array_equal(Y, rep.left(i, X))

    def test_sparse_products_match_dense(self):
        rep = young_orthogonal_rep(P(3, 2, 1))
        X = np.random.Generator(np.random.PCG64(7)).normal(size=(rep.dim, rep.dim))
        for i, s in enumerate(loop_young_matrices(rep.partition), start=1):
            np.testing.assert_allclose(rep.left(i, X), s @ X, rtol=0, atol=1e-14)
            np.testing.assert_allclose(rep.right(X, i), X @ s, rtol=0, atol=1e-14)


class TestRepMatrix:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_loop_products_along_the_word(self, m):
        # every permutation of every partition of m, against the loop images
        # multiplied out densely along the same adjacent-transposition word
        for alpha in partitions_of(m):
            rep, mats = young_orthogonal_rep(alpha), loop_young_matrices(alpha)
            for images_ in itertools.permutations(range(1, m + 1)):
                sigma = Permutation(images_)
                expect = np.eye(rep.dim)
                for i in sigma.adjacent_word():
                    expect = expect @ mats[i - 1]
                assert np.max(np.abs(rep_matrix(rep, sigma) - expect)) <= 1e-15

    def test_identity_and_examples(self):
        rep = young_orthogonal_rep(P(2, 1))
        np.testing.assert_allclose(
            rep_matrix(rep, Permutation.identity(3)), np.eye(2)
        )
        np.testing.assert_allclose(
            rep_matrix(rep, Permutation.transposition(1, 2, 3)), np.diag([1.0, -1.0])
        )
        sign = young_orthogonal_rep(P(1, 1))
        np.testing.assert_allclose(
            rep_matrix(sign, Permutation.transposition(1, 2, 2)), [[-1.0]]
        )

    def test_degree_mismatch(self):
        rep = young_orthogonal_rep(P(2, 1))
        with pytest.raises(ValueError):
            rep_matrix(rep, Permutation.identity(4))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_homomorphism_and_orthogonality(self, m):
        rng = np.random.Generator(np.random.PCG64(m))
        for alpha in partitions_of(m):
            rep = young_orthogonal_rep(alpha)
            for _ in range(200):
                s = Permutation(tuple(rng.permutation(m) + 1))
                t = Permutation(tuple(rng.permutation(m) + 1))
                Ms, Mt = rep_matrix(rep, s), rep_matrix(rep, t)
                np.testing.assert_allclose(
                    rep_matrix(rep, s.compose(t)), Ms @ Mt, atol=1e-10
                )
                np.testing.assert_allclose(
                    Ms.T @ Ms, np.eye(rep.dim), atol=1e-12
                )
