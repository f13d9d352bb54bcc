import dataclasses

import numpy as np
import pytest

from cloneregion.algebra import InconsistencyError, decompose
from cloneregion import algebra, oracle, regions
from cloneregion.regions import _stacked, support, symmetric_max
from cloneregion.oracle import (
    ChannelSample,
    charge_orbits,
    choi_state,
    clone_fidelity_from_singlet,
    full_vs_block_spectrum,
    haar_isometry,
    max_entangled,
    perm_operator,
    pt_transposition,
    singlet_fractions,
    singlet_from_clone_fidelity,
    special_states,
    vector_singlet_fractions,
    _ptrace_to,
)
from cloneregion.symgroup import Permutation, partitions_of

from loop_reference import all_sector_blocks, expanded_gap


class TestPermOperator:
    def test_identity(self):
        V = perm_operator(Permutation.identity(2), 2, 2)
        np.testing.assert_array_equal(V.matrix, np.eye(4))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_trace(self, d):
        V = perm_operator(Permutation.transposition(1, 2, 2), 2, d)
        assert np.trace(V.matrix) == pytest.approx(d)
        np.testing.assert_array_equal(V.matrix @ V.matrix, np.eye(d * d))

    def test_three_cycle_order(self):
        c = Permutation((2, 3, 1))
        V = perm_operator(c, 3, 2).matrix
        np.testing.assert_array_equal(V @ V @ V, np.eye(8))
        assert not np.array_equal(V, np.eye(8))

    def test_action_on_basis(self):
        # V(sigma) moves the content of leg k to leg sigma(k)
        V = perm_operator(Permutation((2, 3, 1)), 3, 2).matrix
        ket = np.zeros(8)
        ket[0b100] = 1.0  # |1,0,0>
        out = V @ ket
        assert out[0b010] == 1.0  # |0,1,0>

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_homomorphism(self, n, d):
        rng = np.random.Generator(np.random.PCG64(n * 10 + d))
        for _ in range(100):
            s = Permutation(tuple(rng.permutation(n) + 1))
            t = Permutation(tuple(rng.permutation(n) + 1))
            Vs = perm_operator(s, n, d).matrix
            Vt = perm_operator(t, n, d).matrix
            Vst = perm_operator(s.compose(t), n, d).matrix
            np.testing.assert_allclose(Vs @ Vt, Vst, atol=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError, match="memory budget"):
            perm_operator(Permutation.identity(21), 21, 2)


class TestPtTransposition:
    @pytest.mark.parametrize("n,d", [(3, 2), (3, 4), (4, 3), (5, 2), (5, 4)])
    def test_projector_relations(self, n, d):
        for k in range(2, n + 1):
            X = pt_transposition(k, n, d).matrix
            np.testing.assert_allclose(X, X.T.conj(), atol=1e-12)
            np.testing.assert_allclose(X @ X, d * X, atol=1e-12)
            assert np.trace(X) == pytest.approx(d ** (n - 1), abs=1e-9)

    def test_spectrum(self):
        n, d = 3, 3
        X = pt_transposition(2, n, d).matrix
        vals = np.sort(np.linalg.eigvalsh(X))
        assert np.sum(np.abs(vals - d) < 1e-10) == d ** (n - 2)
        assert np.sum(np.abs(vals) < 1e-10) == d**n - d ** (n - 2)

    def test_equals_entangled_projector(self):
        n, d = 3, 2
        X = pt_transposition(2, n, d).matrix
        psi = max_entangled(d)
        expect = d * np.kron(np.outer(psi, psi), np.eye(d))
        np.testing.assert_allclose(X, expect, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
    def test_cross_traces(self, n, d):
        ops = [pt_transposition(k, n, d).matrix for k in range(2, n + 1)]
        for i in range(len(ops)):
            for j in range(len(ops)):
                if i != j:
                    assert np.trace(ops[i] @ ops[j]) == pytest.approx(
                        d ** (n - 2), abs=1e-9
                    )


def _charges(n, d):
    """q_c = #{legs 2..n equal to c} - [leg 1 = c] of every basis state, one row a state."""
    digits = (np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1)) % d
    return np.stack([np.sum(digits[:, 1:] == c, axis=1) - (digits[:, 0] == c)
                     for c in range(d)], axis=1)


def _sector_blocks(W, n, d):
    """(orbit, states, matrices along each row of W) of each representative sector.

    The matrices are formed as the oracle forms them, in regions._stacked's chunks.
    """
    for lam, orbit, _ in charge_orbits(n, d):
        sector = oracle._sector(lam.parts, n, d)
        yield orbit, sector.states, _stacked(sector, W, lambda M: M)


class TestSectorBlocks:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2), (5, 4)])
    def test_blocks_restrict_dense_operator(self, n, d):
        rng = np.random.Generator(np.random.PCG64(7 * n + d))
        w = rng.normal(size=n - 1)
        dense = np.zeros((d**n, d**n))
        for k in range(2, n + 1):
            dense += w[k - 2] * pt_transposition(k, n, d).matrix
        charge = _charges(n, d)
        label = np.full(d**n, -1)
        for indices, blocks in all_sector_blocks(w, n, d):
            for I, B in zip(indices, blocks):
                np.testing.assert_array_equal(B, dense[np.ix_(I, I)])
                assert np.all(charge[I] == charge[I[0]])
                assert np.all(label[I] == -1)  # each state in one sector at most
                label[I] = label.max() + 1
        # exactly zero between sectors and on the states no sector holds
        np.testing.assert_array_equal(dense[label[:, None] != label[None, :]], 0.0)
        np.testing.assert_array_equal(dense[label == -1], 0.0)
        for _, I, [B] in _sector_blocks(w[None], n, d):
            np.testing.assert_array_equal(B, dense[np.ix_(I, I)])
            assert np.all(charge[I] == charge[I[0]])

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2), (5, 4), (6, 3), (7, 4), (8, 3)])
    def test_orbit_representatives_reproduce_every_sector(self, n, d):
        # a colour permutation maps sector q onto sector P(q) with the same spectrum
        w = np.random.Generator(np.random.PCG64(5 * n + d)).normal(size=n - 1)
        charge = _charges(n, d)

        def kind(state):  # the multiplicity type of the state's charge
            return tuple(sorted(charge[state][charge[state] > 0], reverse=True))

        representative, repeated = {}, []
        for orbit, I, [B] in _sector_blocks(w[None], n, d):
            spectrum = np.linalg.eigvalsh(B)
            representative[kind(I[0])] = spectrum
            repeated.append(np.tile(spectrum, orbit))
        reference = []
        for indices, blocks in all_sector_blocks(w, n, d):
            for I, spectrum in zip(indices, np.linalg.eigvalsh(blocks)):
                np.testing.assert_allclose(spectrum, representative[kind(I[0])], rtol=0, atol=1e-10)
                reference.append(spectrum)
        np.testing.assert_allclose(np.sort(np.concatenate(repeated)),
                                   np.sort(np.concatenate(reference)), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2), (5, 4)])
    def test_fidelities_equal_vector_singlet_fractions(self, n, d):
        # a sector's psi^T X_k psi / d is F_1k of psi embedded in (C^d)^{x n}
        rng = np.random.Generator(np.random.PCG64(13 * n + d))
        for lam, _, size in charge_orbits(n, d):
            sector = oracle._sector(lam.parts, n, d)
            psi = rng.normal(size=(4, size))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            embedded = np.zeros((4, d**n))
            embedded[:, sector.states] = psi
            expected = [vector_singlet_fractions(v, n, d) for v in embedded]
            np.testing.assert_allclose(sector.fidelities(psi), expected, rtol=0, atol=1e-14)

    def test_orbits_must_cover_the_kept_states(self, monkeypatch):
        # d (d^{n-1} - (d-1)^{n-1}) states have leg 1's colour on legs 2..n
        monkeypatch.setattr(oracle, "partitions_of", lambda m, k: list(partitions_of(m, k))[1:])
        with pytest.raises(InconsistencyError, match="cover 648 states, not 700"):
            charge_orbits(5, 4)

    def test_cap_raises_before_any_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve ran before the memory budget check")

        dec = decompose(5, 4)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        # the index arrays fit; one block of the first sector past the budget does
        # not, and the enumeration stops there, short of the largest, C(18, 9) = 48620
        with pytest.raises(ValueError, match=r"type \(11, 5\) and size 18564 \(larger ones may "
                                             r"follow\), would need about .* memory budget"):
            charge_orbits(18, 2)
        monkeypatch.setattr(algebra, "MEMORY_BUDGET", 2**16)
        with pytest.raises(ValueError, match="memory budget of 0.0625 MiB"):
            full_vs_block_spectrum(dec, np.ones(4))


class TestStackedDirections:
    """One call certifies a stack of directions, enumerating each sector once."""

    @pytest.mark.parametrize("chunked", [False, True], ids=["one-yield", "row-a-yield"])
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 4), (6, 3), (7, 4)])
    def test_stack_equals_single_calls(self, monkeypatch, n, d, chunked):
        if chunked:  # a sector is then combined once for each row of the stack
            monkeypatch.setattr(regions, "_BATCH", 1)
        dec = decompose(n, d)
        W = np.random.Generator(np.random.PCG64(3 * n + d)).normal(size=(5, n - 1))
        reports = full_vs_block_spectrum(dec, W)
        assert len(reports) == 5
        for w, rep in zip(W, reports):
            single = full_vs_block_spectrum(dec, w)
            np.testing.assert_array_equal(rep.w, w)
            np.testing.assert_array_equal(np.repeat(*rep.full), np.repeat(*single.full))
            assert rep.max_abs_gap == pytest.approx(single.max_abs_gap, abs=1e-12)
            assert rep.max_abs_gap < 1e-8
            assert (rep.r, rep.sectors) == (single.r, single.sectors)

    @pytest.mark.parametrize("n,d", [(5, 4), (6, 8)])
    def test_stacked_blocks_equal_single_blocks(self, monkeypatch, n, d):
        # sectors of 34 and 36 states are then combined 2, 2 and 1 rows at a time
        monkeypatch.setattr(regions, "_BATCH", 2 * 36**2)
        W = np.random.Generator(np.random.PCG64(n * d)).normal(size=(5, n - 1))
        singles = [[(orbit, I, B) for orbit, I, [B] in _sector_blocks(w[None], n, d)] for w in W]
        seen = list(_sector_blocks(W, n, d))
        assert len(seen) == len(singles[0])
        for j, (orbit, I, blocks) in enumerate(seen):
            assert len(blocks) == 5
            for row, B in zip(singles, blocks):
                assert row[j][0] == orbit
                np.testing.assert_array_equal(row[j][1], I)
                np.testing.assert_array_equal(row[j][2], B)

    @pytest.mark.parametrize("batch", [None, 1], ids=["one-yield", "row-a-yield"])
    def test_each_sector_enumerated_once(self, monkeypatch, batch):
        if batch is not None:
            monkeypatch.setattr(regions, "_BATCH", batch)
        n, d = 6, 8
        dec = decompose(n, d)
        enumerated = []
        enumerate_sector = oracle._sector

        def counting(parts, n, d):
            enumerated.append(parts)
            return enumerate_sector(parts, n, d)

        monkeypatch.setattr(oracle, "_sector", counting)
        W = np.random.Generator(np.random.PCG64(68)).normal(size=(5, n - 1))
        reports = full_vs_block_spectrum(dec, W)
        assert [rep.sectors for rep in reports] == [(5, 330)] * 5
        assert sorted(enumerated) == sorted(lam.parts for lam in partitions_of(n - 2))

    def test_one_batch_chunks_sectors_and_blocks(self, monkeypatch):
        # regions._BATCH alone sets the chunks: at 1, each sector is combined once a row
        n, d = 5, 4
        dec = decompose(n, d)
        calls = []
        combine = oracle.Sector.combine

        def counting(sector, W):
            calls.append((sector.dim, len(W)))
            return combine(sector, W)

        monkeypatch.setattr(oracle.Sector, "combine", counting)
        W = np.random.Generator(np.random.PCG64(54)).normal(size=(5, n - 1))
        sizes = [size for _, _, size in charge_orbits(n, d)]
        full_vs_block_spectrum(dec, W)
        assert calls == [(size, 5) for size in sizes]
        calls.clear()
        monkeypatch.setattr(regions, "_BATCH", 1)
        full_vs_block_spectrum(dec, W)
        assert calls == [(size, 1) for size in sizes for _ in range(5)]

    @pytest.mark.parametrize("batch", [1, 2 * 36**2, None], ids=["1", "2x36^2", "default"])
    @pytest.mark.parametrize("n,d", [(5, 4), (6, 8), (4, 60)])
    def test_price_bounds_every_chunk(self, monkeypatch, n, d, batch):
        # charge_orbits prices each sector at the largest chunk _stacked forms for
        # it, whatever the number of directions
        if batch is not None:
            monkeypatch.setattr(regions, "_BATCH", batch)
        calls = []
        monkeypatch.setattr(oracle, "require_memory", lambda nbytes, what: calls.append(nbytes))
        sizes = [size for _, _, size in charge_orbits(n, d)]
        priced = {size: regions._chunk_rows(size) * size**2 for size in sizes}
        predicted = dict(zip(sizes, calls))
        chunks = {}
        combine = oracle.Sector.combine

        def recording(sector, W):
            chunks.setdefault(sector.dim, []).append(len(W) * sector.dim**2)
            return combine(sector, W)

        monkeypatch.setattr(oracle.Sector, "combine", recording)
        dec = decompose(n, d)
        rng = np.random.Generator(np.random.PCG64(n + d))
        for count in (1, 5, 40):
            full_vs_block_spectrum(dec, rng.normal(size=(count, n - 1)))
        assert sorted(chunks) == sorted(set(sizes))
        for size, entries in chunks.items():
            assert max(entries) <= priced[size]
            assert 24 * max(entries) < predicted[size]  # the chunk, its copy and workspace

    def test_rejects_malformed_stacks(self):
        dec = decompose(4, 3)
        for bad in (np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), np.zeros((0, 3)),
                    np.ones((2, 4)), np.ones((1, 1, 3))):
            with pytest.raises(ValueError):
                full_vs_block_spectrum(dec, bad)


class TestSupportVsFullSpectrum:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2), (5, 4)])
    def test_support_is_full_top_eigenvalue(self, n, d):
        # the skipped sectors are zero, so the full spectrum holds 0
        dec = decompose(n, d)
        rng = np.random.Generator(np.random.PCG64(11 * n + d))
        for _ in range(20):
            w = rng.normal(size=n - 1)
            top = max(np.linalg.eigvalsh(B).max() for _, _, [B] in _sector_blocks(w[None], n, d))
            assert support(dec, w) == pytest.approx(max(0.0, top) / d, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4),
                                     (5, 2), (5, 3), (5, 4), (6, 3)])
    def test_symmetric_max_is_full_top_eigenvalue(self, n, d):
        dec = decompose(n, d)
        top = max(np.repeat(*full_vs_block_spectrum(dec, np.ones(n - 1)).full))
        assert symmetric_max(dec) == pytest.approx(top / (d * (n - 1)), abs=1e-10)


class TestHaarIsometry:
    def test_columns_orthonormal(self):
        for seed in (0, 7, 123):
            ch = haar_isometry(3, 2, seed)
            W = ch.isometry
            np.testing.assert_allclose(W.conj().T @ W, np.eye(3), atol=1e-12)

    def test_deterministic_and_seed_sensitive(self):
        a = haar_isometry(2, 2, 7).isometry
        b = haar_isometry(2, 2, 7).isometry
        np.testing.assert_array_equal(a, b)
        c = haar_isometry(2, 2, 8).isometry
        assert np.max(np.abs(a - c)) > 1e-3

    def test_cap(self):
        with pytest.raises(ValueError, match="Haar isometry .* memory budget"):
            haar_isometry(2, 30, 0)


class TestChoiState:
    def test_basic_properties(self):
        for seed in range(5):
            rho = choi_state(haar_isometry(2, 2, seed))
            M = rho.matrix
            assert np.trace(M) == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh(M)) > -1e-12
            r1 = _ptrace_to(M, (1,), rho.n, rho.d)
            np.testing.assert_allclose(r1, np.eye(2) / 2, atol=1e-12)

    def test_identity_like_channel(self):
        # W|i> = |i> x |0>: clone 2 perfect, clone 3 in |0>
        d = 2
        W = np.zeros((4, 2), dtype=complex)
        W[0, 0] = W[2, 1] = 1.0
        rho = choi_state(ChannelSample(W, d, 2))
        r12 = _ptrace_to(rho.matrix, (1, 2), 3, d)
        psi = max_entangled(d)
        np.testing.assert_allclose(r12, np.outer(psi, psi), atol=1e-12)


class TestSingletFractions:
    def test_maximally_entangled_factor(self):
        d = 2
        psi = max_entangled(d)
        e0 = np.array([1.0, 0.0])
        vec = np.kron(psi, e0)
        rho = np.outer(vec, vec)
        from cloneregion.oracle import DenseOperator

        F = singlet_fractions(DenseOperator(rho, 3, d))
        assert F[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
    def test_maximally_mixed(self, n, d):
        F = singlet_fractions(special_states("constant", n, d))
        np.testing.assert_allclose(F, 1.0 / d**2, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 4)])
    def test_classical_clone(self, n, d):
        F = singlet_fractions(special_states("classical_clone", n, d))
        np.testing.assert_allclose(F, 1.0 / d, atol=1e-12)

    def test_channel_samples_in_range(self):
        for seed in range(20):
            rho = choi_state(haar_isometry(2, 3, seed))
            F = singlet_fractions(rho)
            assert np.all(F > -1e-12) and np.all(F < 1 + 1e-12)


class TestVectorSingletFractions:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2)])
    def test_matches_choi_state(self, n, d):
        for seed in range(5):
            ch = haar_isometry(d, n - 1, seed)
            F = vector_singlet_fractions(ch.isometry.T / np.sqrt(d), n, d)
            np.testing.assert_allclose(F, singlet_fractions(choi_state(ch)), rtol=0, atol=1e-12)

    def test_classical_clone_mixture(self):
        n, d = 4, 3
        step = (d**n - 1) // (d - 1)
        F = np.mean([vector_singlet_fractions(np.eye(1, d**n, i * step), n, d)
                     for i in range(d)], axis=0)
        expect = singlet_fractions(special_states("classical_clone", n, d))
        np.testing.assert_allclose(F, expect, rtol=0, atol=1e-12)


class TestSpecialStates:
    def test_examples(self):
        np.testing.assert_allclose(
            singlet_fractions(special_states("classical_clone", 3, 3)),
            [1 / 3, 1 / 3],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            singlet_fractions(special_states("constant", 3, 3)),
            [1 / 9, 1 / 9],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            singlet_fractions(special_states("perfect_to_clone_j", 3, 2, j=2)),
            [1.0, 0.25],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            singlet_fractions(special_states("perfect_to_clone_j", 3, 2, j=3)),
            [0.25, 1.0],
            atol=1e-12,
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            special_states("nope", 3, 2)
        with pytest.raises(ValueError):
            special_states("perfect_to_clone_j", 3, 2)


class TestFidelityConversion:
    def test_examples(self):
        assert clone_fidelity_from_singlet(1.0, 2) == pytest.approx(1.0)
        assert clone_fidelity_from_singlet(0.75, 2) == pytest.approx(5 / 6)
        for d in (2, 3, 5):
            assert clone_fidelity_from_singlet(1 / d**2, d) == pytest.approx(1 / d)

    def test_round_trip(self):
        for d in (2, 3, 4):
            for F in (0.0, 0.3, 0.9, 1.0):
                f = clone_fidelity_from_singlet(F, d)
                assert singlet_from_clone_fidelity(f, d) == pytest.approx(F, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            clone_fidelity_from_singlet(1.5, 2)


class TestFullVsBlockSpectrum:
    def test_n3_d2_symmetric_direction(self):
        dec = decompose(3, 2)
        rep = full_vs_block_spectrum(dec, np.array([1.0, 1.0]))
        np.testing.assert_allclose(np.repeat(*rep.full), [0, 0, 1, 1, 3, 3], atol=1e-9)
        assert rep.r == {dec.blocks[0].alpha: 2}
        assert rep.max_abs_gap < 1e-9

    def test_single_clone_direction(self):
        dec = decompose(3, 3)
        rep = full_vs_block_spectrum(dec, np.array([1.0, 0.0]))
        np.testing.assert_allclose(np.repeat(*rep.full), [0.0] * 12 + [3.0, 3.0, 3.0], atol=1e-9)

    @pytest.mark.parametrize(
        "n,d,expect",
        [
            (3, 2, {(1,): 2}),
            (3, 3, {(1,): 3}),
            (4, 2, {(2,): 3, (1, 1): 1}),
            (4, 3, {(2,): 6, (1, 1): 3}),
        ],
    )
    def test_multiplicity_ratios(self, n, d, expect):
        dec = decompose(n, d)
        rng = np.random.Generator(np.random.PCG64(42))
        seen = None
        for _ in range(5):
            rep = full_vs_block_spectrum(dec, rng.normal(size=n - 1))
            r = {a.parts: v for a, v in rep.r.items()}
            assert r == expect
            assert seen is None or seen == r  # stable across directions
            seen = r

    def test_rejects_zero_direction(self):
        dec = decompose(3, 2)
        with pytest.raises(ValueError):
            full_vs_block_spectrum(dec, np.zeros(2))

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 4), (6, 8), (7, 4), (3, 50), (8, 3)])
    def test_gap_equals_the_expanded_reference(self, n, d):
        # five rows as `check` draws them; the blocks' side rebuilt from their eigenvalues
        dec = decompose(n, d)
        W = np.random.Generator(np.random.PCG64(n * d)).normal(size=(5, n - 1))
        reports = full_vs_block_spectrum(dec, W)
        spectra = [_stacked(b, W, np.linalg.eigvalsh) for b in dec.blocks]
        for i, rep in enumerate(reports):
            counts = np.concatenate([np.full(b.dim, rep.r[b.alpha]) for b in dec.blocks])
            values = np.concatenate([e[i] for e in spectra])
            zeros = rep.full[1].sum() - counts.sum()
            assert zeros >= 0
            predicted = (np.r_[values, 0.0], np.r_[counts, zeros])
            assert rep.max_abs_gap == expanded_gap(rep.full, predicted)
            assert np.all(np.diff(rep.full[0]) >= 0) and np.all(rep.full[1] > 0)
            assert rep.full[1].sum() == d * (d ** (n - 1) - (d - 1) ** (n - 1))

    @pytest.mark.parametrize("n,d", [(4, 3), (5, 4)])
    def test_rejects_broken_decomposition(self, n, d):
        dec = decompose(n, d)
        first = dec.blocks[0]
        generators = first.generators.copy()
        generators[0] *= 1 + 1e-6
        scaled = dataclasses.replace(first)  # a new block, whose generators are not formed yet
        vars(scaled)["generators"] = generators
        w = np.ones(n - 1)
        assert full_vs_block_spectrum(dec, w).max_abs_gap < 1e-8
        broken = {
            "dropped": dec.blocks[1:],
            "duplicated": dec.blocks + dec.blocks[:1],
            "scaled": (scaled,) + dec.blocks[1:],
        }
        for name, blocks in broken.items():
            try:
                gap = full_vs_block_spectrum(dataclasses.replace(dec, blocks=blocks), w).max_abs_gap
            except InconsistencyError:
                continue
            assert gap > 1e-8, name


class TestStepGap:
    """The gap read from (value, count) lists equals the entry-by-entry gap of their expansions."""

    def test_random_lists_with_ties_and_zero_padding(self):
        rng = np.random.Generator(np.random.PCG64(19))
        grid = np.array([-1.5, -0.25, -0.0, 0.0, 0.5, 1.0, 2.0])  # ties across and within sides
        for case in range(500):
            size_a, size_b = rng.integers(1, 12, size=2)
            values_a = np.where(rng.random(size_a) < 0.5, rng.choice(grid, size_a),
                                rng.normal(size=size_a))
            values_b = np.where(rng.random(size_b) < 0.5, rng.choice(grid, size_b),
                                values_a[rng.integers(0, size_a, size_b)] + 1e-12 * case)
            counts_a = rng.integers(0, 5, size_a)
            counts_a[0] += 1  # at least one state
            counts_b = rng.integers(0, 5, size_b)
            while counts_b.sum() > counts_a.sum():
                counts_b[np.argmax(counts_b)] -= 1
            a = (values_a, counts_a)
            b = (np.r_[values_b, 0.0], np.r_[counts_b, counts_a.sum() - counts_b.sum()])
            full, predicted = oracle._spectrum(*a), oracle._spectrum(*b)
            np.testing.assert_array_equal(np.repeat(*full), np.sort(np.repeat(*a)))
            assert oracle._max_gap(full, predicted) == expanded_gap(a, b), case
