import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cloneregion import regions
from cloneregion.algebra import InconsistencyError, decompose
from cloneregion.oracle import full_vs_block_spectrum
from cloneregion.regions import (
    InfeasibleError,
    GAP_FLOOR,
    MembershipOracle,
    block_support,
    build_hull,
    constrained_max,
    extreme_points,
    sample_block_region,
    support,
    symmetric_max,
)

from loop_reference import axis_width, loop_block_support, loop_combine, loop_fidelities


@pytest.fixture(scope="module")
def dec32():
    return decompose(3, 2)


@pytest.fixture(scope="module")
def hull32(dec32):
    return build_hull(dec32)


class TestFidelityVector:
    def test_top_eigenvector_reaches_one(self, dec32):
        block = dec32.blocks[0]
        _, vecs = np.linalg.eigh(block.generators[0])
        F = block.fidelities(vecs[:, -1])
        assert F[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_basis_states(self, d):
        block = decompose(3, d).blocks[0]
        hi = (d + 1) / (2 * d)
        lo = (d - 1) / (2 * d)
        np.testing.assert_allclose(
            block.fidelities(np.array([1.0, 0.0])), [hi, hi], atol=1e-12
        )
        np.testing.assert_allclose(
            block.fidelities(np.array([0.0, 1.0])), [lo, lo], atol=1e-12
        )


class TestBlockMapsVsLoops:
    """combine, fidelities and block_support against one-generator-at-a-time loops."""

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 3), (6, 3)])
    def test_match_loop_references(self, n, d):
        dec = decompose(n, d)
        rng = np.random.Generator(np.random.PCG64(10 * n + d))
        W = rng.normal(size=(6, n - 1))
        for block in dec.blocks:
            M = block.combine(W)
            assert M.shape == (len(W), block.dim, block.dim)
            for w, Mw in zip(W, M):
                np.testing.assert_allclose(Mw, loop_combine(block, w), rtol=0, atol=1e-13 * d)
                np.testing.assert_allclose(block.combine(w), loop_combine(block, w),
                                           rtol=0, atol=1e-13 * d)
            states = rng.normal(size=(5, block.dim))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            F = block.fidelities(states)
            assert F.shape == (len(states), n - 1)
            for psi, f in zip(states, F):
                np.testing.assert_allclose(f, loop_fidelities(block, psi), rtol=0, atol=1e-13 * d)
                np.testing.assert_allclose(block.fidelities(psi), loop_fidelities(block, psi),
                                           rtol=0, atol=1e-13 * d)
        for w in W:
            assert abs(block_support(dec, w) - loop_block_support(dec, w)) <= 1e-13 * d


class TestSampleBlockRegion:
    def test_ellipse_sums(self, dec32):
        sample = sample_block_region(dec32.blocks[0], 360)
        sums = sample.points.sum(axis=1)
        assert np.min(sums) >= 0.5 - 1e-9
        assert np.max(sums) <= 1.5 + 1e-9
        assert np.min(sums) == pytest.approx(0.5, abs=1e-3)
        assert np.max(sums) == pytest.approx(1.5, abs=1e-3)

    def test_points_reproducible_from_states(self, dec32):
        sample = sample_block_region(dec32.blocks[0], 64)
        for state, point in zip(sample.states, sample.points):
            np.testing.assert_allclose(
                dec32.blocks[0].fidelities(state), point, atol=1e-12
            )

    def test_coordinates_in_range(self):
        # blocks of dimension 4 and 8 take the low-discrepancy path
        for block in decompose(5, 3).blocks:
            sample = sample_block_region(block, 500)
            assert np.all(sample.points > -1e-12)
            assert np.all(sample.points < 1 + 1e-12)

    def test_deterministic(self, dec32):
        a = sample_block_region(dec32.blocks[0], 100).points
        b = sample_block_region(dec32.blocks[0], 100).points
        np.testing.assert_array_equal(a, b)


class TestSupport:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_symmetric_direction(self, d):
        dec = decompose(3, d)
        assert support(dec, np.array([1.0, 1.0])) == pytest.approx(
            (d + 1) / d, abs=1e-10
        )
        assert support(dec, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-10)

    def test_negative_direction_d2(self, dec32):
        # the block branch gives -(d-1)/d = -1/2; the origin, the N-point, gives 0
        assert support(dec32, np.array([-1.0, -1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_clone_permutation_symmetry(self):
        dec = decompose(4, 3)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(100):
            w = rng.normal(size=3)
            h = support(dec, w)
            for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
                assert support(dec, w[perm]) == pytest.approx(h, abs=1e-9)

    def test_rejects_zero(self, dec32):
        with pytest.raises(ValueError):
            support(dec32, np.zeros(2))
        with pytest.raises(ValueError):  # one zero row in a stack
            support(dec32, np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 4), (6, 3)])
    def test_stack_equals_single_directions(self, n, d):
        dec = decompose(n, d)
        W = np.random.Generator(np.random.PCG64(n + d)).normal(size=(7, n - 1))
        h, hb = support(dec, W), block_support(dec, W)
        assert h.shape == hb.shape == (7,)
        for w, top, block_top in zip(W, h, hb):
            assert top == pytest.approx(support(dec, w), abs=1e-12)
            assert block_top == pytest.approx(block_support(dec, w), abs=1e-12)
        np.testing.assert_array_equal(h, np.maximum(hb, 0.0))


# (d, n), so the ids read d-n
SYMMETRIC_GRID = [(d, 3) for d in (2, 3, 4, 5)] + [(d, 4) for d in (2, 3, 4, 5)] + [
    (d, 5) for d in (2, 3, 4)] + [(3, 6), (5, 10)]


class TestSymmetricMax:
    @pytest.mark.parametrize("d,n", SYMMETRIC_GRID)
    def test_werner(self, n, d):
        N = n - 1
        assert symmetric_max(decompose(n, d)) == pytest.approx(
            (N + d - 1) / (N * d), abs=1e-9
        )

    @pytest.mark.parametrize("d,n", SYMMETRIC_GRID)
    def test_labels_equal_the_eigensolver(self, n, d):
        # the eigensolver route: support along (1, ..., 1), over N
        dec = decompose(n, d)
        N = n - 1
        assert symmetric_max(dec) == pytest.approx(support(dec, np.ones(N)) / N, rel=1e-12, abs=0)
        # one label wins: d + n - 2, at alpha = (n-2) and nu = (n-1)
        labels = sorted((lam, b.alpha.parts, nu.parts)
                        for b in dec.blocks for lam, nu in zip(b.eigenvalues, b.labels))
        assert labels[-1] == (d + n - 2, (n - 2,), (n - 1,))
        assert labels[-2][0] < labels[-1][0]

    def test_runs_no_eigensolve(self, monkeypatch):
        dec = decompose(5, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("symmetric_max reads the labels")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("support", "block_support", "extreme_points"):
            monkeypatch.setattr(regions, name, refuse)
        assert symmetric_max(dec) == pytest.approx(6 / 12, abs=1e-15)

    @pytest.mark.parametrize("n,d", [(5, 4), (10, 5)])
    def test_forms_no_generators(self, n, d):
        # decompose certifies and drops the factors; the generators form on first read
        dec = decompose(n, d)
        symmetric_max(dec)
        assert not [b.alpha for b in dec.blocks if "generators" in vars(b)]
        assert not [b.alpha for b in dec.blocks
                    if any(isinstance(v, np.ndarray) for v in vars(b).values())]
        first = dec.blocks[0]
        assert first.generators is first.generators and "generators" in vars(first)
        assert [k for k, v in vars(first).items() if isinstance(v, np.ndarray)] == ["generators"]


class TestPositiveOrthantDominance:
    """Block alpha = (n-2) attains block_support along every sampled w > 0."""

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2), (5, 3), (6, 3),
                                     (6, 8), (7, 4), (8, 3), (8, 4)])
    def test_symmetric_block_wins(self, n, d):
        dec = decompose(n, d)
        [top] = [i for i, b in enumerate(dec.blocks) if b.alpha.parts == (n - 2,)]
        W = 1.0 - np.random.Generator(np.random.PCG64(100 * n + d)).random((200, n - 1))
        # lambda_max / d of every block along every w
        tops = np.array([
            np.linalg.eigvalsh(np.einsum("ra,aij->rij", W, np.array(b.generators)))[:, -1]
            for b in dec.blocks
        ]) / d
        runner_up = np.max(np.delete(tops, top, axis=0), axis=0, initial=-np.inf)
        margin = float(np.min(tops[top] - runner_up))
        worst = float(np.max(np.abs(block_support(dec, W) - tops[top])))
        print(f"({n},{d}): smallest margin to the runner-up block {margin:.2e}")
        assert worst <= 1e-12 * d, (f"alpha = ({n - 2}) misses block_support by {worst:.2e}; "
                                    f"smallest margin to the runner-up block {margin:.2e}")


class TestOneToTwoCloners:
    @pytest.mark.parametrize("d", [2, 3, 5, 10, 50])
    def test_extreme_points_on_cerf_curve(self, d):
        # the optimal asymmetric 1->2 cloners (Cerf, J. Mod. Opt. 47, 187 (2000))
        # satisfy F_1 + F_2 - (2/d) sqrt(F_1 F_2) = 1 - 1/d^2
        dec = decompose(3, d)
        for t in np.linspace(0.0, np.pi / 2, 52)[1:-1]:
            ((F1, F2),), _, _ = extreme_points(dec, np.array([np.cos(t), np.sin(t)]))
            assert F1 + F2 - (2 / d) * np.sqrt(F1 * F2) == pytest.approx(1 - 1 / d**2, abs=1e-12)


class TestAxisWidth:
    def test_squeeze(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        widths = []
        for d in range(2, 11):
            w = axis_width(decompose(3, d), u)
            assert w == pytest.approx(np.sqrt(2) / d, abs=1e-9)
            widths.append(w)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_antisymmetric_direction_d2(self, dec32):
        u = np.array([1.0, -1.0]) / np.sqrt(2)
        assert axis_width(dec32, u) == pytest.approx(np.sqrt(6) / 2, abs=1e-9)

    def test_requires_unit(self, dec32):
        with pytest.raises(ValueError):
            axis_width(dec32, np.array([1.0, 1.0]))


class TestHull:
    def test_vertices_satisfy_facets(self, hull32):
        slack = hull32.facet_normals @ hull32.vertices.T - hull32.facet_offsets[:, None]
        assert np.max(slack) <= 1e-10

    def test_normals_unit(self, hull32):
        np.testing.assert_allclose(
            np.linalg.norm(hull32.facet_normals, axis=1), 1.0, atol=1e-12
        )

    @pytest.mark.parametrize("n,d,bound", [
        (3, 2, 1e-7), (3, 5, 1e-7),
        # below what the hull of 10^4 sampled states per block missed by
        (4, 2, 9.9e-4), (4, 3, 1.06e-3),
    ])
    def test_gap_bound(self, n, d, bound):
        hull = build_hull(decompose(n, d))
        assert -GAP_FLOOR <= hull.gap <= bound
        assert hull.gap == np.max(hull.facet_support - hull.facet_offsets)

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 50])
    def test_vertices_on_cerf_ellipse(self, d):
        # the 1->2 block region is the ellipse (F1 + F2 - (1 - 1/d^2))^2 = 4 F1 F2 / d^2,
        # and every hull vertex but the origin is one of its extreme points
        hull = build_hull(decompose(3, d))
        F1, F2 = hull.vertices[np.array(hull.sources) != "N"].T
        assert len(F1) > 1000
        np.testing.assert_allclose((F1 + F2 - (1 - 1 / d**2)) ** 2, 4 * F1 * F2 / d**2,
                                   rtol=0, atol=1e-12)

    def test_n_point_vertex_at_d4(self):
        dec = decompose(3, 4)
        hull = build_hull(dec)
        # the origin sticks out below the ellipse (symmetric minimum 3/8)
        i = np.argmin(np.linalg.norm(hull.vertices, axis=1))
        np.testing.assert_array_equal(hull.vertices[i], [0.0, 0.0])
        assert hull.sources[i] == "N"

    def test_3d_hull_builds(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("the hull is built from exact extreme points, not samples")

        monkeypatch.setattr(regions, "sample_region", sampled)
        monkeypatch.setattr(regions, "sample_block_region", sampled)
        dec = decompose(4, 2)
        hull = build_hull(dec)
        assert hull.dim == 3
        assert hull.volume > 0
        slack = hull.facet_normals @ hull.vertices.T - hull.facet_offsets[:, None]
        assert np.max(slack) <= 1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            build_hull(decompose(5, 2))


class TestHullCertificate:
    """The hull's claims, checked by the scalar support and membership paths."""

    @pytest.fixture(scope="class", params=[(4, 2), (4, 3)], ids=["4-2", "4-3"])
    def case(self, request):
        dec = decompose(*request.param)
        hull = build_hull(dec)
        rng = np.random.Generator(np.random.PCG64(sum(request.param)))
        return dec, hull, rng.choice(len(hull.facet_normals), 200, replace=False)

    def test_facets_are_valid_inequalities(self, case):
        dec, hull, facets = case
        for f in facets:
            h = support(dec, hull.facet_normals[f])
            assert h <= hull.facet_offsets[f] + hull.gap + 1e-12
            assert hull.facet_support[f] == pytest.approx(h, abs=1e-12)

    def test_vertices_are_members(self, case):
        # every vertex is an exact extreme point, so its gauge is 1; at 80-90 ms
        # a vertex (2-core VM), the 29-30 vertices of 10 of the facets
        dec, hull, facets = case
        slack = hull.vertices @ hull.facet_normals[facets[:10]].T - hull.facet_offsets[facets[:10]]
        on_facets = hull.vertices[np.any(np.abs(slack) <= 1e-12, axis=1)]
        assert len(on_facets) >= hull.dim
        oracle = MembershipOracle(dec)
        seeds = len(oracle.points)
        for x in on_facets:
            cert = oracle.certify(x)
            assert cert.verdict == "boundary"
            # the columns' weights sum to the gauge's upper bound, at most
            # 1 + tol, and the seeds share the rest
            assert np.all(cert.weights[:-seeds] >= 0)
            assert np.all(cert.weights[-seeds:] >= -1e-9 / seeds)
            assert cert.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(cert.weights @ cert.points - x).max() <= 1e-9


class TestCertificateSelfCheck:
    """certify refuses a certificate that does not check, whatever the master LP says."""

    @pytest.mark.parametrize("field,factor,message", [
        ("x", 1 + 1e-6, "misses the point by"),
        ("fun", 0.5, "is inverted by more than"),
    ], ids=["weights", "bracket"])
    def test_doctored_master_raises(self, monkeypatch, field, factor, message):
        # the extreme point along (1, ..., 1) has gauge 1, and its seed cut says so
        dec = decompose(4, 2)
        (x,), _, _ = extreme_points(dec, np.ones(dec.clone_count))
        assert MembershipOracle(dec).classify(x) == "boundary"
        solve = regions._solve_master

        def doctored(cost, A_eq, b_eq):
            res = solve(cost, A_eq, b_eq)
            res[field] = res[field] * factor
            return res

        monkeypatch.setattr(regions, "_solve_master", doctored)
        with pytest.raises(InconsistencyError, match=message):
            MembershipOracle(dec).certify(x)


class TestExtremePoints:
    @pytest.mark.parametrize("n", [5, 6])
    def test_batched_rows_equal_single(self, n):
        # several blocks compete along random directions at n >= 5
        dec = decompose(n, 3)
        W = np.random.Generator(np.random.PCG64(n)).normal(size=(40, n - 1))
        X, h, source = extreme_points(dec, W)
        assert len(set(source.tolist())) > 1
        for w, x, top in zip(W, X, h):
            (x1,), (h1,), _ = extreme_points(dec, w)
            np.testing.assert_allclose(x, x1, rtol=0, atol=1e-12)
            assert top == pytest.approx(h1, abs=1e-12)
            assert w @ x == pytest.approx(top, abs=1e-12)


class TestMembership:
    def test_named_points(self, dec32):
        oracle = MembershipOracle(dec32)
        assert oracle.classify(np.array([0.75, 0.75]), tol=1e-6) == "boundary"
        assert oracle.classify(np.array([0.9, 0.9]), tol=1e-6) == "outside"
        assert oracle.classify(np.array([0.5, 0.5]), tol=1e-6) == "inside"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_n_point_inside_or_boundary(self, d):
        dec = decompose(3, d)
        # the N-point is the origin, on the boundary: h(-1, -1) = 0
        assert MembershipOracle(dec).classify(np.zeros(2), tol=1e-9) == "boundary"

    def test_sampled_points_contained(self, dec32):
        oracle = MembershipOracle(dec32)
        sample = sample_block_region(dec32.blocks[0], 100)
        for p in sample.points:
            assert oracle.classify(p, tol=1e-9) in ("inside", "boundary")

    def test_works_without_hull(self, dec32):
        assert MembershipOracle(dec32).classify(np.array([0.9, 0.9]), tol=1e-6) == "outside"
        assert MembershipOracle(dec32).classify(np.array([0.5, 0.5]), tol=1e-6) == "inside"

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize(
        "level,verdict",
        [
            pytest.param(1 / 3, "inside", id="paper_1_over_d"),
            pytest.param(0.0, "boundary", id="zero"),
        ],
    )
    def test_symmetric_optimum_many_clones(self, n, level, verdict):
        # the symmetric axis from a candidate N-point (1/d or the origin) up
        # to the optimum lies in R; the optimum is set by the blocks alone
        dec = decompose(n, 3)
        oracle = MembershipOracle(dec)
        top = np.full(n - 1, symmetric_max(dec))
        low = np.full(n - 1, level)
        assert oracle.classify(top, tol=1e-9) == "boundary"
        assert oracle.classify(1.001 * top, tol=1e-9) == "outside"
        assert oracle.classify(low, tol=1e-9) == verdict
        assert oracle.classify((low + top) / 2, tol=1e-9) == "inside"


class TestPerQueryColumns:
    """Each query generates its own columns from the 2N + 2 seeds."""

    def test_master_holds_only_this_querys_columns(self, monkeypatch):
        dec = decompose(4, 2)
        oracle = MembershipOracle(dec)
        seeds, cuts, N = oracle.points.copy(), oracle.cuts.copy(), dec.clone_count
        columns = []
        solve = regions._solve_master

        def recording(cost, A_eq, b_eq):
            columns.append(A_eq.shape[1])
            return solve(cost, A_eq, b_eq)

        monkeypatch.setattr(regions, "_solve_master", recording)
        rng = np.random.Generator(np.random.PCG64(42))
        for w in rng.normal(size=(10, N)):
            columns.clear()
            (x,), _, _ = extreme_points(dec, w)
            assert oracle.classify(x) == "boundary"
            # a master call prices at most two columns before the next one
            for k, count in enumerate(columns):
                assert count <= 2 * N + 2 + 2 * k
        assert len(oracle.bases) > 0
        np.testing.assert_array_equal(oracle.points, seeds)
        np.testing.assert_array_equal(oracle.cuts, cuts)

    def test_constrained_max_builds_no_oracle(self, dec32, monkeypatch):
        def refuse(self, dec):
            raise AssertionError("constrained_max built a MembershipOracle")

        monkeypatch.setattr(MembershipOracle, "__init__", refuse)
        value, _ = constrained_max(dec32, np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0, abs=1e-6)


class TestCertificates:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2)])
    def test_outside_direction_separates(self, n, d):
        dec = decompose(n, d)
        oracle = MembershipOracle(dec)
        rng = np.random.Generator(np.random.PCG64(n * 10 + d))
        for _ in range(10):
            w = rng.normal(size=n - 1)
            (x,), _, _ = extreme_points(dec, w)
            p = x + 1e-3 * w / np.linalg.norm(w)
            cert = oracle.certify(p)
            assert cert.verdict == "outside"
            assert cert.direction @ p > support(dec, cert.direction)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2)])
    def test_inside_combination_reproduces_point(self, n, d):
        dec = decompose(n, d)
        oracle = MembershipOracle(dec)
        rng = np.random.Generator(np.random.PCG64(n * 10 + d))
        probes = rng.normal(size=(50, n - 1))
        for _ in range(10):
            xs = [extreme_points(dec, w)[0][0] for w in rng.normal(size=(3, n - 1))]
            p = 0.9 * np.mean(xs, axis=0) + 0.1 * oracle.center
            cert = oracle.certify(p)
            assert cert.verdict == "inside"
            assert np.all(cert.weights >= 0)
            assert cert.weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(cert.weights @ cert.points, p, atol=1e-9)
            # every point of the combination lies in the region
            for x in cert.points:
                assert all(w @ x <= support(dec, w) + 1e-12 for w in probes)


class TestConstrainedMax:
    def test_unconstrained_axis(self, dec32):
        value, point = constrained_max(dec32, np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0, abs=1e-6)
        assert point[0] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_constraint(self, dec32):
        value, point = constrained_max(
            dec32,
            np.array([1.0, 0.0]),
            constraints=[(np.array([1.0, -1.0]), 0.0)],
        )
        assert value == pytest.approx(0.75, abs=1e-6)
        np.testing.assert_allclose(point, [0.75, 0.75], atol=1e-6)

    def test_balanced_clones_dual_bound(self):
        # maximize F_12 subject to F_12 + F_13 = 2 F_14; the LP value must
        # agree with the Lagrangian dual min_t h(e_1 + t(1,1,-2))
        dec = decompose(4, 3)
        value, point = constrained_max(
            dec,
            np.array([1.0, 0.0, 0.0]),
            constraints=[(np.array([1.0, 1.0, -2.0]), 0.0)],
        )
        assert point[0] + point[1] == pytest.approx(2 * point[2], abs=1e-7)

        def dual(t):
            return support(dec, np.array([1.0 + t, t, -2.0 * t]))

        res = minimize_scalar(dual, bounds=(-5.0, 5.0), method="bounded",
                              options={"xatol": 1e-10})
        assert value == pytest.approx(res.fun, abs=1e-3)
        assert value <= res.fun + 1e-9  # weak duality exactly

    def test_four_clones_dual_bound(self):
        # the same balanced constraint with a fourth, unconstrained clone
        dec = decompose(5, 3)
        value, point = constrained_max(
            dec,
            np.array([1.0, 0.0, 0.0, 0.0]),
            constraints=[(np.array([1.0, 1.0, -2.0, 0.0]), 0.0)],
        )
        assert point[0] + point[1] == pytest.approx(2 * point[2], abs=1e-9)
        res = minimize_scalar(
            lambda t: support(dec, np.array([1.0 + t, t, -2.0 * t, 0.0])),
            bounds=(-5.0, 5.0), method="bounded", options={"xatol": 1e-10},
        )
        assert value == pytest.approx(res.fun, abs=1e-6)
        assert value == pytest.approx(0.86034708, abs=1e-8)

    def test_infeasible(self, dec32):
        with pytest.raises(InfeasibleError):
            constrained_max(
                dec32,
                np.array([1.0, 0.0]),
                constraints=[(np.array([1.0, 0.0]), 2.0)],
            )


class TestBlockSupportVsNPoint:
    def test_block_support_excludes_n_point(self, dec32):
        w = -np.ones(2)
        assert block_support(dec32, w) == pytest.approx(-0.5, abs=1e-10)
        dec4 = decompose(3, 4)
        assert block_support(dec4, w) == pytest.approx(-3 / 4, abs=1e-10)
        # the origin, the N-point, dominates downward: h includes it, blocks do not
        assert support(dec32, w) == pytest.approx(0.0, abs=1e-10)
        assert support(dec4, w) == pytest.approx(0.0, abs=1e-10)


class TestInputRule:
    """Every region query reads its directions by regions._directions at entry."""

    # a wrong last axis, an empty stack and a three-dimensional array
    BAD = [(4, 2, np.ones(6)), (3, 2, np.ones(4)), (4, 2, np.ones((2, 2))),
           (4, 2, np.zeros((0, 3))), (3, 2, np.ones((1, 1, 2))), (4, 3, np.ones((2, 1, 3)))]

    @pytest.mark.parametrize("query", [block_support, extreme_points],
                             ids=["block_support", "extreme_points"])
    @pytest.mark.parametrize("n,d,W", BAD, ids=["6-at-4", "4-at-3", "2x2-at-4", "empty",
                                                "1x1x2", "2x1x3"])
    def test_refuses_a_shape_other_than_N_or_k_by_N(self, query, n, d, W):
        # reshape(-1, N) read np.ones(6) at (4,2) as two copies of (1, 1, 1): 2.0
        with pytest.raises(ValueError, match=f"length {n - 1}"):
            query(decompose(n, d), W)

    # NaN and infinite entries, alone and as one row of a stack
    NON_FINITE = [[np.nan, 1, 0], [np.inf, 1, 0], [1, -np.inf, 0], [[1, 0, 0], [0, np.nan, 1]]]
    NON_FINITE_IDS = ["nan", "inf", "-inf", "stack-nan"]

    @pytest.mark.parametrize("query", [block_support, support, extreme_points, full_vs_block_spectrum],
                             ids=["block_support", "support", "extreme_points",
                                  "full_vs_block_spectrum"])
    @pytest.mark.parametrize("W", NON_FINITE, ids=NON_FINITE_IDS)
    def test_refuses_a_non_finite_direction(self, query, W):
        # eigvalsh raised "Eigenvalues did not converge", naming no input
        with pytest.raises(ValueError, match="finite directions of length 3"):
            query(decompose(4, 2), W)

    @pytest.mark.parametrize("w", NON_FINITE[:3], ids=NON_FINITE_IDS[:3])
    def test_constrained_max_and_certify_refuse_non_finite_entries(self, w):
        # linprog raised its own ValueError after RuntimeWarnings
        dec = decompose(4, 2)
        with pytest.raises(ValueError, match="finite directions of length 3"):
            constrained_max(dec, w)
        with pytest.raises(ValueError, match="finite directions of length 3"):
            constrained_max(dec, [1, 0, 0], [(w, 0.4)])
        oracle = MembershipOracle(dec)
        with pytest.raises(ValueError, match="finite point of length 3"):
            oracle.certify(np.array(w) / 4)
        with pytest.raises(ValueError, match="finite point of length 3"):
            oracle.classify(np.array(w) / 4)

    @pytest.mark.parametrize("p", [[0.3], np.ones(4), np.ones((1, 3)), 0.3],
                             ids=["1", "4", "1x3", "scalar"])
    def test_certify_and_classify_refuse_a_point_not_of_shape_N(self, p):
        # classify([0.3]) at (4,2) answered inside for (0.3, 0.3, 0.3)
        oracle = MembershipOracle(decompose(4, 2))
        with pytest.raises(ValueError, match="length 3"):
            oracle.certify(p)
        with pytest.raises(ValueError, match="length 3"):
            oracle.classify(p)

    @pytest.mark.parametrize("objective,constraints", [
        ([1, 0, 0], [([1, 0], 0.4)]), ([1, 0], []), ([[1, 0, 0]], []),
        ([1, 0, 0], [([[1, 0, 0]], 0.4)]), ([1, 0, 0], [([1, 0, 0], 0.4), ([1, 0], 0.4)]),
    ], ids=["constraint-2", "objective-2", "objective-1x3", "constraint-1x3", "ragged"])
    def test_constrained_max_refuses_a_shape_other_than_N(self, objective, constraints):
        # without the input rule, (1, 0, 0) with (1, 0) raised NumPy's reshape error, naming no N
        with pytest.raises(ValueError, match="length 3"):
            constrained_max(decompose(4, 2), objective, constraints)

    def test_constrained_max_reads_a_valid_query(self):
        value, point = constrained_max(decompose(4, 2), [1, 0, 0], [([1, 0, 0], 0.4)])
        assert value == pytest.approx(0.4, abs=1e-9) and point[0] == pytest.approx(0.4, abs=1e-9)

    def test_extreme_points_price_a_zero_row(self, dec32, monkeypatch):
        # objective (1, 0) parallel to the constraint F_12 = 0.5: the dual prices
        # o + A^T pi = (0, 0), and the answer is the constraint's value
        priced = []

        def spy(dec, W):
            priced.append(np.array(W, dtype=float).reshape(-1, dec.clone_count))
            return extreme_points(dec, W)

        monkeypatch.setattr(regions, "extreme_points", spy)
        value, point = constrained_max(dec32, [1, 0], [([1, 0], 0.5)])
        assert value == pytest.approx(0.5, abs=1e-9) and point[0] == pytest.approx(0.5, abs=1e-9)
        assert any(not np.any(W) for W in np.vstack(priced))
        X, h, _ = extreme_points(dec32, np.zeros(2))
        assert X.shape == (1, 2) and h[0] == 0.0
