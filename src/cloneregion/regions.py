"""Geometry of the admissible fidelity region.

The admissible set of singlet-fraction tuples (F_12,...,F_1n) is the convex
hull of the per-block regions { (1/d) <psi| B_{k-1} |psi> : |psi| = 1, real }
together with the origin, the point of the semi-trivial ideal N: every
fidelity observable V^{t_1}(1k) acts as zero on N.  The support function is
then (1/d) lambda_max(sum_k w_k V^{t_1}(1k)) on the full space, its zero
eigenvalues included, as the brute-force oracle confirms.  Per block,
IrrepBlock.fidelities maps states to points and IrrepBlock.combine forms
sum_k w_k B_k; its top eigenvalue (_top, batched over directions) gives h(w)
and its top eigenvector an extreme point.  From these the module builds
certified 2D/3D hulls, answers membership and constrained-maximization
queries by column generation, each solve pricing its own columns from the
extreme points along 2N + 2 seed directions, and samples block regions for `region`.

Only three functions import SciPy, inside their bodies: _solve_master
(scipy.optimize.linprog, for membership, classify and constrained_max),
build_hull (scipy.spatial.ConvexHull) and _sphere_grid past dimension 3
(scipy.stats.qmc and scipy.special.ndtri, for the sampled points of `region`
only).  The support function and extreme points are NumPy only, and
symmetric_max reads the block labels d + c(nu/alpha), with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Decomposition, InconsistencyError, IrrepBlock, require_memory

MAX_ROUNDS = 200
# build_hull stops refining once the hull has this many facets (each costs an
# eigensolve a round and a JSON object), or once no facet's support exceeds
# its offset by more than the floor of rounding error
HULL_FACETS = 5000
GAP_FLOOR = 1e-12
# matrix entries that _stacked forms for one solver call (_chunk_rows), for blocks and oracle
# sectors alike; it sets every chunk and the oracle's price of one
_BATCH = 2**20
# HiGHS at its default 1e-7 feasibility tolerances returns duals too coarse
# to settle verdicts at 1e-9.
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class InfeasibleError(RuntimeError):
    """The constraint set has no solution inside the region."""


def _sphere_grid(dim: int, count: int) -> np.ndarray:
    """Deterministic points on the unit sphere S^{dim-1}: a grid for dim 2 and 3.

    Dim 3 gives na * max(1, count // na) points, na = max(2, round(sqrt(count / 2))):
    3570 for count 3600, 9940 for 10^4; other dims give count.  No block has dim 1
    at d >= 2: the nu adding a box to row 1 of alpha is kept, of dim >= 2 unless
    alpha is one row, and then the nu adding a box to row 2 is kept too.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        na = max(2, int(round(np.sqrt(count / 2.0))))
        nb = max(1, count // na)
        theta = np.pi * (np.arange(na) + 0.5) / na       # polar
        phi = 2.0 * np.pi * np.arange(nb) / nb           # azimuth
        t, p = np.meshgrid(theta, phi, indexing="ij")
        return np.column_stack(
            [
                (np.sin(t) * np.cos(p)).ravel(),
                (np.sin(t) * np.sin(p)).ravel(),
                np.cos(t).ravel(),
            ]
        )
    # unscrambled Halton points mapped to the sphere via the normal quantile
    from scipy.special import ndtri
    from scipy.stats import qmc

    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)  # skip the origin
    u = sampler.random(count)
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


@dataclass(frozen=True)
class RegionSample:
    """Sampled fidelity points of one source (a block label, or "N")."""

    source: str
    points: np.ndarray
    states: Optional[np.ndarray] = None


def sample_block_region(block: IrrepBlock, count: int) -> RegionSample:
    """Deterministic sample of the block's fidelity region.

    States live on the real unit sphere of the block dimension: an angle grid
    for dimension <= 3, a low-discrepancy sequence otherwise.
    """
    states = _sphere_grid(block.dim, count)
    return RegionSample(str(block.alpha.parts), block.fidelities(states), states)


def sample_region(dec: Decomposition, count: int) -> list[RegionSample]:
    """sample_block_region for every block; ValueError past the memory budget."""
    # 48 bytes a sampled number: its float and, for the JSON text, its Python
    # float in a row list (40 B measured at (3,2)); text is streamed, never held
    numbers = count * sum(b.dim + dec.clone_count for b in dec.blocks)
    require_memory(48 * numbers, f"{count} samples of each block")
    return [sample_block_region(b, count) for b in dec.blocks]


def block_support(dec: Decomposition, W: np.ndarray):
    """max over blocks of (1/d) lambda_max(sum_k W_k B_k); the origin excluded.

    W is one direction, giving a float, or a (k, N) stack, giving k values;
    _directions reads it, so any other shape is a ValueError.  A zero row gives 0.
    """
    rows = _directions(W, dec.clone_count)
    tops = np.max([_top(block, rows) for block in dec.blocks], axis=0) / dec.d
    return tops if np.ndim(W) == 2 else float(tops[0])


def support(dec: Decomposition, W: np.ndarray):
    """Exact support function h(w) = max(block_support(w), 0) of the admissible region.

    The 0 is the ideal N's point, the origin; h(w) is the full-space
    (1/d) lambda_max(sum_k w_k V^{t_1}(1k)), whose kernel is never empty.
    W is one direction, giving a float, or a (k, N) stack, giving k values
    from one batched eigensolve a block; _nonzero_directions reads it, so any
    other shape, and a zero row, is a ValueError.
    """
    _nonzero_directions(W, dec.clone_count)
    h = block_support(dec, W)
    return (h + abs(h)) / 2  # max(h, 0), exactly, for a float or each entry of a stack


def _directions(W: np.ndarray, N: int) -> np.ndarray:
    """W, one direction of length N or a (k, N) stack with k >= 1, as (k, N) float rows.

    The one input rule of the region queries: block_support, support,
    extreme_points, constrained_max (through _direction) and
    oracle.full_vs_block_spectrum read their directions here at entry, and
    ValueError, naming N, refuses any other shape and any entry NaN or infinite.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim not in (1, 2) or W.shape[-1] != N or not W.size:
        raise ValueError(f"need a direction of length {N} or a (k, {N}) stack; got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError(f"need finite directions of length {N}")
    return W.reshape(-1, N)


def _direction(w: np.ndarray, N: int) -> np.ndarray:
    """w, one direction of length N, read by _directions; a stack is a ValueError too."""
    if np.ndim(w) != 1:
        raise ValueError(f"need one direction of length {N}; got shape {np.shape(w)}")
    return _directions(w, N)[0]


def _nonzero_directions(W: np.ndarray, N: int) -> np.ndarray:
    """_directions(W, N), and ValueError if a row is zero: for support and the oracle."""
    rows = _directions(W, N)
    if not np.all(np.any(rows, axis=1)):
        raise ValueError(f"need nonzero directions of length {N}")
    return rows


def _chunk_rows(dim: int) -> int:
    """Rows a _stacked chunk holds at dimension dim: as many as _BATCH entries fit, at least one."""
    return max(1, _BATCH // dim**2)


def _chunks(block: IrrepBlock, count: int) -> list[slice]:
    """range(count) in consecutive slices of _chunk_rows(block.dim) rows."""
    step = _chunk_rows(block.dim)
    return [slice(i, i + step) for i in range(0, count, step)]


def _stacked(block: IrrepBlock, W: np.ndarray, solve) -> np.ndarray:
    """solve(block.combine(W[r])) on rows r of W, a _chunks slice a call; block or Sector."""
    return np.concatenate([solve(block.combine(W[rows])) for rows in _chunks(block, len(W))])


def _top(block: IrrepBlock, W: np.ndarray) -> np.ndarray:
    """lambda_max(sum_k W[r, k] B_k) for each row r of W."""
    return _stacked(block, W, lambda M: np.linalg.eigvalsh(M)[:, -1])


def extreme_points(dec: Decomposition, W: np.ndarray):
    """Points X[r] of the region with <W[r], X[r]> = h(W[r]), h, and their sources.

    source[r] indexes dec.blocks, or is -1 where X[r] is the origin: where
    every block eigenvalue along W[r] is negative.  Otherwise X[r] is the
    fidelity vector of the top eigenvector of sum_k W[r, k] B_k in the first
    block whose top eigenvalue is largest.  Top eigenvalues come from
    eigvalsh in every block, eigenvectors from eigh in the winning block only.
    W is read by _directions, so one direction is a stack of one; a zero row
    is priced too (h = 0, a point of the first block), as constrained_max
    needs when its objective is parallel to a constraint.
    """
    W = _directions(W, dec.clone_count)
    tops = np.array([_top(b, W) for b in dec.blocks])
    source = np.argmax(tops, axis=0)
    h = tops[source, np.arange(len(W))]
    source[h < 0] = -1
    X = np.zeros(W.shape)
    for i, block in enumerate(dec.blocks):
        rows = source == i
        if rows.any():
            psi = _stacked(block, W[rows], lambda M: np.linalg.eigh(M)[1][:, :, -1])
            X[rows] = block.fidelities(psi)
    return X, np.maximum(h, 0.0) / dec.d, source


def _seed_directions(N: int) -> np.ndarray:
    """The 2N + 2 directions +-e_k and +-(1, ..., 1) whose extreme points seed R."""
    return np.vstack([np.eye(N), -np.eye(N), np.ones(N), -np.ones(N)])


def symmetric_max(dec: Decomposition) -> float:
    """Largest t with (t,...,t) admissible: h(1,...,1)/N, read from the block labels.

    This is exact without an eigensolve.  In every block sum_a B_a =
    diag(d + c(nu/alpha)) in the Young basis: the nonzero spectrum of
    sum_a B_a = Y~^T Y~ (Y~ the stacked factors) is that of Y~ Y~^T = Q(alpha),
    whose eigenvalues are the labels d + c(nu/alpha), and build_block refuses
    a factor that misses Y~ Y~^T = Q(alpha) by more than 1e-8 d.  So
    h(1,...,1) = max(d + c)/d over the blocks.  The origin never wins: a kept
    nu has height <= d, so c >= 1 - d and d + c >= 1.  The maximum is
    d + n - 2, at alpha = (n-2) and nu = (n-1): Werner's (N + d - 1)/(N d).
    It reads no generator, so no block forms its generator store.
    """
    return max(max(b.eigenvalues) for b in dec.blocks) / (dec.d * dec.clone_count)


@dataclass(frozen=True)
class RegionHull:
    """Inner polytope of the region: exact extreme points, facets and their exact support.

    normal . x <= facet_support holds on the whole region for every facet, and
    gap = max(facet_support - facet_offsets) bounds how far the region reaches
    past the polytope.
    """

    dim: int
    vertices: np.ndarray
    sources: tuple[str, ...]
    facet_normals: np.ndarray  # outward unit normals
    facet_offsets: np.ndarray  # normal . x <= offset
    facet_support: np.ndarray  # h(normal)
    gap: float
    volume: float


def _hull_dimension(N: int) -> int:
    """N, the dimension of the hull of N clones; ValueError unless it is 2 or 3."""
    if N not in (2, 3):
        raise ValueError(f"hulls only for 2 or 3 clones (got {N}); use support/membership")
    return N


def build_hull(dec: Decomposition) -> RegionHull:
    """Hull of exact extreme points, refined along its facet normals (2D/3D only).

    Sandwich (Rote, Computing 48, 337 (1992)) and estimate refinement (Lotov,
    Bushenkov and Kamenev, Interactive Decision Maps, 2004): from the origin,
    source "N", and the extreme points along the seed directions, each round
    adds the extreme point along every facet normal whose gap, support minus
    offset, exceeds GAP_FLOOR and a quarter of the round's largest gap.  It
    stops when no gap exceeds GAP_FLOOR or the hull has HULL_FACETS facets;
    the round that would pass the budget adds the largest gaps only.
    """
    N = _hull_dimension(dec.clone_count)
    from scipy.spatial import ConvexHull

    X, _, source = extreme_points(dec, _seed_directions(N))
    pts, src = np.vstack([np.zeros((1, N)), X]), np.r_[-1, source]
    for _ in range(MAX_ROUNDS):
        hull = ConvexHull(pts)
        lens = np.linalg.norm(hull.equations[:, :-1], axis=1)
        normals, offsets = hull.equations[:, :-1] / lens[:, None], -hull.equations[:, -1] / lens
        X, h, source = extreme_points(dec, normals)
        gap = h - offsets
        # a gap grows as its facet's width squared: refine the facets within a
        # factor 2 of the widest
        grow = np.flatnonzero(gap > max(GAP_FLOOR, gap.max() / 4))
        room = (HULL_FACETS - len(normals)) // (N - 1)  # a new vertex adds N - 1 facets
        if not grow.size or room <= 0:
            break
        grow = grow[np.argsort(gap[grow])[-room:]]
        pts = np.vstack([pts[hull.vertices], X[grow]])
        src = np.r_[src[hull.vertices], source[grow]]
    labels = [str(b.alpha.parts) for b in dec.blocks] + ["N"]  # source -1 is "N"
    return RegionHull(
        dim=N,
        vertices=pts[hull.vertices],
        sources=tuple(labels[i] for i in src[hull.vertices]),
        facet_normals=normals,
        facet_offsets=offsets,
        facet_support=h,
        gap=float(gap.max()),
        volume=float(hull.volume),
    )


def _solve_master(cost: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray):
    from scipy.optimize import linprog

    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=_HIGHS)
    if res.status != 0:
        raise InconsistencyError(f"master LP failed: {res.message}")
    return res


@dataclass(frozen=True)
class Certificate:
    """A membership verdict on p, with gauge bounds and the evidence for them.

    direction is the best exact cut: <direction, p> > support(direction) when
    p is outside.  Otherwise weights @ points = p with extreme points of R.
    """

    verdict: str
    gauge: tuple[float, float]
    direction: np.ndarray
    points: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None


def _generate(dec, points, master, direction, bound, settle, lower=-np.inf, center=None):
    """Wentges-smoothed column generation for a minimization over R from the columns `points`.

    master(columns) returns the master LP value and its duals y, priced along
    direction(y); each priced point joins this call's own columns.  bound(y, h)
    returns the lower bound that y certifies given h = h(direction(y)), and the
    duals to smooth towards.  settle(lower, upper, center) returns the answer or None.
    """
    for _ in range(MAX_ROUNDS):
        upper, y = master(points)
        if (answer := settle(lower, upper, center)) is not None:
            return answer
        w_lp = direction(y)
        reach = np.max(points @ w_lp)
        # price at the smoothed duals, and at the LP duals only if that
        # column cuts off nothing; without the fallback boundary points stall
        for trial in [y] if center is None else [(center + y) / 2, y]:
            w = direction(trial)
            (x,), (h,), _ = extreme_points(dec, w)
            points = np.vstack([points, x])
            value, smoothed = bound(trial, h)
            if value > lower:
                lower, center = value, smoothed
            if w_lp @ x > reach + 1e-12:
                break
    raise InconsistencyError(f"column generation did not settle in {MAX_ROUNDS} rounds")


class MembershipOracle:
    """Exact membership queries on one region R by column generation.

    classify brackets the gauge g(p) = min{t >= 0 : p - c in t (R - c)} about
    the mean c of the seed extreme points `points`: "boundary" means |g(p) - 1| <= tol.
    Each query prices its own columns from the seeds; only bases, the optimal LP
    bases of earlier queries, grows, and a query that one of them decides needs no LP.
    """

    def __init__(self, dec: Decomposition):
        self.dec = dec
        N = dec.clone_count
        seeds = _seed_directions(N)
        self.points, h, _ = extreme_points(dec, seeds)
        self.center = self.points.mean(axis=0)
        self.cuts = seeds / (h - seeds @ self.center)[:, None]
        self.bases = np.empty((0, N, N))  # columns x_j - c of optimal gauge-LP bases

    def certify(self, p: np.ndarray, tol: float = 1e-9) -> Certificate:
        """Verdict on p: exact cuts bound g(p) from below, LP bases from above.

        InconsistencyError if the bracket is inverted by more than tol, or if
        an inside or boundary certificate misses p by more than tol.
        ValueError unless p is one fidelity tuple (F_12, ..., F_1n): shape (N,),
        every entry finite.
        """
        p = np.asarray(p, dtype=float)
        if p.shape != self.center.shape or not np.all(np.isfinite(p)):
            raise ValueError(f"need a finite point of length {len(self.center)}; got shape {p.shape}")
        u = p - self.center
        j = int(np.argmax(self.cuts @ u))
        lower, cut = float(self.cuts[j] @ u), self.cuts[j]
        stored = np.linalg.solve(self.bases, u)  # weights of u on each stored basis
        totals = np.where(np.all(stored >= 0, axis=1), stored.sum(axis=1), np.inf)
        best = [np.inf, None, None]  # gauge upper bound, basis columns, their weights
        if np.any(np.isfinite(totals)):
            k = int(np.argmin(totals))
            best = [totals[k], self.bases[k], stored[k]]

        def master(points):
            res = _solve_master(np.ones(len(points)), (points - self.center).T, u)
            used = res.x > 0
            best[1:] = (points[used] - self.center).T, res.x[used]
            if used.sum() == len(u):
                self.bases = np.concatenate([self.bases, [best[1]]])
            return res.fun, res.eqlin.marginals

        def bound(y, h):
            cut = y / (h - y @ self.center)
            return float(cut @ u), cut

        def settle(lower, upper, cut):
            if lower > upper + tol:
                raise InconsistencyError(
                    f"the gauge bracket ({lower!r}, {upper!r}) is inverted by more than {tol}")
            if lower > 1 + tol:
                return Certificate("outside", (lower, upper), cut)
            if upper >= 1 - tol and (lower < 1 - tol or upper > 1 + tol):
                return None
            # p = (1 - sum lam) c + sum lam_j x_j, and c is the mean of the seed points
            cols, lam = best[1:]
            points = np.vstack([cols.T + self.center, self.points])
            weights = np.r_[lam, np.full(len(self.points), (1.0 - lam.sum()) / len(self.points))]
            residual = float(np.max(np.abs(weights @ points - p)))
            if residual > tol:
                raise InconsistencyError(
                    f"the certificate misses the point by {residual:.2e}, more than {tol}")
            verdict = "inside" if upper < 1 - tol else "boundary"
            return Certificate(verdict, (lower, upper), cut, points, weights)

        return settle(lower, best[0], cut) or _generate(
            self.dec, self.points, master, lambda y: y, bound, settle, lower, cut
        )

    def classify(self, p: np.ndarray, tol: float = 1e-9) -> str:
        """The verdict of certify: inside, boundary or outside by g(p) to within tol."""
        return self.certify(p, tol).verdict


def constrained_max(
    dec: Decomposition,
    objective: np.ndarray,
    constraints: Sequence[tuple[np.ndarray, float]] = (),
    tol: float = 1e-9,
) -> tuple[float, np.ndarray]:
    """Maximize <objective, F> over the region subject to a.F = b per (a, b).

    Column generation for any clone count; returns the optimum and an attaining
    fidelity vector.  tol bounds the gap to the Lagrangian dual bound
    h(objective + A^T pi) - pi.b, and the slack that the master LP's slack
    columns leave on the constraints: more slack means they miss the region.
    The objective and each constraint's a are read by _direction: ValueError,
    naming N, unless each is one direction of length N.
    """
    N = dec.clone_count
    o = _direction(objective, N)
    A = np.array([_direction(a, N) for a, _ in constraints]).reshape(-1, N)
    b = np.array([rhs for _, rhs in constraints], dtype=float)
    penalty = 1e4 * (1.0 + np.abs(o).sum())
    slack = np.hstack([np.eye(len(b)), -np.eye(len(b))])
    state = {}

    def master(X):
        cost = np.r_[-(X @ o), np.full(slack.shape[1], penalty)]
        A_eq = np.vstack([np.r_[np.ones(len(X)), np.zeros(slack.shape[1])],
                          np.hstack([A @ X.T, slack])])
        res = _solve_master(cost, A_eq, np.r_[1.0, b])
        state.update(point=res.x[: len(X)] @ X, slack=res.x[len(X):].sum())
        return res.fun, res.eqlin.marginals[1:]

    def settle(lower, upper, pi):
        if upper - lower > tol:
            return None
        if state["slack"] > tol:
            raise InfeasibleError(f"the constraints miss the region by {state['slack']:.2e}")
        return float(state["point"] @ o), state["point"]

    return _generate(dec, extreme_points(dec, _seed_directions(N))[0], master,
                     lambda pi: o + A.T @ pi, lambda pi, h: (pi @ b - h, pi), settle)

