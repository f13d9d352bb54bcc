"""Geometry of the admissible fidelity region.

The admissible set of singlet-fraction tuples (F_12,...,F_1n) is the convex
hull of the per-block regions { (1/d) <psi| B_{k-1} |psi> : |psi| = 1, real }
together with the origin, the point of the semi-trivial ideal N: every
fidelity observable V^{t_1}(1k) acts as zero on N.  The support function is
then (1/d) lambda_max(sum_k w_k V^{t_1}(1k)) on the full space, its zero
eigenvalues included, as the brute-force oracle confirms.  This
module samples the block regions deterministically, builds 2D/3D convex hulls,
evaluates the exact support function h(w) via extremal eigenvalues, and answers
membership and constrained-maximization queries by column generation over the
extreme points that the top eigenvectors give.

Only three functions import SciPy, inside their bodies: _solve_master
(scipy.optimize.linprog, for membership, classify and constrained_max),
build_hull (scipy.spatial.ConvexHull) and _sphere_grid past dimension 3
(scipy.stats.qmc and scipy.special.ndtri, for sample_block_region).  The
support function, extreme points and symmetric_max are NumPy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Decomposition, InconsistencyError, IrrepBlock, require_memory

MAX_ROUNDS = 200
# HiGHS at its default 1e-7 feasibility tolerances returns duals too coarse
# to settle verdicts at 1e-9.
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class InfeasibleError(RuntimeError):
    """The constraint set has no solution inside the region."""


def fidelity_vector(block: IrrepBlock, psi: np.ndarray) -> np.ndarray:
    """(F_12,...,F_1n) for a real unit vector in the block: F_1k = psi^T B_{k-1} psi / d."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (block.dim,):
        raise ValueError(f"state length {psi.shape} != block dimension {block.dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state must be a unit vector")
    return np.array([psi @ B @ psi for B in block.generators]) / block.d


def _sphere_grid(dim: int, count: int) -> np.ndarray:
    """Deterministic points on the unit sphere S^{dim-1}; grid for dim <= 3."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])[: max(1, min(2, count))]
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
    points = np.empty((states.shape[0], block.clone_count))
    for a, B in enumerate(block.generators):
        points[:, a] = np.einsum("si,ij,sj->s", states, B, states) / block.d
    return RegionSample(source=str(block.alpha.parts), points=points, states=states)


def sample_region(dec: Decomposition, count: int) -> list[RegionSample]:
    """sample_block_region for every block; ValueError past the memory budget."""
    # 240 bytes a sampled number: its float, Python object and output text
    numbers = count * sum(b.dim + dec.clone_count for b in dec.blocks)
    require_memory(240 * numbers + 2**20, f"{count} samples of each block")
    return [sample_block_region(b, count) for b in dec.blocks]


def _top_block(dec: Decomposition, w: np.ndarray):
    """(lambda_max, block, M) for the block whose M = sum_k w_k B_k tops the others."""
    best = (-np.inf, None, None)
    for block in dec.blocks:
        M = sum(w[a] * block.generators[a] for a in range(dec.clone_count))
        top = float(np.linalg.eigvalsh(M)[-1])
        if top > best[0]:
            best = (top, block, M)
    return best


def block_support(dec: Decomposition, w: np.ndarray) -> float:
    """max over blocks of (1/d) lambda_max(sum_k w_k B_k); the origin excluded."""
    return _top_block(dec, np.asarray(w, dtype=float))[0] / dec.d


def support(dec: Decomposition, w: np.ndarray) -> float:
    """Exact support function h(w) = max(block_support(w), 0) of the admissible region.

    The 0 is the ideal N's point, the origin; h(w) is the full-space
    (1/d) lambda_max(sum_k w_k V^{t_1}(1k)), whose kernel is never empty.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (dec.clone_count,) or not np.any(w):
        raise ValueError(f"need a nonzero direction of length {dec.clone_count}")
    return max(block_support(dec, w), 0.0)


def extreme_point(dec: Decomposition, w: np.ndarray) -> tuple[np.ndarray, float]:
    """A point x of the region with <w, x> = h(w), and h(w).

    x is the origin when every block eigenvalue along w is negative, otherwise
    the fidelity vector of the top eigenvector of sum_k w_k B_k in the winning block.
    """
    w = np.asarray(w, dtype=float)
    top, block, M = _top_block(dec, w)
    if top < 0:
        return np.zeros(dec.clone_count), 0.0
    return fidelity_vector(block, np.linalg.eigh(M)[1][:, -1]), top / dec.d


def axis_width(dec: Decomposition, u: np.ndarray) -> float:
    """Width of the block part of the region along the unit direction u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    return block_support(dec, u) + block_support(dec, -u)


def symmetric_max(dec: Decomposition) -> float:
    """Largest t with (t,...,t) admissible: support along (1,..,1), over N."""
    u = np.ones(dec.clone_count)
    return support(dec, u) / dec.clone_count


@dataclass(frozen=True)
class RegionHull:
    """Convex hull of the sampled region: vertices, facets, provenance."""

    dim: int
    vertices: np.ndarray
    sources: tuple[str, ...]
    facet_normals: np.ndarray  # outward unit normals
    facet_offsets: np.ndarray  # normal . x <= offset
    volume: float


def build_hull(dec: Decomposition, samples_per_block: int = 10**4) -> RegionHull:
    """Convex hull of the block samples plus the origin, source "N" (2D/3D only)."""
    N = dec.clone_count
    if N not in (2, 3):
        raise ValueError(
            f"sampled hulls only for 2 or 3 clones (got {N}); use support/membership"
        )
    from scipy.spatial import ConvexHull

    samples = sample_region(dec, samples_per_block)
    pts = np.vstack([s.points for s in samples] + [np.zeros((1, N))])
    srcs = [s.source for s in samples for _ in range(len(s.points))] + ["N"]
    hull = ConvexHull(pts)
    normals = hull.equations[:, :-1]
    offsets = -hull.equations[:, -1]
    lens = np.linalg.norm(normals, axis=1)
    return RegionHull(
        dim=N,
        vertices=pts[hull.vertices],
        sources=tuple(srcs[i] for i in hull.vertices),
        facet_normals=normals / lens[:, None],
        facet_offsets=offsets / lens,
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


class MembershipOracle:
    """Exact membership queries on one region R by column generation.

    classify brackets the gauge g(p) = min{t >= 0 : p - c in t (R - c)} about
    the mean c of the initial extreme points, and tol applies to the gauge:
    "boundary" means |g(p) - 1| <= tol.  Every extreme point, exact cut and
    optimal LP basis is kept, so a query that they already decide needs no LP.
    """

    def __init__(self, dec: Decomposition):
        self.dec = dec
        N = dec.clone_count
        seeds = np.vstack([np.eye(N), -np.eye(N), np.ones(N), -np.ones(N)])
        found = [extreme_point(dec, w) for w in seeds]
        self.points = np.array([x for x, _ in found])
        self.seed_count = len(seeds)
        self.center = self.points.mean(axis=0)
        self.cuts = np.array([w / (h - w @ self.center) for w, (_, h) in zip(seeds, found)])
        self.bases = np.empty((0, N, N))  # columns x_j - c of optimal gauge-LP bases

    def _generate(self, master, direction, bound, settle, lower=-np.inf, center=None):
        """Wentges-smoothed column generation for a minimization over R.

        master() returns the master LP value over self.points and its duals y,
        priced along direction(y).  bound(y, h) returns the lower bound that y
        certifies given h = h(direction(y)), and the duals to smooth towards.
        settle(lower, upper, center) returns the answer or None.
        """
        for _ in range(MAX_ROUNDS):
            upper, y = master()
            if (answer := settle(lower, upper, center)) is not None:
                return answer
            w_lp = direction(y)
            reach = np.max(self.points @ w_lp)
            # price at the smoothed duals, and at the LP duals only if that
            # column cuts off nothing; without the fallback boundary points stall
            for trial in [y] if center is None else [(center + y) / 2, y]:
                w = direction(trial)
                x, h = extreme_point(self.dec, w)
                self.points = np.vstack([self.points, x])
                if h > w @ self.center:  # false only for w = 0
                    self.cuts = np.vstack([self.cuts, w / (h - w @ self.center)])
                value, smoothed = bound(trial, h)
                if value > lower:
                    lower, center = value, smoothed
                if w_lp @ x > reach + 1e-12:
                    break
        raise InconsistencyError(f"column generation did not settle in {MAX_ROUNDS} rounds")

    def certify(self, p: np.ndarray, tol: float = 1e-9) -> Certificate:
        """Verdict on p: exact cuts bound g(p) from below, LP bases from above."""
        u = np.asarray(p, dtype=float) - self.center
        j = int(np.argmax(self.cuts @ u))
        lower, cut = float(self.cuts[j] @ u), self.cuts[j]
        stored = np.linalg.solve(self.bases, u)  # weights of u on each stored basis
        totals = np.where(np.all(stored >= 0, axis=1), stored.sum(axis=1), np.inf)
        best = [np.inf, None, None]  # gauge upper bound, basis columns, their weights
        if np.any(np.isfinite(totals)):
            k = int(np.argmin(totals))
            best = [totals[k], self.bases[k], stored[k]]

        def master():
            res = _solve_master(np.ones(len(self.points)), (self.points - self.center).T, u)
            used = res.x > 0
            best[1:] = (self.points[used] - self.center).T, res.x[used]
            if used.sum() == len(u):
                self.bases = np.concatenate([self.bases, [best[1]]])
            return res.fun, res.eqlin.marginals

        def bound(y, h):
            cut = y / (h - y @ self.center)
            return float(cut @ u), cut

        def settle(lower, upper, cut):
            if lower > 1 + tol:
                return Certificate("outside", (lower, upper), cut)
            if upper >= 1 - tol and (lower < 1 - tol or upper > 1 + tol):
                return None
            # p = (1 - sum lam) c + sum lam_j x_j, and c is the mean of the seed points
            cols, lam = best[1:]
            points = np.vstack([cols.T + self.center, self.points[: self.seed_count]])
            weights = np.r_[lam, np.full(self.seed_count, (1.0 - lam.sum()) / self.seed_count)]
            verdict = "inside" if upper < 1 - tol else "boundary"
            return Certificate(verdict, (lower, upper), cut, points, weights)

        return settle(lower, best[0], cut) or self._generate(
            master, lambda y: y, bound, settle, lower, cut
        )

    def classify(self, p: np.ndarray, tol: float = 1e-9) -> str:
        """The verdict of certify: inside, boundary or outside by g(p) to within tol."""
        return self.certify(p, tol).verdict


def membership(dec: Decomposition, p: np.ndarray, tol: float = 1e-9) -> str:
    """Classify a fidelity vector as inside / boundary / outside.

    tol applies to the gauge g(p) of MembershipOracle: "boundary" means |g(p) - 1| <= tol.
    """
    return MembershipOracle(dec).classify(p, tol)


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
    """
    oracle = MembershipOracle(dec)
    o = np.asarray(objective, dtype=float)
    A = np.array([a for a, _ in constraints], dtype=float).reshape(-1, len(o))
    b = np.array([rhs for _, rhs in constraints], dtype=float)
    penalty = 1e4 * (1.0 + np.abs(o).sum())
    slack = np.hstack([np.eye(len(b)), -np.eye(len(b))])
    state = {}

    def master():
        X = oracle.points
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

    return oracle._generate(master, lambda pi: o + A.T @ pi, lambda pi, h: (pi @ b - h, pi),
                            settle)

