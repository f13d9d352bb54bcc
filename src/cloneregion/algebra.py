"""Irreducible blocks of the algebra of partially transposed permutation operators.

For n systems of local dimension d, the algebra spanned by permutation
operators with a partial transpose on one tensor leg splits into two ideals.
The nontrivial one is resolved into irreducible blocks labeled by partitions
alpha of n-2: a Gram-like matrix Q(alpha) built from the Young orthogonal
irrep of S(n-2) is eigendecomposed, and the generator matrices

    B_a = sqrt(L) Z^T P_a Z sqrt(L),      a = 1..n-1,

(P_a the projector onto coset-row a of the Q index space) represent the
partially transposed transpositions in the reduced basis.  Each B_a is real
symmetric and satisfies B_a^2 = d B_a, tr B_a = d dim(alpha-irrep).

The spectrum of Q(alpha) is known exactly (Studzinski, Horodecki and
Mozrzymas, J. Phys. A 46, 395303 (2013)): each nu = alpha + box contributes
the eigenvalue d + c(nu/alpha), c the content of the added box, with
multiplicity dim psi^nu.  The eigenvectors are labeled by this prediction.

Each degenerate eigenspace is canonicalized (RQ factorization of its bottom
rows with positive diagonal) only where that bottom square is nonsingular.
That holds at n <= 4, so those blocks match the explicit small-n matrices up
to column signs.  Past n = 4 the square is often singular (1 of 5
multi-column eigenspaces at n = 5, d = 4; 12 of 15 at n = 7, d = 4), and such
an eigenspace keeps the arbitrary basis that eigh returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import rq

from .symgroup import (
    Partition,
    Permutation,
    branch_up,
    partitions_of,
    rep_matrix,
    young_orthogonal_rep,
)


class InconsistencyError(RuntimeError):
    """Numerical structure contradicts the expected algebraic one."""


def admissible_M_irreps(n: int, d: int) -> list[Partition]:
    """Partitions of n-2 with height <= d, canonical order."""
    if n < 3:
        raise ValueError(f"need n >= 3 (at least two clones plus reference), got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return [a for a in partitions_of(n - 2) if a.height <= d]


def admissible_N_irreps(n: int, d: int) -> list[Partition]:
    """Partitions of n-1 with height <= d, canonical order."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return [v for v in partitions_of(n - 1) if v.height <= d]


@dataclass(frozen=True)
class QMatrix:
    """Block matrix Q^{ab}_{ij} = d^{delta_ab} phi^alpha[(a,n-1)(a,b)(b,n-1)]_{ij}.

    Row/column index is (a, i) -> (a-1)*dim_phi + i with a = 1..n-1.
    """

    alpha: Partition
    n: int
    d: int
    entries: np.ndarray

    @property
    def dim_phi(self) -> int:
        return self.alpha.dimension


def build_Q(alpha: Partition, n: int, d: int) -> QMatrix:
    """Assemble Q(alpha) by evaluating the Young orthogonal irrep of S(n-2).

    Block (a, b) is d^{delta_ab} phi^alpha[g_a^-1 (a b) g_b] with coset
    representatives g_a = (a, n-1).  The representative of the last coset is
    additionally twisted by the transposition (1 2) of S(n-2) whenever it
    exists (n >= 4): this is a pure gauge (it leaves the spectrum and all
    reduced-basis generator matrices unchanged) and makes the off-diagonal
    blocks for a != b equal to phi evaluated on odd permutations throughout,
    matching the sign convention of the published small-n matrices.
    """
    if alpha.size != n - 2:
        raise ValueError(f"{alpha} does not partition n-2 = {n - 2}")
    if alpha.height > d:
        raise ValueError(f"{alpha} has height {alpha.height} > d = {d}")
    rep = young_orthogonal_rep(alpha)
    w = rep.dim
    m = n - 1

    def rep_of_coset(a: int) -> Permutation:
        if a == m and n >= 4:
            return Permutation.transposition(1, 2, m)
        return Permutation.transposition(a, m, m)

    Q = np.zeros((m * w, m * w))
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            ga = rep_of_coset(a)  # involutions, so g^-1 = g
            gb = rep_of_coset(b)
            tab = Permutation.transposition(a, b, m)
            word = ga.compose(tab).compose(gb)  # fixes n-1, lies in S(n-2)
            block = rep_matrix(rep, word.restrict(n - 2))
            if a == b:
                block = d * block
            Q[(a - 1) * w : a * w, (b - 1) * w : b * w] = block
    return QMatrix(alpha, n, d, Q)


def _added_content(alpha: Partition, nu: Partition) -> int:
    """Content (column - row) of the box that nu = alpha + box adds."""
    i = next(i for i, p in enumerate(nu.parts) if i >= alpha.height or p > alpha.parts[i])
    return nu.parts[i] - 1 - i


def _canonicalize_cluster(block: np.ndarray) -> np.ndarray:
    """Fix the basis of a degenerate eigenspace.

    Rotates the eigenvector columns so that the bottom square of the column
    block is upper triangular with positive diagonal (RQ factorization); a
    1-column eigenspace just gets its dominant entry made positive.  When the
    bottom square is singular the block is returned unchanged, in whatever
    basis eigh produced; this never happens at n <= 4 but often past it.
    """
    rows, c = block.shape
    if c == 1:
        k = int(np.argmax(np.abs(block[:, 0])))
        return block * np.sign(block[k, 0])
    L = block[rows - c :, :]
    if abs(np.linalg.det(L)) < 1e-12:
        return block
    R, O = rq(L)
    out = block @ O.T
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return out * signs


@dataclass(frozen=True)
class IrrepBlock:
    """One irreducible block of the ideal carrying partitions of n-2.

    labels are the kept branchings nu of alpha in branch_up order, with the
    exact eigenvalues d + c(nu/alpha) of Q(alpha), each of multiplicity
    dim psi^nu; spectrum_gap is the largest deviation of the computed spectrum
    from them.  Z holds the kept eigenvector columns; generators[a-1] is the
    image B_a of the partially transposed transposition pairing clone a+1
    with the reference.
    """

    alpha: Partition
    n: int
    d: int
    eigenvalues: tuple[float, ...]
    labels: tuple[Partition, ...]
    spectrum_gap: float
    Z: np.ndarray
    generators: tuple[np.ndarray, ...]
    dropped: Optional[Partition]

    @property
    def dim(self) -> int:
        """Block dimension = rank Q(alpha)."""
        return self.Z.shape[1]

    @property
    def dim_phi(self) -> int:
        return self.alpha.dimension

    @property
    def clone_count(self) -> int:
        return self.n - 1

    def eigenvalues_full(self) -> np.ndarray:
        """Kept eigenvalues with multiplicity, descending."""
        return np.repeat(self.eigenvalues, [nu.dimension for nu in self.labels])


def build_block(alpha: Partition, n: int, d: int) -> IrrepBlock:
    """Eigendecompose Q(alpha) and form the reduced-basis generator matrices.

    The descending eigenvectors are sliced by dim psi^nu in branch_up order,
    which is descending content, so slice nu spans the eigenspace of
    d + c(nu/alpha).  The nu of height d + 1 carries eigenvalue 0 and is
    recorded as dropped.  Distinct predicted eigenvalues lie at least 1
    apart, so the labels are unambiguous while the computed spectrum stays
    within 1/2 of the prediction; past that InconsistencyError is raised.
    """
    Q = build_Q(alpha, n, d)
    vals, vecs = np.linalg.eigh(Q.entries)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending
    nus = branch_up(alpha)
    dims = [nu.dimension for nu in nus]
    eigs = [float(d + _added_content(alpha, nu)) for nu in nus]
    spectrum_gap = float(np.max(np.abs(vals - np.repeat(eigs, dims))))
    if not spectrum_gap < 0.5:
        raise InconsistencyError(
            f"Q({alpha}) at n={n}, d={d}: spectrum deviates by {spectrum_gap:.3g} "
            "from d + c(nu/alpha), so its eigenspaces cannot be labeled"
        )

    eigenvalues, labels, kept_cols = [], [], []
    dropped = None
    for nu, lam, cols in zip(nus, eigs, np.split(vecs, np.cumsum(dims)[:-1], axis=1)):
        if nu.height > d:
            dropped = nu
            continue
        eigenvalues.append(lam)
        labels.append(nu)
        kept_cols.append(_canonicalize_cluster(cols))

    # B_a = Y_a^T Y_a with Y_a = Z_a sqrt(L), Z_a the rows of coset a
    Z = np.hstack(kept_cols)
    sqrt_lam = np.sqrt(np.repeat(eigenvalues, [nu.dimension for nu in labels]))
    generators = []
    for Za in Z.reshape(n - 1, Q.dim_phi, -1):
        Ya = Za * sqrt_lam
        generators.append(Ya.T @ Ya)

    return IrrepBlock(
        alpha=alpha,
        n=n,
        d=d,
        eigenvalues=tuple(eigenvalues),
        labels=tuple(labels),
        spectrum_gap=spectrum_gap,
        Z=Z,
        generators=tuple(generators),
        dropped=dropped,
    )


def clone_observable(block: IrrepBlock, k: int) -> np.ndarray:
    """Fidelity observable for clone k: the image of the transposition (k-1, n)."""
    if not 2 <= k <= block.n:
        raise ValueError(f"clone index k must be in 2..{block.n}, got {k}")
    return block.generators[k - 2]


@dataclass(frozen=True)
class Decomposition:
    """All irreducible blocks for (n, d), plus the semi-trivial irrep labels."""

    n: int
    d: int
    blocks: tuple[IrrepBlock, ...]
    n_irreps: tuple[Partition, ...]

    @property
    def clone_count(self) -> int:
        return self.n - 1


def decompose(n: int, d: int) -> Decomposition:
    blocks = tuple(build_block(a, n, d) for a in admissible_M_irreps(n, d))
    return Decomposition(n, d, blocks, tuple(admissible_N_irreps(n, d)))


# ---------------------------------------------------------------------------
# Reference matrices for n = 3 and n = 4
# ---------------------------------------------------------------------------

# Unit vectors u_a and diagonal scalings D with B_a = D u_a u_a^T D for the
# rank-one n=4 generator matrices; u^T D^2 u = d guarantees B_a^2 = d B_a.
_U4 = {
    (2,): [
        [1 / np.sqrt(6), -1 / np.sqrt(2), 1 / np.sqrt(3)],
        [1 / np.sqrt(6), 1 / np.sqrt(2), 1 / np.sqrt(3)],
        [np.sqrt(2.0 / 3.0), 0.0, -1 / np.sqrt(3)],
    ],
    (1, 1): [
        [1 / np.sqrt(2), -1 / np.sqrt(6), -1 / np.sqrt(3)],
        [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(3)],
        [0.0, np.sqrt(2.0 / 3.0), -1 / np.sqrt(3)],
    ],
}


def _diag4(alpha: Partition, d: int) -> np.ndarray:
    if alpha.parts == (2,):
        return np.diag(np.sqrt([d - 1.0, d - 1.0, d + 2.0]))
    return np.diag(np.sqrt([d + 1.0, d + 1.0, d - 2.0]))


def reference_fixtures(n: int, d: int) -> list[tuple[Partition, list[np.ndarray]]]:
    """Known-good generator matrices for n = 3 and n = 4.

    For n = 3 (one block) and for the 2x2 block at n = 4, d = 2 these are
    the published closed forms verbatim.  The rank-one 3x3 forms at n = 4
    appear in print with an overall 1/3 that breaks the defining relation
    B^2 = d B (it would cap the top fidelity at 1/3); here they are returned
    as D u u^T D with unit u, which restores the relation and the trace
    identity tr B = d * dim_phi.
    """
    if n == 3:
        s = np.sqrt(d**2 - 1.0)
        v13 = 0.5 * np.array([[d + 1.0, -s], [-s, d - 1.0]])
        v23 = 0.5 * np.array([[d + 1.0, s], [s, d - 1.0]])
        return [(Partition((1,)), [v13, v23])]
    if n == 4:
        out = []
        a1 = Partition((2,))
        D1 = _diag4(a1, d)
        out.append(
            (a1, [D1 @ np.outer(u, u) @ D1 for u in map(np.asarray, _U4[(2,)])])
        )
        a2 = Partition((1, 1))
        if d >= 3:
            D2 = _diag4(a2, d)
            mats = [D2 @ np.outer(u, u) @ D2 for u in map(np.asarray, _U4[(1, 1)])]
        else:
            r3 = np.sqrt(3.0)
            mats = [
                3 * np.array([[1 / 2, -1 / (2 * r3)], [-1 / (2 * r3), 1 / 6]]),
                3 * np.array([[1 / 2, 1 / (2 * r3)], [1 / (2 * r3), 1 / 6]]),
                3 * np.array([[0.0, 0.0], [0.0, 2 / 3]]),
            ]
        out.append((a2, mats))
        return out
    raise ValueError(f"reference matrices available only for n in {{3, 4}}, got {n}")


def blocks_equivalent(
    X: Sequence[np.ndarray], Y: Sequence[np.ndarray], tol: float = 1e-10
) -> bool:
    """Basis-independent comparison of two generator families.

    Compares traces of all words of length <= 3 in the generators; these are
    invariant under simultaneous orthogonal conjugation and separate the
    block families arising here.
    """
    if len(X) != len(Y):
        raise ValueError("generator counts differ")
    for x, y in zip(X, Y):
        if x.shape != y.shape:
            raise ValueError("generator shapes differ")
    m = len(X)
    for a in range(m):
        if abs(np.trace(X[a]) - np.trace(Y[a])) > tol:
            return False
    for a in range(m):
        for b in range(m):
            if abs(np.trace(X[a] @ X[b]) - np.trace(Y[a] @ Y[b])) > tol:
                return False
    for a in range(m):
        for b in range(m):
            for c in range(m):
                tx = np.trace(X[a] @ X[b] @ X[c])
                ty = np.trace(Y[a] @ Y[b] @ Y[c])
                if abs(tx - ty) > tol:
                    return False
    return True


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def block_to_dict(block: IrrepBlock) -> dict:
    return {
        "alpha": list(block.alpha.parts),
        "eigenvalues": list(block.eigenvalues),
        "multiplicities": [nu.dimension for nu in block.labels],
        "labels": [list(nu.parts) for nu in block.labels],
        "dim": block.dim,
        "generators": [g.tolist() for g in block.generators],
        "dropped": list(block.dropped.parts) if block.dropped else None,
    }


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "n": dec.n,
        "d": dec.d,
        "clone_count": dec.clone_count,
        "blocks": [block_to_dict(b) for b in dec.blocks],
        "n_irreps": [list(v.parts) for v in dec.n_irreps],
    }
