"""Irreducible blocks of the algebra of partially transposed permutation operators.

For n systems of local dimension d, the algebra spanned by permutation
operators with a partial transpose on one tensor leg splits into two ideals.
The nontrivial one is resolved into irreducible blocks labeled by partitions
alpha of n-2.  Block alpha acts on the kept branchings nu = alpha + box of
height <= d, in the Young basis of S(n-1); the partially transposed
transpositions are represented there by

    B_a = Y_a^T Y_a,      a = 1..n-1,

each real symmetric with B_a^2 = d B_a and tr B_a = d dim(alpha-irrep).

The factors Y_a are known in closed form (Studzinski, Horodecki and
Mozrzymas, J. Phys. A 46, 395303 (2013); Mozrzymas, Studzinski and
Horodecki, J. Phys. A 51, 125202 (2018)).  With m = n-1, phi the Young
orthogonal form of alpha and psi that of the direct sum of the kept nu,
Y_m maps tableau T of alpha to the tableau T + m of nu (m in the box
nu/alpha) with weight sqrt((d + c(nu/alpha)) dim psi^nu / (m dim phi)),
c the content of the added box; then Y_{m-1} = Y_m psi(s_{m-1}) and
Y_a = phi(s_a) Y_{a+1} psi(s_a).  Every step is a sparse gather (psi's over
all kept psi^nu at once), written in place into one (m, dim phi, dim) array
of factors through one reused (dim phi, dim) buffer.

The Gram-like matrix Q(alpha), evaluated from phi alone, certifies
the closed form: stacking the Y_a (coset m twisted by phi(s_1) for n >= 4,
as in build_Q) gives Y Y^T = Q(alpha), and sum_a B_a = diag(d + c(nu/alpha)).
So Y is a factor of Q whose columns span its eigenspaces with the exact
eigenvalues, in the canonical Young basis at every n.  The certificate reads
Q one (dim phi, dim phi) block at a time, as QMatrix.rows() yields it, so no
block forms the dense (n-1) dim phi square; QMatrix.entries forms it for
readers that ask.  A build holds nothing of factor size beside the factors:
while they form, one (dim phi, dim) buffer; while they are certified, one
coset row of Y Y^T and a few dim phi^2 blocks of Q and of their differences.

A block keeps no array: only the labels, their eigenvalues and the Gram
residual.  _factors, elementwise gathers free of BLAS, gives the same bits
on every call, so build_block derives the factors, certifies them and drops
them, and the generators B_a derive them again on first read, form the
products and drop them; the symmetric optimum reads the labels alone and
forms neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .symgroup import Partition, branch_up, partitions_of, young_orthogonal_rep

# Bytes that one computation may allocate.  Every large allocation in the
# package first predicts its size from its inputs and calls require_memory.
# A prediction charges what is held at once: the store that outlives the
# step, plus the largest transient formed beside it; require_memory adds
# 1 MiB for Python objects.
MEMORY_BUDGET = 2**31


class InconsistencyError(RuntimeError):
    """Numerical structure contradicts the expected algebraic one."""


def require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError if `what`, predicted to need nbytes plus 1 MiB, exceeds MEMORY_BUDGET."""
    nbytes += 2**20
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{what} would need about {nbytes / 2**20:.1f} MiB, more than the "
                         f"memory budget of {MEMORY_BUDGET / 2**20:g} MiB")


def _admissible(n: int, d: int, m: int) -> Iterator[Partition]:
    """Partitions of m with height <= d, canonical order, lazily."""
    if n < 3:
        raise ValueError(f"need n >= 3 (at least two clones plus reference), got {n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return partitions_of(m, d)


def admissible_N_irreps(n: int, d: int) -> list[Partition]:
    """Partitions of n-1 with height <= d, canonical order."""
    return list(_admissible(n, d, n - 1))


@dataclass(frozen=True)
class QMatrix:
    """Block matrix Q^{ab}_{ij} = d^{delta_ab} phi^alpha[(a,n-1)(a,b)(b,n-1)]_{ij}, by block rows.

    Row/column index is (a, i) -> (a-1)*dim_phi + i with a = 1..n-1.  rows()
    yields block row a from block column a on, block by block, which is all
    that the certificate in build_block reads; entries places each block at
    (a, b) and at (b, a) in the dense (n-1) dim_phi square on first read.
    """

    alpha: Partition
    n: int
    d: int

    @property
    def dim_phi(self) -> int:
        return self.alpha.dimension

    def rows(self) -> Iterator[Iterator[np.ndarray]]:
        """Block row a of Q from block column a on, one block at a time, for a = 1..n-1.

        Row a yields its (dim_phi, dim_phi) blocks (a, a), ..., (a, n-1), each
        formed as it is read: d I, then phi((a b)) for a < b < n-1, computed as
        phi((a, b+1)) = phi(s_b) phi((a b)) phi(s_b) by sparse gathers, then
        the block pairing a with the last coset, phi(s_1) (I at n = 3), one
        array shared by every row.
        """
        phi = young_orthogonal_rep(self.alpha)
        m = self.n - 1
        eye = np.eye(phi.dim)
        last = phi.left(1, eye) if self.n >= 4 else eye

        def row(a: int) -> Iterator[np.ndarray]:
            yield self.d * eye
            X = eye
            for b in range(a, m - 1):  # X = phi((a, b+1))
                X = phi.left(b, X) if b == a else phi.right(phi.left(b, X), b)
                yield X
            if a < m:
                yield last

        for a in range(1, m + 1):
            yield row(a)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense Q, block (b, a) = block (a, b); the package reads rows() instead."""
        m, w = self.n - 1, self.dim_phi
        Q = np.empty((m * w, m * w))
        blocks = Q.reshape(m, w, m, w)
        for a, row in enumerate(self.rows()):
            for b, block in enumerate(row, start=a):
                blocks[a, :, b] = blocks[b, :, a] = block
        return Q


def build_Q(alpha: Partition, n: int, d: int) -> QMatrix:
    """Q(alpha) from the Young orthogonal irrep phi of S(n-2), formed lazily.

    Block (a, b) is d^{delta_ab} phi^alpha[g_a^-1 (a b) g_b] with coset
    representatives g_a = (a, n-1).  The representative of the last coset is
    additionally twisted by the transposition (1 2) of S(n-2) whenever it
    exists (n >= 4): this is a pure gauge (it leaves the spectrum and all
    reduced-basis generator matrices unchanged) and makes the off-diagonal
    blocks for a != b equal to phi evaluated on odd permutations throughout,
    matching the sign convention of the published small-n matrices.

    Hence block (a, b) is phi((a b)) for a != b < n-1, and the blocks pairing
    a coset with the last one are phi(s_1) (I at n = 3).  The arguments are
    checked here; QMatrix.rows() forms the blocks one at a time, by block rows.
    """
    if alpha.size != n - 2:
        raise ValueError(f"{alpha} does not partition n-2 = {n - 2}")
    if alpha.height > d:
        raise ValueError(f"{alpha} has height {alpha.height} > d = {d}")
    return QMatrix(alpha, n, d)


def _added_box(alpha: Partition, nu: Partition) -> tuple[int, int]:
    """(row, column) of the box that nu = alpha + box adds."""
    i = next(i for i, p in enumerate(nu.parts) if i >= alpha.height or p > alpha.parts[i])
    return i, nu.parts[i] - 1


@dataclass(frozen=True)
class IrrepBlock:
    """One irreducible block of the ideal carrying partitions of n-2.

    labels are the kept branchings nu of alpha in branch_up order, with the
    exact eigenvalues d + c(nu/alpha) of Q(alpha), each of multiplicity
    dim psi^nu; gram_residual is max |Y Y^T - Q(alpha)| / d for the closed-form
    factor Y, which the block does not hold.  generators, one C-contiguous
    (n-1, dim, dim) array formed on first read, holds in generators[a-1] the
    image B_a = Y_a^T Y_a of the partially transposed transposition pairing
    clone a+1 with the reference; combine and fidelities read it.
    """

    alpha: Partition
    n: int
    d: int
    eigenvalues: tuple[float, ...]
    labels: tuple[Partition, ...]
    gram_residual: float
    dropped: Optional[Partition]

    @cached_property
    def dim(self) -> int:
        """Block dimension = rank Q(alpha) = sum of dim psi^nu over the kept nu."""
        return sum(nu.dimension for nu in self.labels)

    @property
    def dim_phi(self) -> int:
        return self.alpha.dimension

    @cached_property
    def generators(self) -> np.ndarray:
        """B_a = Y_a^T Y_a for a = 1..n-1, as general products.

        The factors are derived again by _factors, bit for bit the ones that
        build_block certified, and dropped once the store is formed.  NumPy
        sends Ya.T @ Ya to syrk, whose mirroring of the triangle costs more
        than the half product it saves; so each B_a is symmetric to rounding
        only.
        """
        generators = np.empty((self.n - 1, self.dim, self.dim))
        for Ya, B in zip(_factors(self.alpha, self.labels, self.eigenvalues), generators):
            np.matmul(np.ascontiguousarray(Ya.T), Ya, out=B)
        return generators

    def eigenvalues_full(self) -> np.ndarray:
        """Kept eigenvalues with multiplicity, descending."""
        return np.repeat(self.eigenvalues, [nu.dimension for nu in self.labels])

    def combine(self, W: np.ndarray) -> np.ndarray:
        """sum_a W[..., a] B_a: one dim x dim matrix for each row of W."""
        return np.tensordot(W, self.generators, axes=(-1, 0))

    def fidelities(self, states: np.ndarray) -> np.ndarray:
        """psi^T B_a psi / d for a = 1..n-1, along the last axis, for each row psi of states."""
        return np.einsum("...i,aij,...j->...a", states, self.generators, states) / self.d


def _factors(alpha: Partition, labels: Sequence[Partition],
             eigenvalues: Sequence[float]) -> np.ndarray:
    """The closed-form factors Y_a, untwisted, in factors[a-1] of one (n-1, dim_phi, dim) array.

    labels are the kept nu = alpha + box and eigenvalues their d + c(nu/alpha),
    in branch_up order.  Every step is an elementwise product or a gather, with
    no BLAS call, so the same block gives the same bits on every call.
    """
    m = alpha.size + 1
    phi = young_orthogonal_rep(alpha)
    w = phi.dim
    psis = [young_orthogonal_rep(nu) for nu in labels]
    spans = np.cumsum([0] + [psi.dim for psi in psis])
    # psi, the direct sum of the kept psi^nu, as one sparse form
    diag = np.hstack([psi.diag for psi in psis])
    off = np.hstack([psi.off for psi in psis])
    partner = np.hstack([psi.partner + start for psi, start in zip(psis, spans)])

    # Y_m has one entry per (T, nu), in column (nu, T + m).  The tableaux of nu
    # with m in the box nu/alpha are the T + m, in the order of the T.
    factors = np.zeros((m, w, spans[-1]))
    for psi, nu, lam, start in zip(psis, labels, eigenvalues, spans):
        grown = start + np.flatnonzero(psi.words[:, -1] == _added_box(alpha, nu)[0])
        factors[-1, np.arange(w), grown] = np.sqrt(lam * psi.dim / (m * w))
    # Y_a is written over factors[a-1] from factors[a] through one gathered copy
    buf = np.empty((w, spans[-1]))
    for a in range(m - 1, 0, -1):
        Y = factors[a - 1]
        np.take(factors[a], partner[a - 1], axis=1, out=buf, mode="clip")
        buf *= off[a - 1]
        np.multiply(factors[a], diag[a - 1], out=Y)
        Y += buf
        if a < m - 1:
            phi.left_in_place(a, Y, buf)
    return factors


def build_block(alpha: Partition, n: int, d: int) -> IrrepBlock:
    """Certify the closed-form factors Y_a and drop them; the block holds no array.

    The nu of height d + 1 carries eigenvalue 0 and is recorded as dropped.
    The factor from _factors is certified against build_Q, one coset a at a
    time: its rows R_a = Y_a [Y_a ... Y_{n-1}]^T of Y Y^T, one GEMM (whose
    rounding depends on its column count), are compared block by block, as
    QMatrix.rows() yields row a, with each block (a, b) of Q and with that
    block transposed, Q's block (b, a) read from its mirror.  No block forms
    the dense Q: beside the factors, one R_a and a few dim_phi^2 blocks of Q
    and of their differences are held at a time.  The certificate twists the
    last coset in place as in build_Q; the generators, formed on first read,
    derive the untwisted factors again.
    InconsistencyError is raised unless max |Y Y^T - Q(alpha)| <= 1e-8 d.
    """
    nus = branch_up(alpha)
    labels = [nu for nu in nus if nu.height <= d]
    dropped = next((nu for nu in nus if nu.height > d), None)
    eigenvalues = [float(d + col - row) for row, col in (_added_box(alpha, nu) for nu in labels)]
    factors = _factors(alpha, labels, eigenvalues)
    w, dim = factors.shape[1:]

    if n >= 4:
        young_orthogonal_rep(alpha).left_in_place(1, factors[-1], np.empty_like(factors[-1]))
    deviations, diff = [], np.empty((2, w, w))
    for a, row in enumerate(build_Q(alpha, n, d).rows()):
        R = factors[a] @ factors[a:].reshape(-1, dim).T
        for k, Q_ab in enumerate(row):
            np.subtract(R[:, k * w : (k + 1) * w], Q_ab, out=diff[0])
            np.subtract(R[:, k * w : (k + 1) * w], Q_ab.T, out=diff[1])
            deviations += [diff.max(), -diff.min()]
        del R  # before R_{a+1} forms
    gram_residual = float(np.max(deviations)) / d
    if not gram_residual <= 1e-8:
        raise InconsistencyError(
            f"Q({alpha}) at n={n}, d={d}: the closed-form factor misses Y Y^T = Q "
            f"by {gram_residual:.3g} d"
        )
    return IrrepBlock(
        alpha=alpha,
        n=n,
        d=d,
        eigenvalues=tuple(eigenvalues),
        labels=tuple(labels),
        gram_residual=gram_residual,
        dropped=dropped,
    )


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

    @property
    def generator_bytes(self) -> int:
        """Bytes of every block's n-1 generators, read from the block shapes, formed or not."""
        return sum(8 * (self.n - 1) * b.dim**2 for b in self.blocks)


def _block_shapes(n: int, d: int) -> Iterator[tuple[Partition, int, int]]:
    """(alpha, dim phi, dim) of each block of (n, d), read from its labels alone, lazily."""
    for alpha in _admissible(n, d, n - 2):
        yield alpha, alpha.dimension, sum(nu.dimension for nu in branch_up(alpha) if nu.height <= d)


def decompose(n: int, d: int) -> Decomposition:
    """All blocks for (n, d); ValueError, before any is built, past the memory budget."""
    # The store is every block's n-1 generators, which every reader but
    # symmetric_max forms.  The largest build holds its (n-1, dim_phi, dim)
    # factors beside one of: _factors' gathered slice or the generators' copy
    # of Y_a^T, dim_phi dim floats; or the certificate's first coset row of
    # Y Y^T, (n-1) dim_phi^2 floats, with Q's blocks, the temporaries of their
    # recursion and the differences, at most ten dim_phi^2 blocks by tracemalloc.
    # Partitions are read lazily, so a size far past the budget is refused at
    # its first blocks.
    m, store, build, alphas = n - 1, 0, 0, []
    for alpha, w, dim in _block_shapes(n, d):
        store += 8 * m * dim * dim
        build = max(build, 8 * (m * w * dim + max(w * dim, (m + 10) * w * w)))
        require_memory(store + build, f"decompose({n}, {d})")
        alphas.append(alpha)
    blocks = tuple(build_block(a, n, d) for a in alphas)
    return Decomposition(n, d, blocks, tuple(admissible_N_irreps(n, d)))


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
        "generators": block.generators.tolist(),
        "dropped": list(block.dropped.parts) if block.dropped else None,
    }


def require_json_memory(n: int, d: int) -> None:
    """ValueError if the irreps JSON of decompose(n, d) would pass the memory budget.

    The generators and their lists of Python floats peak at 5.2-5.8x the
    generators' bytes.  The price reads the block shapes from their labels,
    lazily, so it builds no block and refuses a size far past the budget at
    its first blocks; the JSON text is streamed, never held whole.
    """
    store = 0
    for _, _, dim in _block_shapes(n, d):
        store += 8 * (n - 1) * dim * dim
        require_memory(6 * store, f"the JSON text of decompose({n}, {d})")


def decomposition_to_dict(dec: Decomposition) -> dict:
    require_json_memory(dec.n, dec.d)
    return {
        "n": dec.n,
        "d": dec.d,
        "clone_count": dec.clone_count,
        "blocks": [block_to_dict(b) for b in dec.blocks],
        "n_irreps": [list(v.parts) for v in dec.n_irreps],
    }
