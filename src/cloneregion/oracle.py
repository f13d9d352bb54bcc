"""Brute-force ground truth on the full tensor space (C^d)^{x n}.

Dense permutation operators, partial transposition on the reference leg,
Choi states of isometry-induced cloning channels, and singlet fractions.
Everything here is independent of the representation-theoretic pipeline and
is used to certify it.

The spectrum certifier never forms a d^n x d^n matrix, nor any array of one
entry a state. sum_k w_k V^{t_1}(1k) is diagonalized on one representative
charge sector a colour orbit (see charge_orbits), whose eigenvalues count
once for each sector of the orbit. Mixed Schur-Weyl duality repeats block
alpha r(alpha) = s_alpha(1^d) times and leaves the rest of those sectors
zero, so one sorted comparison of two (value, multiplicity) lists certifies
the blocks, with nothing fitted. A Sector is read like an IrrepBlock, so
regions._stacked chunks both alike. Memory is bounded by the largest
representative sector (charge_orbits). A stack of directions is certified in
one pass that builds each representative sector's X_k once. Singlet
fractions of a pure state come from its vector, or from a sector's X_k.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import numpy.random  # NumPy 2 loads it lazily; load it with the package, not on first draw

from .algebra import Decomposition, InconsistencyError, require_memory
from .regions import _chunk_rows, _nonzero_directions, _stacked
from .symgroup import Permutation, partitions_of


@dataclass(frozen=True)
class DenseOperator:
    """Square matrix on (C^d)^{x n} with tensor-leg metadata."""

    matrix: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        dim = self.d**self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} != ({dim}, {dim}) for "
                f"n={self.n}, d={self.d}"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n


def perm_operator(sigma: Permutation, n: int, d: int) -> DenseOperator:
    """Unitary V(sigma) with V|i_1..i_n> = |i_{sigma^-1(1)} .. i_{sigma^-1(n)}>."""
    if sigma.degree != n:
        raise ValueError(f"permutation degree {sigma.degree} != n = {n}")
    dim = d**n
    require_memory(8 * dim * (dim + n + 2) + 2**20, f"a dense operator on (C^{d})^{n}")
    idx = np.arange(dim)
    digits = [(idx // d ** (n - 1 - leg)) % d for leg in range(n)]
    inv = sigma.inverse()
    tgt = np.zeros(dim, dtype=np.int64)
    for leg in range(n):  # output leg `leg+1` carries input leg sigma^-1(leg+1)
        tgt += digits[inv(leg + 1) - 1] * d ** (n - 1 - leg)
    V = np.zeros((dim, dim))
    V[tgt, idx] = 1.0
    return DenseOperator(V, n, d)


def pt_transposition(k: int, n: int, d: int) -> DenseOperator:
    """Partial transpose on leg 1 of the swap V((1 k)).

    Equals d times the projector onto the maximally entangled state of legs
    (1, k) tensored with identity on the rest; Hermitian, X^2 = d X.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    require_memory(8 * d**n * (2 * d**n + n + 2) + 2**20, f"a dense operator on (C^{d})^{n}")
    V = perm_operator(Permutation.transposition(1, k, n), n, d).matrix
    T = V.reshape([d] * (2 * n))
    T = np.swapaxes(T, 0, n)  # transpose output leg 1 with input leg 1
    return DenseOperator(T.reshape(d**n, d**n), n, d)


@dataclass(frozen=True)
class Sector:
    """A representative charge sector (see _sector), read like an IrrepBlock.

    entries[k-2] = (row, col): X_k has a 1 at (row[i, a], col[i, 0]) for every a.
    """

    states: np.ndarray
    entries: tuple[tuple[np.ndarray, np.ndarray], ...]
    d: int

    @property
    def dim(self) -> int:
        return self.states.size

    def combine(self, W: np.ndarray) -> np.ndarray:
        """sum_k W[..., k-2] X_k, added over k = 2..n in order: one dim x dim matrix a row of W."""
        M = np.zeros(W.shape[:-1] + (self.dim, self.dim))
        for (row, col), w in zip(self.entries, np.moveaxis(W, -1, 0)):
            M[..., row, col] += w[..., None, None]
        return M

    def fidelities(self, psi: np.ndarray) -> np.ndarray:
        """psi^T X_k psi / d for k = 2..n, along the last axis, for each row psi of states."""
        return np.stack([np.sum(psi[..., row] * psi[..., col], axis=(-2, -1))
                         for row, col in self.entries], axis=-1) / self.d


def _sector(parts: tuple[int, ...], n: int, d: int) -> Sector:
    """The representative sector of type `parts`: its states and the entries of its X_k.

    The states put colour c on leg 1 and an arrangement of q + {c} on legs
    2..n, q = (0^{parts_1}, 1^{parts_2}, ...), enumerated in ascending order by
    prefix extension, so |0..0> is state 0 of type (n - 2).  X_k has a 1 at
    (row[i, a], col[i]) for every a, in local indices, for k = 2..n in order.
    InconsistencyError if an entry joins two sectors.
    """
    states = np.arange(d)  # leg 1, then legs 2..n one at a time
    left = np.eye(d, dtype=np.int64) + np.pad(parts, (0, d - len(parts)))
    for _ in range(n - 1):
        prefix, colour = np.nonzero(left)
        states = states[prefix] * d + colour
        left = left[prefix]
        left[np.arange(colour.size), colour] -= 1
    first = states // d ** (n - 1)
    entries = []
    for k in range(2, n + 1):
        step = d ** (n - 1) + d ** (n - k)  # moves legs 1 and k together by one
        col = np.flatnonzero(first == states // d ** (n - k) % d)
        rows = (states[col] - first[col] * step)[:, None] + np.arange(d) * step
        row = np.minimum(np.searchsorted(states, rows), states.size - 1)
        if np.any(states[row] != rows):
            i, a = np.argwhere(states[row] != rows)[0]
            raise InconsistencyError(
                f"entry ({rows[i, a]}, {states[col[i]]}) joins two charge sectors")
        entries.append((row, col[:, None]))
    return Sector(states, tuple(entries), d)


def charge_orbits(n: int, d: int, held: int = 0) -> list[tuple]:
    """(lambda, orbit, size) of the representative charge sector of each type lambda.

    X_k = V^{t_1}(1k) sends |i> with i_1 = i_k to sum_a |i with legs 1 and k
    set to a>. Every X_k conserves q_c = #{legs 2..n equal to c} - [leg 1 = c].
    A sector with some q_c = -1 (leg 1's colour absent from legs 2..n) lies in
    the kernel of every X_k and is skipped; on the others q is the multiset of
    n - 2 colours left on legs 2..n after one copy of leg 1's colour is removed.
    A colour permutation P is a real permutation matrix, so P^{x n} commutes
    with every X_k and maps sector q onto sector P(q) with the same spectrum.
    One sector (_sector) therefore stands for each multiplicity type lambda of
    q, a partition of n - 2 with at most d parts, whose orbit holds
    d! / ((d - l(lambda))! prod_j m_j!) sectors (m_j parts equal to j) of
    `size` states.  The types come lazily from partitions_of(n - 2, d), and
    each sector is priced as it comes at the largest chunk regions._stacked
    forms for it, regions._chunk_rows(size) matrices, whatever the number of
    directions: the one prediction that bounds the oracle.  held bytes are
    charged beside each sector: full_vs_block_spectrum passes the blocks'
    generator store (Decomposition.generator_bytes), which a caller such as
    check holds while the sectors are built.  ValueError, naming type and
    size, at the first past the memory budget (larger ones may follow).
    """
    out = []
    for lam in partitions_of(n - 2, d):
        repeats = math.prod(map(math.factorial, Counter(lam.parts).values()))
        # the arrangements of q + {c}, summed over c: m = (n-1)!/prod_j lambda_j! for c not in q,
        # (n-1) times a multinomial of n - 2 as exact binomials
        m = (n - 1) * math.prod(map(math.comb, accumulate(lam.parts), lam.parts))
        size = sum(m // (p + 1) for p in lam.parts) + (d - lam.height) * m
        # the matrices of one chunk, eigvalsh's copy and its workspace; the
        # enumeration, and the entries of the n - 1 X_k
        require_memory(held + 24 * _chunk_rows(size) * size**2
                       + 8 * size * (8 * (n + d) + (n - 1) * (d + 1)) + 2**20,
                       f"the charge sectors of (C^{d})^{n}, at the sector of type {lam.parts} "
                       f"and size {size} (larger ones may follow),")
        out.append((lam, math.perm(d, lam.height) // repeats, size))
    kept = d * (d ** (n - 1) - (d - 1) ** (n - 1))  # the states with leg 1's colour on legs 2..n
    if (covered := sum(orbit * size for _, orbit, size in out)) != kept:
        raise InconsistencyError(f"the charge orbits cover {covered} states, not {kept}")
    return out


def _ptrace_to(rho: np.ndarray, keep: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Partial trace keeping the 1-based legs in `keep` (in the given order)."""
    T = rho.reshape([d] * (2 * n))
    legs = list(range(1, n + 1))
    # trace out one leg at a time, tracking remaining leg labels
    remaining = legs[:]
    for leg in legs:
        if leg in keep:
            continue
        pos = remaining.index(leg)
        m = len(remaining)
        T = np.trace(T, axis1=pos, axis2=m + pos)
        remaining.remove(leg)
    # reorder remaining legs to the requested order
    perm = [remaining.index(leg) for leg in keep]
    m = len(remaining)
    T = np.transpose(T, perm + [m + p for p in perm])
    dim = d ** len(keep)
    return T.reshape(dim, dim)


def max_entangled(d: int) -> np.ndarray:
    """|psi+> = (1/sqrt d) sum_i |ii>, unit norm."""
    v = np.zeros(d * d)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return v


@dataclass(frozen=True)
class ChannelSample:
    """Isometry C^d -> (C^d)^{x N} defining a cloning channel."""

    isometry: np.ndarray
    d: int
    N: int


def _box_muller(rng_uniform: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs; count = len(rng_uniform)."""
    u = rng_uniform.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(u[:, 0]))
    return np.concatenate([r * np.cos(2 * np.pi * u[:, 1]), r * np.sin(2 * np.pi * u[:, 1])])


def haar_isometry(d: int, N: int, seed: int) -> ChannelSample:
    """Haar-random isometry C^d -> (C^d)^{x N}, deterministic in seed.

    Complex Gaussian entries via PCG64 uniforms through Box-Muller, then QR
    with positive R diagonal; bit-reproducible for a fixed seed.
    """
    rows = d**N  # 144 bytes an entry: uniforms, normals, G, its QR and W
    require_memory(144 * rows * d + 2**20, f"a Haar isometry C^{d} -> (C^{d})^{N}")
    rng = np.random.Generator(np.random.PCG64(seed))
    count = rows * d
    u = rng.random(4 * count)
    u = np.clip(u, np.finfo(float).tiny, 1.0)
    normals = _box_muller(u)
    G = (normals[:count] + 1j * normals[count : 2 * count]).reshape(rows, d)
    Q, R = np.linalg.qr(G)
    phases = np.diag(R) / np.abs(np.diag(R))
    W = Q * phases.conj()
    return ChannelSample(W, d, N)


def choi_state(ch: ChannelSample) -> DenseOperator:
    """rho = (1 x Lambda)(|psi+><psi+|) with Lambda(X) = W X W^dagger."""
    d, N = ch.d, ch.N
    v = ch.isometry.T.reshape(-1) / np.sqrt(d)  # (1 x W)|psi+>
    rho = np.outer(v, v.conj())
    return DenseOperator(rho, N + 1, d)


def singlet_fractions(rho: DenseOperator) -> np.ndarray:
    """F_1k = <psi+| tr_{not 1,k} rho |psi+> for k = 2..n."""
    n, d = rho.n, rho.d
    psi = max_entangled(d)
    out = np.empty(n - 1)
    for k in range(2, n + 1):
        r1k = _ptrace_to(rho.matrix, (1, k), n, d)
        out[k - 2] = np.real(psi @ r1k @ psi)
    return out


def vector_singlet_fractions(v: np.ndarray, n: int, d: int) -> np.ndarray:
    """F_1k = sum_rest |sum_a v[a, .., a (at leg k), ..]|^2 / d for a unit vector v.

    Equals singlet_fractions of the pure state |v><v| on (C^d)^{x n} without
    forming it: O(n d^n) work and no d^n x d^n array.
    """
    T = np.asarray(v).reshape([d] * n)
    return np.array([
        np.sum(np.abs(np.trace(T, axis1=0, axis2=k - 1)) ** 2) / d for k in range(2, n + 1)
    ])


def clone_fidelity_from_singlet(F: float, d: int) -> float:
    """Average clone fidelity f = (F d + 1)/(d + 1) from a singlet fraction."""
    if not -1e-12 <= F <= 1 + 1e-12:
        raise ValueError(f"singlet fraction must be in [0, 1], got {F}")
    return (F * d + 1.0) / (d + 1.0)


def singlet_from_clone_fidelity(f: float, d: int) -> float:
    """Singlet fraction F = (f (d + 1) - 1)/d from an average clone fidelity."""
    if not 1.0 / (d + 1.0) - 1e-12 <= f <= 1 + 1e-12:
        raise ValueError(f"clone fidelity must be in [1/(d+1), 1], got {f}")
    return (f * (d + 1.0) - 1.0) / d


def special_states(kind: str, n: int, d: int, j: int | None = None) -> DenseOperator:
    """Named validation states, all with maximally mixed reference marginal.

    classical_clone:      (1/d) sum_i (|i><i|)^{x n}
    constant:             (1/d^n) identity (channel outputs I/d^{n-1})
    perfect_to_clone_j:   input routed to clone j, |0> elsewhere
    """
    dim = d**n
    if kind == "classical_clone":
        rho = np.zeros((dim, dim))
        step = (dim - 1) // (d - 1) if d > 1 else 1  # index of |i..i>
        for i in range(d):
            rho[i * step, i * step] = 1.0 / d
        return DenseOperator(rho, n, d)
    if kind == "constant":
        return DenseOperator(np.eye(dim) / dim, n, d)
    if kind == "perfect_to_clone_j":
        if j is None or not 2 <= j <= n:
            raise ValueError(f"need clone index j in 2..{n}")
        N = n - 1
        W = np.zeros((d**N, d), dtype=complex)
        for i in range(d):
            W[i * d ** (n - j), i] = 1.0  # |i> at clone j, |0> on other clones
        return choi_state(ChannelSample(W, d, N))
    raise ValueError(f"unknown special state kind: {kind!r}")


@dataclass
class SpectrumReport:
    """Full-space spectrum in one direction w, checked against the one the blocks predict."""

    w: np.ndarray
    full: tuple[np.ndarray, np.ndarray]  # (ascending eigenvalues, multiplicities): np.repeat(*full)
    r: dict
    max_abs_gap: float
    sectors: tuple[int, int]  # representative charge sectors diagonalized, sectors they stand for


def _spectrum(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.repeat(values, counts), sorted, as (ascending values, their counts)."""
    order = np.argsort(values)
    return values[order], counts[order]


def _max_gap(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """max_j |A_j - B_j| of A = np.repeat(*a), B = np.repeat(*b), read at the steps of either."""
    ends_a, ends_b = np.cumsum(a[1]), np.cumsum(b[1])
    # one past the last index of each step of either; a step of count 0 ends
    # where the one before it does, or at 0, before any state, if it comes first
    ends = np.maximum(np.concatenate((ends_a, ends_b)), 1)
    at_a, at_b = np.searchsorted(ends_a, ends), np.searchsorted(ends_b, ends)
    return float(np.max(np.abs(a[0][at_a] - b[0][at_b]), initial=0.0))


def full_vs_block_spectrum(dec: Decomposition, W: np.ndarray):
    """Certify the block decomposition along direction W, or along each row of a stack W.

    Diagonalizes sum_k W[r, k-2] V^{t_1}(1k) one representative charge sector
    a colour orbit, each priced by charge_orbits whatever the number of rows
    and beside the blocks' generator store, enumerated once and read by
    regions._stacked like a block, each eigenvalue counted `orbit` times.
    The blocks predict those of sum_k W[r, k-2] B_{k-1} in block alpha,
    counted r(alpha) = s_alpha(1^d) times, and zero on the kept states left
    over.  max_abs_gap compares the sorted spectra entry by entry, from their
    (value, count) lists.  One SpectrumReport for W of shape (n - 1,), a list
    for (k, n - 1); any other shape, or a zero row, is a ValueError
    (regions._nonzero_directions).
    """
    n, d = dec.n, dec.d
    rows = _nonzero_directions(W, n - 1)

    orbits, spectra = [], []  # a representative sector's orbit, and its eigenvalues a row
    for lam, orbit, s in charge_orbits(n, d, dec.generator_bytes):
        sector = _sector(lam.parts, n, d)
        if sector.dim != s:
            raise InconsistencyError(f"sector {lam.parts} holds {sector.dim} states, not {s}")
        orbits.append(orbit)
        spectra.append(_stacked(sector, rows, np.linalg.eigvalsh))
    r = {b.alpha: b.alpha.unitary_dimension(d) for b in dec.blocks}
    full_counts = np.repeat(orbits, [e.shape[1] for e in spectra])
    block_counts = np.repeat([r[b.alpha] for b in dec.blocks], [b.dim for b in dec.blocks])
    kept, held = int(full_counts.sum()), int(block_counts.sum())
    if held > kept:
        raise InconsistencyError(f"blocks hold {held} states, the kept sectors only {kept}")
    block_counts = np.append(block_counts, kept - held)  # zero on the kept states left over
    block_values = np.hstack([_stacked(b, rows, np.linalg.eigvalsh) for b in dec.blocks]
                             + [np.zeros((len(rows), 1))])
    reports = []
    for w, values, predicted in zip(rows, np.hstack(spectra), block_values):
        full = _spectrum(values, full_counts)
        gap = _max_gap(full, _spectrum(predicted, block_counts))
        reports.append(SpectrumReport(w, full, r, gap, (len(orbits), sum(orbits))))
    return reports if np.ndim(W) == 2 else reports[0]
