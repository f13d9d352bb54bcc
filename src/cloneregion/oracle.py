"""Brute-force ground truth on the full tensor space (C^d)^{x n}.

Dense permutation operators, partial transposition on the reference leg,
Choi states of isometry-induced cloning channels, and singlet fractions.
Everything here is independent of the representation-theoretic pipeline and
is used to certify it.

The spectrum certifier never forms a d^n x d^n matrix. Every
X_k = V^{t_1}(1k) conserves, for each colour c, the charge
q_c = #{legs 2..n equal to c} - [leg 1 = c], so sum_k w_k X_k is built from
index arithmetic one charge sector at a time and each sector is diagonalized
densely, the index arrays and the largest batch of sectors within the
memory budget. Mixed Schur-Weyl duality repeats block alpha
r(alpha) = s_alpha(1^d) times and leaves the rest of those sectors zero, so
one sorted comparison certifies the blocks, with nothing fitted. Singlet
fractions of a pure state come from its vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # NumPy 2 loads it lazily; load it with the package, not on first draw

from .algebra import MEMORY_BUDGET, Decomposition, InconsistencyError, require_memory
from .symgroup import Permutation


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


def sector_blocks(w: np.ndarray, n: int, d: int):
    """Yield (indices, blocks) of sum_k w_{k-2} V^{t_1}(1k), one charge sector a block.

    X_k = V^{t_1}(1k) sends |i> with i_1 = i_k to sum_a |i with legs 1 and k
    set to a>, so the sum has (n-1) d^n nonzero entries and no d^n x d^n array
    is needed. Every X_k conserves q_c = #{legs 2..n equal to c} - [leg 1 = c].
    A sector with some q_c = -1 (leg 1's colour absent from legs 2..n) lies in
    the kernel of every X_k and is skipped; on the others q is the multiset of
    n - 2 colours left on legs 2..n after one copy of leg 1's colour is removed.

    `indices` (m, s) holds the ascending basis indices of m sectors of size s and
    `blocks` (m, s, s) their dense blocks; sectors come by increasing size, at
    most MEMORY_BUDGET // 128 block entries at a time unless one sector holds
    more. Raises ValueError, before allocating them, when the index arrays or
    the largest batch would pass the memory budget, and InconsistencyError if
    an entry joins two sectors.
    """
    # digits, the (n-1) d^n entries and their sorted copies: 10 n + 16 words a state
    index_bytes = 8 * d**n * (10 * n + 16) + 2**20
    require_memory(index_bytes, f"the charge sectors of (C^{d})^{n}")
    w = np.asarray(w, dtype=float)
    idx = np.arange(d**n)
    digits = (idx[:, None] // d ** np.arange(n - 1, -1, -1)) % d

    rest = digits[:, 1:].copy()
    hit = rest == digits[:, :1]
    rest[idx, hit.argmax(axis=1)] = d  # out of range, so it sorts last and is dropped
    rest.sort(axis=1)
    states = np.flatnonzero(hit.any(axis=1))
    charge = rest[states, :-1] @ d ** np.arange(n - 3, -1, -1)
    _, sector, sizes = np.unique(charge, return_inverse=True, return_counts=True)
    # the largest batch holds max(batch, s_max^2) entries, and no more than all
    # sectors together; it is counted thrice: bincount, its result, a LAPACK copy
    batch = MEMORY_BUDGET // 128
    largest = min(max(batch, int(sizes.max()) ** 2), int(np.sum(sizes**2)))
    require_memory(index_bytes + 24 * largest, f"charge sectors up to size {sizes.max()}")

    # renumber sectors by size and lay their states out contiguously
    by_size = np.argsort(sizes, kind="stable")
    sizes = sizes[by_size]
    sector = np.argsort(by_size)[sector.reshape(-1)]
    order = np.argsort(sector, kind="stable")
    states, sector = states[order], sector[order]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    sector_of = np.full(d**n, -1)
    sector_of[states] = sector
    local_of = np.zeros(d**n, dtype=np.int64)
    local_of[states] = np.arange(states.size) - starts[sector]

    rows, cols, vals = [], [], []
    for k in range(2, n + 1):
        step = d ** (n - 1) + d ** (n - k)  # moves legs 1 and k together by one
        col = idx[digits[:, 0] == digits[:, k - 1]]
        base = col - digits[col, 0] * step
        rows.append((base[:, None] + np.arange(d) * step).reshape(-1))
        cols.append(np.repeat(col, d))
        vals.append(np.full(col.size * d, w[k - 2]))
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    entry_sector = sector_of[rows]
    crossing = entry_sector != sector_of[cols]
    if np.any(crossing):
        r, c = rows[crossing][0], cols[crossing][0]
        raise InconsistencyError(f"entry ({r}, {c}) joins two charge sectors")
    order = np.argsort(entry_sector, kind="stable")
    entry_sector, rows, cols, vals = entry_sector[order], rows[order], cols[order], vals[order]

    first = 0
    while first < sizes.size:
        s = int(sizes[first])
        same = first + int(np.searchsorted(sizes[first:], s, side="right"))
        last = min(same, first + max(1, batch // s**2))
        lo, hi = np.searchsorted(entry_sector, [first, last])
        flat = (entry_sector[lo:hi] - first) * s + local_of[rows[lo:hi]]
        flat = flat * s + local_of[cols[lo:hi]]
        blocks = np.bincount(flat, weights=vals[lo:hi], minlength=(last - first) * s * s)
        yield (states[starts[first] : starts[last]].reshape(-1, s),
               blocks.reshape(-1, s, s))
        first = last


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
    """Isometry C^d -> (C^d)^{x N} defining a cloning channel, plus its seed."""

    isometry: np.ndarray
    seed: int
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
    return ChannelSample(W, seed, d, N)


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
        return choi_state(ChannelSample(W, -1, d, N))
    raise ValueError(f"unknown special state kind: {kind!r}")


@dataclass
class SpectrumReport:
    """Full-space spectrum in one direction w against the one the blocks predict."""

    w: np.ndarray
    full: np.ndarray
    predicted: np.ndarray
    r: dict
    max_abs_gap: float


def full_vs_block_spectrum(dec: Decomposition, w: np.ndarray) -> SpectrumReport:
    """Certify the block decomposition along direction w.

    Diagonalizes sum_k w_{k-1} V^{t_1}(1k) on (C^d)^{x n} one charge sector at
    a time (see sector_blocks; ValueError past the memory budget) and compares the
    sorted result with the blocks' prediction: the spectrum of
    sum_k w_{k-1} B_{k-1} in block alpha, repeated r(alpha) = s_alpha(1^d)
    times, padded with zeros.
    """
    n, d = dec.n, dec.d
    w = np.asarray(w, dtype=float)
    if w.shape != (n - 1,) or not np.any(w):
        raise ValueError(f"need a nonzero direction of length {n - 1}")

    full = np.sort(np.concatenate(
        [np.linalg.eigvalsh(blocks).reshape(-1) for _, blocks in sector_blocks(w, n, d)]
    ))
    r = {b.alpha: b.alpha.unitary_dimension(d) for b in dec.blocks}
    predicted = np.concatenate([
        np.tile(np.linalg.eigvalsh(sum(x * B for x, B in zip(w, b.generators))), r[b.alpha])
        for b in dec.blocks
    ])
    if predicted.size > full.size:
        raise InconsistencyError(
            f"blocks hold {predicted.size} states, the kept sectors only {full.size}"
        )
    predicted = np.sort(np.concatenate([predicted, np.zeros(full.size - predicted.size)]))
    return SpectrumReport(
        w=w, full=full, predicted=predicted, r=r,
        max_abs_gap=float(np.max(np.abs(full - predicted), initial=0.0)),
    )
