"""Independent reference constructions for the vectorised and closed-form code.

Irrep dimensions come from the hook length formula and the hook content rule
(hook_dimension, hook_content_dimension), where the package uses Frobenius'
and Weyl's formulas as binomials.  The Young orthogonal form is built tableau
by tableau with Python loops, Q(alpha) from Permutation words multiplied out
densely, and each block by eigendecomposing Q(alpha) and labeling its
eigenvectors with the predicted spectrum d + c(nu/alpha).
None of this calls the package's Young form, build_Q or build_block.

Three earlier implementations stay here as bit-for-bit references for the
ones that replaced them: the Young form with its tableau words grown a letter
at a time over all prefixes (prefix_orthogonal_rep), the factor recursion
that allocates each step anew (allocating_factors) and the certificate that
differences whole strips (whole_strip_residual).  The last two read the
package's Young form, and the certificate reads its strips of Q from
QMatrix.entries.

The oracle's charge sectors are enumerated all at once from index arithmetic
over every basis state (all_sector_blocks), where the package diagonalizes one
representative sector a colour orbit.  The gap between two spectra is read
from their expansions to one float a state (expanded_gap), where the package
reads it from (value, count) lists.

The block maps are written one generator at a time: sum_k w_k B_k
(loop_combine), the fidelity vector psi^T B_k psi / d (loop_fidelities) and
the block support (loop_block_support), where the package contracts the
(n-1, dim, dim) generator array in IrrepBlock.combine and IrrepBlock.fidelities.

Also here, because only tests use them: the published generator matrices for
n = 3 and n = 4 (reference_fixtures), a basis-independent comparison of
generator families (blocks_equivalent), the clone-indexed generator lookup
(clone_observable) and the width of the block region along a direction
(axis_width).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from cloneregion.algebra import (
    MEMORY_BUDGET, Decomposition, InconsistencyError, IrrepBlock, _added_box, build_Q,
    require_memory,
)
from cloneregion.regions import block_support
from cloneregion.symgroup import (
    OrthogonalRep, Partition, Permutation, branch_up, young_orthogonal_rep,
)


def loop_standard_tableaux(alpha: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """Standard tableaux of shape alpha by recursive filling, in row-word order."""
    parts = alpha.parts
    m = alpha.size
    out = []

    def fill(k, rows, counts):
        if k > m:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(parts)):
            if counts[r] < parts[r] and (r == 0 or counts[r] < counts[r - 1]):
                rows[r].append(k)
                counts[r] += 1
                fill(k + 1, rows, counts)
                rows[r].pop()
                counts[r] -= 1

    fill(1, [[] for _ in parts], [0] * len(parts))
    return out


def loop_hook_lengths(alpha: Partition) -> list[list[int]]:
    """Hook length of every cell of the Young diagram, row by row."""
    parts = alpha.parts
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    return [[(parts[i] - j - 1) + (cols[j] - i - 1) + 1 for j in range(parts[i])]
            for i in range(len(parts))]


def hook_dimension(alpha: Partition) -> int:
    """dim of the S(n) irrep alpha by the hook length formula, n! / prod of hooks."""
    hooks = math.prod(h for row in loop_hook_lengths(alpha) for h in row)
    dim, rem = divmod(math.factorial(alpha.size), hooks)
    assert rem == 0
    return dim


def hook_content_dimension(alpha: Partition, d: int) -> int:
    """dim of the U(d) irrep alpha by the hook content rule, prod (d + c) / prod of hooks."""
    num = den = 1
    for i, row in enumerate(loop_hook_lengths(alpha)):
        for j, h in enumerate(row):
            num *= d + j - i
            den *= h
    return num // den  # the cell (d, 0) contributes 0 when height > d


def loop_young_matrices(alpha: Partition) -> list[np.ndarray]:
    """Dense images of s_1..s_{m-1} in Young orthogonal form, entry by entry."""
    tableaux = loop_standard_tableaux(alpha)
    index = {t: k for k, t in enumerate(tableaux)}
    dim = len(tableaux)
    mats = []
    for i in range(1, alpha.size):
        M = np.zeros((dim, dim))
        for t, k in index.items():
            pos = {e: (r, c) for r, row in enumerate(t) for c, e in enumerate(row)}
            (r1, c1), (r2, c2) = pos[i], pos[i + 1]
            axial = (c2 - r2) - (c1 - r1)
            M[k, k] = 1.0 / axial
            if abs(axial) >= 2:
                swapped = tuple(
                    tuple(i + 1 if e == i else i if e == i + 1 else e for e in row)
                    for row in t
                )
                M[index[swapped], k] = math.sqrt(1.0 - 1.0 / axial**2)
        mats.append(M)
    return mats


def reference_Q(alpha: Partition, n: int, d: int) -> np.ndarray:
    """Q(alpha): block (a, b) is d^{delta_ab} phi[g_a (a b) g_b], g_a = (a, n-1).

    The last coset's representative is (1 2) for n >= 4, the same gauge as
    algebra.build_Q.
    """
    mats = loop_young_matrices(alpha)
    w = len(loop_standard_tableaux(alpha))
    m = n - 1

    def coset(a):
        if a == m and n >= 4:
            return Permutation.transposition(1, 2, m)
        return Permutation.transposition(a, m, m)

    Q = np.zeros((m * w, m * w))
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            word = coset(a).compose(Permutation.transposition(a, b, m)).compose(coset(b))
            block = np.eye(w)
            for i in word.restrict(n - 2).adjacent_word():
                block = block @ mats[i - 1]
            Q[(a - 1) * w : a * w, (b - 1) * w : b * w] = d * block if a == b else block
    return Q


def eigh_block(alpha: Partition, n: int, d: int):
    """(eigenvalues, labels, generators) from eigh of Q(alpha).

    The descending eigenvectors are sliced by dim psi^nu in branch_up order
    and labeled d + c(nu/alpha); the nu of height d + 1 (eigenvalue 0) is
    dropped. B_a = Y_a^T Y_a with Y_a the coset-a rows of Z sqrt(L).
    """
    vals, vecs = np.linalg.eigh(reference_Q(alpha, n, d))
    vecs = vecs[:, ::-1]
    nus = branch_up(alpha)
    dims = [nu.dimension for nu in nus]
    eigenvalues, labels, kept = [], [], []
    for nu, cols in zip(nus, np.split(vecs, np.cumsum(dims)[:-1], axis=1)):
        row = next(i for i, p in enumerate(nu.parts) if i >= alpha.height or p > alpha.parts[i])
        if nu.height > d:
            continue
        eigenvalues.append(float(d + nu.parts[row] - 1 - row))
        labels.append(nu)
        kept.append(cols)
    Y = np.hstack(kept) * np.sqrt(np.repeat(eigenvalues, [nu.dimension for nu in labels]))
    w = alpha.dimension
    generators = [Y[a * w : (a + 1) * w].T @ Y[a * w : (a + 1) * w] for a in range(n - 1)]
    return eigenvalues, labels, generators


def prefix_orthogonal_rep(alpha: Partition) -> OrthogonalRep:
    """The Young orthogonal form with the row words grown one letter at a time.

    np.nonzero enumerates the extensions of every prefix by (prefix, row),
    which keeps the words in lexicographic order, and a letter's column is its
    row's count before it.  Uncached; the rest is young_orthogonal_rep's.
    """
    parts = np.array(alpha.parts)
    words = cols = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((1, len(parts)), dtype=np.int64)
    for _ in range(alpha.size):
        room = counts < parts
        room[:, 1:] &= counts[:, 1:] < counts[:, :-1]
        prefix, row = np.nonzero(room)
        counts = counts[prefix]
        grown = np.arange(len(row)), row
        words = np.hstack([words[prefix], row[:, None]])
        cols = np.hstack([cols[prefix], counts[grown][:, None]])
        counts[grown] += 1
    dim, m = words.shape
    contents = cols - words
    axial = (contents[:, 1:] - contents[:, :-1]).T
    place = alpha.height ** np.arange(m - 1, -1, -1, dtype=np.int64)
    codes = words @ place
    delta = (words[:, 1:] - words[:, :-1]) * (place[:-1] - place[1:])
    swapped = np.searchsorted(codes, (codes[:, None] + delta).T)
    partner = np.where(np.abs(axial) >= 2, swapped, np.arange(dim))
    return OrthogonalRep(alpha, words, 1.0 / axial, partner, np.sqrt(1.0 - 1.0 / axial**2))


def allocating_factors(alpha: Partition, labels: Sequence[Partition],
                       eigenvalues: Sequence[float]) -> np.ndarray:
    """The untwisted factors Y_a in factors[a-1], each step formed in new arrays.

    Y_m from the grown tableaux, then Y_a = phi(s_a) Y_{a+1} psi(s_a) with
    OrthogonalRep.left and a gather of psi's columns.
    """
    m = alpha.size + 1
    phi = young_orthogonal_rep(alpha)
    w = phi.dim
    psis = [young_orthogonal_rep(nu) for nu in labels]
    spans = np.cumsum([0] + [psi.dim for psi in psis])
    diag = np.hstack([psi.diag for psi in psis])
    off = np.hstack([psi.off for psi in psis])
    partner = np.hstack([psi.partner + start for psi, start in zip(psis, spans)])
    factors = np.zeros((m, w, spans[-1]))
    for psi, nu, lam, start in zip(psis, labels, eigenvalues, spans):
        grown = start + np.flatnonzero(psi.words[:, -1] == _added_box(alpha, nu)[0])
        factors[-1, np.arange(w), grown] = np.sqrt(lam * psi.dim / (m * w))
    for a in range(m - 1, 0, -1):
        Y = factors[a] * diag[a - 1] + factors[a][:, partner[a - 1]] * off[a - 1]
        factors[a - 1] = phi.left(a, Y) if a < m - 1 else Y
    return factors


def whole_strip_residual(alpha: Partition, n: int, d: int, factors: np.ndarray) -> float:
    """max |Y Y^T - Q(alpha)| / d, each coset row against its whole strip and its mirror.

    factors are the untwisted ones; a copy of the last coset is twisted by
    phi(s_1) for n >= 4.  Strip a, block row a of the dense Q from block column
    a on, is read from QMatrix.entries, and each difference is formed whole.
    """
    factors = factors.copy()
    w, dim = factors.shape[1:]
    if n >= 4:
        factors[-1] = young_orthogonal_rep(alpha).left(1, factors[-1])
    Q = build_Q(alpha, n, d).entries
    deviations = []
    for a in range(n - 1):
        strip = Q[a * w : (a + 1) * w, a * w :]
        R = factors[a] @ factors[a:].reshape(-1, dim).T
        D = R - strip
        deviations += [D.max(), -D.min()]
        blocks = strip.reshape(len(strip), -1, len(strip))
        np.subtract(R.reshape(blocks.shape), blocks.T, out=D.reshape(blocks.shape))
        deviations += [D.max(), -D.min()]
    return float(np.max(deviations)) / d


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


def clone_observable(block: IrrepBlock, k: int) -> np.ndarray:
    """Fidelity observable for clone k: the image of the transposition (k-1, n)."""
    if not 2 <= k <= block.n:
        raise ValueError(f"clone index k must be in 2..{block.n}, got {k}")
    return block.generators[k - 2]


def loop_combine(block: IrrepBlock, w: np.ndarray) -> np.ndarray:
    """sum_k w_k B_k, accumulated one generator at a time."""
    M = np.zeros((block.dim, block.dim))
    for x, B in zip(w, block.generators):
        M += x * B
    return M


def loop_fidelities(block: IrrepBlock, psi: np.ndarray) -> np.ndarray:
    """(psi^T B_1 psi, ..., psi^T B_{n-1} psi) / d, one generator at a time."""
    return np.array([psi @ B @ psi for B in block.generators]) / block.d


def loop_block_support(dec: Decomposition, w: np.ndarray) -> float:
    """max over blocks of lambda_max(loop_combine(block, w)) / d."""
    return max(np.linalg.eigvalsh(loop_combine(b, w))[-1] for b in dec.blocks) / dec.d


def axis_width(dec: Decomposition, u: np.ndarray) -> float:
    """Width of the block part of the region along the unit direction u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    return block_support(dec, u) + block_support(dec, -u)


def all_sector_blocks(w: np.ndarray, n: int, d: int):
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
    index_bytes = 8 * d**n * (10 * n + 16)
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


def expanded_gap(full, predicted) -> float:
    """max_j |A_j - B_j| of the sorted arrays A = np.repeat(*full), B = np.repeat(*predicted).

    Each side is (values, counts) in any order, zero counts allowed; both are
    expanded to one float a state, sorted and compared index by index.
    ValueError unless they hold the same number of states.
    """
    A, B = np.sort(np.repeat(*full)), np.sort(np.repeat(*predicted))
    if A.size != B.size:
        raise ValueError(f"{A.size} states against {B.size}")
    return float(np.max(np.abs(A - B), initial=0.0))
