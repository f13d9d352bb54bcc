"""Independent reference constructions for the vectorised and closed-form code.

The Young orthogonal form is built tableau by tableau with Python loops, Q(alpha)
from Permutation words multiplied out densely, and each block by eigendecomposing
Q(alpha) and labeling its eigenvectors with the predicted spectrum d + c(nu/alpha).
None of this calls the package's Young form, build_Q or build_block.
"""

from __future__ import annotations

import math

import numpy as np

from cloneregion.symgroup import Partition, Permutation, branch_up


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
