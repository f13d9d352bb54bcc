"""Integer partitions, permutations, and real-orthogonal irreps of symmetric groups.

Irreducible representations are realized in Young orthogonal form: generator
images for the adjacent transpositions s_i = (i, i+1) are built from axial
distances between standard tableaux, so every generator matrix is real,
symmetric and orthogonal.  Dimensions and hook lengths use exact integer
arithmetic; floating point enters only in the representation matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        if not parts:
            raise ValueError("empty partition")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def hook_lengths(self) -> list[list[int]]:
        """Hook length of every cell of the Young diagram."""
        parts = self.parts
        cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
        return [
            [(parts[i] - j - 1) + (cols[j] - i - 1) + 1 for j in range(parts[i])]
            for i in range(len(parts))
        ]

    @property
    def dimension(self) -> int:
        """Dimension of the associated symmetric-group irrep (hook length rule)."""
        prod = 1
        for row in self.hook_lengths():
            for h in row:
                prod *= h
        dim, rem = divmod(math.factorial(self.size), prod)
        assert rem == 0
        return dim

    def unitary_dimension(self, d: int) -> int:
        """Dimension s_alpha(1^d) of the U(d) irrep (hook content rule); 0 if height > d."""
        num = den = 1
        for i, row in enumerate(self.hook_lengths()):
            for j, h in enumerate(row):
                num *= d + j - i
                den *= h
        return num // den  # the cell (d, 0) contributes 0 when height > d

    def __repr__(self):
        return f"Partition{self.parts}"


def _rev_lex(m: int, cap: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        for rest in _rev_lex(m - first, first):
            yield (first,) + rest


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m in reverse-lexicographic (canonical) order."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return [Partition(p) for p in _rev_lex(m, m)]


def branch_up(alpha: Partition) -> list[Partition]:
    """Partitions of size(alpha)+1 obtained by adding a single box.

    Returned in canonical (reverse-lexicographic) order, i.e. addable rows
    from top to bottom; multiplicity-free.
    """
    parts = alpha.parts
    out = []
    for i in range(len(parts) + 1):
        if i == 0 or (i < len(parts) and parts[i] < parts[i - 1]):
            grown = parts[:i] + (parts[i] + 1,) + parts[i + 1:]
            out.append(Partition(grown))
        elif i == len(parts):
            out.append(Partition(parts + (1,)))
    return out


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..m} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(1, m + 1)))

    @staticmethod
    def transposition(a: int, b: int, m: int) -> "Permutation":
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValueError(f"transposition ({a} {b}) out of range 1..{m}")
        images = list(range(1, m + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(tuple(images))

    def fixes(self, i: int) -> bool:
        return self.images[i - 1] == i

    def restrict(self, m: int) -> "Permutation":
        """Restriction to {1..m}; requires all points above m to be fixed."""
        if any(not self.fixes(i) for i in range(m + 1, self.degree + 1)):
            raise ValueError(f"permutation moves a point above {m}")
        return Permutation(self.images[:m])

    def adjacent_word(self) -> list[int]:
        """Indices i_1,...,i_k with self = s_{i_1} ... s_{i_k} (bubble sort)."""
        w = list(self.images)
        swaps = []
        changed = True
        while changed:
            changed = False
            for j in range(len(w) - 1):
                if w[j] > w[j + 1]:
                    w[j], w[j + 1] = w[j + 1], w[j]
                    swaps.append(j + 1)
                    changed = True
        return swaps[::-1]


@dataclass(frozen=True)
class OrthogonalRep:
    """Young orthogonal form irrep of S(m) for m = size of the partition.

    `matrices[i-1]` is the image of the adjacent transposition s_i = (i, i+1);
    each is real symmetric orthogonal.
    """

    partition: Partition
    matrices: tuple[np.ndarray, ...]

    @property
    def degree(self) -> int:
        return self.partition.size

    @property
    def dim(self) -> int:
        return self.partition.dimension


def standard_tableaux(alpha: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """Standard Young tableaux of shape alpha, ordered by their row-index word."""
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


def _positions(tableau):
    pos = {}
    for r, row in enumerate(tableau):
        for c, entry in enumerate(row):
            pos[entry] = (r, c)
    return pos


@lru_cache(maxsize=None)
def young_orthogonal_rep(alpha: Partition) -> OrthogonalRep:
    """Young orthogonal form of the irrep of S(size alpha) labeled by alpha.

    The s_i image has diagonal entries 1/r with r the axial distance from i
    to i+1, and off-diagonal entries sqrt(1 - 1/r^2) connecting tableaux that
    differ by swapping i and i+1.
    """
    tableaux = standard_tableaux(alpha)
    index = {t: k for k, t in enumerate(tableaux)}
    dim = len(tableaux)
    assert dim == alpha.dimension
    m = alpha.size
    mats = []
    for i in range(1, m):
        M = np.zeros((dim, dim))
        for t, k in index.items():
            pos = _positions(t)
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
    return OrthogonalRep(alpha, tuple(mats))


def rep_matrix(rep: OrthogonalRep, sigma: Permutation) -> np.ndarray:
    """Image of sigma, via any adjacent-transposition word for sigma."""
    if sigma.degree != rep.degree:
        raise ValueError(
            f"permutation degree {sigma.degree} != rep degree {rep.degree}"
        )
    M = np.eye(rep.dim)
    for i in sigma.adjacent_word():
        M = M @ rep.matrices[i - 1]
    return M
