"""Integer partitions, permutations, and real-orthogonal irreps of symmetric groups.

Irreducible representations are realized in Young orthogonal form: generator
images for the adjacent transpositions s_i = (i, i+1) are built from axial
distances between standard tableaux, so every generator matrix is real,
symmetric and orthogonal, and applied by sparse gathers.  Dimensions use
exact integer binomials; floating point enters only in the representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

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

    @property
    def _shifted(self) -> tuple[list[int], int]:
        """The shifted parts l_i = lambda_i + k - 1 - i (k parts) and prod_{i<j} (l_i - l_j)."""
        k = self.height
        l = [p + k - 1 - i for i, p in enumerate(self.parts)]
        return l, math.prod(a - b for i, a in enumerate(l) for b in l[i + 1:])

    @property
    def dimension(self) -> int:
        """Dimension of the associated symmetric-group irrep (Frobenius' formula).

        n! prod_{i<j} (l_i - l_j) / prod_i l_i!, where n! / prod_i l_i! is the
        multinomial (sum l)! / prod_i l_i!, a product of binomials, over
        (n + 1) ... (sum l), and sum l = n + k(k-1)/2.  So a one- or two-row
        shape of any size costs microseconds.
        """
        l, vandermonde = self._shifted
        multinomial = math.prod(map(math.comb, accumulate(l), l))
        return vandermonde * multinomial // math.perm(sum(l), len(l) * (len(l) - 1) // 2)

    def unitary_dimension(self, d: int) -> int:
        """Dimension s_alpha(1^d) of the U(d) irrep (Weyl's formula); 0 if height > d.

        prod_{i<j} (l_i - l_j) / (j - i) over alpha padded to d parts.  With the
        k <= d shifted parts l_i above, this is prod_{i<j<k} (l_i - l_j) times
        prod_{i<k} C(l_i + d - k, l_i) (d-k)! / (d-1-i)!, in exact integers.
        """
        k = self.height
        if k > d:
            return 0
        l, vandermonde = self._shifted
        num = vandermonde * math.prod(math.comb(x + d - k, x) for x in l)
        return num // math.prod(math.perm(d - 1 - i, k - 1 - i) for i in range(k))

    def __repr__(self):
        return f"Partition{self.parts}"


def _rev_lex(m: int, cap: int, parts: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        if first * parts < m:  # `parts` parts of at most `first` fall short, so smaller ones do
            return
        for rest in _rev_lex(m - first, first, parts - 1):
            yield (first,) + rest


def partitions_of(m: int, max_parts: int | None = None) -> Iterator[Partition]:
    """The partitions of m in reverse-lexicographic (canonical) order, lazily.

    Only those of at most max_parts parts if given: the walk enters no branch
    that cannot fill m in that many, so its cost follows what it yields.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return map(Partition, _rev_lex(m, m, m if max_parts is None else max_parts))


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

    Basis vector k is the standard tableau whose row-index word is words[k].
    The image of s_i = (i, i+1) is stored sparsely in row i-1 of diag, partner
    and off: column k has diag[k] = 1/r on the diagonal (r the axial distance
    from i to i+1) and off[k] = sqrt(1 - 1/r^2) in row partner[k], the tableau
    with i and i+1 swapped (partner[k] = k and off[k] = 0 when |r| = 1).
    Each image is real, symmetric and orthogonal.
    """

    partition: Partition
    words: np.ndarray
    diag: np.ndarray
    partner: np.ndarray
    off: np.ndarray

    @property
    def degree(self) -> int:
        return self.partition.size

    @property
    def dim(self) -> int:
        return len(self.words)

    def left(self, i: int, X: np.ndarray) -> np.ndarray:
        """image(s_i) @ X, by gathering rows."""
        return self.diag[i - 1, :, None] * X + self.off[i - 1, :, None] * X[self.partner[i - 1]]

    def right(self, X: np.ndarray, i: int) -> np.ndarray:
        """X @ image(s_i), by gathering columns."""
        return X * self.diag[i - 1] + X[:, self.partner[i - 1]] * self.off[i - 1]

    def left_in_place(self, i: int, X: np.ndarray, buf: np.ndarray) -> None:
        """X <- image(s_i) @ X through buf, an array of X's shape: the floats of left(i, X)."""
        # NumPy buffers take's out in the default raise mode; partner is in range
        np.take(X, self.partner[i - 1], axis=0, out=buf, mode="clip")
        buf *= self.off[i - 1, :, None]
        X *= self.diag[i - 1, :, None]
        X += buf


@lru_cache(maxsize=None)
def young_orthogonal_rep(alpha: Partition) -> OrthogonalRep:
    """Young orthogonal form of the irrep of S(size alpha) labeled by alpha.

    Basis vectors are the standard tableaux, by their row words in
    lexicographic order.  A tableau of alpha is one of alpha less a corner
    with that corner's row appended as the last letter, so the words are those
    of each such shape, read through this cache, merged by their integer
    codes; a one-row or one-column shape has the single word of its reading
    order, which also ends the recursion.  A letter's column is the count of
    its row before it.  The s_i image has diagonal entries 1/r with r the
    axial distance from i to i+1, and off-diagonal entries sqrt(1 - 1/r^2)
    connecting tableaux that differ by swapping i and i+1.  Contents are
    column minus row words; a swapped tableau is found by its code.
    """
    parts, m, h = alpha.parts, alpha.size, alpha.height
    # the int64 codes keep a shape of two or more rows under 63 letters, and
    # so the recursion below under 63 calls deep
    if h**m >= 2**63:
        raise ValueError(f"{alpha}: tableau words overflow their int64 codes")
    place = h ** np.arange(m - 1, -1, -1, dtype=np.int64)
    if h == 1 or parts[0] == 1:
        words = np.repeat(np.arange(h), parts)[None]
    else:
        grown = []
        for i in range(h):
            if i == h - 1 or parts[i] > parts[i + 1]:  # row i ends in a corner
                less = tuple(p for p in parts[:i] + (parts[i] - 1,) + parts[i + 1:] if p)
                sub = young_orthogonal_rep(Partition(less)).words
                grown.append(np.hstack([sub, np.full((len(sub), 1), i)]))
        keys = [g @ place for g in grown]  # each group is sorted already
        every = np.concatenate(keys)
        words = np.empty((len(every), m), dtype=np.int64)
        # a word's rank is its count of smaller codes over all the groups
        words[sum(np.searchsorted(k, every) for k in keys)] = np.vstack(grown)
    dim = len(words)
    assert dim == alpha.dimension
    codes = words @ place  # numeric order = lexicographic order of the words
    same_row = words[:, :, None] == np.arange(h)
    cols = np.cumsum(same_row, axis=1)[same_row].reshape(dim, m) - 1
    contents = cols - words
    axial = (contents[:, 1:] - contents[:, :-1]).T  # (m-1, dim)
    # swapping letters i, i+1 changes the code by (w_{i+1} - w_i)(p_i - p_{i+1})
    delta = (words[:, 1:] - words[:, :-1]) * (place[:-1] - place[1:])
    swapped = np.searchsorted(codes, (codes[:, None] + delta).T)
    partner = np.where(np.abs(axial) >= 2, swapped, np.arange(dim))
    return OrthogonalRep(alpha, words, 1.0 / axial, partner, np.sqrt(1.0 - 1.0 / axial**2))


def rep_matrix(rep: OrthogonalRep, sigma: Permutation) -> np.ndarray:
    """Image of sigma, via any adjacent-transposition word for sigma."""
    if sigma.degree != rep.degree:
        raise ValueError(
            f"permutation degree {sigma.degree} != rep degree {rep.degree}"
        )
    M = np.eye(rep.dim)
    for i in sigma.adjacent_word():
        M = rep.right(M, i)
    return M
