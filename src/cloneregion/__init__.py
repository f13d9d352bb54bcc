"""Fidelity regions of 1->N universal quantum cloning machines.

Builds the irreducible blocks of the algebra of partially transposed
permutation operators, maps pure states through them to singlet-fraction
tuples, takes convex hulls/support functions of the admissible region, and
certifies everything against a brute-force full-tensor-space oracle.
"""

from .symgroup import (
    Partition,
    Permutation,
    OrthogonalRep,
    branch_up,
    partitions_of,
    rep_matrix,
    young_orthogonal_rep,
)
from .algebra import (
    Decomposition,
    InconsistencyError,
    IrrepBlock,
    QMatrix,
    admissible_N_irreps,
    build_Q,
    build_block,
    decompose,
)

__all__ = [
    "Partition",
    "Permutation",
    "OrthogonalRep",
    "branch_up",
    "partitions_of",
    "rep_matrix",
    "young_orthogonal_rep",
    "Decomposition",
    "InconsistencyError",
    "IrrepBlock",
    "QMatrix",
    "admissible_N_irreps",
    "build_Q",
    "build_block",
    "decompose",
]

__version__ = "0.1.0"
