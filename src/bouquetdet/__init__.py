"""Exact-arithmetic toolkit for bouquets of geometric lattices: chain
matrices over Z[w] and verification of their determinant factorization
det = prod w(x)^rho(x), with matroid, bouquet-of-matroids, and
sign-vector (COM) front ends."""

from .chains import (Chain, ChainMatrix, Labeling, WeightAssignment,
                     chain_matrix, generators, make_labeling, min_labeling,
                     neat_chain_families, weight)
from .com import CovectorSet, validate_com, zero_set_poset
from .determinant import (VERIFICATION_PRIME, VerificationReport,
                          block_decompose, det_minors, verify_theorem)
from .matroid import (BouquetOfMatroids, Matroid, bouquet_flat_poset,
                      build_bouquet_of_matroids, build_matroid, flat_lattice)
from .polyring import Polynomial
from .poset import BouquetdetError, Poset, build_poset, poset_from_json

__all__ = [
    "Chain", "ChainMatrix", "Labeling", "WeightAssignment", "chain_matrix",
    "generators", "make_labeling", "min_labeling",
    "neat_chain_families", "weight",
    "CovectorSet", "validate_com", "zero_set_poset",
    "VERIFICATION_PRIME", "VerificationReport", "block_decompose",
    "det_minors", "verify_theorem",
    "BouquetOfMatroids", "Matroid", "bouquet_flat_poset",
    "build_bouquet_of_matroids", "build_matroid", "flat_lattice",
    "Polynomial",
    "BouquetdetError", "Poset", "build_poset", "poset_from_json",
]

__version__ = "0.1.0"
