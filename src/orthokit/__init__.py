"""Orthomorphism toolkit for finite fields.

Constructions of orthomorphism pairs at Hamming distance 3 and of
maximal-degree orthomorphism polynomials, Latin bitrades built from such
pairs, exhaustive small-field censuses, and the table-driven GF(p^r)
arithmetic underneath.
"""

from .errors import NonexistenceError, PreconditionError, SearchExhaustedError
from .gf import (ORDER_CAP, FieldSpec, build_field, field_from_json, is_prime,
                 prime_powers)
from .ortho import (CyclotomicProfile, MapTable, cyclotomic_map,
                    cyclotomic_profile, difference_map, is_irregular,
                    is_orthomorphism, is_permutation, linear_map, map_table,
                    translate)
from .polyops import (ReducedPoly, evaluate, hamming_distance, interpolate,
                      interpolate_delta, reduced_degree, reduced_poly, tabulate)
from .construct import (OrthoPair, complete_partial, cubic_unique_root,
                        distance3_pair, even_char_theta, even_irregular_witness,
                        irregular_orthomorphism, lift_subfield_pair, linearized_pair,
                        max_degree_member, max_degree_orthomorphism, near_linear_pair,
                        pair_even_odd_power, pair_f125, small_prime_pair, swap_distance3)
from .bitrade import Bitrade, Triple, build_bitrade, validate_homogeneous
from .census import (ENUM_CAP, CensusReport, census, enumerate_orthomorphisms,
                     irregular_fraction)

__version__ = "0.1.0"

__all__ = [
    "NonexistenceError", "PreconditionError", "SearchExhaustedError",
    "ORDER_CAP", "FieldSpec", "build_field", "field_from_json", "is_prime",
    "prime_powers",
    "CyclotomicProfile", "MapTable", "cyclotomic_map", "cyclotomic_profile",
    "difference_map", "is_irregular", "is_orthomorphism", "is_permutation",
    "linear_map", "map_table", "translate",
    "ReducedPoly", "evaluate", "hamming_distance", "interpolate",
    "interpolate_delta", "reduced_degree", "reduced_poly", "tabulate",
    "OrthoPair", "complete_partial", "cubic_unique_root", "distance3_pair",
    "even_char_theta", "even_irregular_witness", "irregular_orthomorphism",
    "lift_subfield_pair", "linearized_pair", "max_degree_member",
    "max_degree_orthomorphism", "near_linear_pair", "pair_even_odd_power",
    "pair_f125", "small_prime_pair", "swap_distance3",
    "Bitrade", "Triple", "build_bitrade", "validate_homogeneous",
    "ENUM_CAP", "CensusReport", "census", "enumerate_orthomorphisms",
    "irregular_fraction",
    "__version__",
]
