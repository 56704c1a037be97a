"""Exact combinatorics of graph multicoloring, root multiplicities and
Lyndon-word bases for free partially commutative Lie algebras."""

from .graphs import (Graph, GraphError, IMAGINARY, REAL, WeightVector,
                     complement, enumerate_independent_sets, graph_from_json,
                     graph_to_json, is_connected_sub, is_independent,
                     is_triangle_free, join_graph, new_graph, weight_box)
from .polynomials import QPolynomial, falling_binomial
from .chromatic import (chromatic_complete, chromatic_poly, chromatic_tree,
                        coloring_count_oracle, ordered_partition_counts)
from .multiplicity import (BondPartition, Orientation, acyclic_counts,
                           bond_lattice, chromatic_via_bond_lattice,
                           count_unique_sink, enumerate_acyclic_orientations,
                           moebius, moebius_invert, mult_via_orientations,
                           root_multiplicity, tuple_divisors)
from .trace import (b_set, b_tilde, canonicalize, enumerate_weight_words,
                    i_form, initial_alphabet, initial_alphabet_set)
from .lyndon import (bracket_tree, c_i_set, expand_bracket,
                     expand_right_normed, is_lyndon, render_bracket,
                     right_normed_nonzero, standard_factorization,
                     verify_basis, x_i_alphabet)
from .hilbert import (count_compatible_pairs, independent_set_polynomial,
                      lcs_ranks, lcs_ranks_triangle_free, lucas_value,
                      lucas_value_closed, ordered_partition_identity_check,
                      series_table, trace_dimension_oracle, uq_dimension)

__all__ = [name for name in dir() if not name.startswith("_")]
