"""Exact combinatorics of graph multicoloring, root multiplicities and
Lyndon-word bases for free partially commutative Lie algebras.

The public names load lazily (PEP 562): ``from chromalie import X`` imports
only the module that defines X and the modules it depends on.
"""

from importlib import import_module

_EXPORTS = {
    "graphs": ("Graph", "GraphError", "IMAGINARY", "REAL", "WeightVector",
               "complement", "enumerate_independent_sets", "graph_from_json",
               "is_connected_sub", "is_triangle_free", "join_graph",
               "new_graph", "weight_box"),
    "polynomials": ("QPolynomial", "falling_binomial"),
    "chromatic": ("chromatic_complete", "chromatic_poly", "chromatic_tree",
                  "coloring_count_oracle", "ordered_partition_counts"),
    "multiplicity": ("acyclic_counts", "bond_lattice",
                     "chromatic_via_bond_lattice", "count_unique_sink",
                     "enumerate_acyclic_orientations", "moebius_invert",
                     "mult_via_orientations", "root_multiplicity",
                     "tuple_divisors"),
    "trace": ("b_set", "b_tilde", "canonicalize", "enumerate_weight_words",
              "i_form", "initial_alphabet"),
    "lyndon": ("bracket_tree", "c_i_set", "expand_bracket",
               "expand_right_normed", "is_lyndon", "render_bracket",
               "right_normed_nonzero", "standard_factorization",
               "verify_basis"),
    "hilbert": ("count_compatible_pairs", "lcs_ranks",
                "lcs_ranks_triangle_free", "ordered_partition_identity_check",
                "series_table", "trace_dimension_oracle", "uq_dimension"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
