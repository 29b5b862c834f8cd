"""Combinatorics of tagged-edge triangulations of the punctured polygon:
exhaustive enumeration, flips, canonical orbit forms, the quivers and
relations of the associated cluster-tilted algebras, and the translation
quiver model with its edge correspondence."""

from .arquiver import ARQuiver, ARVertex, build_ar, phi, phi_inv, sigma_ar, tau_ar
from .catalog import Catalog, VERSION, read_catalog, write_catalog
from .edges import (
    TaggedEdge,
    all_edges,
    classify_edge,
    crossing_number,
    delta_length,
    ext_dim,
    hom_dim,
    parse_edge,
    plain,
    sigma,
    spoke,
    tau,
    tau_inv,
)
from ._maxcliques_py import BACKEND
from .quivers import (
    Quiver,
    base_quiver,
    canonical_key,
    connected_components,
    delete_vertex,
    direct_quiver_of,
    in_mutation_class_a,
    in_mutation_class_d,
    is_isomorphic,
    mutate,
    quiver_of,
)
from .relations import RelationSet, path_algebra_dimension, relations_of
from .triangulations import (
    Triangulation,
    TriangulationClass,
    canonical_form,
    classify_type,
    cluster_count_formula,
    count_all,
    enumerate_all,
    equivalence_classes,
    fan,
    flip,
    is_triangulation,
    pairwise_hom_matrix,
    parse_triangulation,
    quotient,
)

__version__ = VERSION

__all__ = [
    "ARQuiver", "ARVertex", "BACKEND", "Catalog", "Quiver", "RelationSet",
    "TaggedEdge", "Triangulation", "TriangulationClass", "VERSION",
    "all_edges", "base_quiver", "build_ar", "canonical_form",
    "canonical_key", "classify_edge", "classify_type", "cluster_count_formula",
    "connected_components", "count_all", "crossing_number", "delete_vertex",
    "delta_length", "direct_quiver_of", "enumerate_all", "equivalence_classes",
    "ext_dim", "fan", "flip", "hom_dim", "in_mutation_class_a",
    "in_mutation_class_d", "is_isomorphic", "is_triangulation", "mutate",
    "pairwise_hom_matrix", "parse_edge", "parse_triangulation",
    "path_algebra_dimension", "phi", "phi_inv", "plain", "quiver_of",
    "quotient", "read_catalog", "relations_of", "sigma", "sigma_ar", "spoke",
    "tau", "tau_ar", "tau_inv", "write_catalog",
]
