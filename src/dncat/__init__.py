"""Combinatorics of tagged-edge triangulations of the punctured polygon:
exhaustive enumeration, flips, canonical orbit forms, the quivers and
relations of the associated cluster-tilted algebras, and the translation
quiver model with its edge correspondence.

The public names are resolved on first access (PEP 562), so `import dncat`
loads no submodule and each command loads only the modules it runs."""

from importlib import import_module

# the public names, by the module that defines them
_EXPORTS = {
    "arquiver": ("ARQuiver", "ARVertex", "build_ar", "phi", "phi_inv", "sigma_ar", "tau_ar"),
    "catalog": ("Catalog", "VERSION", "read_catalog", "write_catalog"),
    "edges": ("TaggedEdge", "all_edges", "classify_edge", "crossing_number", "delta_length",
              "ext_dim", "hom_dim", "parse_edge", "plain", "sigma", "spoke", "tau",
              "tau_inv"),
    "_maxcliques_py": ("BACKEND",),
    "quivers": ("Quiver", "base_quiver", "canonical_key", "connected_components",
                "delete_vertex", "direct_quiver_of", "in_mutation_class_a",
                "in_mutation_class_d", "is_isomorphic", "mutate", "quiver_of"),
    "relations": ("RelationSet", "path_algebra_dimension", "relations_of"),
    "triangulations": ("Triangulation", "TriangulationClass", "canonical_form",
                       "classify_type", "cluster_count_formula", "count_all",
                       "enumerate_all", "equivalence_classes", "fan", "flip",
                       "is_triangulation", "pairwise_hom_matrix", "parse_triangulation",
                       "quotient"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME["__version__"] = "catalog"  # the catalog's VERSION
# the submodules that are attributes of the package, as `dncat.edges`
_SUBMODULES = frozenset({*_EXPORTS, "errors"})

__all__ = sorted(name for name in _HOME if not name.startswith("_"))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # binds itself on the package
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__),
                    "VERSION" if name == "__version__" else name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
