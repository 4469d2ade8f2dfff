"""Subtree overlap representations on host trees.

Core objects: trees, named subtree families, derived graphs (overlap /
intersection / disjointness / containment), covering subtrees, mixed
edge partitions, and the transforms connecting them, all validated by
brute-force oracles at desk scale.

Submodules load on demand: ``import treerep`` imports none of them, and a
public name such as ``treerep.normalize`` imports its submodule on first
access (PEP 562).  Each access reads the name from its submodule, so a
name rebound there is seen here too.
"""

from importlib import import_module

_EXPORTS = {
    "derive": ("MODES", "derive_graph"),
    "errors": (
        "DeskScaleError",
        "InputError",
        "SchemaError",
        "TreeRepError",
        "Violation",
    ),
    "graphs": ("PropertyWitness", "RecognitionResult", "recognize"),
    "interchange": ("Instance", "parse", "serialize"),
    "mixed": (
        "MixedPartition",
        "e1_certificate",
        "mixed_to_bushy",
        "overlap_to_mixed",
        "shrink_containments",
        "star_rep_from_orientation",
        "verify_mixed_partition",
    ),
    "oracle": (
        "SearchBudget",
        "SearchResult",
        "enumerate_chordless_cycles",
        "search_mixed_partition",
        "search_overlap_rep",
    ),
    "shapes": (
        "canonical_code",
        "classify_tree",
        "is_subdivision_of",
        "smooth",
        "tree_isomorphic",
    ),
    "simple": (
        "Orientation",
        "PROPERTIES",
        "SimpleGraph",
        "complement",
        "edge_key",
        "is_transitive",
    ),
    "transforms": (
        "NormalizationResult",
        "SubdivisionStep",
        "add_leaf",
        "normal_form_violations",
        "normalize",
        "replay",
        "subdivide_edge",
    ),
    "trees": (
        "BushinessReport",
        "PairRelation",
        "SubtreeFamily",
        "Tree",
        "bushiness",
        "classify_pair",
        "classify_sets",
        "induced_subtree",
        "induces_subtree",
        "is_covering_subtree",
        "minimal_covering_subtree",
        "similarly_related",
        "subtree_leaves",
        "tree_path",
        "validate_family",
    ),
    "workbench": ("fixtures", "gen_cover", "gen_family", "gen_tree", "to_dot"),
}

#: Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
