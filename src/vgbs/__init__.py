"""Decision procedures for graphs of groups with free-abelian vertex groups.

The package works with finite graphs of groups whose vertex and edge groups
are finitely generated free-abelian, presented by integer injection matrices
on each oriented edge.  On top of that data it provides the word problem,
translation lengths on the Bass-Serre tree, centralizers of hyperbolic
elements, the classification of intersections of characteristic spaces, and
simultaneous conjugacy of tuples.  For rank-one graphs with elliptic tuples
it falls back to a bounded reachability search and reports honestly when the
budget runs out.
"""

from .conjugacy import (
    Centralizer,
    Conjugate,
    ConjugacyAnswer,
    EllipticUnsupported,
    Inconclusive,
    InternalError,
    NotConjugate,
    ReducedToPolycyclic,
    centralizer_hyperbolic,
    conjugate_hyperbolic,
    multi_conjugate,
)
from .gbs import bounded_reachability, build_reachability_instance
from .graph import (
    AdaptedPresentation,
    Edge,
    VGBSGraph,
    Vertex,
    build_presentation,
    graph_from_dict,
    graph_to_dict,
    validate_graph,
)
from .modulus import IntersectionShape, classify_intersection, compute_modulus
from .tree import translation_length, translation_profile
from .words import (
    StableSyllable,
    VertexSyllable,
    Word,
    concat,
    invert_word,
    is_trivial,
    reduced_form,
    word_simplify,
)

__all__ = [
    "AdaptedPresentation",
    "Centralizer",
    "Conjugate",
    "ConjugacyAnswer",
    "Edge",
    "EllipticUnsupported",
    "Inconclusive",
    "IntersectionShape",
    "InternalError",
    "NotConjugate",
    "ReducedToPolycyclic",
    "StableSyllable",
    "VGBSGraph",
    "Vertex",
    "VertexSyllable",
    "Word",
    "bounded_reachability",
    "build_presentation",
    "build_reachability_instance",
    "centralizer_hyperbolic",
    "classify_intersection",
    "compute_modulus",
    "concat",
    "conjugate_hyperbolic",
    "graph_from_dict",
    "graph_to_dict",
    "invert_word",
    "is_trivial",
    "multi_conjugate",
    "reduced_form",
    "translation_length",
    "translation_profile",
    "validate_graph",
    "word_simplify",
]
