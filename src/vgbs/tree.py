"""Navigation of the Bass-Serre tree.

Tree vertices are cosets g·ṽ, stored as a carrier word g and the orbit
representative v.  A path step is a carrier h and an oriented graph edge
e; it runs from h·ṽ_frm(e) to h·t(ē)·ṽ_to(e), and its pointwise
stabilizer is the inj_initial image sitting inside the group at frm(e).
Geodesics come from reduced path forms of the carrier quotient, so every
decision here rests on the word problem, except how far an elliptic
element stays fixed along a walk: that follows edge transports of its
stabilizer coordinates (fixed_prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import IntVec
from .words import (
    Word,
    concat,
    conjugate,
    express_in_vertex,
    invert_word,
    letter_word,
    reduced_form,
    vertex_word,
    word_power,
    word_simplify,
)

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class TreeVertex:
    carrier: Word
    rep: str


@dataclass(frozen=True)
class PathStep:
    carrier: Word
    edge: Edge

    @property
    def frm(self) -> str:
        return self.edge.frm

    @property
    def to(self) -> str:
        return self.edge.to


@dataclass(frozen=True)
class TreePath:
    """Geodesic: steps[i] joins vertices[i] to vertices[i+1]."""

    vertices: tuple[TreeVertex, ...]
    steps: tuple[PathStep, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.steps) + 1:
            raise ValueError("inconsistent path lengths")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def start(self) -> TreeVertex:
        return self.vertices[0]

    @property
    def end(self) -> TreeVertex:
        return self.vertices[-1]

    def subpath(self, i: int, j: int) -> TreePath:
        if not 0 <= i <= j <= self.length:
            raise ValueError("bad subpath bounds")
        return TreePath(self.vertices[i : j + 1], self.steps[i:j])


@dataclass(frozen=True)
class Subtree:
    vertices: tuple[TreeVertex, ...]
    edges: tuple[PathStep, ...]


@dataclass(frozen=True)
class TranslationProfile:
    """Translation length plus the classifying witness: a fixed vertex and
    the coordinates of the element in its stabilizer when elliptic, a
    fundamental domain (ordered in the translation direction) when
    hyperbolic."""

    length: int
    kind: str
    fixed: TreeVertex | None
    fundamental_domain: TreePath | None
    coords: IntVec | None


def base_vertex(pres: AdaptedPresentation) -> TreeVertex:
    return TreeVertex(Word.identity(), pres.base)


def translate(pres: AdaptedPresentation, g: Word, x: TreeVertex) -> TreeVertex:
    return TreeVertex(word_simplify(pres, concat(g, x.carrier)), x.rep)


def vertices_equal(pres: AdaptedPresentation, x: TreeVertex, y: TreeVertex) -> bool:
    if x.rep != y.rep:
        return False
    shift = concat(invert_word(pres, x.carrier), y.carrier)
    return express_in_vertex(pres, shift, x.rep) is not None


def stabilizer_coords(pres: AdaptedPresentation, x: TreeVertex, w: Word) -> IntVec | None:
    """Coordinates of w in the stabilizer of x, or None if w does not fix x."""
    moved = concat(invert_word(pres, x.carrier), w, x.carrier)
    return express_in_vertex(pres, moved, x.rep)


def stabilizer_element(pres: AdaptedPresentation, x: TreeVertex, vec: Sequence[int]) -> Word:
    return conjugate(pres, vertex_word(x.rep, vec), x.carrier)


def tree_path(pres: AdaptedPresentation, x: TreeVertex, y: TreeVertex) -> TreePath:
    """Unique geodesic from x to y.

    The reduced path form of x.carrier⁻¹ · y.carrier, read from x.rep to
    y.rep, is exactly the walk of the geodesic; translating the carriers
    back by x.carrier places it at x.
    """
    shift = word_simplify(pres, concat(invert_word(pres, x.carrier), y.carrier))
    pf = reduced_form(pres, shift, base=x.rep, end=y.rep)
    vertices = [x]
    steps: list[PathStep] = []
    cur = x.carrier
    for i, e in enumerate(pf.edges):
        step_carrier = word_simplify(pres, concat(cur, vertex_word(pf.vertices[i], pf.terms[i])))
        steps.append(PathStep(step_carrier, e))
        cur = word_simplify(pres, concat(step_carrier, letter_word(e.reverse)))
        vertices.append(TreeVertex(cur, e.to))
    if steps:
        vertices[-1] = y
    return TreePath(tuple(vertices), tuple(steps))


def distance(pres: AdaptedPresentation, x: TreeVertex, y: TreeVertex) -> int:
    return tree_path(pres, x, y).length


def step_reverse(pres: AdaptedPresentation, s: PathStep) -> PathStep:
    rev = pres.reverse(s.edge)
    carrier = word_simplify(pres, concat(s.carrier, letter_word(rev.id)))
    return PathStep(carrier, rev)


def steps_equal(
    pres: AdaptedPresentation, s1: PathStep, s2: PathStep, oriented: bool = True
) -> bool:
    if not oriented and steps_equal(pres, s1, step_reverse(pres, s2), oriented=True):
        return True
    if s1.edge.id != s2.edge.id:
        return False
    shift = concat(invert_word(pres, s2.carrier), s1.carrier)
    d = express_in_vertex(pres, shift, s1.edge.frm)
    return d is not None and pres.edge_image(s1.edge).contains(d)


def convex_hull(pres: AdaptedPresentation, vs: Sequence[TreeVertex]) -> Subtree:
    """Union of pairwise geodesics, deduplicated semantically."""
    if not vs:
        raise ValueError("convex hull of nothing")
    verts: list[TreeVertex] = []
    edges: list[PathStep] = []

    def add_vertex(v: TreeVertex) -> None:
        if not any(vertices_equal(pres, v, u) for u in verts):
            verts.append(v)

    def add_step(s: PathStep) -> None:
        if not any(steps_equal(pres, s, t, oriented=False) for t in edges):
            edges.append(s)

    add_vertex(vs[0])
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            path = tree_path(pres, vs[i], vs[j])
            for v in path.vertices:
                add_vertex(v)
            for s in path.steps:
                add_step(s)
    return Subtree(tuple(verts), tuple(edges))


def translation_profile(pres: AdaptedPresentation, w: Word) -> TranslationProfile:
    """Translation length with witness, by scanning the path from the base
    vertex to its image: the displacement function attains its minimum
    there, and for elliptic w some vertex on it is fixed."""
    cached = pres._profiles.get(w)
    if cached is not None:
        return cached
    ws = word_simplify(pres, w)
    x0 = base_vertex(pres)
    first = tree_path(pres, x0, translate(pres, ws, x0))
    profile: TranslationProfile | None = None
    if first.length == 0:
        profile = TranslationProfile(0, ELLIPTIC, x0, None, stabilizer_coords(pres, x0, ws))
    else:
        best: tuple[int, TreePath] | None = None
        for x in first.vertices:
            px = tree_path(pres, x, translate(pres, ws, x))
            if px.length == 0:
                profile = TranslationProfile(0, ELLIPTIC, x, None, stabilizer_coords(pres, x, ws))
                break
            if best is None or px.length < best[0]:
                best = (px.length, px)
        if profile is None:
            assert best is not None
            profile = TranslationProfile(best[0], HYPERBOLIC, None, best[1], None)
    pres._profiles[w] = profile
    return profile


def translation_length(pres: AdaptedPresentation, w: Word) -> int:
    return translation_profile(pres, w).length


def is_elliptic(pres: AdaptedPresentation, w: Word) -> bool:
    return translation_profile(pres, w).kind == ELLIPTIC


def on_characteristic_space(pres: AdaptedPresentation, w: Word, x: TreeVertex) -> bool:
    """x is in the fixed set (elliptic w) or on the axis (hyperbolic w)."""
    profile = translation_profile(pres, w)
    return distance(pres, x, translate(pres, w, x)) == profile.length


def axis_period(
    pres: AdaptedPresentation, h: Word, origin: TreeVertex, direction: int
) -> TreePath:
    """Geodesic from origin to h·origin (direction +1) or h⁻¹·origin (-1):
    one period of the axis of h, which origin must lie on."""
    profile = translation_profile(pres, h)
    if profile.kind != HYPERBOLIC:
        raise ValueError("axis walk needs a hyperbolic element")
    period = tree_path(pres, origin, translate(pres, word_power(pres, h, direction), origin))
    if period.length != profile.length:
        raise ValueError("origin is not on the axis")
    return period


def axis_vertex(pres: AdaptedPresentation, h: Word, origin: TreeVertex, k: int) -> TreeVertex:
    """Vertex at signed offset k from origin along the axis of h, positive
    meaning the translation direction.  origin must lie on the axis."""
    span = axis_period(pres, h, origin, 1)
    n, r = divmod(k, span.length)
    return translate(pres, word_power(pres, h, n), span.vertices[r])


def axis_vertices(
    pres: AdaptedPresentation, h: Word, origin: TreeVertex, direction: int
) -> Iterator[TreeVertex]:
    """The vertices after origin along the axis of h in the given
    direction, without end.  origin must lie on the axis."""
    period = axis_period(pres, h, origin, direction)
    for n in count():
        shift = word_power(pres, h, direction * n)
        for v in period.vertices[1:]:
            yield translate(pres, shift, v)


def fixed_prefix(pres: AdaptedPresentation, edges: Iterable[Edge], coords: IntVec) -> int:
    """How many steps of a walk along the oriented graph edges an elliptic
    element fixes, given its stabilizer coordinates at the start.

    Crossing e conjugates by a stable letter, t(e)·s(x)·t(ē) =
    s(transport_across(e, x)), and vertex groups are abelian, so no word
    is built per step.  An endless walk must leave the fixed subtree.
    """
    fixed = 0
    for e in edges:
        coords = pres.transport_across(e, coords)
        if coords is None:
            break
        fixed += 1
    return fixed


def axis_offset(pres: AdaptedPresentation, h: Word, x: TreeVertex, y: TreeVertex) -> int:
    """Signed offset along the axis of h from x to y; both must be on it."""
    d = distance(pres, x, y)
    if d == 0:
        return 0
    if vertices_equal(pres, axis_vertex(pres, h, x, d), y):
        return d
    if vertices_equal(pres, axis_vertex(pres, h, x, -d), y):
        return -d
    raise ValueError("vertices do not share the axis")
