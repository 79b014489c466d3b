"""Navigation of the Bass-Serre tree.

Tree vertices are cosets g·ṽ, stored as normal forms: the geodesic from
the base vertex as (edge, term) steps with canonical terms (TreeVertex).
Equal vertices are equal values, and the geodesic between two vertices
is read off the longest common prefix of their normal forms, so paths
and distances need no word problem.

translate joins g's reduced loop at the base to x's steps: the Britton
step (words._pinch) runs on at the junction, and each term is split into
its canonical part and a carry into the next (Serre, *Trees*, §I.5.2,
Thm 11).  A word's loop and the forward pass of those splits, the normal
form of g·base, are kept in its per-query record (_loop), so a translate
copies a prefix of that pass and pays only for the junction and for the
steps of x that the carry changes.  Stabilizer coordinates
(stabilizer_coords) are the term s the translate carries past x's steps,
g·carrier(x) = carrier(g·x)·s.  How far an elliptic element stays fixed
along a walk follows edge transports of those coordinates (the transport
walk, _transport_walk).

Projections onto a characteristic space (the fixed subtree or the axis
of w) come from one translate: the group acts without inversions, so
d(x, w·x) = ℓ(w) + 2·d(x, Char w), and the geodesic [x, w·x] passes
through the projection p of x, then through w·p (Serre, *Trees*, §I.6).
char_distance reads d(x, Char w) off that identity, and
translation_profile finds ℓ(w) and its witness at the midpoint of
[x0, w·x0], which always lies on Char w; the profile is kept in w's
record too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import IntVec, add_vec, zero_vec
from .words import (
    LoopForm,
    StableSyllable,
    VertexSyllable,
    Word,
    _pinch,
    conjugate,
    loop_form,
    vertex_word,
    word_power,
)

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class TreeVertex:
    """The vertex c₁·t(ē₁)·c₂·t(ē₂)···cₚ·t(ēₚ)·ṽ_rep, kept as its normal
    form (Serre, *Trees*, §I.5.2, Thm 11): steps[i] = (eᵢ₊₁, cᵢ₊₁) walks
    the geodesic from the base vertex, and each term c is the canonical
    representative of its coset modulo the inj_initial image of its edge
    (Lattice.reduce_vector).  Every coset has exactly one such form, so
    equal vertices compare and hash equal, and steps[:d] is the vertex at
    depth d on the geodesic."""

    steps: tuple[tuple[Edge, IntVec], ...]
    rep: str

    @property
    def carrier(self) -> Word:
        """A word g with self = g·ṽ_rep."""
        syllables: list = []
        for e, term in self.steps:
            if any(term):
                syllables.append(VertexSyllable(e.frm, term))
            syllables.append(StableSyllable(e.reverse))
        return Word(tuple(syllables))

    def ancestor(self, depth: int) -> TreeVertex:
        """The vertex at this depth on the geodesic from the base vertex."""
        if depth == len(self.steps):
            return self
        return TreeVertex(self.steps[:depth], self.steps[depth][0].frm)


@dataclass(frozen=True)
class TreePath:
    """Geodesic from start to end: up from start to the last vertex their
    normal forms share, then down to end.  edges[i] joins vertex(i) to
    vertex(i + 1); a vertex is built only when it is read."""

    start: TreeVertex
    end: TreeVertex
    edges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertex(self, i: int) -> TreeVertex:
        if not 0 <= i <= self.length:
            raise IndexError("vertex index outside the path")
        depth_x, depth_y = len(self.start.steps), len(self.end.steps)
        up = (depth_x - depth_y + self.length) // 2
        if i <= up:
            return self.start.ancestor(depth_x - i)
        return self.end.ancestor(depth_y - self.length + i)

    def subpath(self, i: int, j: int) -> TreePath:
        if not 0 <= i <= j <= self.length:
            raise ValueError("bad subpath bounds")
        return TreePath(self.vertex(i), self.vertex(j), self.edges[i:j])


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
    return TreeVertex((), pres.base)


def translate(pres: AdaptedPresentation, g: Word, x: TreeVertex) -> TreeVertex:
    """g·x in normal form."""
    return _translate(pres, g, x)[0]


def _loop(pres: AdaptedPresentation, g: Word) -> LoopForm:
    """g's record with its forward pass: steps[i] = (eᵢ, rᵢ) is step i of
    the normal form of g·base, and inflow[i] the carry that splitting
    term i−1 adds to term i (None when 0; inflow[0] is None)."""
    loop = loop_form(pres, g)
    if loop.steps is None:
        steps: list[tuple[Edge, IntVec]] = []
        inflow: list[IntVec | None] = [None]
        carry = loop.terms[0]
        for e, c in zip(loop.edges, loop.terms[1:]):
            r, moved = pres.edge_data(e).split_across(carry)
            steps.append((e, r))
            inflow.append(moved)
            carry = c if moved is None else add_vec(c, moved)
        loop.steps, loop.inflow = tuple(steps), tuple(inflow)
    return loop


def _translate(pres: AdaptedPresentation, g: Word, x: TreeVertex) -> tuple[TreeVertex, IntVec]:
    """(g·x, s) with g·carrier(x) = carrier(g·x)·s and s in the group at
    x.rep: the reduced loop form of g joined to x's steps.

    Both sides are reduced, so backtracking pairs cancel only at the
    junction, where _pinch runs the reduction on into x's steps.  Then
    each term c is split over its edge image, c = r + basis·q, and
    c·t(ē) = r·t(ē)·s(across·q) moves q into the next term; once q is 0
    inside x's steps, the rest of them stand as they are and s is 0.
    Otherwise s is the last term, which fixes the vertex.

    g's loop and forward pass come from the query's record (_loop), so
    a translate costs its junction, not its word.  That is exact: the
    pinches only pop steps off the end of g's loop and change only its
    last surviving term, term m, and split i reads terms 0…i alone, so
    the first m normal-form steps and the carry into term m are those
    of g·base.
    """
    steps = x.steps
    zero = zero_vec(pres.vertex_rank(x.rep))

    def term(k: int) -> IntVec:
        return steps[k][1] if k < len(steps) else zero

    loop = _loop(pres, g)
    edges, terms = list(loop.edges), list(loop.terms)
    terms[-1] = add_vec(terms[-1], term(0))
    kept = 0
    while kept < len(steps) and _pinch(pres, edges, terms, steps[kept][0]):
        kept += 1
        terms[-1] = add_vec(terms[-1], term(kept))

    m = len(edges)
    out = list(loop.steps[:m])
    moved = loop.inflow[m]
    carry = terms[m] if moved is None else add_vec(terms[m], moved)
    for k in range(kept, len(steps)):
        e = steps[k][0]
        r, moved = pres.edge_data(e).split_across(carry)
        out.append((e, r))
        if moved is None:
            return TreeVertex(tuple(out) + steps[k + 1 :], x.rep), zero
        carry = add_vec(term(k + 1), moved)
    return TreeVertex(tuple(out), x.rep), carry


def stabilizer_coords(pres: AdaptedPresentation, x: TreeVertex, w: Word) -> IntVec | None:
    """Coordinates of w in the stabilizer of x, read off _translate; None if w does not fix x."""
    y, s = _translate(pres, w, x)
    return s if y == x else None


def stabilizer_element(pres: AdaptedPresentation, x: TreeVertex, vec: Sequence[int]) -> Word:
    return conjugate(pres, vertex_word(x.rep, vec), x.carrier)


def tree_path(pres: AdaptedPresentation, x: TreeVertex, y: TreeVertex) -> TreePath:
    """Unique geodesic from x to y: back up x's normal form to the longest
    prefix it shares with y's, then down y's remaining steps."""
    meet = 0
    for a, b in zip(x.steps, y.steps):
        if a != b:
            break
        meet += 1
    up = tuple(pres.reverse(e) for e, _ in reversed(x.steps[meet:]))
    return TreePath(x, y, up + tuple(e for e, _ in y.steps[meet:]))


def distance(pres: AdaptedPresentation, x: TreeVertex, y: TreeVertex) -> int:
    return tree_path(pres, x, y).length


def translation_profile(pres: AdaptedPresentation, w: Word) -> TranslationProfile:
    """Translation length with witness.  The midpoint of [x0, w·x0] lies
    on Char w, so one more translate gives ℓ(w): for elliptic w the
    midpoint is the projection of x0 onto the fixed subtree, and for
    hyperbolic w a fundamental domain runs from that projection, at
    distance (d(x0, w·x0) − ℓ(w)) / 2 from x0, to its image."""
    loop = loop_form(pres, w)
    if loop.profile is not None:
        return loop.profile
    x0 = base_vertex(pres)
    image, s = _translate(pres, w, x0)
    first = tree_path(pres, x0, image)
    mid = first.vertex(first.length // 2)
    if first.length:
        image, s = _translate(pres, w, mid)
    length = distance(pres, mid, image)
    if length == 0:
        profile = TranslationProfile(0, ELLIPTIC, mid, None, s)
    else:
        offset = (first.length - length) // 2
        profile = TranslationProfile(
            length, HYPERBOLIC, None, first.subpath(offset, offset + length), None
        )
    loop.profile = profile
    return profile


def translation_length(pres: AdaptedPresentation, w: Word) -> int:
    return translation_profile(pres, w).length


def char_distance(pres: AdaptedPresentation, w: Word, x: TreeVertex) -> int:
    """Distance from x to the characteristic space of w (its fixed subtree
    when elliptic, its axis when hyperbolic), by the displacement
    identity d(x, w·x) = ℓ(w) + 2·d(x, Char w)."""
    return (distance(pres, x, translate(pres, w, x)) - translation_length(pres, w)) // 2


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
    return period_vertex(pres, h, axis_period(pres, h, origin, 1), k)


def period_vertex(pres: AdaptedPresentation, h: Word, span: TreePath, k: int) -> TreeVertex:
    """Vertex at signed offset k from span.start along the axis of h, where
    span is one period from there, axis_period(pres, h, span.start, 1)."""
    n, r = divmod(k, span.length)
    return translate(pres, word_power(pres, h, n), span.vertex(r))


def _transport_walk(
    pres: AdaptedPresentation, edges: Iterable[Edge], coords: IntVec
) -> tuple[int, IntVec | None]:
    """How many steps of a walk along the oriented graph edges an elliptic
    element fixes, given its stabilizer coordinates at the start, and its
    coordinates at the end (None when it does not fix the whole walk).

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
    return fixed, coords


def axis_offset(pres: AdaptedPresentation, h: Word, x: TreeVertex, y: TreeVertex) -> int:
    """Signed offset along the axis of h from x to y; both must be on it.
    The geodesic between two axis vertices runs along the axis, so its
    first step tells the sign."""
    if char_distance(pres, h, y) != 0:
        raise ValueError("vertices do not share the axis")
    path = tree_path(pres, x, y)
    if path.length == 0:
        return 0
    forward = path.vertex(1) == axis_period(pres, h, x, 1).vertex(1)
    return path.length if forward else -path.length
