"""Moduli of hyperbolic elements and intersections along their axes.

Conjugating by a hyperbolic element h shifts its axis one period.  On the
vertex group of an axis vertex this induces a partial linear map T: the
composite of the integer edge transports along one period.  An elliptic
g fixes the half-line from that vertex exactly when the orbit x, Tx,
T²x, ... of its coordinates never leaves the domain of T.  The orbit
spans an invariant subspace within rank periods, and it stays in the
domain for ever exactly when the first dependent vector is an integer
combination of the earlier ones (Cayley-Hamilton: a map that preserves
a finitely generated free Z-module has a monic integer characteristic
polynomial).  That classifies how a fixed subtree or a second axis
meets the axis of h: not at all, in a finite segment, in a half-line,
or along the whole axis.

Where two characteristic spaces meet is read off distances, not walked:
d(x, Char g) = (d(x, g·x) − ℓ(g)) / 2 (tree.char_distance) places both
ends of the bridge between them with one translate each.  Past the end
E of an overlap with the h axis, a vertex v on that axis has
d(v, Char g) = d(v, E), so one probe at offset k from a common vertex
finds the end at k − char_distance(g, v); a probe still on the g axis
doubles k.  The paper's modulus (compute_modulus) uses the same integer
walk and builds Fractions only for the matrix it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from typing import Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import (
    IntVec,
    InternalError,
    Lattice,
    RatMatrix,
    affine_preimage,
    image_lattice,
    intersect_lattices,
    saturate_lattice,
    zero_vec,
)
from .tree import (
    ELLIPTIC,
    HYPERBOLIC,
    TreePath,
    TreeVertex,
    _transport_walk,
    axis_period,
    char_distance,
    period_vertex,
    stabilizer_coords,
    translation_length,
    translation_profile,
    tree_path,
)
from .words import Word, commutator, is_trivial

@dataclass(frozen=True)
class Modulus:
    """One-period conjugation action on a basepoint vertex group."""

    basepoint: TreeVertex
    domain: Lattice
    matrix: RatMatrix


@dataclass(frozen=True)
class Empty:
    """Disjoint characteristic spaces, joined by the bridge geodesic."""

    bridge: TreePath


@dataclass(frozen=True)
class Finite:
    """Intersection is a segment, ordered from the negative end of the axis."""

    segment: TreePath


@dataclass(frozen=True)
class PositiveHalfLine:
    origin: TreeVertex


@dataclass(frozen=True)
class NegativeHalfLine:
    origin: TreeVertex


@dataclass(frozen=True)
class WholeAxis:
    pass


IntersectionShape = Empty | Finite | PositiveHalfLine | NegativeHalfLine | WholeAxis


def compute_modulus(
    pres: AdaptedPresentation, h: Word, basepoint: TreeVertex | None = None
) -> Modulus:
    """Domain and matrix of the one-period action of a hyperbolic h.

    The basepoint must lie on the axis; by default the start of the
    fundamental domain is used.  The domain is the saturated lattice of
    the largest subspace the action maps onto itself, and for x in it
    with coordinates c in its Hermite basis, h s(x) h^-1 has coordinates
    matrix @ c.  A pivot above 1 makes that basis differ from the reduced
    echelon one: inj_initial [[2,0],[1,0],[0,1]] and inj_terminal
    [[0,2],[0,1],[1,0]] give the basis (2, 1, 0), (0, 0, 1) and the
    matrix [[0,1],[1,0]], which the basis (1, 1/2, 0), (0, 0, 1) writes
    as [[0,2],[1/2,0]].  The paper's modulus; no decision calls it.
    """
    profile = translation_profile(pres, h)
    if profile.kind != HYPERBOLIC:
        raise ValueError("modulus is only defined for hyperbolic elements")
    if basepoint is None:
        basepoint = profile.fundamental_domain.start
    period = axis_period(pres, h, basepoint, -1)
    rank = pres.vertex_rank(basepoint.rep)

    def walk(x: IntVec) -> IntVec:
        return _transport_walk(pres, period.edges, x)[1]

    # x fixes the path to h^-1 basepoint iff each partial walk stays in
    # the next edge image: pull that back from the last edge.
    fixators = Lattice.full(rank)
    for e in reversed(period.edges):
        data = pres.edge_data(e)
        pre = affine_preimage(zero_vec(data.across.rows), data.across, fixators)
        fixators = image_lattice(data.image.basis, pre.lattice)

    # The fixators in a span have full rank in it and an integral walk.
    span = saturate_lattice(fixators)
    while True:
        inner = intersect_lattices(span, fixators)
        image = Lattice.from_generators(rank, [walk(x) for x in inner.basis.columns()])
        refined = intersect_lattices(saturate_lattice(image), span)
        if refined == span:
            break
        span = refined

    # d·b is a fixator for d = [span : inner], and walks into the span.
    d = inner.pivot_product // span.pivot_product
    images = [span.member_coords(walk(tuple(d * x for x in b))) for b in span.basis.columns()]
    columns = [[Fraction(c, d) for c in image] for image in images]
    return Modulus(basepoint, span, RatMatrix.from_columns(columns, rows=span.rank))


def _ray(
    pres: AdaptedPresentation, period_edges: Sequence[Edge], coords: IntVec
) -> tuple[int, IntVec | None] | None:
    """Does an elliptic element fix the ray that repeats period_edges,
    given its coordinates at the start?  None when it fixes all of it;
    otherwise the walk so far when that was refuted: the edges it fixed
    and its coordinates there, None once a step has left the fixed set.

    Each period maps the coordinates by the same partial integer map T.
    While the orbit x, Tx, T²x, ... grows in rank it is walked period by
    period.  The first vector in the rational span of the earlier ones
    decides: if it is an integer combination of them, so is every later
    one, and the ray is fixed for ever.  If not, the minimal polynomial of
    T on that span is not integral, so no finitely generated module holds
    the orbit and walking on from there must leave the fixed set.
    """
    orbit = Lattice.zero(len(coords))
    fixed = 0
    while coords is not None:
        if orbit.contains(coords):
            return None
        grown = Lattice.from_generators(len(coords), orbit.basis.columns() + [coords])
        if grown.rank == orbit.rank:
            break
        orbit = grown
        steps, coords = _transport_walk(pres, period_edges, coords)
        fixed += steps
    return fixed, coords


def halfline_fixation(
    pres: AdaptedPresentation,
    h: Word,
    g: Word,
    direction: int,
    basepoint: TreeVertex | None = None,
) -> bool:
    """Does the elliptic g fix the full half-line of the h axis from the
    basepoint in the given direction (+1 with h, -1 against)?

    The basepoint must lie on the axis; by default the start of the
    fundamental domain is used.  The coordinates of g are carried along
    the half-line one period at a time by integer edge transports (_ray)
    until the first dependence among them: an integer one certifies the
    whole half-line, and a non-integral one or a step outside an edge
    image refutes it.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    profile = translation_profile(pres, h)
    if profile.kind != HYPERBOLIC:
        raise ValueError("half-lines lie on the axis of a hyperbolic element")
    if basepoint is None:
        basepoint = profile.fundamental_domain.start
    period = axis_period(pres, h, basepoint, direction)
    coords = stabilizer_coords(pres, basepoint, g)
    return coords is not None and _ray(pres, period.edges, coords) is None


def classify_intersection(pres: AdaptedPresentation, g: Word, h: Word) -> IntersectionShape:
    """Shape of (characteristic space of g) ∩ (axis of h).

    g may be elliptic (fixed subtree) or hyperbolic (its own axis); h must
    be hyperbolic.  Half-lines and segments are reported relative to the
    translation direction of h.
    """
    h_profile = translation_profile(pres, h)
    if h_profile.kind != HYPERBOLIC:
        raise ValueError("second element must be hyperbolic")
    if is_trivial(pres, g):
        raise ValueError("first element must be nontrivial")
    g_profile = translation_profile(pres, g)
    elliptic = g_profile.kind == ELLIPTIC
    witness_h = h_profile.fundamental_domain.start

    # The geodesic from a vertex of Char g to one on the h axis leaves
    # Char g at the projection of its end and meets the h axis at the
    # projection of its start.
    start = g_profile.fixed if elliptic else g_profile.fundamental_domain.start
    path = tree_path(pres, start, witness_h)
    a = path.length - char_distance(pres, g, witness_h)
    b = char_distance(pres, h, start)
    if a < b:
        return Empty(bridge=path.subpath(a, b))
    meet = path.vertex(b)
    # one period from meet: every axis vertex below is read off it
    span = axis_period(pres, h, meet, 1)

    def along(k: int) -> TreeVertex:
        return period_vertex(pres, h, span, k)

    if elliptic:
        coords = stabilizer_coords(pres, meet, g)
        # h⁻¹ maps the reversed span onto the period from meet against h
        periods = {1: span.edges, -1: tuple(pres.reverse(e) for e in reversed(span.edges))}
        rays = {d: _ray(pres, edges, coords) for d, edges in periods.items()}

        def fixed_edges(d: int) -> int:
            # a refuted ray is walked on from where _ray stopped until
            # the element leaves its fixed set
            walked, left = rays[d]
            if left is None:
                return walked
            return walked + _transport_walk(pres, cycle(periods[d]), left)[0]

        return _shape(pres, along, rays[1] is None, rays[-1] is None, fixed_edges)

    cap = translation_length(pres, g) + translation_length(pres, h) + 1

    def probe(d: int, k: int) -> int:
        return char_distance(pres, g, along(d * k))

    off_cap = {d: probe(d, cap) for d in (1, -1)}
    positive = negative = False
    if 0 in off_cap.values():
        # The overlap exceeds the sum of the translation lengths, so the
        # commutator is elliptic and its fixed subtree meets the h axis
        # with the same kind of shape: it tells which ends are infinite.
        comm = commutator(pres, g, h)
        if is_trivial(pres, comm):
            return WholeAxis()
        if translation_profile(pres, comm).kind != ELLIPTIC:
            raise InternalError("the commutator of a long overlap is not elliptic")
        inner = classify_intersection(pres, comm, h)
        positive = isinstance(inner, (WholeAxis, PositiveHalfLine))
        negative = isinstance(inner, (WholeAxis, NegativeHalfLine))

    def extent(d: int) -> int:
        # Past the end E of the overlap an h-axis vertex is d(v, E) from
        # the g axis, so a probe off it places E; double k until one is.
        k, off = cap, off_cap[d]
        while off == 0:
            k *= 2
            off = probe(d, k)
        return k - off

    return _shape(pres, along, positive, negative, extent)


def _shape(pres, along, positive: bool, negative: bool, extent) -> IntersectionShape:
    """Intersection through meet on the h axis, given which half-lines from
    meet it contains; along(k) is the axis vertex at offset k from meet,
    and extent(d) counts the steps from meet in direction d that the
    intersection contains, asked only for a finite direction."""
    if positive and negative:
        return WholeAxis()

    def end(d: int) -> TreeVertex:
        return along(d * extent(d))

    if positive:
        return PositiveHalfLine(end(-1))
    if negative:
        return NegativeHalfLine(end(1))
    return Finite(tree_path(pres, end(-1), end(1)))


def _shape_anchor(shape: IntersectionShape) -> TreeVertex:
    """The axis vertex a shape other than the whole axis singles out."""
    if isinstance(shape, Empty):
        return shape.bridge.end
    if isinstance(shape, Finite):
        return shape.segment.start
    return shape.origin
