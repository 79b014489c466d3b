"""Moduli of hyperbolic elements and intersections along their axes.

Conjugating by a hyperbolic element h shifts its axis one period.  On the
vertex group of an axis basepoint this induces a partial linear map: the
composite of the edge transports along one period.  Its largest invariant
rational subspace is the modulus domain, and the restricted map (the
modulus) controls which elliptic elements fix long stretches of the axis.
An eigenvalue condition on the modulus decides whether an element fixes a
full half-line, which in turn classifies how a fixed subtree or a second
axis meets the axis of h: not at all, in a finite segment, in a half-line,
or along the whole axis.

How far an elliptic element stays fixed along a path or an axis is
decided by transporting its coordinates across the edges one at a time
(tree.fixed_prefix), never by conjugating words along a growing carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice

from .graph import AdaptedPresentation
from .linalg import (
    Lattice,
    RatMatrix,
    RatSubspace,
    affine_preimage,
    image_lattice,
    intersect_lattices,
    minimal_polynomial,
    rat_inverse,
    restriction_matrix,
    saturate_lattice,
    smallest_invariant_subspace,
)
from .tree import (
    ELLIPTIC,
    HYPERBOLIC,
    TreePath,
    TreeVertex,
    axis_offset,
    axis_period,
    axis_vertex,
    axis_vertices,
    fixed_prefix,
    on_characteristic_space,
    stabilizer_coords,
    translate,
    translation_length,
    translation_profile,
    tree_path,
)
from .words import Word, commutator, invert_word, is_trivial

@dataclass(frozen=True)
class Modulus:
    """One-period conjugation action on a basepoint vertex group."""

    basepoint: TreeVertex
    domain: RatSubspace
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
    fundamental domain is used.  For x in the domain with s(x) the
    corresponding vertex element, h s(x) h^-1 has coordinates matrix @ x.
    """
    profile = translation_profile(pres, h)
    if profile.kind != HYPERBOLIC:
        raise ValueError("modulus is only defined for hyperbolic elements")
    if basepoint is None:
        basepoint = profile.fundamental_domain.start
    key = (h, basepoint)
    cached = pres._moduli.get(key)
    if cached is not None:
        return cached
    if not on_characteristic_space(pres, h, basepoint):
        raise ValueError("basepoint is not on the axis")

    rank = pres.vertex_rank(basepoint.rep)
    pulled = translate(pres, invert_word(pres, h), basepoint)
    period = tree_path(pres, basepoint, pulled)

    # x fixes the path to h^-1 basepoint iff every partial transport of x
    # lands in the corresponding edge image; the full composite is then
    # the coordinate vector of h s(x) h^-1 back at the basepoint.  With d
    # the common denominator, T·x lies in the image L iff d·T·x lies in d·L.
    transport = RatMatrix.identity(rank)
    fixators = Lattice.full(rank)
    for e in period.edges:
        d, scaled = transport.clear_denominators()
        image = pres.edge_image(e)
        pre = affine_preimage(
            (0,) * scaled.rows, scaled, Lattice(image.ambient_dim, image.basis.scale(d))
        )
        assert pre is not None  # homogeneous, so 0 always solves
        fixators = intersect_lattices(fixators, pre.lattice)
        transport = pres.edge_data(e).transport.mul(transport)

    span = saturate_lattice(fixators)
    while True:
        _, scaled = transport.clear_denominators()
        forward = saturate_lattice(image_lattice(scaled, span))
        refined = intersect_lattices(forward, span)
        if refined == span:
            break
        span = refined

    domain = span.span()
    result = Modulus(basepoint, domain, restriction_matrix(domain.basis, transport))
    pres._moduli[key] = result
    return result


def halfline_fixation(
    pres: AdaptedPresentation,
    h: Word,
    g: Word,
    direction: int,
    basepoint: TreeVertex | None = None,
) -> bool:
    """Does the elliptic g fix the full half-line of the h axis from the
    basepoint in the given direction (+1 with h, -1 against)?

    The coordinate vectors of the successive conjugates of g are the
    modulus-power images of its coordinates, so g fixes the half-line iff
    those powers generate a finitely generated integral module.  That
    holds iff the modulus restricted to the cyclic subspace of g has an
    integer minimal polynomial (inverted for the positive direction), and
    finitely many explicit fixation checks then certify the whole ray.
    Those checks decide fixation along the axis by transporting the
    coordinates of g across its edges (tree.fixed_prefix).
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    mod = compute_modulus(pres, h, basepoint)
    coords = stabilizer_coords(pres, mod.basepoint, g)
    if coords is None:
        return False
    in_domain = mod.domain.coords(coords)
    if in_domain is None:
        return False
    cyclic, restricted = smallest_invariant_subspace(mod.matrix, in_domain)
    if direction == 1:
        try:
            restricted = rat_inverse(restricted)
        except ValueError:
            return False
    if not minimal_polynomial(restricted).is_integral():
        return False
    period = axis_period(pres, h, mod.basepoint, direction)
    checks = period.length * cyclic.dim
    walk = islice(cycle(period.edges), checks)
    return fixed_prefix(pres, walk, coords) == checks


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

    # Both characteristic spaces are convex, so along the connecting path
    # membership in the first is a prefix and in the second a suffix.
    if elliptic:
        path = tree_path(pres, g_profile.fixed, witness_h)
        a = fixed_prefix(pres, path.edges, g_profile.coords)
    else:
        path = tree_path(pres, g_profile.fundamental_domain.start, witness_h)
        a = 0
        while a < path.length and on_characteristic_space(pres, g, path.vertex(a + 1)):
            a += 1
    b = path.length
    while b > 0 and on_characteristic_space(pres, h, path.vertex(b - 1)):
        b -= 1
    if a < b:
        return Empty(bridge=path.subpath(a, b))
    meet = path.vertex(b)

    if elliptic:
        coords = stabilizer_coords(pres, meet, g)
        return _shape(
            pres,
            h,
            meet,
            halfline_fixation(pres, h, g, 1, meet),
            halfline_fixation(pres, h, g, -1, meet),
            lambda d: fixed_prefix(
                pres, cycle(axis_period(pres, h, meet, d).edges), coords
            ),
        )

    cap = translation_length(pres, g) + translation_length(pres, h) + 1
    walks = {d: axis_vertices(pres, h, meet, d) for d in (1, -1)}

    def extent(d: int, limit: int | None = None) -> int:
        # how far the walk in direction d advances, from where it stands,
        # while it stays on the g axis
        m = 0
        for v in islice(walks[d], limit):
            if not on_characteristic_space(pres, g, v):
                break
            m += 1
        return m

    counts = {d: extent(d, cap) for d in (1, -1)}
    positive = negative = False
    if cap in counts.values():
        # The overlap exceeds the sum of the translation lengths, so the
        # commutator is elliptic and its fixed subtree meets the h axis
        # with the same kind of shape: it tells which ends are infinite.
        comm = commutator(pres, g, h)
        if is_trivial(pres, comm):
            return WholeAxis()
        assert translation_profile(pres, comm).kind == ELLIPTIC
        inner = classify_intersection(pres, comm, h)
        positive = isinstance(inner, (WholeAxis, PositiveHalfLine))
        negative = isinstance(inner, (WholeAxis, NegativeHalfLine))
    # A walk stopped by the cap in a finite direction goes on from there.
    return _shape(
        pres,
        h,
        meet,
        positive,
        negative,
        lambda d: counts[d] + extent(d) if counts[d] == cap else counts[d],
    )


def _shape(pres, h, meet, positive: bool, negative: bool, extent) -> IntersectionShape:
    """Intersection through meet on the h axis, given which half-lines from
    meet it contains; extent(d) counts the steps from meet in direction d
    that it contains, and is asked only for a finite direction."""
    if positive and negative:
        return WholeAxis()

    def end(d: int) -> TreeVertex:
        return axis_vertex(pres, h, meet, d * extent(d))

    if positive:
        return PositiveHalfLine(end(-1))
    if negative:
        return NegativeHalfLine(end(1))
    return Finite(tree_path(pres, end(-1), end(1)))


def _shape_anchor(shape: IntersectionShape) -> TreeVertex:
    if isinstance(shape, Empty):
        return shape.bridge.end
    if isinstance(shape, Finite):
        return shape.segment.start
    return shape.origin


def shift_length(
    pres: AdaptedPresentation, h: Word, first: IntersectionShape, second: IntersectionShape
) -> int | None:
    """Signed offset along the h axis between two intersection shapes of
    the same kind, or None when the kinds differ.  Whole-axis shapes have
    no distinguished point, so they are rejected."""
    if type(first) is not type(second):
        return None
    if isinstance(first, WholeAxis):
        raise ValueError("whole-axis intersections carry no offset")
    return axis_offset(pres, h, _shape_anchor(first), _shape_anchor(second))
