"""Conjugacy decisions: single hyperbolic elements, centralizers, tuples.

The pipeline for tuples: find a hyperbolic element in the subgroup the
first tuple generates (an element, or a product of two, or a certificate
that none exists); align it with its counterpart from the second tuple;
then search the centralizer of the aligned element.  That centralizer is
a lattice of axis-fixing vertex elements extended by a minimal-shift
hyperbolic, so the remaining search splits into a shift (read off from
axis-intersection offsets) and a lattice intersection: each coordinate
gives one coset of stabilizer exponents (equations.local_conjugators,
one integer linear system), and the cosets are intersected.  Tuples
generating an elliptic subgroup are decidable only over rank-1 vertex
groups and are delegated to the reachability module.

Every conjugator returned is replayed in the word problem first
(verify_conjugator); a failed replay raises InternalError, also under
python -O.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import local_conjugators
from .graph import AdaptedPresentation
from .linalg import AffineLattice, InternalError, Lattice, intersect_affine
from .modulus import WholeAxis, classify_intersection, shift_length
from .tree import (
    HYPERBOLIC,
    TreeVertex,
    _transport_walk,
    base_vertex,
    stabilizer_coords,
    stabilizer_element,
    translation_length,
    translation_profile,
    tree_path,
)
from .words import (
    Word,
    commutator,
    concat,
    conjugate,
    invert_word,
    is_trivial,
    word_power,
    word_simplify,
    words_equal,
)


@dataclass(frozen=True)
class Conjugate:
    witness: Word


@dataclass(frozen=True)
class NotConjugate:
    reason: str


@dataclass(frozen=True)
class ReducedToPolycyclic:
    """Both tuples live on one axis; deciding further needs conjugacy in
    the lattice-by-shift group generated by the data below."""

    pairs: tuple[tuple[Word, Word], ...]
    elliptic: Lattice
    shift_generator: Word
    basepoint: TreeVertex


@dataclass(frozen=True)
class EllipticUnsupported:
    explanation: str


@dataclass(frozen=True)
class Inconclusive:
    explored: int
    budget: int


ConjugacyAnswer = (
    Conjugate | NotConjugate | ReducedToPolycyclic | EllipticUnsupported | Inconclusive
)


@dataclass(frozen=True)
class HyperbolicWitness:
    """A hyperbolic element of the generated subgroup, with the tuple
    indices (one or two) whose product produced it."""

    word: Word
    indices: tuple[int, ...]


@dataclass(frozen=True)
class EllipticCertificate:
    vertex: TreeVertex


@dataclass(frozen=True)
class Centralizer:
    """Centralizer of a hyperbolic element: the lattice of commuting
    vertex elements at an axis basepoint, extended by a commuting
    hyperbolic of minimal translation length."""

    basepoint: TreeVertex
    elliptic: Lattice
    shift_generator: Word


def verify_conjugator(
    pres: AdaptedPresentation, witness: Word, first: tuple[Word, ...], second: tuple[Word, ...]
) -> None:
    """Replay witness·x·witness⁻¹ = y for every pair in the word problem;
    raise InternalError on the first pair that fails."""
    witness_inv = invert_word(pres, witness)
    for i, (x, y) in enumerate(zip(first, second)):
        if not is_trivial(pres, concat(witness, x, witness_inv, invert_word(pres, y))):
            raise InternalError(f"conjugator does not carry coordinate {i} onto its target")


def find_hyperbolic_in_tuple(
    pres: AdaptedPresentation, items: tuple[Word, ...]
) -> HyperbolicWitness | EllipticCertificate:
    """First hyperbolic element, else first hyperbolic pairwise product,
    else a certificate vertex fixed by the whole tuple.

    When every element and every pairwise product is elliptic the fixed
    subtrees pairwise intersect, and pairwise intersecting subtrees of a
    tree share a vertex, so the generated subgroup is elliptic.
    """
    items = tuple(items)
    if not items:
        raise ValueError("tuple must be nonempty")
    for i, w in enumerate(items):
        if translation_profile(pres, w).kind == HYPERBOLIC:
            return HyperbolicWitness(w, (i,))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            prod = word_simplify(pres, concat(items[i], items[j]))
            if translation_profile(pres, prod).kind == HYPERBOLIC:
                return HyperbolicWitness(prod, (i, j))
    return EllipticCertificate(_common_fixed_vertex(pres, items))


def _common_fixed_vertex(pres, items) -> TreeVertex:
    # Successive projection: project the running common vertex onto the
    # next fixed subtree; the projection stays inside all earlier ones.
    # Walking from a vertex w fixes towards it, the projection is the
    # last vertex w still fixes (the end of the walk when w fixes it).
    current = None
    for w in items:
        if is_trivial(pres, w):
            continue
        profile = translation_profile(pres, w)
        if current is None:
            current = profile.fixed
        else:
            path = tree_path(pres, profile.fixed, current)
            current = path.vertex(_transport_walk(pres, path.edges, profile.coords)[0])
    if current is None:
        return base_vertex(pres)
    for w in items:
        if not is_trivial(pres, w) and stabilizer_coords(pres, current, w) is None:
            raise InternalError("the common vertex is not fixed by the whole tuple")
    return current


def _align(pres: AdaptedPresentation, a: Word, b: Word, offsets: range) -> Word | None:
    """The first conjugator c with c·a·c⁻¹ = b that carries the start v of
    a's fundamental domain to vertex j of b's, over j in offsets, or None.
    Those carrying v to vj are s(x)·mover, mover = carrier(vj)·carrier(v)⁻¹
    and s(x) in the stabilizer of vj: one local_conjugators call each."""
    v = translation_profile(pres, a).fundamental_domain.start
    dom = translation_profile(pres, b).fundamental_domain
    for j in offsets:
        vj = dom.vertex(j)
        if vj.rep != v.rep:
            continue
        mover = word_simplify(pres, concat(vj.carrier, invert_word(pres, v.carrier)))
        sols = local_conjugators(pres, vj, conjugate(pres, a, mover), b)
        if sols is not None:
            return word_simplify(pres, concat(stabilizer_element(pres, vj, sols.base), mover))
    return None


def conjugate_hyperbolic(pres: AdaptedPresentation, a: Word, b: Word) -> ConjugacyAnswer:
    """Decide conjugacy of two hyperbolic elements.

    Any conjugator can be adjusted by a power of b until it carries a
    chosen axis vertex of a into the fundamental domain of b, so it
    suffices to scan those finitely many vertices and solve for a
    stabilizer correction at each (_align).
    """
    pa = translation_profile(pres, a)
    pb = translation_profile(pres, b)
    if pa.kind != HYPERBOLIC or pb.kind != HYPERBOLIC:
        raise ValueError("both elements must be hyperbolic")
    if pa.length != pb.length:
        return NotConjugate("translation lengths differ")
    witness = _align(pres, a, b, range(pb.length))
    if witness is None:
        return NotConjugate("no axis alignment conjugates the first element to the second")
    verify_conjugator(pres, witness, (a,), (b,))
    return Conjugate(witness)


def centralizer_hyperbolic(pres: AdaptedPresentation, h: Word) -> Centralizer:
    """Centralizer of a hyperbolic element as lattice + minimal shift.

    Commuting elliptic elements fix the whole axis, so they form the
    self-conjugation lattice at any axis vertex.  The hyperbolic part is
    the first alignment of h with itself (_align) that moves the start of
    its fundamental domain by k = 1…ℓ(h) steps: the smallest realizable
    shift.  h itself realizes k = ℓ(h), so the scan always succeeds.
    """
    profile = translation_profile(pres, h)
    if profile.kind != HYPERBOLIC:
        raise ValueError("centralizers are computed for hyperbolic elements")
    w0 = profile.fundamental_domain.start
    lattice = local_conjugators(pres, w0, h, h).lattice
    shift = _align(pres, h, h, range(1, profile.length + 1))
    if shift is None:
        raise InternalError("no shift realized, although h realizes its own period")
    if not is_trivial(pres, commutator(pres, shift, h)):
        raise InternalError("the shift generator does not commute with h")
    if profile.length % translation_length(pres, shift) != 0:
        raise InternalError("the shift length does not divide the period of h")
    for j in range(lattice.rank):
        gen = stabilizer_element(pres, w0, lattice.basis.column(j))
        if not is_trivial(pres, commutator(pres, gen, h)):
            raise InternalError(f"centralizer lattice generator {j} does not commute with h")
    return Centralizer(w0, lattice, shift)


def multi_conjugate(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    state_budget: int = 100_000,
) -> ConjugacyAnswer:
    """Is there one element conjugating the first tuple onto the second,
    coordinate by coordinate?

    Decides whenever the first tuple generates a non-elliptic subgroup;
    elliptic tuples are delegated to the rank-1 reachability procedure
    when the graph allows it and refused otherwise.  A fully axis-aligned
    instance is returned as ReducedToPolycyclic rather than decided.

    The translation profiles cached during the call are dropped when it
    returns.
    """
    try:
        return _multi_conjugate(pres, tuple(first), tuple(second), state_budget)
    finally:
        pres.end_query()


def _multi_conjugate(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    state_budget: int,
) -> ConjugacyAnswer:
    if not first or len(first) != len(second):
        raise ValueError("tuples must be nonempty and of equal length")
    if state_budget < 1:
        raise ValueError("state budget must be positive")
    if all(words_equal(pres, x, y) for x, y in zip(first, second)):
        return Conjugate(Word.identity())

    found = find_hyperbolic_in_tuple(pres, first)
    if isinstance(found, EllipticCertificate):
        if any(v.rank != 1 for v in pres.graph.vertices):
            return EllipticUnsupported(
                "the first tuple generates an elliptic subgroup; deciding this "
                "needs every vertex group to have rank 1"
            )
        from .gbs import gbs_multi_conjugate

        return gbs_multi_conjugate(pres, first, second, state_budget=state_budget)

    anchor = found.word
    counterpart = word_simplify(pres, concat(*(second[i] for i in found.indices)))
    if translation_profile(pres, counterpart).kind != HYPERBOLIC:
        return NotConjugate("matching product of the second tuple is not hyperbolic")
    aligned = conjugate_hyperbolic(pres, anchor, counterpart)
    if isinstance(aligned, NotConjugate):
        return aligned
    g0 = aligned.witness
    g0_inv = invert_word(pres, g0)
    matched = tuple(word_simplify(pres, concat(g0_inv, y, g0)) for y in second)

    # Remaining freedom is the centralizer of the anchor: witness = g0·s(x)·h^m.
    cen = centralizer_hyperbolic(pres, anchor)
    shapes: list[tuple[object, object] | None] = []
    for x, y in zip(first, matched):
        if is_trivial(pres, x) or is_trivial(pres, y):
            if is_trivial(pres, x) != is_trivial(pres, y):
                return NotConjugate("an identity coordinate faces a nontrivial one")
            shapes.append(None)
            continue
        sx = classify_intersection(pres, x, anchor)
        sy = classify_intersection(pres, y, anchor)
        if type(sx) is not type(sy):
            return NotConjugate("axis intersection kinds differ at a coordinate")
        shapes.append((sx, sy))

    anchored = [p for p in shapes if p is not None and not isinstance(p[0], WholeAxis)]
    if not anchored:
        return ReducedToPolycyclic(
            tuple(zip(first, matched)), cen.elliptic, cen.shift_generator, cen.basepoint
        )

    offsets = {shift_length(pres, anchor, sx, sy) for sx, sy in anchored}
    if len(offsets) > 1:
        return NotConjugate("coordinates require different shifts along the axis")
    offset = offsets.pop()
    step = translation_length(pres, cen.shift_generator)
    if offset % step:
        return NotConjugate("required shift is not realizable in the centralizer")
    power = word_power(pres, cen.shift_generator, offset // step)
    power_inv = invert_word(pres, power)

    rank = pres.vertex_rank(cen.basepoint.rep)
    sols = AffineLattice((0,) * rank, cen.elliptic)
    for x, y in zip(first, matched):
        if is_trivial(pres, x):
            continue
        shifted = word_simplify(pres, concat(power, x, power_inv))
        local = local_conjugators(pres, cen.basepoint, shifted, y)
        sols = None if local is None else intersect_affine(sols, local)
        if sols is None:
            return NotConjugate("no centralizer element aligns every coordinate")

    witness = word_simplify(
        pres, concat(g0, stabilizer_element(pres, cen.basepoint, sols.base), power)
    )
    verify_conjugator(pres, witness, first, second)
    return Conjugate(witness)
