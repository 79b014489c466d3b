"""Conjugacy decisions: single hyperbolic elements, centralizers, tuples.

The pipeline for tuples: find a hyperbolic anchor in the subgroup the
first tuple generates (an element, or a product of two, or a certificate
that none exists), and its counterpart from the second tuple.  A
conjugator carries the anchor's axis onto the counterpart's, keeping the
direction, and each Char xᵢ ∩ axis onto Char yᵢ ∩ axis′, anchor point
onto anchor point.  One coordinate whose intersection has such a point
therefore fixes where the start of the anchor's fundamental domain goes,
and there the conjugators are a stabilizer coset times one mover: each
coordinate gives one coset of stabilizer exponents
(equations.local_conjugators, one integer linear system), and the cosets
are intersected (_align).  When every coordinate fixes the whole axis
nothing pins the shift, and the anchor's centralizer is returned as
lattice-by-shift data instead of a decision, unless the conjugator
aligning the two axes already matches every pair.  Tuples generating an
elliptic subgroup are decided over rank-1 vertex groups, from the
exponents their certificates carry, by counter reachability (gbs), and
refused otherwise.

Every conjugator returned is replayed in the word problem first
(verify_conjugator); a failed replay raises InternalError, also under
python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .equations import local_conjugators
from .gbs import (
    DefinitivelyUnreachable,
    InconclusiveSearch,
    bounded_reachability,
    build_reachability_instance,
    replay_witness,
)
from .graph import AdaptedPresentation, query_scope
from .linalg import AffineLattice, IntVec, InternalError, Lattice, intersect_affine
from .modulus import WholeAxis, _shape_anchor, classify_intersection
from .tree import (
    HYPERBOLIC,
    TreeVertex,
    _transport_walk,
    axis_offset,
    base_vertex,
    period_vertex,
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
    """A vertex fixed by the whole tuple, with the stabilizer coordinates
    of each item there (the zero vector for a trivial item)."""

    vertex: TreeVertex
    coords: tuple[IntVec, ...]


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
    return _elliptic_certificate(pres, items)


def _elliptic_certificate(pres, items) -> EllipticCertificate:
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
        current = base_vertex(pres)
    coords = tuple(stabilizer_coords(pres, current, w) for w in items)
    if None in coords:
        raise InternalError("the common vertex is not fixed by the whole tuple")
    return EllipticCertificate(current, coords)


def _align(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    v: TreeVertex,
    targets: Iterable[TreeVertex],
) -> Word | None:
    """The first conjugator c with c·xᵢ·c⁻¹ = yᵢ for every pair that
    carries v to one of the targets, or None.  Those carrying v to T are
    s(z)·mover, mover = carrier(T)·carrier(v)⁻¹ and s(z) in the stabilizer
    of T: one local_conjugators coset per pair, intersected."""
    for target in targets:
        if target.rep != v.rep:
            continue
        mover = word_simplify(pres, concat(target.carrier, invert_word(pres, v.carrier)))
        sols: AffineLattice | None = AffineLattice.full(pres.vertex_rank(v.rep))
        for x, y in zip(first, second):
            local = local_conjugators(pres, target, conjugate(pres, x, mover), y)
            sols = None if local is None else intersect_affine(sols, local)
            if sols is None:
                break
        else:
            return word_simplify(pres, concat(stabilizer_element(pres, target, sols.base), mover))
    return None


@query_scope
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
    targets = map(pb.fundamental_domain.vertex, range(pb.length))
    witness = _align(pres, (a,), (b,), pa.fundamental_domain.start, targets)
    if witness is None:
        return NotConjugate("no axis alignment conjugates the first element to the second")
    verify_conjugator(pres, witness, (a,), (b,))
    return Conjugate(witness)


@query_scope
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
    shifts = map(profile.fundamental_domain.vertex, range(1, profile.length + 1))
    shift = _align(pres, (h,), (h,), w0, shifts)
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


@query_scope
def multi_conjugate(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    state_budget: int = 100_000,
) -> ConjugacyAnswer:
    """Is there one element conjugating the first tuple onto the second,
    coordinate by coordinate?

    Decides whenever the first tuple generates a non-elliptic subgroup;
    elliptic tuples are decided by rank-1 reachability when every vertex
    group has rank 1 and refused otherwise.  A fully axis-aligned
    instance that the axis alignment alone does not match is returned as
    ReducedToPolycyclic rather than decided.

    The per-query caches filled during the call are dropped when it
    returns.
    """
    first, second = tuple(first), tuple(second)
    if not first or len(first) != len(second):
        raise ValueError("tuples must be nonempty and of equal length")
    if state_budget < 1:
        raise ValueError("state budget must be positive")
    if all(words_equal(pres, x, y) for x, y in zip(first, second)):
        return Conjugate(Word.identity())

    found = find_hyperbolic_in_tuple(pres, first)
    if isinstance(found, EllipticCertificate):
        return _conjugate_elliptic(pres, first, second, found, state_budget)

    anchor = found.word
    counterpart = word_simplify(pres, concat(*(second[i] for i in found.indices)))
    pa, pb = translation_profile(pres, anchor), translation_profile(pres, counterpart)
    if pb.kind != HYPERBOLIC or pb.length != pa.length:
        return NotConjugate("the matching element of the second tuple translates differently")

    anchored: list[tuple[object, object]] = []
    for x, y in zip(first, second):
        if is_trivial(pres, x) or is_trivial(pres, y):
            if is_trivial(pres, x) != is_trivial(pres, y):
                return NotConjugate("an identity coordinate faces a nontrivial one")
            continue
        sx = classify_intersection(pres, x, anchor)
        sy = classify_intersection(pres, y, counterpart)
        if type(sx) is not type(sy):
            return NotConjugate("axis intersection kinds differ at a coordinate")
        if not isinstance(sx, WholeAxis):
            anchored.append((sx, sy))

    if not anchored:
        aligned = conjugate_hyperbolic(pres, anchor, counterpart)
        if isinstance(aligned, NotConjugate):
            return aligned
        g0, g0_inv = aligned.witness, invert_word(pres, aligned.witness)
        matched = tuple(word_simplify(pres, concat(g0_inv, y, g0)) for y in second)
        if all(words_equal(pres, x, y) for x, y in zip(first, matched)):
            verify_conjugator(pres, g0, first, second)
            return Conjugate(g0)
        cen = centralizer_hyperbolic(pres, anchor)
        return ReducedToPolycyclic(
            tuple(zip(first, matched)), cen.elliptic, cen.shift_generator, cen.basepoint
        )

    # A conjugator carries each anchor point onto its counterpart, so it
    # carries the start v of the anchor's fundamental domain to the
    # counterpart's axis vertex at one offset D from the start of its own.
    v, start_b = pa.fundamental_domain.start, pb.fundamental_domain.start
    offsets = {
        axis_offset(pres, counterpart, start_b, _shape_anchor(sy))
        - axis_offset(pres, anchor, v, _shape_anchor(sx))
        for sx, sy in anchored
    }
    if len(offsets) > 1:
        return NotConjugate("coordinates require different shifts along the axis")
    target = period_vertex(pres, counterpart, pb.fundamental_domain, offsets.pop())
    witness = _align(pres, first, second, v, (target,))
    if witness is None:
        return NotConjugate("no conjugator carries the axis anchors onto each other")
    verify_conjugator(pres, witness, first, second)
    return Conjugate(witness)


def _conjugate_elliptic(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    found: EllipticCertificate,
    state_budget: int,
) -> ConjugacyAnswer:
    """Tuple conjugacy once the first tuple has an elliptic certificate.

    Over rank-1 vertex groups the certificate coordinates are generator
    exponents.  A conjugator sends generator powers to generator powers
    with one scaling factor, so the exponent patterns must agree up to
    that factor and the gcd powers must be conjugate, which bounded
    reachability answers.  Some first exponent is nonzero, since equal
    tuples are answered before any certificate is built.
    """
    if any(v.rank != 1 for v in pres.graph.vertices):
        return EllipticUnsupported(
            "elliptic tuple conjugacy needs every vertex group to have rank 1"
        )
    other = find_hyperbolic_in_tuple(pres, second)
    if not isinstance(other, EllipticCertificate):
        return NotConjugate("one side is elliptic, the other is not")
    pairs = [(x[0], y[0]) for x, y in zip(found.coords, other.coords)]
    if any((m == 0) != (n == 0) for m, n in pairs):
        return NotConjugate("an identity coordinate faces a nontrivial one")

    # One scaling factor must relate the exponent patterns exactly.
    live = [(m, n) for m, n in pairs if m != 0]
    mu = gcd(*(m for m, _ in live))
    nu, rest = divmod(live[0][1], live[0][0] // mu)
    if rest or any(n != nu * (m // mu) for m, n in live):
        return NotConjugate("exponent patterns differ")

    va, vb = found.vertex, other.vertex
    result = bounded_reachability(
        build_reachability_instance(pres, mu, va.rep, nu, vb.rep), state_budget
    )
    if isinstance(result, InconclusiveSearch):
        return Inconclusive(result.explored, result.budget)
    if isinstance(result, DefinitivelyUnreachable):
        return NotConjugate(
            f"gcd powers are not conjugate (closure of {result.closure_size} states)"
        )
    witness = word_simplify(
        pres,
        concat(vb.carrier, replay_witness(pres, result.edges), invert_word(pres, va.carrier)),
    )
    verify_conjugator(pres, witness, first, second)
    return Conjugate(witness)
