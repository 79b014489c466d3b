"""Conjugacy engine tests.

Expected answers were derived by hand from the defining relations
(t a t^-1 = a^2 in bs12, t a^2 t^-1 = a^3 in bs23, t a t^-1 = a^-1 in
klein, a^2 = b^2 in amalg) or checked against the free-group rotation
oracle for f2.
"""

import random

import pytest

from vgbs import conjugacy
from vgbs.conjugacy import (
    Conjugate,
    EllipticCertificate,
    EllipticUnsupported,
    HyperbolicWitness,
    InternalError,
    NotConjugate,
    ReducedToPolycyclic,
    centralizer_hyperbolic,
    conjugate_hyperbolic,
    find_hyperbolic_in_tuple,
    multi_conjugate,
    verify_conjugator,
)
from vgbs.linalg import AffineLattice, Lattice
from vgbs.tree import stabilizer_coords, translation_length
from vgbs.words import (
    Word,
    concat,
    conjugate,
    invert_word,
    is_trivial,
    vertex_word,
    word_power,
    word_simplify,
    words_equal,
)

from fixtures import (
    a_pow,
    cyclic_reduce,
    f2_word,
    free_conjugate,
    mixed_tuple,
    presentation,
    random_word,
    t_pow,
)


def _verify(pres, witness, first, second):
    w_inv = invert_word(pres, witness)
    for x, y in zip(first, second):
        assert is_trivial(pres, concat(witness, x, w_inv, invert_word(pres, y)))


# --- finding a hyperbolic element in a tuple ----------------------------


def test_find_hyperbolic_single():
    found = find_hyperbolic_in_tuple(presentation("bs12"), (a_pow(1), t_pow(1)))
    assert isinstance(found, HyperbolicWitness)
    assert found.indices == (1,)


def test_find_hyperbolic_product():
    p = presentation("amalg")
    found = find_hyperbolic_in_tuple(p, (a_pow(1), vertex_word("v1", (1,))))
    assert isinstance(found, HyperbolicWitness)
    assert found.indices == (0, 1)


def test_find_hyperbolic_product_disjoint_fixed_trees():
    # Fix(a^2) and t·Fix(a^3) are disjoint in bs23, so the product of the
    # two elliptics is hyperbolic.
    p = presentation("bs23")
    moved = conjugate(p, a_pow(3), t_pow(1))
    found = find_hyperbolic_in_tuple(p, (a_pow(2), moved))
    assert isinstance(found, HyperbolicWitness)
    assert found.indices == (0, 1)


def test_find_elliptic_certificate():
    p = presentation("bs12")
    found = find_hyperbolic_in_tuple(p, (a_pow(1), a_pow(2)))
    assert isinstance(found, EllipticCertificate)
    assert stabilizer_coords(p, found.vertex, a_pow(1)) is not None
    assert stabilizer_coords(p, found.vertex, a_pow(2)) is not None


def test_find_elliptic_certificate_needs_projection():
    # t a^2 t^-1 fixes {v0, t v0} and a^4 fixes {t^-2 v0 .. v0}; the
    # certificate must land in the overlap {v0}.
    p = presentation("bs23")
    items = (conjugate(p, a_pow(2), t_pow(1)), a_pow(4))
    found = find_hyperbolic_in_tuple(p, items)
    assert isinstance(found, EllipticCertificate)
    for w in items:
        assert stabilizer_coords(p, found.vertex, w) is not None


def test_find_empty_tuple_rejected():
    with pytest.raises(ValueError):
        find_hyperbolic_in_tuple(presentation("bs12"), ())


# --- conjugacy of single hyperbolic elements ----------------------------


def test_conjugate_hyperbolic_reflexive():
    p = presentation("bs12")
    ans = conjugate_hyperbolic(p, t_pow(1), t_pow(1))
    assert isinstance(ans, Conjugate)
    _verify(p, ans.witness, (t_pow(1),), (t_pow(1),))


def test_conjugate_hyperbolic_bs12_shifted():
    # a^-1 t a = a t, so t and a·t are conjugate by a^-1.
    p = presentation("bs12")
    ans = conjugate_hyperbolic(p, t_pow(1), concat(a_pow(1), t_pow(1)))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, a_pow(-1))


def test_conjugate_hyperbolic_length_mismatch():
    p = presentation("bs12")
    ans = conjugate_hyperbolic(p, t_pow(1), t_pow(2))
    assert isinstance(ans, NotConjugate)


def test_conjugate_hyperbolic_free_generators_differ():
    p = presentation("f2")
    ans = conjugate_hyperbolic(p, t_pow(1, "e1"), t_pow(1, "e2"))
    assert isinstance(ans, NotConjugate)


def test_conjugate_hyperbolic_rejects_elliptic():
    p = presentation("bs12")
    with pytest.raises(ValueError):
        conjugate_hyperbolic(p, a_pow(1), t_pow(1))


def test_conjugate_hyperbolic_matches_free_group_oracle():
    p = presentation("f2")
    rng = random.Random(11)
    alphabet = [1, -1, 2, -2]
    checked = 0
    while checked < 60:
        u = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            i = rng.randint(0, len(u) - 1)
            c = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
            v = c + u[i:] + u[:i] + [-x for x in reversed(c)]
        else:
            v = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        if not cyclic_reduce(u) or not cyclic_reduce(v):
            continue
        ans = conjugate_hyperbolic(p, f2_word(u), f2_word(v))
        assert isinstance(ans, Conjugate) == free_conjugate(u, v)
        if isinstance(ans, Conjugate):
            _verify(p, ans.witness, (f2_word(u),), (f2_word(v),))
        checked += 1


# --- centralizers -------------------------------------------------------


def test_centralizer_bs12():
    p = presentation("bs12")
    cen = centralizer_hyperbolic(p, t_pow(1))
    assert cen.elliptic.rank == 0
    assert words_equal(p, cen.shift_generator, t_pow(1))
    assert cen.basepoint.rep == "v0"


def test_centralizer_bs12_square():
    # C(t^2) is still just <t>: no nonzero a-power commutes.
    p = presentation("bs12")
    cen = centralizer_hyperbolic(p, word_power(p, t_pow(1), 2))
    assert cen.elliptic.rank == 0
    assert translation_length(p, cen.shift_generator) == 1


def test_centralizer_klein():
    p = presentation("klein")
    cen = centralizer_hyperbolic(p, t_pow(1))
    assert cen.elliptic.rank == 0
    assert translation_length(p, cen.shift_generator) == 1


def test_centralizer_klein_square():
    # t^2 commutes with a, so the elliptic part is all of Z and the
    # minimal hyperbolic is t itself.
    p = presentation("klein")
    cen = centralizer_hyperbolic(p, word_power(p, t_pow(1), 2))
    assert cen.elliptic == Lattice.full(1)
    assert translation_length(p, cen.shift_generator) == 1


def test_centralizer_amalgam():
    p = presentation("amalg")
    h = word_simplify(p, concat(a_pow(1), vertex_word("v1", (1,))))
    cen = centralizer_hyperbolic(p, h)
    assert cen.elliptic == Lattice.from_generators(1, [(2,)])
    assert translation_length(p, cen.shift_generator) == 2


def test_centralizer_rejects_elliptic():
    with pytest.raises(ValueError):
        centralizer_hyperbolic(presentation("bs12"), a_pow(1))


# --- tuple conjugacy ----------------------------------------------------


def test_multi_bs12_doubling():
    p = presentation("bs12")
    ans = multi_conjugate(p, (t_pow(1), a_pow(1)), (t_pow(1), a_pow(2)))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, t_pow(1))


def test_multi_bs12_power_ladder():
    # (t, a) ~ (t, a^k) exactly when k is a power of two: the only
    # conjugators commuting with t are its own powers, and t^m a t^-m
    # is a^(2^m).
    # The anchor t² needs the same shift 1, below its own period 2.
    p = presentation("bs12")
    for anchor in (t_pow(1), t_pow(2)):
        first = (anchor, a_pow(1))
        for k in range(2, 9):
            second = (anchor, a_pow(k))
            ans = multi_conjugate(p, first, second)
            if k in (2, 4, 8):
                assert isinstance(ans, Conjugate)
                _verify(p, ans.witness, first, second)
            else:
                assert isinstance(ans, NotConjugate)


def test_multi_bs23_shifted_segment():
    # t a^2 t^-1 = a^3 makes (t, a^2) and (t, a^3) conjugate by t, while
    # a^4 lives one more step down the axis than any conjugate of a^2.
    p = presentation("bs23")
    first = (t_pow(1), a_pow(2))
    ans = multi_conjugate(p, first, (t_pow(1), a_pow(3)))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, t_pow(1))
    assert isinstance(multi_conjugate(p, first, (t_pow(1), a_pow(4))), NotConjugate)


def test_multi_equal_tuples_take_identity_witness():
    p = presentation("bs23")
    pair = (t_pow(1), conjugate(p, a_pow(2), t_pow(-1)))
    ans = multi_conjugate(p, pair, pair)
    assert isinstance(ans, Conjugate)
    assert is_trivial(p, ans.witness)


def test_multi_symmetry():
    p = presentation("bs12")
    for k, kind in ((2, Conjugate), (3, NotConjugate)):
        forward = multi_conjugate(p, (t_pow(1), a_pow(1)), (t_pow(1), a_pow(k)))
        backward = multi_conjugate(p, (t_pow(1), a_pow(k)), (t_pow(1), a_pow(1)))
        assert isinstance(forward, kind) and isinstance(backward, kind)


def test_multi_trivial_coordinate_mismatch():
    p = presentation("bs12")
    ans = multi_conjugate(p, (t_pow(1), Word.identity()), (t_pow(1), a_pow(1)))
    assert isinstance(ans, NotConjugate)


def test_multi_klein_reduces_to_polycyclic():
    # Every elliptic in klein fixes the whole tree, so nothing pins a
    # shift and the instance is handed back as lattice-by-shift data.
    p = presentation("klein")
    t2 = word_power(p, t_pow(1), 2)
    ans = multi_conjugate(p, (t2, a_pow(1)), (t2, a_pow(-1)))
    assert isinstance(ans, ReducedToPolycyclic)
    assert len(ans.pairs) == 2
    assert ans.elliptic == Lattice.full(1)
    assert translation_length(p, ans.shift_generator) == 1


def test_multi_whole_axis_tuple_matched_by_the_alignment():
    # every coordinate of (t, t²) fixes the whole t axis, so no anchor
    # pins the shift, but the conjugator aligning t with a·t·a⁻¹ already
    # carries each pair: the tuple is decided, not reduced
    p = presentation("bs12")
    first = (t_pow(1), word_power(p, t_pow(1), 2))
    second = tuple(conjugate(p, x, a_pow(1)) for x in first)
    ans = multi_conjugate(p, first, second)
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, a_pow(1))
    _verify(p, ans.witness, first, second)


def test_multi_elliptic_high_rank_unsupported():
    p = presentation("z4f2")
    first = (vertex_word("v0", (1, 0, 0, 0)),)
    second = (vertex_word("v0", (0, 1, 0, 0)),)
    ans = multi_conjugate(p, first, second)
    assert isinstance(ans, EllipticUnsupported)


def test_multi_rejects_bad_shapes():
    p = presentation("bs12")
    with pytest.raises(ValueError):
        multi_conjugate(p, (t_pow(1),), (t_pow(1), a_pow(1)))
    with pytest.raises(ValueError):
        multi_conjugate(p, (), ())


def test_multi_recovers_random_conjugations():
    rng = random.Random(23)
    # neither coordinate of the amalg pair is hyperbolic: the anchor is their product
    pair = (vertex_word("v0", (1,)), vertex_word("v1", (1,)))
    for i in range(35):
        name = rng.choice(["bs12", "bs23", "amalg"]) if i < 25 else "amalg"
        pres = presentation(name)
        first = mixed_tuple(name, pres, rng) if i < 25 else pair
        g = random_word(rng, pres, rng.randint(1, 4))
        second = tuple(
            word_simplify(pres, conjugate(pres, x, g)) for x in first
        )
        ans = multi_conjugate(pres, first, second)
        assert isinstance(ans, Conjugate)
        _verify(pres, ans.witness, first, second)


def test_multi_anchored_tuple_aligns_once(monkeypatch):
    # One coordinate pins the axis alignment, so the conjugator is solved
    # at one vertex: one local coset per coordinate, no scans.
    def refuse(*args):
        raise AssertionError("scan called on an anchored tuple")

    monkeypatch.setattr(conjugacy, "conjugate_hyperbolic", refuse)
    monkeypatch.setattr(conjugacy, "centralizer_hyperbolic", refuse)
    calls = []
    real = conjugacy.local_conjugators

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conjugacy, "local_conjugators", counted)
    p = presentation("bs12")
    h = concat(t_pow(1), a_pow(1), t_pow(2), a_pow(-1), t_pow(1))
    assert translation_length(p, h) == 4
    first = (h, a_pow(1))
    by = concat(a_pow(1), t_pow(1), a_pow(1))
    second = tuple(word_simplify(p, conjugate(p, x, by)) for x in first)
    ans = multi_conjugate(p, first, second)
    assert isinstance(ans, Conjugate)
    _verify(p, ans.witness, first, second)
    assert len(calls) == len(first)


# --- the translation-profile cache lasts one query ----------------------


def test_multi_conjugate_leaves_no_profiles_behind():
    pres = presentation("bs12")
    rng = random.Random(97)
    for i in range(50):
        if i % 5 == 4:
            # elliptic tuples go to the reachability search
            first = (a_pow(rng.choice([1, 2, 3])),)
        else:
            first = mixed_tuple("bs12", pres, rng)
        by = random_word(rng, pres, rng.randint(1, 4))
        second = tuple(word_simplify(pres, conjugate(pres, x, by)) for x in first)
        if i % 3 == 2:
            second = (concat(second[0], a_pow(1)),) + second[1:]
        multi_conjugate(pres, first, second)
        assert pres._profiles == {}
    with pytest.raises(ValueError):
        multi_conjugate(pres, (t_pow(1),), ())
    assert pres._profiles == {}


# --- witness replays are explicit checks --------------------------------
# (the optimized CI job runs these under python -O, with src asserts gone)


def test_verify_conjugator():
    pres = presentation("bs12")
    first = (t_pow(1), a_pow(1))
    second = (concat(a_pow(1), t_pow(1), a_pow(-1)), a_pow(1))
    verify_conjugator(pres, a_pow(1), first, second)
    with pytest.raises(InternalError):
        verify_conjugator(pres, a_pow(2), first, second)


@pytest.mark.parametrize(
    "name, entry",
    [
        pytest.param("local_conjugators", multi_conjugate, id="local_conjugators"),
        pytest.param("intersect_affine", multi_conjugate, id="intersect_affine"),
        pytest.param(
            "local_conjugators",
            lambda pres, first, second: centralizer_hyperbolic(pres, first[0]),
            id="centralizer_hyperbolic",
        ),
    ],
)
def test_wrong_coset_raises_internal_error(monkeypatch, name, entry):
    # a wrong local coset or a wrong intersection fails the final replay
    # in multi_conjugate, and a wrong coset fails the commutator checks in
    # centralizer_hyperbolic
    real = getattr(conjugacy, name)

    def wrong(*args):
        sol = real(*args)
        return None if sol is None else AffineLattice.point(tuple(x + 1 for x in sol.base))

    monkeypatch.setattr(conjugacy, name, wrong)
    pres = presentation("bs12")
    first = (t_pow(1), a_pow(1))
    by = concat(a_pow(1), t_pow(1))
    second = tuple(word_simplify(pres, conjugate(pres, x, by)) for x in first)
    with pytest.raises(InternalError):
        entry(pres, first, second)


def test_wrong_reachability_witness_raises_internal_error(monkeypatch):
    monkeypatch.setattr(conjugacy, "replay_witness", lambda pres, edges: a_pow(1))
    pres = presentation("bs12")
    # a = t⁻¹·a²·t, found by the search as one crossing of the loop
    with pytest.raises(InternalError):
        multi_conjugate(pres, (a_pow(2),), (a_pow(1),))
