"""Word problem and path-form reduction, checked against independent models.

The BS12 checks lean on the faithful affine model (a is x+1, t is 2x):
a word is trivial exactly when its affine map is the identity.  The
one-pass reduction is also checked against a two-pass model that first
writes out the whole detoured walk and then collapses it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    ALL_GRAPHS,
    NON_UNIMODULAR,
    a_pow,
    bs12_affine,
    express_in_vertex,
    free_product,
    presentation,
    random_word,
    t_pow,
)
from vgbs.graph import build_presentation
from vgbs.linalg import add_vec, zero_vec
from vgbs.words import (
    PathForm,
    StableSyllable,
    VertexSyllable,
    Word,
    commutator,
    concat,
    conjugate,
    invert_word,
    is_trivial,
    letter_word,
    path_form_word,
    reduced_form,
    vertex_word,
    word_power,
    word_simplify,
    words_equal,
)


@pytest.fixture(scope="module")
def bs12p():
    return presentation("bs12")


@pytest.fixture(scope="module")
def amalgp():
    return presentation("amalg")


def test_identity_and_letters(bs12p):
    assert is_trivial(bs12p, Word.identity())
    assert not is_trivial(bs12p, a_pow(1))
    assert is_trivial(bs12p, concat(t_pow(1), t_pow(-1)))
    assert is_trivial(bs12p, concat(t_pow(-1), t_pow(1)))
    assert not is_trivial(bs12p, t_pow(1))


def test_defining_relation(bs12p):
    # t a t^-1 = a^2
    w = concat(t_pow(1), a_pow(1), t_pow(-1), a_pow(-2))
    assert is_trivial(bs12p, w)
    assert not is_trivial(bs12p, concat(t_pow(1), a_pow(1), t_pow(-1), a_pow(-1)))
    # downward: t^-1 a^2 t = a
    assert is_trivial(bs12p, concat(t_pow(-1), a_pow(2), t_pow(1), a_pow(-1)))


def test_tree_letter_is_identity(amalgp):
    assert is_trivial(amalgp, letter_word("e1"))
    assert is_trivial(amalgp, letter_word("e1bar"))
    # a^2 = b^2 across the tree edge
    rel = concat(vertex_word("v0", (2,)), vertex_word("v1", (-2,)))
    assert is_trivial(amalgp, rel)
    assert not is_trivial(amalgp, concat(vertex_word("v0", (1,)), vertex_word("v1", (-1,))))


def test_express_in_vertex(amalgp, bs12p):
    assert express_in_vertex(amalgp, vertex_word("v0", (2,)), "v1") == (2,)
    assert express_in_vertex(amalgp, vertex_word("v0", (1,)), "v1") is None
    assert express_in_vertex(bs12p, concat(t_pow(1), a_pow(1), t_pow(-1)), "v0") == (2,)
    assert express_in_vertex(bs12p, concat(t_pow(-1), a_pow(1), t_pow(1)), "v0") is None
    assert express_in_vertex(bs12p, t_pow(1), "v0") is None


def test_free_group_letters():
    f2p = presentation("f2")
    comm = concat(
        letter_word("e1"), letter_word("e2"), letter_word("e1bar"), letter_word("e2bar")
    )
    assert not is_trivial(f2p, comm)
    assert is_trivial(f2p, concat(letter_word("e1"), letter_word("e1bar")))
    pf = reduced_form(f2p, comm)
    assert pf.length == 4


def test_rank_two_vertex_words():
    z2p = presentation("z2")
    assert is_trivial(z2p, concat(vertex_word("v0", (1, 2)), vertex_word("v0", (-1, -2))))
    assert not is_trivial(z2p, vertex_word("v0", (0, 1)))
    assert express_in_vertex(z2p, concat(vertex_word("v0", (1, 0)), vertex_word("v0", (0, 1))), "v0") == (1, 1)


def _bs12_words(seed, count, length):
    rng = random.Random(seed)
    pres = presentation("bs12")
    return pres, [random_word(rng, pres, rng.randint(0, length)) for _ in range(count)]


def test_word_problem_against_affine_model():
    pres, words = _bs12_words(101, 150, 14)
    for w in words:
        assert is_trivial(pres, w) == (bs12_affine(w) == (1, 0))


def test_inverse_and_power_against_affine_model(bs12p):
    rng = random.Random(202)
    for _ in range(40):
        w = random_word(rng, bs12p, rng.randint(0, 8))
        assert is_trivial(bs12p, concat(w, invert_word(bs12p, w)))
        p, q = bs12_affine(w)
        w3 = word_power(bs12p, w, 3)
        p3, q3 = bs12_affine(w3)
        assert p3 == p**3
        assert is_trivial(bs12p, w3) == ((p3, q3) == (1, 0))


def test_conjugate_commutator_shapes(bs12p):
    g = a_pow(1)
    h = t_pow(1)
    assert words_equal(bs12p, conjugate(bs12p, g, h), a_pow(2))
    assert words_equal(bs12p, commutator(bs12p, h, g), a_pow(1))


def test_simplify_preserves_element_and_shrinks(bs12p):
    rng = random.Random(303)
    for _ in range(60):
        w = random_word(rng, bs12p, rng.randint(0, 12))
        s = word_simplify(bs12p, w)
        assert len(s) <= len(w)
        assert bs12_affine(s) == bs12_affine(w)
        for x, y in zip(s.syllables, s.syllables[1:]):
            if isinstance(x, VertexSyllable) and isinstance(y, VertexSyllable):
                assert x.vertex != y.vertex
            if isinstance(x, StableSyllable) and isinstance(y, StableSyllable):
                assert bs12p.graph.edge(x.edge).reverse != y.edge


def test_reduced_form_is_reduced_and_stable(bs12p):
    rng = random.Random(404)
    for _ in range(40):
        w = random_word(rng, bs12p, rng.randint(0, 10))
        pf = reduced_form(bs12p, w)
        for i in range(pf.length - 1):
            if pf.edges[i].reverse == pf.edges[i + 1].id:
                assert bs12p.transport_across(pf.edges[i + 1], pf.terms[i + 1]) is None
        assert pf.vertices[0] == pf.vertices[-1] == "v0"
        assert reduced_form(bs12p, path_form_word(bs12p, pf)) == pf


def _two_pass_reduced_form(pres, w, base, end):
    """Model: write out the whole detoured walk, then collapse it."""
    verts, steps, terms = [base], [], [zero_vec(pres.vertex_rank(base))]

    def walk(route):
        for e in route:
            steps.append(e)
            verts.append(e.to)
            terms.append(zero_vec(pres.vertex_rank(e.to)))

    for s in w.syllables:
        if isinstance(s, VertexSyllable):
            walk(pres.tree_route(verts[-1], s.vertex))
            terms[-1] = add_vec(terms[-1], s.vec)
        else:
            e = pres.graph.edge(s.edge)
            walk(pres.tree_route(verts[-1], e.to) + (pres.reverse(e),))
    walk(pres.tree_route(verts[-1], end))
    out_v, out_s, out_t = [verts[0]], [], [terms[0]]
    for e, c_after in zip(steps, terms[1:]):
        if out_s and out_s[-1].reverse == e.id:
            moved = pres.transport_across(e, out_t[-1])
            if moved is not None:
                out_s.pop()
                out_v.pop()
                out_t.pop()
                out_t[-1] = add_vec(add_vec(out_t[-1], moved), c_after)
                continue
        out_s.append(e)
        out_v.append(e.to)
        out_t.append(c_after)
    return PathForm(tuple(out_v), tuple(out_s), tuple(out_t))


def test_one_pass_reduction_matches_two_pass_model():
    graphs = {**ALL_GRAPHS, **NON_UNIMODULAR, "free_product": free_product}
    rng = random.Random(505)
    for make in graphs.values():
        pres = build_presentation(make())
        names = [v.id for v in pres.graph.vertices]
        for _ in range(120):
            w = random_word(rng, pres, rng.randint(0, 12), max_coord=rng.choice([1, 4]))
            if rng.random() < 0.3:
                w = concat(w, invert_word(pres, w))
            base, end = rng.choice(names), rng.choice(names)
            assert reduced_form(pres, w, base, end) == _two_pass_reduced_form(pres, w, base, end)


def test_reduction_transports_terms(bs12p):
    # t a^4 t^-1 pinches towards the base: the middle term doubles
    w = concat(t_pow(1), a_pow(4), t_pow(-1))
    pf = reduced_form(bs12p, w)
    assert pf.length == 0 and pf.terms[0] == (8,)
    # t^-1 a^3 t cannot pinch: 3 is odd
    w2 = concat(t_pow(-1), a_pow(3), t_pow(1))
    pf2 = reduced_form(bs12p, w2)
    assert pf2.length == 2


@settings(deadline=None, max_examples=50)
@given(st.integers(-20, 20), st.integers(0, 4))
def test_conjugated_powers_against_affine_model(k, j):
    pres = presentation("bs12")
    # t^j a^k t^-j = a^(k·2^j)
    w = concat(t_pow(j), a_pow(k), t_pow(-j), a_pow(-k * 2**j))
    assert is_trivial(pres, w)


def test_klein_relation():
    kp = presentation("klein")
    assert is_trivial(kp, concat(t_pow(1), a_pow(1), t_pow(-1), a_pow(1)))
    assert not is_trivial(kp, concat(t_pow(1), a_pow(1), t_pow(-1), a_pow(-1)))
    # [t, a] = a^-2 in the Klein bottle group
    assert not is_trivial(kp, commutator(kp, t_pow(1), a_pow(1)))
    assert words_equal(kp, commutator(kp, t_pow(1), a_pow(1)), a_pow(-2))
