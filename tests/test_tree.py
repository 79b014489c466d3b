"""Tree navigation: normal forms, distances, translation profiles, axis walks."""

import random
from time import perf_counter

import pytest

from fixtures import ALL_GRAPHS, a_pow, express_in_vertex, presentation, random_word, t_pow
from vgbs.graph import query_scope
from vgbs.tree import (
    HYPERBOLIC,
    ELLIPTIC,
    TreeVertex,
    _translate,
    axis_offset,
    axis_vertex,
    base_vertex,
    char_distance,
    distance,
    stabilizer_coords,
    stabilizer_element,
    translate,
    translation_length,
    translation_profile,
    tree_path,
)
from vgbs.words import (
    Word,
    concat,
    conjugate,
    invert_word,
    is_trivial,
    loop_form,
    reduced_form,
    vertex_word,
)


@pytest.fixture(scope="module")
def bs12p():
    return presentation("bs12")


def _v(pres, w: Word) -> TreeVertex:
    return translate(pres, w, base_vertex(pres))


def test_tree_path_basics(bs12p):
    v0 = base_vertex(bs12p)
    assert tree_path(bs12p, v0, v0).length == 0
    assert distance(bs12p, v0, _v(bs12p, t_pow(1))) == 1
    assert distance(bs12p, v0, _v(bs12p, concat(a_pow(1), t_pow(1)))) == 1
    assert distance(bs12p, _v(bs12p, t_pow(-1)), _v(bs12p, t_pow(1))) == 2


def test_distinct_neighbors(bs12p):
    # a·t·v0 and t·v0 are different neighbors of v0: a = t a^k t^-1 has no solution
    x = _v(bs12p, t_pow(1))
    y = _v(bs12p, concat(a_pow(1), t_pow(1)))
    assert x != y
    assert _v(bs12p, a_pow(2)) == base_vertex(bs12p)
    # a^2·t·v0 = t·a·v0 = t·v0 by the relation
    assert _v(bs12p, concat(a_pow(2), t_pow(1))) == x


def test_vertex_equality_is_equivalence(bs12p):
    rng = random.Random(505)
    vs = [_v(bs12p, random_word(rng, bs12p, rng.randint(0, 5))) for _ in range(6)]
    for x in vs:
        assert x == x
        for y in vs:
            assert (x == y) == (y == x)
            for z in vs:
                if x == y and y == z:
                    assert x == z


def test_distance_is_a_metric(bs12p):
    rng = random.Random(606)
    vs = [_v(bs12p, random_word(rng, bs12p, rng.randint(0, 5))) for _ in range(5)]
    for x in vs:
        for y in vs:
            dxy = distance(bs12p, x, y)
            assert dxy == distance(bs12p, y, x)
            assert (dxy == 0) == (x == y)
            for z in vs:
                assert distance(bs12p, x, z) <= dxy + distance(bs12p, y, z)


def _sample_vertices(pres, rng, n=40):
    """(vertex, word) pairs with vertex = word·ṽ_rep: translates of random
    words, vertices on their geodesics from the base vertex, random
    translates of those, and the same vertices moved by one of their own
    stabilizer elements."""
    v0 = base_vertex(pres)
    pairs = []
    while len(pairs) < n:
        g = random_word(rng, pres, rng.randint(0, 6))
        x = translate(pres, g, v0)
        path = tree_path(pres, v0, x)
        y = path.vertex(rng.randint(0, path.length))
        base, word = rng.choice(pairs + [(y, y.carrier)])
        h = random_word(rng, pres, rng.randint(0, 4))
        z = translate(pres, h, base)
        vec = [rng.randint(-3, 3) for _ in range(pres.vertex_rank(z.rep))]
        s = stabilizer_element(pres, z, vec)
        pairs += [
            (x, g),
            (y, y.carrier),
            (z, concat(h, word)),
            (translate(pres, s, z), concat(s, h, word)),
        ]
    return pairs[:n]


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_normal_form_matches_word_problem(name):
    # reference: the definitions by word problem the normal forms replace
    pres = presentation(name)
    rng = random.Random(808)
    pairs = _sample_vertices(pres, rng)
    for x, word in pairs:
        shift = concat(invert_word(pres, x.carrier), word)
        assert express_in_vertex(pres, shift, x.rep) is not None
    vs = [x for x, _ in pairs]
    seen = set()
    for x in vs:
        for y in vs:
            shift = concat(invert_word(pres, x.carrier), y.carrier)
            same = x.rep == y.rep and express_in_vertex(pres, shift, x.rep) is not None
            assert (x == y) == same
            if same:
                assert hash(x) == hash(y)
            seen.add(same)
            expected = reduced_form(pres, shift, base=x.rep, end=y.rep).length
            assert distance(pres, x, y) == expected
    assert seen == ({True} if name == "z2" else {True, False})


def test_stabilizer_coords(bs12p):
    tv0 = _v(bs12p, t_pow(1))
    assert stabilizer_coords(bs12p, tv0, a_pow(2)) == (1,)
    assert stabilizer_coords(bs12p, tv0, a_pow(1)) is None
    back = stabilizer_element(bs12p, tv0, (3,))
    assert is_trivial(bs12p, concat(back, a_pow(-6)))


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_stabilizer_coords_match_word_problem(name):
    # reference: carrier(x)⁻¹·w·carrier(x) expressed in the group at x.rep
    # by Britton reduction, for x on random geodesics and w a random word,
    # a stabilizer element of x, or a stabilizer element times a word
    pres = presentation(name)
    rng = random.Random(1313)
    v0 = base_vertex(pres)
    outcomes = set()
    for _ in range(150):
        g = random_word(rng, pres, rng.randint(0, 6))
        path = tree_path(pres, v0, translate(pres, g, v0))
        x = path.vertex(rng.randint(0, path.length))
        if rng.random() < 0.4:
            w = random_word(rng, pres, rng.randint(0, 6))
        else:
            vec = [rng.randint(-3, 3) for _ in range(pres.vertex_rank(x.rep))]
            w = stabilizer_element(pres, x, vec)
            if rng.random() < 0.3:
                w = concat(w, random_word(rng, pres, rng.randint(1, 3)))
        moved = concat(invert_word(pres, x.carrier), w, x.carrier)
        expected = express_in_vertex(pres, moved, x.rep)
        assert stabilizer_coords(pres, x, w) == expected
        outcomes.add(expected is not None)
    assert outcomes == ({True} if name == "z2" else {True, False})


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_warm_records_match_cold(name):
    # inside one query translate reads g's loop and forward pass from the
    # record that earlier calls filled; those answers must equal the ones
    # computed outside any query, which keeps no record.  Vertices are
    # reached by random words, words run up to 64 syllables, and g = u⁻¹
    # and g = w·(u·v)⁻¹ for x = (u·v)·base pinch their loops into x's steps
    pres = presentation(name)
    rng = random.Random(2424)
    v0 = base_vertex(pres)

    @query_scope
    def warm(pres, pairs):
        return [
            (_translate(pres, g, y), stabilizer_coords(pres, y, g), is_trivial(pres, g))
            for g, y in pairs
        ]

    corners = set()
    for _ in range(10):
        u = random_word(rng, pres, rng.randint(0, 32))
        v = random_word(rng, pres, rng.randint(0, 32))
        x = translate(pres, concat(u, v), v0)
        vec = [rng.randint(-3, 3) for _ in range(pres.vertex_rank(x.rep))]
        gs = [
            random_word(rng, pres, rng.randint(0, 64)),
            invert_word(pres, u),
            concat(random_word(rng, pres, rng.randint(0, 8)), invert_word(pres, concat(u, v))),
            stabilizer_element(pres, x, vec),
        ]
        pairs = [(g, y) for g in gs for y in (x, v0, translate(pres, u, v0))]
        for g, h in zip(gs[:2], gs[2:]):
            # the action composes: (g·h)·x = g·(h·x)
            assert translate(pres, concat(g, h), x) == translate(pres, g, translate(pres, h, x))
        for (g, y), answer in zip(pairs, warm(pres, pairs)):
            assert answer == (
                _translate(pres, g, y),
                stabilizer_coords(pres, y, g),
                is_trivial(pres, g),
            )
            # m steps of g's loop survive the junction and kept steps of y
            # are pinched: |g·y| = |loop| + |y| − 2·kept
            n, gy = len(loop_form(pres, g).edges), answer[0][0]
            kept = (n + len(y.steps) - len(gy.steps)) // 2
            corners.add((n - kept == 0, kept == len(y.steps) > 0))
        assert pres._words == {}
    if name != "z2":
        assert {(True, False), (False, True), (True, True)} <= corners


def test_translation_profiles(bs12p):
    prof = translation_profile(bs12p, a_pow(1))
    assert prof.kind == ELLIPTIC and prof.length == 0
    assert prof.fixed == base_vertex(bs12p)

    t_prof = translation_profile(bs12p, t_pow(1))
    assert t_prof.kind == HYPERBOLIC and t_prof.length == 1
    fd = t_prof.fundamental_domain
    assert fd.length == 1
    assert translate(bs12p, t_pow(1), fd.start) == fd.end


def test_amalgam_product_translates():
    ap = presentation("amalg")
    ab = concat(vertex_word("v0", (1,)), vertex_word("v1", (1,)))
    prof = translation_profile(ap, ab)
    assert prof.kind == HYPERBOLIC and prof.length == 2
    assert translation_profile(ap, vertex_word("v1", (1,))).kind == ELLIPTIC
    fixed = translation_profile(ap, vertex_word("v1", (1,))).fixed
    assert fixed.rep == "v1"


def test_length_of_powers_and_conjugates(bs12p):
    rng = random.Random(707)
    assert translation_length(bs12p, t_pow(1)) == 1
    for n in range(-3, 4):
        assert translation_length(bs12p, t_pow(n)) == abs(n)
    for _ in range(8):
        u = random_word(rng, bs12p, rng.randint(0, 5))
        assert translation_length(bs12p, conjugate(bs12p, t_pow(1), u)) == 1
        assert translation_length(bs12p, conjugate(bs12p, a_pow(3), u)) == 0


def test_on_characteristic_space(bs12p):
    v0 = base_vertex(bs12p)
    assert char_distance(bs12p, a_pow(1), v0) == 0
    assert char_distance(bs12p, a_pow(1), _v(bs12p, t_pow(1))) == 1
    assert char_distance(bs12p, a_pow(1), _v(bs12p, t_pow(-1))) == 0
    # every fundamental-domain vertex is on the axis
    fd = translation_profile(bs12p, t_pow(1)).fundamental_domain
    for i in range(fd.length + 1):
        x = fd.vertex(i)
        assert char_distance(bs12p, t_pow(1), x) == 0


def _scan_profile(pres, w):
    """The translation profile by the scan the displacement identity
    replaced: the first vertex of least displacement on [x0, w·x0]."""
    x0 = base_vertex(pres)
    first = tree_path(pres, x0, translate(pres, w, x0))
    best = None
    for i in range(first.length + 1):
        x = first.vertex(i)
        px = tree_path(pres, x, translate(pres, w, x))
        if best is None or px.length < best.length:
            best = px
    if best.length == 0:
        return ELLIPTIC, 0, best.start, stabilizer_coords(pres, best.start, w), None
    return HYPERBOLIC, best.length, None, None, best


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_profile_and_projection_match_scan(name):
    pres = presentation(name)
    rng = random.Random(909)
    vertices = [x for x, _ in _sample_vertices(pres, rng, 12)]
    kinds = set()
    for i in range(32):
        w = random_word(rng, pres, rng.randint(0, 10))
        if i % 2:
            # a conjugate of a vertex element is elliptic
            v = rng.choice(pres.graph.vertices)
            vec = [rng.randint(-3, 3) for _ in range(v.rank)]
            w = conjugate(pres, vertex_word(v.id, vec), w)
        kind, length, fixed, coords, domain = _scan_profile(pres, w)
        prof = translation_profile(pres, w)
        assert (prof.kind, prof.length, prof.fixed) == (kind, length, fixed)
        assert (prof.coords, prof.fundamental_domain) == (coords, domain)
        kinds.add(kind)
        anchor = fixed if kind == ELLIPTIC else domain.start
        for x in rng.sample(vertices, 4):
            # geodesic length from x to the first vertex on Char w
            path = tree_path(pres, x, anchor)
            near = next(
                j
                for j in range(path.length + 1)
                if distance(pres, path.vertex(j), translate(pres, w, path.vertex(j))) == length
            )
            assert char_distance(pres, w, x) == near
    assert kinds == ({ELLIPTIC, HYPERBOLIC} if pres.graph.edges else {ELLIPTIC})


def test_axis_walk(bs12p):
    v0 = base_vertex(bs12p)
    t = t_pow(1)
    for k in range(-3, 4):
        assert axis_vertex(bs12p, t, v0, k) == _v(bs12p, t_pow(k))
    x = axis_vertex(bs12p, t, v0, 2)
    assert axis_offset(bs12p, t, v0, x) == 2
    assert axis_offset(bs12p, t, x, v0) == -2
    assert axis_offset(bs12p, t, x, x) == 0
    # the geodesic to t·a·t·v0 starts along the axis, then leaves it
    with pytest.raises(ValueError):
        axis_offset(bs12p, t, v0, _v(bs12p, concat(t, a_pow(1), t)))
    with pytest.raises(ValueError, match="not on the axis"):
        axis_vertex(bs12p, t, _v(bs12p, concat(t_pow(1), a_pow(1), t_pow(1))), 1)


def test_long_axis_walks_are_fast(bs12p):
    v0 = base_vertex(bs12p)
    t = t_pow(1)
    begin = perf_counter()
    assert axis_offset(bs12p, t, v0, _v(bs12p, t_pow(3000))) == 3000
    far = axis_vertex(bs12p, t, v0, -1000)
    assert far == _v(bs12p, t_pow(-1000))
    assert char_distance(bs12p, t, far) == 0
    # t^-1000·a·t·v0 hangs one edge off the axis at far
    assert char_distance(bs12p, t, _v(bs12p, concat(t_pow(-1000), a_pow(1), t_pow(1)))) == 1
    assert perf_counter() - begin < 1.0


def test_f2_translation_lengths():
    fp = presentation("f2")
    from vgbs.words import letter_word

    x = letter_word("e1")
    y = letter_word("e2")
    assert translation_length(fp, x) == 1
    assert translation_length(fp, concat(x, y)) == 2
    comm = concat(x, y, letter_word("e1bar"), letter_word("e2bar"))
    assert translation_length(fp, comm) == 4
