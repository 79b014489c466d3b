"""Shared example graphs used across the test suite.

Loop fixtures follow one convention: the loop edge e<k> runs the stable
letter t with t · (inj_initial image) · t⁻¹ = inj_terminal image, so BS12
satisfies t a t⁻¹ = a².
"""

import random
from fractions import Fraction

from vgbs.graph import Edge, VGBSGraph, Vertex, build_presentation
from vgbs.linalg import IntMatrix, IntVec
from vgbs.words import (
    StableSyllable,
    VertexSyllable,
    Word,
    concat,
    conjugate,
    reduced_form,
    vertex_word,
    word_power,
    word_simplify,
)


def _loop_pair(eid: str, vid: str, rank: int, initial, terminal) -> tuple[Edge, Edge]:
    fwd = Edge(eid, vid, vid, rank, initial, terminal, eid + "bar")
    bwd = Edge(eid + "bar", vid, vid, rank, terminal, initial, eid)
    return fwd, bwd


def _m(rows, cols):
    return IntMatrix.from_rows(rows, cols=cols)


MERSENNE_61 = 2**61 - 1


def bs(p: int, q: int) -> VGBSGraph:
    """BS(p, q) as one rank-1 vertex with a loop: t a^p t⁻¹ = a^q."""
    return VGBSGraph(
        (Vertex("v0", 1),),
        _loop_pair("e1", "v0", 1, _m([[p]], 1), _m([[q]], 1)),
    )


def bs12() -> VGBSGraph:
    return bs(1, 2)


def bs23() -> VGBSGraph:
    return bs(2, 3)


def klein() -> VGBSGraph:
    return bs(1, -1)


def amalg() -> VGBSGraph:
    fwd = Edge("e1", "v0", "v1", 1, _m([[2]], 1), _m([[2]], 1), "e1bar")
    bwd = Edge("e1bar", "v1", "v0", 1, _m([[2]], 1), _m([[2]], 1), "e1")
    return VGBSGraph((Vertex("v0", 1), Vertex("v1", 1)), (fwd, bwd))


def z2() -> VGBSGraph:
    return VGBSGraph((Vertex("v0", 2),), ())


def f2() -> VGBSGraph:
    zero = _m([], 0)
    return VGBSGraph(
        (Vertex("v0", 0),),
        _loop_pair("e1", "v0", 0, zero, zero) + _loop_pair("e2", "v0", 0, zero, zero),
    )


def free_product() -> VGBSGraph:
    """Z∗Z: two rank-1 vertices joined by an edge with trivial edge group."""
    empty = _m([[]], 0)
    fwd = Edge("e1", "v0", "v1", 0, empty, empty, "e1bar")
    bwd = Edge("e1bar", "v1", "v0", 0, empty, empty, "e1")
    return VGBSGraph((Vertex("v0", 1), Vertex("v1", 1)), (fwd, bwd))


def z4f2() -> VGBSGraph:
    ident = IntMatrix.identity(4)
    shear = _m([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)
    cycle = _m([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
    return VGBSGraph(
        (Vertex("v0", 4),),
        _loop_pair("e1", "v0", 4, ident, shear) + _loop_pair("e2", "v0", 4, ident, cycle),
    )


def hnn(rank: int, initial, terminal) -> VGBSGraph:
    """One rank-r vertex with one loop: t · s(initial·x) · t⁻¹ = s(terminal·x).
    The edge group's rank is the column count of the matrices."""
    edge_rank = len(initial[0])
    return VGBSGraph(
        (Vertex("v0", rank),),
        _loop_pair("e1", "v0", edge_rank, _m(initial, edge_rank), _m(terminal, edge_rank)),
    )


# HNN loops whose edge maps are not unimodular, at ranks 2 and 3
NON_UNIMODULAR = {
    "rank2": lambda: hnn(2, [[2, 1], [0, 3]], [[1, 0], [1, 2]]),
    "rank3": lambda: hnn(
        3, [[2, 0, 1], [0, 1, 0], [0, 0, 3]], [[1, 0, 0], [0, 2, 0], [1, 0, 1]]
    ),
}


ALL_GRAPHS = {
    "bs12": bs12,
    "bs23": bs23,
    "klein": klein,
    "amalg": amalg,
    "z2": z2,
    "f2": f2,
    "z4f2": z4f2,
}


def presentation(name: str):
    return build_presentation(ALL_GRAPHS[name]())


def a_pow(k: int, vertex: str = "v0") -> Word:
    return vertex_word(vertex, (k,))


def t_pow(k: int, edge: str = "e1") -> Word:
    eid = edge if k >= 0 else edge + "bar"
    return Word(tuple(StableSyllable(eid) for _ in range(abs(k))))


def random_word(rng: random.Random, pres, n_syllables: int, max_coord: int = 3) -> Word:
    """Uniform-ish garbage words: random vertex syllables and letters."""
    verts = [v for v in pres.graph.vertices]
    edges = list(pres.graph.edges)
    syllables = []
    for _ in range(n_syllables):
        if edges and (not verts or rng.random() < 0.5):
            syllables.append(StableSyllable(rng.choice(edges).id))
        else:
            v = rng.choice(verts)
            vec = tuple(rng.randint(-max_coord, max_coord) for _ in range(v.rank))
            syllables.append(VertexSyllable(v.id, vec))
    return Word(tuple(syllables))


def express_in_vertex(pres, w: Word, vertex: str) -> IntVec | None:
    """Coordinates of w in the group at the given vertex, or None when w
    does not belong to it: a Britton reference, complete because a
    reduced loop of positive length never lies in a vertex group."""
    pf = reduced_form(pres, w, base=vertex, end=vertex)
    return pf.terms[0] if pf.length == 0 else None


def bs12_affine(w: Word) -> tuple[Fraction, Fraction]:
    """Faithful model of BS(1,2): a is x+1, the letter of e1 is 2x.

    Returns (p, q) for x ↦ p·x + q, composing so the leftmost syllable
    acts last (matching left-to-right word multiplication).
    """
    p, q = Fraction(1), Fraction(0)
    for s in reversed(w.syllables):
        if isinstance(s, VertexSyllable):
            sp, sq = Fraction(1), Fraction(s.vec[0])
        elif s.edge == "e1":
            sp, sq = Fraction(2), Fraction(0)
        else:
            sp, sq = Fraction(1, 2), Fraction(0)
        p, q = sp * p, sp * q + sq
    return p, q


# Free-group oracle for the f2 fixture: elements as integer letter lists
# (1 = e1, -1 = e1bar, 2 = e2, -2 = e2bar), conjugacy by rotation of the
# cyclic reduction.

F2_LETTER = {1: "e1", -1: "e1bar", 2: "e2", -2: "e2bar"}


def f2_word(letters) -> Word:
    return Word(tuple(StableSyllable(F2_LETTER[c]) for c in letters))


def free_reduce(letters):
    out = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def cyclic_reduce(letters):
    out = free_reduce(letters)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return out


def free_conjugate(u, v) -> bool:
    u, v = cyclic_reduce(u), cyclic_reduce(v)
    if len(u) != len(v):
        return False
    return any(v == u[i:] + u[:i] for i in range(max(len(u), 1)))


def mixed_tuple(name: str, pres, rng: random.Random):
    """A tuple generating a non-elliptic subgroup with an off-axis
    elliptic coordinate, so the conjugacy engine can pin the shift."""
    if name == "amalg":
        hyper = word_simplify(
            pres, concat(vertex_word("v0", (1,)), vertex_word("v1", (1,)))
        )
        ell = a_pow(rng.choice([-3, -1, 1, 3]))
    else:
        hyper = t_pow(1)
        ell = a_pow(rng.choice([-2, -1, 1, 2]))
    moved = conjugate(pres, ell, word_power(pres, hyper, rng.randint(-1, 1)))
    items = [word_power(pres, hyper, rng.randint(1, 2)), word_simplify(pres, moved)]
    if rng.random() < 0.4:
        items.append(word_simplify(pres, conjugate(pres, hyper, ell)))
    return tuple(items)
