"""Reachability encoding and elliptic tuple conjugacy over rank-1 graphs.

Expected closures were enumerated by hand: in bs23 the exponent 2 can
only become 3 and back (t a^2 t^-1 = a^3), in klein conjugation only
flips signs, and in bs12 exponents double going up the ladder.
"""

import random
from collections import deque
from time import perf_counter

import pytest

from vgbs.conjugacy import (
    Conjugate,
    EllipticUnsupported,
    Inconclusive,
    NotConjugate,
    multi_conjugate,
)
from vgbs.gbs import (
    DefinitivelyUnreachable,
    InconclusiveSearch,
    Reachable,
    VASState,
    VASTransition,
    _valuation,
    bounded_reachability,
    build_reachability_instance,
    replay_witness,
)
from vgbs.linalg import InternalError
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

from vgbs.graph import Edge, VGBSGraph, Vertex, build_presentation
from vgbs.linalg import IntMatrix
from vgbs.tree import translation_profile

from fixtures import MERSENNE_61, a_pow, bs, free_product, presentation, t_pow

PRIME_1E12 = 999_999_999_989


# --- exponent form ------------------------------------------------------


def _exponent_form(p, g):
    profile = translation_profile(p, g)
    return profile.fixed.rep, profile.coords[0], invert_word(p, profile.fixed.carrier)


def test_exponent_form_conjugated_power():
    p = presentation("bs12")
    g = conjugate(p, a_pow(1), t_pow(1))
    vertex, exponent, mover = _exponent_form(p, g)
    assert (vertex, exponent) == ("v0", 2)
    assert is_trivial(
        p, concat(mover, g, invert_word(p, mover), a_pow(-exponent))
    )


def test_exponent_form_replay_invariant():
    p = presentation("bs23")
    for g in (a_pow(5), conjugate(p, a_pow(2), concat(a_pow(1), t_pow(1)))):
        vertex, exponent, mover = _exponent_form(p, g)
        target = vertex_word(vertex, (exponent,))
        assert is_trivial(
            p, concat(mover, g, invert_word(p, mover), invert_word(p, target))
        )


# --- instance encoding --------------------------------------------------


def test_instance_encoding_bs23():
    inst = build_reachability_instance(presentation("bs23"), 2, "v0", 3, "v0")
    assert inst.base == (2, 3)
    assert inst.source == VASState((1, 0), 1, "v0")
    assert inst.target == VASState((0, 1), 1, "v0")
    by_edge = {tr.edge: tr for tr in inst.transitions}
    assert by_edge["e1"] == VASTransition("e1", (1, 0), (-1, 1), False, "v0", "v0")
    assert by_edge["e1bar"] == VASTransition("e1bar", (0, 1), (1, -1), False, "v0", "v0")


@pytest.mark.parametrize(
    "p, q, expected",
    [(6, 36, (6,)), (4, 6, (2, 3)), (2, PRIME_1E12, (2, PRIME_1E12))],
)
def test_instance_base_is_coprime_not_prime(p, q, expected):
    # The base need not be prime: 6 and 36 refine to 6 alone, and a large
    # prime scalar stays as itself without being factored.
    inst = build_reachability_instance(build_presentation(bs(p, q)), p, "v0", q, "v0")
    assert inst.base == expected
    assert bounded_reachability(inst) == Reachable(("e1",))


def test_valuation_rejects_numbers_outside_the_base():
    assert _valuation(-72, (2, 3)) == (3, 2)
    with pytest.raises(InternalError):
        _valuation(10, (2, 3))


def test_instance_rejects_zero_exponent():
    with pytest.raises(ValueError):
        build_reachability_instance(presentation("bs23"), 0, "v0", 3, "v0")


# --- bounded search -----------------------------------------------------


def test_reach_bs23_up_one_step():
    inst = build_reachability_instance(presentation("bs23"), 2, "v0", 3, "v0")
    assert bounded_reachability(inst) == Reachable(("e1",))


def test_reach_bs23_doubling_is_impossible():
    # The closure of exponent 2 is {2, 3}: the guards block everything else.
    inst = build_reachability_instance(presentation("bs23"), 2, "v0", 4, "v0")
    assert bounded_reachability(inst) == DefinitivelyUnreachable(2)


def test_reach_klein_flips_sign():
    inst = build_reachability_instance(presentation("klein"), 1, "v0", -1, "v0")
    assert inst.base == ()
    assert bounded_reachability(inst) == Reachable(("e1",))


def test_reach_identity_instance():
    inst = build_reachability_instance(presentation("bs23"), 2, "v0", 2, "v0")
    assert bounded_reachability(inst) == Reachable(())


def test_reach_budget_exhaustion():
    inst = build_reachability_instance(presentation("bs23"), 2, "v0", 4, "v0")
    tiny = bounded_reachability(inst, state_budget=1)
    assert isinstance(tiny, InconclusiveSearch) and tiny.budget == 1
    with pytest.raises(ValueError):
        bounded_reachability(inst, state_budget=0)


def test_budget_is_checked_before_any_search():
    # neither query reaches bounded_reachability: the first is decided
    # because its tuples are equal, the second by its exponent patterns
    p = presentation("bs23")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="state budget must be positive"):
            multi_conjugate(p, (t_pow(1),), (t_pow(1),), state_budget=budget)
        with pytest.raises(ValueError, match="state budget must be positive"):
            multi_conjugate(p, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(9)), budget)


def test_reach_bs12_ladder_and_replay():
    p = presentation("bs12")
    inst = build_reachability_instance(p, 1, "v0", 4, "v0")
    result = bounded_reachability(inst)
    assert result == Reachable(("e1", "e1"))
    mover = replay_witness(p, result.edges)
    assert is_trivial(p, concat(mover, a_pow(1), invert_word(p, mover), a_pow(-4)))


def test_reach_replay_sweep():
    # Every Reachable answer must replay in the group; every definitive
    # no must at least survive a short brute-force probe.
    rng = random.Random(5)
    for name in ("bs12", "bs23", "klein"):
        p = presentation(name)
        letters = [t_pow(1), t_pow(-1), a_pow(1), a_pow(-1)]
        for _ in range(12):
            m = rng.randint(1, 6)
            n = rng.choice([x for x in range(-6, 7) if x])
            inst = build_reachability_instance(p, m, "v0", n, "v0")
            result = bounded_reachability(inst, state_budget=200)
            if isinstance(result, Reachable):
                mover = replay_witness(p, result.edges)
                assert is_trivial(
                    p, concat(mover, a_pow(m), invert_word(p, mover), a_pow(-n))
                )
            elif isinstance(result, DefinitivelyUnreachable):
                for w in letters:
                    assert not is_trivial(
                        p, concat(w, a_pow(m), invert_word(p, w), a_pow(-n))
                    )


def _raw_reachability(pres, m, vertex, n, target_vertex, budget):
    """Breadth-first search over (vertex, signed exponent) pairs, moving x
    to x/sigma*tau across an edge when sigma divides x: the same search as
    bounded_reachability without the counter encoding."""
    moves = [
        (e.frm, e.inj_initial.entries[0][0], e.inj_terminal.entries[0][0], e.to, e.id)
        for e in pres.graph.edges
    ]
    source, target = (vertex, m), (target_vertex, n)
    if source == target:
        return Reachable(())
    parents = {source: None}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for frm, sigma, tau, to, eid in moves:
            if frm != current[0] or current[1] % sigma:
                continue
            nxt = (to, current[1] // sigma * tau)
            if nxt in parents:
                continue
            parents[nxt] = (current, eid)
            if nxt == target:
                edges = []
                while parents[nxt] is not None:
                    nxt, eid = parents[nxt]
                    edges.append(eid)
                return Reachable(tuple(reversed(edges)))
            if len(parents) >= budget:
                return InconclusiveSearch(len(parents), budget)
            queue.append(nxt)
    return DefinitivelyUnreachable(len(parents))


def _random_rank_one_graph(rng):
    n_vertices = rng.randint(1, 3)
    vertices = tuple(Vertex(f"v{i}", 1) for i in range(n_vertices))
    ends = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    ends += [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(rng.randint(0, 2))]
    if n_vertices == 1 and not ends:
        ends = [(0, 0)]
    edges = []
    for k, (u, v) in enumerate(ends, start=1):
        sigma, tau = (IntMatrix.from_rows([[rng.choice((1, -1, 2, 3, 4, 6))]], cols=1) for _ in range(2))
        edges.append(Edge(f"e{k}", f"v{u}", f"v{v}", 1, sigma, tau, f"e{k}bar"))
        edges.append(Edge(f"e{k}bar", f"v{v}", f"v{u}", 1, tau, sigma, f"e{k}"))
    return VGBSGraph(vertices, tuple(edges))


def test_reach_matches_raw_integer_search():
    # Verdict, closure size and edge path all agree with a search over the
    # exponents themselves, whether or not the budget runs out.
    rng = random.Random(11)
    exponents = [s * x for s in (1, -1) for x in (1, 2, 3, 4, 6, 8, 9, 12, 18, 36)]
    seen = set()
    for _ in range(300):
        pres = build_presentation(_random_rank_one_graph(rng))
        names = [v.id for v in pres.graph.vertices]
        m, n = rng.choice(exponents), rng.choice(exponents)
        u, v = rng.choice(names), rng.choice(names)
        budget = rng.choice((3, 10, 60, 400))
        inst = build_reachability_instance(pres, m, u, n, v)
        result = bounded_reachability(inst, budget)
        assert result == _raw_reachability(pres, m, u, n, v, budget), (pres.graph, m, u, n, v)
        if result != Reachable(()):
            seen.add(type(result))
    assert seen == {Reachable, DefinitivelyUnreachable, InconclusiveSearch}


@pytest.mark.parametrize(
    "name, m, n, budget, expected",
    [
        # one multiplicity climbs by one per move, close to the budget
        ("bs12", 1, 3, 2, InconclusiveSearch(2, 2)),
        ("bs12", 1, 3, 500, InconclusiveSearch(500, 500)),
        ("bs12", 1, 3, 2000, InconclusiveSearch(2000, 2000)),
        # the target is the last state the budget allows
        ("bs12", -1, -(2**399), 400, Reachable(("e1",) * 399)),
        # a huge budget makes every field very wide
        ("bs23", 2, 4, 10**30, DefinitivelyUnreachable(2)),
        ("klein", 3, -3, 100_000, Reachable(("e1",))),
    ],
)
def test_reach_at_the_edges_of_the_state_encoding(name, m, n, budget, expected):
    p = presentation(name)
    result = bounded_reachability(build_reachability_instance(p, m, "v0", n, "v0"), budget)
    assert result == expected == _raw_reachability(p, m, "v0", n, "v0", budget)


# --- huge scalars and exponents -----------------------------------------


def test_mersenne_scalar_conjugacy_replays_quickly():
    # BS(1, 2^61-1): x and x^(2^61-1) are conjugate by the stable letter.
    begin = perf_counter()
    p = build_presentation(bs(1, MERSENNE_61))
    ans = multi_conjugate(p, (a_pow(1),), (a_pow(MERSENNE_61),))
    assert isinstance(ans, Conjugate)
    w = ans.witness
    assert is_trivial(p, concat(w, a_pow(1), invert_word(p, w), a_pow(-MERSENNE_61)))
    assert perf_counter() - begin < 2.0


# --- elliptic tuple conjugacy -------------------------------------------


def test_gbs_multi_bs23_scaled_pair():
    p = presentation("bs23")
    ans = multi_conjugate(p, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(6)))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, t_pow(1))


def test_gbs_multi_bs23_pattern_mismatch():
    p = presentation("bs23")
    ans = multi_conjugate(p, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(9)))
    assert isinstance(ans, NotConjugate)


def test_gbs_multi_klein_inverse():
    p = presentation("klein")
    ans = multi_conjugate(p, (a_pow(1),), (a_pow(-1),))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, ans.witness, t_pow(1))


def test_gbs_multi_amalgam_crossing():
    # a^2 = b^2 makes the squares conjugate by the identity; the
    # generators themselves are not conjugate.
    p = presentation("amalg")
    b = vertex_word("v1", (1,))
    squares = multi_conjugate(p, (a_pow(2),), (word_power(p, b, 2),))
    assert isinstance(squares, Conjugate)
    assert is_trivial(p, squares.witness)
    assert isinstance(multi_conjugate(p, (a_pow(1),), (b,)), NotConjugate)


def test_rank_zero_edge_carries_no_power():
    # Z∗Z: the trivial edge group moves no nontrivial power, so the
    # instance has no move across it, and a power is conjugate only to
    # conjugates of itself at its own vertex
    p = build_presentation(free_product())
    assert build_reachability_instance(p, 1, "v0", 1, "v1").transitions == ()
    b = vertex_word("v1", (1,))
    assert isinstance(multi_conjugate(p, (a_pow(1),), (b,)), NotConjugate)
    target = conjugate(p, a_pow(3), vertex_word("v1", (-2,)))
    ans = multi_conjugate(p, (a_pow(3),), (target,))
    assert isinstance(ans, Conjugate)
    assert words_equal(p, conjugate(p, a_pow(3), ans.witness), target)


def test_gbs_multi_identity_coordinates():
    p = presentation("bs23")
    assert isinstance(
        multi_conjugate(p, (Word.identity(),), (Word.identity(),)), Conjugate
    )
    assert isinstance(
        multi_conjugate(p, (Word.identity(),), (a_pow(1),)), NotConjugate
    )
    mixed = multi_conjugate(p, (a_pow(2), Word.identity()), (a_pow(3), Word.identity()))
    assert isinstance(mixed, Conjugate)
    assert words_equal(p, mixed.witness, t_pow(1))


def test_gbs_multi_input_gates():
    p = presentation("bs23")
    assert isinstance(multi_conjugate(p, (a_pow(1),), (t_pow(1),)), NotConjugate)
    high_rank = multi_conjugate(
        presentation("z4f2"),
        (vertex_word("v0", (1, 0, 0, 0)),),
        (vertex_word("v0", (0, 1, 0, 0)),),
    )
    assert isinstance(high_rank, EllipticUnsupported)


def test_multi_conjugate_routes_elliptic_tuples():
    p = presentation("bs23")
    routed = multi_conjugate(p, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(6)))
    assert isinstance(routed, Conjugate)
    assert isinstance(multi_conjugate(p, (a_pow(2),), (a_pow(5),)), NotConjugate)


def test_gbs_multi_matches_brute_force():
    p = presentation("bs23")
    letters = [t_pow(1), t_pow(-1), a_pow(1), a_pow(-1)]
    words = [Word.identity()]
    frontier = [Word.identity()]
    for _ in range(3):
        frontier = [word_simplify(p, concat(w, l)) for w in frontier for l in letters]
        words.extend(frontier)
    for j in (2, 3, 4, 5, 6, 9):
        ans = multi_conjugate(p, (a_pow(2),), (a_pow(j),))
        brute = any(
            is_trivial(p, concat(w, a_pow(2), invert_word(p, w), a_pow(-j)))
            for w in words
        )
        assert isinstance(ans, Conjugate) == (j in (2, 3))
        assert not (brute and isinstance(ans, NotConjugate))


def test_gbs_multi_symmetry():
    p = presentation("bs23")
    for j in (2, 3, 4):
        forward = multi_conjugate(p, (a_pow(2),), (a_pow(j),))
        backward = multi_conjugate(p, (a_pow(j),), (a_pow(2),))
        assert type(forward) is type(backward)
