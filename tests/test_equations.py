"""Exponent-equation solver against brute-force enumeration.

The oracle enumerates exponent vectors in a box and checks triviality of
the substituted word; the solver's answer must agree on every box point.
Frozen answers below were computed by hand first (group identities) and
cross-checked by the oracle.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from vgbs.equations import (
    AffineVec,
    SyllableEquation,
    equation_word,
    local_conjugators,
    solve_syllable_equation,
)
from vgbs.linalg import AffineLattice, IntMatrix, Lattice
from vgbs.tree import base_vertex, stabilizer_element, translate, tree_path
from vgbs.words import Word, concat, conjugate, invert_word, is_trivial, vertex_word

from vgbs.graph import build_presentation

from fixtures import ALL_GRAPHS, NON_UNIMODULAR, a_pow, hnn, presentation, random_word, t_pow


def box(p: int, radius: int):
    return product(range(-radius, radius + 1), repeat=p)


def assert_matches_oracle(pres, eq, solved, radius=6):
    for k in box(eq.unknowns, radius):
        expected = is_trivial(pres, equation_word(pres, eq, k))
        assert solved.contains(k) == expected, f"disagree at {k}"


def dummy() -> Word:
    return Word.identity()


# --- affine bookkeeping -------------------------------------------------


def test_affine_vec_evaluate():
    f = AffineVec((1, -2), IntMatrix.from_rows([(2, 0), (0, 3)]))
    assert f.evaluate((1, 1)) == (3, 1)
    assert not f.is_constant()
    assert AffineVec.constant((5,), 2).is_constant()
    g = AffineVec.single_unknown((1, -1), 3, 1)
    assert g.evaluate((9, 2, 9)) == (2, -2)


def test_affine_vec_add_apply():
    f = AffineVec.single_unknown((1,), 1, 0)
    g = f.add(AffineVec.constant((4,), 1))
    assert g.evaluate((3,)) == (7,)
    h = g.apply(IntMatrix.from_rows([(2,), (-1,)]))
    assert h.evaluate((3,)) == (14, -7)


def test_affine_vec_compose_and_coords():
    # k = 1 + 2w inside the odd integers; f(k) = (k, 3k) then reads (1 + 2w, 3 + 6w)
    f = AffineVec((0, 0), IntMatrix.from_rows([(1,), (3,)]))
    inner = AffineVec((1,), IntMatrix.from_rows([(2,)]))
    g = f.compose(inner)
    assert all(g.evaluate((w,)) == f.evaluate(inner.evaluate((w,))) for w in range(-3, 4))
    image = Lattice.from_generators(2, [(1, 3)])
    q = g.coords(image)
    assert all(q.evaluate((w,)) == (1 + 2 * w,) for w in range(-3, 4))


def test_equation_validation():
    p = presentation("bs12")
    with pytest.raises(ValueError):
        SyllableEquation(1, (a_pow(1),), (a_pow(1),), (1,))
    with pytest.raises(ValueError):
        SyllableEquation(1, (a_pow(1), a_pow(1)), (dummy(),), (1, 2))
    with pytest.raises(ValueError):
        solve_syllable_equation(
            p, SyllableEquation(1, (t_pow(1),), (), (1,))
        )  # hyperbolic base


# --- frozen single cases ------------------------------------------------


def test_free_abelian_point_solution():
    # (2,0) + k*(-1,0) = 0 exactly at k = 2.
    p = presentation("z2")
    eq = SyllableEquation(
        1,
        (dummy(), vertex_word("v0", (-1, 0))),
        (vertex_word("v0", (2, 0)),),
        (1, 1),
    )
    sol = solve_syllable_equation(p, eq)
    assert sol.contains((2,))
    assert [part.dim for part in sol.parts] == [0]
    assert_matches_oracle(p, eq, sol)


def test_free_abelian_no_solution():
    p = presentation("z2")
    eq = SyllableEquation(
        1,
        (dummy(), vertex_word("v0", (2, 0))),
        (vertex_word("v0", (1, 1)),),
        (1, 1),
    )
    sol = solve_syllable_equation(p, eq)
    assert sol.is_empty()
    assert_matches_oracle(p, eq, sol)


def test_bs12_commuting_conjugate_all_exponents():
    # t a t^-1 = a^2 commutes with every a^k.
    p = presentation("bs12")
    g = conjugate(p, a_pow(1), t_pow(1))
    sol = local_conjugators(p, base_vertex(p), g, a_pow(2))
    assert sol == AffineLattice.full(1)


def test_bs12_self_conjugation_is_rigid():
    # a^x t a^-x = t forces x = 0.
    p = presentation("bs12")
    sol = local_conjugators(p, base_vertex(p), t_pow(1), t_pow(1))
    assert sol == AffineLattice.point((0,))


def test_bs12_shifted_conjugation():
    # a^x t a^-x = a t exactly at x = -1.
    p = presentation("bs12")
    sol = local_conjugators(p, base_vertex(p), t_pow(1), concat(a_pow(1), t_pow(1)))
    assert sol == AffineLattice.point((-1,))


def test_bs23_self_conjugation():
    # a^x t a^-x = t needs x in 2Z to pinch, then forces x = 0.
    p = presentation("bs23")
    sol = local_conjugators(p, base_vertex(p), t_pow(1), t_pow(1))
    assert sol == AffineLattice.point((0,))


def test_amalgam_centralizer_slice_is_even_lattice():
    # In <a,b | a^2=b^2> the powers of a commuting with b are the even ones.
    p = presentation("amalg")
    b = vertex_word("v1", (1,))
    sol = local_conjugators(p, base_vertex(p), b, b)
    assert sol.contains((0,)) and sol.contains((2,)) and sol.contains((-4,))
    assert not sol.contains((1,)) and not sol.contains((-3,))
    assert sol == AffineLattice((0,), Lattice.from_generators(1, [(2,)]))


def test_free_group_local_conjugators_rank_zero():
    p = presentation("f2")
    x = t_pow(1, "e1")
    y = t_pow(1, "e2")
    sol = local_conjugators(p, base_vertex(p), x, x)
    assert sol == AffineLattice.full(0)
    assert local_conjugators(p, base_vertex(p), x, y) is None


# --- two unknowns -------------------------------------------------------


def test_bs12_two_unknown_line():
    # a^k1 t a^k2 t^-1 = a^(k1 + 2 k2).
    p = presentation("bs12")
    eq = SyllableEquation(
        2,
        (a_pow(1), a_pow(1), dummy()),
        (t_pow(1), t_pow(-1)),
        (1, 2, 1),
    )
    sol = solve_syllable_equation(p, eq)
    assert sol.contains((0, 0)) and sol.contains((2, -1)) and sol.contains((-4, 2))
    assert not sol.contains((1, 0))
    assert [part.dim for part in sol.parts] == [1]
    assert_matches_oracle(p, eq, sol, radius=4)


def test_bs12_two_unknown_line_with_fraction_transport():
    # a^k1 t^-1 a^k2 t needs k2 even and then k1 = -k2/2.
    p = presentation("bs12")
    eq = SyllableEquation(
        2,
        (a_pow(1), a_pow(1), dummy()),
        (t_pow(-1), t_pow(1)),
        (1, 2, 1),
    )
    sol = solve_syllable_equation(p, eq)
    assert sol.contains((0, 0)) and sol.contains((1, -2)) and sol.contains((-2, 4))
    assert not sol.contains((1, -1)) and not sol.contains((0, 2))
    assert_matches_oracle(p, eq, sol, radius=4)


def test_never_trivial_word_gives_empty_set():
    # a^k t is hyperbolic for every k.
    p = presentation("bs12")
    eq = SyllableEquation(1, (a_pow(1), dummy()), (t_pow(1),), (1, 1))
    sol = solve_syllable_equation(p, eq)
    assert sol.is_empty()


# --- randomized agreement with the oracle -------------------------------


def _conjugator_pool(p):
    return [
        Word.identity(),
        t_pow(1),
        t_pow(-1),
        concat(t_pow(1), a_pow(1)),
        concat(a_pow(1), t_pow(-1)),
    ]


@st.composite
def bs12_equations(draw):
    p = presentation("bs12")
    unknowns = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    pool = _conjugator_pool(p)
    bases = []
    sigma = []
    for _ in range(n):
        c = pool[draw(st.integers(0, len(pool) - 1))]
        j = draw(st.sampled_from([-2, -1, 1, 2]))
        bases.append(conjugate(p, a_pow(j), c))
        sigma.append(draw(st.integers(1, unknowns)))
    connectors = []
    for _ in range(n - 1):
        letters = draw(
            st.lists(st.sampled_from(["a", "A", "t", "T"]), min_size=0, max_size=3)
        )
        w = Word.identity()
        for ch in letters:
            w = concat(w, {"a": a_pow(1), "A": a_pow(-1), "t": t_pow(1), "T": t_pow(-1)}[ch])
        connectors.append(w)
    return SyllableEquation(unknowns, tuple(bases), tuple(connectors), tuple(sigma))


@settings(deadline=None, max_examples=25)
@given(bs12_equations())
def test_random_equations_match_oracle(eq):
    p = presentation("bs12")
    sol = solve_syllable_equation(p, eq)
    assert_matches_oracle(p, eq, sol, radius=3)


@settings(deadline=None, max_examples=15)
@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 4))
def test_random_local_conjugators_sound_and_complete(i, j, c):
    p = presentation("bs12")
    pool = _conjugator_pool(p)
    g = concat(a_pow(i), t_pow(1), a_pow(j))
    h = conjugate(p, g, pool[c])
    v = base_vertex(p)
    sol = local_conjugators(p, v, g, h)
    for x in range(-5, 6):
        s = stabilizer_element(p, v, (x,))
        expected = is_trivial(p, concat(conjugate(p, g, s), invert_word(p, h)))
        assert (sol is not None and sol.contains((x,))) == expected


def test_solution_part_bases_substitute_to_identity():
    p = presentation("bs12")
    eq = SyllableEquation(
        2,
        (a_pow(1), a_pow(1), dummy()),
        (t_pow(1), t_pow(-1)),
        (1, 2, 1),
    )
    sol = solve_syllable_equation(p, eq)
    for part in sol.parts:
        k0 = tuple(part.base)
        assert is_trivial(p, equation_word(p, eq, k0))
        for col in part.lattice.basis.columns():
            shifted = tuple(b + c for b, c in zip(k0, col))
            assert is_trivial(p, equation_word(p, eq, shifted))


# --- rank > 1 with non-unimodular edge maps -----------------------------
#
# Every pinch across these loops restricts the exponents to a proper
# sublattice with a non-identity Hermite basis, so the solver runs in
# reparametrized coordinates rather than in k itself (the graphs are
# fixtures.NON_UNIMODULAR).


def _vertex(vec) -> Word:
    return vertex_word("v0", tuple(vec))


def _random_vertex(rng, rank: int, bound: int = 2) -> Word:
    return _vertex(rng.randint(-bound, bound) for _ in range(rank))


def _unit(rank: int, i: int, c: int = 1) -> tuple[int, ...]:
    return tuple(c if j == i else 0 for j in range(rank))


def _non_unimodular_equations(pres, rng):
    rank = pres.vertex_rank("v0")
    ones = (1,) * rank
    # a^k1 t b^k2 t^-1 a^k1: the pinch needs k2·b in the image of inj_initial
    for b in (_unit(rank, 0, 2), _unit(rank, 0), _unit(rank, rank - 1)):
        yield SyllableEquation(
            2, (_vertex(ones), _vertex(b), dummy()), (t_pow(1), t_pow(-1)), (1, 2, 1)
        )
    pool = [Word.identity(), t_pow(1), t_pow(-1)]
    for _ in range(12):
        unknowns = rng.randint(1, 2)
        n = rng.randint(2, 3)
        bases = tuple(
            conjugate(pres, _random_vertex(rng, rank), rng.choice(pool)) for _ in range(n)
        )
        connectors = []
        for _ in range(n - 1):
            parts = [
                rng.choice([t_pow(1), t_pow(-1), _random_vertex(rng, rank, 1)])
                for _ in range(rng.randint(0, 2))
            ]
            connectors.append(concat(*parts) if parts else Word.identity())
        sigma = tuple(rng.randint(1, unknowns) for _ in range(n))
        yield SyllableEquation(unknowns, bases, tuple(connectors), sigma)


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR))
def test_non_unimodular_equations_match_oracle(name):
    p = build_presentation(NON_UNIMODULAR[name]())
    rng = random.Random(17)
    solved = 0
    for eq in _non_unimodular_equations(p, rng):
        sol = solve_syllable_equation(p, eq)
        assert_matches_oracle(p, eq, sol, radius=4)
        solved += not sol.is_empty()
    assert solved >= 4


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR))
def test_non_unimodular_local_conjugators_are_one_coset(name):
    p = build_presentation(NON_UNIMODULAR[name]())
    rank = p.vertex_rank("v0")
    v = base_vertex(p)
    rng = random.Random(29)
    cases = [(_vertex(_unit(rank, 0)), _vertex(_unit(rank, 0)))]
    for u in (_unit(rank, 0), _unit(rank, rank - 1)):
        # t^±1 s(u) t^∓1 with u outside the edge image: its centralizer
        # slice is the image of the other edge map, a proper sublattice
        for letter in (t_pow(1), t_pow(-1)):
            g = conjugate(p, _vertex(u), letter)
            cases.append((g, g))
            cases.append((g, conjugate(p, g, _random_vertex(rng, rank))))
    for _ in range(8):
        g = concat(_random_vertex(rng, rank), t_pow(rng.choice([1, -1])), _random_vertex(rng, rank))
        by = rng.choice([_random_vertex(rng, rank), concat(_random_vertex(rng, rank), t_pow(1))])
        cases.append((g, conjugate(p, g, by)))
    dims = set()
    for g, h in cases:
        sol = local_conjugators(p, v, g, h)
        assert sol is None or isinstance(sol, AffineLattice)
        for x in box(rank, 2):
            s = stabilizer_element(p, v, x)
            expected = is_trivial(p, concat(conjugate(p, g, s), invert_word(p, h)))
            assert (sol is not None and sol.contains(x)) == expected, (g, h, x)
        if sol is not None:
            dims.add((sol.dim, sol.lattice == Lattice.full(rank)))
    # point answers, full slices and proper full-rank sublattices all occur
    assert {(0, False), (rank, True), (rank, False)} <= dims


# --- local conjugators against the syllable-equation route --------------
#
# local_conjugators solves s(x)·g·s(x)⁻¹ = h as one linear system; the
# general solver reaches the same cosets through the equation
# s(e₁)^x₁…s(eᵣ)^xᵣ · g · s(e₁)^-x₁…s(eᵣ)^-xᵣ · h⁻¹ = 1, branching over
# every backtracking pair.


def _syllable_route(pres, v, g, h):
    rank = pres.vertex_rank(v.rep)
    if rank == 0:
        return AffineLattice.full(0) if is_trivial(pres, concat(g, invert_word(pres, h))) else None
    units = [stabilizer_element(pres, v, _unit(rank, i)) for i in range(rank)]
    bases = tuple(units) + tuple(invert_word(pres, u) for u in units) + (Word.identity(),)
    ones = (Word.identity(),) * (rank - 1)
    connectors = ones + (g,) + ones + (invert_word(pres, h),)
    sigma = tuple(range(1, rank + 1)) * 2 + (1,)
    parts = solve_syllable_equation(pres, SyllableEquation(rank, bases, connectors, sigma)).parts
    if not parts:
        return None
    first = parts[0]
    gens = [tuple(a - b for a, b in zip(part.base, first.base)) for part in parts[1:]]
    gens += [col for part in parts for col in part.lattice.basis.columns()]
    return AffineLattice(first.base, Lattice.from_generators(rank, gens))


def _wide_hnn(rank: int):
    """HNN loop at a higher rank whose edge maps have determinants 2 and 3."""
    initial = [[int(i == j) for j in range(rank)] for i in range(rank)]
    terminal = [row[:] for row in initial]
    initial[0][0], initial[0][rank - 1] = 2, 1
    terminal[rank - 1][rank - 1], terminal[1][0] = 3, 1
    return hnn(rank, initial, terminal)


DIFFERENTIAL_GRAPHS = {
    **ALL_GRAPHS,
    **{f"non_unimodular_{name}": make for name, make in NON_UNIMODULAR.items()},
    "hnn_rank5": lambda: _wide_hnn(5),
    "hnn_rank6": lambda: _wide_hnn(6),
}


def _random_tree_vertex(rng, pres):
    """A vertex on the geodesic from the base vertex to u·(base vertex)."""
    far = translate(pres, random_word(rng, pres, rng.randint(0, 4), 2), base_vertex(pres))
    path = tree_path(pres, base_vertex(pres), far)
    return path.vertex(rng.randint(0, path.length))


def _answer_kind(sol, rank):
    if sol is None:
        return "none"
    if sol.lattice == Lattice.full(rank):
        return "full"
    return "point" if sol.dim == 0 else "proper"


def test_local_conjugators_match_syllable_route():
    rng = random.Random(4101)
    kinds = set()
    ranks = set()
    for name, make in sorted(DIFFERENTIAL_GRAPHS.items()):
        pres = build_presentation(make())
        for _ in range(10):
            v = _random_tree_vertex(rng, pres)
            rank = pres.vertex_rank(v.rep)
            ranks.add(rank)
            if rng.random() < 0.5:
                g = random_word(rng, pres, rng.randint(1, 5), 2)
            else:
                # elliptic near v: its centralizer slice is often a proper sublattice
                w = _random_tree_vertex(rng, pres)
                g = stabilizer_element(pres, w, _random_vec(rng, pres.vertex_rank(w.rep)))
            slide = stabilizer_element(pres, v, _random_vec(rng, rank))
            other = random_word(rng, pres, rng.randint(1, 3), 2)
            for h in (g, conjugate(pres, g, slide), conjugate(pres, g, other)):
                sol = local_conjugators(pres, v, g, h)
                assert sol == _syllable_route(pres, v, g, h), (name, v, g, h)
                if rank:
                    kinds.add(_answer_kind(sol, rank))
    assert ranks == set(range(7))
    assert kinds == {"none", "full", "point", "proper"}


def _random_vec(rng, rank: int) -> tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(rank))
