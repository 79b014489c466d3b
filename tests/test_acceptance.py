"""Acceptance gate: one test per headline capability.

Each test checks the engine against an oracle that shares no code with
it (an affine matrix model, free-group rotations, box enumeration,
direct fixation probes, replayed witnesses) and enforces a wall-clock
budget, so the suite doubles as a smoke test for runaway searches.
All comparisons are exact; there are no tolerances anywhere.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product

from vgbs.cli import run_command
from vgbs.conjugacy import (
    Conjugate,
    NotConjugate,
    ReducedToPolycyclic,
    centralizer_hyperbolic,
    conjugate_hyperbolic,
    multi_conjugate,
)
from vgbs.equations import SyllableEquation, equation_word, solve_syllable_equation
from vgbs.gbs import (
    DefinitivelyUnreachable,
    Reachable,
    bounded_reachability,
    build_reachability_instance,
)
from vgbs.graph import graph_to_dict
from vgbs.linalg import Lattice
from vgbs.modulus import (
    Finite,
    NegativeHalfLine,
    WholeAxis,
    classify_intersection,
    compute_modulus,
)
from vgbs.tree import (
    HYPERBOLIC,
    axis_vertex,
    base_vertex,
    stabilizer_coords,
    stabilizer_element,
    translation_length,
    translation_profile,
)
from vgbs.words import (
    Word,
    commutator,
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
    ALL_GRAPHS,
    a_pow,
    bs12_affine,
    cyclic_reduce,
    f2_word,
    free_conjugate,
    mixed_tuple,
    presentation,
    random_word,
    t_pow,
)


def _within(started: float, bound: float, label: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"{label} took {elapsed:.1f}s, budget {bound:.0f}s"
    print(f"{label}: pass ({elapsed:.2f}s)")


def test_word_problem_matches_affine_model():
    """500 random bs12 words of up to 20 syllables: is_trivial must agree
    with the faithful affine representation a = x+1, t = 2x.  Budget 10s."""
    started = time.monotonic()
    pres = presentation("bs12")
    rng = random.Random(101)
    trivial_seen = 0
    for _ in range(500):
        w = random_word(rng, pres, rng.randint(0, 20))
        expected = bs12_affine(w) == (Fraction(1), Fraction(0))
        assert is_trivial(pres, w) == expected
        trivial_seen += expected
    # engineered identities so the positive branch is exercised too
    for _ in range(30):
        u = random_word(rng, pres, rng.randint(1, 6))
        w = concat(u, invert_word(pres, u))
        assert bs12_affine(w) == (Fraction(1), Fraction(0))
        assert is_trivial(pres, w)
        trivial_seen += 1
    assert trivial_seen >= 30
    _within(started, 10.0, "word problem vs affine model")


def test_hyperbolic_conjugacy_matches_free_group_oracle():
    """200 random pairs in the free fixture, length up to 12, half of them
    engineered conjugates: conjugate_hyperbolic must agree with rotation
    of cyclic reductions, and every witness must verify.  Budget 10s."""
    started = time.monotonic()
    pres = presentation("f2")
    rng = random.Random(202)
    alphabet = [1, -1, 2, -2]
    checked = 0
    while checked < 200:
        u = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.5:
            i = rng.randint(0, len(u) - 1)
            c = [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
            v = c + u[i:] + u[:i] + [-x for x in reversed(c)]
        else:
            v = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        if not cyclic_reduce(u) or not cyclic_reduce(v):
            continue
        answer = conjugate_hyperbolic(pres, f2_word(u), f2_word(v))
        assert isinstance(answer, Conjugate) == free_conjugate(u, v)
        if isinstance(answer, Conjugate):
            moved = conjugate(pres, f2_word(u), answer.witness)
            assert is_trivial(pres, concat(moved, invert_word(pres, f2_word(v))))
        checked += 1
    _within(started, 10.0, "hyperbolic conjugacy vs free-group oracle")


def _random_equation(name: str, pres, rng: random.Random) -> SyllableEquation:
    unknowns = rng.randint(1, 2)
    n = rng.randint(1, 3)
    if name == "z2":
        def base() -> Word:
            return vertex_word("v0", (rng.randint(-2, 2), rng.randint(-2, 2)))

        connector = base
    else:
        pool = [
            Word.identity(),
            t_pow(1),
            t_pow(-1),
            concat(t_pow(1), a_pow(1)),
            concat(a_pow(1), t_pow(-1)),
        ]

        def base() -> Word:
            return conjugate(pres, a_pow(rng.choice([-2, -1, 1, 2])), rng.choice(pool))

        def connector() -> Word:
            parts = [
                rng.choice([a_pow(1), a_pow(-1), t_pow(1), t_pow(-1)])
                for _ in range(rng.randint(0, 3))
            ]
            return concat(*parts) if parts else Word.identity()

    bases = tuple(base() for _ in range(n))
    sigma = tuple(rng.randint(1, unknowns) for _ in range(n))
    connectors = tuple(connector() for _ in range(n - 1))
    return SyllableEquation(unknowns, bases, connectors, sigma)


def test_equation_solver_matches_box_enumeration():
    """50 random exponent equations with up to two unknowns over bs12,
    bs23, and the free-abelian fixture: the solution set restricted to
    the box [-8, 8]^p must equal brute-force enumeration.  Budget 60s."""
    started = time.monotonic()
    rng = random.Random(303)
    for _ in range(50):
        name = rng.choice(["bs12", "bs23", "z2"])
        pres = presentation(name)
        eq = _random_equation(name, pres, rng)
        solved = solve_syllable_equation(pres, eq)
        grid = list(product(range(-8, 9), repeat=eq.unknowns))
        claimed = {k for k in grid if solved.contains(k)}
        enumerated = {k for k in grid if is_trivial(pres, equation_word(pres, eq, k))}
        assert claimed == enumerated
    _within(started, 60.0, "equation solver vs box enumeration")


def test_centralizers_of_standard_letters():
    """Centralizer data for the loop letters: rank-0 elliptic part and a
    length-1 shift for t in bs12 and klein, a rank-1 elliptic part for
    t^2 in klein; every returned generator must commute with the input."""
    started = time.monotonic()
    cases = [
        ("bs12", t_pow(1), 0),
        ("klein", t_pow(1), 0),
        ("klein", word_power(presentation("klein"), t_pow(1), 2), 1),
    ]
    for name, h, expected_rank in cases:
        pres = presentation(name)
        cen = centralizer_hyperbolic(pres, h)
        assert cen.elliptic.rank == expected_rank
        assert translation_length(pres, cen.shift_generator) == 1
        generators = [cen.shift_generator] + [
            stabilizer_element(pres, cen.basepoint, cen.elliptic.basis.column(j))
            for j in range(cen.elliptic.rank)
        ]
        for g in generators:
            assert is_trivial(pres, commutator(pres, g, h))
    _within(started, 10.0, "centralizers of standard letters")


def test_axis_intersection_shapes_with_fixation_probes():
    """classify_intersection(a, t) per fixture, cross-checked by probing
    whether a fixes each of six axis vertices in both directions."""
    started = time.monotonic()
    expected = {
        "bs12": (NegativeHalfLine, lambda k: k <= 0),
        "bs23": (Finite, lambda k: k == 0),
        "klein": (WholeAxis, lambda k: True),
    }
    for name, (shape_type, fixed_at) in expected.items():
        pres = presentation(name)
        a, t = a_pow(1), t_pow(1)
        shape = classify_intersection(pres, a, t)
        assert type(shape) is shape_type
        base = base_vertex(pres)
        if isinstance(shape, NegativeHalfLine):
            assert shape.origin == base
        if isinstance(shape, Finite):
            assert shape.segment.length == 0
            assert shape.segment.start == base
        for k in range(-6, 7):
            probe = axis_vertex(pres, t, base, k)
            assert (stabilizer_coords(pres, probe, a) is not None) == fixed_at(k)
    _within(started, 10.0, "axis intersection shapes vs fixation probes")


def test_tuple_conjugacy_recovers_random_conjugations():
    """50 random instances (tuple of up to 3 generating a non-elliptic
    subgroup, conjugator of up to 8 syllables): multi_conjugate must find
    a verifying witness, and the bs12 pair (t, a) vs (t, a^3) must be
    refuted.  Budget 120s."""
    started = time.monotonic()
    rng = random.Random(606)
    for _ in range(50):
        name = rng.choice(["bs12", "bs23", "amalg"])
        pres = presentation(name)
        first = mixed_tuple(name, pres, rng)
        g = random_word(rng, pres, rng.randint(0, 8))
        second = tuple(word_simplify(pres, conjugate(pres, x, g)) for x in first)
        answer = multi_conjugate(pres, first, second)
        assert isinstance(answer, Conjugate), (name, first, g, answer)
        w_inv = invert_word(pres, answer.witness)
        for x, y in zip(first, second):
            assert is_trivial(
                pres, concat(answer.witness, x, w_inv, invert_word(pres, y))
            )
    pres = presentation("bs12")
    refuted = multi_conjugate(pres, (t_pow(1), a_pow(1)), (t_pow(1), a_pow(3)))
    assert isinstance(refuted, NotConjugate)
    _within(started, 120.0, "tuple conjugacy on random instances")


def test_rank_one_elliptic_conjugacy():
    """Exponent reachability over rank-1 fixtures: the bs23 closure of
    exponent 2 is exactly {2, 3}, so 2 vs 4 is refuted definitively while
    a^2 vs a^3 gets the replayed witness t; klein conjugates a to a^-1 by
    t; tuples reduce to a single gcd query.  Budget 5s."""
    started = time.monotonic()
    p23 = presentation("bs23")

    hit = bounded_reachability(build_reachability_instance(p23, 2, "v0", 3, "v0"))
    assert hit == Reachable(("e1",))
    miss = bounded_reachability(build_reachability_instance(p23, 2, "v0", 4, "v0"))
    assert miss == DefinitivelyUnreachable(2)

    answer = multi_conjugate(p23, (a_pow(2),), (a_pow(3),))
    assert isinstance(answer, Conjugate)
    assert words_equal(p23, answer.witness, t_pow(1))
    assert isinstance(multi_conjugate(p23, (a_pow(2),), (a_pow(4),)), NotConjugate)

    pk = presentation("klein")
    answer = multi_conjugate(pk, (a_pow(1),), (a_pow(-1),))
    assert isinstance(answer, Conjugate)
    assert words_equal(pk, answer.witness, t_pow(1))

    answer = multi_conjugate(p23, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(6)))
    assert isinstance(answer, Conjugate)
    assert words_equal(p23, answer.witness, t_pow(1))
    assert isinstance(
        multi_conjugate(p23, (a_pow(2), a_pow(4)), (a_pow(3), a_pow(9))),
        NotConjugate,
    )
    _within(started, 5.0, "rank-one elliptic conjugacy")


def _modulus_image(mod, v):
    """Ambient image of a domain vector under the one-period action."""
    x = mod.domain.coords(v)
    assert x is not None, "vector left the modulus domain"
    return mod.domain.basis.mul_vec(mod.matrix.mul_vec(x))


# every fixture transport has denominator 2^a 3^b, so these multipliers
# are enough to land a domain vector inside the integral fixator lattice
_SCALES = sorted(
    {2**a * 3**b for a in range(9) for b in range(6) if 2**a * 3**b <= 5000}
)


def _check_integral_points(pres, w, mod):
    for j in range(mod.domain.basis.cols):
        col = mod.domain.basis.column(j)
        den = math.lcm(*(f.denominator for f in col))
        base = [int(f * den) for f in col]
        for scale in _SCALES:
            vec = [scale * x for x in base]
            s = stabilizer_element(pres, mod.basepoint, vec)
            coords = stabilizer_coords(pres, mod.basepoint, conjugate(pres, s, w))
            if coords is not None:
                image = _modulus_image(mod, tuple(Fraction(x) for x in vec))
                assert tuple(Fraction(c) for c in coords) == image
                break
        else:
            raise AssertionError("no integral multiple returned to the basepoint")


def test_modulus_square_law_and_basepoint_independence():
    """20 random hyperbolic elements across the rank-1 fixtures: the
    modulus of h^2 at the basepoint of h is the square of the modulus of
    h, and at shifted basepoints the matrix is unchanged and agrees with
    actual conjugation on sampled integral points."""
    started = time.monotonic()
    rng = random.Random(808)
    found = 0
    while found < 20:
        name = rng.choice(["bs12", "bs23", "klein", "amalg"])
        pres = presentation(name)
        w = word_simplify(pres, random_word(rng, pres, rng.randint(1, 5)))
        profile = translation_profile(pres, w)
        if profile.kind != HYPERBOLIC:
            continue
        found += 1

        single = compute_modulus(pres, w)
        double = compute_modulus(pres, word_power(pres, w, 2), single.basepoint)
        for j in range(single.domain.basis.cols):
            c = single.domain.basis.column(j)
            twice = _modulus_image(single, _modulus_image(single, c))
            assert _modulus_image(double, c) == twice

        _check_integral_points(pres, w, single)
        for k in (1, profile.length):
            point = axis_vertex(pres, w, single.basepoint, k)
            shifted = compute_modulus(pres, w, point)
            assert shifted.matrix == single.matrix
            _check_integral_points(pres, w, shifted)
    _within(started, 60.0, "modulus square law and basepoint independence")


def test_refusal_paths_are_structured(tmp_path, capsys):
    """Unsupported instances terminate with data, never loop: a purely
    elliptic pair over the rank-4 fixture exits the CLI with code 2, and
    an all-axis klein tuple reduces to explicit polycyclic data."""
    started = time.monotonic()
    path = tmp_path / "z4f2.json"
    path.write_text(json.dumps(graph_to_dict(ALL_GRAPHS["z4f2"]())))
    code = run_command(
        ["conjugate", str(path), "[xv0(1,0,0,0)]", "[xv0(0,1,0,0)]"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["kind"] == "elliptic_unsupported"

    pres = presentation("klein")
    t2 = word_power(pres, t_pow(1), 2)
    answer = multi_conjugate(pres, (t2, a_pow(1)), (t2, a_pow(-1)))
    assert isinstance(answer, ReducedToPolycyclic)
    assert len(answer.pairs) == 2
    assert answer.elliptic == Lattice.full(1)
    assert translation_length(pres, answer.shift_generator) == 1
    assert answer.basepoint.rep == "v0"
    for x, _ in answer.pairs:
        assert any(words_equal(pres, x, w) for w in (t2, a_pow(1)))
    _within(started, 30.0, "structured refusal paths")
