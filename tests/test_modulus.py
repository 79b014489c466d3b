"""Moduli and axis-intersection classification.

Expected matrices and shapes were derived by hand from the defining
relations (t a t^-1 = a^2 in bs12, t a^2 t^-1 = a^3 in bs23,
t a t^-1 = a^-1 in klein) before being frozen here.
"""

import json
import random
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

from vgbs.cli import run_command
from vgbs.conjugacy import centralizer_hyperbolic, multi_conjugate
from vgbs.graph import AdaptedPresentation, build_presentation, graph_to_dict
from vgbs.modulus import (
    Empty,
    Finite,
    NegativeHalfLine,
    PositiveHalfLine,
    WholeAxis,
    _shape_anchor,
    classify_intersection,
    compute_modulus,
    halfline_fixation,
)
from vgbs.linalg import RatMatrix
from vgbs.tree import (
    axis_offset,
    axis_vertex,
    base_vertex,
    distance,
    stabilizer_coords,
    translate,
)
from vgbs.words import (
    concat,
    conjugate,
    express_in_vertex,
    invert_word,
    vertex_word,
    word_power,
    word_simplify,
)

from test_acceptance import _check_integral_points

from fixtures import (
    ALL_GRAPHS,
    NON_UNIMODULAR,
    a_pow,
    hnn,
    presentation,
    random_word,
    t_pow,
)


def mat1(x) -> RatMatrix:
    return RatMatrix.from_rows([(Fraction(x),)])


# --- moduli -------------------------------------------------------------


def test_modulus_frozen_matrices():
    assert compute_modulus(presentation("bs12"), t_pow(1)).matrix == mat1(2)
    assert compute_modulus(presentation("bs12"), t_pow(-1)).matrix == mat1(Fraction(1, 2))
    assert compute_modulus(presentation("bs23"), t_pow(1)).matrix == mat1(Fraction(3, 2))
    assert compute_modulus(presentation("klein"), t_pow(1)).matrix == mat1(-1)


def test_modulus_domain_and_basepoint():
    mod = compute_modulus(presentation("bs12"), t_pow(1))
    assert mod.domain.rank == 1
    assert mod.basepoint.rep == "v0"


# Loops whose edge group is smaller than the vertex group, so the domain
# can be a proper sublattice: (h, domain basis, matrix) worked out by hand
# from t · s(initial·y) · t⁻¹ = s(terminal·y).
PROPER_DOMAINS = {
    # e1, e2 ↦ e2, e1 inside Z^3
    "swap": (
        hnn(3, [[1, 0], [0, 1], [0, 0]], [[0, 1], [1, 0], [0, 0]]),
        [(t_pow(1), [(1, 0, 0), (0, 1, 0)], [[0, 1], [1, 0]])],
    ),
    # e1, e2 ↦ e1, e3: only e1 stays inside the domain
    "tilt": (
        hnn(3, [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 0], [0, 1]]),
        [(t_pow(1), [(1, 0, 0)], [[1]])],
    ),
    # e1 ↦ e2: the image leaves the fixators at once
    "rotation": (hnn(2, [[1], [0]], [[0], [1]]), [(t_pow(1), [], [])]),
    # e1 ↦ 2·e1, and back
    "scaling": (
        hnn(2, [[1], [0]], [[2], [0]]),
        [
            (t_pow(1), [(1, 0)], [[2]]),
            (t_pow(-1), [(1, 0)], [[Fraction(1, 2)]]),
        ],
    ),
    # (2, 1, 0), e3 ↦ e3, (2, 1, 0): the saturated basis has a pivot of 2,
    # and in it the map is a plain swap
    "pivot2": (
        hnn(3, [[2, 0], [1, 0], [0, 1]], [[0, 2], [0, 1], [1, 0]]),
        [(t_pow(1), [(2, 1, 0), (0, 0, 1)], [[0, 1], [1, 0]])],
    ),
}


@pytest.mark.parametrize("name", sorted(PROPER_DOMAINS))
def test_modulus_proper_domains(name):
    graph, cases = PROPER_DOMAINS[name]
    p = build_presentation(graph)
    for h, basis, rows in cases:
        mod = compute_modulus(p, h)
        assert mod.domain.basis.columns() == basis
        assert mod.matrix == RatMatrix.from_rows(rows, cols=len(basis))
        _check_integral_points(p, h, mod)


def test_modulus_matches_conjugation():
    # matrix @ x must be the coordinate vector of h a^x h^-1.
    cases = [
        ("bs12", 1, 2),
        ("bs23", 2, 3),
        ("klein", 1, -1),
    ]
    for name, x, expected in cases:
        p = presentation(name)
        mod = compute_modulus(p, t_pow(1))
        assert mod.matrix.mul_vec((x,)) == (Fraction(expected),)
        image = conjugate(p, a_pow(x), t_pow(1))
        assert express_in_vertex(p, image, "v0") == (expected,)


def test_modulus_of_square_is_square():
    for name in ("bs12", "bs23", "klein"):
        p = presentation(name)
        single = compute_modulus(p, t_pow(1)).matrix
        double = compute_modulus(p, word_power(p, t_pow(1), 2)).matrix
        assert double == single.mul(single)


def test_modulus_independent_of_basepoint():
    for name in ("bs12", "bs23", "klein"):
        p = presentation(name)
        expected = compute_modulus(p, t_pow(1)).matrix
        for k in (1, 2, -1):
            point = translate(p, t_pow(k), base_vertex(p))
            assert compute_modulus(p, t_pow(1), point).matrix == expected


def test_modulus_rejections():
    p = presentation("bs23")
    with pytest.raises(ValueError):
        compute_modulus(p, a_pow(1))
    off_axis = translate(p, concat(a_pow(1), t_pow(1)), base_vertex(p))
    with pytest.raises(ValueError):
        compute_modulus(p, t_pow(1), off_axis)


# --- half-line fixation -------------------------------------------------


def test_halfline_bs12_negative_only():
    p = presentation("bs12")
    for g in (a_pow(1), a_pow(3)):
        assert halfline_fixation(p, t_pow(1), g, -1)
        assert not halfline_fixation(p, t_pow(1), g, 1)


def test_halfline_bs23_neither():
    p = presentation("bs23")
    assert not halfline_fixation(p, t_pow(1), a_pow(1), 1)
    assert not halfline_fixation(p, t_pow(1), a_pow(1), -1)


def test_halfline_klein_both():
    p = presentation("klein")
    assert halfline_fixation(p, t_pow(1), a_pow(1), 1)
    assert halfline_fixation(p, t_pow(1), a_pow(1), -1)


def test_halfline_flips_with_inverse():
    p = presentation("bs12")
    assert halfline_fixation(p, t_pow(-1), a_pow(1), 1)
    assert not halfline_fixation(p, t_pow(-1), a_pow(1), -1)


def test_halfline_refuted_at_the_orbit_test(monkeypatch):
    # a^(2^10001) fixes 10001 edges of the t ray, but its first two orbit
    # vectors 2^10001 and 2^10000 are rationally, not integrally,
    # dependent, which refutes the half-line after one period
    p = presentation("bs12")
    g = a_pow(2**10001)
    calls = []
    original = AdaptedPresentation.transport_across

    def counting(self, edge, x):
        calls.append(edge)
        return original(self, edge, x)

    monkeypatch.setattr(AdaptedPresentation, "transport_across", counting)
    assert not halfline_fixation(p, t_pow(1), g, 1)
    assert 0 < len(calls) <= 40


# --- intersection shapes ------------------------------------------------


def test_classify_elliptic_halfline():
    p = presentation("bs12")
    shape = classify_intersection(p, a_pow(1), t_pow(1))
    assert isinstance(shape, NegativeHalfLine)
    assert shape.origin == base_vertex(p)
    flipped = classify_intersection(p, a_pow(1), t_pow(-1))
    assert isinstance(flipped, PositiveHalfLine)
    assert flipped.origin == base_vertex(p)


def test_classify_elliptic_single_vertex():
    p = presentation("bs23")
    shape = classify_intersection(p, a_pow(1), t_pow(1))
    assert isinstance(shape, Finite)
    assert shape.segment.length == 0
    assert shape.segment.start == base_vertex(p)


def test_classify_elliptic_whole_axis():
    p = presentation("klein")
    assert isinstance(classify_intersection(p, a_pow(1), t_pow(1)), WholeAxis)


def test_classify_empty_with_bridge():
    p = presentation("bs23")
    mover = concat(a_pow(1), t_pow(1))
    g = conjugate(p, a_pow(1), mover)
    shape = classify_intersection(p, g, t_pow(1))
    assert isinstance(shape, Empty)
    assert shape.bridge.length == 1
    assert shape.bridge.start == translate(p, mover, base_vertex(p))
    assert shape.bridge.end == base_vertex(p)


def test_classify_hyperbolic_same_axis():
    p = presentation("bs23")
    shape = classify_intersection(p, word_power(p, t_pow(1), 2), word_power(p, t_pow(1), 3))
    assert isinstance(shape, WholeAxis)


def test_classify_hyperbolic_single_vertex():
    p = presentation("bs23")
    g = conjugate(p, t_pow(1), concat(a_pow(1), t_pow(1)))
    shape = classify_intersection(p, g, t_pow(1))
    assert isinstance(shape, Finite)
    assert shape.segment.length == 0
    assert shape.segment.start == base_vertex(p)


def test_classify_hyperbolic_shared_ray():
    # c t c^-1 with c = t^-5 a t^5 shares exactly the ray below t^-5 v0.
    p = presentation("bs12")
    c = concat(t_pow(-5), a_pow(1), t_pow(5))
    g = conjugate(p, t_pow(1), c)
    shape = classify_intersection(p, g, t_pow(1))
    assert isinstance(shape, NegativeHalfLine)
    assert shape.origin == translate(p, t_pow(-5), base_vertex(p))


def test_classify_hyperbolic_commuting_conjugates():
    p = presentation("klein")
    # (a t)^2 = t^2, so a t and t run along the same line.
    shape = classify_intersection(p, t_pow(1), concat(a_pow(1), t_pow(1)))
    assert isinstance(shape, WholeAxis)


def test_classify_rejections():
    p = presentation("bs12")
    with pytest.raises(ValueError):
        classify_intersection(p, t_pow(1), a_pow(1))
    with pytest.raises(ValueError):
        classify_intersection(p, a_pow(0), t_pow(1))


# --- long fixed runs ----------------------------------------------------


def _fixed_at(p, g, h, k) -> bool:
    """Word-based probe: does g fix the vertex at offset k on the h axis?"""
    return stabilizer_coords(p, axis_vertex(p, h, base_vertex(p), k), g) is not None


@pytest.mark.parametrize("n", [30, 10001])
def test_classify_long_halfline(n):
    # a^(2^n) fixes t^k v0 iff 2^(n-k) is an integer: the ray up to k = n.
    # The origin is compared with the axis vertex at offset n directly:
    # axis_offset would build the whole geodesic from v0, quadratic in n.
    p = presentation("bs12")
    g = a_pow(2**n)
    shape = classify_intersection(p, g, t_pow(1))
    assert isinstance(shape, NegativeHalfLine)
    assert shape.origin == axis_vertex(p, t_pow(1), base_vertex(p), n)
    assert _fixed_at(p, g, t_pow(1), n)
    assert not _fixed_at(p, g, t_pow(1), n + 1)


@pytest.mark.parametrize("m", [10, 3000])
def test_classify_long_hyperbolic_overlap(m):
    # g = c t c^-1 with c = a^(2^m) fixes t^k v0 iff k <= m, so the axes of
    # g and t share the ray below t^m v0.  The cap on the overlap is
    # 1 + 1 + 1 = 3, so m = 10 already runs past it.
    p = presentation("bs12")
    g = concat(a_pow(2**m), t_pow(1), a_pow(-(2**m)))
    begin = perf_counter()
    shape = classify_intersection(p, g, t_pow(1))
    assert perf_counter() - begin < 2.0
    assert isinstance(shape, NegativeHalfLine)
    assert shape.origin == axis_vertex(p, t_pow(1), base_vertex(p), m)
    # word-based probes: ℓ(g) = 1, and a vertex at distance 1 from the g
    # axis is moved 1 + 2·1
    past = axis_vertex(p, t_pow(1), base_vertex(p), m + 1)
    assert distance(p, shape.origin, translate(p, g, shape.origin)) == 1
    assert distance(p, past, translate(p, g, past)) == 3


def test_classify_long_segment():
    # a^(2^6 3^6) fixes t^k v0 iff (3/2)^k 2^6 3^6 is an integer: |k| <= 6.
    p = presentation("bs23")
    g = a_pow(2**6 * 3**6)
    shape = classify_intersection(p, g, t_pow(1))
    assert isinstance(shape, Finite)
    assert shape.segment.length == 12
    base = base_vertex(p)
    assert axis_offset(p, t_pow(1), base, shape.segment.start) == -6
    assert axis_offset(p, t_pow(1), base, shape.segment.end) == 6
    for k in (-6, 6):
        assert _fixed_at(p, g, t_pow(1), k)
    for k in (-7, 7):
        assert not _fixed_at(p, g, t_pow(1), k)


# Loops of rank 2 and 3 whose half-lines need more than one period to
# settle: diag2 fixes one axis direction per coordinate, tri3 fixes the
# middle coordinate along the whole axis.
HALFLINE_GRAPHS = {
    **NON_UNIMODULAR,
    "diag2": lambda: hnn(2, [[2, 0], [0, 1]], [[1, 0], [0, 2]]),
    "tri3": lambda: hnn(
        3, [[2, 0, 1], [0, 1, 0], [0, 0, 3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ),
}


def _offset(p, h, x) -> int:
    return axis_offset(p, h, base_vertex(p), x)


def test_classify_halflines_at_rank_two_and_three():
    # Each shape of xv0(c) against t and t^-1 is checked by word-based
    # probes: a finite end is fixed and the next vertex is not, and an
    # infinite direction stays fixed for rank + 1 periods past its origin.
    kinds = set()
    for name, build in sorted(HALFLINE_GRAPHS.items()):
        p = build_presentation(build())
        rank = p.vertex_rank("v0")
        box = range(-2, 3) if rank == 2 else range(-1, 2)
        for c in product(box, repeat=rank):
            if not any(c):
                continue
            g = vertex_word("v0", c)
            for h in (t_pow(1), t_pow(-1)):
                shape = classify_intersection(p, g, h)
                kinds.add(type(shape))
                if isinstance(shape, Finite):
                    ends = [_offset(p, h, shape.segment.start), _offset(p, h, shape.segment.end)]
                    assert ends[0] <= 0 <= ends[1], (name, c)
                    assert shape.segment.length == ends[1] - ends[0]
                elif isinstance(shape, PositiveHalfLine):
                    ends = [_offset(p, h, shape.origin), None]
                elif isinstance(shape, NegativeHalfLine):
                    ends = [None, _offset(p, h, shape.origin)]
                else:
                    assert isinstance(shape, WholeAxis), (name, c, shape)
                    ends = [None, None]
                origin = next((end for end in ends if end is not None), 0)
                for end, step in zip(ends, (-1, 1)):
                    if end is None:
                        stays = (_fixed_at(p, g, h, origin + step * k) for k in range(rank + 2))
                        assert all(stays), (name, c, h)
                    else:
                        assert _fixed_at(p, g, h, end), (name, c, h)
                        assert not _fixed_at(p, g, h, end + step), (name, c, h)
    assert kinds == {Finite, PositiveHalfLine, NegativeHalfLine, WholeAxis}


def test_deciding_builds_no_fraction(monkeypatch, tmp_path, capsys):
    # Only compute_modulus works over the rationals: building
    # presentations, tuple conjugacy, axis shapes, centralizers and the
    # CLI construct no Fraction at all.
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    graphs = {name: ALL_GRAPHS[name] for name in ("bs12", "bs23", "klein", "z4f2")}
    graphs["hnn2"] = NON_UNIMODULAR["rank2"]
    rng = random.Random(47)
    for name, build in graphs.items():
        p = build_presentation(build())
        rank = p.vertex_rank("v0")
        unit = vertex_word("v0", (1,) + (0,) * (rank - 1))
        for _ in range(4):
            first = (t_pow(1), conjugate(p, unit, t_pow(rng.randint(-1, 1))))
            mover = random_word(rng, p, rng.randint(0, 6))
            second = tuple(word_simplify(p, conjugate(p, x, mover)) for x in first)
            multi_conjugate(p, first, second)
    p = build_presentation(NON_UNIMODULAR["rank2"]())
    elliptic = vertex_word("v0", (2, 1))
    classify_intersection(p, elliptic, t_pow(1))
    classify_intersection(p, conjugate(p, t_pow(1), concat(elliptic, t_pow(1))), t_pow(1))
    centralizer_hyperbolic(p, t_pow(1))
    graph_file = tmp_path / "bs12.json"
    graph_file.write_text(json.dumps(graph_to_dict(ALL_GRAPHS["bs12"]())))
    assert run_command(["axis", str(graph_file), "xv0(1)", "te1"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "negative_half_line"
    assert built == []


# --- offsets between shapes ---------------------------------------------


def _anchor_offset(p, h, first, second):
    return axis_offset(p, h, _shape_anchor(first), _shape_anchor(second))


def test_anchor_offset_between_halflines():
    p = presentation("bs12")
    c = concat(t_pow(-5), a_pow(1), t_pow(5))
    near = classify_intersection(p, a_pow(1), t_pow(1))
    far = classify_intersection(p, conjugate(p, t_pow(1), c), t_pow(1))
    assert _anchor_offset(p, t_pow(1), near, far) == -5
    assert _anchor_offset(p, t_pow(1), far, near) == 5
    assert _anchor_offset(p, t_pow(1), near, near) == 0


def test_anchor_offset_between_bridges():
    p = presentation("bs23")
    mover = concat(a_pow(1), t_pow(1))
    g = conjugate(p, a_pow(1), mover)
    s1 = classify_intersection(p, g, t_pow(1))
    s2 = classify_intersection(p, conjugate(p, g, t_pow(1)), t_pow(1))
    assert _anchor_offset(p, t_pow(1), s1, s2) == 1
