"""Exact linear algebra: frozen oracles plus algebraic property checks.

Expected values here were computed by hand (Euclid, cofactor expansion,
box enumeration) before the implementation existed.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vgbs.linalg import (
    AffineLattice,
    AffineLatticeUnion,
    IntMatrix,
    Lattice,
    affine_preimage,
    column_hnf_with_transform,
    integer_kernel,
    intersect_affine,
    intersect_lattices,
    saturate_lattice,
    solve_linear_system_integer,
    xgcd,
)


def cofactor_det(entries):
    """Independent determinant via Laplace expansion (test oracle only)."""
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        total += (-1) ** j * entries[0][j] * cofactor_det(minor)
    return total


def box(dim, radius):
    if dim == 0:
        yield ()
        return
    for rest in box(dim - 1, radius):
        for x in range(-radius, radius + 1):
            yield (x,) + rest


small_ints = st.integers(min_value=-9, max_value=9)


def int_matrix_strategy(max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(IntMatrix.from_rows)
        )
    )


@given(small_ints, small_ints)
def test_xgcd_bezout(a, b):
    g, s, t = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert s * a + t * b == g


def test_xgcd_frozen_cases():
    assert xgcd(0, 0)[0] == 0
    assert xgcd(0, -5)[0] == 5
    g, s, t = xgcd(240, 46)
    assert g == 2 and 240 * s + 46 * t == 2


@settings(deadline=None, max_examples=60)
@given(int_matrix_strategy())
def test_column_hnf_shape_and_transform(mat):
    H, U = column_hnf_with_transform(mat)
    assert mat.mul(U).entries == H.entries
    assert abs(cofactor_det(U.entries)) == 1
    pivots = []
    seen_zero = False
    for j in range(H.cols):
        col = H.column(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero, "zero columns must trail"
        r = nz[0]
        assert col[r] > 0
        if pivots:
            assert r > pivots[-1][0]
        for jj in range(j):
            assert 0 <= H.entries[r][jj] < col[r]
        pivots.append((r, j))


def test_column_hnf_frozen_example():
    # columns (2,0) and (1,3) generate {(a, 3a + 6b)}; worked out by hand
    H, U = column_hnf_with_transform(IntMatrix.from_columns([(2, 0), (1, 3)]))
    assert H.columns() == [(1, 3), (0, 6)]
    assert cofactor_det(U.entries) in (1, -1)


@settings(deadline=None, max_examples=40)
@given(int_matrix_strategy())
def test_integer_kernel_annihilates(mat):
    ker = integer_kernel(mat)
    for j in range(ker.cols):
        assert all(x == 0 for x in mat.mul_vec(ker.column(j)))


def test_lattice_membership_against_enumeration():
    lat = Lattice.from_generators(2, [(2, 0), (1, 3)])
    expected = {(a * 2 + b, 3 * b) for a in range(-6, 7) for b in range(-4, 5)}
    for v in box(2, 6):
        assert lat.contains(v) == (v in expected)
        coords = lat.member_coords(v)
        if coords is not None:
            assert lat.basis.mul_vec(coords) == v


def test_lattice_split_against_reduce_and_membership():
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        lat = Lattice.from_generators(n, gens)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        q, r = lat.split(v)
        assert tuple(a + b for a, b in zip(lat.basis.mul_vec(q), r)) == v
        assert r == lat.reduce_vector(v)
        shift = lat.basis.mul_vec(tuple(rng.randint(-5, 5) for _ in range(lat.rank)))
        assert lat.reduce_vector(tuple(a + b for a, b in zip(v, shift))) == r
        assert lat.member_coords(v) == (q if not any(r) else None)
        assert lat.member_coords(shift) is not None


def test_lattice_canonical_equality():
    a = Lattice.from_generators(2, [(2, 0), (1, 3)])
    b = Lattice.from_generators(2, [(1, 3), (3, 3), (2, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_zero_and_full():
    z = Lattice.zero(3)
    assert z.rank == 0 and z.contains((0, 0, 0)) and not z.contains((1, 0, 0))
    f = Lattice.full(3)
    assert f.rank == 3 and f.contains((4, -5, 9))


@settings(deadline=None, max_examples=40)
@given(int_matrix_strategy(), st.lists(small_ints, min_size=3, max_size=3))
def test_integer_solve_roundtrip(mat, x):
    x = tuple(x[: mat.cols])
    x = x + (0,) * (mat.cols - len(x))
    rhs = mat.mul_vec(x)
    sols = solve_linear_system_integer(mat, rhs)
    assert sols is not None
    assert sols.contains(x)
    assert mat.mul_vec(sols.base) == rhs
    for j in range(sols.lattice.basis.cols):
        assert all(v == 0 for v in mat.mul_vec(sols.lattice.basis.column(j)))


def test_integer_solve_unsolvable():
    assert solve_linear_system_integer(IntMatrix.from_rows([[2]]), (1,)) is None
    assert solve_linear_system_integer(IntMatrix.from_rows([[1], [1]]), (0, 1)) is None


def test_intersect_lattices_against_enumeration():
    a = Lattice.from_generators(2, [(2, 0), (0, 2)])
    b = Lattice.from_generators(2, [(3, 0), (1, 1)])
    c = intersect_lattices(a, b)
    for v in box(2, 8):
        assert c.contains(v) == (a.contains(v) and b.contains(v))


def test_saturation_frozen_and_properties():
    lat = Lattice.from_generators(2, [(2, 4)])
    sat = saturate_lattice(lat)
    assert sat.basis.columns() == [(1, 2)]
    assert sat.contains_lattice(lat)
    lat2 = Lattice.from_generators(3, [(2, 0, 2), (0, 3, 3)])
    sat2 = saturate_lattice(lat2)
    assert sat2.contains_lattice(lat2)
    assert sat2.rank == lat2.rank
    # saturated means saturating again changes nothing
    assert saturate_lattice(sat2) == sat2


def test_affine_lattice_canonical_base():
    lat = Lattice.from_generators(2, [(2, 1), (0, 3)])
    a = AffineLattice((3, 5), lat)
    b = AffineLattice((5, 6), lat)  # differs by the generator (2, 1)
    assert a == b
    assert a.contains((3, 5)) and a.contains((5, 6)) and not a.contains((4, 5))


def test_intersect_affine_against_enumeration():
    a = AffineLattice((1, 0), Lattice.from_generators(2, [(2, 0), (0, 1)]))
    b = AffineLattice((0, 1), Lattice.from_generators(2, [(1, 0), (0, 2)]))
    c = intersect_affine(a, b)
    assert c is not None
    for v in box(2, 8):
        assert c.contains(v) == (a.contains(v) and b.contains(v))


def test_intersect_affine_disjoint():
    a = AffineLattice((0,), Lattice.from_generators(1, [(2,)]))
    b = AffineLattice((1,), Lattice.from_generators(1, [(2,)]))
    assert intersect_affine(a, b) is None


def test_affine_preimage_against_enumeration():
    # {k : 1 + k in 2Z} is the odd integers
    got = affine_preimage((1,), IntMatrix.from_rows([[1]]), Lattice.from_generators(1, [(2,)]))
    assert got == AffineLattice((1,), Lattice.from_generators(1, [(2,)]))

    # {k : (1/3 + k_0/3, k_0 + k_1) in Z x 2Z}, scaled by 3
    const = (1, 0)
    coeff = IntMatrix.from_rows([[1, 0], [3, 3]])
    target = Lattice.from_generators(2, [(3, 0), (0, 6)])
    got = affine_preimage(const, coeff, target)
    for k in box(2, 7):
        val = tuple(c + sum(r * x for r, x in zip(row, k)) for c, row in zip(const, coeff.entries))
        assert (got is not None and got.contains(k)) == target.contains(val)


def test_affine_preimage_empty():
    # {k : 1/2 + 2k in Z}, scaled by 2: 1 + 4k is never even
    got = affine_preimage((1,), IntMatrix.from_rows([[4]]), Lattice.from_generators(1, [(2,)]))
    assert got is None


def test_affine_image_against_enumeration():
    # the image of a coset under an integer affine map, injective or not
    coset = AffineLattice((1, 0), Lattice.from_generators(2, [(2, 1), (0, 3)]))
    for const, mat in [
        ((1, -2), IntMatrix.from_rows([[2, 1], [0, 3]])),
        ((0, 5, 1), IntMatrix.from_rows([[1, 0], [1, 1], [0, 2]])),
        ((4,), IntMatrix.from_rows([[1, -1]])),
    ]:
        got = coset.image(const, mat)
        expected = {
            tuple(c + sum(row[i] * v[i] for i in range(2)) for c, row in zip(const, mat.entries))
            for v in box(2, 12)
            if coset.contains(v)
        }
        for y in expected:
            assert got.contains(y)
        # every image point near the origin comes from a point of the box
        for y in box(mat.rows, 4):
            assert got.contains(y) == (y in expected)


def test_union_canonicalization_and_queries():
    inner = AffineLattice((0,), Lattice.from_generators(1, [(4,)]))
    outer = AffineLattice((0,), Lattice.from_generators(1, [(2,)]))
    u = AffineLatticeUnion(1, (inner, outer, outer))
    assert u.parts == (outer,)
    assert u.contains((6,)) and not u.contains((3,))


def test_subspace_coords():
    # rational coordinates in the Hermite basis; None off the span
    s = Lattice.from_generators(3, [(1, 0, 2), (0, 1, 3)])
    assert s.rank == 2
    assert s.coords((2, 1, 7)) == (Fraction(2), Fraction(1))
    assert s.coords((Fraction(1, 2), Fraction(-1, 3), Fraction(0))) == (
        Fraction(1, 2),
        Fraction(-1, 3),
    )
    assert s.coords((0, 0, 1)) is None
    # a pivot of 2: (1, 1/2, 0) is half the basis vector (2, 1, 0)
    t = Lattice.from_generators(3, [(2, 1, 0), (0, 0, 1)])
    assert t.basis.columns() == [(2, 1, 0), (0, 0, 1)]
    assert t.coords((Fraction(1), Fraction(1, 2), Fraction(5))) == (Fraction(1, 2), Fraction(5))
    assert t.coords((1, 0, 0)) is None
