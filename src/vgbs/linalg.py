"""Exact integer linear algebra.

All computations use Python ints, so nothing here rounds: lattices
(subgroups of Z^n) kept in a canonical column Hermite basis, affine
lattices (cosets) with canonical base points, their integer images and
preimages, and finite unions of affine lattices.  Fractions appear only
in Lattice.coords and in RatMatrix, the read-only output type of
compute_modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


class InternalError(Exception):
    """The engine's own answer failed its check: a fault in the engine,
    not in the input.  Raised explicitly, so python -O keeps the check."""


def add_vec(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub_vec(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg_vec(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def zero_vec(n: int) -> IntVec:
    return (0,) * n


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and g == s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class _Matrix:
    """Immutable matrix, entries stored row-major; the constructors
    convert each entry to the subclass's entry type."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None):
        rows = [tuple(map(cls.entry, row)) for row in rows]
        if cols is None:
            if not rows:
                raise ValueError("need explicit column count for an empty row list")
            cols = len(rows[0])
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None):
        columns = [tuple(map(cls.entry, col)) for col in columns]
        if rows is None:
            if not columns:
                raise ValueError("need explicit row count for an empty column list")
            rows = len(columns[0])
        entries = tuple(tuple(col[i] for col in columns) for i in range(rows))
        return cls(rows, len(columns), entries)

    def mul(self, other: _Matrix):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ot = [tuple(row[j] for row in other.entries) for j in range(other.cols)]
        prod = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return type(self)(self.rows, other.cols, prod)


class IntMatrix(_Matrix):
    """Immutable integer matrix."""

    entry = int

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def column(self, j: int) -> IntVec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[IntVec]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def mul_vec(self, v: Sequence[int]) -> IntVec:
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)),
        )

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))


class RatMatrix(_Matrix):
    """Read-only matrix over Fraction: the result type of compute_modulus."""

    entry = Fraction

    def mul_vec(self, v: Sequence) -> RatVec:
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.entries)


def column_hnf_with_transform(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: H = mat * U with U unimodular.

    Nonzero columns of H come first, their pivot rows strictly increase,
    pivots are positive, and in each pivot row the entries to the left of
    the pivot lie in [0, pivot).
    """
    m, n = mat.rows, mat.cols
    cols = [list(mat.column(j)) for j in range(n)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    c = 0
    for r in range(m):
        if c == n:
            break
        for j in range(c + 1, n):
            if cols[j][r] == 0:
                continue
            a, b = cols[c][r], cols[j][r]
            g, s, t = xgcd(a, b)
            p, q = a // g, b // g
            # [[s, -q], [t, p]] has determinant s*p + t*q = 1
            for vecs in (cols, ucols):
                vc, vj = vecs[c], vecs[j]
                for i in range(len(vc)):
                    x, y = vc[i], vj[i]
                    vc[i] = s * x + t * y
                    vj[i] = p * y - q * x
        pivot = cols[c][r]
        if pivot == 0:
            continue
        if pivot < 0:
            cols[c] = [-x for x in cols[c]]
            ucols[c] = [-x for x in ucols[c]]
            pivot = -pivot
        for j in range(c):
            f = cols[j][r] // pivot
            if f:
                for i in range(m):
                    cols[j][i] -= f * cols[c][i]
                for i in range(n):
                    ucols[j][i] -= f * ucols[c][i]
        c += 1
    H = IntMatrix.from_columns(cols, rows=m)
    U = IntMatrix.from_columns(ucols, rows=n)
    return H, U


def integer_kernel(mat: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the integer kernel {x : mat @ x = 0}."""
    H, U = column_hnf_with_transform(mat)
    rank = sum(1 for j in range(H.cols) if not is_zero_vec(H.column(j)))
    return IntMatrix.from_columns([U.column(j) for j in range(rank, mat.cols)], rows=mat.cols)


def _first_nonzero(v: Sequence[int]) -> int:
    for i, x in enumerate(v):
        if x != 0:
            return i
    raise ValueError("zero column has no pivot")


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^n in a canonical column Hermite basis.

    Equal subgroups compare and hash equal because the stored basis is
    canonical and has no zero columns.
    """

    ambient_dim: int
    basis: IntMatrix

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis does not live in the ambient space")
        H, _ = column_hnf_with_transform(self.basis)
        nonzero = [H.column(j) for j in range(H.cols) if not is_zero_vec(H.column(j))]
        object.__setattr__(self, "basis", IntMatrix.from_columns(nonzero, rows=self.ambient_dim))

    @classmethod
    def full(cls, n: int) -> Lattice:
        return cls(n, IntMatrix.identity(n))

    @classmethod
    def zero(cls, n: int) -> Lattice:
        return cls(n, IntMatrix.from_columns([], rows=n))

    @classmethod
    def from_generators(cls, n: int, generators: Sequence[Sequence[int]]) -> Lattice:
        return cls(n, IntMatrix.from_columns(generators, rows=n))

    @property
    def rank(self) -> int:
        return self.basis.cols

    @cached_property
    def _pivot_columns(self) -> tuple[tuple[int, IntVec], ...]:
        return tuple((_first_nonzero(col), col) for col in self.basis.columns())

    def split(self, v: Sequence[int]) -> tuple[IntVec, IntVec]:
        """(q, r) with v = basis·q + r and r the canonical representative
        of v + self: each pivot entry of r lies in [0, pivot)."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong dimension")
        residual = list(v)
        coords = []
        for r, col in self._pivot_columns:
            q = residual[r] // col[r]
            if q:
                for i in range(r, self.ambient_dim):
                    residual[i] -= q * col[i]
            coords.append(q)
        return tuple(coords), tuple(residual)

    def member_coords(self, v: Sequence[int]) -> IntVec | None:
        """Integer coordinates of v in the basis, or None if v is not a member."""
        q, r = self.split(v)
        return None if any(r) else q

    def contains(self, v: Sequence[int]) -> bool:
        return self.member_coords(v) is not None

    def contains_lattice(self, other: Lattice) -> bool:
        return all(self.contains(other.basis.column(j)) for j in range(other.basis.cols))

    def reduce_vector(self, v: Sequence[int]) -> IntVec:
        """Canonical representative of v + self; constant on cosets."""
        return self.split(v)[1]

    @property
    def pivot_product(self) -> int:
        """Product of the Hermite pivots, the index of the lattice's
        projection onto its pivot rows: it times any integer vector of the
        rational span lies in the lattice."""
        return math.prod(col[r] for r, col in self._pivot_columns)

    def coords(self, v: Sequence) -> RatVec | None:
        """Rational coordinates of v in the basis, or None when v lies
        outside the rational span."""
        scale = self.pivot_product * math.lcm(*(x.denominator for x in v))
        q = self.member_coords(tuple(int(x * scale) for x in v))
        return None if q is None else tuple(Fraction(c, scale) for c in q)


def intersect_lattices(a: Lattice, b: Lattice) -> Lattice:
    """Intersection: the image under a's basis of the coordinates k with
    basis_a·k in b (affine_preimage)."""
    pre = affine_preimage(zero_vec(a.ambient_dim), a.basis, b)
    return image_lattice(a.basis, pre.lattice)


def saturate_lattice(lat: Lattice) -> Lattice:
    """Smallest lattice containing lat whose quotient in Z^n is torsion-free.

    Equivalently the integer points of the rational span of lat.
    """
    left_kernel = integer_kernel(lat.basis.transpose()).transpose()
    return Lattice(lat.ambient_dim, integer_kernel(left_kernel))


def image_lattice(map_matrix: IntMatrix, lat: Lattice) -> Lattice:
    """Image of lat under an integer matrix."""
    if map_matrix.cols != lat.ambient_dim:
        raise ValueError("shape mismatch")
    gens = [map_matrix.mul_vec(col) for col in lat.basis.columns()]
    return Lattice.from_generators(map_matrix.rows, gens)


def solve_linear_system_integer(mat: IntMatrix, rhs: Sequence[int]) -> AffineLattice | None:
    """All integer solutions x of mat @ x = rhs, or None if there are none."""
    if len(rhs) != mat.rows:
        raise ValueError("right-hand side has wrong dimension")
    H, U = column_hnf_with_transform(mat)
    rank = sum(1 for j in range(H.cols) if not is_zero_vec(H.column(j)))
    residual = list(rhs)
    y = [0] * mat.cols
    for j in range(rank):
        col = H.column(j)
        r = _first_nonzero(col)
        q, rem = divmod(residual[r], col[r])
        if rem:
            return None
        if q:
            for i in range(r, mat.rows):
                residual[i] -= q * col[i]
        y[j] = q
    if any(residual):
        return None
    base = U.mul_vec(y)
    kernel = IntMatrix.from_columns([U.column(j) for j in range(rank, mat.cols)], rows=mat.cols)
    return AffineLattice(base, Lattice(mat.cols, kernel))


@dataclass(frozen=True)
class AffineLattice:
    """Coset base + L of a lattice L <= Z^n, with a canonical base point."""

    base: IntVec
    lattice: Lattice

    def __post_init__(self) -> None:
        base = tuple(int(x) for x in self.base)
        if len(base) != self.lattice.ambient_dim:
            raise ValueError("base point has wrong dimension")
        object.__setattr__(self, "base", self.lattice.reduce_vector(base))

    @classmethod
    def full(cls, n: int) -> AffineLattice:
        return cls(zero_vec(n), Lattice.full(n))

    @classmethod
    def point(cls, v: Sequence[int]) -> AffineLattice:
        return cls(tuple(v), Lattice.zero(len(v)))

    @property
    def ambient_dim(self) -> int:
        return self.lattice.ambient_dim

    @property
    def dim(self) -> int:
        return self.lattice.rank

    def contains(self, v: Sequence[int]) -> bool:
        return self.lattice.contains(sub_vec(v, self.base))

    def is_subset(self, other: AffineLattice) -> bool:
        return other.contains(self.base) and other.lattice.contains_lattice(self.lattice)

    def image(self, const: Sequence[int], mat: IntMatrix) -> AffineLattice:
        """The coset {const + mat·v : v in self} in the codomain of mat."""
        base = add_vec(const, mat.mul_vec(self.base))
        return AffineLattice(base, image_lattice(mat, self.lattice))


def intersect_affine(a: AffineLattice, b: AffineLattice) -> AffineLattice | None:
    """Intersection of two cosets, None when they are disjoint: the image
    of the coordinates k with a.base + basis_a·k in b (affine_preimage)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pre = affine_preimage(sub_vec(a.base, b.base), a.lattice.basis, b.lattice)
    return None if pre is None else pre.image(a.base, a.lattice.basis)


def affine_preimage(
    const: Sequence[int], coeff: IntMatrix, target: Lattice
) -> AffineLattice | None:
    """Integer vectors k with const + coeff @ k inside the target lattice,
    or None when no k works."""
    if coeff.rows != target.ambient_dim or len(const) != target.ambient_dim:
        raise ValueError("codomain dimension mismatch")
    stacked = coeff.hstack(target.basis.scale(-1))
    sols = solve_linear_system_integer(stacked, neg_vec(const))
    if sols is None:
        return None
    q = coeff.cols
    gens = [sols.lattice.basis.column(j)[:q] for j in range(sols.lattice.basis.cols)]
    return AffineLattice(sols.base[:q], Lattice.from_generators(q, gens))


@dataclass(frozen=True)
class AffineLatticeUnion:
    """Finite union of affine lattices in Z^n, canonically pruned and sorted."""

    ambient_dim: int
    parts: tuple[AffineLattice, ...]

    def __post_init__(self) -> None:
        parts = set(self.parts)
        for p in parts:
            if p.ambient_dim != self.ambient_dim:
                raise ValueError("part has wrong ambient dimension")
        kept = [
            p
            for p in parts
            if not any(q is not p and p.is_subset(q) and not q.is_subset(p) for q in parts)
        ]
        kept = sorted(set(kept), key=lambda p: (p.dim, p.base, p.lattice.basis.entries))
        object.__setattr__(self, "parts", tuple(kept))

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, v: Sequence[int]) -> bool:
        return any(p.contains(v) for p in self.parts)
