"""Exponent equations over elliptic elements.

A syllable equation asks for the integer vectors k making
a_0^{k_σ(0)} · g_1 · a_1^{k_σ(1)} · ... · g_n · a_n^{k_σ(n)} trivial,
where the a_i are elliptic and the g_i are fixed words.  The solution
set is always a finite union of affine sublattices of Z^p, and this
module computes it exactly, in integers.

The method: conjugate each base into the vertex group it fixes, so the
equation becomes one symbolic loop at the base vertex whose terms are
integer affine functions of k.  Between two bases the loop runs through
one constant word, which the word problem's Britton pass reduces
(words.reduced_form), so the only pairs left to pinch sit around a
base's term.  A loop is trivial exactly when some backtracking pair
pinches, so the solver branches over the backtracking positions.  Its
state is the affine lattice D of the k still allowed,
k = D.base + D.basis·z, with every term written in the coordinates z.
A pinch asks for the middle term to lie in the edge image: that is an
integer preimage in z, D shrinks to its image, every term is rewritten
in the coordinates of the smaller D, and the middle term's image
coordinates cross the edge by the integer map of the edge.  The loop is
then strictly shorter, and the answer of the recursion lies inside D.

The conjugacy engine asks one special equation, s(x)·g·s(x)⁻¹ = h for a
stabilizer element s(x) (local_conjugators).  There both sides are
reduced loops at one vertex, so the pinches are forced from the junction
outward and the solution set is one integer linear system, with no
branching; solve_syllable_equation stays as the general capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import (
    AffineLattice,
    AffineLatticeUnion,
    IntMatrix,
    IntVec,
    Lattice,
    add_vec,
    affine_preimage,
    solve_linear_system_integer,
    sub_vec,
)
from .words import Word, concat, conjugate, invert_word, reduced_form, word_power
from .tree import TreeVertex, translation_profile, ELLIPTIC


@dataclass(frozen=True)
class AffineVec:
    """Integer affine function z ↦ const + coeff·z into Z^dim."""

    const: IntVec
    coeff: IntMatrix

    def __post_init__(self) -> None:
        if len(self.const) != self.coeff.rows:
            raise ValueError("constant part has the wrong dimension")

    @classmethod
    def constant(cls, vec: Sequence[int], unknowns: int) -> AffineVec:
        return cls(tuple(vec), IntMatrix.zero(len(vec), unknowns))

    @classmethod
    def single_unknown(cls, vec: Sequence[int], unknowns: int, index: int) -> AffineVec:
        """z ↦ z[index] · vec."""
        cols = [[0] * len(vec) for _ in range(unknowns)]
        cols[index] = list(vec)
        return cls((0,) * len(vec), IntMatrix.from_columns(cols, rows=len(vec)))

    @property
    def dim(self) -> int:
        return self.coeff.rows

    @property
    def unknowns(self) -> int:
        return self.coeff.cols

    def add(self, other: AffineVec) -> AffineVec:
        return AffineVec(
            add_vec(self.const, other.const),
            IntMatrix(
                self.coeff.rows,
                self.coeff.cols,
                tuple(add_vec(r1, r2) for r1, r2 in zip(self.coeff.entries, other.coeff.entries)),
            ),
        )

    def apply(self, mat: IntMatrix) -> AffineVec:
        """z ↦ mat·(const + coeff·z)."""
        return AffineVec(mat.mul_vec(self.const), mat.mul(self.coeff))

    def compose(self, inner: AffineVec) -> AffineVec:
        """w ↦ self(inner(w))."""
        return AffineVec(
            add_vec(self.const, self.coeff.mul_vec(inner.const)), self.coeff.mul(inner.coeff)
        )

    def coords(self, lattice: Lattice) -> AffineVec:
        """The same function in the basis coordinates of a lattice that
        holds every one of its values."""
        cols = [lattice.member_coords(col) for col in self.coeff.columns()]
        return AffineVec(
            lattice.member_coords(self.const), IntMatrix.from_columns(cols, rows=lattice.rank)
        )

    def evaluate(self, z: Sequence[int]) -> IntVec:
        return add_vec(self.const, self.coeff.mul_vec(z))


@dataclass(frozen=True)
class SyllableEquation:
    """a_0^{k_σ(0)} g_1 a_1^{k_σ(1)} ... g_n a_n^{k_σ(n)} = 1, sigma 1-based."""

    unknowns: int
    bases: tuple[Word, ...]
    connectors: tuple[Word, ...]
    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValueError("equation needs at least one base")
        if len(self.connectors) != len(self.bases) - 1:
            raise ValueError("need exactly one connector between consecutive bases")
        if len(self.sigma) != len(self.bases):
            raise ValueError("sigma must assign an unknown to every base")
        if self.unknowns < 1 or any(not 1 <= s <= self.unknowns for s in self.sigma):
            raise ValueError("sigma values must lie in 1..unknowns")


def equation_word(pres: AdaptedPresentation, eq: SyllableEquation, k: Sequence[int]) -> Word:
    """The concrete word at a given exponent vector (testing and witnesses)."""
    if len(k) != eq.unknowns:
        raise ValueError("wrong number of exponents")
    parts = []
    for i, base in enumerate(eq.bases):
        if i > 0:
            parts.append(eq.connectors[i - 1])
        parts.append(word_power(pres, base, k[eq.sigma[i] - 1]))
    return concat(*parts)


def _symbolic_loop(
    pres: AdaptedPresentation, eq: SyllableEquation
) -> tuple[list[Edge], list[AffineVec]]:
    """One walk at the presentation base whose terms are affine in k; the
    term after step i lives in the vertex group at steps[i].to.  The gap
    between two bases is one constant word, carrier⁻¹ · connector ·
    carrier', reduced from the rep of the vertex one base fixes to that of
    the next; so the only pairs left to pinch sit around a base's term."""
    p = eq.unknowns
    steps: list[Edge] = []
    terms: list[AffineVec] = [AffineVec.constant((0,) * pres.vertex_rank(pres.base), p)]

    def gap(w: Word, start: str, end: str) -> None:
        rf = reduced_form(pres, w, base=start, end=end)
        terms[-1] = terms[-1].add(AffineVec.constant(rf.terms[0], p))
        for e, term in zip(rf.edges, rf.terms[1:]):
            steps.append(e)
            terms.append(AffineVec.constant(term, p))

    rep, back = pres.base, Word.identity()
    for i, base in enumerate(eq.bases):
        profile = translation_profile(pres, base)
        if profile.kind != ELLIPTIC:
            raise ValueError(f"equation base {i} is not elliptic")
        fixed = profile.fixed
        between = eq.connectors[i - 1] if i else Word.identity()
        gap(concat(back, between, fixed.carrier), rep, fixed.rep)
        terms[-1] = terms[-1].add(AffineVec.single_unknown(profile.coords, p, eq.sigma[i] - 1))
        rep, back = fixed.rep, invert_word(pres, fixed.carrier)
    gap(back, rep, pres.base)
    return steps, terms


def _solve_loop(
    pres: AdaptedPresentation,
    steps: tuple[Edge, ...],
    domain: AffineLattice,
    terms: tuple[AffineVec, ...],
    memo: dict,
) -> AffineLatticeUnion:
    """The k in domain that make the loop trivial, where every term is a
    function of the coordinates z of k = domain.base + domain.basis·z."""
    key = (tuple(e.id for e in steps), domain, terms)
    hit = memo.get(key)
    if hit is not None:
        return hit

    basis = domain.lattice.basis
    found: list[AffineLattice] = []
    if not steps:
        t0 = terms[0]
        sol = affine_preimage(t0.const, t0.coeff, Lattice.zero(t0.dim))
        if sol is not None:
            found.append(sol.image(domain.base, basis))
    for j in range(1, len(steps)):
        if steps[j - 1].reverse != steps[j].id:
            continue
        edge = pres.edge_data(steps[j])
        pinch = affine_preimage(terms[j].const, terms[j].coeff, edge.image)
        if pinch is None:
            continue
        child_domain = pinch.image(domain.base, basis)
        # the coordinates z of the child domain's points, as a function of
        # its own coordinates
        inner = AffineVec(
            sub_vec(child_domain.base, domain.base), child_domain.lattice.basis
        ).coords(domain.lattice)
        new = [t.compose(inner) for t in terms]
        moved = new[j].coords(edge.image).apply(edge.across)
        child_terms = (*new[: j - 1], new[j - 1].add(moved).add(new[j + 1]), *new[j + 2 :])
        child_steps = steps[: j - 1] + steps[j + 1 :]
        found.extend(_solve_loop(pres, child_steps, child_domain, child_terms, memo).parts)
    result = AffineLatticeUnion(domain.ambient_dim, tuple(found))
    memo[key] = result
    return result


def solve_syllable_equation(pres: AdaptedPresentation, eq: SyllableEquation) -> AffineLatticeUnion:
    """Exact solution set in Z^p as a finite union of affine lattices."""
    steps, terms = _symbolic_loop(pres, eq)
    return _solve_loop(pres, tuple(steps), AffineLattice.full(eq.unknowns), tuple(terms), {})


def local_conjugators(
    pres: AdaptedPresentation, v: TreeVertex, g: Word, h: Word
) -> AffineLattice | None:
    """Exponent vectors x with s(x)·g·s(x)⁻¹ = h, where s(x) is the
    stabilizer element of v with coordinates x, or None if there are none.
    With g = h this is the slice of the centralizer of g through the
    stabilizer of v.

    In v's frame g and h are loops P and Q at v.rep, reduced, and x·P·x⁻¹
    is still reduced, so by the normal-form theorem it equals Q exactly
    when the two walks share their edges e₁…eₙ and the loop x·P·x⁻¹·Q⁻¹
    pinches from the junction outward.  With cᵢ the image coordinates of
    the middle term at level i (H and across of the reversed edge ēᵢ):

        level n:     pₙ − x − qₙ = H_ēₙ·cₙ
        level i:     pᵢ − qᵢ + across_ēᵢ₊₁·cᵢ₊₁ = H_ēᵢ·cᵢ
        level 0:     p₀ + x − q₀ + across_ē₁·c₁ = 0

    One integer linear system in (x, c₁, …, cₙ), no branching; the c are
    fixed by x, so its solution set projects onto one coset of x.
    """
    rank = pres.vertex_rank(v.rep)
    into_v = invert_word(pres, v.carrier)
    p, q = (
        reduced_form(pres, conjugate(pres, w, into_v), v.rep, v.rep)
        for w in (g, h)
    )
    if [e.id for e in p.edges] != [e.id for e in q.edges]:
        return None
    n = p.length
    if n == 0:
        return AffineLattice.full(rank) if p.terms[0] == q.terms[0] else None
    crossed = [pres.edge_data(e.reverse) for e in p.edges]
    # unknowns cₙ … c₁ then x, levels n … 0: outward from the junction,
    # as the pinches go, which keeps the elimination sparse
    starts = [0] * (n + 1)
    for i in range(n, 0, -1):
        starts[i - 1] = starts[i] + crossed[i - 1].image.rank
    x_col = starts[0]
    unit = IntMatrix.identity(rank)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(n, -1, -1):
        block = [[0] * (x_col + rank) for _ in p.terms[i]]
        if i == n:
            _place(block, x_col, unit, -1)
        if i == 0:
            _place(block, x_col, unit, 1)
        if i > 0:
            _place(block, starts[i], crossed[i - 1].image.basis, -1)
        if i < n:
            _place(block, starts[i + 1], crossed[i].across, 1)
        rows.extend(block)
        rhs.extend(sub_vec(q.terms[i], p.terms[i]))
    system = IntMatrix(len(rows), x_col + rank, tuple(map(tuple, rows)))
    sol = solve_linear_system_integer(system, rhs)
    if sol is None:
        return None
    gens = [col[x_col:] for col in sol.lattice.basis.columns()]
    return AffineLattice(sol.base[x_col:], Lattice.from_generators(rank, gens))


def _place(block: list[list[int]], col: int, mat: IntMatrix, sign: int) -> None:
    """Write sign·mat into the rows of block from column col on."""
    for r, row in enumerate(mat.entries):
        for j, x in enumerate(row):
            block[r][col + j] = sign * x
