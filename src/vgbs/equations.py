"""Exponent equations over elliptic elements.

A syllable equation asks for the integer vectors k making
a_0^{k_σ(0)} · g_1 · a_1^{k_σ(1)} · ... · g_n · a_n^{k_σ(n)} trivial,
where the a_i are elliptic and the g_i are fixed words.  The solution
set is always a finite union of affine sublattices of Z^p, and this
module computes it exactly.

The method: conjugate each base into the vertex group it fixes, so the
equation becomes one symbolic loop at the base vertex whose terms are
affine functions of k with rational entries.  A loop is trivial exactly
when some backtracking pair pinches, so the solver branches over the
backtracking positions, records the pinch condition as an affine-lattice
membership, rewrites the loop with the pinched pair collapsed (the middle
term crosses the edge through a rational transport map), and recurses on
the strictly shorter loop.  Integrality of every surviving term is kept
as an explicit side condition, which also absorbs the denominators the
transports introduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import (
    AffineLattice,
    AffineLatticeUnion,
    IntMatrix,
    Lattice,
    RatMatrix,
    RatVec,
    affine_preimage,
    intersect_affine,
    rat_vec,
)
from .words import Word, concat, invert_word, is_trivial, reduced_form, word_power, word_simplify
from .tree import TreeVertex, stabilizer_element, translation_profile, ELLIPTIC


@dataclass(frozen=True)
class AffineVec:
    """Affine function k ↦ const + coeff·k into Q^dim."""

    const: RatVec
    coeff: RatMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "const", rat_vec(self.const))
        if len(self.const) != self.coeff.rows:
            raise ValueError("constant part has the wrong dimension")

    @classmethod
    def constant(cls, vec: Sequence, unknowns: int) -> AffineVec:
        return cls(tuple(vec), IntMatrix.zero(len(vec), unknowns).rational())

    @classmethod
    def single_unknown(cls, vec: Sequence, unknowns: int, index: int) -> AffineVec:
        """k ↦ k[index] · vec."""
        cols = [[0] * len(vec) for _ in range(unknowns)]
        cols[index] = list(vec)
        return cls((0,) * len(vec), RatMatrix.from_columns(cols, rows=len(vec)))

    @property
    def dim(self) -> int:
        return self.coeff.rows

    @property
    def unknowns(self) -> int:
        return self.coeff.cols

    def add(self, other: AffineVec) -> AffineVec:
        return AffineVec(
            tuple(a + b for a, b in zip(self.const, other.const, strict=True)),
            RatMatrix(
                self.coeff.rows,
                self.coeff.cols,
                tuple(
                    tuple(a + b for a, b in zip(r1, r2))
                    for r1, r2 in zip(self.coeff.entries, other.coeff.entries)
                ),
            ),
        )

    def apply(self, mat: RatMatrix) -> AffineVec:
        return AffineVec(mat.mul_vec(self.const), mat.mul(self.coeff))

    def evaluate(self, k: Sequence[int]) -> RatVec:
        return tuple(
            c + sum(row[i] * k[i] for i in range(len(k)))
            for c, row in zip(self.const, self.coeff.entries)
        )

    def is_constant(self) -> bool:
        return all(x == 0 for row in self.coeff.entries for x in row)


@dataclass(frozen=True)
class ScaledVertexTerm:
    """A symbolic vertex-group element: affine in k, possibly fractional."""

    vertex: str
    affine: AffineVec

    @property
    def denominator(self) -> int:
        d = 1
        for x in self.affine.const:
            d = math.lcm(d, x.denominator)
        for row in self.affine.coeff.entries:
            for x in row:
                d = math.lcm(d, x.denominator)
        return d


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
) -> tuple[list[Edge], list[ScaledVertexTerm]]:
    """One walk at the presentation base whose terms are affine in k."""
    p = eq.unknowns
    anchors: list[tuple[TreeVertex, AffineVec]] = []
    for i, base in enumerate(eq.bases):
        profile = translation_profile(pres, base)
        if profile.kind != ELLIPTIC:
            raise ValueError(f"equation base {i} is not elliptic")
        anchors.append(
            (profile.fixed, AffineVec.single_unknown(profile.coords, p, eq.sigma[i] - 1))
        )

    steps: list[Edge] = []
    terms: list[ScaledVertexTerm] = [
        ScaledVertexTerm(pres.base, AffineVec.constant((0,) * pres.vertex_rank(pres.base), p))
    ]

    def flush_constant(w: Word, target: str) -> None:
        rf = reduced_form(pres, word_simplify(pres, w), base=terms[-1].vertex, end=target)
        terms[-1] = ScaledVertexTerm(
            terms[-1].vertex, terms[-1].affine.add(AffineVec.constant(rf.terms[0], p))
        )
        for j, e in enumerate(rf.edges):
            steps.append(e)
            terms.append(ScaledVertexTerm(e.to, AffineVec.constant(rf.terms[j + 1], p)))

    for i, (fixed, sym) in enumerate(anchors):
        before = fixed.carrier if i == 0 else concat(eq.connectors[i - 1], fixed.carrier)
        flush_constant(before, fixed.rep)
        terms[-1] = ScaledVertexTerm(terms[-1].vertex, terms[-1].affine.add(sym))
        flush_constant(invert_word(pres, fixed.carrier), pres.base)
    return steps, terms


def _prereduce_constants(
    pres: AdaptedPresentation, steps: list[Edge], terms: list[ScaledVertexTerm]
) -> tuple[list[Edge], list[ScaledVertexTerm]]:
    """Collapse backtracking pairs whose middle term is constant and inside
    the edge image; valid for every k, so it shrinks the loop for free.
    Only called on the all-integral top-level loop."""
    out_steps: list[Edge] = []
    out_terms: list[ScaledVertexTerm] = [terms[0]]
    for e, after in zip(steps, terms[1:]):
        if out_steps and out_steps[-1].reverse == e.id and out_terms[-1].affine.is_constant():
            c = tuple(int(x) for x in out_terms[-1].affine.const)
            transported = pres.transport_across(e, c)
            if transported is not None:
                out_steps.pop()
                out_terms.pop()
                merged = out_terms[-1].affine.add(
                    AffineVec.constant(transported, after.affine.unknowns)
                ).add(after.affine)
                out_terms[-1] = ScaledVertexTerm(out_terms[-1].vertex, merged)
                continue
        out_steps.append(e)
        out_terms.append(after)
    return out_steps, out_terms


def _integrality(terms: Sequence[ScaledVertexTerm], p: int) -> AffineLattice | None:
    acc = AffineLattice.full(p)
    for t in terms:
        if t.denominator == 1:
            continue
        pre = affine_preimage(t.affine.const, t.affine.coeff, Lattice.full(t.affine.dim))
        if pre is None:
            return None
        acc = intersect_affine(acc, pre)
        if acc is None:
            return None
    return acc


def _solve_loop(
    pres: AdaptedPresentation,
    steps: tuple[Edge, ...],
    terms: tuple[ScaledVertexTerm, ...],
    p: int,
    memo: dict,
) -> AffineLatticeUnion:
    key = (tuple(e.id for e in steps), terms)
    hit = memo.get(key)
    if hit is not None:
        return hit

    if not steps:
        t0 = terms[0].affine
        sol = affine_preimage(t0.const, t0.coeff, Lattice.zero(t0.dim))
        result = (
            AffineLatticeUnion.empty(p) if sol is None else AffineLatticeUnion.single(sol)
        )
        memo[key] = result
        return result

    integral = _integrality(terms, p)
    if integral is None:
        result = AffineLatticeUnion.empty(p)
        memo[key] = result
        return result

    result = AffineLatticeUnion.empty(p)
    for j in range(1, len(steps)):
        if steps[j - 1].reverse != steps[j].id:
            continue
        middle = terms[j].affine
        pinch = affine_preimage(middle.const, middle.coeff, pres.edge_image(steps[j]))
        if pinch is None:
            continue
        constrained = intersect_affine(integral, pinch)
        if constrained is None:
            continue
        transported = middle.apply(pres.edge_data(steps[j]).transport)
        merged = terms[j - 1].affine.add(transported).add(terms[j + 1].affine)
        child_steps = steps[: j - 1] + steps[j + 1 :]
        child_terms = (
            terms[: j - 1]
            + (ScaledVertexTerm(terms[j - 1].vertex, merged),)
            + terms[j + 2 :]
        )
        child = _solve_loop(pres, child_steps, child_terms, p, memo)
        result = result.union(child.intersect_part(constrained))
    memo[key] = result
    return result


def solve_syllable_equation(pres: AdaptedPresentation, eq: SyllableEquation) -> AffineLatticeUnion:
    """Exact solution set in Z^p as a finite union of affine lattices."""
    steps, terms = _symbolic_loop(pres, eq)
    steps, terms = _prereduce_constants(pres, steps, terms)
    return _solve_loop(pres, tuple(steps), tuple(terms), eq.unknowns, {})


def local_conjugators(
    pres: AdaptedPresentation, v: TreeVertex, g: Word, h: Word
) -> AffineLatticeUnion:
    """Exponent vectors x with s(x)·g·s(x)⁻¹ = h, where s(x) is the
    stabilizer element of v with coordinates x.  With g = h this is the
    slice of the centralizer of g through the stabilizer of v."""
    rank = pres.vertex_rank(v.rep)
    if rank == 0:
        if is_trivial(pres, concat(g, invert_word(pres, h))):
            return AffineLatticeUnion.everything(0)
        return AffineLatticeUnion.empty(0)
    units = [
        stabilizer_element(pres, v, tuple(1 if i == j else 0 for j in range(rank)))
        for i in range(rank)
    ]
    bases = tuple(units) + tuple(invert_word(pres, u) for u in units) + (Word.identity(),)
    connectors = (
        (Word.identity(),) * (rank - 1)
        + (g,)
        + (Word.identity(),) * (rank - 1)
        + (invert_word(pres, h),)
    )
    sigma = tuple(range(1, rank + 1)) * 2 + (1,)
    eq = SyllableEquation(rank, bases, connectors, sigma)
    return solve_syllable_equation(pres, eq)
