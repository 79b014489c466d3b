"""Words in the fundamental group and their normal forms.

A word is a sequence of vertex-group syllables (a vertex id with an
integer vector) and stable letters (an oriented edge id).  The letter of
an edge and the letter of its reverse are mutually inverse, and letters
of spanning-tree edges equal the identity.

Normal forms are path forms: a walk v0, e1, v1, ..., ep, vp in the graph
together with a vertex-group term at every stop.  The group element of a
path form is c0 · t(ē1) · c1 · ... · t(ēp) · cp, i.e. the letter written
between c_{i-1} and c_i is the one of the reversed step.  With that
reading, crossing step e_i moves the walk from frm(e_i) to to(e_i), and
conjugating a term across a pinched pair applies inj_terminal after an
inj_initial preimage.  A path form is reduced when no backtracking pair
e, ē encloses a middle term inside the relevant edge-group image; reduced
forms of a fixed element all have the same walk, and only the empty walk
with a zero term represents the identity.

Reduction is one stack pass (Britton's lemma; Lyndon–Schupp, §IV.2):
every step of the walk of w through spanning-tree detours is pinched
against the stack as it arrives (_pinch), and tree._translate runs the
same step on into the steps of a tree vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import AdaptedPresentation, Edge
from .linalg import IntVec, add_vec, is_zero_vec, neg_vec, zero_vec


@dataclass(frozen=True)
class VertexSyllable:
    vertex: str
    vec: IntVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "vec", tuple(int(x) for x in self.vec))


@dataclass(frozen=True)
class StableSyllable:
    edge: str


Syllable = VertexSyllable | StableSyllable


@dataclass(frozen=True)
class Word:
    syllables: tuple[Syllable, ...]

    @classmethod
    def identity(cls) -> Word:
        return cls(())

    def __len__(self) -> int:
        return len(self.syllables)


def vertex_word(vertex: str, vec: Sequence[int]) -> Word:
    return Word((VertexSyllable(vertex, tuple(vec)),))


def letter_word(edge: str) -> Word:
    return Word((StableSyllable(edge),))


def concat(*words: Word) -> Word:
    out: tuple[Syllable, ...] = ()
    for w in words:
        out += w.syllables
    return Word(out)


def invert_word(pres: AdaptedPresentation, w: Word) -> Word:
    out: list[Syllable] = []
    for s in reversed(w.syllables):
        if isinstance(s, VertexSyllable):
            out.append(VertexSyllable(s.vertex, neg_vec(s.vec)))
        else:
            out.append(StableSyllable(pres.graph.edge(s.edge).reverse))
    return Word(tuple(out))


def word_power(pres: AdaptedPresentation, w: Word, n: int) -> Word:
    if n < 0:
        return word_power(pres, invert_word(pres, w), -n)
    return concat(*([w] * n))


def conjugate(pres: AdaptedPresentation, w: Word, by: Word) -> Word:
    return concat(by, w, invert_word(pres, by))


def commutator(pres: AdaptedPresentation, a: Word, b: Word) -> Word:
    return concat(a, b, invert_word(pres, a), invert_word(pres, b))


def word_simplify(pres: AdaptedPresentation, w: Word) -> Word:
    """Free simplification only: drop zero syllables, merge same-vertex
    neighbors, cancel adjacent mutually-inverse letters.  Cheap, and keeps
    intermediate words from ballooning; does not decide anything."""
    stack: list[Syllable] = []
    for s in w.syllables:
        if isinstance(s, VertexSyllable):
            if is_zero_vec(s.vec):
                continue
            if stack and isinstance(stack[-1], VertexSyllable) and stack[-1].vertex == s.vertex:
                merged = add_vec(stack[-1].vec, s.vec)
                stack.pop()
                if not is_zero_vec(merged):
                    stack.append(VertexSyllable(s.vertex, merged))
                continue
            stack.append(s)
        else:
            if (
                stack
                and isinstance(stack[-1], StableSyllable)
                and pres.graph.edge(stack[-1].edge).reverse == s.edge
            ):
                stack.pop()
                continue
            stack.append(s)
    return Word(tuple(stack))


@dataclass(frozen=True)
class PathForm:
    """Walk through the graph with a vertex-group term at every stop.

    edges[i] goes from vertices[i] to vertices[i+1]; terms[i] sits at
    vertices[i].  See the module docstring for the reading as a word.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    terms: tuple[IntVec, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges) + 1 or len(self.terms) != len(self.vertices):
            raise ValueError("inconsistent path form lengths")

    @property
    def length(self) -> int:
        return len(self.edges)


def path_form_word(pres: AdaptedPresentation, pf: PathForm) -> Word:
    """Rewrite a path form as a word (letters of the reversed steps)."""
    syllables: list[Syllable] = []
    for i, v in enumerate(pf.vertices):
        if i > 0:
            syllables.append(StableSyllable(pf.edges[i - 1].reverse))
        if not is_zero_vec(pf.terms[i]):
            syllables.append(VertexSyllable(v, pf.terms[i]))
    return Word(tuple(syllables))


def _pinch(pres: AdaptedPresentation, steps: list[Edge], terms: list[IntVec], e: Edge) -> bool:
    """Britton's step: if e backtracks the last step around a term in its
    edge image, cancel the pair, carry the term across and return True."""
    if not steps or steps[-1].reverse != e.id:
        return False
    moved = pres.transport_across(e, terms[-1])
    if moved is None:
        return False
    steps.pop()
    terms.pop()
    terms[-1] = add_vec(terms[-1], moved)
    return True


def _reduce(
    pres: AdaptedPresentation, w: Word, base: str, end: str
) -> tuple[list[Edge], list[IntVec]]:
    """Steps and terms of the reduced path form of w from base to end.
    Tree letters are the identity, so w's walk through spanning-tree
    detours is w itself; each step is pinched as it arrives."""
    steps: list[Edge] = []
    terms: list[IntVec] = [zero_vec(pres.vertex_rank(base))]
    for s in (*w.syllables, None):
        here = steps[-1].to if steps else base
        if s is None:
            route = pres.tree_route(here, end)
        elif isinstance(s, VertexSyllable):
            route = pres.tree_route(here, s.vertex)
        else:
            e = pres.graph.edge(s.edge)
            # the letter of e crosses ē, entering at to(e) and leaving at frm(e)
            route = pres.tree_route(here, e.to) + (pres.reverse(e),)
        for e in route:
            if not _pinch(pres, steps, terms, e):
                steps.append(e)
                terms.append(zero_vec(pres.vertex_rank(e.to)))
        if isinstance(s, VertexSyllable):
            terms[-1] = add_vec(terms[-1], s.vec)
    return steps, terms


def reduced_form(
    pres: AdaptedPresentation, w: Word, base: str | None = None, end: str | None = None
) -> PathForm:
    """Reduced path form of w from base to end (both default to the
    presentation base)."""
    base = pres.base if base is None else base
    end = base if end is None else end
    steps, terms = _reduce(pres, w, base, end)
    return PathForm((base, *(e.to for e in steps)), tuple(steps), tuple(terms))


def is_trivial(pres: AdaptedPresentation, w: Word) -> bool:
    pf = reduced_form(pres, w)
    return pf.length == 0 and is_zero_vec(pf.terms[0])


def express_in_vertex(pres: AdaptedPresentation, w: Word, vertex: str) -> IntVec | None:
    """Coordinates of w in the group at the given vertex, or None when w
    does not belong to it.  Complete: a reduced loop of positive length
    never lies in a vertex group."""
    pf = reduced_form(pres, w, base=vertex, end=vertex)
    if pf.length == 0:
        return pf.terms[0]
    return None


def words_equal(pres: AdaptedPresentation, a: Word, b: Word) -> bool:
    return is_trivial(pres, concat(a, invert_word(pres, b)))
