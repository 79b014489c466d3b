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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def validate_word(pres: AdaptedPresentation, w: Word) -> None:
    for s in w.syllables:
        if isinstance(s, VertexSyllable):
            try:
                rank = pres.vertex_rank(s.vertex)
            except KeyError:
                raise ValueError(f"word uses unknown vertex {s.vertex!r}") from None
            if len(s.vec) != rank:
                raise ValueError(
                    f"syllable at {s.vertex!r} has {len(s.vec)} coordinates, expected {rank}"
                )
        else:
            try:
                pres.graph.edge(s.edge)
            except KeyError:
                raise ValueError(f"word uses unknown edge {s.edge!r}") from None


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

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]


def path_form_word(pres: AdaptedPresentation, pf: PathForm) -> Word:
    """Rewrite a path form as a word (letters of the reversed steps)."""
    syllables: list[Syllable] = []
    for i, v in enumerate(pf.vertices):
        if i > 0:
            syllables.append(StableSyllable(pf.edges[i - 1].reverse))
        if not is_zero_vec(pf.terms[i]):
            syllables.append(VertexSyllable(v, pf.terms[i]))
    return Word(tuple(syllables))


def _walk_route(pres: AdaptedPresentation, edges: Iterable[Edge], verts, steps, terms):
    for e in edges:
        steps.append(e)
        verts.append(e.to)
        terms.append(zero_vec(pres.vertex_rank(e.to)))


def to_path_form(
    pres: AdaptedPresentation, w: Word, base: str | None = None, end: str | None = None
) -> PathForm:
    """Unreduced path form of w from base to end, via spanning-tree detours.

    Tree letters are the identity, so threading every syllable through the
    tree keeps the element equal to w while making the walk explicit.
    """
    if base is None:
        base = pres.base
    if end is None:
        end = base
    verts: list[str] = [base]
    steps: list[Edge] = []
    terms: list[IntVec] = [zero_vec(pres.vertex_rank(base))]
    for s in w.syllables:
        if isinstance(s, VertexSyllable):
            _walk_route(pres, pres.tree_route(verts[-1], s.vertex), verts, steps, terms)
            terms[-1] = add_vec(terms[-1], s.vec)
        else:
            e = pres.graph.edge(s.edge)
            # the letter of e crosses ē, entering at to(e) and leaving at frm(e)
            _walk_route(pres, pres.tree_route(verts[-1], e.to), verts, steps, terms)
            rev = pres.reverse(e)
            steps.append(rev)
            verts.append(rev.to)
            terms.append(zero_vec(pres.vertex_rank(rev.to)))
    _walk_route(pres, pres.tree_route(verts[-1], end), verts, steps, terms)
    return PathForm(tuple(verts), tuple(steps), tuple(terms))


def reduce_path_form(pres: AdaptedPresentation, pf: PathForm) -> PathForm:
    """Britton reduction: repeatedly collapse backtracking pairs whose
    middle term lies in the edge-group image, transporting the term across.
    One stack pass; the stack never contains a pinchable pair."""
    verts: list[str] = [pf.vertices[0]]
    steps: list[Edge] = []
    terms: list[IntVec] = [pf.terms[0]]
    for e, c_after in zip(pf.edges, pf.terms[1:]):
        if steps and steps[-1].reverse == e.id:
            transported = pres.transport_across(e, terms[-1])
            if transported is not None:
                steps.pop()
                verts.pop()
                terms.pop()
                terms[-1] = add_vec(add_vec(terms[-1], transported), c_after)
                continue
        steps.append(e)
        verts.append(e.to)
        terms.append(c_after)
    return PathForm(tuple(verts), tuple(steps), tuple(terms))


def is_reduced(pres: AdaptedPresentation, pf: PathForm) -> bool:
    for i in range(pf.length - 1):
        if pf.edges[i].reverse == pf.edges[i + 1].id:
            if pres.transport_across(pf.edges[i + 1], pf.terms[i + 1]) is not None:
                return False
    return True


def reduced_form(
    pres: AdaptedPresentation, w: Word, base: str | None = None, end: str | None = None
) -> PathForm:
    """Reduced path form of w from base to end (both default to the
    presentation base)."""
    if base is None:
        base = pres.base
    if end is None:
        end = base
    return reduce_path_form(pres, to_path_form(pres, w, base, end))


def is_trivial(pres: AdaptedPresentation, w: Word) -> bool:
    pf = reduced_form(pres, word_simplify(pres, w))
    return pf.length == 0 and is_zero_vec(pf.terms[0])


def express_in_vertex(pres: AdaptedPresentation, w: Word, vertex: str) -> IntVec | None:
    """Coordinates of w in the group at the given vertex, or None when w
    does not belong to it.  Complete: a reduced loop of positive length
    never lies in a vertex group."""
    pf = reduced_form(pres, word_simplify(pres, w), base=vertex, end=vertex)
    if pf.length == 0:
        return pf.terms[0]
    return None


def words_equal(pres: AdaptedPresentation, a: Word, b: Word) -> bool:
    return is_trivial(pres, concat(a, invert_word(pres, b)))
