"""Elliptic tuple conjugacy over rank-1 vertex groups, via reachability.

When every vertex group is infinite cyclic, an elliptic element is a
power of a vertex generator up to conjugacy, and conjugating a power
across one edge multiplies its exponent by tau/sigma whenever sigma
divides it.  Every exponent that can ever appear factors over a coprime
base: pairwise coprime integers > 1 obtained from the edge scalars and
the two query exponents by gcd refinement, with no prime factoring.  A
power is then described exactly by its vector of multiplicities over
that base plus a sign and the vertex where it lives, and sigma divides
x exactly when sigma's vector is at most x's in every coordinate.  Each
oriented edge becomes a counter move with a guard, and conjugacy of
gcd-normalized powers turns into reachability between two such states,
explored breadth-first up to a state budget.  The search packs each
state into one int, so a move is an addition and an xor; the counter
view above is what instances are built and read in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .conjugacy import (
    Conjugate,
    ConjugacyAnswer,
    EllipticCertificate,
    EllipticUnsupported,
    Inconclusive,
    NotConjugate,
    find_hyperbolic_in_tuple,
    verify_conjugator,
)
from .graph import AdaptedPresentation
from .linalg import InternalError
from .tree import TreeVertex, stabilizer_coords
from .words import Word, concat, invert_word, letter_word, word_simplify


@dataclass(frozen=True)
class VASState:
    """Multiplicity vector of an exponent over the instance's coprime base,
    its sign, and the vertex carrying the power."""

    exponents: tuple[int, ...]
    sign: int
    vertex: str


@dataclass(frozen=True)
class VASTransition:
    """Counter move for conjugating across one oriented edge: applicable
    when the multiplicities dominate the guard, adds delta, flips the
    sign when the edge maps have opposite signs."""

    edge: str
    guard: tuple[int, ...]
    delta: tuple[int, ...]
    sign_flip: bool
    from_vertex: str
    to_vertex: str


@dataclass(frozen=True)
class ReachabilityInstance:
    base: tuple[int, ...]
    source: VASState
    target: VASState
    transitions: tuple[VASTransition, ...]


@dataclass(frozen=True)
class Reachable:
    """Edge ids in application order: conjugating by their letters, first
    id first, carries the source power to the target power."""

    edges: tuple[str, ...]


@dataclass(frozen=True)
class DefinitivelyUnreachable:
    closure_size: int


@dataclass(frozen=True)
class InconclusiveSearch:
    explored: int
    budget: int


ReachabilityResult = Reachable | DefinitivelyUnreachable | InconclusiveSearch


def _coprime_base(numbers: list[int]) -> tuple[int, ...]:
    """Pairwise coprime integers > 1, in increasing order, over which all
    the numbers factor: any two pieces with a gcd g > 1 are split into g
    and their cofactors, which shrinks the product, until none share one."""
    base: list[int] = []
    pending = [abs(x) for x in numbers if abs(x) > 1]
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending.extend(x for x in (g, a // g, b // g) if x > 1)
                break
        else:
            base.append(a)
    return tuple(sorted(base))


def _valuation(n: int, base: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicities of |n| over a coprime base, by exact division."""
    n = abs(n)
    vec = []
    for b in base:
        k = 0
        while n % b == 0:
            n //= b
            k += 1
        vec.append(k)
    if n != 1:
        raise InternalError(f"{n} does not factor over the coprime base {base}")
    return tuple(vec)


def _require_rank_one(pres: AdaptedPresentation) -> None:
    if any(v.rank != 1 for v in pres.graph.vertices):
        raise ValueError("every vertex group must have rank 1")


def build_reachability_instance(
    pres: AdaptedPresentation, m: int, vertex: str, n: int, target_vertex: str
) -> ReachabilityInstance:
    """Encode "is the m-th power at one vertex conjugate to the n-th
    power at another" as counter reachability."""
    _require_rank_one(pres)
    if m == 0 or n == 0:
        raise ValueError("exponents must be nonzero")
    pres.graph.vertex(vertex)
    pres.graph.vertex(target_vertex)
    # a rank-0 edge group is trivial, so no nontrivial power crosses it
    edges = [e for e in pres.graph.edges if e.rank]
    scalars = [(e.inj_initial.entries[0][0], e.inj_terminal.entries[0][0]) for e in edges]
    base = _coprime_base([m, n, *(x for pair in scalars for x in pair)])
    transitions = []
    for e, (sigma, tau) in zip(edges, scalars):
        guard = _valuation(sigma, base)
        delta = tuple(i - g for i, g in zip(_valuation(tau, base), guard))
        transitions.append(VASTransition(e.id, guard, delta, sigma * tau < 0, e.frm, e.to))

    def state(x: int, v: str) -> VASState:
        return VASState(_valuation(x, base), 1 if x > 0 else -1, v)

    return ReachabilityInstance(
        base, state(m, vertex), state(n, target_vertex), tuple(transitions)
    )


def bounded_reachability(
    instance: ReachabilityInstance, state_budget: int = 100_000
) -> ReachabilityResult:
    """Breadth-first closure of the source.  The closure is often finite
    (guards block unbounded growth), giving a definitive no; when it is
    not, the budget turns the search into an honest refusal.

    Each state is packed into one int: the vertex index in the low bits,
    the sign bit (set for negative) above them, and one ``width``-bit
    multiplicity field per base element above that.  No field goes
    negative, because a move needs at least its guard and delta >=
    -guard.  No field overflows: each move adds at most the largest
    positive delta, and no path in the search is longer than the budget,
    so a field never exceeds the largest source or target multiplicity
    plus that delta times the budget.  So a move is exact as one
    addition of its packed delta and vertex change, with no carry or
    borrow between fields, followed by an xor with its sign flip, and
    undoing it reverses both.
    """
    if state_budget < 1:
        raise ValueError("state budget must be positive")
    source, target = instance.source, instance.target
    if source == target:
        return Reachable(())
    ends = (v for tr in instance.transitions for v in (tr.from_vertex, tr.to_vertex))
    index = {v: i for i, v in enumerate(dict.fromkeys((source.vertex, target.vertex, *ends)))}
    vbits = (len(index) - 1).bit_length()
    sign_bit = 1 << vbits
    largest = max((0, *source.exponents, *target.exponents))
    rise = max((0, *(d for tr in instance.transitions for d in tr.delta)))
    width = (largest + rise * state_budget).bit_length() + 1
    mask = (1 << width) - 1
    shifts = [vbits + 1 + width * i for i in range(len(instance.base))]

    def pack(state: VASState) -> int:
        packed = index[state.vertex] | (sign_bit if state.sign < 0 else 0)
        for shift, k in zip(shifts, state.exponents):
            packed |= k << shift
        return packed

    # each vertex keeps its moves in transition order, as (guards, step,
    # flip, move index) with guards as (shift, minimum) pairs
    moves: list[list[tuple]] = [[] for _ in index]
    undo = []
    for k, tr in enumerate(instance.transitions):
        step = index[tr.to_vertex] - index[tr.from_vertex]
        step += sum(d << shift for shift, d in zip(shifts, tr.delta))
        flip = sign_bit if tr.sign_flip else 0
        guards = tuple((shift, g) for shift, g in zip(shifts, tr.guard) if g)
        moves[index[tr.from_vertex]].append((guards, step, flip, k))
        undo.append((step, flip, tr.edge))
    vmask = sign_bit - 1
    start, goal = pack(source), pack(target)
    parents: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for guards, step, flip, k in moves[s & vmask]:
            for shift, g in guards:
                if (s >> shift) & mask < g:
                    break
            else:
                nxt = (s + step) ^ flip
                if nxt in parents:
                    continue
                parents[nxt] = k
                if nxt == goal:
                    edges: list[str] = []
                    while (k := parents[nxt]) >= 0:
                        step, flip, edge = undo[k]
                        edges.append(edge)
                        nxt = (nxt ^ flip) - step
                    return Reachable(tuple(reversed(edges)))
                if len(parents) >= state_budget:
                    return InconclusiveSearch(len(parents), state_budget)
                queue.append(nxt)
    return DefinitivelyUnreachable(len(parents))


def replay_witness(pres: AdaptedPresentation, edges: tuple[str, ...]) -> Word:
    """Conjugator realizing a reachability path: the letters of the
    traversed edges, later steps applied on the left.  Tree-edge letters
    are the identity and are skipped."""
    letters = [
        letter_word(eid) for eid in reversed(edges) if not pres.is_tree_edge(eid)
    ]
    return concat(*letters)


def gbs_multi_conjugate(
    pres: AdaptedPresentation,
    first: tuple[Word, ...],
    second: tuple[Word, ...],
    state_budget: int = 100_000,
) -> ConjugacyAnswer:
    """Tuple conjugacy when both tuples generate elliptic subgroups.

    After moving each tuple into a single vertex group, a conjugator must
    send generator powers to generator powers with one scaling factor, so
    the exponent patterns must agree up to that factor and the gcd powers
    must be conjugate, which bounded reachability answers.
    """
    first = tuple(first)
    second = tuple(second)
    if not first or len(first) != len(second):
        raise ValueError("tuples must be nonempty and of equal length")
    if state_budget < 1:
        raise ValueError("state budget must be positive")
    if any(v.rank != 1 for v in pres.graph.vertices):
        return EllipticUnsupported(
            "elliptic tuple conjugacy needs every vertex group to have rank 1"
        )
    found_first = find_hyperbolic_in_tuple(pres, first)
    if not isinstance(found_first, EllipticCertificate):
        raise ValueError("first tuple generates a non-elliptic subgroup")
    found_second = find_hyperbolic_in_tuple(pres, second)
    if not isinstance(found_second, EllipticCertificate):
        return NotConjugate("one side is elliptic, the other is not")

    def exponents(items: tuple[Word, ...], vertex: TreeVertex) -> tuple[int, ...]:
        out = []
        for w in items:
            coords = stabilizer_coords(pres, vertex, w)
            if coords is None:
                raise InternalError("the certificate vertex does not fix the tuple")
            out.append(coords[0])
        return tuple(out)

    va, vb = found_first.vertex, found_second.vertex
    ms = exponents(first, va)
    ns = exponents(second, vb)
    if any((m == 0) != (n == 0) for m, n in zip(ms, ns)):
        return NotConjugate("an identity coordinate faces a nontrivial one")
    live = [(m, n) for m, n in zip(ms, ns) if m != 0]
    if not live:
        return Conjugate(Word.identity())

    # One scaling factor must relate the exponent patterns exactly.
    mu = gcd(*(m for m, _ in live))
    ratios = [(m // mu, n) for m, n in live]
    r0, n0 = ratios[0]
    if n0 % r0:
        return NotConjugate("exponent patterns differ")
    nu = n0 // r0
    if any(n != nu * r for r, n in ratios):
        return NotConjugate("exponent patterns differ")

    instance = build_reachability_instance(pres, mu, va.rep, nu, vb.rep)
    result = bounded_reachability(instance, state_budget)
    if isinstance(result, InconclusiveSearch):
        return Inconclusive(result.explored, result.budget)
    if isinstance(result, DefinitivelyUnreachable):
        return NotConjugate(
            f"gcd powers are not conjugate (closure of {result.closure_size} states)"
        )
    witness = word_simplify(
        pres,
        concat(vb.carrier, replay_witness(pres, result.edges), invert_word(pres, va.carrier)),
    )
    verify_conjugator(pres, witness, first, second)
    return Conjugate(witness)
