"""Seeded graph families and query streams for the benchmark.

Nothing here imports vgbs: graphs come out as the JSON document the CLI
reads, and words as syllable tuples (see oracles.py).  Every expected
answer is known by construction or computed by an oracle, never by the
engine, so no engine cache is warm before timing starts.
"""

from __future__ import annotations

import random
from math import comb

import oracles

Z4F2_MATRICES = (
    ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
)


def _identity(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _int_inverse(m):
    inv = oracles.mat_inv(m)
    return tuple(tuple(int(x) for x in row) for row in inv)


def _edge(eid, frm, to, initial, terminal, reverse):
    return {
        "id": eid, "from": frm, "to": to, "rank": len(initial[0]) if initial else 0,
        "inj_initial": [list(r) for r in initial], "inj_terminal": [list(r) for r in terminal],
        "reverse": reverse,
    }


def _pair(eid, frm, to, initial, terminal):
    return [_edge(eid, frm, to, initial, terminal, eid + "bar"),
            _edge(eid + "bar", to, frm, terminal, initial, eid)]


class Family:
    """A graph document plus what the oracles need to know about it."""

    def __init__(self, name, kind, doc, model, tree_edges=()):
        self.name = name
        self.kind = kind
        self.doc = doc
        self.model = model
        self.tree_edges = frozenset(tree_edges)
        self.reverse = {e["id"]: e["reverse"] for e in doc["edges"]}
        self.ranks = {v["id"]: v["rank"] for v in doc["vertices"]}
        self.letters = sorted(e for e in self.reverse if e not in self.tree_edges)

    def invert(self, word):
        return oracles.invert(word, self.reverse)

    def conjugate(self, word, by):
        return oracles.conjugate_word(word, by, self.reverse)

    def equal(self, a, b):
        return self.model.value(a) == self.model.value(b)


def hnn(name, matrix):
    """Ascending HNN extension of Z^r: t v t^-1 = A v."""
    r = len(matrix)
    doc = {"vertices": [{"id": "v0", "rank": r}], "edges": _pair("e1", "v0", "v0", _identity(r), matrix)}
    fam = Family(name, "hnn", doc, oracles.AffineModel.hnn(matrix, "e1", "e1bar"))
    fam.matrix = matrix
    return fam


def semidirect(name, m1, m2):
    """Z^r x| F2 with the loop letters acting by unimodular m1, m2."""
    r = len(m1)
    doc = {"vertices": [{"id": "v0", "rank": r}],
           "edges": _pair("e1", "v0", "v0", _identity(r), m1) + _pair("e2", "v0", "v0", _identity(r), m2)}
    rev = {e["id"]: e["reverse"] for e in doc["edges"]}
    mats = {"e1": m1, "e1bar": _int_inverse(m1), "e2": m2, "e2bar": _int_inverse(m2)}
    return Family(name, "semidirect", doc, oracles.SemidirectModel(mats, rev))


def amalg():
    """<a, b | a^2 = b^2>, the tests' amalg fixture."""
    doc = {"vertices": [{"id": "v0", "rank": 1}, {"id": "v1", "rank": 1}],
           "edges": _pair("e1", "v0", "v1", ((2,),), ((2,),))}
    return Family("amalg", "amalg", doc, oracles.AffineModel.klein_amalgam({"e1", "e1bar"}), {"e1", "e1bar"})


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def unimodular(rng, r, steps):
    """Product of elementary matrices and a signed permutation: det = +-1."""
    perm = list(range(r))
    rng.shuffle(perm)
    m = [[int(perm[i] == j) * rng.choice((1, -1)) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((1, -1))
        for k in range(r):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def two_one_matrix(rng, r):
    """Integer matrix with eigenvalues 2 (once) and 1 (r-1 times),
    conjugated by a unimodular matrix so that it stays integral."""
    upper = [[0] * r for _ in range(r)]
    for i in range(r):
        upper[i][i] = 2 if i == 0 else 1
        for j in range(i + 1, r):
            upper[i][j] = rng.randint(-1, 1)
    u = unimodular(rng, r, 2)
    return _mat_mul(_mat_mul(u, tuple(map(tuple, upper))), _int_inverse(u))


# The seeded matrices come from this fixed seed, not the run seed, so that
# runs with different seeds measure the same groups on different queries.
GRAPH_SEED = 2011


def tuple_families():
    rng = random.Random(GRAPH_SEED)
    fams = [hnn("bs12", ((2,),)), amalg()]
    for r in (2, 3):
        fams.append(hnn(f"hnn{r}", two_one_matrix(rng, r)))
    for r in (2, 4, 6):
        if r == 4:
            fams.append(semidirect("z4f2", *Z4F2_MATRICES))
        else:
            fams.append(semidirect(f"z{r}f2", unimodular(rng, r, 3), unimodular(rng, r, 3)))
    return fams


# -- words ----------------------------------------------------------------------

def _vec(rng, rank, bound=3, nonzero=False):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if not nonzero or any(v):
            return v


def random_word(rng, fam, n):
    """n syllables, each a letter or a vertex element with equal odds."""
    verts = list(fam.ranks)
    out = []
    for _ in range(n):
        if fam.letters and rng.random() < 0.5:
            out.append(("t", rng.choice(fam.letters)))
        else:
            v = rng.choice(verts)
            out.append(("x", v, _vec(rng, fam.ranks[v], nonzero=True)))
    return tuple(out)


def _letter_run(rng, fam, count):
    """count letters with no adjacent inverse pair and no cancelling ends."""
    while True:
        out = []
        while len(out) < count:
            c = rng.choice(fam.letters)
            if not out or fam.reverse[out[-1]] != c:
                out.append(c)
        if count < 2 or fam.reverse[out[0]] != out[-1]:
            return out


def hyperbolic_word(rng, fam, n):
    """n syllables (n even) alternating a letter and a vertex element,
    hyperbolic by construction: nonzero letter exponent sum (HNN),
    cyclically reduced free letters (Z^r x| F2), or a cyclically reduced
    alternation of odd powers of a and b (amalgam)."""
    half = n // 2
    if fam.kind == "amalg":
        return tuple(("x", "v0" if i % 2 == 0 else "v1", (rng.choice((-3, -1, 1, 3)),)) for i in range(2 * half))
    while True:
        letters = _letter_run(rng, fam, half)
        if fam.kind != "hnn" or oracles.hnn_translation_length(tuple(("t", c) for c in letters), "e1", "e1bar"):
            break
    out = []
    for c in letters:
        out.append(("t", c))
        out.append(("x", "v0", _vec(rng, fam.ranks["v0"], nonzero=True)))
    return tuple(out)


def elliptic_word(rng, fam):
    """A nontrivial vertex element conjugated by a short random word."""
    v = rng.choice(sorted(fam.ranks))
    core = (("x", v, _vec(rng, fam.ranks[v], bound=2, nonzero=True)),)
    return fam.conjugate(core, random_word(rng, fam, rng.randint(1, 3))), core


def relator(rng, fam):
    """A defining relator, so products of its conjugates are trivial."""
    if fam.kind == "amalg":
        return (("x", "v0", (2,)), ("x", "v1", (-2,)))
    e = rng.choice([c for c in fam.letters if not c.endswith("bar")])
    v = _vec(rng, fam.ranks["v0"], nonzero=True)
    image = fam.model.value((("t", e), ("x", "v0", v), ("t", fam.reverse[e])))
    w = tuple(int(x) for x in (image[1] if fam.kind == "hnn" else image[0]))
    return (("t", e), ("x", "v0", v), ("t", fam.reverse[e]), ("x", "v0", tuple(-x for x in w)))


def trivial_word(rng, fam, n):
    """A product of conjugated relators of at least n syllables."""
    out = ()
    while len(out) < n:
        out += fam.conjugate(relator(rng, fam), random_word(rng, fam, rng.randint(0, 6)))
    return out


# -- tuples -----------------------------------------------------------------------

# One block of (family, syllables per hyperbolic coordinate).  Every
# family runs short words; the long tier is z4f2 alone, where the axis
# walk and the Fraction transports dominate, and its share of a block
# keeps enough samples for a median in every run.
TUPLE_BLOCK = (
    ("bs12", 4), ("amalg", 4), ("hnn2", 4), ("hnn3", 4), ("z2f2", 4), ("z4f2", 4), ("z6f2", 4),
    ("z4f2", 16),
    ("bs12", 8), ("amalg", 8), ("hnn2", 8), ("hnn3", 8), ("z2f2", 8), ("z4f2", 8),
    ("z4f2", 16), ("z4f2", 16),
)
TUPLE_LARGEST = 16


def _independent(fam, h1, h2):
    """For Z^r x| F2 the axes differ unless the free parts commute."""
    if fam.kind != "semidirect":
        return True
    return fam.model.value(h1 + h2)[1] != fam.model.value(h2 + h1)[1]


def _anchoring_elliptic(rng, fam):
    """An elliptic coordinate that does not fix the whole axis of every
    hyperbolic coordinate, so a 2-tuple is decided, not reduced to a
    polycyclic problem: odd powers in the amalgam (even ones are central)
    and, in an HNN extension, vectors outside the unipotent part of A."""
    while True:
        e, core = elliptic_word(rng, fam)
        if fam.kind == "amalg" and core[0][2][0] % 2 == 0:
            continue
        if fam.kind == "hnn" and hnn_axis_shape(fam.matrix, core[0][2], 1) == "whole_axis":
            continue
        return e


def tuple_queries(seed, fams):
    """Endless stream of (family, first, second, truth, tier), with None
    after each block.

    Blocks repeat TUPLE_BLOCK, so any prefix has nearly the same mix.
    Half the tuples are conjugated by a random word (truth True); the
    other half also cube the elliptic coordinate, which no conjugate can
    match (truth False).
    """
    rng = random.Random(seed)
    by_name = {f.name: f for f in fams}
    turn = 0
    while True:
        for name, tier in TUPLE_BLOCK:
            fam = by_name[name]
            while True:
                h1 = hyperbolic_word(rng, fam, tier)
                h2 = hyperbolic_word(rng, fam, tier)
                if _independent(fam, h1, h2):
                    break
            e = _anchoring_elliptic(rng, fam)
            three = fam.kind == "semidirect" or turn % 3 != 0
            first = (h1, h2, e) if three else (h1, e)
            # alternate per slot and flip each block, so every slot gets both answers
            truth = (turn + turn // len(TUPLE_BLOCK)) % 2 == 0
            rhs = first if truth else first[:-1] + (e * 3,)
            c = random_word(rng, fam, 6)
            second = tuple(fam.conjugate(x, c) for x in rhs)
            yield fam, first, second, truth, tier
            turn += 1
        yield None


# -- rank-one reachability ----------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
MERSENNE_61 = 2**61 - 1


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RankOne:
    """A rank-one graph: vertices v0..v{n-1} on a path of tree edges
    f1, f2, ... and loops; the only edges between distinct vertices are
    the tree edges, so the engine's spanning tree is forced."""

    def __init__(self, name, n_vertices, tree_scalars, loops):
        self.name = name
        edges, scalars, tree = [], {}, set()
        for i, (s, t) in enumerate(tree_scalars, start=1):
            frm, to = f"v{i - 1}", f"v{i}"
            edges += _pair(f"f{i}", frm, to, ((s,),), ((t,),))
            scalars[f"f{i}"], scalars[f"f{i}bar"] = (frm, to, s, t), (to, frm, t, s)
            tree |= {f"f{i}", f"f{i}bar"}
        for i, (v, s, t) in enumerate(loops, start=1):
            edges += _pair(f"e{i}", v, v, ((s,),), ((t,),))
            scalars[f"e{i}"], scalars[f"e{i}bar"] = (v, v, s, t), (v, v, t, s)
        self.doc = {"vertices": [{"id": f"v{i}", "rank": 1} for i in range(n_vertices)], "edges": edges}
        self.vertices = [f"v{i}" for i in range(n_vertices)]
        self.graph = oracles.RankOneGraph(scalars, tree)


def _swap_graph(rng, k, n_vertices):
    primes = sorted(rng.sample(SMALL_PRIMES, k))
    loops = [(f"v{i % n_vertices}", primes[i], primes[(i + 1) % k]) for i in range(k)]
    return RankOne(f"swap{k}x{n_vertices}", n_vertices, [(1, 1)] * (n_vertices - 1), loops), primes


def _random_graph(rng, name):
    n = rng.randint(1, 3)
    tree = [(rng.choice((1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(n - 1)]
    loops = [(f"v{rng.randrange(n)}", rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3, -1, -2, 6)))
             for _ in range(rng.randint(1, 3))]
    return RankOne(name, n, tree, loops)


def _forward(rng, g, vertex, m, steps):
    """Apply up to steps random applicable edge moves to the power m at vertex."""
    for _ in range(steps):
        moves = [(to, m // s * t) for _, (frm, to, s, t) in sorted(g.graph.edges.items())
                 if frm == vertex and m % s == 0]
        if not moves:
            break
        vertex, m = rng.choice(moves)
    return vertex, m


def _power(v, m):
    return (("x", v, (m,)),)


# Each closure tier has one cycle shape (primes, vertices), so a tier's
# cost depends on the seed only through the primes; together the tiers
# cover 4-6 primes on 1-3 vertices.  Sizes are closure states.
SWAP_TIERS = {"s": (6, 3, 1_500), "m": (4, 1, 4_000), "l": (5, 2, 8_000)}
# Per block: 4 forward "yes" instances, 4/1/4 closures of tiers s/m/l,
# 2 refusals and 2 ~1e12 primes; the median falls among the small
# closures, p90 among the primes, and the largest tier gets enough
# samples for its own median.
REACH_BLOCK = (
    "fwd", "swap-s", "refuse", "fwd2", "swap-l", "bigprime", "fwd", "swap-s", "swap-l",
    "refuse", "fwd2", "swap-l", "swap-s", "bigprime", "swap-m", "swap-s", "swap-l",
)
REFUSE_BUDGET = 2_000
FINITE_BUDGET = 100_000


def _closure_exponent(k, n_vertices, states):
    """Least total multiplicity N with C(N+k-1, k-1) * vertices >= states."""
    n = 1
    while comb(n + k - 1, k - 1) * n_vertices < states:
        n += 1
    return n


def reach_graphs():
    """The graphs the reach workload reuses, keyed by name.  Like the
    tuple families they come from GRAPH_SEED, so the closure tiers cost
    the same in every run and only the queries follow the run seed."""
    rng = random.Random(GRAPH_SEED)
    graphs = {}
    swaps = {}
    for k, nv, _ in SWAP_TIERS.values():
        g, primes = _swap_graph(rng, k, nv)
        graphs[g.name] = g
        swaps[(k, nv)] = (g, primes)
    fwd = []
    for i in range(6):
        g = _random_graph(rng, f"rand{i}")
        graphs[g.name] = g
        fwd.append(g)
    refuse = []
    for i in range(2):
        nv = i + 1
        g = RankOne(f"grow{i}", nv, [(1, 2)] * (nv - 1), [("v0", 1, 2), (f"v{nv - 1}", 3, 1)])
        graphs[g.name] = g
        refuse.append(g)
    big = []
    for i in range(2):
        p = 10**12 + rng.randrange(10**9)
        while not is_prime(p):
            p += 1
        g = RankOne(f"big{i}", 1, [], [("v0", 1, p * (i + 1)), ("v0", 2, 3)])
        graphs[g.name] = g
        big.append((g, p * (i + 1)))
    return graphs, swaps, fwd, refuse, big


def reach_queries(seed, graphs):
    """Endless stream of (graph, first, second, budget, truth, kind), with
    None after each block of REACH_BLOCK."""
    _, swaps, fwd, refuse, big = graphs
    rng = random.Random(seed + 1)
    while True:
        for kind in REACH_BLOCK:
            if kind.startswith("swap"):
                k, nv, states = SWAP_TIERS[kind[-1]]
                g, primes = swaps[(k, nv)]
                total = _closure_exponent(k, nv, states)
                cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
                m = 1
                for p, a in zip(primes, parts):
                    m *= p**a
                # one extra prime factor breaks the total multiplicity, which every move keeps
                n = m * rng.choice(primes)
                yield g, (_power(rng.choice(g.vertices), m),), (_power(rng.choice(g.vertices), n),), FINITE_BUDGET, False, kind
            elif kind.startswith("fwd"):
                g = rng.choice(fwd)
                v = rng.choice(g.vertices)
                m = rng.choice((1, 2, 3)) * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
                w, n = _forward(rng, g, v, m, rng.randint(1, 3))
                if kind == "fwd2":
                    yield g, (_power(v, m), _power(v, 2 * m)), (_power(w, n), _power(w, 2 * n)), FINITE_BUDGET, True, "fwd"
                else:
                    yield g, (_power(v, m),), (_power(w, n),), FINITE_BUDGET, True, "fwd"
            elif kind == "refuse":
                g = rng.choice(refuse)
                m = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)
                q = rng.choice((5, 7, 11))
                yield g, (_power("v0", m),), (_power(g.vertices[-1], m * q),), REFUSE_BUDGET, False, "refuse"
            else:
                g, scalar = rng.choice(big)
                m = 2 ** rng.randint(0, 3)
                yield g, (_power("v0", m),), (_power("v0", m * scalar),), FINITE_BUDGET, True, "bigprime"
        yield None


def mersenne_query():
    """The 2^61-1 instance, in the reach query shape: x^1 is conjugate to
    x^(2^61-1) through the one loop.  The engine factors edge scalars by
    trial division, so it stalls on this scalar; run.py times it apart
    from the counted queries, stopped at the per-query limit."""
    g = RankOne("mersenne61", 1, [], [("v0", 1, MERSENNE_61)])
    return g, (_power("v0", 1),), (_power("v0", MERSENNE_61),), FINITE_BUDGET, True, "mersenne61"


# -- CLI ------------------------------------------------------------------------------

CLI_BLOCK = (
    "trivial", "reduce", "length", "trivial", "reduce", "validate", "length", "trivial",
    "reduce", "centralizer", "trivial", "reduce", "length", "axis", "trivial", "reduce",
    "conjugate", "length", "malformed", "elliptic",
)
CLI_TIERS = (32, 64, 128, 256)
CLI_LARGEST = 256
BROKEN_GRAPH = {
    "vertices": [{"id": "v0", "rank": 1}],
    "edges": [_edge("e1", "v0", "v0", ((1,),), ((2,),), "e1bar"), _edge("e1bar", "v0", "v0", ((1,),), ((2,),), "e1")],
}


def render(word):
    """The CLI's word syntax."""
    return " ".join(f"x{s[1]}({','.join(map(str, s[2]))})" if s[0] == "x" else f"t{s[1]}" for s in word)


def hnn_axis_shape(matrix, vec, direction, cap=200):
    """Shape of Fix(a_v) on the axis of t^direction in an ascending HNN
    extension: a_v fixes t^k.v0 iff A^-k v is integral, which holds for
    every k <= 0; if it holds up to the cap, v lies where A is unipotent."""
    inv = oracles.mat_inv(matrix)
    v = tuple(vec)
    for _ in range(cap):
        v = oracles.mat_vec(inv, v)
        if not oracles.is_integral(v):
            return "negative_half_line" if direction > 0 else "positive_half_line"
    return "whole_axis"


def cli_families():
    rng = random.Random(GRAPH_SEED)
    return [hnn("bs12", ((2,),)), hnn("hnn2", two_one_matrix(rng, 2)), semidirect("z4f2", *Z4F2_MATRICES)]


def cli_queries(seed, fams):
    """Endless stream of (command, family, argument texts, expected, tier),
    with None after each block of CLI_BLOCK.

    The graph argument is the family name; the runner swaps in a file.
    expected holds what the oracle cannot recompute from the texts.
    """
    rng = random.Random(seed + 2)
    turn = {}
    i = 0
    while True:
        for cmd in CLI_BLOCK:
            fam = fams[i % len(fams)]
            i += 1
            n = turn.get(cmd, 0)
            turn[cmd] = n + 1
            tier = CLI_TIERS[n % len(CLI_TIERS)]
            if cmd == "length" and fam.kind == "semidirect":
                # translation lengths near 64 cost about a second each here and
                # would swamp the per-query overhead this workload measures;
                # the long Z^r x| F2 words belong to the tuples workload
                tier = min(tier, 128)
            if cmd in ("trivial", "reduce", "length"):
                # trivial: every other round of tiers is engineered identities
                engineered = (n // len(CLI_TIERS)) % (2 if cmd == "trivial" else 4) == 1
                w = trivial_word(rng, fam, tier) if engineered else random_word(rng, fam, tier)
                yield cmd, fam, (render(w),), None, tier
            elif cmd == "validate":
                yield cmd, fam, (), None, None
            elif cmd == "centralizer":
                h = fam.conjugate(hyperbolic_word(rng, fam, 8), random_word(rng, fam, 2))
                yield cmd, fam, (render(h),), None, None
            elif cmd == "axis":
                v = _vec(rng, fam.ranks["v0"], bound=4, nonzero=True)
                j = rng.choice((-2, -1, 1, 2))
                c = random_word(rng, fam, rng.randint(0, 4))
                g = fam.conjugate((("x", "v0", v),), c)
                h = fam.conjugate(tuple(("t", "e1" if j > 0 else "e1bar") for _ in range(abs(j))), c)
                shape = "whole_axis" if fam.kind == "semidirect" else hnn_axis_shape(fam.matrix, v, j)
                yield cmd, fam, (render(g), render(h)), shape, None
            elif cmd == "conjugate":
                h1 = hyperbolic_word(rng, fam, 4)
                while True:
                    h2 = hyperbolic_word(rng, fam, 4)
                    if _independent(fam, h1, h2):
                        break
                e, _ = elliptic_word(rng, fam)
                first = (h1, h2, e) if fam.kind == "semidirect" else (h1, e)
                truth = n % 2 == 0
                rhs = first if truth else first[:-1] + (e * 3,)
                c = random_word(rng, fam, 4)
                second = tuple(fam.conjugate(x, c) for x in rhs)
                texts = tuple("[" + ", ".join(render(x) for x in t) + "]" for t in (first, second))
                yield cmd, fam, texts, truth, None
            elif cmd == "malformed":
                if n % 2 == 0:
                    yield cmd, None, ("validate",), None, None
                else:
                    yield cmd, fam, ("trivial", render(random_word(rng, fam, 8)) + " xv0(1"), None, None
            else:
                ell = fam if fam.ranks["v0"] >= 2 else fams[(i + 1) % len(fams)]
                if ell.ranks["v0"] < 2:
                    ell = fams[-1]
                a = _vec(rng, ell.ranks["v0"], nonzero=True)
                b = a
                while b == a:
                    b = _vec(rng, ell.ranks["v0"], nonzero=True)
                a, b = (("x", "v0", a),), (("x", "v0", b),)
                yield cmd, ell, ("[" + render(a) + "]", "[" + render(b) + "]"), None, None
        yield None


# -- oracle answers per family ---------------------------------------------------------

def translation_length(fam, word):
    if fam.kind == "hnn":
        return oracles.hnn_translation_length(word, "e1", "e1bar")
    return fam.model.translation_length(word)


def reduced_letters(fam, word):
    if fam.kind == "hnn":
        return oracles.hnn_reduced_letters(fam.model, word, "e1", "e1bar")
    return fam.model.reduced_letters(word)


def in_base_group(fam, word):
    """Does the word lie in the vertex group at the base vertex?"""
    if fam.kind == "hnn":
        linear, shift = fam.model.value(word)
        return linear == oracles.identity(len(shift)) and oracles.is_integral(shift)
    return fam.model.value(word)[1] == ()
