"""Independent models that check the engine's answers.

Nothing here imports vgbs.  Words are tuples of syllables, ("x", vertex,
vector) for a vertex-group element and ("t", edge) for a stable letter,
read left to right as a product.  Letters of spanning-tree edges are the
identity, as in the engine's presentation convention.

- AffineModel: a faithful action of an ascending HNN extension of Z^r
  (vertex syllable v is x -> x + v, the letter of the loop edge is
  x -> A x) or of the Klein-bottle amalgam <a, b | a^2 = b^2> (two glide
  reflections of the plane) by affine maps with rational entries.
- SemidirectModel: Z^r x| F2 as pairs (vector, reduced free word); the
  translation length on the Bass-Serre tree is the cyclically reduced
  length of the free word.
- replay_rank_one: a partial exponent map for rank-one graphs that pushes
  a generator power through a conjugator syllable by syllable.
"""

from __future__ import annotations

from fractions import Fraction


# -- small exact linear algebra ------------------------------------------------

def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def mat_inv(a):
    n = len(a)
    rows = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def is_integral(v):
    return all(Fraction(x).denominator == 1 for x in v)


# -- words --------------------------------------------------------------------

def invert(word, reverse):
    """Inverse word; reverse maps each edge id to its reverse edge id."""
    out = []
    for s in reversed(word):
        if s[0] == "x":
            out.append(("x", s[1], tuple(-c for c in s[2])))
        else:
            out.append(("t", reverse[s[1]]))
    return tuple(out)


def conjugate_word(word, by, reverse):
    """by · word · by^-1."""
    return tuple(by) + tuple(word) + invert(by, reverse)


def free_reduce(letters, reverse):
    out = []
    for c in letters:
        if out and reverse[out[-1]] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def cyclic_reduce(letters, reverse):
    out = list(free_reduce(letters, reverse))
    while len(out) >= 2 and reverse[out[0]] == out[-1]:
        out = out[1:-1]
    return tuple(out)


def parse_rendered(text):
    """Read a word in the CLI's output syntax: 'xv0(1,-2)' and 'te1' terms."""
    word = []
    for term in text.split():
        if term.startswith("x") and term.endswith(")") and "(" in term:
            vid, coords = term[1:-1].split("(", 1)
            word.append(("x", vid, tuple(int(c) for c in coords.split(",")) if coords else ()))
        elif term.startswith("t") and len(term) > 1:
            word.append(("t", term[1:]))
        else:
            raise ValueError(f"unreadable term {term!r}")
    return tuple(word)


def parse_rendered_list(text):
    """Read "[w1, w2, ...]": commas inside parentheses belong to vectors."""
    items, depth, current = [], 0, []
    for ch in text.strip()[1:-1]:
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return [parse_rendered(item) for item in items if item.strip()]


# -- models -------------------------------------------------------------------

class AffineModel:
    """Group elements as affine maps x -> L x + q over Q^n."""

    def __init__(self, dim, vertex_map, letter_map):
        self.dim = dim
        self._vertex_map = vertex_map
        self._letter_map = letter_map
        self.one = (identity(dim), tuple(Fraction(0) for _ in range(dim)))

    @classmethod
    def hnn(cls, matrix, loop, reverse, vertex="v0"):
        """Ascending HNN extension of Z^r by the injective integer matrix A:
        the loop letter t satisfies t v t^-1 = A v."""
        a = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        r = len(a)
        letters = {loop: (a, (Fraction(0),) * r), reverse: (mat_inv(a), (Fraction(0),) * r)}

        def vertex_map(vid, vec):
            if vid != vertex:
                raise KeyError(vid)
            return identity(r), tuple(Fraction(c) for c in vec)

        return cls(r, vertex_map, letters.__getitem__)

    @classmethod
    def klein_amalgam(cls, tree_edges):
        """<a, b | a^2 = b^2> with a: (x, y) -> (x+1, -y) at v0 and
        b: (x, y) -> (x+1, 1-y) at v1; a faithful action because the image
        is the Klein-bottle group and that group is Hopfian."""
        one = identity(2)
        flip = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))

        def vertex_map(vid, vec):
            (n,) = vec
            odd = n % 2 == 1
            if vid == "v0":
                return (flip if odd else one), (Fraction(n), Fraction(0))
            if vid == "v1":
                return (flip if odd else one), (Fraction(n), Fraction(int(odd)))
            raise KeyError(vid)

        def letter_map(eid):
            if eid not in tree_edges:
                raise KeyError(eid)
            return one, (Fraction(0), Fraction(0))

        return cls(2, vertex_map, letter_map)

    def value(self, word):
        """The affine map of the word: the product acts right factor first."""
        one = self.one[0]
        linear, shift = self.one
        for s in word:
            lg, qg = self._vertex_map(s[1], s[2]) if s[0] == "x" else self._letter_map(s[1])
            shift = tuple(x + y for x, y in zip(mat_vec(linear, qg), shift))
            if lg != one:
                linear = mat_mul(linear, lg)
        return linear, shift


class SemidirectModel:
    """Z^r x| F2: the letter of edge e acts on Z^r by the unimodular integer
    matrix matrices[e]; elements are (vector, freely reduced letter tuple)."""

    def __init__(self, matrices, reverse, vertex="v0"):
        self.matrices = matrices
        self.reverse = reverse
        self.vertex = vertex
        self.dim = len(next(iter(matrices.values())))

    def value(self, word):
        vec = (0,) * self.dim
        phi = tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))
        letters = []
        for s in word:
            if s[0] == "x":
                if s[1] != self.vertex:
                    raise KeyError(s[1])
                vec = tuple(a + sum(x * y for x, y in zip(row, s[2])) for a, row in zip(vec, phi))
            else:
                m = self.matrices[s[1]]
                phi = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m)) for row in phi)
                letters.append(s[1])
        return vec, free_reduce(letters, self.reverse)

    def translation_length(self, word):
        return len(cyclic_reduce([s[1] for s in word if s[0] == "t"], self.reverse))

    def reduced_letters(self, word):
        return len(self.value(word)[1])


def hnn_translation_length(word, loop, reverse):
    """|exponent sum of the loop letter|: the length of t^k a^m, to which
    every element of an ascending HNN extension is conjugate."""
    return abs(sum(1 if s[1] == loop else -1 for s in word if s[0] == "t" and s[1] in (loop, reverse)))


def hnn_reduced_letters(model, word, loop, reverse):
    """Stable letters in a Britton-reduced form t^-i a^m t^j of the element
    x -> A^k x + q: i is the least i >= max(0, -k) with A^i q integral,
    and j = k + i; the junction cannot pinch by minimality of i."""
    k = sum(1 if s[1] == loop else -1 for s in word if s[0] == "t" and s[1] in (loop, reverse))
    _, q = model.value(word)
    a = model._letter_map(loop)[0]
    i = 0
    while not is_integral(q):
        q = mat_vec(a, q)
        i += 1
    i = max(i, -k, 0)
    return 2 * i + k


# -- rank-one exponent replay -------------------------------------------------

class RankOneGraph:
    """Edge scalars of a graph whose vertex and edge groups are all Z."""

    def __init__(self, edges, tree_edges):
        # edges: id -> (frm, to, sigma, tau); the letter of e conjugates
        # sigma-multiples at frm onto tau-multiples at to
        self.edges = edges
        self.tree_edges = frozenset(tree_edges)

    def _tree_step(self, v, m, towards):
        for eid in self.tree_edges:
            frm, to, sigma, tau = self.edges[eid]
            if frm == v and to == towards:
                return (to, m // sigma * tau) if m % sigma == 0 else None
        return None

    def _tree_path(self, u, w):
        # vertices u .. w along tree edges (the tree is small: breadth first)
        prev = {u: None}
        frontier = [u]
        while frontier:
            nxt = []
            for v in frontier:
                for eid in self.tree_edges:
                    frm, to, _, _ = self.edges[eid]
                    if frm == v and to not in prev:
                        prev[to] = v
                        nxt.append(to)
            frontier = nxt
        path = [w]
        while path[-1] != u:
            path.append(prev[path[-1]])
        return path[::-1]

    def move(self, v, m, w):
        """The same element written at vertex w, or None if it is not in
        the group there."""
        state = (v, m)
        for nxt in self._tree_path(v, w)[1:]:
            state = self._tree_step(state[0], state[1], nxt)
            if state is None:
                return None
        return state


def replay_rank_one(graph, conjugator, vertex, exponent):
    """(vertex, exponent) of conjugator · x_vertex(exponent) · conjugator^-1,
    pushed syllable by syllable from the right; None when an intermediate
    conjugate leaves every vertex group this replay can see."""
    v, m = vertex, exponent
    for s in reversed(conjugator):
        if s[0] == "x":
            if s[1] != v and graph.move(v, m, s[1]) is None:
                return None
            continue
        if s[1] in graph.tree_edges:
            continue
        frm, to, sigma, tau = graph.edges[s[1]]
        moved = graph.move(v, m, frm)
        if moved is None or moved[1] % sigma:
            return None
        v, m = to, moved[1] // sigma * tau
    return v, m


def rank_one_equal(graph, a, b):
    """Do x_a[0](a[1]) and x_b[0](b[1]) denote the same element?"""
    return graph.move(a[0], a[1], b[0]) == b or graph.move(b[0], b[1], a[0]) == a


# -- self-checks ----------------------------------------------------------------

def self_check():
    """Hand-computed facts each model must reproduce; raises on a mismatch."""
    rev = {"e1": "e1bar", "e1bar": "e1", "e2": "e2bar", "e2bar": "e2"}
    bs12 = AffineModel.hnn([[2]], "e1", "e1bar")
    t, big_t, a = ("t", "e1"), ("t", "e1bar"), ("x", "v0", (1,))
    # t a t^-1 = a^2 and t^-1 a^2 t = a
    if bs12.value((t, a, big_t)) != bs12.value((("x", "v0", (2,)),)):
        raise AssertionError("bs12: t a t^-1 != a^2")
    if bs12.value((big_t, ("x", "v0", (2,)), t)) != bs12.value((a,)):
        raise AssertionError("bs12: t^-1 a^2 t != a")
    # a t != t a; t^-1 a t is a^(1/2), not in <a>
    if bs12.value((a, t)) == bs12.value((t, a)):
        raise AssertionError("bs12: a and t commute")
    if hnn_reduced_letters(bs12, (big_t, a, t), "e1", "e1bar") != 2:
        raise AssertionError("bs12: t^-1 a t should keep both letters")
    if hnn_reduced_letters(bs12, (t, a, big_t), "e1", "e1bar") != 0:
        raise AssertionError("bs12: t a t^-1 should reduce to a^2")
    if hnn_reduced_letters(bs12, (big_t, big_t, a, t), "e1", "e1bar") != 3:
        raise AssertionError("bs12: t^-2 a t should keep all three letters")
    if hnn_translation_length((t, a, t, big_t, t), "e1", "e1bar") != 2:
        raise AssertionError("bs12: translation length of t a t t^-1 t")

    klein = AffineModel.klein_amalgam({"e1", "e1bar"})
    if klein.value((("x", "v0", (2,)),)) != klein.value((("x", "v1", (2,)),)):
        raise AssertionError("amalgam: a^2 != b^2")
    if klein.value((("x", "v0", (1,)),)) == klein.value((("x", "v1", (1,)),)):
        raise AssertionError("amalgam: a == b")
    ab = (("x", "v0", (1,)), ("x", "v1", (-1,)))
    if klein.value(ab + ab) == klein.one:
        raise AssertionError("amalgam: a b^-1 has finite order")

    shear = ((1, 1), (0, 1))
    z2f2 = SemidirectModel({"e1": shear, "e1bar": ((1, -1), (0, 1)), "e2": ((0, 1), (1, 0)), "e2bar": ((0, 1), (1, 0))}, rev)
    # t1 (0,1) t1^-1 = shear (0,1) = (1,1)
    if z2f2.value((t, ("x", "v0", (0, 1)), big_t)) != z2f2.value((("x", "v0", (1, 1)),)):
        raise AssertionError("semidirect: conjugation by t1 is not the shear")
    w = (("t", "e1"), ("t", "e2"), ("t", "e1bar"), ("t", "e2"), ("x", "v0", (1, 0)))
    if z2f2.translation_length(w) != 4 or z2f2.translation_length(conjugate_word(w, (("t", "e2"),), rev)) != 4:
        raise AssertionError("semidirect: translation length is not conjugation invariant")
    if z2f2.translation_length((("t", "e1"), ("t", "e2"), ("t", "e1bar"))) != 1:
        raise AssertionError("semidirect: cyclic reduction of t1 t2 t1^-1")

    # BS(2,3) at one vertex: t a^2 t^-1 = a^3, so t a^4 t^-1 = a^6
    g = RankOneGraph({"e1": ("v0", "v0", 2, 3), "e1bar": ("v0", "v0", 3, 2)}, ())
    if replay_rank_one(g, (("t", "e1"),), "v0", 4) != ("v0", 6):
        raise AssertionError("rank one: t a^4 t^-1 != a^6")
    if replay_rank_one(g, (("t", "e1"), ("t", "e1")), "v0", 4) != ("v0", 9):
        raise AssertionError("rank one: t^2 a^4 t^-2 != a^9")
    if replay_rank_one(g, (("t", "e1"),), "v0", 3) is not None:
        raise AssertionError("rank one: a^3 is outside the edge group")
    # two vertices joined by a tree edge with scalars 2 and 3: a^4 = b^6
    g2 = RankOneGraph({"f1": ("v0", "v1", 2, 3), "f1bar": ("v1", "v0", 3, 2)}, {"f1", "f1bar"})
    if not rank_one_equal(g2, ("v0", 4), ("v1", 6)) or rank_one_equal(g2, ("v0", 2), ("v1", 2)):
        raise AssertionError("rank one: tree-edge identification")
    if parse_rendered_list("[xv0(1,-2) te1bar, te2]") != [(("x", "v0", (1, -2)), ("t", "e1bar")), (("t", "e2"),)]:
        raise AssertionError("rendered-word parser")
