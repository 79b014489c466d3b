"""Finite graphs of groups with free-abelian vertex and edge groups.

A graph is a set of vertices with ranks and a set of oriented edges; each
edge carries an edge-group rank and two integer matrices injecting the
edge group into the groups at its endpoints.  Edges come in reverse pairs
whose matrices swap roles.  An adapted presentation fixes a base vertex
and a spanning tree, which pins down the fundamental group that the rest
of the package computes in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .linalg import (
    IntMatrix,
    IntVec,
    Lattice,
    column_hnf_with_transform,
    integer_kernel,
)


@dataclass(frozen=True)
class Vertex:
    id: str
    rank: int


@dataclass(frozen=True)
class Edge:
    """Oriented edge; inj_initial maps the edge group into the group at frm,
    inj_terminal into the group at to."""

    id: str
    frm: str
    to: str
    rank: int
    inj_initial: IntMatrix
    inj_terminal: IntMatrix
    reverse: str


@dataclass(frozen=True)
class VGBSGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def _vertex_map(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def vertex(self, vid: str) -> Vertex:
        return self._vertex_map[vid]

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    def reverse_edge(self, edge: Edge | str) -> Edge:
        eid = edge.reverse if isinstance(edge, Edge) else self.edge(edge).reverse
        return self.edge(eid)

    def vertex_rank(self, vid: str) -> int:
        return self.vertex(vid).rank


def _matrix_from_json(rows, expected_rows: int, expected_cols: int, where: str) -> IntMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{where}: matrix must be a list of rows")
    if len(rows) != expected_rows:
        raise ValueError(f"{where}: expected {expected_rows} rows, got {len(rows)}")
    for r in rows:
        if len(r) != expected_cols:
            raise ValueError(f"{where}: expected {expected_cols} columns, got {len(r)}")
        if not all(type(x) is int for x in r):
            raise ValueError(f"{where}: matrix entries must be integers")
    return IntMatrix.from_rows(rows, cols=expected_cols)


def _rank(value) -> int:
    # bool is an int subclass, and int() would truncate 1.5 or parse "1"
    if type(value) is not int:
        raise ValueError(f"rank must be an integer, got {value!r}")
    return value


def graph_from_dict(data) -> VGBSGraph:
    """Build a graph from the JSON document shape; raises ValueError on bad input."""
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph document is missing key {exc}") from None
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise ValueError("graph vertices and edges must be lists")
    vertices = []
    for rv in raw_vertices:
        try:
            vertices.append(Vertex(id=str(rv["id"]), rank=_rank(rv["rank"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad vertex entry {rv!r}: {exc}") from None
    ranks = {v.id: v.rank for v in vertices}
    edges = []
    for re in raw_edges:
        try:
            eid = str(re["id"])
            frm, to = str(re["from"]), str(re["to"])
            rank = _rank(re["rank"])
            reverse = str(re["reverse"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad edge entry {re!r}: {exc}") from None
        if frm not in ranks or to not in ranks:
            raise ValueError(f"edge {eid!r} references an unknown vertex")
        if rank < 0:
            raise ValueError(f"edge {eid!r} has negative rank")
        inj_initial = _matrix_from_json(
            re.get("inj_initial"), ranks[frm], rank, f"edge {eid!r} inj_initial"
        )
        inj_terminal = _matrix_from_json(
            re.get("inj_terminal"), ranks[to], rank, f"edge {eid!r} inj_terminal"
        )
        edges.append(Edge(eid, frm, to, rank, inj_initial, inj_terminal, reverse))
    return VGBSGraph(tuple(vertices), tuple(edges))


def graph_to_dict(graph: VGBSGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "rank": v.rank} for v in graph.vertices],
        "edges": [
            {
                "id": e.id,
                "from": e.frm,
                "to": e.to,
                "rank": e.rank,
                "inj_initial": [list(row) for row in e.inj_initial.entries],
                "inj_terminal": [list(row) for row in e.inj_terminal.entries],
                "reverse": e.reverse,
            }
            for e in graph.edges
        ],
    }


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_graph(graph: VGBSGraph) -> ValidationReport:
    """Check the structural invariants; returns all violations, not just the first."""
    problems: list[str] = []
    if not graph.vertices:
        problems.append("graph has no vertices")
    vseen: set[str] = set()
    for v in graph.vertices:
        if v.id in vseen:
            problems.append(f"duplicate vertex id {v.id!r}")
        vseen.add(v.id)
        if v.rank < 0:
            problems.append(f"vertex {v.id!r} has negative rank")
    eseen: set[str] = set()
    for e in graph.edges:
        if e.id in eseen:
            problems.append(f"duplicate edge id {e.id!r}")
        eseen.add(e.id)

    for e in graph.edges:
        dims_ok = True
        if e.frm not in vseen:
            problems.append(f"edge {e.id!r} starts at unknown vertex {e.frm!r}")
            dims_ok = False
        if e.to not in vseen:
            problems.append(f"edge {e.id!r} ends at unknown vertex {e.to!r}")
            dims_ok = False
        if e.rank < 0:
            problems.append(f"edge {e.id!r} has negative rank")
            dims_ok = False
        if e.reverse not in eseen:
            problems.append(f"edge {e.id!r} names unknown reverse {e.reverse!r}")
        elif e.reverse == e.id:
            problems.append(f"edge {e.id!r} is its own reverse")
        else:
            r = graph.edge(e.reverse)
            if r.reverse != e.id:
                problems.append(f"reverse of {e.id!r} is not an involution")
            elif e.id < r.id:
                if (r.frm, r.to) != (e.to, e.frm):
                    problems.append(f"edge pair {e.id!r}/{r.id!r} does not swap endpoints")
                if r.rank != e.rank:
                    problems.append(f"edge pair {e.id!r}/{r.id!r} has mismatched ranks")
                if r.inj_initial != e.inj_terminal or r.inj_terminal != e.inj_initial:
                    problems.append(f"edge pair {e.id!r}/{r.id!r} does not swap injections")
        if dims_ok:
            if e.inj_initial.rows != graph.vertex_rank(e.frm) or e.inj_initial.cols != e.rank:
                problems.append(f"edge {e.id!r} inj_initial has the wrong shape")
                dims_ok = False
            if e.inj_terminal.rows != graph.vertex_rank(e.to) or e.inj_terminal.cols != e.rank:
                problems.append(f"edge {e.id!r} inj_terminal has the wrong shape")
                dims_ok = False
        if dims_ok:
            if integer_kernel(e.inj_initial).cols != 0:
                problems.append(f"edge {e.id!r} inj_initial is not injective")
            if integer_kernel(e.inj_terminal).cols != 0:
                problems.append(f"edge {e.id!r} inj_terminal is not injective")

    if graph.vertices and not problems:
        reachable = {graph.vertices[0].id}
        frontier = deque(reachable)
        while frontier:
            u = frontier.popleft()
            for e in graph.edges:
                if e.frm == u and e.to not in reachable:
                    reachable.add(e.to)
                    frontier.append(e.to)
                if e.to == u and e.frm not in reachable:
                    reachable.add(e.frm)
                    frontier.append(e.frm)
        missing = sorted(vseen - reachable)
        if missing:
            problems.append(f"graph is not connected; unreachable vertices: {missing}")

    return ValidationReport(not problems, tuple(problems))


class _EdgeData:
    """Per-oriented-edge solver: image lattice and transport.

    inj_initial is injective, so its column Hermite form is inj_initial·U
    with U unimodular and no zero column: that is the image basis, and
    basis coordinates q of an image element have preimage U·q.
    """

    def __init__(self, edge: Edge):
        self.edge = edge
        H, self.unimodular = column_hnf_with_transform(edge.inj_initial)
        self.image = Lattice(edge.inj_initial.rows, H)
        # carries image coordinates across: t(e)·s(H·q)·t(ē) = s(across·q)
        self.across = edge.inj_terminal.mul(self.unimodular)

    def split_across(self, c: Sequence[int]) -> tuple[IntVec, IntVec | None]:
        """(r, moved) with c = r + basis·q and r canonical: moved = across·q
        is what crossing the edge carries into the next term, None if 0."""
        q, r = self.image.split(c)
        return r, self.across.mul_vec(q) if any(q) else None


class AdaptedPresentation:
    """A graph of groups with a base vertex and a spanning tree.

    Group elements are words in vertex-group syllables and stable letters,
    one letter per oriented edge, with tree-edge letters equal to the
    identity.  Instances own the caches of edge data and spanning-tree
    routes, which depend on the graph alone and last as long as the
    presentation, so reuse one presentation per graph.  Translation
    profiles are cached too; multi_conjugate drops them when it returns
    (end_query), so they do not pile up over a stream of its queries,
    but the other entry points (conjugate_hyperbolic,
    centralizer_hyperbolic, classify_intersection) still accumulate them.
    """

    def __init__(
        self,
        graph: VGBSGraph,
        base: str,
        tree_edge_into: dict[str, Edge],
        base_paths: dict[str, tuple[Edge, ...]],
    ):
        self.graph = graph
        self.base = base
        self._base_paths = base_paths
        tree_ids: set[str] = set()
        for e in tree_edge_into.values():
            tree_ids.add(e.id)
            tree_ids.add(e.reverse)
        self.tree_edge_ids = frozenset(tree_ids)
        self._edge_data: dict[str, _EdgeData] = {}
        self._routes: dict[tuple[str, str], tuple[Edge, ...]] = {}
        self._profiles: dict = {}

    def end_query(self) -> None:
        """Drop the caches scoped to one query: the translation profiles."""
        self._profiles.clear()

    def vertex_rank(self, vid: str) -> int:
        return self.graph.vertex_rank(vid)

    def reverse(self, edge: Edge | str) -> Edge:
        return self.graph.reverse_edge(edge)

    def is_tree_edge(self, eid: str) -> bool:
        return eid in self.tree_edge_ids

    def edge_data(self, edge: Edge | str) -> _EdgeData:
        eid = edge if isinstance(edge, str) else edge.id
        data = self._edge_data.get(eid)
        if data is None:
            data = _EdgeData(self.graph.edge(eid))
            self._edge_data[eid] = data
        return data

    def transport_across(self, edge: Edge | str, x: Sequence[int]) -> IntVec | None:
        """Cross one edge: defined on the inj_initial image, lands in the
        inj_terminal image; None when x is outside the domain."""
        data = self.edge_data(edge)
        q = data.image.member_coords(x)
        return None if q is None else data.across.mul_vec(q)

    def tree_route(self, u: str, v: str) -> tuple[Edge, ...]:
        """Oriented edges of the spanning-tree path from u to v."""
        key = (u, v)
        route = self._routes.get(key)
        if route is not None:
            return route
        pu, pv = self._base_paths[u], self._base_paths[v]
        common = 0
        while common < len(pu) and common < len(pv) and pu[common].id == pv[common].id:
            common += 1
        up = tuple(self.reverse(e) for e in reversed(pu[common:]))
        route = up + pv[common:]
        self._routes[key] = route
        return route


def build_presentation(graph: VGBSGraph, base: str | None = None) -> AdaptedPresentation:
    """Choose a base vertex and a BFS spanning tree (ties broken by edge id)."""
    report = validate_graph(graph)
    if not report.ok:
        raise ValueError("invalid graph: " + "; ".join(report.violations))
    if base is None:
        base = graph.vertices[0].id
    elif base not in {v.id for v in graph.vertices}:
        raise ValueError(f"unknown base vertex {base!r}")
    outgoing: dict[str, list[Edge]] = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        outgoing[e.frm].append(e)
    for lst in outgoing.values():
        lst.sort(key=lambda e: e.id)
    tree_edge_into: dict[str, Edge] = {}
    base_paths: dict[str, tuple[Edge, ...]] = {base: ()}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for e in outgoing[u]:
            if e.to not in base_paths:
                tree_edge_into[e.to] = e
                base_paths[e.to] = base_paths[u] + (e,)
                queue.append(e.to)
    return AdaptedPresentation(graph, base, tree_edge_into, base_paths)
