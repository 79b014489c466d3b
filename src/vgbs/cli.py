"""Command-line front end: JSON graph files in, JSON certificates out.

Each invocation decides one query and prints a single JSON object whose
"kind" field names the outcome.  Exit status 0 means the query was
decided (a definite "no" is still a decision), 2 means a structured
refusal (unsupported elliptic instance, polycyclic reduction, or an
exhausted search budget), 1 means the input could not be used, and 3
means a fault inside the library ("internal_error" with the exception's
type and message), never a traceback.

Words are written as whitespace-separated terms: a vertex term like
"xv0(1,-2)" gives exponents at a vertex, and an edge term "te1" is the
stable letter of edge e1 ("Te1" is its inverse, the reverse edge's
letter).  Word lists wrap comma-separated words in brackets, e.g.
"[te1, xv0(1)]".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .conjugacy import (
    Conjugate,
    EllipticUnsupported,
    Inconclusive,
    NotConjugate,
    ReducedToPolycyclic,
    centralizer_hyperbolic,
    multi_conjugate,
)
from .graph import (
    AdaptedPresentation,
    VGBSGraph,
    build_presentation,
    graph_from_dict,
)
from .linalg import InternalError, Lattice
from .modulus import Empty, Finite, NegativeHalfLine, PositiveHalfLine, classify_intersection
from .tree import ELLIPTIC, TreeVertex, stabilizer_element, translation_profile
from .words import (
    StableSyllable,
    VertexSyllable,
    Word,
    is_trivial,
    path_form_word,
    reduced_form,
    word_simplify,
)


class InputError(Exception):
    """Anything that makes the query unusable; reported with exit 1."""


_TERM = re.compile(
    r"x(?P<vertex>[A-Za-z0-9_.\-]+)\((?P<coords>[^()]*)\)"
    r"|(?P<letter>[tT])(?P<edge>[A-Za-z0-9_.\-]+)"
)


def parse_word(text: str, graph: VGBSGraph) -> Word:
    syllables = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TERM.match(text, pos)
        if m is None:
            raise InputError(f"cannot read a term at column {pos}: {text[pos:pos + 12]!r}")
        if m.group("vertex") is not None:
            vid = m.group("vertex")
            try:
                rank = graph.vertex_rank(vid)
            except KeyError:
                raise InputError(f"unknown vertex {vid!r} at column {pos}") from None
            raw = m.group("coords").strip()
            try:
                vec = tuple(int(p) for p in raw.split(",")) if raw else ()
            except ValueError:
                raise InputError(f"bad coordinates {raw!r} at column {pos}") from None
            if len(vec) != rank:
                raise InputError(
                    f"vertex {vid!r} takes {rank} coordinates, got {len(vec)} at column {pos}"
                )
            syllables.append(VertexSyllable(vid, vec))
        else:
            eid = m.group("edge")
            try:
                edge = graph.edge(eid)
            except KeyError:
                raise InputError(f"unknown edge {eid!r} at column {pos}") from None
            syllables.append(
                StableSyllable(edge.reverse if m.group("letter") == "T" else edge.id)
            )
        pos = m.end()
    return Word(tuple(syllables))


def render_word(w: Word) -> str:
    parts = []
    for s in w.syllables:
        if isinstance(s, VertexSyllable):
            parts.append(f"x{s.vertex}({','.join(str(c) for c in s.vec)})")
        else:
            parts.append(f"t{s.edge}")
    return " ".join(parts)


def parse_word_list(text: str, graph: VGBSGraph) -> tuple[Word, ...]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InputError("word list must be wrapped in [ ]")
    if not body[1:-1].strip():
        return ()
    items: list[str] = []
    current: list[str] = []
    depth = 0
    for ch in body[1:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return tuple(parse_word(item, graph) for item in items)


def _vertex_payload(x: TreeVertex) -> dict:
    return {"carrier": render_word(x.carrier), "vertex": x.rep}


def _load(path: str, base: str | None) -> tuple[VGBSGraph, AdaptedPresentation]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    graph = graph_from_dict(data)
    return graph, build_presentation(graph, base)


def _generators(pres: AdaptedPresentation, basepoint: TreeVertex, lattice: Lattice) -> list[str]:
    return [
        render_word(stabilizer_element(pres, basepoint, lattice.basis.column(j)))
        for j in range(lattice.rank)
    ]


def _cmd_validate(args, graph, pres) -> tuple[dict, int]:
    return {
        "kind": "valid",
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    }, 0


def _cmd_reduce(args, graph, pres) -> tuple[dict, int]:
    w = parse_word(args.word, graph)
    pf = reduced_form(pres, word_simplify(pres, w))
    reduced = word_simplify(pres, path_form_word(pres, pf))
    return {"kind": "reduced", "word": render_word(reduced), "letters": pf.length}, 0


def _cmd_trivial(args, graph, pres) -> tuple[dict, int]:
    w = parse_word(args.word, graph)
    return {"kind": "trivial", "value": is_trivial(pres, w)}, 0


def _cmd_length(args, graph, pres) -> tuple[dict, int]:
    profile = translation_profile(pres, parse_word(args.word, graph))
    return {
        "kind": "length",
        "value": profile.length,
        "elliptic": profile.kind == ELLIPTIC,
    }, 0


def _cmd_centralizer(args, graph, pres) -> tuple[dict, int]:
    cen = centralizer_hyperbolic(pres, parse_word(args.word, graph))
    return {
        "kind": "centralizer",
        "basepoint": _vertex_payload(cen.basepoint),
        "elliptic_generators": _generators(pres, cen.basepoint, cen.elliptic),
        "shift_generator": render_word(cen.shift_generator),
    }, 0


def _cmd_axis(args, graph, pres) -> tuple[dict, int]:
    g = parse_word(args.g, graph)
    h = parse_word(args.h, graph)
    shape = classify_intersection(pres, g, h)
    if isinstance(shape, Empty):
        return {"kind": "empty", "separation": shape.bridge.length}, 0
    if isinstance(shape, Finite):
        return {
            "kind": "finite",
            "length": shape.segment.length,
            "start": _vertex_payload(shape.segment.start),
            "end": _vertex_payload(shape.segment.end),
        }, 0
    if isinstance(shape, PositiveHalfLine):
        return {"kind": "positive_half_line", "origin": _vertex_payload(shape.origin)}, 0
    if isinstance(shape, NegativeHalfLine):
        return {"kind": "negative_half_line", "origin": _vertex_payload(shape.origin)}, 0
    return {"kind": "whole_axis"}, 0


def _cmd_conjugate(args, graph, pres) -> tuple[dict, int]:
    first = parse_word_list(args.first, graph)
    second = parse_word_list(args.second, graph)
    answer = multi_conjugate(pres, first, second, state_budget=args.budget)
    if isinstance(answer, Conjugate):
        return {"kind": "conjugate", "witness": render_word(answer.witness)}, 0
    if isinstance(answer, NotConjugate):
        return {"kind": "not_conjugate", "reason": answer.reason}, 0
    if isinstance(answer, EllipticUnsupported):
        return {"kind": "elliptic_unsupported", "explanation": answer.explanation}, 2
    if isinstance(answer, Inconclusive):
        return {
            "kind": "inconclusive",
            "explored": answer.explored,
            "budget": answer.budget,
        }, 2
    if not isinstance(answer, ReducedToPolycyclic):
        raise InternalError(f"unknown answer type {type(answer).__name__}")
    return {
        "kind": "reduced_to_polycyclic",
        "pairs": [[render_word(x), render_word(y)] for x, y in answer.pairs],
        "elliptic_generators": _generators(pres, answer.basepoint, answer.elliptic),
        "shift_generator": render_word(answer.shift_generator),
        "basepoint": _vertex_payload(answer.basepoint),
    }, 2


# name -> (help, positional arguments, handler); every subcommand also
# takes --base-vertex, and conjugate alone takes --budget
_COMMANDS = {
    "validate": ("check a graph file", ("graph",), _cmd_validate),
    "reduce": ("reduced form of a word", ("graph", "word"), _cmd_reduce),
    "trivial": ("is the word the identity", ("graph", "word"), _cmd_trivial),
    "length": ("translation length and type", ("graph", "word"), _cmd_length),
    "centralizer": ("centralizer of a hyperbolic word", ("graph", "word"), _cmd_centralizer),
    "axis": ("fixed-set trace of g on the axis of h", ("graph", "g", "h"), _cmd_axis),
    "conjugate": ("tuple conjugacy", ("graph", "first", "second"), _cmd_conjugate),
}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1 with a JSON error, not argparse's 2
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vgbs", description="decision queries for vGBS groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.add_argument(
            "--base-vertex", default=None, metavar="ID", help="presentation base vertex"
        )
        if name == "conjugate":
            p.add_argument("--budget", type=int, default=100_000, metavar="N",
                           help="state budget for the reachability search")
        p.set_defaults(handler=handler)
    return parser


def run_command(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        graph, pres = _load(args.graph, args.base_vertex)
        payload, code = args.handler(args, graph, pres)
    except (InputError, ValueError) as exc:
        payload, code = {"kind": "error", "message": str(exc)}, 1
    except Exception as exc:
        payload, code = {"kind": "internal_error", "message": f"{type(exc).__name__}: {exc}"}, 3
    print(json.dumps(payload))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
