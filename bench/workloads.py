"""The three benchmark workloads: inputs, one query, and its check.

Each workload yields queries from a seeded stream (gen.py), runs one
query through the engine, and checks the answer with the oracles.  A
check returns (ok, decided): ok is False for a wrong verdict or a
witness that does not replay; decided is False for a structured refusal.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path

import gen
import oracles


def engine_word(words_mod, word):
    return words_mod.Word(tuple(
        words_mod.VertexSyllable(s[1], s[2]) if s[0] == "x" else words_mod.StableSyllable(s[1])
        for s in word))


def plain_word(word):
    return tuple(("x", s.vertex, tuple(s.vec)) if hasattr(s, "vec") else ("t", s.edge) for s in word.syllables)


def _check_answer(answer, truth, replays):
    """Shared verdict rule for tuple conjugacy."""
    kind = type(answer).__name__
    if kind == "Conjugate":
        return truth and replays(plain_word(answer.witness)), True
    if kind == "NotConjugate":
        return not truth, True
    return kind in ("ReducedToPolycyclic", "EllipticUnsupported", "Inconclusive"), False


class Tuples:
    """multi_conjugate on reused presentations of the tuple families."""

    name = "tuples"
    modules = ("vgbs",)

    def inputs(self, seed):
        return gen.tuple_families()

    def build(self, fams):
        graph = importlib.import_module("vgbs.graph")
        return {f.name: graph.build_presentation(graph.graph_from_dict(f.doc)) for f in fams}

    def stream(self, seed, fams):
        return gen.tuple_queries(seed, fams)

    def prepare(self, pres, q):
        words = importlib.import_module("vgbs.words")
        fam, first, second, _, _ = q
        return (pres[fam.name], tuple(engine_word(words, w) for w in first),
                tuple(engine_word(words, w) for w in second))

    def execute(self, prepared):
        return importlib.import_module("vgbs.conjugacy").multi_conjugate(*prepared)

    def check(self, q, answer):
        fam, first, second, truth, _ = q

        def replays(w):
            return all(fam.equal(fam.conjugate(x, w), y) for x, y in zip(first, second))

        return _check_answer(answer, truth, replays)

    def largest(self, q):
        return q[4] == gen.TUPLE_LARGEST


class Reach:
    """Rank-one elliptic tuple conjugacy: multi_conjugate hands off to gbs."""

    name = "reach"
    modules = ("vgbs",)

    def inputs(self, seed):
        return gen.reach_graphs()

    def build(self, graphs):
        graph = importlib.import_module("vgbs.graph")
        return {name: graph.build_presentation(graph.graph_from_dict(g.doc)) for name, g in graphs[0].items()}

    def stream(self, seed, graphs):
        return gen.reach_queries(seed, graphs)

    def prepare(self, pres, q):
        words = importlib.import_module("vgbs.words")
        g, first, second, budget, _, _ = q
        return (pres[g.name], tuple(engine_word(words, w) for w in first),
                tuple(engine_word(words, w) for w in second), budget)

    def execute(self, prepared):
        pres, first, second, budget = prepared
        return importlib.import_module("vgbs.conjugacy").multi_conjugate(pres, first, second, state_budget=budget)

    def check(self, q, answer):
        g, first, second, _, truth, _ = q

        def replays(w):
            for x, y in zip(first, second):
                image = oracles.replay_rank_one(g.graph, w, x[0][1], x[0][2][0])
                if image is None or not oracles.rank_one_equal(g.graph, image, (y[0][1], y[0][2][0])):
                    return False
            return True

        return _check_answer(answer, truth, replays)

    def largest(self, q):
        return q[5] == "swap-l"


class Cli:
    """One-shot queries through vgbs.cli.run_command with stdout captured;
    each builds its own presentation from a graph file."""

    name = "cli"
    modules = ("vgbs", "vgbs.cli")

    def inputs(self, seed):
        return gen.cli_families()

    def build(self, fams):
        return None

    def write_graphs(self, fams, directory):
        self.paths = {}
        for fam in fams:
            path = Path(directory) / f"{fam.name}.json"
            path.write_text(json.dumps(fam.doc), encoding="utf-8")
            self.paths[fam.name] = str(path)
        broken = Path(directory) / "broken.json"
        broken.write_text(json.dumps(gen.BROKEN_GRAPH), encoding="utf-8")
        self.paths[None] = str(broken)

    def stream(self, seed, fams):
        return gen.cli_queries(seed, fams)

    def prepare(self, _, q):
        cmd, fam, texts, _, _ = q
        path = self.paths[fam.name if fam else None]
        if cmd == "malformed":
            return [texts[0], path, *texts[1:]]
        return ["conjugate" if cmd == "elliptic" else cmd, path, *texts]

    def execute(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = importlib.import_module("vgbs.cli").run_command(argv)
        return code, out.getvalue()

    def check(self, q, output):
        cmd, fam, texts, expected, _ = q
        code, text = output
        lines = text.splitlines()
        if len(lines) != 1:
            return False, False
        payload = json.loads(lines[0])
        kind = payload.get("kind")
        if cmd == "malformed":
            return code == 1 and kind == "error", False
        if cmd == "elliptic":
            return code == 2 and kind == "elliptic_unsupported", False
        if cmd == "conjugate" and code == 2:
            return kind in ("reduced_to_polycyclic", "inconclusive"), False
        if code != 0:
            return False, True
        words = [oracles.parse_rendered(t) for t in texts] if cmd != "conjugate" else None
        if cmd == "validate":
            ok = kind == "valid" and (payload["vertices"], payload["edges"]) == (
                len(fam.doc["vertices"]), len(fam.doc["edges"]))
        elif cmd == "trivial":
            ok = kind == "trivial" and payload["value"] == fam.equal(words[0], ())
        elif cmd == "reduce":
            reduced = oracles.parse_rendered(payload["word"])
            letters = sum(1 for s in reduced if s[0] == "t")
            ok = (kind == "reduced" and fam.equal(reduced, words[0])
                  and payload["letters"] == letters == gen.reduced_letters(fam, words[0]))
        elif cmd == "length":
            value = gen.translation_length(fam, words[0])
            ok = kind == "length" and payload["value"] == value and payload["elliptic"] == (value == 0)
        elif cmd == "centralizer":
            h = words[0]
            shift = oracles.parse_rendered(payload["shift_generator"])
            gens = [oracles.parse_rendered(g) for g in payload["elliptic_generators"]] + [shift]
            step = gen.translation_length(fam, shift)
            ok = (kind == "centralizer" and all(fam.equal(g + h, h + g) for g in gens)
                  and step > 0 and gen.translation_length(fam, h) % step == 0)
        elif cmd == "axis":
            ok = kind == expected
            if ok and kind.endswith("half_line"):
                carrier = oracles.parse_rendered(payload["origin"]["carrier"])
                ok = gen.in_base_group(fam, fam.conjugate(words[0], fam.invert(carrier)))
        else:
            first, second = (oracles.parse_rendered_list(t) for t in texts)
            if kind == "conjugate":
                w = oracles.parse_rendered(payload["witness"])
                ok = expected and all(fam.equal(fam.conjugate(x, w), y) for x, y in zip(first, second))
            else:
                ok = kind == "not_conjugate" and not expected
        return ok, True

    def largest(self, q):
        return q[4] == gen.CLI_LARGEST


WORKLOADS = {w.name: w for w in (Cli, Tuples, Reach)}
