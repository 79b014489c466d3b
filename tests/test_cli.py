"""End-to-end checks of the command line front end.

Graph files are generated from the fixture builders.  Expected words,
witnesses, and shapes restate facts the engine tests already pin down;
nothing here is derived from the CLI's own output.
"""

import json
import random
from time import perf_counter

import pytest

from vgbs.cli import parse_word, parse_word_list, render_word, run_command
from vgbs.graph import build_presentation, graph_to_dict
from vgbs.words import Word, concat, invert_word, is_trivial

from fixtures import ALL_GRAPHS, MERSENNE_61, bs, free_product, presentation, random_word


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_dict(ALL_GRAPHS[name]())))
        return str(path)

    return write


def run(capsys, *argv: str):
    code = run_command(list(argv))
    return code, json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------- parsing


def test_parse_single_terms():
    graph = ALL_GRAPHS["bs12"]()
    w = parse_word("Te1 xv0(2) te1 xv0(-1)", graph)
    assert len(w.syllables) == 4
    assert w.syllables[0].edge == "e1bar"
    assert w.syllables[1].vec == (2,)
    assert w.syllables[2].edge == "e1"
    assert w.syllables[3].vec == (-1,)


def test_parse_rank_zero_and_spacing():
    graph = ALL_GRAPHS["f2"]()
    assert parse_word("  te1   te2bar ", graph).syllables[1].edge == "e2bar"
    assert parse_word("", graph) == Word(())


def test_parse_word_list_splits_on_top_level_commas():
    graph = ALL_GRAPHS["amalg"]()
    words = parse_word_list("[te1 xv0(1), xv1(2)]", graph)
    assert len(words) == 2
    assert words[1].syllables[0].vertex == "v1"
    assert parse_word_list("[]", graph) == ()


def test_round_trip_over_all_fixtures():
    rng = random.Random(31)
    for name, build in ALL_GRAPHS.items():
        graph = build()
        pres = presentation(name)
        for _ in range(6):
            w = random_word(rng, pres, rng.randint(0, 7))
            assert parse_word(render_word(w), graph) == w


def test_parse_rejects_garbage():
    graph = ALL_GRAPHS["bs12"]()
    from vgbs.cli import InputError

    for bad in ["zzz", "xv0(1,2)", "xv9(1)", "tq9", "xv0(one)", "xv0(1) !"]:
        with pytest.raises(InputError):
            parse_word(bad, graph)
    with pytest.raises(InputError):
        parse_word_list("te1, te1", graph)


# ------------------------------------------------------------- subcommands


def test_validate_reports_counts(graph_file, capsys):
    code, out = run(capsys, "validate", graph_file("bs12"))
    assert code == 0
    assert out == {"kind": "valid", "vertices": 1, "edges": 2}


def test_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "validate", str(path))
    assert code == 1 and out["kind"] == "error"

    data = graph_to_dict(ALL_GRAPHS["bs12"]())
    del data["edges"][0]["reverse"]
    path.write_text(json.dumps(data))
    code, out = run(capsys, "validate", str(path))
    assert code == 1 and "reverse" in out["message"]

    code, out = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1 and out["kind"] == "error"


def test_malformed_graph_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    for doc in (
        {"vertices": 5, "edges": []},
        {"vertices": [{"id": "v0", "rank": 1}], "edges": None},
        {"vertices": [{"id": "v0", "rank": 1.5}], "edges": []},
    ):
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "trivial", str(path), "xv0(1)")
        assert code == 1 and out["kind"] == "error"


def test_trivial_frozen_example(graph_file, capsys):
    code, out = run(capsys, "trivial", graph_file("bs12"), "Te1 xv0(2) te1 xv0(-1)")
    assert code == 0
    assert out == {"kind": "trivial", "value": True}


def test_trivial_negative(graph_file, capsys):
    code, out = run(capsys, "trivial", graph_file("bs12"), "xv0(1)")
    assert code == 0
    assert out == {"kind": "trivial", "value": False}


def test_reduce_pinches_conjugated_power(graph_file, capsys):
    # t^-1 a^2 t = a in BS(1,2)
    code, out = run(capsys, "reduce", graph_file("bs12"), "Te1 xv0(2) te1")
    assert code == 0
    assert out == {"kind": "reduced", "word": "xv0(1)", "letters": 0}


def test_reduce_output_is_equivalent(graph_file, capsys):
    pres = presentation("bs23")
    text = "te1 xv0(5) Te1 te1"
    code, out = run(capsys, "reduce", graph_file("bs23"), text)
    assert code == 0
    reduced = parse_word(out["word"], ALL_GRAPHS["bs23"]())
    original = parse_word(text, ALL_GRAPHS["bs23"]())
    assert is_trivial(pres, concat(invert_word(pres, original), reduced))
    assert out["letters"] == 1


def test_length_reports_profile(graph_file, capsys):
    path = graph_file("bs12")
    assert run(capsys, "length", path, "te1")[1] == {
        "kind": "length",
        "value": 1,
        "elliptic": False,
    }
    assert run(capsys, "length", path, "xv0(5)")[1] == {
        "kind": "length",
        "value": 0,
        "elliptic": True,
    }


def test_centralizer_of_bs12_letter(graph_file, capsys):
    code, out = run(capsys, "centralizer", graph_file("bs12"), "te1")
    assert code == 0
    assert out["kind"] == "centralizer"
    assert out["elliptic_generators"] == []
    assert out["shift_generator"] == "te1"
    assert out["basepoint"]["vertex"] == "v0"


def test_centralizer_generators_commute(graph_file, capsys):
    code, out = run(capsys, "centralizer", graph_file("klein"), "te1 te1")
    assert code == 0
    graph = ALL_GRAPHS["klein"]()
    pres = presentation("klein")
    h = parse_word("te1 te1", graph)
    assert len(out["elliptic_generators"]) == 1
    for text in out["elliptic_generators"] + [out["shift_generator"]]:
        c = parse_word(text, graph)
        assert is_trivial(
            pres, concat(c, h, invert_word(pres, c), invert_word(pres, h))
        )


def test_centralizer_rejects_elliptic_word(graph_file, capsys):
    code, out = run(capsys, "centralizer", graph_file("bs12"), "xv0(1)")
    assert code == 1 and out["kind"] == "error"


def test_axis_shapes(graph_file, capsys):
    code, out = run(capsys, "axis", graph_file("bs12"), "xv0(1)", "te1")
    assert code == 0
    assert out["kind"] == "negative_half_line"
    assert out["origin"] == {"carrier": "", "vertex": "v0"}

    code, out = run(capsys, "axis", graph_file("bs12"), "te1 xv0(1) Te1", "te1")
    assert code == 0
    assert out["kind"] == "negative_half_line"
    assert out["origin"] == {"carrier": "te1", "vertex": "v0"}

    code, out = run(capsys, "axis", graph_file("bs23"), "xv0(1)", "te1")
    assert code == 0
    assert out["kind"] == "finite"
    assert out["length"] == 0
    assert out["start"]["vertex"] == "v0"

    code, out = run(capsys, "axis", graph_file("klein"), "xv0(1)", "te1")
    assert code == 0
    assert out == {"kind": "whole_axis"}


def test_axis_requires_hyperbolic_second_word(graph_file, capsys):
    code, out = run(capsys, "axis", graph_file("bs12"), "xv0(1)", "xv0(2)")
    assert code == 1 and out["kind"] == "error"


# -------------------------------------------------------------- conjugate


def test_conjugate_frozen_example(graph_file, capsys):
    code, out = run(
        capsys, "conjugate", graph_file("bs12"), "[te1, xv0(1)]", "[te1, xv0(2)]"
    )
    assert code == 0
    assert out == {"kind": "conjugate", "witness": "te1"}


def test_conjugate_witness_reverifies(graph_file, capsys):
    _, out = run(
        capsys, "conjugate", graph_file("bs12"), "[te1, xv0(1)]", "[te1, xv0(2)]"
    )
    graph = ALL_GRAPHS["bs12"]()
    pres = presentation("bs12")
    g = parse_word(out["witness"], graph)
    for x, y in [("te1", "te1"), ("xv0(1)", "xv0(2)")]:
        moved = concat(g, parse_word(x, graph), invert_word(pres, g))
        assert is_trivial(pres, concat(moved, invert_word(pres, parse_word(y, graph))))


def test_conjugate_identity_witness(graph_file, capsys):
    code, out = run(
        capsys, "conjugate", graph_file("bs12"), "[te1 xv0(1)]", "[te1 xv0(1)]"
    )
    assert code == 0
    assert out == {"kind": "conjugate", "witness": ""}


def test_conjugate_negative(graph_file, capsys):
    code, out = run(
        capsys, "conjugate", graph_file("bs12"), "[te1, xv0(1)]", "[te1, xv0(3)]"
    )
    assert code == 0
    assert out["kind"] == "not_conjugate"
    assert out["reason"]


def test_conjugate_elliptic_rank_one(graph_file, capsys):
    code, out = run(capsys, "conjugate", graph_file("bs23"), "[xv0(2)]", "[xv0(3)]")
    assert code == 0
    assert out == {"kind": "conjugate", "witness": "te1"}


def test_conjugate_across_a_rank_zero_edge(tmp_path, capsys):
    # Z∗Z, whose one edge group is trivial: elliptic queries over it are
    # decided, not reported as internal errors
    graph = free_product()
    path = tmp_path / "free.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    code, out = run(capsys, "conjugate", str(path), "[xv0(3)]", "[xv1(-2) xv0(3) xv1(2)]")
    assert code == 0 and out["kind"] == "conjugate"
    pres = build_presentation(graph)
    g = parse_word(out["witness"], graph)
    moved = concat(g, parse_word("xv0(3)", graph), invert_word(pres, g))
    target = parse_word("xv1(-2) xv0(3) xv1(2)", graph)
    assert is_trivial(pres, concat(moved, invert_word(pres, target)))
    code, out = run(capsys, "conjugate", str(path), "[xv0(1)]", "[xv1(1)]")
    assert code == 0 and out["kind"] == "not_conjugate"


def test_conjugate_elliptic_unsupported(graph_file, capsys):
    code, out = run(
        capsys, "conjugate", graph_file("z4f2"), "[xv0(1,0,0,0)]", "[xv0(0,1,0,0)]"
    )
    assert code == 2
    assert out["kind"] == "elliptic_unsupported"


def test_conjugate_budget_flag_reports_inconclusive(graph_file, capsys):
    code, out = run(
        capsys,
        "conjugate",
        graph_file("bs12"),
        "[xv0(1)]",
        "[xv0(3)]",
        "--budget",
        "5",
    )
    assert code == 2
    assert out["kind"] == "inconclusive"
    assert out["budget"] == 5
    assert out["explored"] >= 5


def test_conjugate_huge_scalar_refuses_at_budget(tmp_path, capsys):
    # x^(2^61-1)^k for every k >= 0 is conjugate to x, so the search must
    # give up at the budget, and no setup step may stall before it starts.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(graph_to_dict(bs(1, MERSENNE_61))))
    begin = perf_counter()
    code, out = run(capsys, "conjugate", str(path), "[xv0(1)]", "[xv0(3)]", "--budget", "1000")
    assert perf_counter() - begin < 2.0
    assert code == 2
    assert out == {"kind": "inconclusive", "explored": 1000, "budget": 1000}


def test_conjugate_huge_exponent_not_conjugate(graph_file, capsys):
    # In bs23 an exponent prime to 6 is fixed by every crossing.
    begin = perf_counter()
    code, out = run(
        capsys,
        "conjugate",
        graph_file("bs23"),
        f"[xv0({MERSENNE_61})]",
        f"[xv0({3 * MERSENNE_61})]",
    )
    assert perf_counter() - begin < 2.0
    assert code == 0
    assert out["kind"] == "not_conjugate"


def test_conjugate_polycyclic_reduction(graph_file, capsys):
    code, out = run(
        capsys,
        "conjugate",
        graph_file("klein"),
        "[te1 te1, xv0(1)]",
        "[te1 te1, xv0(-1)]",
    )
    assert code == 2
    assert out["kind"] == "reduced_to_polycyclic"
    assert len(out["pairs"]) == 2
    assert out["elliptic_generators"] == ["xv0(1)"]
    graph = ALL_GRAPHS["klein"]()
    pres = presentation("klein")
    shift = parse_word(out["shift_generator"], graph)
    assert not is_trivial(pres, shift)


def test_conjugate_empty_lists_are_an_input_error(graph_file, capsys):
    code, out = run(capsys, "conjugate", graph_file("bs12"), "[]", "[]")
    assert code == 1 and out["kind"] == "error"


# ------------------------------------------------------------ error paths


def test_word_errors_exit_one(graph_file, capsys):
    path = graph_file("bs12")
    for bad in ["xv0(1,2)", "tq9", "zzz"]:
        code, out = run(capsys, "trivial", path, bad)
        assert code == 1 and out["kind"] == "error"


def test_usage_errors_exit_one(capsys):
    code, out = run(capsys)
    assert code == 1 and out["kind"] == "error"
    code, out = run(capsys, "frobnicate", "x.json")
    assert code == 1 and out["kind"] == "error"


def test_internal_error_is_reported_as_json(graph_file, capsys, monkeypatch):
    import vgbs.cli

    def broken(args):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(vgbs.cli, "_cmd_trivial", broken)
    code, out = run(capsys, "trivial", graph_file("bs12"), "xv0(1)")
    assert code == 3
    assert out == {"kind": "internal_error", "message": "RuntimeError: handler fault"}


def test_failed_witness_replay_exits_three(graph_file, capsys, monkeypatch):
    import vgbs.conjugacy
    from vgbs.linalg import AffineLattice

    real = vgbs.conjugacy.local_conjugators

    def wrong(pres, v, g, h):
        # every answer for this query is a single point; move it off
        sol = real(pres, v, g, h)
        return None if sol is None else AffineLattice.point(tuple(x + 1 for x in sol.base))

    monkeypatch.setattr(vgbs.conjugacy, "local_conjugators", wrong)
    code, out = run(capsys, "conjugate", graph_file("bs12"), "[te1]", "[xv0(1) te1 xv0(-1)]")
    assert code == 3
    assert out["kind"] == "internal_error"
    assert out["message"].startswith("InternalError:")


def test_base_vertex_flag(graph_file, capsys):
    path = graph_file("amalg")
    code, out = run(
        capsys, "trivial", path, "xv0(2) xv1(-2)", "--base-vertex", "v1"
    )
    assert code == 0
    assert out == {"kind": "trivial", "value": True}
    code, out = run(capsys, "validate", path, "--base-vertex", "nope")
    assert code == 1 and out["kind"] == "error"
