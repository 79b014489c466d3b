"""Graph structure, validation, JSON shape, and spanning-tree choices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import ALL_GRAPHS, amalg, bs12, bs23, z4f2
from vgbs.graph import (
    Edge,
    VGBSGraph,
    Vertex,
    build_presentation,
    graph_from_dict,
    graph_to_dict,
    validate_graph,
)
from vgbs.linalg import IntMatrix, column_hnf_with_transform


def _m(rows, cols):
    return IntMatrix.from_rows(rows, cols=cols)


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_fixtures_validate(name):
    report = validate_graph(ALL_GRAPHS[name]())
    assert report.ok, report.violations


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_edge_data_is_integral(name):
    # the image basis is inj_initial·U, so transport needs no fractions:
    # crossing carries inj_initial·y to inj_terminal·y for every integer y
    rng = random.Random(31)
    g = ALL_GRAPHS[name]()
    pres = build_presentation(g)
    for e in g.edges:
        data = pres.edge_data(e)
        H, U = column_hnf_with_transform(e.inj_initial)
        assert data.unimodular == U
        assert data.image.basis == e.inj_initial.mul(U) == H
        ys = U.columns() + [tuple(rng.randint(-9, 9) for _ in range(e.rank)) for _ in range(5)]
        for y in ys:
            x = e.inj_initial.mul_vec(y)
            assert pres.transport_across(e, x) == e.inj_terminal.mul_vec(y)


def test_validation_catches_missing_reverse():
    g = VGBSGraph(
        (Vertex("v0", 1),),
        (Edge("e1", "v0", "v0", 1, _m([[1]], 1), _m([[2]], 1), "nope"),),
    )
    report = validate_graph(g)
    assert not report.ok
    assert any("unknown reverse" in v for v in report.violations)


def test_validation_catches_self_reverse():
    g = VGBSGraph(
        (Vertex("v0", 1),),
        (Edge("e1", "v0", "v0", 1, _m([[1]], 1), _m([[2]], 1), "e1"),),
    )
    assert any("own reverse" in v for v in validate_graph(g).violations)


def test_validation_catches_unswapped_matrices():
    fwd = Edge("e1", "v0", "v0", 1, _m([[1]], 1), _m([[2]], 1), "e1bar")
    bwd = Edge("e1bar", "v0", "v0", 1, _m([[1]], 1), _m([[2]], 1), "e1")
    report = validate_graph(VGBSGraph((Vertex("v0", 1),), (fwd, bwd)))
    assert any("swap injections" in v for v in report.violations)


def test_validation_catches_non_injective():
    fwd = Edge("e1", "v0", "v0", 1, _m([[0]], 1), _m([[2]], 1), "e1bar")
    bwd = Edge("e1bar", "v0", "v0", 1, _m([[2]], 1), _m([[0]], 1), "e1")
    report = validate_graph(VGBSGraph((Vertex("v0", 1),), (fwd, bwd)))
    assert any("not injective" in v for v in report.violations)


def test_validation_catches_disconnected():
    g = VGBSGraph((Vertex("v0", 1), Vertex("v1", 1)), ())
    report = validate_graph(g)
    assert any("not connected" in v for v in report.violations)


def test_validation_catches_duplicates_and_bad_shapes():
    g = VGBSGraph((Vertex("v0", 1), Vertex("v0", 2)), ())
    assert any("duplicate vertex" in v for v in validate_graph(g).violations)
    fwd = Edge("e1", "v0", "v0", 1, _m([[1], [1]], 1), _m([[2]], 1), "e1bar")
    bwd = Edge("e1bar", "v0", "v0", 1, _m([[2]], 1), _m([[1], [1]], 1), "e1")
    report = validate_graph(VGBSGraph((Vertex("v0", 1),), (fwd, bwd)))
    assert any("wrong shape" in v for v in report.violations)


def test_edge_membership_known_cases():
    # x is in the inj_initial image when transport_across is not None,
    # and then x = inj_initial·y crosses to inj_terminal·y
    assert build_presentation(bs12()).transport_across("e1", (3,)) == (6,)
    assert build_presentation(bs23()).transport_across("e1", (3,)) is None
    assert build_presentation(amalg()).transport_across("e1", (4,)) == (4,)


@settings(deadline=None, max_examples=30)
@given(st.integers(-50, 50))
def test_edge_membership_round_trip(k):
    g = bs23()
    e = g.edge("e1")
    pres = build_presentation(g)
    assert pres.transport_across(e, e.inj_initial.mul_vec((k,))) == e.inj_terminal.mul_vec((k,))


def test_presentation_base_and_tree():
    pres = build_presentation(amalg())
    assert pres.base == "v0"
    assert pres.is_tree_edge("e1") and pres.is_tree_edge("e1bar")
    assert [e.id for e in pres.tree_route("v1", "v0")] == ["e1bar"]
    assert pres.tree_route("v0", "v0") == ()

    loops = build_presentation(bs12())
    assert loops.tree_edge_ids == frozenset()

    quad = build_presentation(z4f2())
    assert quad.base == "v0" and not quad.is_tree_edge("e1")


def test_presentation_rejects_invalid_graph():
    g = VGBSGraph((Vertex("v0", 1), Vertex("v1", 1)), ())
    with pytest.raises(ValueError, match="not connected"):
        build_presentation(g)
    with pytest.raises(ValueError, match="unknown base"):
        build_presentation(bs12(), base="missing")


def test_transport_across():
    pres = build_presentation(bs12())
    assert pres.transport_across("e1", (3,)) == (6,)
    assert pres.transport_across("e1bar", (4,)) == (2,)
    assert pres.transport_across("e1bar", (3,)) is None


def test_json_round_trip():
    for name, builder in ALL_GRAPHS.items():
        g = builder()
        assert graph_from_dict(graph_to_dict(g)) == g, name


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="missing key"):
        graph_from_dict({"vertices": []})
    good = graph_to_dict(bs12())
    bad = graph_to_dict(bs12())
    bad["edges"][0]["inj_initial"] = [[1, 2]]
    with pytest.raises(ValueError, match="columns"):
        graph_from_dict(bad)
    bad2 = graph_to_dict(bs12())
    bad2["edges"][0]["from"] = "vX"
    with pytest.raises(ValueError, match="unknown vertex"):
        graph_from_dict(bad2)
    for field, value in (("vertices", 5), ("edges", None), ("edges", {})):
        bad3 = graph_to_dict(bs12())
        bad3[field] = value
        with pytest.raises(ValueError, match="must be lists"):
            graph_from_dict(bad3)
    bad6 = graph_to_dict(bs12())
    bad6["edges"][0]["inj_initial"] = [[True]]
    with pytest.raises(ValueError, match="entries must be integers"):
        graph_from_dict(bad6)
    for rank in (1.5, True, "1"):
        bad4 = graph_to_dict(bs12())
        bad4["vertices"][0]["rank"] = rank
        with pytest.raises(ValueError, match="rank must be an integer"):
            graph_from_dict(bad4)
        bad5 = graph_to_dict(bs12())
        bad5["edges"][0]["rank"] = rank
        with pytest.raises(ValueError, match="rank must be an integer"):
            graph_from_dict(bad5)
    assert graph_from_dict(good) == bs12()
