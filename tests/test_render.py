"""Tests for SVG rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conegraph.construct import build
from conegraph.corpus import load_corpus, random_nodeset
from conegraph.geometry import Point
from conegraph.model import NodeSet
from conegraph.render import render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def render_v2(highlight):
    v2 = next(e for e in load_corpus() if e.name == "V2")
    g = build(v2.nodes, "yao", 5)
    pair = (v2.nodes.index_of("u"), v2.nodes.index_of("v")) if highlight else None
    return render_svg(g, highlight_pair=pair)


def circles_by_class(svg):
    root = ET.fromstring(svg)
    out = {}
    for c in root.iter(f"{SVG_NS}circle"):
        out.setdefault(c.get("class"), []).append(c)
    return out


def test_v2_render_has_six_node_glyphs_and_aux_circle():
    svg = render_v2(highlight=True)
    circles = circles_by_class(svg)
    assert len(circles["node"]) == 6
    assert len(circles["aux-circle"]) == 1


def test_render_without_highlight_has_no_aux_circle():
    circles = circles_by_class(render_v2(highlight=False))
    assert "aux-circle" not in circles


def test_render_labels_every_node():
    root = ET.fromstring(render_v2(highlight=False))
    labels = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert sorted(labels) == ["a", "b", "c", "d", "u", "v"]


def test_render_one_line_per_edge():
    g = build(random_nodeset(15, seed=4), "theta", 6)
    root = ET.fromstring(render_svg(g))
    assert len(list(root.iter(f"{SVG_NS}line"))) == len(g.edges)


def test_render_deterministic():
    assert render_v2(highlight=True) == render_v2(highlight=True)
    g = build(random_nodeset(20, seed=8), "yao", 6)
    assert render_svg(g) == render_svg(g)


def test_render_single_node():
    g = build(NodeSet([("only", Point(3, 4))]), "yao", 4)
    svg = render_svg(g)
    circles = circles_by_class(svg)
    assert len(circles["node"]) == 1
    vb = [float(x) for x in ET.fromstring(svg).get("viewBox").split()]
    assert vb[2] > 0 and vb[3] > 0


def test_render_rejects_unknown_highlight_node():
    g = build(random_nodeset(4, seed=9), "yao", 4)
    with pytest.raises(ValueError, match="unknown node"):
        render_svg(g, highlight_pair=(0, 17))


def test_render_highlight_accepts_numpy_indices():
    # witness indices come out of numpy; the figure is the same
    g = build(random_nodeset(6, seed=12), "yao", 4)
    assert render_svg(g, highlight_pair=(np.int64(0), np.intp(3))) == render_svg(
        g, highlight_pair=(0, 3))


def test_render_directed_uses_markers():
    ns = random_nodeset(6, seed=10)
    g = build(ns, "yao", 4, directed=True)
    svg = render_svg(g)
    assert "marker-end" in svg and "<defs>" in svg


# the build's squared distances overflow at 2**600
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("e", [-600, -300, 0, 300, 600])
def test_render_under_exact_rescaling_prints_only_finite_numbers(e):
    # 2**e scales every coordinate exactly; at 2**600 d(u, v)**2 overflows
    v2 = next(entry for entry in load_corpus() if entry.name == "V2")
    scale = 2.0**e
    nodes = NodeSet((name, Point(p.x * scale, p.y * scale))
                    for name, p in zip(v2.nodes.ids, v2.nodes.points))
    pair = (nodes.index_of("u"), nodes.index_of("v"))
    try:
        svg = render_svg(build(nodes, "yao", 5), highlight_pair=pair)
    except ValueError:
        return
    assert "inf" not in svg and "nan" not in svg
