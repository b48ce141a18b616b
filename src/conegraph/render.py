"""Deterministic SVG rendering of geometric graphs.

Nodes become labeled circles and edges lines; an optional highlighted
pair (u, v) adds the dashed auxiliary circle centered at v with radius
d(u, v), which makes void scenarios visible at a glance. The same graph
always renders to byte-identical SVG.
"""

import math

from .model import GeometricGraph


def render_svg(g: GeometricGraph, highlight_pair: tuple[int, int] | None = None) -> str:
    """SVG document for a graph; highlight_pair is a pair of node indices.
    A number the figure needs beyond the double range raises ValueError."""
    # SVG's y-axis points down; flip so north stays up in the image.
    xs, ys = g.nodes.x.tolist(), (-g.nodes.y).tolist()
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    if highlight_pair is not None:
        u, v = map(g._check_node, highlight_pair)
        r = g.dist(u, v)
        min_x = min(min_x, xs[v] - r)
        max_x = max(max_x, xs[v] + r)
        min_y = min(min_y, ys[v] - r)
        max_y = max(max_y, ys[v] + r)
    # degenerate bounding boxes (single node, collinear axis) still get
    # a visible canvas
    span = max(max_x - min_x, max_y - min_y, 1.0)
    margin = 0.1 * span
    vb = (min_x - margin, min_y - margin,
          (max_x - min_x) + 2 * margin, (max_y - min_y) + 2 * margin)

    node_r = 0.012 * (span + 2 * margin)
    stroke = 0.35 * node_r
    font = 3.2 * node_r
    # each number is formatted once and its text reused
    fx, fy = [_fmt(v) for v in xs], [_fmt(v) for v in ys]
    width, radius, size = _fmt(stroke), _fmt(node_r), _fmt(font)
    offset = 1.4 * node_r

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(vb[0])} {_fmt(vb[1])} '
        f'{_fmt(vb[2])} {_fmt(vb[3])}">',
        f'<title>{g.family} graph, k={g.k}</title>',
    ]
    if highlight_pair is not None:
        parts.append(
            f'<circle class="aux-circle" cx="{fx[v]}" cy="{fy[v]}" '
            f'r="{_fmt(r)}" fill="none" stroke="#888888" '
            f'stroke-width="{width}" stroke-dasharray="{_fmt(4 * stroke)}"/>'
        )
    marker = ' marker-end="url(#arrow)"' if g.directed else ""
    for a, b in g.edges:
        parts.append(
            f'<line class="edge" x1="{fx[a]}" y1="{fy[a]}" x2="{fx[b]}" y2="{fy[b]}" '
            f'stroke="#000000" stroke-width="{width}"{marker}/>'
        )
    if g.directed and g.edges:
        parts.insert(3, (
            '<defs><marker id="arrow" viewBox="0 0 10 10" refX="10" refY="5" '
            'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
            '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>'
        ))
    for idx, name in enumerate(g.nodes.ids):
        parts.append(
            f'<circle class="node" cx="{fx[idx]}" cy="{fy[idx]}" r="{radius}" '
            f'fill="#ffffff" stroke="#000000" stroke-width="{width}"/>'
        )
        parts.append(
            f'<text class="label" x="{_fmt(xs[idx] + offset)}" y="{_fmt(ys[idx] - offset)}" '
            f'font-size="{size}" font-family="sans-serif">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"the figure needs a number beyond the double range ({value})")
    out = f"{value:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
