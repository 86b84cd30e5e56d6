"""Deterministic SVG pictures of arc configurations.

Finite arcs become semicircles over a number line, arcs to infinity
become vertical rays.  Output is plain SVG 1.1 assembled by string
concatenation with integer coordinates only, so a fixed input yields a
byte-identical document on every run.  Finite arcs are <path> elements
and rays are <line class="ray"> elements; the axis and ticks are plain
lines, which keeps the element classes countable in tests.  Crossing
highlights ask the crossing index of `configurations` over the arcs drawn.
"""
from __future__ import annotations

from .configurations import ArcConfiguration, _crossing_index, _member_ends, _window_ends
from .quiver import _RAY_END

__all__ = ["render_svg", "render_to_file"]

UNIT = 40
MARGIN = 40

_STYLE = (
    ".axis{stroke:#444;stroke-width:2}"
    ".tick{stroke:#444;stroke-width:1}"
    ".lbl{font:12px monospace;fill:#444;text-anchor:middle}"
    ".arc{stroke:#1f77b4;stroke-width:2;fill:none}"
    ".ray{stroke:#2ca02c;stroke-width:2}"
    ".crossing{stroke:#d62728}"
)


def render_svg(
    c: ArcConfiguration,
    window: tuple[int, int],
    highlight_crossings: bool = False,
) -> str:
    lo, hi = _window_ends(window, "render_svg")
    pairs, rays = _member_ends(c, window)
    crossing = _crossing_arcs(pairs, rays) if highlight_crossings else set()

    max_r = max(((b - a) * UNIT // 2 for a, b in pairs), default=UNIT)
    width = (hi - lo) * UNIT + 2 * MARGIN
    height = max_r + 2 * MARGIN + 20
    base = height - MARGIN
    # the x coordinate of vertex v is off + v * UNIT
    off = MARGIN - lo * UNIT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        f'<line class="axis" x1="{off + lo * UNIT - 20}" y1="{base}" '
        f'x2="{off + hi * UNIT + 20}" y2="{base}"/>',
    ]
    tick_y = f'" y1="{base - 4}" x2="'
    tick_end = f'" y2="{base + 4}"/>'
    lbl_y = f'" y="{base + 18}">'
    for v in range(lo, hi + 1):
        xv = off + v * UNIT
        parts.append(
            f'<line class="tick" x1="{xv}{tick_y}{xv}{tick_end}\n'
            f'<text class="lbl" x="{xv}{lbl_y}{v}</text>'
        )
    for a, b in pairs:
        r = (b - a) * UNIT // 2
        cls = "arc crossing" if (a, b) in crossing else "arc"
        parts.append(
            f'<path class="{cls}" d="M {off + a * UNIT} {base} '
            f'A {r} {r} 0 0 1 {off + b * UNIT} {base}"/>'
        )
    for m in rays:
        cls = "ray crossing" if m in crossing else "ray"
        xm = off + m * UNIT
        parts.append(
            f'<line class="{cls}" x1="{xm}" y1="{base}" '
            f'x2="{xm}" y2="{MARGIN // 2}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _crossing_arcs(pairs: list[tuple[int, int]], rays: list[int]) -> set:
    """The endpoint pairs (a, b) and ray ends m of the arcs that cross at
    least one other arc, from one crossing index over all of them, in
    O(n log n); a ray at m is the arc (m, _RAY_END)."""
    _, crosses = _crossing_index(pairs + [(m, _RAY_END) for m in rays])
    return {(a, b) for a, b in pairs if crosses(a, b)} | {m for m in rays if crosses(m, _RAY_END)}


def render_to_file(
    c: ArcConfiguration,
    window: tuple[int, int],
    path: str,
    highlight_crossings: bool = False,
) -> None:
    svg = render_svg(c, window, highlight_crossings)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
