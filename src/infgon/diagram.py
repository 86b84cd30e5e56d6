"""Deterministic SVG pictures of arc configurations.

Finite arcs become semicircles over a number line, arcs to infinity
become vertical rays.  Output is plain SVG 1.1 assembled by string
concatenation with integer coordinates only, so a fixed input yields a
byte-identical document on every run.  Finite arcs are <path> elements
and rays are <line class="ray"> elements; the axis and ticks are plain
lines, which keeps the element classes countable in tests.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

from .arcs import FiniteArc, InfiniteArc
from .configurations import ArcConfiguration, materialize

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
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    arcs = materialize(c, window)
    finite = [t for t in arcs if isinstance(t, FiniteArc)]
    infinite = [t for t in arcs if isinstance(t, InfiniteArc)]

    crossing = _crossing_arcs(finite, infinite) if highlight_crossings else set()

    max_r = max((t.span * UNIT // 2 for t in finite), default=UNIT)
    width = (hi - lo) * UNIT + 2 * MARGIN
    height = max_r + 2 * MARGIN + 20
    base = height - MARGIN

    def x(v: int) -> int:
        return MARGIN + (v - lo) * UNIT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        f'<line class="axis" x1="{x(lo) - 20}" y1="{base}" '
        f'x2="{x(hi) + 20}" y2="{base}"/>',
    ]
    for v in range(lo, hi + 1):
        parts.append(
            f'<line class="tick" x1="{x(v)}" y1="{base - 4}" '
            f'x2="{x(v)}" y2="{base + 4}"/>'
        )
        parts.append(f'<text class="lbl" x="{x(v)}" y="{base + 18}">{v}</text>')
    for t in finite:
        r = t.span * UNIT // 2
        cls = "arc crossing" if t in crossing else "arc"
        parts.append(
            f'<path class="{cls}" d="M {x(t.a)} {base} '
            f'A {r} {r} 0 0 1 {x(t.b)} {base}"/>'
        )
    for t in infinite:
        cls = "ray crossing" if t in crossing else "ray"
        parts.append(
            f'<line class="{cls}" x1="{x(t.m)}" y1="{base}" '
            f'x2="{x(t.m)}" y2="{MARGIN // 2}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _range_query(pick, values: list[int]):
    """query(lo, hi) = pick over values[lo:hi] for lo < hi, in O(1) after
    an O(n log n) sparse table: row k holds pick over each run of 2^k."""
    rows = [values]
    width = 1
    while 2 * width <= len(values):
        prev = rows[-1]
        rows.append([pick(prev[i], prev[i + width]) for i in range(len(prev) - width)])
        width *= 2

    def query(lo: int, hi: int) -> int:
        k = (hi - lo).bit_length() - 1
        return pick(rows[k][lo], rows[k][hi - (1 << k)])

    return query


def _crossing_arcs(finite: list[FiniteArc], infinite: list[InfiniteArc]) -> set:
    """The arcs that cross at least one other arc, in O(n log n).

    A finite arc (a, b) crosses a finite arc exactly when some arc with
    its left end in (a, b) ends right of b, or some arc with its right
    end in (a, b) starts left of a; it crosses a ray at m when a < m < b.
    So a ray at m is crossed when some arc with its left end below m ends
    right of m.
    """
    by_left = sorted(finite, key=lambda t: t.a)
    lefts = [t.a for t in by_left]
    max_right = _range_query(max, [t.b for t in by_left])
    by_right = sorted(finite, key=lambda t: t.b)
    rights = [t.b for t in by_right]
    min_left = _range_query(min, [t.a for t in by_right])
    rays = sorted(t.m for t in infinite)

    def crosses(a: int, b: int) -> bool:
        lo, hi = bisect_right(lefts, a), bisect_left(lefts, b)
        if lo < hi and max_right(lo, hi) > b:
            return True
        lo, hi = bisect_right(rights, a), bisect_left(rights, b)
        if lo < hi and min_left(lo, hi) < a:
            return True
        return bisect_right(rays, a) < bisect_left(rays, b)

    def crossed(m: int) -> bool:
        k = bisect_left(lefts, m)
        return k > 0 and max_right(0, k) > m

    return {t for t in finite if crosses(t.a, t.b)} | {
        t for t in infinite if crossed(t.m)
    }


def render_to_file(
    c: ArcConfiguration,
    window: tuple[int, int],
    path: str,
    highlight_crossings: bool = False,
) -> None:
    svg = render_svg(c, window, highlight_crossings)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
