"""Crossing highlights of render_svg against the pairwise definition.

render_svg finds the crossed arcs from range extremes over sorted
endpoints; the oracle here compares every pair with arcs_cross.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infgon import (
    ArcConfiguration,
    CrossResult,
    Explicit,
    Fan,
    FiniteArc,
    InfiniteArc,
    SplitFan,
    Zigzag,
    arcs_cross,
)
from infgon import diagram


def pairwise_crossing(pairs, slots):
    # keyed as _crossing_arcs answers: (a, b) for a finite arc, m for a ray
    keys = [*pairs, *slots]
    arcs = [FiniteArc(a, b) for a, b in pairs] + [InfiniteArc(m) for m in slots]
    out = set()
    for i, t1 in enumerate(arcs):
        for k, t2 in enumerate(arcs[i + 1 :], i + 1):
            if arcs_cross(t1, t2) is CrossResult.CROSS:
                out |= {keys[i], keys[k]}
    return out


# small coordinates, so that shared endpoints and nesting are common
finite_arcs = st.builds(
    lambda a, k: FiniteArc(a, a + k), st.integers(-8, 8), st.integers(2, 9)
)
rays = st.builds(InfiniteArc, st.integers(-10, 10))


@given(st.sets(finite_arcs, max_size=30), st.sets(rays, max_size=4))
def test_crossing_arcs_match_pairwise(finite, infinite):
    pairs, slots = sorted((t.a, t.b) for t in finite), sorted(t.m for t in infinite)
    assert diagram._crossing_arcs(pairs, slots) == pairwise_crossing(pairs, slots)


@pytest.mark.parametrize(
    "config,window",
    [
        (ArcConfiguration([Fan(0), Zigzag(0)], [0]), (-30, 30)),
        (ArcConfiguration([SplitFan(-1, 2)], [2, -3]), (-15, 15)),
        (ArcConfiguration([Zigzag(1), Fan(-2)], [1, 4]), (-20, 20)),
        (
            ArcConfiguration(
                [Explicit({FiniteArc(-2, 0), FiniteArc(-1, 2), FiniteArc(1, 4)})], []
            ),
            (-4, 5),
        ),
    ],
)
def test_highlighted_svg_is_the_pairwise_one(config, window, monkeypatch):
    svg = diagram.render_svg(config, window, highlight_crossings=True)
    assert 'class="arc crossing"' in svg
    monkeypatch.setattr(diagram, "_crossing_arcs", pairwise_crossing)
    assert diagram.render_svg(config, window, highlight_crossings=True) == svg
