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


def pairwise_crossing(finite, infinite):
    arcs = finite + infinite
    out = set()
    for i, t1 in enumerate(arcs):
        for t2 in arcs[i + 1 :]:
            if arcs_cross(t1, t2) is CrossResult.CROSS:
                out |= {t1, t2}
    return out


# small coordinates, so that shared endpoints and nesting are common
finite_arcs = st.builds(
    lambda a, k: FiniteArc(a, a + k), st.integers(-8, 8), st.integers(2, 9)
)
rays = st.builds(InfiniteArc, st.integers(-10, 10))


@given(st.sets(finite_arcs, max_size=30), st.sets(rays, max_size=4))
def test_crossing_arcs_match_pairwise(finite, infinite):
    finite, infinite = sorted(finite, key=repr), sorted(infinite, key=repr)
    assert diagram._crossing_arcs(finite, infinite) == pairwise_crossing(
        finite, infinite
    )


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
