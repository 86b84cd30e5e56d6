"""Arc coordinates, crossing geometry, and the crossing/Ext bridge.

The bridge tests are the point of this module: crossing is computed from
endpoint inequalities, first extensions from region membership, and the
two must agree in every direction on every window pair.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from infgon import (
    CrossResult,
    FiniteArc,
    FiniteInd,
    HomDim,
    HomWitness,
    InfiniteArc,
    PruferInd,
    arc_sort_key,
    arc_to_object,
    arcs_cross,
    ext_dim,
    ext_via_crossing,
    format_arc,
    object_to_arc,
    overarcs_crossing_infinite,
    parse_arc,
    shift_object,
    translate_arc,
)


def window_arcs(lo, hi):
    return [
        FiniteArc(a, b)
        for a in range(lo, hi + 1)
        for b in range(a + 2, hi + 1)
    ]


class TestArcValues:
    def test_finite_arc_needs_gap_two(self):
        with pytest.raises(ValueError):
            FiniteArc(0, 1)
        with pytest.raises(ValueError):
            FiniteArc(3, 3)

    def test_span(self):
        assert FiniteArc(-2, 0).span == 2
        assert FiniteArc(0, 5).span == 5


class TestCoordinates:
    def test_frozen_forward(self):
        assert object_to_arc(FiniteInd(1, 0)) == FiniteArc(-3, -1)
        assert object_to_arc(FiniteInd(0, 0)) == FiniteArc(-2, 0)
        assert object_to_arc(PruferInd(0)) == InfiniteArc(-2)

    def test_frozen_inverse(self):
        assert arc_to_object(FiniteArc(-2, 0)) == FiniteInd(0, 0)
        assert arc_to_object(InfiniteArc(-2)) == PruferInd(0)

    @given(st.integers(-40, 40), st.integers(0, 30))
    def test_round_trip_finite(self, s, d):
        x = FiniteInd(s, d)
        assert arc_to_object(object_to_arc(x)) == x

    @given(st.integers(-40, 40))
    def test_round_trip_prufer(self, slot):
        e = PruferInd(slot)
        assert arc_to_object(object_to_arc(e)) == e

    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_round_trip_arc(self, a, gap):
        arc = FiniteArc(a, a + 2 + abs(gap) % 20)
        assert object_to_arc(arc_to_object(arc)) == arc

    @given(st.integers(-40, 40), st.integers(0, 30), st.integers(-10, 10))
    def test_shift_is_translation(self, s, d, t):
        x = FiniteInd(s, d)
        assert object_to_arc(shift_object(x, t)) == translate_arc(
            object_to_arc(x), -t
        )

    @given(st.integers(-40, 40), st.integers(-10, 10))
    def test_shift_is_translation_prufer(self, slot, t):
        e = PruferInd(slot)
        assert object_to_arc(shift_object(e, t)) == translate_arc(
            object_to_arc(e), -t
        )


class TestCrossing:
    def test_frozen(self):
        assert arcs_cross(FiniteArc(0, 2), FiniteArc(1, 3)) is CrossResult.CROSS
        assert arcs_cross(FiniteArc(0, 4), FiniteArc(1, 3)) is CrossResult.NO_CROSS
        assert arcs_cross(FiniteArc(0, 4), InfiniteArc(2)) is CrossResult.CROSS
        assert arcs_cross(FiniteArc(0, 4), InfiniteArc(4)) is CrossResult.NO_CROSS
        assert (
            arcs_cross(InfiniteArc(0), InfiniteArc(5))
            is CrossResult.UNDEFINED_INFINITE_INFINITE
        )

    def test_shared_endpoints_never_cross(self):
        assert arcs_cross(FiniteArc(0, 2), FiniteArc(2, 4)) is CrossResult.NO_CROSS
        assert arcs_cross(FiniteArc(0, 2), FiniteArc(0, 4)) is CrossResult.NO_CROSS
        assert arcs_cross(FiniteArc(0, 4), InfiniteArc(0)) is CrossResult.NO_CROSS

    def test_symmetry_on_window(self):
        arcs = window_arcs(-4, 4) + [InfiniteArc(m) for m in range(-4, 5)]
        for x in arcs:
            for y in arcs:
                if isinstance(x, InfiniteArc) and isinstance(y, InfiniteArc):
                    continue
                assert arcs_cross(x, y) is arcs_cross(y, x)

    @given(st.integers(-20, 20), st.integers(0, 10), st.integers(-20, 20), st.integers(0, 10), st.integers(-8, 8))
    def test_translation_invariance(self, a, ga, c, gc, t):
        x = FiniteArc(a, a + 2 + ga)
        y = FiniteArc(c, c + 2 + gc)
        assert arcs_cross(x, y) is arcs_cross(
            translate_arc(x, t), translate_arc(y, t)
        )


class TestExtBridge:
    def test_frozen(self):
        assert ext_via_crossing(FiniteArc(-2, 0), FiniteArc(-3, -1)).value == 1
        assert ext_via_crossing(FiniteArc(-2, 0), FiniteArc(-2, 0)).value == 0
        assert ext_via_crossing(FiniteArc(-4, -2), InfiniteArc(-2)).value == 0

    def test_two_infinite_arcs_rejected(self):
        with pytest.raises(ValueError):
            ext_via_crossing(InfiniteArc(0), InfiniteArc(3))

    def test_bridge_on_window(self):
        # crossing must agree with region-computed extensions both ways
        arcs = window_arcs(-5, 5)
        for x in arcs:
            ox = arc_to_object(x)
            for y in arcs:
                oy = arc_to_object(y)
                d = ext_via_crossing(x, y).value
                assert d == ext_dim(ox, oy).value, (x, y)
                assert d == ext_dim(oy, ox).value, (x, y)

    def test_bridge_finite_vs_infinite(self):
        for x in window_arcs(-5, 5):
            ox = arc_to_object(x)
            for m in range(-6, 7):
                e = arc_to_object(InfiniteArc(m))
                d = ext_via_crossing(x, InfiniteArc(m)).value
                assert d == ext_dim(ox, e).value, (x, m)
                assert d == ext_dim(e, ox).value, (x, m)


finite_arcs = st.builds(
    lambda a, gap: FiniteArc(a, a + gap), st.integers(-40, 40), st.integers(2, 62)
)
any_arcs = st.one_of(finite_arcs, st.builds(InfiniteArc, st.integers(-40, 40)))


class TestFlatCrossingPath:
    @given(any_arcs, any_arcs)
    def test_ext_via_crossing_matches_docstring_rules(self, x, y):
        # the crossing rules of the arcs_cross docstring, with the
        # answer built through the checking record constructors
        if isinstance(x, InfiniteArc) and isinstance(y, InfiniteArc):
            with pytest.raises(ValueError, match="not symmetric"):
                ext_via_crossing(x, y)
            return
        if isinstance(x, InfiniteArc):
            cross = y.a < x.m < y.b
        elif isinstance(y, InfiniteArc):
            cross = x.a < y.m < x.b
        else:
            cross = x.a < y.a < x.b < y.b or y.a < x.a < y.b < x.b
        want = HomDim(int(cross), HomWitness("arcs-cross", None, (x, y)))
        got = ext_via_crossing(x, y)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "x,y,member",
        [
            (InfiniteArc(0), InfiniteArc(3), CrossResult.UNDEFINED_INFINITE_INFINITE),
            (FiniteArc(-1, 2), InfiniteArc(0), CrossResult.CROSS),
            (FiniteArc(0, 2), InfiniteArc(0), CrossResult.NO_CROSS),
            (InfiniteArc(1), FiniteArc(0, 3), CrossResult.CROSS),
            (InfiniteArc(3), FiniteArc(0, 3), CrossResult.NO_CROSS),
            (FiniteArc(0, 3), FiniteArc(1, 4), CrossResult.CROSS),
            (FiniteArc(1, 4), FiniteArc(0, 3), CrossResult.CROSS),
            (FiniteArc(0, 4), FiniteArc(1, 3), CrossResult.NO_CROSS),
        ],
    )
    def test_arcs_cross_returns_the_members(self, x, y, member):
        assert arcs_cross(x, y) is member


class TestOverarcs:
    def test_frozen(self):
        assert overarcs_crossing_infinite(0, (-2, 2)) == [
            FiniteArc(-2, 1),
            FiniteArc(-2, 2),
            FiniteArc(-1, 1),
            FiniteArc(-1, 2),
        ]
        assert overarcs_crossing_infinite(0, (0, 5)) == []
        assert overarcs_crossing_infinite(-2, (-4, 0)) == [
            FiniteArc(-4, -1),
            FiniteArc(-4, 0),
            FiniteArc(-3, -1),
            FiniteArc(-3, 0),
        ]

    def test_matches_crossing_scan(self):
        for m in range(-3, 4):
            listed = overarcs_crossing_infinite(m, (-6, 6))
            expected = [
                arc
                for arc in window_arcs(-6, 6)
                if arcs_cross(arc, InfiniteArc(m)) is CrossResult.CROSS
            ]
            assert listed == expected


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: object_to_arc(FiniteArc(0, 2)), "object_to_arc .* x is FiniteArc"),
            (lambda: arc_to_object(FiniteInd(0, 0)), "arc_to_object .* arc is FiniteInd"),
            (lambda: translate_arc(FiniteInd(0, 0), 1), "translate_arc .* arc is FiniteInd"),
            (lambda: arcs_cross(FiniteInd(0, 0), FiniteArc(0, 3)), "arcs_cross .* x is FiniteInd"),
            (lambda: ext_via_crossing(FiniteArc(0, 2), None), "ext_via_crossing .* y is NoneType"),
            (lambda: format_arc(PruferInd(0)), "format_arc .* arc is PruferInd"),
            (lambda: arc_sort_key(3), "arc_sort_key .* arc is int"),
        ],
    )
    def test_non_arc_argument_named(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()


class TestTextForms:
    @pytest.mark.parametrize(
        "text,arc",
        [
            ("-2,0", FiniteArc(-2, 0)),
            ("3,7", FiniteArc(3, 7)),
            ("-4,inf", InfiniteArc(-4)),
            ("0,inf", InfiniteArc(0)),
        ],
    )
    def test_parse_and_format_round_trip(self, text, arc):
        assert parse_arc(text) == arc
        assert format_arc(arc) == text
        assert parse_arc(format_arc(arc)) == arc

    @given(
        st.one_of(
            st.builds(
                lambda a, k: FiniteArc(a, a + k), st.integers(), st.integers(min_value=2)
            ),
            st.builds(InfiniteArc, st.integers()),
        )
    )
    def test_text_round_trip_property(self, arc):
        assert parse_arc(format_arc(arc)) == arc

    def test_parse_accepts_spaces(self):
        assert parse_arc(" -2 , 0 ") == FiniteArc(-2, 0)

    @pytest.mark.parametrize("bad", ["", "1", "1,2,3", "a,b", "1,1", "inf,2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_arc(bad)

    def test_sort_order_finite_before_infinite(self):
        arcs = [InfiniteArc(-5), FiniteArc(0, 2), FiniteArc(-1, 3), InfiniteArc(2)]
        ordered = sorted(arcs, key=arc_sort_key)
        assert ordered == [
            FiniteArc(-1, 3),
            FiniteArc(0, 2),
            InfiniteArc(-5),
            InfiniteArc(2),
        ]
