"""Right-approximation case analysis and direct-system limits.

The fixture configuration is the fan at 0 with its matching infinite
arc, the smallest cluster tilting example.  Its limit slot is -2, so the
case split on a Pruefer input E_slot reads: slot <= -2 factors through
the configuration's own limit object, slot = -1 is the trivially-zero
case, and slot >= 0 needs a finite coslice target.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import approximations, quiver
from infgon import (
    ApproximationKind,
    ApproximationReport,
    ArcConfiguration,
    DirectSystemDescriptor,
    Explicit,
    Fan,
    FiniteArc,
    FiniteInd,
    InfiniteArc,
    Move,
    PruferInd,
    PruferLimit,
    RidesSliceFrom,
    SplitFan,
    ZeroLimit,
    Zigzag,
    ZigzagsForever,
    approximation_report,
    arc_to_object,
    classify_direct_system,
    hom_dim,
    materialize,
    object_to_arc,
)

FAN_CT = ArcConfiguration([Fan(0)], [0])


def members_with_hom_to(c, d, window):
    out = []
    for arc in materialize(c, window):
        if hom_dim(arc_to_object(arc), d).value == 1:
            out.append(arc)
    return out


class TestPruferInputs:
    @pytest.mark.parametrize("slot", [-5, -4, -3, -2])
    def test_at_or_below_limit_slot_factor_through_it(self, slot):
        r = approximation_report(FAN_CT, PruferInd(slot))
        assert r.kind is ApproximationKind.PRUFER_OBJECT
        assert r.target == PruferInd(-2)
        assert r.exceptions == ()

    def test_one_above_limit_slot_is_trivially_zero(self):
        r = approximation_report(FAN_CT, PruferInd(-1))
        assert r.kind is ApproximationKind.ZERO_SUFFICES
        assert r.target is None
        assert r.exceptions == ()

    @pytest.mark.parametrize(
        "slot,target",
        [
            (0, FiniteInd(0, 0)),
            (1, FiniteInd(0, 1)),
            (2, FiniteInd(0, 2)),
            (3, FiniteInd(0, 3)),
        ],
    )
    def test_above_limit_slot_need_coslice_targets(self, slot, target):
        d = PruferInd(slot)
        r = approximation_report(FAN_CT, d)
        assert r.kind is ApproximationKind.COSLICE_OBJECT
        assert r.target == target
        # the chosen coslice object must actually map onto d
        assert hom_dim(r.target, d).value == 1

    def test_prufer_handled_list(self):
        r = approximation_report(FAN_CT, PruferInd(-4))
        assert r.handled == tuple(
            FiniteArc(0, b) for b in range(4, 17)
        ) + (InfiniteArc(0),)
        assert r.exceptions == ()


class TestFiniteInputs:
    def test_wedge_member_coslice(self):
        r = approximation_report(FAN_CT, arc_to_object(FiniteArc(-2, 0)))
        assert r.kind is ApproximationKind.COSLICE_OBJECT
        assert r.target == FiniteInd(0, 0)
        assert r.handled == tuple(
            FiniteArc(a, 0) for a in range(-16, -1)
        ) + tuple(FiniteArc(0, b) for b in range(2, 17))
        assert r.exceptions == (InfiniteArc(0),)

    @pytest.mark.parametrize(
        "arc,target,handled_count",
        [
            (FiniteArc(-6, 0), FiniteInd(0, 4), 26),
            (FiniteArc(-6, 2), FiniteInd(0, 4), 24),
        ],
    )
    def test_deeper_wedge_members(self, arc, target, handled_count):
        d = arc_to_object(arc)
        r = approximation_report(FAN_CT, d)
        assert r.kind is ApproximationKind.COSLICE_OBJECT
        assert r.target == target
        assert hom_dim(r.target, d).value == 1
        assert len(r.handled) == handled_count
        assert r.exceptions == (InfiniteArc(0),)

    def test_right_of_slice_zero_case(self):
        r = approximation_report(FAN_CT, arc_to_object(FiniteArc(1, 3)))
        assert r.kind is ApproximationKind.ZERO_SUFFICES
        assert r.handled == ()
        assert r.exceptions == (FiniteArc(0, 3),)

    def test_left_of_coslice_zero_case(self):
        r = approximation_report(FAN_CT, arc_to_object(FiniteArc(-8, -4)))
        assert r.kind is ApproximationKind.ZERO_SUFFICES
        assert r.handled == ()
        assert r.exceptions == (
            FiniteArc(-6, 0),
            FiniteArc(-5, 0),
            FiniteArc(-4, 0),
        )

    def test_fountain_identification(self):
        r = approximation_report(FAN_CT, arc_to_object(FiniteArc(-2, 0)))
        assert r.fountain_vertex == 0
        assert r.limit_slot == -2


class TestReportCoherence:
    # every configuration member with a nonzero hom to the input must be
    # accounted for exactly once, as handled or as an exception
    @pytest.mark.parametrize(
        "d",
        [
            arc_to_object(FiniteArc(-2, 0)),
            arc_to_object(FiniteArc(-6, 2)),
            arc_to_object(FiniteArc(1, 3)),
            arc_to_object(FiniteArc(-8, -4)),
            PruferInd(-4),
            PruferInd(-1),
            PruferInd(2),
        ],
    )
    def test_partition(self, d):
        r = approximation_report(FAN_CT, d)
        mapped = members_with_hom_to(FAN_CT, d, r.window)
        assert sorted(r.handled + r.exceptions, key=repr) == sorted(
            mapped, key=repr
        )
        assert not set(r.handled) & set(r.exceptions)

    def test_window_override(self):
        r = approximation_report(
            FAN_CT, arc_to_object(FiniteArc(-2, 0)), window=(-5, 5)
        )
        assert r.window == (-5, 5)
        assert r.handled == tuple(
            FiniteArc(a, 0) for a in range(-5, -1)
        ) + tuple(FiniteArc(0, b) for b in range(2, 6))

    def test_window_given_as_a_list_is_stored_checked(self):
        # the report keeps the checked (lo, hi), so it hashes and equals
        # the report made with the tuple window
        r = approximation_report(FAN_CT, FiniteInd(1, 3), [-5, 5])
        assert r.window == (-5, 5) and type(r.window) is tuple
        assert r == approximation_report(FAN_CT, FiniteInd(1, 3), (-5, 5))
        assert hash(r) == hash(approximation_report(FAN_CT, FiniteInd(1, 3), (-5, 5)))

    def test_requires_cluster_tilting(self):
        # near misses of the fan with its ray: a zigzag, explicit only, a
        # zigzag with a ray or a non-member, a split fan with a ray at its
        # left foot, a fan with a ray off its foot, two fans with a ray
        for gens, infs, verdict in [
            ([Zigzag(0)], [], "WCT_LocallyFinite"),
            ([Explicit({FiniteArc(0, 2)})], [], "NotWCT"),
            ([Zigzag(0)], [0], "NotWCT"),
            ([Zigzag(0), Explicit({FiniteArc(0, 2)})], [], "NotWCT"),
            ([SplitFan(0, 2)], [0], "NotWCT"),
            ([Fan(0)], [1], "NotWCT"),
            ([Fan(0), Fan(3)], [0], "NotWCT"),
        ]:
            with pytest.raises(ValueError) as info:
                approximation_report(ArcConfiguration(gens, infs), FiniteInd(0, 0))
            assert str(info.value) == (
                "approximation analysis needs a cluster tilting configuration,"
                f" classification gave {verdict}"
            ), gens


def report_by_objects(c, d, window):
    """The report as approximation_report built it per member object:
    arc_to_object on every member, and hom_dim to d and to the target."""
    f = c.infinite_arcs[0]
    n = -f - 2
    if isinstance(d, PruferInd):
        k = d.slot - n
        if k <= 0:
            kind, target = ApproximationKind.PRUFER_OBJECT, PruferInd(n)
        elif k == 1:
            kind, target = ApproximationKind.ZERO_SUFFICES, None
        else:
            kind = ApproximationKind.COSLICE_OBJECT
            target = arc_to_object(FiniteArc(-n - max(4, k + 2), -n - 2))
    else:
        arc = object_to_arc(d)
        if arc.a >= -n - 3 or arc.b <= -n - 3:
            kind, target = ApproximationKind.ZERO_SUFFICES, None
        else:
            kind = ApproximationKind.COSLICE_OBJECT
            target = arc_to_object(FiniteArc(-n - max(4, -n - arc.a), -n - 2))
    handled, exceptions = [], []
    for member in materialize(c, window):
        t_obj = arc_to_object(member)
        if hom_dim(t_obj, d).value != 1:
            continue
        if kind is ApproximationKind.ZERO_SUFFICES:
            exceptions.append(member)
        elif kind is ApproximationKind.PRUFER_OBJECT:
            on_slice = isinstance(member, FiniteArc) and member.a == f
            if on_slice or isinstance(t_obj, PruferInd):
                handled.append(member)
            else:
                exceptions.append(member)
        elif isinstance(t_obj, FiniteInd) and hom_dim(t_obj, target).value == 1:
            handled.append(member)
        else:
            exceptions.append(member)
    return ApproximationReport(
        kind, target, f, n, window, tuple(handled), tuple(exceptions)
    )


def cluster_tilting(f):
    # Fan(f) and SplitFan(f, f), bare and with explicit member arcs
    members = Explicit({FiniteArc(f - 3, f), FiniteArc(f, f + 5)})
    for g in (Fan(f), SplitFan(f, f)):
        yield ArcConfiguration([g], [f])
        yield ArcConfiguration([members, g], [f])


def inputs(f):
    n = -f - 2
    # Pruefer objects with k = slot - n from -3 to 4
    yield from (PruferInd(n + k) for k in range(-3, 5))
    # finite objects around f: zero-suffices and coslice both occur
    for a in range(f - 9, f + 3):
        for b in range(a + 2, f + 6):
            yield arc_to_object(FiniteArc(a, b))


class TestEndpointReport:
    """approximation_report decides its homs on arc endpoints; it equals
    the report built per member object through hom_dim."""

    @pytest.mark.parametrize("f", [-3, 0, 4])
    def test_matches_the_object_loop(self, f):
        kinds = {}
        windows = [(f - 9, f + 9), (f - 12, f - 1), (f + 1, f + 10), (f, f), (f - 2, f + 3)]
        for c in cluster_tilting(f):
            for d in inputs(f):
                for window in windows:
                    got = approximation_report(c, d, window)
                    assert got == report_by_objects(c, d, window), (c, d, window)
                    kinds[got.kind] = kinds.get(got.kind, 0) + 1
        assert set(kinds) == set(ApproximationKind)

    def test_answers_without_hom_dim(self, monkeypatch):
        objects = (PruferInd(-3), PruferInd(-1), PruferInd(2), FiniteInd(-1, 2))
        want = {d: approximation_report(FAN_CT, d) for d in objects}
        assert {r.kind for r in want.values()} == set(ApproximationKind)

        def no_hom(*args):
            raise AssertionError("hom_dim or ext_dim called per member")

        # every name the two answers go by in a loaded infgon module
        answers = (quiver.hom_dim, quiver.ext_dim)
        for module in [m for name, m in sys.modules.items() if name.startswith("infgon")]:
            for name, value in list(vars(module).items()):
                if any(value is f for f in answers):
                    monkeypatch.setattr(module, name, no_hom)
        assert quiver.hom_dim is no_hom and quiver.ext_dim is no_hom
        for d, r in want.items():
            assert approximation_report(FAN_CT, d) == r

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([-(10**6), 10**6]),
        st.integers(-50, 50),
        st.integers(0, 3),
        st.integers(-3, 3) | st.integers(-30, 6),
        st.integers(0, 36),
        st.data(),
    )
    def test_matches_the_object_loop_far_out(self, big, shift, which, start, width, data):
        # f near +-10**6, windows around f: some miss f, some are one vertex
        f = big + shift
        c = list(cluster_tilting(f))[which]
        lo = f + start
        window = (lo, lo + width)
        if data.draw(st.booleans()):
            d = PruferInd(-f - 2 + data.draw(st.integers(-5, 6)))
        else:
            a = f + data.draw(st.integers(-16, 6))
            d = arc_to_object(FiniteArc(a, a + data.draw(st.integers(2, 24))))
        assert approximation_report(c, d, window) == report_by_objects(c, d, window)

    def test_kernel_calls_do_not_grow_with_the_window(self, monkeypatch):
        # a report decides each run of a side with one or two kernel calls
        calls = []
        region = approximations._region

        def counted(*args):
            calls.append(args)
            return region(*args)

        monkeypatch.setattr(approximations, "_region", counted)
        objects = (
            arc_to_object(FiniteArc(-6, 2)),
            arc_to_object(FiniteArc(-2, 0)),
            PruferInd(-5),
            PruferInd(-2),
            PruferInd(-1),
            PruferInd(3),
        )
        for d in objects:
            counts, sizes = [], []
            for w in (20, 200, 2000):
                calls.clear()
                r = approximation_report(FAN_CT, d, (-w, w))
                counts.append(len(calls))
                sizes.append(len(r.handled) + len(r.exceptions))
            assert counts[0] == counts[1] == counts[2], (d, counts)
            # the inventory grows with the window, unless no member maps to d
            assert sizes == [0, 0, 0] or sizes[0] < sizes[1] < sizes[2], (d, sizes)

    def test_errors_kept(self):
        with pytest.raises(TypeError, match="object_to_arc takes"):
            approximation_report(FAN_CT, FiniteArc(0, 2))
        with pytest.raises(ValueError, match="empty window"):
            approximation_report(FAN_CT, FiniteInd(0, 0), window=(3, 2))


class TestDirectSystems:
    def test_bare_slice_ride(self):
        # with no start, every slot is reachable
        for slot in (-7, 0, 8, 10**12):
            d = DirectSystemDescriptor(None, (), RidesSliceFrom(slot))
            assert classify_direct_system(d) == PruferLimit(slot)

    def test_prefix_is_forgotten(self):
        # the prefix ends at shift + index = -2, so slot 7 is out of reach
        d = DirectSystemDescriptor(
            FiniteInd(0, 0), (Move.UP, Move.UP, Move.DOWN), RidesSliceFrom(7)
        )
        want = "^a prefix ending at slot -2 cannot ride the slice from slot 7$"
        with pytest.raises(ValueError, match=want):
            classify_direct_system(d)

    def test_prefix_bounds_the_slot(self):
        # UP keeps shift + index, DOWN lowers it by 2: from (0, 0) after
        # UP UP DOWN the reachable slots are -2, -4, -6, ...
        start, moves = FiniteInd(0, 0), (Move.UP, Move.UP, Move.DOWN)
        for slot in (-2, -4, -40):
            d = DirectSystemDescriptor(start, moves, RidesSliceFrom(slot))
            assert classify_direct_system(d) == PruferLimit(slot)
        for slot in (-1, -3, 0):
            d = DirectSystemDescriptor(start, moves, RidesSliceFrom(slot))
            with pytest.raises(ValueError, match=f"cannot ride the slice from slot {slot}$"):
                classify_direct_system(d)

    def test_forever_zigzag_collapses(self):
        d = DirectSystemDescriptor(None, (), ZigzagsForever())
        assert classify_direct_system(d) == ZeroLimit()

    def test_down_then_up_is_fine(self):
        # the prefix ends at shift + index = -1, so slot 2 is out of reach
        start, moves = FiniteInd(0, 1), (Move.DOWN, Move.UP)
        with pytest.raises(ValueError, match="ending at slot -1 "):
            classify_direct_system(DirectSystemDescriptor(start, moves, RidesSliceFrom(2)))
        for slot in (-1, -3):
            d = DirectSystemDescriptor(start, moves, RidesSliceFrom(slot))
            assert classify_direct_system(d) == PruferLimit(slot)

    def test_tail_tag_required(self):
        with pytest.raises(ValueError):
            DirectSystemDescriptor(FiniteInd(0, 0), (), None)

    def test_moves_need_a_start(self):
        d = DirectSystemDescriptor(None, (Move.UP,), ZigzagsForever())
        with pytest.raises(ValueError):
            classify_direct_system(d)

    def test_cannot_walk_below_the_base_row(self):
        d = DirectSystemDescriptor(FiniteInd(0, 0), (Move.DOWN,), ZigzagsForever())
        with pytest.raises(ValueError, match="leaves the quiver"):
            classify_direct_system(d)
        d2 = DirectSystemDescriptor(
            FiniteInd(0, 1), (Move.DOWN, Move.DOWN), RidesSliceFrom(2)
        )
        with pytest.raises(ValueError, match="leaves the quiver"):
            classify_direct_system(d2)

    @pytest.mark.parametrize(
        "start,moves,tail,name",
        [
            (FiniteInd(0, 2), ("up",), RidesSliceFrom(1), "moves[0]"),
            (FiniteInd(0, 0), ("down",), ZigzagsForever(), "moves[0]"),
            (FiniteInd(0, 1), (Move.DOWN, None), ZigzagsForever(), "moves[1]"),
            (FiniteInd(0, 0), (), PruferLimit(3), "tail"),
            (FiniteInd(0, 0), (), ZeroLimit(), "tail"),
            ((0, 0), (), RidesSliceFrom(0), "start"),
            ((0, 0), (Move.UP,), ZigzagsForever(), "start"),
            (FiniteInd(0, 0), (), RidesSliceFrom("0"), "tail.slot"),
            (None, (), RidesSliceFrom(1.0), "tail.slot"),
            (None, (), RidesSliceFrom(True), "tail.slot"),
        ],
    )
    def test_type_error_names_the_field(self, start, moves, tail, name):
        d = DirectSystemDescriptor(start, moves, tail)
        want = rf"^classify_direct_system takes .*, {re.escape(name)} is "
        with pytest.raises(TypeError, match=want):
            classify_direct_system(d)


class TestObjectArcAgreement:
    def test_fixture_object_names(self):
        # the finite fixtures above, written as quiver objects
        assert object_to_arc(FiniteInd(0, 0)) == FiniteArc(-2, 0)
        assert object_to_arc(FiniteInd(0, 4)) == FiniteArc(-6, 0)
        assert object_to_arc(FiniteInd(-2, 6)) == FiniteArc(-6, 2)
