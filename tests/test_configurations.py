"""Symbolic arc configurations: crossing checks, fountains, maximality,
classification, and the overarc constructions.

Family membership and crossing witnesses are closed-form; the tests here
confront them with window materializations, which replay the same
questions by exhaustive pairwise crossing scans.
"""

import json
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import configurations, diagram
from infgon.arcs import _CROSS, arc_sort_key
from infgon import (
    AddableArc,
    ApproximationKind,
    ApproximationReport,
    ArcConfiguration,
    CertifiedMaximal,
    CrossResult,
    Explicit,
    Fan,
    FiniteArc,
    FountainFlags,
    InfiniteArc,
    PruferInd,
    Reason,
    ReasonKind,
    SplitFan,
    Verdict,
    Zigzag,
    approximation_report,
    arc_to_object,
    arcs_cross,
    classify,
    configuration_from_dict,
    configuration_to_dict,
    fountain_profile,
    hom_dim,
    is_locally_finite,
    load_configuration,
    materialize,
    maximality_check,
    noncrossing_check,
    overarc_antichain,
    render_classification,
    strong_overarc,
    translate_arc,
)


def cfg(*gens, inf=()):
    return ArcConfiguration(list(gens), list(inf))


def window_arcs(lo, hi):
    return [
        FiniteArc(a, b) for a in range(lo, hi + 1) for b in range(a + 2, hi + 1)
    ]


BIG_GENERATORS = [Fan(0), Fan(-3), Zigzag(0), Zigzag(2), SplitFan(0, 3), SplitFan(-2, -2)]


KINDS = "Explicit, Fan, Zigzag or SplitFan generators"
ARCS = "FiniteArc explicit arcs"


class TestGeneratorValues:
    def test_splitfan_order_checked(self):
        with pytest.raises(ValueError):
            SplitFan(1, 0)

    def test_explicit_coerces_to_frozenset(self):
        g = Explicit([FiniteArc(0, 2), FiniteArc(0, 2)])
        assert g.arcs == frozenset({FiniteArc(0, 2)})

    def test_infinite_slots_sorted_and_deduped(self):
        c = ArcConfiguration([], [7, -2, 7])
        assert c.infinite_arcs == (-2, 7)

    @pytest.mark.parametrize(
        "gens,infs,named",
        [
            ([FiniteArc(0, 2)], [], f"{KINDS}, generators[0] is FiniteArc"),
            ([Fan(0), "zigzag"], [], f"{KINDS}, generators[1] is str"),
            ([Explicit([(0, 2)])], [], f"{ARCS}, an arc of generators[0] is tuple"),
            ([Explicit([InfiniteArc(0)])], [], f"{ARCS}, an arc of generators[0] is InfiniteArc"),
            ([Fan(0.5)], [], "int family parameters, generators[0].vertex is float"),
            ([Zigzag("a")], [], "int family parameters, generators[0].center is str"),
            ([Fan(0), SplitFan(0, 2.0)], [], "int family parameters, generators[1].q is float"),
            ([Fan(True)], [], "int family parameters, generators[0].vertex is bool"),
            ([Fan(0)], [0.7], "int infinite arc slots, infinite_arcs[0] is float"),
            ([Fan(0)], [0, "1"], "int infinite arc slots, infinite_arcs[1] is str"),
        ],
        ids=[
            "arc-generator",
            "str-generator",
            "tuple-arc",
            "infinite-arc",
            "float-vertex",
            "str-center",
            "float-q",
            "bool-vertex",
            "float-slot",
            "str-slot",
        ],
    )
    def test_construction_rejects_what_classify_cannot_read(self, gens, infs, named):
        # each of these used to build, and then classified as locally
        # finite, reported a fountain at 0.5, became slot 0 or failed
        # later inside a sort
        with pytest.raises(TypeError) as info:
            ArcConfiguration(gens, infs)
        assert str(info.value) == f"ArcConfiguration takes {named}"


class _Unreadable:
    """A generators field that raises when read again."""

    def __iter__(self):
        raise AssertionError("generators iterated after construction")


class TestSinglePath:
    """Every question reads the normal form made at construction, never
    the generators as written."""

    @pytest.mark.parametrize(
        "gens,infs",
        [
            (
                [Explicit({FiniteArc(0, 2)}), Fan(0), SplitFan(0, 0), Explicit({FiniteArc(0, 3)})],
                [0],
            ),
            ([Zigzag(0), Explicit({FiniteArc(-1, 1)}), Zigzag(0)], []),
            ([Explicit({FiniteArc(0, 3)}), Explicit({FiniteArc(1, 4)})], []),
            ([Explicit({FiniteArc(0, 3)})], []),
            ([SplitFan(0, 3), Fan(1)], [2]),
        ],
    )
    def test_questions_never_read_generators(self, gens, infs):
        c = ArcConfiguration(gens, infs)
        lf = classify(c).verdict is Verdict.WCT_LOCALLY_FINITE

        def answers():
            return (
                classify(c, (-6, 6)),
                materialize(c, (-6, 6)),
                noncrossing_check(c),
                lf and strong_overarc(c, FiniteArc(-1, 1)),
            )

        want = answers()
        object.__setattr__(c, "generators", _Unreadable())
        assert answers() == want


class TestMaterialize:
    def test_fan_window(self):
        got = materialize(cfg(Fan(0)), (-4, 4))
        assert set(got) == {
            FiniteArc(-4, 0),
            FiniteArc(-3, 0),
            FiniteArc(-2, 0),
            FiniteArc(0, 2),
            FiniteArc(0, 3),
            FiniteArc(0, 4),
        }

    def test_zigzag_window(self):
        got = materialize(cfg(Zigzag(0)), (-2, 2))
        assert set(got) == {FiniteArc(-1, 1), FiniteArc(-2, 1), FiniteArc(-2, 2)}

    def test_empty_explicit(self):
        assert materialize(cfg(Explicit(set())), (-8, 8)) == []

    def test_infinite_arc_included_when_base_in_window(self):
        got = materialize(cfg(Explicit(set()), inf=[0, 99]), (-4, 4))
        assert got == [InfiniteArc(0)]

    def test_deterministic_order(self):
        c = cfg(Zigzag(0), inf=[0])
        assert materialize(c, (-3, 3)) == materialize(c, (-3, 3))

    @pytest.mark.parametrize("gen", BIG_GENERATORS)
    def test_single_generator_internally_noncrossing(self, gen):
        arcs = materialize(cfg(gen), (-9, 9))
        for i, x in enumerate(arcs):
            for y in arcs[i + 1 :]:
                assert arcs_cross(x, y) is CrossResult.NO_CROSS, (gen, x, y)


def in_family(g, t):
    # membership read off the definitions in the module docstring
    a, b = t.a, t.b
    if isinstance(g, Zigzag):
        c0 = g.center
        return b > c0 and a + b in (2 * c0, 2 * c0 - 1)
    p, q = (g.vertex, g.vertex) if isinstance(g, Fan) else (g.p, g.q)
    return b == p or a == q or (a == p and b <= q)


def materialize_by_objects(c, window):
    """The construction materialize replaced: a set of FiniteArc objects,
    every window arc tested against the generators as written, sorted by
    arc_sort_key, then the arcs to infinity."""
    lo, hi = window
    arcs = set()
    for g in c.generators:
        if isinstance(g, Explicit):
            arcs |= {t for t in g.arcs if lo <= t.a and t.b <= hi}
        else:
            arcs |= {t for t in window_arcs(lo, hi) if in_family(g, t)}
    out = sorted(arcs, key=arc_sort_key)
    out.extend(InfiniteArc(m) for m in c.infinite_arcs if lo <= m <= hi)
    return out


families = st.one_of(
    st.builds(Fan, st.integers(-6, 6)),
    st.builds(Zigzag, st.integers(-6, 6)),
    st.builds(lambda p, d: SplitFan(p, p + d), st.integers(-6, 6), st.integers(0, 6)),
    st.builds(lambda p: SplitFan(p, p), st.integers(-6, 6)),
)


class TestMaterializeEndpoints:
    """materialize lists endpoint pairs and builds each arc once; the
    list and its order are those of the object construction."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(families, max_size=2),
        st.data(),
        st.lists(st.integers(-8, 8), max_size=3),
        st.integers(-10, 10),
        st.integers(0, 14),
    )
    def test_matches_the_object_construction(self, fams, data, inf, lo, width):
        arcs = data.draw(st.lists(finite_arcs, max_size=4))
        if fams:
            # explicit arcs that are also members of the first family
            members = [t for t in window_arcs(-8, 8) if in_family(fams[0], t)]
            arcs += data.draw(st.lists(st.sampled_from(members), max_size=4))
        c = cfg(*fams, Explicit(arcs), inf=inf)
        window = (lo, lo + width)
        assert materialize(c, window) == materialize_by_objects(c, window)

    @pytest.mark.parametrize(
        "g,window",
        [
            (SplitFan(2, 2), (-5, 9)),
            (SplitFan(2, 2), (3, 9)),  # leaves out the vertex
            (SplitFan(-1, 3), (0, 2)),  # leaves out both feet
            (SplitFan(-1, 3), (-1, 1)),  # one foot, narrower than the bridge
            (Fan(0), (0, 0)),
            (Fan(0), (-1, 1)),
            (Zigzag(4), (5, 12)),  # leaves out the centre
            (Zigzag(4), (4, 4)),
            (Zigzag(4), (3, 5)),
        ],
    )
    def test_pinned_windows(self, g, window):
        members = [t for t in window_arcs(-8, 12) if in_family(g, t)][::5]
        for c in (cfg(g), cfg(g, Explicit(members), inf=[window[0]])):
            assert materialize(c, window) == materialize_by_objects(c, window)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty window"):
            materialize(cfg(Fan(0)), (1, 0))


def listed_ends(c, window):
    # sorted(set(...)) of every source's listing: the explicit pairs in
    # the window and each family's _materialize_generator run
    lo, hi = window
    ends = {(t.a, t.b) for t in c._explicit if lo <= t.a and t.b <= hi}
    for g in c._families:
        ends.update(configurations._materialize_generator(g, window))
    return sorted(ends), [m for m in c.infinite_arcs if lo <= m <= hi]


class TestMemberEnds:
    """_member_ends sorts one list of the sources' runs and drops the
    pairs two sources share; it equals sorted(set(...)) of the listings."""

    @pytest.mark.parametrize(
        "c,window",
        [
            # two families that share the members ending at 0
            (cfg(Fan(0), SplitFan(0, 3)), (-6, 9)),
            (cfg(SplitFan(0, 3), Fan(0), inf=[0]), (-2, 5)),
            # explicit arcs equal to fan members
            (cfg(Fan(0), Explicit({FiniteArc(-3, 0), FiniteArc(0, 4)})), (-5, 5)),
            (cfg(Explicit({FiniteArc(0, 2), FiniteArc(-4, 0)}), Fan(0), inf=[0]), (-4, 2)),
            # explicit arcs across a window edge, beside the fan and alone
            (cfg(Fan(0), Explicit({FiniteArc(-7, 0), FiniteArc(0, 8), FiniteArc(-2, 0)})), (-5, 5)),
            (cfg(Explicit({FiniteArc(-7, -2), FiniteArc(-5, 1), FiniteArc(3, 9)})), (-5, 5)),
            # a lone zigzag lists descending runs
            (cfg(Zigzag(1)), (-8, 9)),
            (cfg(Zigzag(1), inf=[1]), (0, 3)),
            (cfg(SplitFan(-2, 3)), (-6, 7)),
        ],
    )
    def test_matches_sorted_set_of_the_listings(self, c, window):
        pairs, rays = configurations._member_ends(c, *window)
        assert (pairs, rays) == listed_ends(c, window)
        assert len(pairs) == len(set(pairs))

    def test_empty_window_raises(self):
        for c in (cfg(Fan(0), SplitFan(0, 3)), cfg(Zigzag(0)), cfg(Explicit(set()))):
            with pytest.raises(ValueError, match="empty window"):
                materialize(c, (1, 0))


class TestNoncrossing:
    def test_fan_with_matching_infinite_arc(self):
        assert noncrossing_check(cfg(Fan(0), inf=[0])) is None

    def test_splitfan_with_infinite_arc_between_feet(self):
        assert noncrossing_check(cfg(SplitFan(0, 3), inf=[0])) is None

    @pytest.mark.parametrize(
        "c,witness",
        [
            (cfg(Fan(0), inf=[1]), (FiniteArc(0, 2), InfiniteArc(1))),
            (cfg(Zigzag(0), inf=[0]), (FiniteArc(-1, 1), InfiniteArc(0))),
            (cfg(Zigzag(0), inf=[4]), (FiniteArc(-5, 5), InfiniteArc(4))),
            (cfg(Fan(0), Fan(2)), (FiniteArc(-2, 0), FiniteArc(-1, 2))),
            (cfg(Fan(0), Zigzag(0)), (FiniteArc(-2, 0), FiniteArc(-1, 1))),
            (cfg(Zigzag(0), Zigzag(5)), (FiniteArc(-1, 1), FiniteArc(0, 9))),
            # the least pair: (0, 2) x (1, 8) starts further right
            (cfg(Fan(0), Zigzag(5)), (FiniteArc(-2, 0), FiniteArc(-1, 10))),
            (cfg(Fan(0), Fan(5000)), (FiniteArc(-2, 0), FiniteArc(-1, 5000))),
            (
                cfg(Explicit({FiniteArc(0, 2), FiniteArc(1, 3)})),
                (FiniteArc(0, 2), FiniteArc(1, 3)),
            ),
            (
                cfg(Explicit({FiniteArc(-1, 1)}), Fan(0)),
                (FiniteArc(-1, 1), FiniteArc(0, 2)),
            ),
            (cfg(SplitFan(0, 3), inf=[5]), (FiniteArc(3, 6), InfiniteArc(5))),
            (
                cfg(Explicit({FiniteArc(0, 3)}), inf=[1]),
                (FiniteArc(0, 3), InfiniteArc(1)),
            ),
        ],
    )
    def test_crossing_witnesses(self, c, witness):
        got = noncrossing_check(c)
        assert got == witness
        assert arcs_cross(*got) is CrossResult.CROSS

    @pytest.mark.parametrize("v", range(-2, 3))
    def test_fan_answers_do_not_depend_on_the_spelling(self, v):
        # Fan(v) and SplitFan(v, v) are one family, written either way or
        # both ways in either order, so every answer is the same
        spellings = [[Fan(v)], [SplitFan(v, v)], [Fan(v), SplitFan(v, v)], [SplitFan(v, v), Fan(v)]]
        for t in window_arcs(v - 4, v + 4):
            for inf in ([], [v], [v + 1]):
                got = {
                    (noncrossing_check(c), classify(c, (v - 6, v + 6)))
                    for c in (cfg(*fams, Explicit({t}), inf=inf) for fams in spellings)
                }
                assert len(got) == 1, (t, inf, got)
        c = cfg(SplitFan(0, 0), Explicit({FiniteArc(-1, 1)}), inf=[0])
        assert noncrossing_check(c) == (FiniteArc(-1, 1), FiniteArc(0, 2))

    def test_infinite_arc_against_a_family(self):
        # decided by materialize and comparisons alone: no witness exactly
        # when no member near m has m strictly between its ends, else one
        # such member
        families = [
            *(Fan(v) for v in range(-3, 4)),
            *(Zigzag(c) for c in range(-3, 4)),
            *(SplitFan(p, p + d) for p in range(-3, 4) for d in range(5) if p + d <= 3),
        ]
        for g in families:
            for m in range(-8, 9):
                members = materialize(cfg(g), (m - 24, m + 24))
                over = [t for t in members if t.a < m < t.b]
                got = configurations._infinite_vs_generator(g, m)
                assert (got in over) if over else (got is None), (g, m, got)

    def test_witness_arcs_belong_to_configuration(self):
        c = cfg(Zigzag(0), Zigzag(5))
        x, y = noncrossing_check(c)
        window = materialize(c, (-20, 20))
        assert x in window and y in window


class TestFountainsAndLocalFiniteness:
    def test_fan_profile(self):
        assert fountain_profile(cfg(Fan(0))) == {0: FountainFlags(True, True)}

    def test_splitfan_profile(self):
        assert fountain_profile(cfg(SplitFan(0, 3))) == {
            0: FountainFlags(True, False),
            3: FountainFlags(False, True),
        }

    def test_degenerate_splitfan_profile_matches_fan(self):
        assert fountain_profile(cfg(SplitFan(2, 2))) == {2: FountainFlags(True, True)}

    def test_zigzag_and_explicit_have_no_fountains(self):
        assert fountain_profile(cfg(Zigzag(0))) == {}
        assert fountain_profile(cfg(Explicit({FiniteArc(0, 2)}))) == {}

    def test_local_finiteness(self):
        assert is_locally_finite(cfg(Zigzag(0)))
        assert is_locally_finite(cfg(Explicit({FiniteArc(0, 2)})))
        assert not is_locally_finite(cfg(Fan(0)))
        assert not is_locally_finite(cfg(SplitFan(0, 3)))


class TestMaximality:
    def test_big_families_certified(self):
        for gen in (Fan(0), Zigzag(0), SplitFan(0, 3)):
            assert maximality_check(cfg(gen), (-10, 10)) == CertifiedMaximal()
        # explicit arcs that are members of the family change nothing
        for c in (
            cfg(Zigzag(2), Explicit({FiniteArc(0, 4), FiniteArc(-1, 4)})),
            cfg(Fan(1), Explicit({FiniteArc(-3, 1), FiniteArc(1, 5)}), inf=[1]),
        ):
            assert maximality_check(c, (-4, 4)) == CertifiedMaximal()

    def test_explicit_always_extendable(self):
        got = maximality_check(cfg(Explicit({FiniteArc(0, 2)})), (-5, 5))
        assert got == AddableArc(FiniteArc(-5, -3))

    def test_empty_configuration_extendable(self):
        got = maximality_check(cfg(Explicit(set())), (-3, 3))
        assert got == AddableArc(FiniteArc(-3, -1))
        # a window too narrow for an arc: the arc from its left end
        got = maximality_check(cfg(Explicit(set())), (3, 4))
        assert got == AddableArc(FiniteArc(3, 5))

    def test_addable_arc_really_crosses_nothing(self):
        c = cfg(Explicit({FiniteArc(0, 2)}))
        got = maximality_check(c, (-5, 5))
        assert isinstance(got, AddableArc)
        for arc in materialize(c, (-5, 5)):
            assert arcs_cross(got.arc, arc) is CrossResult.NO_CROSS

    @pytest.mark.parametrize("gen", BIG_GENERATORS)
    def test_window_maximality_of_families(self, gen):
        # interior candidates must each cross a family arc unless they
        # already belong to the family
        for w in (6, 9):
            arcs = materialize(cfg(gen), (-w, w))
            have = set(arcs)
            for cand in window_arcs(-w + 2, w - 2):
                if cand in have:
                    continue
                assert any(
                    arcs_cross(cand, arc) is CrossResult.CROSS for arc in arcs
                ), (gen, w, cand)

    def test_removing_an_arc_reopens_the_window(self):
        base = materialize(cfg(Zigzag(0)), (-6, 6))
        for removed in base:
            rest = [a for a in base if a != removed]
            got = maximality_check(cfg(Explicit(rest)), (-6, 6))
            assert isinstance(got, AddableArc), removed
            # the removed arc itself is one of the addable candidates
            for arc in rest:
                assert arcs_cross(removed, arc) is CrossResult.NO_CROSS

    def test_mixed_configuration_certified_maximal(self):
        c = cfg(Zigzag(0), Explicit({FiniteArc(20, 22)}))
        assert maximality_check(c, (-4, 4)) == CertifiedMaximal()


class TestClosedFormMaximality:
    """A configuration with a family is certified maximal in closed form;
    the window re-check lives in the family-maximality acceptance suite."""

    CASES = [
        cfg(Fan(0), inf=[0]),
        cfg(Zigzag(0)),
        cfg(SplitFan(0, 3)),
        cfg(Zigzag(0), Explicit({FiniteArc(-1, 1)})),
    ]

    @pytest.mark.parametrize("c", CASES)
    def test_classify_never_scans_the_window_for_a_family(self, c, monkeypatch):
        want = classify(c, (-12, 12))

        def no_scan(*args):
            raise AssertionError(f"addable arc sought: {args}")

        monkeypatch.setattr(configurations, "_candidates", no_scan)
        assert classify(c, (-(10**6), 10**6)) == want

    @pytest.mark.parametrize(
        "gens", [[Fan(0), SplitFan(0, 0)], [SplitFan(0, 0), Fan(0)]]
    )
    def test_degenerate_splitfan_is_the_fan(self, gens, monkeypatch):
        # SplitFan(0, 0) spells Fan(0): one family, so no crossing pair
        # of two families is sought
        def no_search(g1, g2):
            raise AssertionError(f"pair search for {g1} and {g2}")

        monkeypatch.setattr(configurations, "_generator_pair_witness", no_search)
        r = classify(ArcConfiguration(gens, [0]))
        assert r.verdict is Verdict.CLUSTER_TILTING
        assert r.reason.facts[0] == "maximal_certified"

    def test_family_with_member_arcs_reports_certified(self):
        # a family plus some of its own arcs is just the family
        zig = classify(cfg(Zigzag(0), Explicit({FiniteArc(-1, 1)})), (-12, 12))
        assert render_classification(zig) == (
            "VERDICT WCT_LocallyFinite\n"
            "WITNESS reason certified\n"
            "WITNESS certified maximal_certified locally_finite no_infinite_arc\n"
        )
        assert zig == classify(cfg(Zigzag(0)), (-12, 12))
        fan = cfg(Fan(3), Explicit({FiniteArc(-1, 3), FiniteArc(3, 7)}), inf=[3])
        got = classify(fan, (-9, 15))
        assert got == classify(cfg(Fan(3), inf=[3]), (-9, 15))
        assert got.reason.facts[0] == "maximal_certified"


def canon(g):
    return Fan(g.p) if isinstance(g, SplitFan) and g.p == g.q else g


def distinct_family_pairs(params, gaps):
    fams = [Fan(v) for v in params] + [Zigzag(c) for c in params]
    fams += [SplitFan(p, p + d) for p in params for d in gaps]
    return [(g1, g2) for g1 in fams for g2 in fams if canon(g1) != canon(g2)]


class TestPairWitness:
    """Two distinct families report their crossing pair least by
    (t1.span, t1.a, t2.span, t2.a), with t1 from the first family."""

    def test_lexicographic_minimum_over_a_window(self):
        window = (-40, 40)
        mats = {}
        for g1, g2 in distinct_family_pairs(range(-3, 4), range(5)):
            for g in (g1, g2):
                if g not in mats:
                    arcs = materialize(cfg(g), window)
                    mats[g] = sorted(arcs, key=lambda t: (t.span, t.a))
            want = None
            for t1 in mats[g1]:
                partners = [
                    t2 for t2 in mats[g2] if arcs_cross(t1, t2) is CrossResult.CROSS
                ]
                if partners:
                    want = (t1, partners[0])
                    break
            assert noncrossing_check(cfg(g1, g2)) == want, (g1, g2)


CLOSED_FORM_FAMILIES = (
    [Fan(v) for v in range(-3, 4)]
    + [Zigzag(c) for c in range(-3, 4)]
    + [SplitFan(p, p + d) for p in range(-3, 4) for d in range(5)]
)


class TestClosedForms:
    """Family membership and the members of each span, in closed form,
    against the arcs materialize lists over a window that holds every
    member of the spans checked."""

    @pytest.mark.parametrize("g", CLOSED_FORM_FAMILIES, ids=repr)
    def test_match_materialize(self, g):
        lo, hi = window = (-14, 14)
        listed = set(materialize(cfg(g), window))
        members = {t for t in window_arcs(lo, hi) if configurations._is_member(g, t.a, t.b)}
        assert members == listed
        for k in range(2, 8):
            of_span = sorted((t for t in listed if t.span == k), key=lambda t: t.a)
            assert configurations._pairs_of_span(g, k) == tuple((t.a, t.b) for t in of_span), k


# The pairwise loops the crossing index replaced, kept verbatim as the
# reference for Explicit-only configurations: every explicit pair in
# sorted order, then each arc to infinity against the explicit arcs, and
# the window scan the endpoint search for an addable arc replaced, every
# window candidate against every explicit arc.
def pairwise_noncrossing(c):
    ex = sorted(c._explicit, key=arc_sort_key)
    for i, t1 in enumerate(ex):
        for t2 in ex[i + 1 :]:
            if arcs_cross(t1, t2) is _CROSS:
                return (t1, t2)
    for m in c.infinite_arcs:
        for t in ex:
            if t.a < m < t.b:
                return (t, InfiniteArc(m))
    return None


def scanned_maximality(c, window):
    explicit = c._explicit
    ex = sorted(explicit, key=arc_sort_key)
    for cand in window_arcs(*window):
        if cand in explicit:
            continue
        if all(arcs_cross(cand, t) is not _CROSS for t in ex):
            return AddableArc(cand)
    h = max((t.b for t in explicit), default=window[0])
    return AddableArc(FiniteArc(h, h + 2))


# Small coordinates, so that shared endpoints, equal left ends and
# nesting are common; a part of a family's arcs never crosses itself.
index_arcs = st.builds(
    lambda a, d: FiniteArc(a, a + d), st.integers(-6, 6), st.integers(2, 8)
)
family_parts = st.sampled_from(
    [
        materialize(cfg(g), (-7, 7))
        for g in (Fan(0), Zigzag(0), Zigzag(1), SplitFan(-1, 2))
    ]
).flatmap(lambda arcs: st.frozensets(st.sampled_from(arcs), max_size=12))
explicit_sets = st.one_of(st.frozensets(index_arcs, max_size=12), family_parts)


class TestCrossingIndex:
    """The crossing index of the explicit arcs and the addable-arc
    search against the loops they replaced, on Explicit-only
    configurations."""

    @settings(max_examples=400, deadline=None)
    @given(
        explicit_sets,
        st.lists(st.integers(-8, 8), max_size=1),
        st.integers(-10, 10),
        st.integers(-1, 16),
    )
    def test_checks_match_the_pairwise_loops(self, arcs, inf, lo, width):
        # widths from an empty window, which raises, and an empty
        # candidate set to past the arcs' span
        c = cfg(Explicit(arcs), inf=inf)
        window = (lo, lo + width)
        assert noncrossing_check(c) == pairwise_noncrossing(c)
        if width < 0:
            with pytest.raises(ValueError, match="empty window"):
                maximality_check(c, window)
        else:
            assert maximality_check(c, window) == scanned_maximality(c, window)

    @settings(max_examples=400, deadline=None)
    @given(
        explicit_sets, st.integers(-10, 10), st.integers(2, 12), st.integers(-10, 10)
    )
    def test_query_matches_any_crossing(self, arcs, a, d, m):
        c = cfg(Explicit(arcs))
        for t in [FiniteArc(a, a + d), *arcs]:
            want = any(arcs_cross(t, u) is CrossResult.CROSS for u in arcs)
            assert c._crosses(t.a, t.b) is want, t
        # an arc to infinity at m is the pair (m, inf)
        want = any(arcs_cross(InfiniteArc(m), u) is CrossResult.CROSS for u in arcs)
        assert c._crosses(m, float("inf")) is want

    @pytest.mark.parametrize(
        "ends,witness",
        [
            ([], None),
            ([(0, 2)], None),
            # equal left ends, a shared right end, nesting
            ([(0, 3), (0, 5), (1, 3)], None),
            # (1, 3) is flagged too, but (0, 4) comes first
            ([(0, 4), (2, 6), (1, 3)], ((0, 4), (2, 6))),
            # (-5, 5) crosses (3, 8), after the nested (0, 4)
            ([(-5, 5), (3, 8), (0, 4)], ((-5, 5), (3, 8))),
        ],
    )
    def test_pinned_witnesses(self, ends, witness):
        c = cfg(Explicit(FiniteArc(a, b) for a, b in ends))
        want = witness and tuple(FiniteArc(a, b) for a, b in witness)
        assert noncrossing_check(c) == want == pairwise_noncrossing(c)


class TestBoundedWork:
    """No witness depends on a window: the work is bounded by the size of
    the input, not by its coordinates."""

    def test_many_explicit_arcs_are_not_compared_pairwise(self):
        arcs = materialize(cfg(Zigzag(0)), (-10001, 10001))
        assert len(arcs) == 20001
        start = time.perf_counter()
        assert noncrossing_check(cfg(Explicit(arcs))) is None
        assert time.perf_counter() - start < 1.0

    def test_witness_among_many_explicit_arcs(self):
        arcs = materialize(cfg(Zigzag(0)), (-10001, 10001)) + [FiniteArc(10000, 10003)]
        assert noncrossing_check(cfg(Explicit(arcs))) == (
            FiniteArc(-10001, 10001),
            FiniteArc(10000, 10003),
        )

    def test_far_explicit_arc_against_a_zigzag(self):
        far = FiniteArc(10**6, 10**6 + 2)
        start = time.perf_counter()
        r = classify(cfg(Zigzag(0), Explicit([far])))
        assert time.perf_counter() - start < 0.5
        assert r.reason.crossing == (far, FiniteArc(-(10**6) - 1, 10**6 + 1))

    @pytest.mark.parametrize(
        "arcs,window,addable",
        [
            # twenty nested arcs from the window's left edge past its right
            (
                [FiniteArc(-(10**6) + 1 + k, 10**6 + 21 - k) for k in range(20)],
                (-(10**6), 10**6),
                FiniteArc(-999980, -999978),
            ),
            # (0, 2) encloses the left end 1 for every right end
            ([FiniteArc(0, 2)], (1, 10**6), FiniteArc(2, 4)),
        ],
    )
    def test_addable_arc_asks_the_index_linearly_often(
        self, monkeypatch, arcs, window, addable
    ):
        queries = []
        build = configurations._reach

        def counted(pairs):
            reach = build(pairs)

            def query(a, b):
                queries.append((a, b))
                return reach(a, b)

            return query

        monkeypatch.setattr(configurations, "_reach", counted)
        c = cfg(Explicit(arcs))
        assert maximality_check(c, window) == AddableArc(addable)
        # at most 3n + 1 left ends, each with at most 2 deg(a) + 2 steps
        # of at most three queries: a jump and both halves of a crossing
        assert len(queries) <= 24 * (len(arcs) + 1)

    def test_no_witness_materializes_a_window(self, monkeypatch):
        def no_window(g, window):
            raise AssertionError(f"window {window} materialized for {g}")

        monkeypatch.setattr(configurations, "_materialize_generator", no_window)
        gens = [Fan(0), Fan(9), Zigzag(0), Zigzag(-7), SplitFan(0, 3), SplitFan(-5, 6)]
        for g1 in gens:
            for g2 in gens:
                if g1 != g2:
                    assert noncrossing_check(cfg(g1, g2)) is not None
            for arc in (FiniteArc(-30, -27), FiniteArc(1, 4), FiniteArc(-2, 40)):
                if not configurations._is_member(g1, arc.a, arc.b):
                    assert noncrossing_check(cfg(g1, Explicit([arc]))) is not None
        z = cfg(Zigzag(3))
        assert strong_overarc(z, FiniteArc(2, 4)) == FiniteArc(1, 5)
        assert strong_overarc(z, -100) == FiniteArc(-101, 106)
        assert overarc_antichain(z, FiniteArc(2, 4), 2) == [
            FiniteArc(1, 5),
            FiniteArc(0, 6),
        ]

    def test_render_and_approximation_build_no_arc_per_member(self, monkeypatch):
        built = []
        init = FiniteArc.__init__

        def counted(self, a, b):
            built.append((a, b))
            init(self, a, b)

        c, window = cfg(Fan(0), inf=[0]), (-200, 200)
        objects = [arc_to_object(FiniteArc(5, 8)), PruferInd(-1), PruferInd(3)]
        monkeypatch.setattr(FiniteArc, "__init__", counted)
        assert diagram.render_svg(c, window).count("<path ") == 398
        assert diagram.render_svg(c, window, True).count("<path ") == 398
        assert built == []
        for d in objects:
            built.clear()
            r = approximation_report(c, d, window)
            # the reported members, the target and the arc of d
            assert len(built) <= len(r.handled) + len(r.exceptions) + 4, d

    def test_no_arc_sort_key_on_family_configurations(self, monkeypatch):
        def no_key(arc):
            raise AssertionError(f"arc_sort_key called on {arc}")

        monkeypatch.setattr(configurations, "arc_sort_key", no_key)
        for g in (Fan(0), Zigzag(1), SplitFan(-2, 3), SplitFan(2, 2)):
            c = cfg(g, inf=[0])
            assert len(materialize(c, (-9, 9))) > 10
            assert diagram.render_svg(c, (-9, 9), True).endswith("</svg>\n")


coords = st.integers(-6, 6)
finite_arcs = st.builds(lambda a, d: FiniteArc(a, a + d), coords, st.integers(2, 6))
generators = st.one_of(
    st.builds(Explicit, st.frozensets(finite_arcs, max_size=4)),
    st.builds(Fan, coords),
    st.builds(Zigzag, coords),
    st.builds(lambda p, d: SplitFan(p, p + d), coords, st.integers(0, 4)),
)
configs = st.builds(
    ArcConfiguration, st.lists(generators, max_size=3), st.lists(coords, max_size=2)
)


def translate_generator(g, t):
    if isinstance(g, Explicit):
        return Explicit(translate_arc(x, t) for x in g.arcs)
    if isinstance(g, Fan):
        return Fan(g.vertex + t)
    if isinstance(g, Zigzag):
        return Zigzag(g.center + t)
    return SplitFan(g.p + t, g.q + t)


def translate_reason(r, t):
    def at(v):
        return None if v is None else v + t

    return Reason(
        kind=r.kind,
        crossing=r.crossing and tuple(translate_arc(x, t) for x in r.crossing),
        addable=r.addable and translate_arc(r.addable, t),
        infinite_slots=tuple(m + t for m in r.infinite_slots),
        fountain_vertex=at(r.fountain_vertex),
        profile=tuple((v + t, fl) for v, fl in r.profile),
        facts=tuple(
            re.sub(r"(?<=_at_)-?\d+", lambda m: str(int(m.group()) + t), f)
            for f in r.facts
        ),
    )


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(configs, coords, st.integers(0, 12), st.integers(-50, 50))
    def test_classify_commutes_with_translation(self, c, lo, width, t):
        moved = ArcConfiguration(
            [translate_generator(g, t) for g in c.generators],
            [m + t for m in c.infinite_arcs],
        )
        want = classify(c, (lo, lo + width))
        got = classify(moved, (lo + t, lo + width + t))
        assert got.verdict is want.verdict
        assert got.reason == translate_reason(want.reason, t)

    @settings(max_examples=300, deadline=None)
    @given(configs, coords, st.integers(0, 12))
    def test_classify_reads_the_normalized_spelling(self, c, lo, width):
        # one Explicit set, then each family once in its first spelling
        arcs, families = set(), []
        for g in c.generators:
            if isinstance(g, Explicit):
                arcs |= g.arcs
            elif canon(g) not in map(canon, families):
                families.append(g)
        spelled = ArcConfiguration([Explicit(arcs), *families], c.infinite_arcs)
        window = (lo, lo + width)
        assert classify(spelled, window) == classify(c, window)

    @settings(max_examples=300)
    @given(configs)
    def test_dict_round_trip(self, c):
        doc = json.loads(json.dumps(configuration_to_dict(c)))
        assert configuration_from_dict(doc) == c


class TestClassify:
    def test_cluster_tilting_fixture(self):
        r = classify(cfg(Fan(0), inf=[0]), (-12, 12))
        assert r.verdict is Verdict.CLUSTER_TILTING
        assert r.reason.kind is ReasonKind.CERTIFIED
        assert r.reason.fountain_vertex == 0
        assert "satisfies_fountain_weak_verdict" in r.reason.facts

    def test_locally_finite_fixture(self):
        r = classify(cfg(Zigzag(0)), (-12, 12))
        assert r.verdict is Verdict.WCT_LOCALLY_FINITE
        assert r.reason.facts == (
            "maximal_certified",
            "locally_finite",
            "no_infinite_arc",
        )

    def test_fountain_without_infinite_arc(self):
        r = classify(cfg(Fan(0)), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.MISSING_INFINITE_ARC
        assert r.reason.fountain_vertex == 0

    def test_split_fountains_unfixable(self):
        r = classify(cfg(SplitFan(0, 3)), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.NOT_LOCALLY_FINITE_NO_INFINITE_ARC

    def test_crossing_beats_everything(self):
        r = classify(cfg(Fan(0), inf=[1]), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.CROSSING_PAIR
        assert r.reason.crossing == (FiniteArc(0, 2), InfiniteArc(1))

    def test_ray_between_split_feet_crosses_the_bridge(self):
        r = classify(cfg(SplitFan(0, 3), inf=[1]), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.CROSSING_PAIR
        assert r.reason.crossing == (FiniteArc(0, 2), InfiniteArc(1))

    def test_two_infinite_arcs(self):
        r = classify(cfg(Zigzag(0), inf=[3, 7]), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.MULTIPLE_INFINITE_ARCS
        assert r.reason.infinite_slots == (3, 7)

    def test_finite_explicit_not_maximal(self):
        r = classify(cfg(Explicit({FiniteArc(0, 2)})), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.ADDABLE_ARC
        assert r.reason.addable == FiniteArc(-12, -10)

    def test_fountain_infinite_arc_mismatch(self):
        r = classify(cfg(SplitFan(0, 3), inf=[0]), (-12, 12))
        assert r.verdict is Verdict.NOT_WCT
        assert r.reason.kind is ReasonKind.FOUNTAIN_MISMATCH
        assert r.reason.infinite_slots == (0,)
        assert dict(r.reason.profile) == {
            0: FountainFlags(True, False),
            3: FountainFlags(False, True),
        }

    def test_fan_plus_arc_coherent_across_vertices(self):
        for m in range(-5, 6):
            r = classify(cfg(Fan(m), inf=[m]), (-12, 12))
            assert r.verdict is Verdict.CLUSTER_TILTING, m

    def test_zigzag_coherent_across_centers(self):
        for c in range(-5, 6):
            r = classify(cfg(Zigzag(c)), (-12, 12))
            assert r.verdict is Verdict.WCT_LOCALLY_FINITE, c

    def test_vertex_without_incoming_arc_has_next_left_start(self):
        # in the zigzag family every vertex left of the center ends no
        # arc, yet the vertex one step further left always starts one
        arcs = materialize(cfg(Zigzag(0)), (-14, 14))
        ends = {arc.b for arc in arcs}
        starts = {arc.a for arc in arcs}
        for p in range(-6, 1):
            assert p not in ends
            assert p - 1 in starts


def constructed(func, *args):
    # The classes whose Python-level __new__ or __init__ runs during
    # func(*args), in call order; a tuple.__new__ runs in C and is absent.
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__new__", "__init__"):
            local = frame.f_locals
            built.append(local["cls"] if "cls" in local else type(local["self"]))

    sys.setprofile(profile)
    try:
        answer = func(*args)
    finally:
        sys.setprofile(None)
    return answer, built


class TestOneTupleAnswer:
    """classify and approximation_report build each answer record in
    place as one tuple: no constructor of theirs runs in Python."""

    @pytest.mark.parametrize(
        "c,kind",
        [
            (cfg(Fan(0), inf=[0]), ReasonKind.CERTIFIED),
            (cfg(Zigzag(0)), ReasonKind.CERTIFIED),
            (cfg(Explicit({FiniteArc(0, 3), FiniteArc(1, 4)})), ReasonKind.CROSSING_PAIR),
            (cfg(SplitFan(0, 3), inf=[0]), ReasonKind.FOUNTAIN_MISMATCH),
        ],
    )
    def test_classify_enters_no_constructor(self, c, kind):
        answer, built = constructed(classify, c, (-12, 12))
        assert answer.reason.kind is kind
        assert built == []

    def test_report_enters_no_constructor_of_its_own(self):
        # the arcs and objects of the report are built by their classes;
        # the report itself is not
        answer, built = constructed(
            approximation_report, cfg(Fan(0), inf=[0]), PruferInd(0), (-12, 12)
        )
        assert answer.kind is ApproximationKind.COSLICE_OBJECT
        assert FiniteArc in built and ApproximationReport not in built


SHAPE_FAMILIES = (
    [Fan(v) for v in range(-2, 3)]
    + [Zigzag(c) for c in range(-2, 3)]
    + [SplitFan(p, q) for p in range(-2, 3) for q in range(p, 3)]
)
SHAPE_ARCS = [
    FiniteArc(a, b)
    for a, b in ((-2, 0), (0, 2), (-1, 1), (-2, 1), (-3, 3), (1, 4), (-4, -1), (-2, 2))
]
SHAPE_WINDOW = (-12, 12)


def shape_grid():
    """Configurations near the two certified shapes: no family, one, or
    two of SHAPE_FAMILIES (Fan(m) + SplitFan(m, m) among the pairs);
    explicit sets of up to two SHAPE_ARCS, members and non-members
    alike, with at most one family; and no ray, a ray at either
    foot (a zigzag's centre), one off the feet, or two rays."""
    two = [[]] + [[t] for t in SHAPE_ARCS]
    two += [[s, t] for i, s in enumerate(SHAPE_ARCS) for t in SHAPE_ARCS[i + 1 :]]
    family_sets = [[]] + [[g] for g in SHAPE_FAMILIES]
    family_sets += [
        [g, h] for i, g in enumerate(SHAPE_FAMILIES) for h in SHAPE_FAMILIES[i + 1 :]
    ]
    grid = []
    for fams in family_sets:
        g = fams[0] if fams else Zigzag(0)
        if isinstance(g, (Fan, Zigzag)):
            p = q = g.vertex if isinstance(g, Fan) else g.center
        else:
            p, q = g.p, g.q
        rays = {(), (p,), (q,), (q + 1,), (p, q + 1)}
        for arcs in two if len(fams) < 2 else [[]]:
            for inf in sorted(rays):
                grid.append(cfg(*fams, *([Explicit(arcs)] if arcs else []), inf=inf))
    return grid


def characterized(c, window):
    """classify's (verdict, reason) restated from the public stages: with
    no arc to infinity, weakly cluster tilting iff maximal non-crossing
    and locally finite; with one at m, cluster tilting iff maximal
    non-crossing with a two-sided fountain at m."""
    infs = c.infinite_arcs
    if len(infs) >= 2:
        return Verdict.NOT_WCT, Reason(ReasonKind.MULTIPLE_INFINITE_ARCS, infinite_slots=infs)
    witness = noncrossing_check(c)
    if witness is not None:
        return Verdict.NOT_WCT, Reason(ReasonKind.CROSSING_PAIR, crossing=witness)
    mx = maximality_check(c, window)
    if isinstance(mx, AddableArc):
        return Verdict.NOT_WCT, Reason(ReasonKind.ADDABLE_ARC, addable=mx.arc)
    profile = fountain_profile(c)
    items = tuple(sorted(profile.items()))
    if not infs and is_locally_finite(c):
        facts = ("maximal_certified", "locally_finite", "no_infinite_arc")
        return Verdict.WCT_LOCALLY_FINITE, Reason(ReasonKind.CERTIFIED, facts=facts)
    if not infs:
        full = [v for v, fl in items if fl == (True, True)]
        if full:
            kind, vertex = ReasonKind.MISSING_INFINITE_ARC, full[0]
        else:
            kind, vertex = ReasonKind.NOT_LOCALLY_FINITE_NO_INFINITE_ARC, None
        return Verdict.NOT_WCT, Reason(kind, fountain_vertex=vertex, profile=items)
    m = infs[0]
    if profile.get(m) == (True, True):
        facts = (
            "maximal_certified",
            f"fountain_at_{m}",
            f"infinite_arc_at_{m}",
            "satisfies_fountain_weak_verdict",
        )
        return Verdict.CLUSTER_TILTING, Reason(
            ReasonKind.CERTIFIED, fountain_vertex=m, facts=facts
        )
    return Verdict.NOT_WCT, Reason(
        ReasonKind.FOUNTAIN_MISMATCH, fountain_vertex=m, profile=items, infinite_slots=infs
    )


class TestCertifiedShapes:
    """The positive verdicts and the witnesses' preconditions are read off
    the normal form; here they are confronted with the characterization,
    decided stage by stage."""

    def test_classify_and_witnesses_match_the_characterization(self):
        # classify gives the characterization's verdict and reason, and
        # each witness accepts exactly the verdict it needs, naming the
        # verdict when it refuses
        grid = shape_grid()
        assert len(grid) > 5000
        seen = {verdict: 0 for verdict in Verdict}
        for c in grid:
            verdict, reason = characterized(c, SHAPE_WINDOW)
            got = classify(c, SHAPE_WINDOW)
            assert (got.verdict, got.reason) == (verdict, reason), c
            seen[verdict] += 1
            zig = next((g for g in c.generators if isinstance(g, Zigzag)), Zigzag(0))
            seed = FiniteArc(zig.center - 1, zig.center + 1)
            for call, needs, args in (
                (approximation_report, Verdict.CLUSTER_TILTING, (c, PruferInd(0))),
                (strong_overarc, Verdict.WCT_LOCALLY_FINITE, (c, 0)),
                (overarc_antichain, Verdict.WCT_LOCALLY_FINITE, (c, seed, 1)),
            ):
                try:
                    call(*args)
                except ValueError as exc:
                    refused = str(exc)
                else:
                    refused = None
                if verdict is needs:
                    assert refused is None, (call, c)
                else:
                    assert refused.endswith(f"classification gave {verdict.value}"), (call, c)
        assert all(seen.values()), seen

    def test_distinct_families_cross(self):
        # the theorem the shape read rests on, by a plain scan of two
        # materializations; SplitFan(m, m) is Fan(m), the same family
        window = (-8, 8)
        for i, g in enumerate(SHAPE_FAMILIES):
            for h in SHAPE_FAMILIES[i + 1 :]:
                if canon(g) == canon(h):
                    assert noncrossing_check(cfg(g, h)) is None, (g, h)
                    continue
                mine, theirs = materialize(cfg(g), window), materialize(cfg(h), window)
                assert any(
                    arcs_cross(s, t) is CrossResult.CROSS for s in mine for t in theirs
                ), (g, h)
                assert noncrossing_check(cfg(g, h)) is not None, (g, h)


class TestFamilyTheorems:
    """The theorems that let noncrossing_check and maximality_check read
    the normal form with no precondition, decided by materialize and
    arcs_cross alone: a non-member crosses a member of its family, two
    distinct families cross, so a configuration with a family is maximal
    whatever else it holds."""

    WIDE = (-40, 40)

    def test_non_member_gets_a_crossing_member(self):
        for g in SHAPE_FAMILIES:
            members = set(materialize(cfg(g), self.WIDE))
            for t in window_arcs(-8, 8):
                if t not in members:
                    w = configurations._family_crossing_witness(g, t)
                    assert w in members, (g, t, w)
                    assert arcs_cross(t, w) is CrossResult.CROSS, (g, t, w)

    def test_distinct_families_give_a_crossing_pair(self):
        mats = {g: set(materialize(cfg(g), self.WIDE)) for g in SHAPE_FAMILIES}
        for g1 in SHAPE_FAMILIES:
            for g2 in SHAPE_FAMILIES:
                if canon(g1) == canon(g2):
                    continue
                t1, t2 = configurations._generator_pair_witness(g1, g2)
                assert t1 in mats[g1] and t1 not in mats[g2], (g1, g2, t1)
                assert t2 in mats[g2], (g1, g2, t2)
                assert arcs_cross(t1, t2) is CrossResult.CROSS, (g1, g2)

    def test_mixed_configurations_are_certified_maximal(self):
        # two distinct families, or a family and a non-member explicit
        # arc, with and without a ray: every non-member candidate of the
        # window crosses a finite arc of the configuration, found in a
        # wider window, as family-maximality scans; a zigzag off the
        # centre needs the margin
        window = (-9, 9)
        fams = SHAPE_FAMILIES
        mixed = [(g, h) for i, g in enumerate(fams) for h in fams[i + 1 :] if canon(g) != canon(h)]
        for g in fams:
            members = set(materialize(cfg(g), window))
            strays = [t for t in (FiniteArc(-1, 1), FiniteArc(3, 6)) if t not in members]
            mixed += [(g, Explicit({t})) for t in strays]
        for gens in mixed:
            for inf in ((), (0,)):
                assert maximality_check(cfg(*gens, inf=inf), window) == CertifiedMaximal(), gens
            arcs = materialize(cfg(*gens), (-24, 24))
            have = set(arcs)
            for cand in window_arcs(*window):
                if cand not in have:
                    assert any(
                        arcs_cross(cand, t) is CrossResult.CROSS for t in arcs
                    ), (gens, cand)


class TestWindowRule:
    """classify, maximality_check, materialize, render_svg and
    approximation_report share one window rule, checked before anything
    else: int ends, a bool not counting as one, and lo <= hi."""

    CALLS = [
        (classify, "classify"),
        (maximality_check, "maximality_check"),
        (materialize, "materialize"),
        (diagram.render_svg, "render_svg"),
        (lambda c, w: approximation_report(c, PruferInd(0), w), "approximation_report"),
    ]
    CONFIGS = [cfg(Explicit([FiniteArc(0, 2)])), cfg(Fan(0)), cfg(Fan(0), inf=[0])]

    @pytest.mark.parametrize("window", [(3, -3), (1, 0)])
    def test_empty_window_raises(self, window):
        for call, _ in self.CALLS:
            for c in self.CONFIGS:
                with pytest.raises(ValueError) as info:
                    call(c, window)
                assert str(info.value) == f"empty window {window}", (call, c)

    @pytest.mark.parametrize(
        "window,end,kind",
        [
            (("a", 3), 0, "str"),
            ((0, 2.5), 1, "float"),
            ((True, 3), 0, "bool"),
            ((0, False), 1, "bool"),
        ],
    )
    def test_end_that_is_no_int_raises(self, window, end, kind):
        for call, name in self.CALLS:
            for c in self.CONFIGS:
                with pytest.raises(TypeError) as info:
                    call(c, window)
                want = f"{name} takes int window ends, window[{end}] is {kind}"
                assert str(info.value) == want, (call, c)


class TestRenderClassification:
    def test_cluster_tilting_text(self):
        text = render_classification(classify(cfg(Fan(0), inf=[0]), (-12, 12)))
        assert text == (
            "VERDICT ClusterTilting\n"
            "WITNESS reason certified\n"
            "WITNESS fountain_vertex 0\n"
            "WITNESS certified maximal_certified fountain_at_0 "
            "infinite_arc_at_0 satisfies_fountain_weak_verdict\n"
        )

    def test_crossing_text(self):
        text = render_classification(
            classify(cfg(Explicit({FiniteArc(0, 2), FiniteArc(1, 3)})), (-12, 12))
        )
        assert text == (
            "VERDICT NotWCT\n"
            "WITNESS reason crossing_pair\n"
            "WITNESS crossing 0,2 x 1,3\n"
        )


# Near misses of the locally finite shape, one Zigzag with member arcs
# and no arc to infinity, with the verdict the refusal names: a fan with
# its ray, a zigzag with a ray or a non-member, a split fan with a ray at
# its left foot, a fan with a ray off its foot, two fans, explicit only.
NOT_LOCALLY_FINITE = [
    ([Fan(0)], [0], "ClusterTilting"),
    ([Zigzag(0)], [0], "NotWCT"),
    ([Zigzag(0), Explicit({FiniteArc(0, 2)})], [], "NotWCT"),
    ([SplitFan(0, 2)], [0], "NotWCT"),
    ([Fan(0)], [1], "NotWCT"),
    ([Fan(0), Fan(3)], [0], "NotWCT"),
    ([Explicit({FiniteArc(-1, 1)})], [], "NotWCT"),
]
NEEDS_LOCALLY_FINITE = (
    "operation needs a locally finite maximal non-crossing configuration, classification gave "
)


class TestStrongOverarc:
    def test_frozen(self):
        z = cfg(Zigzag(0))
        assert strong_overarc(z, FiniteArc(-1, 1)) == FiniteArc(-2, 2)
        assert strong_overarc(z, 0) == FiniteArc(-1, 1)
        assert strong_overarc(z, FiniteArc(-2, 2)) == FiniteArc(-3, 3)

    def test_translated_center(self):
        assert strong_overarc(cfg(Zigzag(5)), 5) == FiniteArc(4, 6)

    def test_strictness(self):
        z = cfg(Zigzag(0))
        for target in materialize(z, (-6, 6)):
            over = strong_overarc(z, target)
            assert over.a < target.a and target.b < over.b

    def test_rejects_non_locally_finite(self):
        for gens, infs, verdict in NOT_LOCALLY_FINITE:
            with pytest.raises(ValueError) as info:
                strong_overarc(ArcConfiguration(gens, infs), 0)
            assert str(info.value) == f"{NEEDS_LOCALLY_FINITE}{verdict}", gens

    def test_rejects_foreign_target_arc(self):
        with pytest.raises(ValueError):
            strong_overarc(cfg(Zigzag(0)), FiniteArc(0, 2))

    def test_far_targets_have_no_search_bound(self):
        z = cfg(Zigzag(0))
        assert strong_overarc(z, 70000) == FiniteArc(-70001, 70001)
        assert strong_overarc(z, -70000) == FiniteArc(-70001, 70000)
        assert strong_overarc(z, FiniteArc(-70000, 70000)) == FiniteArc(-70001, 70001)
        assert strong_overarc(cfg(Zigzag(5)), 10**9) == FiniteArc(9 - 10**9, 10**9 + 1)

    @given(
        st.integers(-(10**9), 10**9),
        st.one_of(
            st.integers(-3, 3),
            st.integers(-(10**9), 10**9),
            st.tuples(st.integers(1, 10**9), st.booleans()),
        ),
    )
    def test_closed_form_at_any_coordinates(self, c, pick):
        # a point c + pick, or the member (c - n - odd, c + n)
        zig = Zigzag(c)
        if isinstance(pick, tuple):
            n, odd = pick
            target = FiniteArc(c - n - odd, c + n)
            p, q = target.a, target.b
        else:
            target = p = q = c + pick
        over = strong_overarc(cfg(zig), target)
        assert configurations._is_member(zig, over.a, over.b)
        assert over.a < p and q < over.b
        # the members form one nested chain, so no smaller member encloses
        # the target once the next smaller one does not
        if over.span > 2:
            ((a, b),) = configurations._pairs_of_span(zig, over.span - 1)
            assert not (a < p and q < b)

    @pytest.mark.parametrize("target", [2.5, True, "3", None])
    def test_rejects_a_target_that_is_no_arc_or_int(self, target):
        with pytest.raises(TypeError, match="strong_overarc .* target is"):
            strong_overarc(cfg(Zigzag(0)), target)

    @pytest.mark.parametrize("c", range(-3, 4))
    def test_least_enclosing_member_of_a_window(self, c):
        # brute force: the least enclosing arc of a wide materialization
        z = cfg(Zigzag(c))
        members = materialize(z, (c - 30, c + 30))
        arcs = [(t, t.a, t.b) for t in members if c - 10 <= t.a and t.b <= c + 10]
        points = [(h, h, h) for h in range(c - 10, c + 11)]
        for target, p, q in arcs + points:
            want = min(
                (t for t in members if t.a < p and t.b > q),
                key=lambda t: (t.span, t.a),
            )
            assert strong_overarc(z, target) == want, target


class TestOverarcAntichain:
    def test_frozen(self):
        got = overarc_antichain(cfg(Zigzag(0)), FiniteArc(-1, 1), 3)
        assert got == [FiniteArc(-2, 2), FiniteArc(-3, 3), FiniteArc(-4, 4)]

    def test_empty_request(self):
        assert overarc_antichain(cfg(Zigzag(0)), FiniteArc(-1, 1), 0) == []

    def test_rejects_non_locally_finite(self):
        for gens, infs, verdict in NOT_LOCALLY_FINITE:
            with pytest.raises(ValueError) as info:
                overarc_antichain(ArcConfiguration(gens, infs), FiniteArc(-1, 1), 1)
            assert str(info.value) == f"{NEEDS_LOCALLY_FINITE}{verdict}", gens

    @pytest.mark.parametrize(
        "seed,count,name",
        [
            (3, 2, "seed is int"),
            (None, 2, "seed is NoneType"),
            (FiniteArc(-1, 1), 2.0, "count is float"),
            (FiniteArc(-1, 1), True, "count is bool"),
        ],
    )
    def test_rejects_argument_types_by_name(self, seed, count, name):
        with pytest.raises(TypeError, match=f"overarc_antichain .* {name}"):
            overarc_antichain(cfg(Zigzag(0)), seed, count)

    def test_long_chain_is_an_antichain_with_common_target(self):
        seed = FiniteArc(-1, 1)
        chain = overarc_antichain(cfg(Zigzag(0)), seed, 20)
        assert len(chain) == 20
        limit = PruferInd(-seed.a - 2)
        objs = [arc_to_object(arc) for arc in chain]
        for i, x in enumerate(objs):
            assert hom_dim(x, limit).value == 1
            for y in objs[i + 1 :]:
                assert hom_dim(x, y).value == 0
                assert hom_dim(y, x).value == 0


class TestSerialization:
    def test_round_trip_all_kinds(self):
        c = ArcConfiguration(
            [
                Explicit({FiniteArc(0, 2)}),
            ],
            [5],
        )
        assert configuration_from_dict(configuration_to_dict(c)) == c
        for gen in (Fan(-1), Zigzag(4), SplitFan(0, 3)):
            c = cfg(gen, inf=[0])
            assert configuration_from_dict(configuration_to_dict(c)) == c

    def test_dict_shape(self):
        c = cfg(Explicit({FiniteArc(0, 2)}), inf=[5])
        assert configuration_to_dict(c) == {
            "generators": [{"kind": "explicit", "arcs": [[0, 2]]}],
            "infinite_arcs": [5],
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            configuration_from_dict(
                {"generators": [{"kind": "spiral", "vertex": 0}], "infinite_arcs": []}
            )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "generators": [{"kind": "zigzag", "center": 0}],
                    "infinite_arcs": [],
                }
            )
        )
        c = load_configuration(str(path))
        assert c == cfg(Zigzag(0))
