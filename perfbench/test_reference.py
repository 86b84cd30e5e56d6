"""The reference answers, pinned to hand-worked examples of the paper and
the README, and to properties of the model; never to infgon's output.

    python3 -m pytest perfbench/test_reference.py
"""
import reference as ref


def fan(v):
    return {"kind": "fan", "vertex": v}


def zigzag(c):
    return {"kind": "zigzag", "center": c}


def splitfan(p, q):
    return {"kind": "splitfan", "p": p, "q": q}


def explicit(*arcs):
    return {"kind": "explicit", "arcs": [list(a) for a in arcs]}


def doc(*gens, infs=()):
    return {"generators": list(gens), "infinite_arcs": list(infs)}


def finite_objects(lo, hi):
    return [ref.object_of((a, b)) for a in range(lo, hi - 1) for b in range(a + 2, hi + 1)]


def test_coordinates():
    assert ref.arc_of(("f", 0, 0)) == (-2, 0)
    assert ref.arc_of(("p", 0)) == (-2, None)
    assert ref.object_of((-2, 0)) == ("f", 0, 0)
    for obj in finite_objects(-6, 6) + [("p", n) for n in range(-4, 5)]:
        assert ref.object_of(ref.arc_of(obj)) == obj


def test_crossing():
    assert ref.cross((-2, 0), (-3, -1))
    assert ref.cross((0, 2), (1, 3))
    assert not ref.cross((0, 2), (2, 4))  # a shared endpoint never crosses
    assert not ref.cross((0, 5), (1, 3))  # nested
    assert ref.cross((0, 4), (2, None)) and not ref.cross((0, 4), (4, None))
    assert ref.cross((1, None), (2, None)) is None


def test_hom_with_limit_objects():
    assert ref.hom(("f", 0, 0), ("p", 0)) == 1
    assert ref.hom(("p", 0), ("f", 0, 0)) == 0
    # X_2 at shift 0 lies in the wedges at slots 0, 1 and 2 only
    assert [ref.hom(("f", 0, 2), ("p", n)) for n in range(-1, 4)] == [0, 1, 1, 1, 0]
    # the limit object at n maps to the wedge at n + 2
    assert ref.hom(("p", -2), ("f", 0, 0)) == 1
    assert ref.hom(("p", -1), ("f", 0, 0)) == 0
    assert ref.hom(("p", 3), ("p", 1)) == 1 and ref.hom(("p", 1), ("p", 3)) == 0


def test_ext_is_crossing():
    x = ("f", 0, 0)
    assert ref.ext(x, ref.object_of((-3, -1))) == 1
    for a in finite_objects(-5, 5):
        for b in finite_objects(-5, 5):
            assert ref.ext(a, b) == int(ref.cross(ref.arc_of(a), ref.arc_of(b)))


def test_hom_properties():
    objs = finite_objects(-5, 5)
    for a in objs:
        assert ref.hom(a, a) == 1
        for b in objs:
            # Serre duality with the double shift
            assert ref.hom(a, b) == ref.hom(b, ref.shift(a, 2))
            assert ref.hom(a, b) == ref.hom(ref.shift(a, 3), ref.shift(b, 3))


def test_families_are_maximal():
    # every arc of a small window outside a family crosses a member
    for fam in (fan(0), zigzag(0), splitfan(0, 3), splitfan(-2, 2)):
        d = doc(fam)
        members, _ = ref.materialize(d, (-14, 14))
        for a in range(-5, 4):
            for b in range(a + 2, 6):
                if not ref.member(d, (a, b)):
                    assert any(ref.cross((a, b), t) for t in members), (fam, a, b)


def test_members():
    assert ref.member(doc(zigzag(0)), (-1, 1)) and ref.member(doc(zigzag(0)), (-2, 1))
    assert not ref.member(doc(zigzag(0)), (-1, 2))
    assert ref.member(doc(splitfan(0, 3)), (0, 3)) and not ref.member(doc(splitfan(0, 3)), (0, 4))
    assert ref.member(doc(splitfan(0, 3)), (3, 7)) and ref.member(doc(splitfan(0, 3)), (-4, 0))
    assert ref.member(doc(splitfan(2, 2)), (2, 9))  # SplitFan(m, m) is Fan(m)


def test_verdicts():
    assert ref.verdict(doc(fan(0), infs=[0])) == ("ClusterTilting", "certified")
    assert ref.verdict(doc(zigzag(0))) == ("WCT_LocallyFinite", "certified")
    assert ref.verdict(doc(zigzag(0), explicit((-1, 1)))) == ("WCT_LocallyFinite", "certified")
    assert ref.verdict(doc(fan(0))) == ("NotWCT", "missing_infinite_arc")
    assert ref.verdict(doc(explicit((0, 2)))) == ("NotWCT", "addable_arc")
    assert ref.verdict(doc(splitfan(0, 3))) == ("NotWCT", "not_locally_finite_no_infinite_arc")
    assert ref.verdict(doc(splitfan(0, 3), infs=[0])) == ("NotWCT", "fountain_infinite_arc_mismatch")
    assert ref.verdict(doc(fan(0), infs=[1])) == ("NotWCT", "crossing_pair")
    assert ref.verdict(doc(fan(0), infs=[0, 5])) == ("NotWCT", "multiple_infinite_arcs")
    assert ref.verdict(doc(fan(0), fan(3))) == ("NotWCT", "crossing_pair")
    assert ref.verdict(doc(fan(0), zigzag(5))) == ("NotWCT", "crossing_pair")
    assert ref.verdict(doc(zigzag(0), infs=[20])) == ("NotWCT", "crossing_pair")
    assert ref.verdict(doc(explicit((0, 3), (1, 4)))) == ("NotWCT", "crossing_pair")
    assert ref.verdict(doc(fan(0), splitfan(0, 0), infs=[0])) == ("ClusterTilting", "certified")


def test_witnesses():
    z = doc(zigzag(0))
    assert ref.strong_overarc(z, (-1, 1)) == (-2, 2)
    assert ref.strong_overarc(z, 0) == (-1, 1)
    assert ref.strong_overarc(z, (-3, 2)) == (-4, 3)
    assert ref.antichain_ok(z, (-1, 1), [(-2, 2), (-3, 3)], 2)
    assert not ref.antichain_ok(z, (-1, 1), [(-3, 3), (-2, 2)], 2)
    assert ref.crossing_witness_ok(doc(fan(0), infs=[1]), (0, 2), (1, None))
    assert not ref.crossing_witness_ok(doc(fan(0), infs=[1]), (-1, 2), (1, None))
    assert ref.addable_ok(doc(explicit((0, 2))), (-12, -10), (-12, 12))
    assert not ref.addable_ok(doc(explicit((0, 3))), (1, 4), (-12, 12))


def test_svg_counts():
    d = doc(fan(0), infs=[0])
    finite, infinite = ref.materialize(d, (-3, 3))
    assert finite == [(-3, 0), (-2, 0), (0, 2), (0, 3)] and infinite == [0]
    svg = "<svg>\n" + '<path d=""/>\n' * 4 + '<line class="ray"/>\n</svg>\n'
    assert ref.svg_counts_ok(d, (-3, 3), svg)
    assert not ref.svg_counts_ok(d, (-4, 3), svg)
