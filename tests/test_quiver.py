"""Closed-form region and hom formulas checked against brute-force enumeration.

The region membership tests and the wedge test are solve-for-parameters
inversions of parametrized object families.  The oracles here materialize
those families in the forward direction (iterate the parameters, emit the
objects) so the two directions validate each other.
"""

import copy
import inspect
import pickle
import sys
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infgon import (
    CrossResult,
    FiniteArc,
    FiniteInd,
    HomDim,
    HomWitness,
    InfiniteArc,
    PruferInd,
    Tristate,
    composite_nonzero,
    ext_dim,
    ext_via_crossing,
    hom_dim,
    object_to_arc,
    shift_object,
    arcs_cross,
    wedge_contains,
)
from infgon import arcs, quiver
from infgon.quiver import _RAY_END, _arc, _region, _region_run


def h_region_set(center, part, m_lo, m_hi, n_lo, n_hi):
    """Forward enumeration of one region of a hom-hammock.

    Iterates the (m, n) parameter box and emits the corresponding objects,
    so membership below is set lookup rather than inequality solving.
    """
    r, s = center.shift, center.index
    out = set()
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if part == "minus":
                if not (m <= -r - s - 3 and -r - s - 1 <= n <= -r - 1):
                    continue
            else:
                if not (-r - s - 1 <= m <= -r - 1 and n >= -r + 1):
                    continue
            out.add(FiniteInd(-n, n - m - 2))
    return out


def wedge_set(base, max_index):
    """Forward enumeration of a wedge: every object on the first
    max_index + 1 slices whose slice starts at the base slot."""
    return {
        FiniteInd(base - j, k)
        for k in range(max_index + 1)
        for j in range(k + 1)
    }


CENTERS = [FiniteInd(s, d) for s in range(-4, 5) for d in range(5)]
PROBES = [FiniteInd(s, d) for s in range(-8, 9) for d in range(9)]


class TestConstruction:
    def test_finite_index_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FiniteInd(0, -1)

    @pytest.mark.parametrize(
        "make,args,message",
        [
            (FiniteInd, (0, 1.5), "FiniteInd takes an int index, index is float"),
            (FiniteInd, ("0", 1), "FiniteInd takes an int shift, shift is str"),
            (FiniteInd, (True, 1), "FiniteInd takes an int shift, shift is bool"),
            (FiniteInd, (0, -1.0), "FiniteInd takes an int index, index is float"),
            (PruferInd, ("a",), "PruferInd takes an int slot, slot is str"),
            (PruferInd, (False,), "PruferInd takes an int slot, slot is bool"),
        ],
    )
    def test_fields_must_be_ints(self, make, args, message):
        # a bool is no int, as for the configuration layer
        with pytest.raises(TypeError) as info:
            make(*args)
        assert str(info.value) == message

    def test_hom_dim_value_must_be_zero_or_one(self):
        for value in (2, -1, None):
            with pytest.raises(ValueError):
                HomDim(value, None)
            with pytest.raises(ValueError):
                HomDim(value=value, witness=None)

    def test_objects_hash_and_compare_by_value(self):
        assert FiniteInd(1, 2) == FiniteInd(1, 2)
        assert len({PruferInd(3), PruferInd(3)}) == 1


_huge = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10**12) - 50, -(10**12) + 50),
    st.integers(10**12 - 50, 10**12 + 50),
)


class TestDerivedEnds:
    """FiniteInd derives the ends of its arc into the private slots _i
    and _j, which are not fields."""

    @given(_huge, st.one_of(st.integers(0, 50), st.integers(10**12 - 50, 10**12 + 50)))
    @settings(max_examples=300)
    def test_ends_match_object_to_arc(self, shift, index):
        x = FiniteInd(shift, index)
        arc = object_to_arc(x)
        assert (x._i, x._j) == (arc.a, arc.b)
        assert repr(x) == f"FiniteInd(shift={shift!r}, index={index!r})"
        assert FiniteInd.__match_args__ == ("shift", "index")
        assert x._values(x) == (shift, index)
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert y == x and (y._i, y._j) == (x._i, x._j)
        for name in ("_i", "_j"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x._i, x._j) == (arc.a, arc.b)


# repr strings as the frozen dataclasses printed them, one per rule
RECORD_REPRS = [
    (
        hom_dim(FiniteInd(0, 3), FiniteInd(3, 3)),
        "HomDim(value=1, witness=HomWitness(rule='finite-finite', region='minus', params=(-8, -3)))",
    ),
    (
        ext_dim(FiniteInd(0, 3), FiniteInd(-2, 1)),
        "HomDim(value=1, witness=HomWitness(rule='finite-finite', region='plus', params=(-2, 1)))",
    ),
    (
        hom_dim(FiniteInd(0, 3), FiniteInd(-2, 1)),
        "HomDim(value=0, witness=HomWitness(rule='finite-finite', region=None, params=(-1, 2)))",
    ),
    (
        hom_dim(FiniteInd(1, 2), PruferInd(2)),
        "HomDim(value=1, witness=HomWitness(rule='finite-prufer', region=None, params=(2, 1, 2)))",
    ),
    (
        hom_dim(PruferInd(1), FiniteInd(-2, 1)),
        "HomDim(value=0, witness=HomWitness(rule='prufer-finite', region=None, params=(3, 5, 1)))",
    ),
    (
        hom_dim(PruferInd(3), PruferInd(1)),
        "HomDim(value=1, witness=HomWitness(rule='prufer-prufer', region=None, params=(3, 1)))",
    ),
    (
        ext_via_crossing(FiniteArc(0, 3), InfiniteArc(1)),
        "HomDim(value=1, witness=HomWitness(rule='arcs-cross', region=None, "
        "params=(FiniteArc(a=0, b=3), InfiniteArc(m=1))))",
    ),
]


class TestRecords:
    """HomDim and HomWitness behave as the frozen dataclasses they replace."""

    @pytest.mark.parametrize("d,text", RECORD_REPRS)
    def test_repr(self, d, text):
        assert repr(d) == text

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_equal_only_to_own_type(self, d, _):
        w = d.witness
        assert d == HomDim(d.value, HomWitness(w.rule, w.region, w.params))
        assert d != (d.value, w) and (d.value, w) != d
        assert not d == (d.value, w) and not (d.value, w) == d
        assert w != (w.rule, w.region, w.params)
        assert d != HomDim(1 - d.value, w)

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_hash_is_field_tuple_hash(self, d, _):
        w = d.witness
        assert hash(d) == hash((d.value, w))
        assert hash(w) == hash((w.rule, w.region, w.params))

    @pytest.mark.parametrize("field", ["value", "witness"])
    def test_fields_are_read_only(self, field):
        d = hom_dim(FiniteInd(0, 0), FiniteInd(2, 0))
        with pytest.raises(AttributeError):
            setattr(d, field, 0)
        with pytest.raises(AttributeError):
            d.witness.rule = "other"

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_copy_deepcopy_pickle(self, d, _):
        assert copy.copy(d) == d
        assert copy.deepcopy(d) == d
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(d, protocol))
            assert back == d and type(back.witness) is HomWitness

    @pytest.mark.parametrize("witness", [None, ("finite-finite", None, (0, 2))])
    def test_witness_must_be_a_hom_witness(self, witness):
        with pytest.raises(TypeError, match=f"witness is {type(witness).__name__}"):
            HomDim(1, witness)

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_flat_fields_and_witness_read(self, d, _):
        # one flat tuple; each read of witness builds an equal record
        w = d.witness
        assert tuple(d) == (d.value, w.rule, w.region, w.params)
        assert d.witness == w and type(w) is HomWitness

    def test_keyword_construction_and_match(self):
        w = HomWitness(rule="prufer-prufer", region=None, params=(3, 1))
        assert HomDim(value=1, witness=w) == hom_dim(PruferInd(3), PruferInd(1))
        match hom_dim(PruferInd(3), PruferInd(1)):
            case HomDim(1, HomWitness(rule, None, params)):
                assert (rule, params) == ("prufer-prufer", (3, 1))
            case _:
                pytest.fail("positional pattern did not match")


class TestFastReads:
    """Record fields are namedtuple's C getters, and each answer runs in
    one frame of a function that keeps its public name, doc and
    signature."""

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_field_reads_equal_indices(self, d, _):
        w = d.witness
        assert d.value == d[0] and type(d.value) is int
        assert (w.rule, w.region, w.params) == (w[0], w[1], w[2]) == tuple(d[1:])

    @pytest.mark.parametrize("d,_", RECORD_REPRS)
    def test_match_destructuring(self, d, _):
        match d:
            case HomDim(value, HomWitness(rule, region, params)):
                assert (value, rule, region, params) == tuple(d)
            case _:
                pytest.fail("positional pattern did not match")
        match d.witness:
            case HomWitness(rule=rule, region=region, params=params):
                assert (rule, region, params) == tuple(d[1:])
            case _:
                pytest.fail("keyword pattern did not match")

    def test_fields_use_the_namedtuple_getter(self):
        getter = type(vars(namedtuple("Pair", "x y"))["x"])
        for cls, names in ((HomDim, ("value",)), (HomWitness, ("rule", "region", "params"))):
            for name in names:
                assert type(vars(cls)[name]) is getter, (cls, name)

    @pytest.mark.parametrize("func,name", [(hom_dim, "hom_dim"), (ext_dim, "ext_dim")])
    def test_public_name_doc_and_signature(self, func, name):
        assert func.__name__ == func.__qualname__ == name
        assert func.__module__ == "infgon.quiver" and getattr(quiver, name) is func
        assert list(inspect.signature(func).parameters) == ["a", "b"]

    def test_docstrings(self):
        assert hom_dim.__doc__.startswith(
            "Dimension of Hom(a, b) with a witness for the rule that decided it."
        )
        assert "limit m, limit n: 1 iff n <= m" in hom_dim.__doc__
        assert ext_dim.__doc__ == (
            "Dimension of Ext(a, b), computed as Hom(a, shift_object(b, 1))."
        )

    @pytest.mark.parametrize(
        "a,b,kernel",
        [
            (FiniteInd(0, 3), FiniteInd(3, 3), ["_region"]),
            (FiniteInd(1, 2), PruferInd(2), []),
            (PruferInd(1), FiniteInd(-2, 1), []),
            (PruferInd(3), PruferInd(1), []),
        ],
    )
    def test_one_frame_per_answer(self, a, b, kernel):
        # the function's own frame, then only the kernel's
        for func in (hom_dim, ext_dim):
            calls = []

            def profile(frame, event, arg):
                if event == "call":
                    calls.append(frame.f_code.co_name)

            sys.setprofile(profile)
            try:
                func(a, b).value
            finally:
                sys.setprofile(None)
            assert calls == [func.__code__.co_name, *kernel], func.__name__


class TestShift:
    def test_identity_shift(self):
        assert shift_object(FiniteInd(0, 2), 0) == FiniteInd(0, 2)

    def test_prufer_shift_moves_slot(self):
        assert shift_object(PruferInd(3), -3) == PruferInd(0)

    def test_finite_shift_adds(self):
        assert shift_object(FiniteInd(1, 0), 2) == FiniteInd(3, 0)

    @given(st.integers(-40, 40), st.integers(0, 30), st.integers(-10, 10), st.integers(-10, 10))
    def test_shift_composes(self, s, d, t, u):
        x = FiniteInd(s, d)
        assert shift_object(shift_object(x, t), u) == shift_object(x, t + u)

    @given(st.integers(-40, 40), st.integers(-10, 10))
    def test_prufer_shift_composes_with_inverse(self, slot, t):
        e = PruferInd(slot)
        assert shift_object(shift_object(e, t), -t) == e

    def test_non_objects_rejected_by_name(self):
        with pytest.raises(TypeError, match="shift_object .* x is FiniteArc"):
            shift_object(FiniteArc(0, 2), 1)
        with pytest.raises(TypeError, match="x is int"):
            shift_object(3, 1)


class TestHRegions:
    # obj lies in a region of center exactly when the kernel puts it there
    # for Hom(shift_object(center, -1), obj)
    @pytest.mark.parametrize("part", ["minus", "plus"])
    def test_membership_matches_enumeration(self, part):
        for center in CENTERS:
            oracle = h_region_set(center, part, -40, 40, -40, 40)
            down = shift_object(center, -1)
            for obj in PROBES:
                region = hom_dim(down, obj).witness.region
                assert (region == part) == (obj in oracle), (center, obj, part)

    def test_regions_are_disjoint(self):
        for center in CENTERS:
            minus = h_region_set(center, "minus", -40, 40, -40, 40)
            plus = h_region_set(center, "plus", -40, 40, -40, 40)
            assert not minus & plus, center

    def test_center_not_in_own_hammock(self):
        down = shift_object(FiniteInd(1, 0), -1)
        assert hom_dim(down, FiniteInd(0, 0)).witness.region == "plus"
        assert hom_dim(down, FiniteInd(2, 0)).witness.region == "minus"
        assert hom_dim(down, FiniteInd(1, 0)).witness.region is None


class TestWedge:
    def test_known_members(self):
        assert wedge_contains(0, FiniteInd(0, 0))
        assert not wedge_contains(0, FiniteInd(1, 0))
        assert wedge_contains(0, FiniteInd(-2, 5))

    def test_matches_enumeration(self):
        for base in range(-6, 7):
            oracle = wedge_set(base, 40)
            for obj in PROBES:
                assert wedge_contains(base, obj) == (obj in oracle), (base, obj)

    def test_non_finite_objects_rejected_by_name(self):
        with pytest.raises(TypeError, match="wedge_contains .* obj is PruferInd"):
            wedge_contains(0, PruferInd(0))
        with pytest.raises(TypeError, match="obj is FiniteArc"):
            wedge_contains(0, FiniteArc(0, 2))

    @given(st.integers(-30, 30), st.integers(0, 25), st.integers(0, 25))
    def test_slice_objects_are_members(self, base, i, j):
        # object j steps down slice i of the wedge at base
        if j > i:
            i, j = j, i
        assert wedge_contains(base, FiniteInd(base - j, i))


FROZEN_HOM = [
    (FiniteInd(0, 0), FiniteInd(0, 0), 1),
    (FiniteInd(0, 0), PruferInd(0), 1),
    (PruferInd(0), FiniteInd(0, 0), 0),
    (PruferInd(0), PruferInd(0), 1),
    (PruferInd(0), PruferInd(1), 0),
    (PruferInd(1), PruferInd(0), 1),
    (FiniteInd(0, 0), FiniteInd(2, 0), 1),
]

FROZEN_EXT = [
    (FiniteInd(0, 0), FiniteInd(0, 0), 0),
    (FiniteInd(0, 0), FiniteInd(1, 0), 1),
    (FiniteInd(0, 0), PruferInd(0), 0),
    (PruferInd(0), FiniteInd(0, 0), 0),
]


class TestHomDim:
    @pytest.mark.parametrize("src,dst,expected", FROZEN_HOM)
    def test_frozen_values(self, src, dst, expected):
        assert hom_dim(src, dst).value == expected

    @pytest.mark.parametrize("src,dst,expected", FROZEN_EXT)
    def test_frozen_ext_values(self, src, dst, expected):
        assert ext_dim(src, dst).value == expected

    def test_witness_region_reported(self):
        d = hom_dim(FiniteInd(0, 0), FiniteInd(2, 0))
        assert d.value == 1
        assert d.witness is not None
        assert d.witness.rule == "finite-finite"
        assert d.witness.region == "minus"

    def test_witness_records_clause_even_when_zero(self):
        d = hom_dim(PruferInd(0), FiniteInd(0, 0))
        assert d.value == 0
        assert d.witness is not None
        assert d.witness.rule == "prufer-finite"
        assert d.witness.region is None

    def test_finite_to_prufer_is_wedge_membership(self):
        for s in range(-6, 7):
            for d in range(7):
                x = FiniteInd(s, d)
                for slot in range(-6, 7):
                    assert hom_dim(x, PruferInd(slot)).value == int(
                        wedge_contains(slot, x)
                    )

    def test_prufer_to_finite_is_shifted_wedge_membership(self):
        for s in range(-6, 7):
            for d in range(7):
                x = FiniteInd(s, d)
                for slot in range(-6, 7):
                    assert hom_dim(PruferInd(slot), x).value == int(
                        wedge_contains(slot + 2, x)
                    )

    def test_non_objects_rejected_by_name(self):
        with pytest.raises(TypeError, match="hom_dim .* a is FiniteArc"):
            hom_dim(FiniteArc(0, 2), PruferInd(0))
        with pytest.raises(TypeError, match="ext_dim .* b is FiniteArc"):
            ext_dim(FiniteInd(0, 1), FiniteArc(0, 2))
        with pytest.raises(TypeError, match="b is int"):
            hom_dim(PruferInd(0), 3)

    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_prufer_pair_rule(self, a, b):
        assert hom_dim(PruferInd(a), PruferInd(b)).value == int(b <= a)


finite_objects = st.builds(FiniteInd, st.integers(-30, 30), st.integers(0, 20))
prufer_objects = st.builds(PruferInd, st.integers(-30, 30))
any_objects = st.one_of(finite_objects, prufer_objects)


class TestHomProperties:
    @given(any_objects, any_objects)
    def test_values_are_zero_or_one(self, a, b):
        assert hom_dim(a, b).value in (0, 1)

    @given(any_objects, any_objects, st.integers(-8, 8))
    def test_shift_equivariance(self, a, b, t):
        shifted = hom_dim(shift_object(a, t), shift_object(b, t))
        assert hom_dim(a, b).value == shifted.value

    @given(finite_objects, finite_objects)
    @settings(max_examples=300)
    def test_serre_pairing_finite(self, a, b):
        assert hom_dim(a, b).value == hom_dim(b, shift_object(a, 2)).value

    @given(finite_objects, prufer_objects)
    def test_serre_pairing_mixed(self, x, e):
        # the pairing extends to mixed pairs because both sides reduce to
        # the same wedge test
        assert hom_dim(x, e).value == hom_dim(e, shift_object(x, 2)).value
        assert hom_dim(e, x).value == hom_dim(x, shift_object(e, 2)).value

    def test_serre_pairing_fails_for_prufer_pairs(self):
        # both slots equal gives an endomorphism, but the double shift
        # moves the target strictly above the source
        e = PruferInd(0)
        assert hom_dim(e, e).value == 1
        assert hom_dim(e, shift_object(e, 2)).value == 0

    def test_limit_pairs_pinned_on_slots(self):
        # for two limit objects, Ext(P_m, P_n) = 1 exactly when n < m, and
        # Hom(P_m, P_n) = Hom(P_n, S^2 P_m) only at n = m + 1: 20 of 441
        slots = range(-10, 11)
        dual = []
        for m in slots:
            for n in slots:
                e, f = PruferInd(m), PruferInd(n)
                assert ext_dim(e, f).value == int(n < m), (m, n)
                if hom_dim(e, f).value == hom_dim(f, shift_object(e, 2)).value:
                    dual.append((m, n))
        assert dual == [(m, m + 1) for m in range(-10, 10)]

    @given(finite_objects, finite_objects)
    def test_ext_symmetry_between_finite_objects(self, a, b):
        # 2-periodic Serre duality makes first extensions symmetric
        assert ext_dim(a, b).value == ext_dim(b, a).value


def docstring_hom(a, b):
    """Hom(a, b) from the rules in the hom_dim docstring, built through
    the checking HomDim and HomWitness constructors."""
    if isinstance(a, FiniteInd) and isinstance(b, FiniteInd):
        i, j = -a.shift - a.index - 2, -a.shift
        m, n = -b.shift - b.index - 2, -b.shift
        if m <= i - 2 and i <= n <= j - 2:
            region = "minus"
        elif i <= m <= j - 2 and n >= j:
            region = "plus"
        else:
            region = None
        return HomDim(int(region is not None), HomWitness("finite-finite", region, (m, n)))
    if isinstance(a, FiniteInd):
        j = b.slot - a.shift
        return HomDim(
            int(0 <= j <= a.index), HomWitness("finite-prufer", None, (b.slot, j, a.index))
        )
    if isinstance(b, FiniteInd):
        base = a.slot + 2
        j = base - b.shift
        return HomDim(
            int(0 <= j <= b.index), HomWitness("prufer-finite", None, (base, j, b.index))
        )
    return HomDim(int(b.slot <= a.slot), HomWitness("prufer-prufer", None, (a.slot, b.slot)))


wide_finite = st.builds(FiniteInd, st.integers(-40, 40), st.integers(0, 60))
wide_prufer = st.builds(PruferInd, st.integers(-40, 40))
wide_arc = st.builds(
    lambda a, d: FiniteArc(a, a + d), st.integers(-40, 40), st.integers(2, 60)
)
wide_ray = st.builds(InfiniteArc, st.integers(-40, 40))


class TestFlatAnswerPath:
    # the answer path builds both records without their checks; these
    # rebuild every answer through the checking constructors

    @pytest.mark.parametrize(
        "left,right",
        [
            (wide_finite, wide_finite),
            (wide_finite, wide_prufer),
            (wide_prufer, wide_finite),
            (wide_prufer, wide_prufer),
        ],
        ids=["finite-finite", "finite-prufer", "prufer-finite", "prufer-prufer"],
    )
    @given(data=st.data())
    @settings(max_examples=300)
    def test_answers_match_docstring_rules(self, left, right, data):
        a, b = data.draw(left), data.draw(right)
        for got, want in (
            (hom_dim(a, b), docstring_hom(a, b)),
            (ext_dim(a, b), docstring_hom(a, shift_object(b, 1))),
        ):
            assert got == want
            assert repr(got) == repr(want)
            assert type(got) is HomDim and type(got.witness) is HomWitness

    @pytest.mark.parametrize(
        "left,right",
        [(wide_arc, wide_arc), (wide_arc, wide_ray), (wide_ray, wide_arc)],
        ids=["arc-arc", "arc-ray", "ray-arc"],
    )
    @given(data=st.data())
    @settings(max_examples=300)
    def test_ext_via_crossing_matches_crossing(self, left, right, data):
        x, y = data.draw(left), data.draw(right)
        cross = arcs_cross(x, y) is CrossResult.CROSS
        got = ext_via_crossing(x, y)
        want = HomDim(int(cross), HomWitness("arcs-cross", None, (x, y)))
        assert got == want
        assert repr(got) == repr(want)
        assert type(got) is HomDim and type(got.witness) is HomWitness


@pytest.fixture
def record_builds(monkeypatch):
    """The record type of every tuple built through _new in quiver or
    arcs, and of every record made by a public constructor."""
    builds, new = [], quiver._new

    def counting_new(cls, fields):
        builds.append(cls)
        return new(cls, fields)

    monkeypatch.setattr(quiver, "_new", counting_new)
    monkeypatch.setattr(arcs, "_new", counting_new)
    for cls in (HomDim, HomWitness):
        public_new = cls.__new__

        def counting_public_new(c, *args, make=public_new, **kwargs):
            builds.append(c)
            return make(c, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting_public_new))
    return builds


class TestOneRecordPerAnswer:
    """Each answer of hom_dim, ext_dim and ext_via_crossing is built as
    one HomDim, with no HomWitness, under every rule."""

    def test_every_rule(self, record_builds):
        objs = [FiniteInd(s, i) for s in range(-3, 4) for i in range(4)]
        objs += [PruferInd(n) for n in range(-3, 4)]
        rules = set()
        for a in objs:
            for b in objs:
                answers = [hom_dim(a, b), ext_dim(a, b)]
                x, y = arcs.object_to_arc(a), arcs.object_to_arc(b)
                if isinstance(x, FiniteArc) or isinstance(y, FiniteArc):
                    answers.append(ext_via_crossing(x, y))
                assert record_builds == [HomDim] * len(answers), (a, b)
                rules.update(d.witness.rule for d in answers)
                record_builds.clear()
        assert rules == {
            "finite-finite", "finite-prufer", "prufer-finite", "prufer-prufer", "arcs-cross"
        }


class TestEndpointRules:
    # _region decides Hom on arc ends, a ray at m written (m, _RAY_END);
    # pinned here against hom_dim on every pair of arcs and rays in +-9

    @staticmethod
    def _object(i, j):
        return PruferInd(-i - 2) if j == _RAY_END else FiniteInd(-j, j - i - 2)

    def _assert_rule(self, i, j, m, n):
        got = _region(i, j, m, n) is not None
        assert got == (hom_dim(self._object(i, j), self._object(m, n)).value == 1), (i, j, m, n)
        return got

    def test_every_pair_of_kinds_in_a_window(self):
        ends = [(a, b) for a in range(-9, 10) for b in range(a + 2, 10)]
        ends += [(m, _RAY_END) for m in range(-9, 10)]
        kinds = {}
        for i, j in ends:
            for m, n in ends:
                key = (j == _RAY_END, n == _RAY_END)
                kinds[key] = kinds.get(key, 0) + self._assert_rule(i, j, m, n)
        # all four pairs of kinds occur, each with nonzero homs
        assert len(kinds) == 4 and all(kinds.values())

    @given(
        st.sampled_from([-(10**18), 10**18]),
        st.integers(-4, 4),
        st.one_of(st.none(), st.integers(2, 8)),
        st.integers(-4, 4),
        st.one_of(st.none(), st.integers(2, 8)),
    )
    @example(10**18, 0, None, 0, None)
    @example(10**18, 0, None, 1, None)
    @example(-(10**18), 1, None, 0, None)
    @settings(max_examples=400)
    def test_far_ends(self, base, di, span, dm, other):
        # ends past 2**53, where a float would merge neighbouring ints;
        # a span None draws a ray, so rays meet at equal and adjacent slots
        i, m = base + di, base + dm
        j = _RAY_END if span is None else i + span
        n = _RAY_END if other is None else m + other
        self._assert_rule(i, j, m, n)


def _assert_run_of_row(i, j, m, n, row):
    # _region_run over len(row) stages against the kernel called stage by
    # stage: the nonzero stages are exactly lo..hi, all in its region
    region, lo, hi = _region_run(i, j, m, n, len(row))
    assert [k for k, r in enumerate(row) if r is not None] == list(range(lo, hi + 1))
    assert all(row[k] == region for k in range(lo, hi + 1))


_near = st.one_of(st.integers(-310, 310), st.integers(-(10**9), 10**9))


class TestRegionRun:
    # the towers call _region_run once per row where they used to call
    # _region once per stage; these pin the two against each other

    def test_every_row_in_a_window(self):
        span = range(-8, 9)
        runs = set()
        for i in span:
            for j in span:
                for m in span:
                    for n in span:
                        row = [_region(i, j, m, n + k) for k in range(12)]
                        for count in range(13):
                            _assert_run_of_row(i, j, m, n, row[:count])
                        runs.add(_region_run(i, j, m, n, 12)[0])
        assert runs == {"minus", "plus", None}

    @given(st.integers(-(10**9), 10**9), _near, _near, _near, _near, st.integers(0, 300))
    @settings(max_examples=300)
    def test_far_rows(self, base, di, dj, dm, dn, count):
        i, j, m, n = base + di, base + dj, base + dm, base + dn
        _assert_run_of_row(i, j, m, n, [_region(i, j, m, n + k) for k in range(count)])

    @given(st.integers(-(10**9), 10**9), st.one_of(st.integers(0, 50), st.integers(0, 10**9)))
    @settings(max_examples=300)
    def test_every_slice_step_is_plus(self, s, k):
        # the irreducible stage_k -> stage_{k+1} of the slice based at s:
        # the theorem behind every tower flag, which the towers no longer
        # re-check
        assert _region(*_arc(s - k, k), *_arc(s - k - 1, k + 1)) == "plus"


class TestCompositeNonzero:
    def test_slice_composite_is_true(self):
        u = FiniteInd(0, 0)
        v = FiniteInd(-1, 1)
        w = FiniteInd(-2, 2)
        assert composite_nonzero(u, v, w) is Tristate.TRUE

    def test_indeterminate_when_target_hom_nonzero_but_criterion_fails(self):
        u = FiniteInd(0, 0)
        v = FiniteInd(-1, 1)
        w = FiniteInd(2, 0)
        assert hom_dim(u, w).value == 1
        assert composite_nonzero(u, v, w) is Tristate.INDETERMINATE

    def test_false_when_target_hom_vanishes(self):
        found = None
        probes = [FiniteInd(s, d) for s in range(-5, 6) for d in range(5)]
        for u in probes:
            for v in probes:
                if hom_dim(u, v).value != 1:
                    continue
                for w in probes:
                    if hom_dim(v, w).value != 1:
                        continue
                    if hom_dim(u, w).value == 0:
                        found = (u, v, w)
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        assert composite_nonzero(*found) is Tristate.FALSE

    def test_requires_nonzero_first_hom(self):
        u = FiniteInd(0, 0)
        v = FiniteInd(1, 0)
        assert hom_dim(u, v).value == 0
        with pytest.raises(ValueError, match=r"requires Hom\(u, v\) nonzero"):
            composite_nonzero(u, v, FiniteInd(0, 0))

    def test_requires_nonzero_second_hom(self):
        u = FiniteInd(0, 0)
        v = FiniteInd(-1, 1)
        w = FiniteInd(0, 0)
        assert hom_dim(u, v).value == 1
        assert hom_dim(v, w).value == 0
        with pytest.raises(ValueError, match=r"requires Hom\(v, w\) nonzero"):
            composite_nonzero(u, v, w)

    def test_rejects_prufer_arguments(self):
        with pytest.raises(TypeError):
            composite_nonzero(FiniteInd(0, 0), PruferInd(0), FiniteInd(-1, 1))

    @pytest.mark.parametrize("k,name", [(0, "u"), (1, "v"), (2, "w")])
    def test_non_finite_argument_named(self, k, name):
        args = [FiniteInd(0, 0), FiniteInd(-1, 1), FiniteInd(-2, 2)]
        args[k] = PruferInd(0)
        with pytest.raises(
            TypeError,
            match=f"composite_nonzero is defined for finite objects only, {name} is PruferInd",
        ):
            composite_nonzero(*args)

    def test_slice_tower_monotonicity(self):
        # for a wedge member, once the hom dims along the slice tower hit 1
        # they stay 1 and every further transition composite is certified
        for s in range(-4, 3):
            for d in range(4):
                y = FiniteInd(s, d)
                for n in range(-4, 5):
                    if not wedge_contains(n, y):
                        continue
                    stages = [FiniteInd(n - i, i) for i in range(14)]
                    dims = [hom_dim(y, o).value for o in stages]
                    first = dims.index(1)
                    assert all(v == 1 for v in dims[first:])
                    for i in range(first, len(stages) - 1):
                        assert (
                            composite_nonzero(y, stages[i], stages[i + 1])
                            is Tristate.TRUE
                        )

    def test_plus_minus_plus_is_not_true(self):
        # regions u->v, v->w, u->w read plus, minus, plus: the criterion
        # needs v->w in plus too, and the graded reading calls these zero
        u, v, w = FiniteInd(-2, 3), FiniteInd(-4, 2), FiniteInd(-2, 2)
        ends = [_arc(x.shift, x.index) for x in (u, v, w)]
        assert [_region(*ends[p], *ends[q]) for p, q in ((0, 1), (1, 2), (0, 2))] == [
            "plus", "minus", "plus"
        ]
        assert composite_nonzero(u, v, w) is not Tristate.TRUE

    def test_never_true_through_minus(self):
        objs = [FiniteInd(s, i) for s in range(-4, 5) for i in range(6)]
        ends = {x: _arc(x.shift, x.index) for x in objs}
        through_minus = 0
        for u in objs:
            for v in objs:
                if _region(*ends[u], *ends[v]) is None:
                    continue
                for w in objs:
                    if _region(*ends[v], *ends[w]) == "minus":
                        through_minus += 1
                        assert composite_nonzero(u, v, w) is not Tristate.TRUE, (u, v, w)
        assert through_minus > 1000

    @given(finite_objects, finite_objects, finite_objects)
    @settings(max_examples=300)
    def test_true_implies_target_hom_nonzero(self, u, v, w):
        if hom_dim(u, v).value != 1 or hom_dim(v, w).value != 1:
            return
        verdict = composite_nonzero(u, v, w)
        if verdict is Tristate.TRUE:
            assert hom_dim(u, w).value == 1
        elif verdict is Tristate.FALSE:
            assert hom_dim(u, w).value == 0


# --- the kernel on all integers, by compression --------------------------------


def compress(x, y):
    """Map the endpoints of two finite arcs in order onto small integers:
    the least goes to 0 and every gap between neighbours is capped at 2.

    Every comparison the kernel and the crossing test make between two
    arcs, also after the shifts of the bridge and of Serre duality, reads
    u - v >= c for two endpoints with -1 <= c <= 2.  A gap of at least 2
    stays at least 2 and a gap of 1 or 0 is kept, so each such comparison
    keeps its answer, and the pair lands in [0, 6]."""
    ends = sorted({x.a, x.b, y.a, y.b})
    image = {ends[0]: 0}
    for lo, hi in zip(ends, ends[1:]):
        image[hi] = image[lo] + min(hi - lo, 2)
    return FiniteArc(image[x.a], image[x.b]), FiniteArc(image[y.a], image[y.b])


def kernel_answers(x, y):
    """arcs_cross(x, y), Hom(x, y), Ext(x, y) = Hom(x, Sigma y) and
    Hom(y, Sigma^2 x) on the hom kernel; Sigma moves an arc by -1."""
    i, j, m, n = x.a, x.b, y.a, y.b
    return (
        arcs_cross(x, y),
        _region(i, j, m, n),
        _region(i, j, m - 1, n - 1),
        _region(m, n, i - 2, j - 2),
    )


_far = st.integers(-(10**9), 10**9)
_span = st.one_of(st.integers(2, 5), st.integers(2, 10**9))
_offset = st.one_of(st.integers(-5, 5), st.integers(-(10**9), 10**9))


class TestCompression:
    @given(_far, _span, _offset, _span)
    @settings(max_examples=200)
    def test_compression_keeps_the_kernel(self, a, span, offset, other_span):
        x = FiniteArc(a, a + span)
        y = FiniteArc(a + offset, a + offset + other_span)
        cx, cy = compress(x, y)
        assert 0 <= min(cx.a, cy.a) and max(cx.b, cy.b) <= 6
        assert kernel_answers(cx, cy) == kernel_answers(x, y)

    def test_identities_on_every_compressed_pair(self):
        # with the property above, these 225 pairs give the crossing-ext
        # bridge and Serre duality for all integers
        arcs = [FiniteArc(a, b) for a in range(7) for b in range(a + 2, 7)]
        assert len(arcs) == 15
        for x in arcs:
            for y in arcs:
                cross, hom, ext, dual = kernel_answers(x, y)
                assert (cross is CrossResult.CROSS) is (ext is not None), (x, y)
                assert (hom is None) is (dual is None), (x, y)
