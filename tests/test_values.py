"""The value classes: repr, equality, hashing, copying and validation.

Arcs, objects, generators, configurations, verdicts, towers and reports
are immutable values.  These tests pin what a caller can rely on, as the
frozen dataclasses that first implemented them behaved: the repr text,
equality only between instances of one type, a hash equal to that of the
tuple of fields (so set and dict orders, and with them every output,
stay the same), copying and pickling, read-only fields, keyword
construction, positional patterns and the validation messages.
"""

import copy
import importlib
import pickle
import pkgutil
from enum import Enum

import pytest

import infgon
from infgon.acceptance import SuiteResult
from infgon.approximations import (
    ApproximationKind,
    ApproximationReport,
    DirectSystemDescriptor,
    Move,
    PruferLimit,
    RidesSliceFrom,
    ZeroLimit,
    ZigzagsForever,
)
from infgon.arcs import FiniteArc, InfiniteArc
from infgon.configurations import (
    AddableArc,
    ArcConfiguration,
    CertifiedMaximal,
    Classification,
    Explicit,
    Fan,
    FountainFlags,
    Reason,
    ReasonKind,
    SplitFan,
    Verdict,
    Zigzag,
    maximality_check,
    noncrossing_check,
)
from infgon.graded import (
    FiniteCyclic,
    HomTower,
    PolyFree,
    PruferMod,
    TowerColimit,
    TowerDirection,
    TowerLimit,
)
from infgon.quiver import FiniteInd, PruferInd, _Enum, _Value

_REASON = Reason(
    ReasonKind.FOUNTAIN_MISMATCH,
    fountain_vertex=1,
    profile=((0, FountainFlags(True, False)),),
    infinite_slots=(1,),
)

# A configuration that splits its Explicit sets and repeats a family,
# SplitFan(0, 0) spelling Fan(0): its fields keep the generators as
# written, so the contract holds for them unchanged.
_NORMALIZED = (
    ArcConfiguration(
        [
            Explicit([FiniteArc(0, 2)]),
            Fan(0),
            SplitFan(0, 0),
            Explicit([FiniteArc(0, 3)]),
        ]
    ),
    "ArcConfiguration(generators=(Explicit(arcs=frozenset({FiniteArc(a=0, b=2)})), "
    "Fan(vertex=0), SplitFan(p=0, q=0), "
    "Explicit(arcs=frozenset({FiniteArc(a=0, b=3)}))), infinite_arcs=())",
)

# One instance of every value class, with its repr as the frozen
# dataclasses printed it.
VALUES = [
    (FiniteInd(-2, 3), "FiniteInd(shift=-2, index=3)"),
    (PruferInd(4), "PruferInd(slot=4)"),
    (FiniteArc(0, 3), "FiniteArc(a=0, b=3)"),
    (InfiniteArc(-1), "InfiniteArc(m=-1)"),
    (Explicit([FiniteArc(0, 2)]), "Explicit(arcs=frozenset({FiniteArc(a=0, b=2)}))"),
    (Fan(0), "Fan(vertex=0)"),
    (Zigzag(1), "Zigzag(center=1)"),
    (SplitFan(-1, 2), "SplitFan(p=-1, q=2)"),
    (
        ArcConfiguration([Fan(0)], [2, 0, 2]),
        "ArcConfiguration(generators=(Fan(vertex=0),), infinite_arcs=(0, 2))",
    ),
    _NORMALIZED,
    (CertifiedMaximal(), "CertifiedMaximal()"),
    (AddableArc(FiniteArc(0, 2)), "AddableArc(arc=FiniteArc(a=0, b=2))"),
    (
        Reason(ReasonKind.CROSSING_PAIR, crossing=(FiniteArc(0, 2), FiniteArc(1, 3))),
        "Reason(kind=<ReasonKind.CROSSING_PAIR: 'crossing_pair'>, "
        "crossing=(FiniteArc(a=0, b=2), FiniteArc(a=1, b=3)), addable=None, "
        "infinite_slots=(), fountain_vertex=None, profile=(), facts=())",
    ),
    (
        Classification(Verdict.NOT_WCT, _REASON),
        "Classification(verdict=<Verdict.NOT_WCT: 'NotWCT'>, "
        "reason=Reason(kind=<ReasonKind.FOUNTAIN_MISMATCH: "
        "'fountain_infinite_arc_mismatch'>, crossing=None, addable=None, "
        "infinite_slots=(1,), fountain_vertex=1, "
        "profile=((0, FountainFlags(left=True, right=False)),), facts=()))",
    ),
    (FiniteCyclic(1, 2), "FiniteCyclic(shift=1, length=2)"),
    (PolyFree(-1), "PolyFree(shift=-1)"),
    (PruferMod(3), "PruferMod(shift=3)"),
    (
        HomTower((1, 1, 0), (True, False), TowerDirection.DIRECT),
        "HomTower(dims=(1, 1, 0), transition_nonzero=(True, False), "
        "direction=<TowerDirection.DIRECT: 'direct'>)",
    ),
    (TowerColimit(1, 4), "TowerColimit(value=1, stable_from=4)"),
    (TowerLimit(0, 3), "TowerLimit(value=0, stable_from=3, lim1_vanishes=True)"),
    (
        ApproximationReport(
            ApproximationKind.COSLICE_OBJECT,
            FiniteInd(2, 2),
            0,
            -2,
            (-4, 4),
            (FiniteArc(-4, 0),),
            (),
        ),
        "ApproximationReport(kind=<ApproximationKind.COSLICE_OBJECT: "
        "'CosliceObject'>, target=FiniteInd(shift=2, index=2), "
        "fountain_vertex=0, limit_slot=-2, window=(-4, 4), "
        "handled=(FiniteArc(a=-4, b=0),), exceptions=())",
    ),
    (RidesSliceFrom(2), "RidesSliceFrom(slot=2)"),
    (ZigzagsForever(), "ZigzagsForever()"),
    (
        DirectSystemDescriptor(FiniteInd(0, 0), [Move.UP], RidesSliceFrom(1)),
        "DirectSystemDescriptor(start=FiniteInd(shift=0, index=0), "
        "moves=(<Move.UP: 'up'>,), tail=RidesSliceFrom(slot=1))",
    ),
    (PruferLimit(1), "PruferLimit(slot=1)"),
    (ZeroLimit(), "ZeroLimit()"),
    (
        SuiteResult("serre-duality", True, 3, "3 pairs", 0.5),
        "SuiteResult(name='serre-duality', passed=True, checked=3, "
        "detail='3 pairs', seconds=0.5)",
    ),
]

_IDS = [type(x).__name__ for x, _ in VALUES]
_IDS[VALUES.index(_NORMALIZED)] += "-normalized"


def fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def positional(x):
    # Binds every field through a positional class pattern.  The arity
    # guards stop before a pattern with more positions than fields.
    cls, n = type(x), len(type(x).__match_args__)
    match x:
        case cls() if n == 0:
            return ()
        case cls(a) if n == 1:
            return (a,)
        case cls(a, b) if n == 2:
            return (a, b)
        case cls(a, b, c) if n == 3:
            return (a, b, c)
        case cls(a, b, c, d, e) if n == 5:
            return (a, b, c, d, e)
        case cls(a, b, c, d, e, f, g) if n == 7:
            return (a, b, c, d, e, f, g)
    pytest.fail(f"no positional pattern for {n} fields")


class _Other:
    """A field value that equals nothing else."""


def with_field(x, name, value):
    # A copy of x with one field replaced, built past the constructor.
    y = object.__new__(type(x))
    for f in type(x).__match_args__:
        object.__setattr__(y, f, value if f == name else getattr(x, f))
    return y


@pytest.mark.parametrize("x,text", VALUES, ids=_IDS)
class TestValueClasses:
    def test_repr(self, x, text):
        assert repr(x) == text

    def test_hash_is_field_tuple_hash(self, x, text):
        assert hash(x) == hash(fields(x))

    def test_equal_only_to_own_type(self, x, text):
        assert x == type(x)(*fields(x)) and not x != type(x)(*fields(x))
        assert x != fields(x) and fields(x) != x
        assert not x == fields(x)
        assert x != object() and x != None  # noqa: E711

    def test_every_field_counts(self, x, text):
        for name in type(x).__match_args__:
            y = with_field(x, name, _Other())
            assert x != y and y != x and not x == y

    def test_copy_deepcopy_pickle(self, x, text):
        for y in (copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and repr(y) == text
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert type(y) is type(x) and y == x and repr(y) == text

    def test_fields_are_read_only(self, x, text):
        for name in type(x).__match_args__:
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == text

    def test_keyword_construction(self, x, text):
        names = type(x).__match_args__
        assert type(x)(**dict(zip(names, fields(x)))) == x

    def test_positional_match(self, x, text):
        assert positional(x) == fields(x)


class TestDistinctTypes:
    @pytest.mark.parametrize(
        "x,y",
        [
            (Fan(0), Zigzag(0)),
            (PolyFree(1), PruferMod(1)),
            (RidesSliceFrom(1), PruferLimit(1)),
            (CertifiedMaximal(), ZigzagsForever()),
            (ZigzagsForever(), ZeroLimit()),
            (PruferInd(0), InfiniteArc(0)),
            (FiniteInd(0, 2), FiniteArc(0, 2)),
            (FiniteInd(1, 2), FiniteCyclic(1, 2)),
            (TowerColimit(1, 4), TowerLimit(1, 4)),
        ],
    )
    def test_same_fields_other_type_differ(self, x, y):
        assert x != y and y != x and not x == y

    def test_defaults(self):
        assert Reason(ReasonKind.CERTIFIED) == Reason(
            ReasonKind.CERTIFIED, None, None, (), None, (), ()
        )
        assert TowerLimit(1, 2).lim1_vanishes is True
        assert TowerLimit(1, 2, lim1_vanishes=False).lim1_vanishes is False
        assert ArcConfiguration() == ArcConfiguration((), ())
        assert DirectSystemDescriptor(tail=ZigzagsForever()).moves == ()

    def test_normalizing_constructors(self):
        assert Explicit([FiniteArc(0, 2)] * 2).arcs == frozenset({FiniteArc(0, 2)})
        assert ArcConfiguration([Fan(0)], [3, 1, 3]).infinite_arcs == (1, 3)
        assert DirectSystemDescriptor(None, [], ZeroLimit()).moves == ()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_one_value_protocol():
    # Every value class compares and hashes through _Value itself, so the
    # contract above holds by one definition.
    for info in pkgutil.walk_packages(infgon.__path__, "infgon."):
        importlib.import_module(info.name)
    classes = list(_subclasses(_Value))
    assert {FiniteInd, PruferInd, FiniteArc, InfiniteArc, Reason} <= set(classes)
    overriding = [
        cls.__qualname__
        for cls in classes
        if cls.__eq__ is not _Value.__eq__ or cls.__hash__ is not _Value.__hash__
    ]
    assert overriding == []


def _package_enums():
    for info in pkgutil.walk_packages(infgon.__path__, "infgon."):
        importlib.import_module(info.name)
    found = [cls for cls in _subclasses(Enum) if cls.__module__.startswith("infgon.")]
    return sorted(found, key=lambda cls: cls.__qualname__)


ENUMS = [cls for cls in _package_enums() if cls is not _Enum]
MEMBERS = [m for cls in ENUMS for m in cls]


def test_every_enum_found():
    assert {cls.__name__ for cls in ENUMS} == {
        "Tristate", "CrossResult", "Verdict", "ReasonKind",
        "ApproximationKind", "Move", "TowerDirection",
    }


@pytest.mark.parametrize("cls", ENUMS, ids=lambda cls: cls.__name__)
def test_enum_value_resolves_from_private_base(cls):
    # .value is _Enum's C getter, not the Python enum.property of Enum
    owner = next(c for c in cls.__mro__ if "value" in vars(c))
    assert owner is _Enum and _Enum.__bases__ == (Enum,)
    assert type(vars(_Enum)["value"]) is property


@pytest.mark.parametrize("m", MEMBERS, ids=lambda m: f"{type(m).__name__}.{m.name}")
class TestEnumMembers:
    def test_value_and_lookup(self, m):
        cls = type(m)
        assert m.value == m._value_ and cls(m.value) is m
        assert cls[m.name] is m and getattr(cls, m.name) is m
        assert repr(m) == f"<{cls.__name__}.{m.name}: {m._value_!r}>"

    def test_copy_deepcopy_pickle_keep_identity(self, m):
        assert copy.copy(m) is m and copy.deepcopy(m) is m
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m

    def test_value_is_read_only(self, m):
        with pytest.raises(AttributeError):
            m.value = "other"
        with pytest.raises(AttributeError):
            del m.value
        assert m.value == m._value_


class TestDerivedCrossingIndex:
    """ArcConfiguration derives a crossing index over its explicit arcs
    at construction.  It is no field: copies and pickles build it again
    from the fields, and repr, equality and hash never read it."""

    @staticmethod
    def build(*ends, inf=()):
        return ArcConfiguration([Explicit(FiniteArc(a, b) for a, b in ends)], inf)

    @staticmethod
    def answers(c):
        return noncrossing_check(c), maximality_check(c, (-3, 9))

    @pytest.mark.parametrize(
        "ends,inf",
        [
            (((0, 3), (1, 4), (5, 7)), ()),
            (((0, 3), (0, 5), (5, 7)), (2,)),
            (((0, 2),), ()),
        ],
    )
    def test_copies_and_pickles_answer_alike(self, ends, inf):
        x = self.build(*ends, inf=inf)
        copies = [copy.copy(x), copy.deepcopy(x)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copies.append(pickle.loads(pickle.dumps(x, protocol)))
        for y in copies:
            assert y == x and self.answers(y) == self.answers(x)

    def test_index_is_no_field(self):
        x, y = self.build((0, 3), (1, 4)), self.build((0, 3), (1, 4))
        assert x._crosses is not y._crosses
        assert "_crosses" not in type(x).__match_args__
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert "_crosses" not in repr(x) and "lambda" not in repr(x)


@pytest.mark.parametrize(
    "make,args,message",
    [
        (FiniteInd, (0, -1), "index must be >= 0, got -1"),
        (FiniteArc, (0, 1), "finite arc needs b - a >= 2, got (0, 1)"),
        (FiniteArc, (3, 0), "finite arc needs b - a >= 2, got (3, 0)"),
        (SplitFan, (3, 1), "SplitFan needs p <= q, got (3, 1)"),
        (FiniteCyclic, (0, 0), "length must be >= 1, got 0"),
        (
            HomTower,
            ((1, 1), (), TowerDirection.DIRECT),
            "need exactly one transition flag per adjacent pair",
        ),
        (HomTower, ((1, 2), (False,), TowerDirection.DIRECT), "tower dimensions must be 0 or 1"),
        (
            HomTower,
            ((1, 1, 0), (True, True), TowerDirection.INVERSE),
            "transition 1 flagged nonzero between dimensions 1 and 0",
        ),
        (
            DirectSystemDescriptor,
            (FiniteInd(0, 0), [Move.UP]),
            "a direct system needs an eventual-behavior tag",
        ),
    ],
)
def test_validation_messages(make, args, message):
    with pytest.raises(ValueError) as info:
        make(*args)
    assert str(info.value) == message
