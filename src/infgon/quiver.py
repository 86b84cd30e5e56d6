"""Indecomposable objects and their hom/ext dimensions.

The model has two kinds of indecomposables: finite ones, laid out on a
doubly infinite translation quiver and addressed by a shift exponent and a
nonnegative index, and limit objects ("Prufer" objects), one per integer
slot, each arising as the colimit of the diagonal slice of finite objects
that starts at its slot on the base row.

Every hom space in sight is zero- or one-dimensional over the ground
field, so dimensions are reported as plain 0/1 integers together with a
witness explaining which membership rule fired.  All functions here are
pure and operate on exact integers (no overflow: Python ints).

Between finite objects everything rests on one integer kernel in arc
coordinates.  The finite object Sigma^r X_s is the arc (i, j) =
(-r - s - 2, -r), and Hom from the object with arc (i, j) to the object
with arc (m, n) is nonzero exactly when (m, n) lies in one of two
regions of the hom hammock:

* minus: m <= i - 2 and i <= n <= j - 2;
* plus: i <= m <= j - 2 and n >= j.

The regions are disjoint.  Ext(a, b) is Hom(a, Sigma b), so the kernel
reads b one shift up; the plus region also carries the sufficient
criterion of composite_nonzero.  The truncated towers in `graded` call
its row form _region_run, which tests/test_quiver.py::TestRegionRun
pins to _region.

hom_dim and ext_dim are one frame each, made by _hom_answer.  A
FiniteInd derives the ends of its arc once, when it is built, into the
slots _i and _j, and the answer reads them there (Sigma^t moves both
ends by -t).  The kernel _region is called once, or a wedge or slot
comparison decides for a limit object, and one flat HomDim is built in
place, unchecked; its HomWitness is built only when read.
arcs.ext_via_crossing answers the same way.  Record fields and every
Enum's .value are read by C getters.  _region reads a limit object as
the ray (m, _RAY_END) for callers that hold arcs and need no witness.
_arc and _finite_arc keep their own formula for the towers and
composite_nonzero, so the oracle suites that compare a tower with
hom_dim compare two routes that share no code.
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter, itemgetter
from typing import Optional, Union

from . import _EXPORTS

try:
    from _collections import _tuplegetter
except ImportError:  # as collections does without its C module
    _tuplegetter = lambda index, doc: property(itemgetter(index), doc=doc)  # noqa: E731

__all__ = list(_EXPORTS["quiver"])


def _repr(x: object, values: tuple) -> str:
    # Type(field=value, ...) over the fields named in x.__match_args__.
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(x.__match_args__, values))
    return f"{type(x).__qualname__}({fields})"


class _Record(tuple):
    """An immutable record backed by a tuple.

    Unlike a slot class it costs one tuple allocation to build.  A
    record equals only another record of the same type, never a plain
    tuple, and hashes like the tuple of its fields.  Subclasses name
    their fields in __match_args__ and take them in __new__.  Each field
    the class body does not define reads the item at its position
    through _tuplegetter, the read-only C field getter of namedtuple.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls.__match_args__):
            if name not in vars(cls):
                setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # tuple.__eq__ would answer for any other tuple, so refuse here
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return _repr(self, self)


# A value class sets its fields in __init__ through this one function:
# its own __setattr__ refuses every assignment.
_set = object.__setattr__


class _Value:
    """An immutable value with named fields, stored in slots.

    A subclass lists its fields in __slots__ and __match_args__, in
    order, and sets each once in a straight-line __init__ through _set;
    afterwards assignment and deletion raise AttributeError.  Repr,
    equality, hash, copy and pickle all go by the tuple of fields: the
    repr reads Type(field=value, ...), an instance equals only an
    instance of its own type with equal fields and hashes like its field
    tuple, so set and dict orders stay those of that tuple, and copies
    and pickles call the constructor on it.  No subclass overrides any
    of these.  A subclass may also list private slots in __slots__ but
    not in __match_args__: values its __init__ derives from the fields.
    They are not fields, so none of the above reads them, and the
    constructor derives them again on copy and unpickle.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # _values(x) is the tuple of the fields of x; with two or more
        # fields one attrgetter call reads it.
        names = cls.__match_args__
        if len(names) > 1:
            values = attrgetter(*names)
        elif names:
            one = attrgetter(names[0])
            values = lambda x: (one(x),)  # noqa: E731
        else:
            values = lambda x: ()  # noqa: E731
        cls._values = staticmethod(values)

    def __repr__(self) -> str:
        return _repr(self, self._values(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class FiniteInd(_Value):
    """A finite indecomposable: the index-th object on the base diagonal,
    shifted `shift` times.  The index must be nonnegative; shift is any
    integer.  The derived slots `_i` and `_j` hold the ends of its arc,
    (-shift - index - 2, -shift), which the hom kernel reads.  Raises
    TypeError on a field that is not an int (a bool is not one)."""

    __slots__ = ("shift", "index", "_i", "_j")
    __match_args__ = ("shift", "index")

    def __init__(self, shift: int, index: int) -> None:
        if not (type(shift) is int and type(index) is int):
            _check_ints("FiniteInd", shift=shift, index=index)
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        _set(self, "shift", shift)
        _set(self, "index", index)
        _set(self, "_i", -shift - index - 2)
        _set(self, "_j", -shift)


class PruferInd(_Value):
    """The limit object attached to integer slot `slot`.  Shifting by t
    moves the slot by t.  Raises TypeError when the slot is not an int."""

    __slots__ = __match_args__ = ("slot",)

    def __init__(self, slot: int) -> None:
        if type(slot) is not int:
            _check_ints("PruferInd", slot=slot)
        _set(self, "slot", slot)


IndObject = Union[FiniteInd, PruferInd]


class _Enum(Enum):
    """Every Enum of the package: .value reads _value_ in C, not in enum.property."""

    value = property(attrgetter("_value_"))


class HomWitness(_Record):
    """Reason a hom dimension came out the way it did.

    rule is one of "finite-finite", "finite-prufer", "prufer-finite",
    "prufer-prufer".  For the finite-finite rule, region is "minus",
    "plus" or None and params carries the solved region parameters
    (m, n).  For the wedge-based rules params carries (base, j, index)
    where j = base - shift must land in [0, index].  For two limit
    objects params carries their slots.
    """

    __slots__ = ()
    __match_args__ = ("rule", "region", "params")

    def __new__(cls, rule: str, region: Optional[str], params: tuple) -> HomWitness:
        return tuple.__new__(cls, (rule, region, params))


class HomDim(_Record):
    """A hom-space dimension (always 0 or 1) plus its witness.

    The record is flat, (value, rule, region, params), so an answer is
    one tuple; witness builds an equal HomWitness on every read.
    """

    __slots__ = ()
    __match_args__ = ("value", "witness")

    def __new__(cls, value: int, witness: HomWitness) -> HomDim:
        if value not in (0, 1):
            raise ValueError(f"hom dimension must be 0 or 1, got {value}")
        if type(witness) is not HomWitness:
            raise _not_a("a HomWitness witness", "witness", witness, "HomDim")
        return tuple.__new__(cls, (value, *witness))

    @property
    def witness(self) -> HomWitness:
        return _new(HomWitness, self[1:])

    def __getnewargs__(self) -> tuple:
        return (self[0], self.witness)

    def __hash__(self) -> int:
        return hash((self[0], self.witness))

    def __repr__(self) -> str:
        return _repr(self, (self[0], self.witness))


# Each answer path builds its record in place through this one
# constructor, as _new(cls, fields), past the public __new__: HomDim's
# values are 0 or 1 by construction, so its checks are skipped.
_new = tuple.__new__


class Tristate(_Enum):
    """Outcome of the composite-nonvanishing test.

    TRUE: the sufficient criterion certifies a nonzero composite.
    FALSE: the ambient hom space vanishes, so the composite is zero.
    INDETERMINATE: neither; the test does not decide.
    """

    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


def _not_a(kinds: str, name: str, x: object, who: str) -> TypeError:
    return TypeError(f"{who} takes {kinds}, {name} is {type(x).__name__}")


def _is_int(x: object) -> bool:
    # The package's one rule for an int argument: a bool is not one.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ints(who: str, **args: object) -> None:
    # Only once an inline `type(x) is int` test fails: passes the other
    # ints by _is_int and names the first argument that is none.
    for name, x in args.items():
        if not _is_int(x):
            raise _not_a(f"an int {name}", name, x, who)


def _not_finite(func: str, name: str, x: object) -> TypeError:
    return TypeError(
        f"{func} is defined for finite objects only, {name} is {type(x).__name__}"
    )


def shift_object(x: IndObject, t: int) -> IndObject:
    """Apply the suspension t times (t may be negative).  Raises
    TypeError when x is not a FiniteInd or PruferInd."""
    if isinstance(x, FiniteInd):
        return FiniteInd(x.shift + t, x.index)
    if isinstance(x, PruferInd):
        return PruferInd(x.slot + t)
    raise _not_a("FiniteInd or PruferInd objects", "x", x, "shift_object")


def wedge_contains(base: int, obj: FiniteInd) -> bool:
    """Membership in the wedge hanging off base slot `base`.

    The wedge collects the finite objects Sigma^(base-j) X_k with
    0 <= j <= k; solving for j gives the one-line test below.  It is the
    exact region of finite objects with a nonzero map to the limit
    object in slot `base`.  Raises TypeError when obj is not a FiniteInd.
    """
    if not isinstance(obj, FiniteInd):
        raise _not_finite("wedge_contains", "obj", obj)
    j = base - obj.shift
    return 0 <= j <= obj.index


def _arc(shift: int, index: int) -> tuple[int, int]:
    # Arc endpoints (i, j) of the finite object Sigma^shift X_index.
    return -shift - index - 2, -shift


_RAY_END = float("inf")  # the ray at m, the arc of PruferInd(-m - 2), is (m, _RAY_END)


def _region(i: int, j: int, m: int, n: int) -> Optional[str]:
    """The hom kernel: the region of the hom hammock of the object with
    arc (i, j) that holds the object with arc (m, n), or None when Hom
    between them vanishes.  A right end _RAY_END makes an arc a ray, and
    the same tests are the rules of hom_dim on limit objects.  Their
    upper bounds are strict: n <= j - 2 says the same on ints but holds
    for two rays, as inf - 2 is inf."""
    if m <= i - 2 and i <= n < j - 1:
        return "minus"
    if i <= m < j - 1 and n >= j:
        return "plus"
    return None


def _region_run(i: int, j: int, m: int, n: int, count: int) -> tuple[Optional[str], int, int]:
    """The kernel along a row, in closed form: the stages k in
    range(count) with _region(i, j, m, n + k) not None are lo..hi, all
    in region; lo > hi when there are none.  m fixes the region."""
    if m <= i - 2:
        return "minus", max(i - n, 0), min(j - 2 - n, count - 1)
    if i <= m <= j - 2:
        return "plus", max(j - n, 0), count - 1
    return None, 0, -1


def _finite_arc(func: str, name: str, x: object) -> tuple[int, int]:
    if not isinstance(x, FiniteInd):
        raise _not_finite(func, name, x)
    return _arc(x.shift, x.index)


def _hom_answer(func: str, t: int):
    # The function func(a, b): Hom(a, Sigma^t b), with the witness of the rule that decided it.
    def answer(a: IndObject, b: IndObject) -> HomDim:
        if isinstance(b, FiniteInd):
            if isinstance(a, FiniteInd):
                m = b._i - t
                n = b._j - t
                region = _region(a._i, a._j, m, n)
                return _new(HomDim, (0 if region is None else 1, "finite-finite", region, (m, n)))
            if isinstance(a, PruferInd):
                base = a.slot + 2
                j = base + b._j - t
                k = b.index
                return _new(HomDim, (1 if 0 <= j <= k else 0, "prufer-finite", None, (base, j, k)))
        elif isinstance(b, PruferInd):
            slot = b.slot + t
            if isinstance(a, FiniteInd):
                j = slot - a.shift
                k = a.index
                return _new(HomDim, (1 if 0 <= j <= k else 0, "finite-prufer", None, (slot, j, k)))
            if isinstance(a, PruferInd):
                m = a.slot
                return _new(HomDim, (1 if slot <= m else 0, "prufer-prufer", None, (m, slot)))
        name, x = ("b", b) if isinstance(a, (FiniteInd, PruferInd)) else ("a", a)
        raise _not_a("FiniteInd or PruferInd objects", name, x, func)

    answer.__name__ = answer.__qualname__ = func
    return answer


hom_dim = _hom_answer("hom_dim", 0)
hom_dim.__doc__ = """Dimension of Hom(a, b) with a witness for the rule that decided it.

    Four cases by the kinds of a and b:

    * finite, finite: the hom kernel on their arcs;
    * finite, limit at slot n: 1 iff a is in the wedge at base n;
    * limit at slot n, finite: 1 iff b is in the wedge at base n + 2;
    * limit m, limit n: 1 iff n <= m (note the asymmetry).

    Raises TypeError when an argument is not a FiniteInd or PruferInd.
    """
ext_dim = _hom_answer("ext_dim", 1)
ext_dim.__doc__ = """Dimension of Ext(a, b), computed as Hom(a, shift_object(b, 1))."""


def composite_nonzero(u: FiniteInd, v: FiniteInd, w: FiniteInd) -> Tristate:
    """Decide, when possible, whether nonzero maps u -> v -> w compose to
    a nonzero map.

    Requires Hom(u, v) and Hom(v, w) both nonzero (raises otherwise).
    Returns TRUE when v and w both lie in the plus region of the shifted
    u and w lies in the plus region of the shifted v; this criterion is
    sufficient for the composite of any two nonzero maps to be nonzero.
    Returns FALSE when Hom(u, w) = 0 (there is nowhere nonzero to land).
    Otherwise INDETERMINATE: this test is deliberately not a decision
    procedure.
    """
    ui, uj = _finite_arc("composite_nonzero", "u", u)
    vi, vj = _finite_arc("composite_nonzero", "v", v)
    wi, wj = _finite_arc("composite_nonzero", "w", w)
    uv = _region(ui, uj, vi, vj)
    if uv is None:
        raise ValueError("composite_nonzero requires Hom(u, v) nonzero")
    vw = _region(vi, vj, wi, wj)
    if vw is None:
        raise ValueError("composite_nonzero requires Hom(v, w) nonzero")
    uw = _region(ui, uj, wi, wj)
    if uv == "plus" and vw == "plus" and uw == "plus":
        return Tristate.TRUE
    if uw is None:
        return Tristate.FALSE
    return Tristate.INDETERMINATE
