"""Arc coordinates for the indecomposables and the crossing calculus.

Finite indecomposables correspond to arcs (a, b) between integers with
b - a >= 2; limit objects correspond to arcs (m, infinity) with one
integer end.  Two arcs cross when each has exactly one endpoint strictly
inside the other; crossing of two infinite arcs is left undefined
because the hom dimensions between the corresponding limit objects are
not symmetric, so no single yes/no answer would be faithful.

Ext nonvanishing between two objects is equivalent to their arcs
crossing, in both directions at once; ext_via_crossing computes that
dimension from coordinates alone and is used as an independent check on
the region-based path in :mod:`infgon.quiver`.
"""
from __future__ import annotations

from typing import Union

from .quiver import (
    FiniteInd,
    HomDim,
    IndObject,
    PruferInd,
    _Enum,
    _Value,
    _new,
    _set,
)

__all__ = [
    "FiniteArc",
    "InfiniteArc",
    "Arc",
    "CrossResult",
    "object_to_arc",
    "arc_to_object",
    "arcs_cross",
    "ext_via_crossing",
    "overarcs_crossing_infinite",
    "translate_arc",
    "arc_sort_key",
    "parse_arc",
    "format_arc",
]


class FiniteArc(_Value):
    """Arc between integers a < b with b - a >= 2."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if b - a < 2:
            raise ValueError(f"finite arc needs b - a >= 2, got ({a}, {b})")
        _set(self, "a", a)
        _set(self, "b", b)

    @property
    def span(self) -> int:
        return self.b - self.a


class InfiniteArc(_Value):
    """Arc from integer m to infinity."""

    __slots__ = __match_args__ = ("m",)

    def __init__(self, m: int) -> None:
        _set(self, "m", m)


Arc = Union[FiniteArc, InfiniteArc]


def _not_arc(func: str, **args: object) -> TypeError:
    # The error for the first argument that is not an arc.
    name, x = next(
        (k, v) for k, v in args.items() if not isinstance(v, (FiniteArc, InfiniteArc))
    )
    return TypeError(
        f"{func} takes FiniteArc or InfiniteArc arcs, {name} is {type(x).__name__}"
    )


class CrossResult(_Enum):
    CROSS = "Cross"
    NO_CROSS = "NoCross"
    UNDEFINED_INFINITE_INFINITE = "UndefinedInfiniteInfinite"


# The members as module globals: a read through the class costs a
# descriptor lookup on every call of the crossing calculus.
_CROSS = CrossResult.CROSS
_NO_CROSS = CrossResult.NO_CROSS
_UNDEFINED = CrossResult.UNDEFINED_INFINITE_INFINITE


def object_to_arc(x: IndObject) -> Arc:
    """Arc coordinates of an indecomposable.  Raises TypeError when x is
    not a FiniteInd or PruferInd."""
    if isinstance(x, FiniteInd):
        return FiniteArc(-x.shift - x.index - 2, -x.shift)
    try:
        return InfiniteArc(-x.slot - 2)
    except AttributeError:
        raise TypeError(
            f"object_to_arc takes FiniteInd or PruferInd objects, x is {type(x).__name__}"
        ) from None


def arc_to_object(arc: Arc) -> IndObject:
    """Inverse of object_to_arc; rejects invalid coordinates."""
    if isinstance(arc, FiniteArc):
        # FiniteArc already enforces b - a >= 2, so the index is >= 0.
        return FiniteInd(-arc.b, arc.b - arc.a - 2)
    try:
        return PruferInd(-arc.m - 2)
    except AttributeError:
        raise _not_arc("arc_to_object", arc=arc) from None


def translate_arc(arc: Arc, delta: int) -> Arc:
    """Translate every finite endpoint by delta.  Shifting an object by t
    translates its arc by -t."""
    if isinstance(arc, FiniteArc):
        return FiniteArc(arc.a + delta, arc.b + delta)
    try:
        return InfiniteArc(arc.m + delta)
    except AttributeError:
        raise _not_arc("translate_arc", arc=arc) from None


def arcs_cross(x: Arc, y: Arc) -> CrossResult:
    """Strict crossing test.

    Finite (i, j) and (r, s) cross iff i < r < j < s or r < i < s < j.
    Finite (i, j) and infinite (n, infinity) cross iff i < n < j.
    Shared endpoints never cross.  Two infinite arcs: undefined.
    Raises TypeError when an argument is not an arc.
    """
    try:
        if isinstance(y, InfiniteArc):
            if isinstance(x, InfiniteArc):
                return _UNDEFINED
            if x.a < y.m < x.b:
                return _CROSS
            return _NO_CROSS
        if isinstance(x, InfiniteArc):
            if y.a < x.m < y.b:
                return _CROSS
            return _NO_CROSS
        i, j, r, s = x.a, x.b, y.a, y.b
    except AttributeError:
        raise _not_arc("arcs_cross", x=x, y=y) from None
    if i < r < j < s or r < i < s < j:
        return _CROSS
    return _NO_CROSS


def ext_via_crossing(x: Arc, y: Arc) -> HomDim:
    """Ext dimension between the objects of two arcs, read off from the
    crossing test alone.

    Raises for two infinite arcs: the two ext directions between limit
    objects genuinely differ, so a symmetric crossing answer cannot
    represent them.
    """
    try:
        result = arcs_cross(x, y)
    except TypeError:
        if isinstance(x, (FiniteArc, InfiniteArc)) and isinstance(y, (FiniteArc, InfiniteArc)):
            raise
        raise _not_arc("ext_via_crossing", x=x, y=y) from None
    if result is _UNDEFINED:
        raise ValueError(
            "ext between two limit objects is not symmetric; "
            "use ext_dim on the objects in the direction you mean"
        )
    return _new(HomDim, (1 if result is _CROSS else 0, "arcs-cross", None, (x, y)))


def overarcs_crossing_infinite(m: int, window: tuple[int, int]) -> list[FiniteArc]:
    """All finite arcs with both endpoints in the window that cross
    (m, infinity), i.e. with a < m < b.  Sorted lexicographically."""
    lo, hi = window
    out = []
    for a in range(lo, m):
        for b in range(max(a + 2, m + 1), hi + 1):
            out.append(FiniteArc(a, b))
    return out


def arc_sort_key(arc: Arc) -> tuple[int, int, int]:
    """Finite arcs lexicographically, then infinite arcs by endpoint."""
    if isinstance(arc, FiniteArc):
        return (0, arc.a, arc.b)
    try:
        return (1, arc.m, 0)
    except AttributeError:
        raise _not_arc("arc_sort_key", arc=arc) from None


def parse_arc(text: str) -> Arc:
    """Parse the textual arc syntax: "a,b" for finite, "m,inf" for
    infinite.  Whitespace around tokens is allowed; integers may be
    negative."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad arc {text!r}: expected 'a,b' or 'm,inf'")
    left, right = parts[0].strip(), parts[1].strip()
    try:
        a = int(left)
    except ValueError:
        raise ValueError(f"bad arc {text!r}: {left!r} is not an integer") from None
    if right == "inf":
        return InfiniteArc(a)
    try:
        b = int(right)
    except ValueError:
        raise ValueError(
            f"bad arc {text!r}: {right!r} is not an integer or 'inf'"
        ) from None
    return FiniteArc(a, b)


def format_arc(arc: Arc) -> str:
    if isinstance(arc, FiniteArc):
        return f"{arc.a},{arc.b}"
    try:
        return f"{arc.m},inf"
    except AttributeError:
        raise _not_arc("format_arc", arc=arc) from None
