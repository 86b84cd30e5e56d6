"""Right-approximation case analysis and direct-system limits.

Against a cluster tilting configuration with fountain vertex f, every
indecomposable admits an almost-right-approximation of one of three
shapes: the zero map, a map from a single coslice member, or a map from
the limit object sitting in the configuration.  The split is decided by
where the arc of the object lies relative to the wedge over the
fountain.  `approximation_report` returns the shape plus a window
inventory: which configuration members with a nonzero map to the object
are covered by the chosen target.  The endpoint rules of the hom kernel
decide both maps on the arcs of the member, the object and the target,
without building an object per member, and once per run of members
between fixed cuts, so a report makes a fixed number of kernel calls at
any window width.

`classify_direct_system` computes the homotopy colimit of a one-way
infinite path in the repetition quiver described by a finite prefix of
moves and an eventual-behavior tag.  The tail decides: a path that
eventually rides a slice has the corresponding limit object as its
colimit, a path that zigzags forever has colimit zero.  The prefix
bounds the slot: it can go on to ride only a slice it can reach.
"""
from __future__ import annotations

from itertools import repeat
from typing import Optional, Union

from . import _EXPORTS
from .arcs import Arc, FiniteArc, InfiniteArc, arc_to_object, object_to_arc
from .configurations import (
    DEFAULT_WINDOW, ArcConfiguration, _CLUSTER_TILTING, _certified, _window_ends, classify
)
from .quiver import (
    FiniteInd, IndObject, PruferInd, _RAY_END, _Enum, _Record, _Value, _is_int, _new, _not_a,
    _region, _set,
)

__all__ = list(_EXPORTS["approximations"])


class ApproximationKind(_Enum):
    ZERO_SUFFICES = "ZeroSuffices"
    COSLICE_OBJECT = "CosliceObject"
    PRUFER_OBJECT = "PruferObject"


class ApproximationReport(_Record):
    __slots__ = ()
    __match_args__ = (
        "kind", "target", "fountain_vertex", "limit_slot", "window", "handled", "exceptions"
    )

    def __new__(
        cls,
        kind: ApproximationKind,
        target: Optional[IndObject],
        fountain_vertex: int,
        limit_slot: int,
        window: tuple[int, int],
        handled: tuple[Arc, ...],
        exceptions: tuple[Arc, ...],
    ) -> ApproximationReport:
        return _new(cls, (kind, target, fountain_vertex, limit_slot, window, handled, exceptions))


def approximation_report(
    c: ArcConfiguration, d: IndObject, window: tuple[int, int] = DEFAULT_WINDOW
) -> ApproximationReport:
    """Shape of an almost-right-approximation of d against c.

    Requires c to classify as cluster tilting, read off its normal form
    without running classify; f is its fountain vertex and n = -f-2 the
    slot of the limit object in c.  Writing the arc of a finite d as
    (a, b): if a >= -n-3 or b <= -n-3 the zero map suffices.  Otherwise
    d lies in the wedge over slot n+2 and a coslice member (-n-k, -n-2)
    with k large enough maps onto every wedge map.
    A limit object in slot n+t needs: the configuration's own limit
    object for t <= 0, nothing at all for t = 1, and a coslice member
    of span >= t for t >= 2.  Read as the ray (a, inf), a limit object
    falls in the same cases; the coslice member taken is (a, -n-2).

    The handled list contains the window members t with a nonzero map
    to d that factors through the target: t is the limit object or lies
    on the slice out of f when the target is the limit object, and Hom(t,
    target) is nonzero when it is a coslice member.  The rest land in
    exceptions (a finite leftover is the point of "almost").  The hom
    kernel quiver._region decides both homs on the arcs of t, d and the
    target, by the rules hom_dim reads off the objects.

    That read certifies c as the fan at f: one family Fan(f) or
    SplitFan(f, f), every explicit arc a member, one ray at f.  So the
    window members are the side (a, f) for lo <= a <= f-2, the side
    (f, b) for f+2 <= b <= hi, and the ray at f, or none when f lies
    outside the window.  Along a side one end v of the member moves and
    the other stays at f, and every rule compares v with an end x of d
    or of the target as v <= x or v >= x + 2, or not at all.  So both
    homs change value only where v passes a cut x + e, e in 1..2, and
    cutting at e in 0..3 keeps a margin.  One _region call per run
    between cuts, and one more to a coslice target when the run maps to
    d, puts the run's arcs whole into handled or exceptions; the ends of
    d and f make at most 12 cuts, so a report makes a fixed number of
    kernel calls at any window width.
    """
    lo, hi = _window_ends(window, "approximation_report")
    if _certified(c) is not _CLUSTER_TILTING:
        raise ValueError(
            f"approximation analysis needs a cluster tilting configuration,"
            f" classification gave {classify(c, window).verdict.value}"
        )
    f = c.infinite_arcs[0]
    n = -f - 2

    # Homs are decided on arc ends, the ray at m read as (m, _RAY_END).
    arc = object_to_arc(d)
    di, dj = (arc.m, _RAY_END) if isinstance(d, PruferInd) else (arc.a, arc.b)
    target: Optional[IndObject]
    if isinstance(d, PruferInd) and di >= f:
        kind, target = ApproximationKind.PRUFER_OBJECT, PruferInd(n)
    elif di >= f - 1 or dj <= f - 1:
        kind, target = ApproximationKind.ZERO_SUFFICES, None
    else:
        # the coslice member through the left end of d; for a limit
        # object at slot n + k its span is k, as its wedge test needs
        kind, target = ApproximationKind.COSLICE_OBJECT, arc_to_object(FiniteArc(di, f))

    # A member with a nonzero map to d is handled when the target is the
    # limit object and the member is that object or on the slice out of
    # f, or when the target is a coslice member it maps to.  Each run of
    # a side between cuts is decided at its first arc.
    coslice = kind is ApproximationKind.COSLICE_OBJECT
    prufer = kind is ApproximationKind.PRUFER_OBJECT
    handled: list[Arc] = []
    exceptions: list[Arc] = []
    if lo <= f <= hi:
        cuts = {x + e for x in (di, dj, f) for e in range(4)}
        for first, last, left in ((lo, f - 2, True), (f + 2, hi, False)):
            if first > last:
                continue
            bounds = sorted({first, last + 1, *(x for x in cuts if first < x <= last)})
            for s, e in zip(bounds, bounds[1:]):
                a, b = (s, f) if left else (f, s)
                if _region(a, b, di, dj) is not None:
                    covered = a == f if prufer else coslice and _region(a, b, di, f) is not None
                    ends = (range(s, e), repeat(f)) if left else (repeat(f), range(s, e))
                    (handled if covered else exceptions).extend(map(FiniteArc, *ends))
        if _region(f, _RAY_END, di, dj) is not None:
            (handled if prufer else exceptions).append(InfiniteArc(f))
    return _new(
        ApproximationReport, (kind, target, f, n, (lo, hi), tuple(handled), tuple(exceptions))
    )


# --- direct systems -------------------------------------------------------


class Move(_Enum):
    """One step in the repetition quiver, read left to right.

    UP goes from (s, d) to (s-1, d+1); DOWN goes to (s-1, d-1) and needs
    d >= 1 to stay inside.
    """

    UP = "up"
    DOWN = "down"


class RidesSliceFrom(_Value):
    __slots__ = __match_args__ = ("slot",)

    def __init__(self, slot: int) -> None:
        _set(self, "slot", slot)


class ZigzagsForever(_Value):
    __slots__ = ()


TailBehavior = Union[RidesSliceFrom, ZigzagsForever]


class DirectSystemDescriptor(_Value):
    __slots__ = __match_args__ = ("start", "moves", "tail")

    def __init__(self, start=None, moves=(), tail=None) -> None:
        if tail is None:
            raise ValueError("a direct system needs an eventual-behavior tag")
        _set(self, "start", start)
        _set(self, "moves", tuple(moves))
        _set(self, "tail", tail)


class PruferLimit(_Value):
    __slots__ = __match_args__ = ("slot",)

    def __init__(self, slot: int) -> None:
        _set(self, "slot", slot)


class ZeroLimit(_Value):
    __slots__ = ()


SystemLimit = Union[PruferLimit, ZeroLimit]


def classify_direct_system(path: DirectSystemDescriptor) -> SystemLimit:
    """Homotopy colimit of the described system.

    The finite prefix is validated (a DOWN move at index 0 leaves the
    quiver) and bounds the slot: UP keeps shift + index and DOWN lowers
    it by 2, so a prefix ending at sum e reaches only the slots e - 2k,
    k >= 0, and a RidesSliceFrom tag for any other raises ValueError;
    with no start any slot is reachable.  Past that, finite zigzagging
    washes out and the tail tag decides.
    Raises TypeError naming the field when start is not None or a
    FiniteInd, a move is not a Move, tail is not a TailBehavior, or
    tail.slot is not an int.
    """
    who = "classify_direct_system"
    if not isinstance(path.tail, (RidesSliceFrom, ZigzagsForever)):
        raise _not_a("a RidesSliceFrom or ZigzagsForever tail", "tail", path.tail, who)
    if path.start is None:
        if path.moves:
            raise ValueError("a move prefix needs a start object")
    elif not isinstance(path.start, FiniteInd):
        raise _not_a("a FiniteInd start", "start", path.start, who)
    # each move changes the index by +-1, and the shift by -1
    index = 0 if path.start is None else path.start.index
    for k, step in enumerate(path.moves):
        if step is Move.UP:
            index += 1
        elif step is not Move.DOWN:
            raise _not_a("Move moves", f"moves[{k}]", step, who)
        elif index < 1:
            raise ValueError(f"DOWN move from index {index} leaves the quiver")
        else:
            index -= 1
    if isinstance(path.tail, ZigzagsForever):
        return ZeroLimit()
    slot = path.tail.slot
    if not _is_int(slot):
        raise _not_a("an int tail.slot", "tail.slot", slot, who)
    end = slot if path.start is None else path.start.shift - len(path.moves) + index
    if slot > end or (end - slot) % 2:
        raise ValueError(f"a prefix ending at slot {end} cannot ride the slice from slot {slot}")
    return PruferLimit(slot)
