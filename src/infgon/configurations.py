"""Symbolic arc configurations: generators, validation, classification.

A configuration is a finite description of a possibly infinite set of
arcs: a list of generators for the finite arcs plus a list of slots for
arcs to infinity.  Four generator kinds exist.

* Explicit: a literal finite set of arcs.
* Zigzag(c): the nested chain (c-n, c+n) and (c-n-1, c+n) for n >= 1.
* SplitFan(p, q) with p <= q: the left half-fan into p, the right
  half-fan out of q, and the finite bridge (p, j) for p+2 <= j <= q.
* Fan(v): every arc with v as an endpoint, on both sides: the split fan
  SplitFan(v, v), whose two feet meet.

Fan and SplitFan keep their feet, (v, v) and (p, q), in a derived slot
`_feet`, and every closed form reads a fan through it as a split fan.
materialize, which tests check the closed forms against, reads the
fields instead, a Fan(v) as the split fan (v, v): it lists the endpoint
pairs of the members in its window, one branch per kind, in sorted runs
that one sort merges, dropping the pairs two sources share; diagram
builds arcs only for what it draws.

A configuration is normalized once, when it is built: its Explicit sets
merge into one, and a repeated family, SplitFan(m, m) counting as
Fan(m), is dropped.  Its `generators` field keeps them as written, for
repr, equality and the file format; every check and verdict reads the
normal form.  A crossing index over the merged set, a sparse table of
sorted endpoints, tells in O(log n) whether an arc crosses one of its
arcs; noncrossing_check, the addable-arc search and diagram ask it.

Fan, Zigzag and SplitFan each describe a maximal non-crossing family, so
an arc is compatible with one of them exactly when it is a member, and
two distinct families always cross.  A family has at most three members
of each span, with endpoints linear in the span, so the least member
satisfying an endpoint condition lies among a fixed set of spans, tried
on int pairs: crossing witnesses against families take a fixed number of
steps, whatever the coordinates, a zigzag's strong overarc is one closed
form, and any configuration with a family, whatever else it holds, is
certified maximal.  The acceptance suites family-maximality and
overarc-witnesses re-check membership, maximality and overarcs over
windows.  When every generator is Explicit, the addable arc is found
from the explicit arcs' endpoints, and the window only chooses which one
is reported, not how much work is done.  Classification follows the
combinatorial characterization: with no arc to infinity, a configuration
is weakly cluster tilting iff its arcs are maximal non-crossing and
locally finite; with exactly one arc to infinity at m, iff the finite
part is maximal non-crossing with a two-sided fountain at m, and that
case is moreover cluster tilting.  Since two distinct families cross
and a non-member crosses its family, each case is one shape of the
normal form: a single family with only member arcs, plus the ray at m
for Fan(m) or SplitFan(m, m), or no ray for a Zigzag.  classify and the
preconditions of the witnesses read that shape in one pass over the
explicit arcs.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import _EXPORTS
from .arcs import (
    Arc,
    FiniteArc,
    InfiniteArc,
    arc_sort_key,
    format_arc,
)
from .quiver import _Enum, _Record, _Value, _is_int, _new, _not_a, _set

__all__ = list(_EXPORTS["configurations"])

DEFAULT_WINDOW = (-16, 16)


class Explicit(_Value):
    __slots__ = __match_args__ = ("arcs",)

    def __init__(self, arcs) -> None:
        _set(self, "arcs", frozenset(arcs))


class Fan(_Value):
    """Every arc ending at `vertex`: SplitFan(vertex, vertex), whose feet
    meet.  The derived slot `_feet` holds (vertex, vertex)."""

    __slots__ = ("vertex", "_feet")
    __match_args__ = ("vertex",)

    def __init__(self, vertex: int) -> None:
        _set(self, "vertex", vertex)
        _set(self, "_feet", (vertex, vertex))


class Zigzag(_Value):
    __slots__ = __match_args__ = ("center",)

    def __init__(self, center: int) -> None:
        _set(self, "center", center)


class SplitFan(_Value):
    """Half-fans into p and out of q, bridged by (p, j) for p+2 <= j <= q.
    The derived slot `_feet` holds (p, q); with p == q this is Fan(p)."""

    __slots__ = ("p", "q", "_feet")
    __match_args__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if p > q:
            raise ValueError(f"SplitFan needs p <= q, got ({p}, {q})")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "_feet", (p, q))


Generator = Union[Explicit, Fan, Zigzag, SplitFan]


def _reach(pairs: list) -> Callable:
    """reach(a, b): the largest right end of the pairs (i, j) with
    a < i < b, or a when there is none, in O(log n) after an O(n log n)
    sparse table over the pairs by left end: row k holds the largest
    right end of each run of 2^k."""
    pairs = sorted(pairs)
    lefts = [i for i, _ in pairs]
    rows = [[j for _, j in pairs]]
    for half in (1 << k for k in range(len(pairs).bit_length() - 1)):
        rows.append(list(map(max, rows[-1][:-half], rows[-1][half:])))

    def reach(a, b):
        lo, hi = bisect_right(lefts, a), bisect_left(lefts, b)
        if lo >= hi:
            return a
        k = (hi - lo).bit_length() - 1
        return max(rows[k][lo], rows[k][hi - (1 << k)])

    return reach


def _crossing_index(pairs: list) -> tuple[Callable, Callable]:
    """(reach, crosses): reach of the pairs, and whether the arc (a, b)
    crosses one of the arcs given as endpoint pairs, in O(log n).  (a, b)
    crosses (i, j) when a < i < b < j, so some pair with its left end in
    (a, b) reaches past b, or when i < a < j < b, the same test on the
    pairs mirrored through 0.  An arc to infinity at m is the pair
    (m, quiver._RAY_END), the ray end of the hom kernel."""
    right = _reach(pairs)
    left = _reach([(-j, -i) for i, j in pairs])
    return right, lambda a, b: right(a, b) > b or left(-b, -a) > -a


class ArcConfiguration(_Value):
    """Generators plus slots of arcs to infinity.

    The fields are `generators`, kept as written, and `infinite_arcs`,
    stored sorted without duplicates.  The constructor normalizes once,
    into derived slots that are not fields: `_explicit`, the union of
    the Explicit arc sets, `_crosses`, its crossing index, `_reach`,
    the right half of that index, and `_families`, the other generators
    without repeats, compared with SplitFan(m, m) read as Fan(m).
    Every question reads those.  Raises TypeError on a generator that is not
    Explicit, Fan, Zigzag or SplitFan, an explicit arc that is not a
    FiniteArc, or a family parameter or slot that is not an int."""

    __slots__ = (
        "generators", "infinite_arcs", "_explicit", "_reach", "_crosses", "_families"
    )
    __match_args__ = ("generators", "infinite_arcs")

    def __init__(self, generators=(), infinite_arcs=()) -> None:
        generators, slots = tuple(generators), tuple(infinite_arcs)
        explicit: set[FiniteArc] = set()
        families: list[Generator] = []
        seen: set[object] = set()
        who = "ArcConfiguration"
        for k, g in enumerate(generators):
            where = f"generators[{k}]"
            if isinstance(g, Explicit):
                for t in g.arcs:
                    if not isinstance(t, FiniteArc):
                        raise _not_a("FiniteArc explicit arcs", f"an arc of {where}", t, who)
                explicit |= g.arcs
                continue
            if not isinstance(g, (Fan, Zigzag, SplitFan)):
                raise _not_a("Explicit, Fan, Zigzag or SplitFan generators", where, g, who)
            for name, x in zip(g.__match_args__, g._values(g)):
                if not _is_int(x):
                    raise _not_a("int family parameters", f"{where}.{name}", x, who)
            canon = g if isinstance(g, Zigzag) else g._feet
            if canon not in seen:
                seen.add(canon)
                families.append(g)
        for k, m in enumerate(slots):
            if not _is_int(m):
                raise _not_a("int infinite arc slots", f"infinite_arcs[{k}]", m, who)
        _set(self, "generators", generators)
        _set(self, "infinite_arcs", tuple(sorted(set(slots))))
        _set(self, "_explicit", frozenset(explicit))
        reach, crosses = _crossing_index([(t.a, t.b) for t in explicit])
        _set(self, "_reach", reach)
        _set(self, "_crosses", crosses)
        _set(self, "_families", tuple(families))


class FountainFlags(NamedTuple):
    left: bool
    right: bool


# The four FountainFlags values, built once for fountain_profile.
_FLAGS = {
    (left, right): FountainFlags(left, right) for left in (False, True) for right in (False, True)
}
_NO_FOUNTAIN = _FLAGS[False, False]


# --- configuration file format -------------------------------------------


def _show(value: object) -> str:
    return json.dumps(value, default=repr)


def _json_int(value: object, path: str) -> int:
    if not _is_int(value):
        raise ValueError(f"{path}: expected an integer, got {_show(value)}")
    return value


def _json_list(value: object, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list, got {_show(value)}")
    return list(value)


def _at(path: str, make, *args):
    # Build a value, prefixing its own validation error with the path.
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# The file-format name of each generator kind; a family's keys are its
# fields, in order.
_KINDS = {"explicit": Explicit, "fan": Fan, "zigzag": Zigzag, "splitfan": SplitFan}
_KIND_NAMES = {cls: kind for kind, cls in _KINDS.items()}


def _generator_from_dict(entry: object, path: str) -> Generator:
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: expected an object, got {_show(entry)}")

    def field(key: str) -> int:
        if key not in entry:
            raise ValueError(f"{path}.{key}: missing")
        return _json_int(entry[key], f"{path}.{key}")

    if "kind" not in entry:
        raise ValueError(f"{path}.kind: missing")
    kind = entry["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{path}.kind: unknown generator kind {kind!r}")
    if cls is Explicit:
        arcs = []
        for k, pair in enumerate(_json_list(entry.get("arcs", []), f"{path}.arcs")):
            where = f"{path}.arcs[{k}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"{where}: expected a pair of integers, got {_show(pair)}")
            arcs.append(
                _at(where, FiniteArc, _json_int(pair[0], where), _json_int(pair[1], where))
            )
        return Explicit(arcs)
    return _at(path, cls, *[field(key) for key in cls.__match_args__])


def configuration_from_dict(data: dict) -> ArcConfiguration:
    """Read a configuration document.  Raises ValueError naming the JSON
    path of the first malformed entry, e.g. ``generators[0].vertex:
    missing``."""
    if not isinstance(data, dict):
        raise ValueError("configuration document must be an object")
    gens = [
        _generator_from_dict(entry, f"generators[{k}]")
        for k, entry in enumerate(_json_list(data.get("generators", []), "generators"))
    ]
    infs = [
        _json_int(m, f"infinite_arcs[{k}]")
        for k, m in enumerate(_json_list(data.get("infinite_arcs", []), "infinite_arcs"))
    ]
    return ArcConfiguration(gens, infs)


def configuration_to_dict(c: ArcConfiguration) -> dict:
    gens = []
    for g in c.generators:
        doc = {"kind": _KIND_NAMES[type(g)]}
        if isinstance(g, Explicit):
            doc["arcs"] = [[t.a, t.b] for t in sorted(g.arcs, key=arc_sort_key)]
        else:
            doc.update(zip(g.__match_args__, g._values(g)))
        gens.append(doc)
    return {"generators": gens, "infinite_arcs": list(c.infinite_arcs)}


def load_configuration(path: str) -> ArcConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return configuration_from_dict(json.load(fh))


# --- structure helpers ----------------------------------------------------


def _is_member(g: Generator, a: int, b: int) -> bool:
    # Assumes b - a >= 2, as for a FiniteArc, which the half-fans and bridge ask.
    if isinstance(g, Zigzag):
        return b - g.center >= 1 and a in (2 * g.center - b, 2 * g.center - b - 1)
    p, q = g._feet
    return b == p or a == q or (a == p and b <= q)


def _pairs_of_span(g: Generator, k: int) -> tuple[tuple[int, int], ...]:
    # The endpoint pairs of the members of family g with span k >= 2, by a.
    if isinstance(g, Zigzag):
        return ((g.center - (k + 1) // 2, g.center + k // 2),)
    p, q = g._feet
    if k <= q - p:
        return (p - k, p), (p, p + k), (q, q + k)
    return (p - k, p), (q, q + k)


def _crossing(i: int, j: int) -> Callable[[int, int], bool]:
    # Whether (a, b) crosses the finite arc (i, j), as arcs_cross decides.
    return lambda a, b: a < i < b < j or i < a < j < b


def _least_member(
    g: Generator, pred: Callable[[int, int], bool], points: tuple[int, ...]
) -> FiniteArc:
    """The member of family g least by (span, a) whose endpoints (a, b)
    satisfy pred; each caller's pred holds for some member.

    pred must compare endpoints only with the family parameters and
    `points`.  Along each branch of the members of span k (a side of a
    fan, a parity of a zigzag) both endpoints move linearly with k, at
    speed 1 or 1/2, so pred first turns true at k = 2 or 3 or next to a
    breakpoint m*d + e, d a gap |x - y|, m in {1, 2}, e in -1..3.  Trying
    those spans in order decides in a fixed number of steps, whatever
    the coordinates."""
    for k in _spans(g._values(g), points):
        for a, b in _pairs_of_span(g, k):
            if pred(a, b):
                return FiniteArc(a, b)


# The spans up to 3, which _spans yields first or skips.
_TRIED = frozenset(range(4))


def _spans(params: tuple[int, ...], points: tuple[int, ...]) -> Iterator[int]:
    # The spans _least_member tries, in order.  The gap 0 (x - x) puts 2
    # and 3 first and adds nothing above them; the answer is almost
    # always there, so the sorted breakpoints above 3 are built only
    # when both fail.
    yield 2
    yield 3
    gaps = {abs(x - y) for x in params for y in (*params, *points)}
    gaps.discard(0)
    yield from sorted({m * d + e for d in gaps for m in (1, 2) for e in range(-1, 4)} - _TRIED)


def _family_crossing_witness(g: Generator, arc: FiniteArc) -> FiniteArc:
    """A member of family g crossing `arc`, which is not a member.  The
    families are maximal, so one exists: a family with equal feet,
    Fan(v) or SplitFan(v, v), answers by a fixed closed form, whose
    witnesses tests pin; Zigzag and the other split fans with their
    least crossing member by (span, a)."""
    if not isinstance(g, Zigzag) and g._feet[0] == g._feet[1]:
        v = g._feet[0]
        if arc.b < v:
            return FiniteArc(arc.b - 1, v)
        if arc.a > v:
            return FiniteArc(v, arc.a + 1)
        return FiniteArc(v, arc.b + 1)  # a < v < b: no end at v
    return _least_member(g, _crossing(arc.a, arc.b), (arc.a, arc.b))


def _infinite_vs_generator(g: Generator, m: int) -> Optional[FiniteArc]:
    """A family arc crossed by the infinite arc at m, or None."""
    if isinstance(g, Zigzag):
        n = abs(m - g.center) + 1
        return FiniteArc(g.center - n, g.center + n)
    p, q = g._feet
    if m == p or m == q:
        return None
    if m < p:
        return FiniteArc(m - 1, p)
    if m > q:
        return FiniteArc(q, m + 1)
    return FiniteArc(p, m + 1)


def _materialize_generator(
    g: Generator, window: tuple[int, int]
) -> list[tuple[int, int]]:
    # The endpoint pairs of the members of g in the window, a Fan(v)
    # read from its field as SplitFan(v, v).  Written apart from
    # _pairs_of_span and _feet: tests and the acceptance suites check
    # the closed forms against materialize.
    lo, hi = window
    if isinstance(g, Zigzag):
        c0 = g.center
        return [(c0 - n, c0 + n) for n in range(1, min(c0 - lo, hi - c0) + 1)] + [
            (c0 - n - 1, c0 + n) for n in range(1, min(c0 - lo - 1, hi - c0) + 1)
        ]
    p, q = (g.vertex, g.vertex) if isinstance(g, Fan) else (g.p, g.q)
    out: list[tuple[int, int]] = []
    if lo <= p <= hi:
        out += [(a, p) for a in range(lo, p - 1)]
        out += [(p, b) for b in range(p + 2, min(q, hi) + 1)]
    if lo <= q <= hi:
        out += [(q, b) for b in range(q + 2, hi + 1)]
    return out


def _window_ends(window: tuple[int, int], who: str) -> tuple[int, int]:
    # The ends (lo, hi) of an inclusive window, by the one window rule of
    # classify, maximality_check, materialize, render_svg and
    # approximation_report: int ends (a bool is not one), lo <= hi.
    lo, hi = window
    if not (type(lo) is int and type(hi) is int):
        for k, x in enumerate(window):
            if not _is_int(x):
                raise _not_a("int window ends", f"window[{k}]", x, who)
    if lo > hi:
        raise ValueError(f"empty window {window}")
    return lo, hi


def _member_ends(c: ArcConfiguration, lo: int, hi: int) -> tuple[list, list]:
    # materialize without the arcs: its sorted endpoint pairs and ray ends
    # in the window [lo, hi], whose ends the caller has checked.  Each
    # source lists distinct pairs in sorted runs, which one sort merges; a
    # pair repeats only across sources.
    pairs = [(t.a, t.b) for t in c._explicit if lo <= t.a and t.b <= hi]
    sources = len(c._families) + bool(pairs)
    for g in c._families:
        pairs += _materialize_generator(g, (lo, hi))
    rays = [m for m in c.infinite_arcs if lo <= m <= hi]
    return sorted(set(pairs)) if sources > 1 else sorted(pairs), rays


def materialize(c: ArcConfiguration, window: tuple[int, int]) -> list[Arc]:
    """All arcs of the configuration whose endpoints (the finite one, for
    arcs to infinity) lie in the inclusive window.  Sorted: finite arcs
    lexicographically, then infinite arcs by endpoint."""
    pairs, rays = _member_ends(c, *_window_ends(window, "materialize"))
    return [*(FiniteArc(a, b) for a, b in pairs), *map(InfiniteArc, rays)]


# --- validation -----------------------------------------------------------


def _generator_pair_witness(g1: Generator, g2: Generator) -> tuple[FiniteArc, FiniteArc]:
    """The crossing pair (t1, t2) of two distinct families least by
    (t1.span, t1.a, t2.span, t2.a).  The members of g1 that cross g2 are,
    by maximality, exactly its non-members, so t1 is the least of those
    and t2 the least member of g2 crossing t1."""
    t1 = _least_member(g1, lambda a, b: not _is_member(g2, a, b), g2._values(g2))
    return t1, _least_member(g2, _crossing(t1.a, t1.b), (t1.a, t1.b))


def noncrossing_check(
    c: ArcConfiguration,
) -> Optional[tuple[Arc, Arc]]:
    """None when the configuration is pairwise non-crossing, else a
    witness pair of crossing arcs.

    Scan order is deterministic: explicit pairs first, the least arc
    that the crossing index flags with the least arc it crosses, then
    the first explicit non-member of a family with the family arc it
    crosses, then the first two families, which cross as distinct
    families do, then the arcs to infinity against everything finite.
    Two arcs to infinity never yield a witness here (their crossing is
    undefined); classify rejects that situation separately.
    """
    ex = sorted(c._explicit, key=arc_sort_key)
    bigs = c._families
    for t1 in ex:
        if c._crosses(t1.a, t1.b):
            # t1 crosses no earlier arc, or that arc would come first
            cross = _crossing(t1.a, t1.b)
            return t1, next(t2 for t2 in ex if cross(t2.a, t2.b))
    for t in ex:
        for g in bigs:
            if not _is_member(g, t.a, t.b):
                return (t, _family_crossing_witness(g, t))
    if len(bigs) >= 2:
        return _generator_pair_witness(bigs[0], bigs[1])
    for m in c.infinite_arcs:
        for t in ex:
            if t.a < m < t.b:
                return (t, InfiniteArc(m))
        for g in bigs:
            w = _infinite_vs_generator(g, m)
            if w is not None:
                return (w, InfiniteArc(m))
    return None


def fountain_profile(c: ArcConfiguration) -> dict[int, FountainFlags]:
    """Vertices carrying infinitely many arc ends, with which sides are
    infinite: left means infinitely many arcs arrive, right means
    infinitely many leave: into a split fan's left foot, out of its
    right one, and both ways at a fan, whose feet meet."""
    profile: dict[int, FountainFlags] = {}

    def add(v: int, left: bool, right: bool) -> None:
        old = profile.get(v, _NO_FOUNTAIN)
        profile[v] = _FLAGS[old.left or left, old.right or right]

    for g in c._families:
        if isinstance(g, Zigzag):
            continue
        p, q = g._feet
        add(p, True, False)
        add(q, False, True)
    return profile


def is_locally_finite(c: ArcConfiguration) -> bool:
    """True when every integer meets only finitely many arcs of the
    finite part.  A fan or split fan concentrates infinitely many ends
    on its feet; Zigzag and Explicit never do."""
    return all(isinstance(g, Zigzag) for g in c._families)


# --- maximality -----------------------------------------------------------


class CertifiedMaximal(_Value):
    __slots__ = ()


class AddableArc(_Value):
    __slots__ = __match_args__ = ("arc",)

    def __init__(self, arc: FiniteArc) -> None:
        _set(self, "arc", arc)


MaximalityResult = Union[CertifiedMaximal, AddableArc]


def _candidates(explicit: frozenset, lo: int) -> range:
    """The left ends worth trying for an addable arc: lo up to the first
    f >= lo off {t.a - 1, t.a, t.b - 1}, at most 3n + 1 of them.  (f,
    f + 2) is no explicit arc, as none starts at f, and crosses none, as
    none starts or ends at f + 1."""
    s = {x for t in explicit for x in (t.a - 1, t.a, t.b - 1)}
    f = lo
    while f in s:
        f += 1
    return range(lo, f + 1)


def maximality_check(
    c: ArcConfiguration, window: tuple[int, int]
) -> MaximalityResult:
    """Maximality of the finite part (arcs to infinity play no role).

    Fan, Zigzag and SplitFan are each a maximal non-crossing family, so
    every arc crosses a member of it or is one, and a configuration with
    a family has no addable arc whatever else it holds: it is
    CertifiedMaximal in O(1).  The family-maximality acceptance suite
    re-checks that theorem over windows.  A pure Explicit configuration
    is never maximal: _addable_arc finds its addable arc.  Raises on a
    window that _window_ends rejects.
    """
    lo, hi = _window_ends(window, "maximality_check")
    if c._families:
        return CertifiedMaximal()
    return AddableArc(_addable_arc(c, lo, hi))


def _addable_arc(c: ArcConfiguration, lo: int, hi: int) -> FiniteArc:
    """The addable arc of a pure Explicit configuration: the least (a, b)
    of the window [lo, hi], lexicographically, that is no explicit arc
    and crosses none.  For each left end a of _candidates, b starts at
    a + 2 and jumps to the farthest right end of the arcs starting
    inside (a, b) while that passes b; an arc around a that ends inside
    (a, b) rules a out, and an explicit (a, b) moves b by one.  So every
    step passes an arc and the work is O(n log n).  If the window is
    exhausted, the arc just beyond the right end of the span is
    returned, which cannot cross anything inside the span (with no arcs
    at all, the arc from the window's left end).  The window chooses
    which addable arc is reported, not how much work is done.
    """
    explicit = c._explicit
    for a in _candidates(explicit, lo):
        b = a + 2
        while b <= hi:
            r = c._reach(a, b)
            if r > b:
                b = r
            elif c._crosses(a, b):
                break
            elif FiniteArc(a, b) in explicit:
                b += 1
            else:
                return FiniteArc(a, b)
    h = max((t.b for t in explicit), default=lo)
    return FiniteArc(h, h + 2)


# --- classification -------------------------------------------------------


class Verdict(_Enum):
    WCT_LOCALLY_FINITE = "WCT_LocallyFinite"
    CLUSTER_TILTING = "ClusterTilting"
    NOT_WCT = "NotWCT"


class ReasonKind(_Enum):
    CERTIFIED = "certified"
    CROSSING_PAIR = "crossing_pair"
    ADDABLE_ARC = "addable_arc"
    MULTIPLE_INFINITE_ARCS = "multiple_infinite_arcs"
    MISSING_INFINITE_ARC = "missing_infinite_arc"
    FOUNTAIN_MISMATCH = "fountain_infinite_arc_mismatch"
    NOT_LOCALLY_FINITE_NO_INFINITE_ARC = "not_locally_finite_no_infinite_arc"


# The members the answer paths read, as module globals: a read through
# the Enum class costs a descriptor lookup, about 100 ns, on every call.
_WCT_LOCALLY_FINITE = Verdict.WCT_LOCALLY_FINITE
_CLUSTER_TILTING = Verdict.CLUSTER_TILTING
_NOT_WCT = Verdict.NOT_WCT
_CERTIFIED = ReasonKind.CERTIFIED
_CROSSING_PAIR = ReasonKind.CROSSING_PAIR
_ADDABLE_ARC = ReasonKind.ADDABLE_ARC
_MULTIPLE_INFINITE_ARCS = ReasonKind.MULTIPLE_INFINITE_ARCS
_MISSING_INFINITE_ARC = ReasonKind.MISSING_INFINITE_ARC
_FOUNTAIN_MISMATCH = ReasonKind.FOUNTAIN_MISMATCH
_NOT_LOCALLY_FINITE = ReasonKind.NOT_LOCALLY_FINITE_NO_INFINITE_ARC


class Reason(_Record):
    """Why classify gave its verdict: the kind, and the witness fields
    that kind sets; every other field keeps its default."""

    __slots__ = ()
    __match_args__ = (
        "kind", "crossing", "addable", "infinite_slots", "fountain_vertex", "profile", "facts"
    )

    def __new__(
        cls,
        kind: ReasonKind,
        crossing: Optional[tuple[Arc, Arc]] = None,
        addable: Optional[FiniteArc] = None,
        infinite_slots: tuple[int, ...] = (),
        fountain_vertex: Optional[int] = None,
        profile: tuple[tuple[int, FountainFlags], ...] = (),
        facts: tuple[str, ...] = (),
    ) -> Reason:
        return _new(cls, (kind, crossing, addable, infinite_slots, fountain_vertex, profile, facts))


class Classification(_Record):
    __slots__ = ()
    __match_args__ = ("verdict", "reason")

    def __new__(cls, verdict: Verdict, reason: Reason) -> Classification:
        return _new(cls, (verdict, reason))


def _certified(c: ArcConfiguration) -> Optional[Verdict]:
    """WCT_LOCALLY_FINITE when c is one Zigzag with no arc to infinity,
    CLUSTER_TILTING when c is one Fan(m) or SplitFan(m, m) with the one
    arc to infinity at m, each with every explicit arc a member of the
    family; None otherwise.  In O(number of explicit arcs)."""
    families, infs = c._families, c.infinite_arcs
    if len(families) != 1:
        return None
    g = families[0]
    if isinstance(g, Zigzag):
        if infs:
            return None
        verdict = _WCT_LOCALLY_FINITE
    elif len(infs) == 1 and g._feet == (infs[0], infs[0]):
        verdict = _CLUSTER_TILTING
    else:
        return None
    return verdict if all(_is_member(g, t.a, t.b) for t in c._explicit) else None


def classify(
    c: ArcConfiguration, window: tuple[int, int] = DEFAULT_WINDOW
) -> Classification:
    """Full classification pipeline.

    Order of decisions: the two positive verdicts first, read off the
    normal form by one shape check.  With no arc to infinity, c is
    weakly cluster tilting (and provably never cluster tilting) exactly
    when its finite part is maximal non-crossing and locally finite;
    with one at m, cluster tilting exactly when the finite part is
    maximal non-crossing with a two-sided fountain at m, which subsumes
    the fountain-flavoured weak verdict.  Two distinct families always
    cross, and an explicit non-member crosses its family, so both cases
    are one family with member arcs: a Zigzag and no arc to infinity,
    or a Fan(m) or SplitFan(m, m) and the arc to infinity at m.  Every
    other configuration is not weakly cluster tilting, and the pipeline
    finds its reason: more than one arc to infinity; then any crossing;
    then an addable arc; then, with no arc to infinity, a two-sided
    fountain or else a one-sided one; and with one, the fountain that
    does not match it.

    The window only chooses which addable arc a pure Explicit
    configuration reports, the least one inside it; a configuration
    with a family is certified maximal whatever the window.  Neither
    cost grows with the window, which is checked first whatever c is.
    """
    lo, hi = _window_ends(window, "classify")
    infs = c.infinite_arcs
    verdict = _certified(c)
    # Each answer is one flat record, built in place: the fields are
    # (kind, crossing, addable, infinite_slots, fountain_vertex, profile,
    # facts), in the order of Reason's constructor.
    if verdict is not None and not infs:
        facts = ("maximal_certified", "locally_finite", "no_infinite_arc")
        reason = _new(Reason, (_CERTIFIED, None, None, (), None, (), facts))
    elif verdict is not None:  # cluster tilting, with its arc to infinity
        m = infs[0]
        facts = (
            "maximal_certified",
            f"fountain_at_{m}",
            f"infinite_arc_at_{m}",
            "satisfies_fountain_weak_verdict",
        )
        reason = _new(Reason, (_CERTIFIED, None, None, (), m, (), facts))
    elif len(infs) >= 2:
        reason = _new(Reason, (_MULTIPLE_INFINITE_ARCS, None, None, infs, None, (), ()))
    elif (witness := noncrossing_check(c)) is not None:
        reason = _new(Reason, (_CROSSING_PAIR, witness, None, (), None, (), ()))
    elif not c._families:
        reason = _new(Reason, (_ADDABLE_ARC, None, _addable_arc(c, lo, hi), (), None, (), ()))
    else:
        profile = tuple(sorted(fountain_profile(c).items()))
        if infs:
            reason = _new(Reason, (_FOUNTAIN_MISMATCH, None, None, infs, infs[0], profile, ()))
        elif full := [v for v, fl in profile if fl.left and fl.right]:
            reason = _new(Reason, (_MISSING_INFINITE_ARC, None, None, (), full[0], profile, ()))
        else:
            reason = _new(Reason, (_NOT_LOCALLY_FINITE, None, None, (), None, profile, ()))
    return _new(Classification, (verdict or _NOT_WCT, reason))


def render_classification(cls: Classification) -> str:
    """Stable text encoding: a VERDICT line plus WITNESS lines."""
    lines = [f"VERDICT {cls.verdict.value}"]
    r = cls.reason
    lines.append(f"WITNESS reason {r.kind.value}")
    if r.crossing is not None:
        x, y = r.crossing
        lines.append(f"WITNESS crossing {format_arc(x)} x {format_arc(y)}")
    if r.addable is not None:
        lines.append(f"WITNESS addable {format_arc(r.addable)}")
    if r.infinite_slots:
        slots = " ".join(str(m) for m in r.infinite_slots)
        lines.append(f"WITNESS infinite_arcs {slots}")
    if r.fountain_vertex is not None:
        lines.append(f"WITNESS fountain_vertex {r.fountain_vertex}")
    for v, fl in r.profile:
        sides = "".join(
            s for s, on in (("left", fl.left), ("right", fl.right)) if on
        ) or "none"
        lines.append(f"WITNESS fountain_profile {v} {sides}")
    if r.facts:
        lines.append("WITNESS certified " + " ".join(r.facts))
    return "\n".join(lines) + "\n"


# --- witnesses on locally finite maximal configurations -------------------


def _locally_finite_zigzag(c: ArcConfiguration) -> Zigzag:
    # Only one Zigzag, with some of its own arcs, classifies as locally
    # finite weakly cluster tilting: the shape _certified reads.  classify
    # runs only to name the verdict in the error.
    if _certified(c) is not _WCT_LOCALLY_FINITE:
        raise ValueError(
            "operation needs a locally finite maximal non-crossing "
            f"configuration, classification gave {classify(c).verdict.value}"
        )
    return c._families[0]


def _overarc(zig: Zigzag, p: int, q: int) -> FiniteArc:
    # The member (c - ceil(k/2), c + floor(k/2)) of span k has a < p and b > q
    # when ceil(k/2) >= c - p + 1 and floor(k/2) >= max(q - c + 1, 1).
    c = zig.center
    n = max(c - p + 1, q - c + 1, 1)
    odd = c - p + 1 > max(q - c + 1, 1)
    return FiniteArc(c - n, c + n - odd)


def strong_overarc(c: ArcConfiguration, target: Union[FiniteArc, int]) -> FiniteArc:
    """Smallest configuration arc strictly enclosing the target on both
    sides (for an integer target, strictly containing it).

    The configuration must classify as locally finite weakly cluster
    tilting, and an arc target must itself belong to the configuration.
    Among valid overarcs the one with minimal span is returned, ties
    broken lexicographically; the candidate set has no lexicographic
    minimum on its own since left endpoints are unbounded below.  Such a
    configuration is one Zigzag, so the answer is its least enclosing
    member, found in closed form with no bound on the target; the
    acceptance suite overarc-witnesses re-checks minimality over windows.
    """
    if not isinstance(target, FiniteArc):
        if not _is_int(target):
            raise _not_a("a FiniteArc or int target", "target", target, "strong_overarc")
        return _overarc(_locally_finite_zigzag(c), target, target)
    zig = _locally_finite_zigzag(c)
    if not _is_member(zig, target.a, target.b):
        raise ValueError(f"target arc {format_arc(target)} not in configuration")
    return _overarc(zig, target.a, target.b)


def overarc_antichain(
    c: ArcConfiguration, seed: FiniteArc, count: int
) -> list[FiniteArc]:
    """A strictly nested chain of `count` strong overarcs above the seed.

    Each member strictly encloses all previous ones, so no member maps
    to any other; every member keeps a nonzero map to the limit object
    in the slot determined by the seed's left endpoint.  The acceptance
    suite overarc-witnesses re-checks both statements through hom_dim.
    """
    if not isinstance(seed, FiniteArc):
        raise _not_a("a FiniteArc seed", "seed", seed, "overarc_antichain")
    if not _is_int(count):
        raise _not_a("an int count", "count", count, "overarc_antichain")
    if count < 0:
        raise ValueError("count must be >= 0")
    zig = _locally_finite_zigzag(c)
    if not _is_member(zig, seed.a, seed.b):
        raise ValueError(f"seed arc {format_arc(seed)} not in configuration")
    chain: list[FiniteArc] = []
    cur = seed
    for _ in range(count):
        cur = _overarc(zig, cur.a, cur.b)
        chain.append(cur)
    return chain
