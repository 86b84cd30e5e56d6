"""Answers computed without infgon, used to check every benchmark output.

Objects are plain tuples: ``("f", shift, index)`` for a finite
indecomposable and ``("p", slot)`` for the Prufer object at a slot.
Arcs are pairs ``(a, b)`` with ``b - a >= 2``, or ``(m, None)`` for the
arc from m to infinity.  Configurations are the JSON documents the CLI
reads: ``{"generators": [...], "infinite_arcs": [...]}``.

Everything here is derived from the paper's geometric model:

* the finite object Sigma^s X_k is the arc (-s-k-2, -s), the Prufer
  object at slot n is the arc (-n-2, infinity);
* Ext^1 between finite objects is nonzero exactly when their arcs
  cross, and Hom(a, b) = Ext^1(a, Sigma^-1 b), so a finite-finite hom is
  the crossing of arc(a) with arc(b) translated by +1;
* a finite object maps to the Prufer object at slot n when it lies in the
  wedge below that slot, 0 <= n - s <= k; the Prufer object at n maps to
  the finite objects of the wedge at n + 2; Hom(P_m, P_n) = [n <= m];
* a configuration is weakly cluster tilting with no arc to infinity iff
  it is maximal non-crossing and locally finite, and with exactly one arc
  to infinity at m iff its finite part is maximal non-crossing with a
  two-sided fountain at m, which case is cluster tilting.

Nothing in this module imports infgon.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import Callable, Optional

# --- objects, arcs, crossings, hom and ext ---------------------------------


def arc_of(obj: tuple) -> tuple:
    """Arc coordinates of an object."""
    if obj[0] == "f":
        _, s, k = obj
        return (-s - k - 2, -s)
    return (-obj[1] - 2, None)


def object_of(arc: tuple) -> tuple:
    """The object whose arc this is."""
    a, b = arc
    if b is None:
        return ("p", -a - 2)
    return ("f", -b, b - a - 2)


def shift(obj: tuple, t: int) -> tuple:
    """Sigma^t of an object: shift and slot both move by t."""
    if obj[0] == "f":
        return ("f", obj[1] + t, obj[2])
    return ("p", obj[1] + t)


def cross(x: tuple, y: tuple) -> Optional[bool]:
    """Strict crossing of two arcs; None for two arcs to infinity."""
    (i, j), (r, s) = x, y
    if j is None and s is None:
        return None
    if j is None:
        return r < i < s
    if s is None:
        return i < r < j
    return i < r < j < s or r < i < s < j


def _in_wedge(base: int, obj: tuple) -> bool:
    _, s, k = obj
    return 0 <= base - s <= k


def hom(a: tuple, b: tuple) -> int:
    """dim Hom(a, b), always 0 or 1."""
    if a[0] == "f" and b[0] == "f":
        i, j = arc_of(b)
        return int(bool(cross(arc_of(a), (i + 1, j + 1))))
    if a[0] == "f":
        return int(_in_wedge(b[1], a))
    if b[0] == "f":
        return int(_in_wedge(a[1] + 2, b))
    return int(b[1] <= a[1])


def ext(a: tuple, b: tuple) -> int:
    """dim Ext^1(a, b) = dim Hom(a, Sigma b)."""
    return hom(a, shift(b, 1))


# --- configurations -----------------------------------------------------------


def _families(doc: dict) -> tuple[frozenset, list]:
    """Explicit arcs merged into one set, and the infinite families as
    canonical tuples without repeats: a split fan with p == q is a fan."""
    explicit: set = set()
    families: list = []
    for g in doc.get("generators", []):
        kind = g["kind"]
        if kind == "explicit":
            explicit.update((a, b) for a, b in g["arcs"])
            continue
        if kind == "fan":
            fam = ("fan", g["vertex"])
        elif kind == "zigzag":
            fam = ("zigzag", g["center"])
        elif g["p"] == g["q"]:
            fam = ("fan", g["p"])
        else:
            fam = ("splitfan", g["p"], g["q"])
        if fam not in families:
            families.append(fam)
    return frozenset(explicit), families


def family_member(fam: tuple, arc: tuple) -> bool:
    """Membership of a finite arc in an infinite family."""
    a, b = arc
    if fam[0] == "fan":
        return fam[1] in (a, b)
    if fam[0] == "zigzag":
        c = fam[1]
        # (c - n, c + n) and (c - n - 1, c + n) for n >= 1
        return b > c and a in (2 * c - b, 2 * c - b - 1)
    _, p, q = fam
    return (b == p) or (a == q) or (a == p and b <= q)


def member_test(doc: dict) -> Callable[[tuple], bool]:
    """Membership of a finite arc in the configuration."""
    explicit, families = _families(doc)
    return lambda arc: arc in explicit or any(family_member(f, arc) for f in families)


def member(doc: dict, arc: tuple) -> bool:
    return member_test(doc)(arc)


def materialize(doc: dict, window: tuple[int, int]) -> tuple[list, list]:
    """Finite member arcs with both ends in the window, by brute force
    over every arc of the window, and the arcs to infinity in it."""
    lo, hi = window
    test = member_test(doc)
    finite = [
        (a, b)
        for a in range(lo, hi - 1)
        for b in range(a + 2, hi + 1)
        if test((a, b))
    ]
    infinite = sorted({m for m in doc.get("infinite_arcs", []) if lo <= m <= hi})
    return finite, infinite


def _extent(doc: dict) -> tuple[int, int]:
    explicit, families = _families(doc)
    points = [p for fam in families for p in fam[1:]]
    points += [e for arc in explicit for e in arc]
    points += list(doc.get("infinite_arcs", []))
    return min(points, default=0), max(points, default=0)


def _any_crossing(doc: dict) -> bool:
    """Brute force: two member arcs that cross, or a member arc strictly
    around an arc to infinity, in a window around every parameter.  The
    window reaches one extent beyond the parameters on both sides, so it
    holds the arcs a zigzag reflects around its centre, and a few steps
    more, where two different maximal families always cross."""
    lo, hi = _extent(doc)
    reach = hi - lo + 6
    finite, _ = materialize(doc, (lo - reach, hi + reach))
    for i, x in enumerate(finite):
        for y in finite[i + 1 :]:
            if cross(x, y):
                return True
    return any(
        a < m < b for m in doc.get("infinite_arcs", []) for a, b in finite
    )


@lru_cache(maxsize=None)
def _verdict_cached(key: str) -> tuple[str, str]:
    doc = json.loads(key)
    infs = sorted(set(doc.get("infinite_arcs", [])))
    if len(infs) >= 2:
        return "NotWCT", "multiple_infinite_arcs"
    if _any_crossing(doc):
        return "NotWCT", "crossing_pair"
    explicit, families = _families(doc)
    # Fan, zigzag and split fan are maximal non-crossing; a finite set of
    # arcs never is.
    if not families:
        return "NotWCT", "addable_arc"
    fountains = {f[1] for f in families if f[0] == "fan"}
    locally_finite = all(f[0] == "zigzag" for f in families)
    if not infs:
        if locally_finite:
            return "WCT_LocallyFinite", "certified"
        if fountains:
            return "NotWCT", "missing_infinite_arc"
        return "NotWCT", "not_locally_finite_no_infinite_arc"
    if infs[0] in fountains:
        return "ClusterTilting", "certified"
    return "NotWCT", "fountain_infinite_arc_mismatch"


def verdict(doc: dict) -> tuple[str, str]:
    """(verdict, reason kind) from the characterization, in the decision
    order the classifier documents: several arcs to infinity, then a
    crossing, then maximality, then the fountain condition."""
    return _verdict_cached(json.dumps(doc, sort_keys=True))


# --- witness properties -------------------------------------------------------


def crossing_witness_ok(doc: dict, x: tuple, y: tuple) -> bool:
    """A reported crossing pair: both are members and they cross."""
    for arc in (x, y):
        if arc[1] is None:
            if arc[0] not in doc.get("infinite_arcs", []):
                return False
        elif not member(doc, arc):
            return False
    return bool(cross(x, y))


def addable_ok(doc: dict, arc: tuple, window: tuple[int, int]) -> bool:
    """A reported addable arc: not a member and crossing no member arc
    whose ends lie in a window that contains the arc."""
    lo, hi = min(window[0], arc[0]), max(window[1], arc[1])
    if member(doc, arc):
        return False
    finite, infinite = materialize(doc, (lo - 4, hi + 4))
    explicit, _ = _families(doc)
    others = set(finite) | set(explicit)
    return not any(cross(arc, t) for t in others) and not any(
        arc[0] < m < arc[1] for m in infinite
    )


def strong_overarc(doc: dict, target) -> tuple:
    """Member arc of least span strictly enclosing the target (an arc
    (p, q) or an integer h), ties broken by the left end, by scanning
    spans upwards."""
    p, q = (target, target) if isinstance(target, int) else target
    test = member_test(doc)
    span = q - p + 2
    while span < 1 << 12:
        for a in range(q + 1 - span, p):
            if test((a, a + span)):
                return (a, a + span)
        span += 1
    raise RuntimeError("no overarc within the scan bound")


def antichain_ok(doc: dict, seed: tuple, chain: list, count: int) -> bool:
    """A strictly nested chain of members above the seed, each one the
    strong overarc of the one before."""
    if len(chain) != count:
        return False
    cur = seed
    for t in chain:
        if not (t[0] < cur[0] and t[1] > cur[1] and member(doc, t)):
            return False
        if t != strong_overarc(doc, cur):
            return False
        cur = t
    return True


def approximation_ok(doc: dict, d: tuple, window, kind, target, handled, exceptions) -> bool:
    """Properties of an approximation report for a cluster tilting
    configuration: handled and exceptions split exactly the window
    members with a nonzero map to d; the zero map handles nothing; a
    finite target receives a nonzero map from every handled member."""
    finite, infinite = materialize(doc, window)
    members = finite + [(m, None) for m in infinite]
    mapping = [t for t in members if hom(object_of(t), d) == 1]
    if sorted(handled + exceptions, key=_arc_key) != sorted(mapping, key=_arc_key):
        return False
    if set(handled) & set(exceptions):
        return False
    if kind == "ZeroSuffices":
        return target is None and not handled
    if kind == "CosliceObject":
        return target is not None and target[0] == "f" and all(
            hom(object_of(t), target) == 1 for t in handled
        )
    return target == ("p", -doc["infinite_arcs"][0] - 2)


def _arc_key(arc: tuple) -> tuple:
    a, b = arc
    return (1, a, 0) if b is None else (0, a, b)


def svg_counts_ok(doc: dict, window: tuple[int, int], svg: str) -> bool:
    """One <path> per finite member arc and one ray per arc to infinity
    of the window."""
    finite, infinite = materialize(doc, window)
    return (
        svg.startswith("<svg")
        and svg.rstrip().endswith("</svg>")
        and svg.count("<path ") == len(finite)
        and svg.count('class="ray') == len(infinite)
    )
