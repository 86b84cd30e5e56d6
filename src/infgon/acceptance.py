"""Oracle-agreement suites over pinned desk-scale windows.

Each suite exhaustively cross-checks two independent computations of the
same quantity (crossing against regions, towers against wedge formulas,
and so on) over a fixed finite range, and reports a pass flag with a
count of comparisons.  The CLI `check` command runs all of them; the
test suite asserts each one and its time budget.
"""
from __future__ import annotations

import random
import time
from itertools import accumulate, groupby
from typing import Callable

from .arcs import (
    FiniteArc,
    InfiniteArc,
    _CROSS,
    arc_to_object,
    arcs_cross,
    object_to_arc,
    translate_arc,
)
from .configurations import (
    AddableArc,
    ArcConfiguration,
    Explicit,
    Fan,
    ReasonKind,
    SplitFan,
    Verdict,
    Zigzag,
    _is_member,
    _pairs_of_span,
    classify,
    materialize,
    overarc_antichain,
    strong_overarc,
)
from .graded import (
    FiniteCyclic,
    PolyFree,
    PruferMod,
    TowerUnstableError,
    build_hom_tower,
    build_inverse_hom_tower,
    degreewise_dims,
    dual_descriptor,
    f_image,
    prufer_prufer_tower,
    truncated_colim,
    truncated_lim,
)
from .quiver import (
    FiniteInd,
    PruferInd,
    _RAY_END,
    _Value,
    _region,
    _set,
    ext_dim,
    hom_dim,
    shift_object,
    wedge_contains,
)

__all__ = ["SuiteResult", "ALL_SUITES", "run_suite", "run_all"]


class SuiteResult(_Value):
    __slots__ = __match_args__ = ("name", "passed", "checked", "detail", "seconds")

    def __init__(
        self, name: str, passed: bool, checked: int, detail: str, seconds: float
    ) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "checked", checked)
        _set(self, "detail", detail)
        _set(self, "seconds", seconds)


def _finite_arcs(lo: int, hi: int) -> list[FiniteArc]:
    return [
        FiniteArc(a, b) for a in range(lo, hi - 1) for b in range(a + 2, hi + 1)
    ]


def suite_crossing_ext_bridge() -> tuple[bool, int, str]:
    # Ext(x, y) = Hom(x, Sigma y) on the hom kernel, where Sigma moves an
    # arc by -1, against the plain crossing test; neither side calls the
    # other.  Over a smaller window ext_dim answers on the objects, so
    # the arc ends they carry are checked too.
    arcs = _finite_arcs(-25, 25)
    up = [(y.a - 1, y.b - 1) for y in arcs]
    n = 0
    for x in arcs:
        i, j = x.a, x.b
        for y, (m, k) in zip(arcs, up):
            if (arcs_cross(x, y) is _CROSS) is (_region(i, j, m, k) is None):
                return False, n, f"mismatch at {x}, {y}"
            n += 1
    near = _finite_arcs(-10, 10)
    objs = [arc_to_object(t) for t in near]
    for x, a in zip(near, objs):
        for y, b in zip(near, objs):
            if (arcs_cross(x, y) is _CROSS) is not (ext_dim(a, b).value == 1):
                return False, n, f"ext_dim mismatch at {x}, {y}"
            n += 1
    return True, n, f"{len(arcs)} arcs, every ordered pair"


def suite_serre_duality() -> tuple[bool, int, str]:
    # Hom(a, b) against Hom(b, Sigma^2 a) on the hom kernel; Sigma^2
    # moves an arc by -2.
    arcs = [(t.a, t.b) for t in _finite_arcs(-25, 25)]
    n = 0
    for i, j in arcs:
        for m, k in arcs:
            if (_region(i, j, m, k) is None) is not (_region(m, k, i - 2, j - 2) is None):
                return False, n, f"mismatch at arcs ({i}, {j}), ({m}, {k})"
            n += 1
    return True, n, "hom(a,b) against hom(b, double shift of a)"


def _edge_stages(dims: tuple[int, ...]) -> list[int]:
    # The stages on either side of each change in dims (at most four: a
    # tower row is one run of ones), or stage 0 when dims are constant.
    starts = list(accumulate(len(list(run)) for _, run in groupby(dims)))[:-1]
    return sorted({s for k in starts for s in (k - 1, k)}) or [0]


def suite_tower_colim_vs_wedge() -> tuple[bool, int, str]:
    truncation = 60
    objs = [arc_to_object(t) for t in _finite_arcs(-15, 15)]
    slots = range(-8, 9)
    rays = [(object_to_arc(PruferInd(slot)).m, _RAY_END) for slot in slots]
    n = 0
    for y in objs:
        t = object_to_arc(y)
        for slot, ray in zip(slots, rays):
            try:
                tower = build_hom_tower(y, slot, truncation)
                got = truncated_colim(tower).value
            except TowerUnstableError as exc:
                return False, n, f"unstable tower at {y}, slot {slot}: {exc}"
            for k in _edge_stages(tower.dims):
                if tower.dims[k] != hom_dim(y, FiniteInd(slot - k, k)).value:
                    return False, n, f"dim mismatch at {y}, slot {slot}, stage {k}"
                n += 1
            want = hom_dim(y, PruferInd(slot)).value
            if got != want:
                return False, n, f"colim mismatch at {y}, slot {slot}"
            n += 1
            if (_region(t.a, t.b, *ray) is not None) != wedge_contains(slot, y):
                return False, n, f"ray read against the wedge mismatch at {y}, slot {slot}"
            n += 1
    return True, n, f"colimits against the wedge formula, dims against hom_dim, N={truncation}"


def suite_inverse_tower_vs_wedge() -> tuple[bool, int, str]:
    truncation = 60
    objs = [arc_to_object(t) for t in _finite_arcs(-15, 15)]
    slots = range(-8, 9)
    rays = [(object_to_arc(PruferInd(slot)).m, _RAY_END) for slot in slots]
    n = 0
    for y in objs:
        t = object_to_arc(y)
        for slot, ray in zip(slots, rays):
            try:
                tower = build_inverse_hom_tower(y, slot, truncation)
                got = truncated_lim(tower).value
            except TowerUnstableError as exc:
                return False, n, f"unstable tower at {y}, slot {slot}: {exc}"
            for k in _edge_stages(tower.dims):
                if tower.dims[k] != hom_dim(FiniteInd(slot - k, k), y).value:
                    return False, n, f"dim mismatch at {y}, slot {slot}, stage {k}"
                n += 1
            want = 1 if wedge_contains(slot + 2, y) else 0
            if got != want:
                return False, n, f"lim mismatch at {y}, slot {slot}"
            n += 1
            if got != hom_dim(PruferInd(slot), y).value:
                return False, n, f"lim against hom_dim mismatch at {y}, slot {slot}"
            n += 1
            if (_region(*ray, t.a, t.b) is not None) != want:
                return False, n, f"ray read against the wedge mismatch at {y}, slot {slot}"
            n += 1
    return True, n, f"limits against wedge membership, dims against hom_dim, N={truncation}"


def suite_prufer_prufer_tower() -> tuple[bool, int, str]:
    truncation = 30
    slots = range(-6, 7)
    rays = [(object_to_arc(PruferInd(slot)).m, _RAY_END) for slot in slots]
    n = 0
    for m, left in zip(slots, rays):
        for s, right in zip(slots, rays):
            try:
                got = prufer_prufer_tower(m, s, truncation)
            except TowerUnstableError as exc:
                return False, n, f"unstable at ({m}, {s}): {exc}"
            want = 1 if s <= m else 0
            if got != want:
                return False, n, f"double tower mismatch at ({m}, {s})"
            n += 1
            if got != hom_dim(PruferInd(m), PruferInd(s)).value:
                return False, n, f"double tower against hom_dim mismatch at ({m}, {s})"
            n += 1
            if (_region(*left, *right) is not None) != want:
                return False, n, f"ray read against s <= m mismatch at ({m}, {s})"
            n += 1
    return True, n, f"nested limit-to-limit towers, truncation {truncation}"


def _trailing(seq: list) -> int:
    # Where the trailing run of entries equal to the last one starts.
    k = len(seq) - 1
    while k > 0 and seq[k - 1] == seq[-1]:
        k -= 1
    return k


def _tail_read(dims: list, flags: list, truncation: int):
    # The (value, stable_from) of a tower, or None where it must raise:
    # the last ceil(N / 4) entries, at least one, and as many of the
    # flags must lie in the trailing runs.  The value is 1 when the last
    # entry is 1 and the last flag, if any, is set.
    quarter = max(1, (truncation + 3) // 4)
    sd = _trailing(dims)
    sf = _trailing(flags) if flags else 0
    if sd > len(dims) - quarter or (flags and sf > len(flags) - quarter):
        return None
    return (1 if dims[-1] == 1 and (not flags or flags[-1]) else 0), max(sd, sf)


def _plus_steps(answers: list) -> list[bool]:
    # Flag k of a row of hom_dim answers: the composite criterion, the
    # row in the plus region at stages k and k + 1.
    plus = [d.witness.region == "plus" for d in answers]
    return [p and q for p, q in zip(plus, plus[1:])]


def _built(tower: object, read: Callable) -> tuple:
    # The dims, the flags and the (value, stable_from) read of a built
    # tower, the read None when it raises.
    try:
        got = read(tower)
    except TowerUnstableError:
        return tower.dims, tower.transition_nonzero, None
    return tower.dims, tower.transition_nonzero, (got.value, got.stable_from)


def _nested_by_rows(m: int, n: int, truncation: int):
    # The nested tower from hom_dim alone: every inner row over 2N + 1
    # stages, read as a direct tower, then the outer row of their
    # colimits, flagged where two neighbours are 1, read as an inverse
    # tower.  None where it must raise.
    inner = [FiniteInd(n - k, k) for k in range(2 * truncation + 1)]
    dims = []
    for j in range(truncation + 1):
        outer = FiniteInd(m - j, j)
        answers = [hom_dim(outer, s) for s in inner]
        read = _tail_read([d.value for d in answers], _plus_steps(answers), 2 * truncation)
        if read is None:
            return None
        dims.append(read[0])
    flags = [a == 1 and b == 1 for a, b in zip(dims, dims[1:])]
    read = _tail_read(dims, flags, truncation)
    return None if read is None else read[0]


def suite_tower_exactness() -> tuple[bool, int, str]:
    # Towers against rows of hom_dim answers read stage by stage, with
    # the trailing runs found by a scan and the quarter rule written out
    # here: the dims, the flags, the value, stable_from, and whether the
    # tower raises.  The truncations 30 and 34 are not multiples of 4,
    # and the grid runs past the exactness bound j <= N - ceil(N / 4),
    # so some towers answer and some raise.  An inverse tower's flags
    # come from its Serre-dual row, Hom(Sigma^-2 target, stage).
    n = 0
    for truncation in (30, 34):
        bound = truncation - (truncation + 3) // 4
        indices = (0, 1, 2, 5, truncation // 2, bound, truncation + 2)
        objs = [(y, shift_object(y, -2)) for y in (FiniteInd(0, k) for k in indices)]
        for slot in range(-4, truncation + 4):
            stages = [FiniteInd(slot - k, k) for k in range(truncation + 1)]
            for y, dual in objs:
                forward = [hom_dim(y, s) for s in stages]
                towers = (
                    ("direct", build_hom_tower, truncated_colim, forward, forward),
                    (
                        "inverse",
                        build_inverse_hom_tower,
                        truncated_lim,
                        [hom_dim(s, y) for s in stages],
                        [hom_dim(dual, s) for s in stages],
                    ),
                )
                for kind, build, read, row, flag_row in towers:
                    dims = [d.value for d in row]
                    flags = _plus_steps(flag_row)
                    want = (tuple(dims), tuple(flags), _tail_read(dims, flags, truncation))
                    if _built(build(y, slot, truncation), read) != want:
                        return False, n, f"{kind} tower of {y} at slot {slot}, N={truncation}"
                    n += 1
        # m - n around the outer tower's raise border and around the
        # border past which an inner tower raises
        half = (truncation + 1) // 2
        for gap in [*range(bound - 3, bound + 4), *range(-half - 6, -half + 1)]:
            try:
                got = prufer_prufer_tower(gap, 0, truncation)
            except TowerUnstableError:
                got = None
            if got != _nested_by_rows(gap, 0, truncation):
                return False, n, f"nested tower at gap {gap}, N={truncation}"
            n += 1
    return True, n, "direct, inverse and nested towers against hom_dim rows, N=30 and 34"


def suite_classification_fixtures() -> tuple[bool, int, str]:
    fixtures = [
        (
            ArcConfiguration([Fan(0)], [0]),
            Verdict.CLUSTER_TILTING,
            None,
        ),
        (
            ArcConfiguration([Zigzag(0)], []),
            Verdict.WCT_LOCALLY_FINITE,
            None,
        ),
        (
            ArcConfiguration([Fan(0)], []),
            Verdict.NOT_WCT,
            ReasonKind.MISSING_INFINITE_ARC,
        ),
        (
            ArcConfiguration([Explicit([FiniteArc(0, 2)])], []),
            Verdict.NOT_WCT,
            ReasonKind.ADDABLE_ARC,
        ),
        (
            ArcConfiguration([SplitFan(0, 3)], []),
            Verdict.NOT_WCT,
            ReasonKind.NOT_LOCALLY_FINITE_NO_INFINITE_ARC,
        ),
        (
            ArcConfiguration([Fan(0)], [1]),
            Verdict.NOT_WCT,
            ReasonKind.CROSSING_PAIR,
        ),
        (
            ArcConfiguration([Fan(0)], [0, 5]),
            Verdict.NOT_WCT,
            ReasonKind.MULTIPLE_INFINITE_ARCS,
        ),
        # next to the certified shapes: a Zigzag with a ray, unequal feet
        (
            ArcConfiguration([Zigzag(0)], [0]),
            Verdict.NOT_WCT,
            ReasonKind.CROSSING_PAIR,
        ),
        (
            ArcConfiguration([SplitFan(0, 3)], [0]),
            Verdict.NOT_WCT,
            ReasonKind.FOUNTAIN_MISMATCH,
        ),
    ]
    n = 0
    for config, want_verdict, want_reason in fixtures:
        cls = classify(config, (-12, 12))
        if cls.verdict is not want_verdict:
            return False, n, f"fixture {n}: got {cls.verdict.value}"
        if want_reason is not None and cls.reason.kind is not want_reason:
            return False, n, f"fixture {n}: got reason {cls.reason.kind.value}"
        n += 1
    # pinned witness for the crossing fixture
    cls = classify(ArcConfiguration([Fan(0)], [1]), (-12, 12))
    if cls.reason.crossing != (FiniteArc(0, 2), InfiniteArc(1)):
        return False, n, f"unexpected crossing witness {cls.reason.crossing}"
    n += 1
    return True, n, "nine verdict fixtures plus a pinned witness"


def suite_overarc_witnesses() -> tuple[bool, int, str]:
    # strong_overarc is a closed form; here every answer is compared with
    # the least enclosing arc of a window materialization, and the
    # antichain is re-checked through hom_dim.
    n = 0
    centres = (-4, 0, 3)
    for c in centres:
        config = ArcConfiguration([Zigzag(c)], [])
        have = set(materialize(config, (c - 24, c + 24)))
        targets: list = list(materialize(config, (c - 10, c + 10)))
        targets += range(c - 10, c + 11)
        for t in targets:
            p, q = (t.a, t.b) if isinstance(t, FiniteArc) else (t, t)
            over = strong_overarc(config, t)
            if over not in have or not (over.a < p and over.b > q):
                return False, n, f"Zigzag({c}): bad overarc {over} for {t}"
            # an enclosing arc no longer than `over` lies in this window
            window = (q + 1 - over.span, p - 1 + over.span)
            least = min(
                (u for u in materialize(config, window) if u.a < p and u.b > q),
                key=lambda u: (u.span, u.a),
            )
            if over != least:
                return False, n, f"Zigzag({c}): {over} for {t}, least is {least}"
            n += 1
        seed = FiniteArc(c - 1, c + 1)
        chain = overarc_antichain(config, seed, 20)
        if len(chain) != 20:
            return False, n, "antichain came back short"
        limit = PruferInd(-seed.a - 2)
        for i, t1 in enumerate(chain):
            if hom_dim(arc_to_object(t1), limit).value != 1:
                return False, n, f"no map from {t1} to the limit object"
            n += 1
            for t2 in chain[i + 1 :]:
                o1, o2 = arc_to_object(t1), arc_to_object(t2)
                if hom_dim(o1, o2).value != 0 or hom_dim(o2, o1).value != 0:
                    return False, n, f"comparable pair {t1}, {t2}"
                n += 1
    shown = ", ".join(str(c) for c in centres)
    return True, n, f"least overarcs and length-20 antichains of Zigzag({shown})"


def suite_graded_duality() -> tuple[bool, int, str]:
    rng = random.Random(20260822)
    n = 0
    for _ in range(1000):
        kind = rng.randrange(3)
        shift = rng.randint(-30, 30)
        if kind == 0:
            m = FiniteCyclic(shift, rng.randint(1, 40))
        elif kind == 1:
            m = PolyFree(shift)
        else:
            m = PruferMod(shift)
        if dual_descriptor(dual_descriptor(m)) != m:
            return False, n, f"dual not involutive on {m}"
        d = degreewise_dims(m, (-50, 50))
        dd = degreewise_dims(dual_descriptor(m), (-50, 50))
        if dd != list(reversed(d)):
            return False, n, f"support mirror fails on {m}"
        n += 1
    for i in range(-20, 21):
        for idx in range(0, 21):
            if f_image(FiniteInd(i, idx)) != FiniteCyclic(i, idx + 1):
                return False, n, f"image formula fails at ({i}, {idx})"
            want = [1 if -i - idx <= j <= -i else 0 for j in range(-50, 51)]
            if degreewise_dims(f_image(FiniteInd(i, idx)), (-50, 50)) != want:
                return False, n, f"support fails at ({i}, {idx})"
            n += 1
    for slot in range(-20, 21):
        if f_image(PruferInd(slot)) != PruferMod(slot):
            return False, n, f"limit image fails at slot {slot}"
        want = [1 if j >= -slot else 0 for j in range(-50, 51)]
        if degreewise_dims(PruferMod(slot), (-50, 50)) != want:
            return False, n, f"limit support fails at slot {slot}"
        n += 1
    return True, n, "involution, support mirror, image formulas"


def suite_shift_equivariance() -> tuple[bool, int, str]:
    # Finite x finite pairs compare the hom kernel on the arcs of a, b and
    # of their shifts.  The arc translation and every pair with a limit
    # object go through the public functions.
    finite = [arc_to_object(t) for t in _finite_arcs(-15, 15)]
    limits = [PruferInd(m) for m in range(-8, 9)]
    objs = finite + limits
    ends = [(x.a, x.b) for x in map(object_to_arc, finite)]
    n = 0
    for t in range(-5, 6):
        for a in objs:
            arc_route = translate_arc(object_to_arc(a), -t)
            if object_to_arc(shift_object(a, t)) != arc_route:
                return False, n, f"translation mismatch at {a}, t={t}"
            n += 1
        shifted = [shift_object(o, t) for o in objs]
        moved = [(x.a, x.b) for x in map(object_to_arc, shifted[: len(finite)])]
        for a, (i, j), (si, sj) in zip(finite, ends, moved):
            for b, (m, k), (sm, sk) in zip(finite, ends, moved):
                if (_region(i, j, m, k) is None) is not (_region(si, sj, sm, sk) is None):
                    return False, n, f"hom not shift-stable at {a}, {b}, t={t}"
                n += 1
        shifted_limits = shifted[len(finite) :]
        for a, sa in zip(objs, shifted):
            pairs = zip(objs, shifted) if isinstance(a, PruferInd) else zip(limits, shifted_limits)
            for b, sb in pairs:
                if hom_dim(a, b).value != hom_dim(sa, sb).value:
                    return False, n, f"hom not shift-stable at {a}, {b}, t={t}"
                n += 1
    return True, n, "arc translation and hom invariance under shift"


def suite_family_maximality() -> tuple[bool, int, str]:
    # classify certifies Fan, Zigzag and SplitFan maximal without a
    # search; this re-checks that theorem over windows.  Members come
    # from materialize and every decision is a plain arcs_cross, never
    # the closed-form crossing witnesses classify uses.  The closed-form
    # membership _is_member and _pairs_of_span must list exactly
    # the members materialize lists, which is written apart from them.
    windows = (8, 12, 16)
    families: list = [(Fan(v), v) for v in range(-3, 4)]
    families += [(Zigzag(c), c) for c in range(-3, 4)]
    families += [(SplitFan(p, p + d), p) for p in (-3, 0, 2) for d in range(5)]
    n = 0
    for g, c in families:
        for w in windows:
            lo, hi = c - w, c + w
            members = materialize(ArcConfiguration([g]), (lo, hi))
            have = set(members)
            for cand in _finite_arcs(lo, hi):
                if _is_member(g, cand.a, cand.b) is not (cand in have):
                    return False, n, f"{g}: _is_member wrong on {cand}"
                n += 1
            for k in range(2, hi - lo + 1):
                inside = [(a, b) for a, b in _pairs_of_span(g, k) if lo <= a and b <= hi]
                if inside != [(t.a, t.b) for t in members if t.span == k]:
                    return False, n, f"{g}: _pairs_of_span({k}) wrong in window +-{w}"
                n += 1
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    if arcs_cross(x, y) is _CROSS:
                        return False, n, f"{g}: members {x} and {y} cross"
                    n += 1
            # in a window centred on the family, a non-member's crossing
            # partner reaches at most one step past its ends, so the
            # candidates keep a margin of two
            for cand in _finite_arcs(lo + 2, hi - 2):
                if cand in have:
                    continue
                if not any(arcs_cross(cand, t) is _CROSS for t in members):
                    return False, n, f"{g}: {cand} crosses no member in window +-{w}"
                n += 1
    widths = ", ".join(str(w) for w in windows)
    return True, n, f"{len(families)} families against materialize, half-width {widths}"


ALL_SUITES: list[tuple[str, Callable[[], tuple[bool, int, str]]]] = [
    ("crossing-ext-bridge", suite_crossing_ext_bridge),
    ("serre-duality", suite_serre_duality),
    ("tower-colim-vs-wedge", suite_tower_colim_vs_wedge),
    ("inverse-tower-vs-wedge", suite_inverse_tower_vs_wedge),
    ("prufer-prufer-tower", suite_prufer_prufer_tower),
    ("classification-fixtures", suite_classification_fixtures),
    ("overarc-witnesses", suite_overarc_witnesses),
    ("graded-duality", suite_graded_duality),
    ("shift-equivariance", suite_shift_equivariance),
    ("family-maximality", suite_family_maximality),
    ("tower-exactness", suite_tower_exactness),
]


def run_suite(name: str, fn: Callable[[], tuple[bool, int, str]]) -> SuiteResult:
    start = time.perf_counter()
    passed, checked, detail = fn()
    return SuiteResult(name, passed, checked, detail, time.perf_counter() - start)


def run_all() -> list[SuiteResult]:
    """Run every suite of ALL_SUITES, in order, as registered."""
    return [run_suite(name, fn) for name, fn in ALL_SUITES]
