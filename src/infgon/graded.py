"""Graded-module shadows of the indecomposables, and truncated towers.

A degree-lowering operator T acts in cohomological degree -1, and the
shift convention is (shifted M)^i = M^(i + 1).  Three descriptor shapes
cover everything the functor produces:

* FiniteCyclic(shift, length): a cyclic torsion module, length
  consecutive nonzero degrees, support [-shift - length + 1, -shift];
* PolyFree(shift): the free module on one generator, support
  (-infinity, -shift];
* PruferMod(shift): the divisible torsion module, support
  [-shift, +infinity).

Graded duality flips support through degree 0 and is an involution on
descriptors.

The tower machinery replays the limit arguments at the dimension level:
a hom tower records 0/1 dimensions along a slice together with flags
saying whether each transition map is nonzero, and the truncated
colimit/limit read the answer off the stable tail.  Because every space
is finite dimensional (0 or 1 here), the derived-limit obstruction for
inverse towers vanishes; truncated_lim asserts this by checking the tail
transitions are isomorphisms whenever the answer is 1.

Every tower is built from runs of the integer hom kernel: along a
slice the left end of the stage arc is fixed, so the nonzero stages of
a row form one run in one region, which one call of quiver._region_run
gives.  Every slice step lies in the plus region (the tests pin this
theorem), so a transition flag, the composite criterion, is set where
the row is plus at both ends.  A direct tower is one kernel call at any
truncation.  So is an inverse tower: by Serre duality its probe is the
twice downshifted target, and that one dual row gives both its dims
and its flags.  One closed form, _run_starts, gives from the run where
the trailing constant runs of the dims and of the flags start; a built
tower carries them, so its tail is read in constant time.  The nested
tower builds no row: it finds in closed form the first outer stage
whose inner tail has not settled and raises off that stage's run
starts, or reads its last two inner colimits off their runs, at most
two kernel calls at any truncation.
"""
from __future__ import annotations

from itertools import groupby
from math import ceil
from typing import Optional, Sequence, Union

from . import _EXPORTS
from .quiver import (
    FiniteInd,
    IndObject,
    PruferInd,
    _Enum,
    _Value,
    _arc,
    _check_ints,
    _finite_arc,
    _not_a,
    _region_run,
    _set,
)

__all__ = list(_EXPORTS["graded"])


class FiniteCyclic(_Value):
    __slots__ = __match_args__ = ("shift", "length")

    def __init__(self, shift: int, length: int) -> None:
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        _set(self, "shift", shift)
        _set(self, "length", length)


class PolyFree(_Value):
    __slots__ = __match_args__ = ("shift",)

    def __init__(self, shift: int) -> None:
        _set(self, "shift", shift)


class PruferMod(_Value):
    __slots__ = __match_args__ = ("shift",)

    def __init__(self, shift: int) -> None:
        _set(self, "shift", shift)


GradedModuleDescriptor = Union[FiniteCyclic, PolyFree, PruferMod]


def f_image(x: IndObject) -> GradedModuleDescriptor:
    """Graded module attached to an indecomposable: a finite object of
    index n maps to a cyclic torsion module of length n + 1 at the same
    shift; a limit object maps to the divisible module at its slot.
    Raises TypeError when x is not a FiniteInd or PruferInd."""
    if isinstance(x, FiniteInd):
        return FiniteCyclic(x.shift, x.index + 1)
    if isinstance(x, PruferInd):
        return PruferMod(x.slot)
    raise _not_a("a FiniteInd or PruferInd x", "x", x, "f_image")


def dual_descriptor(m: GradedModuleDescriptor) -> GradedModuleDescriptor:
    """Graded dual.  Mirrors support through degree 0; an involution.
    Raises TypeError when m is not a descriptor."""
    if isinstance(m, FiniteCyclic):
        return FiniteCyclic(-m.shift - m.length + 1, m.length)
    if isinstance(m, PolyFree):
        return PruferMod(-m.shift)
    if isinstance(m, PruferMod):
        return PolyFree(-m.shift)
    raise _not_a("a GradedModuleDescriptor m", "m", m, "dual_descriptor")


def degreewise_dims(m: GradedModuleDescriptor, degrees: tuple[int, int]) -> list[int]:
    """Dimensions of the module in each degree of the inclusive range.
    Raises TypeError when m is not a descriptor."""
    lo, hi = degrees
    if lo > hi:
        raise ValueError(f"empty degree range {degrees}")
    if isinstance(m, FiniteCyclic):  # the support, clipped to the range
        first, last = -m.shift - m.length + 1, -m.shift
    elif isinstance(m, PolyFree):
        first, last = lo, -m.shift
    elif isinstance(m, PruferMod):
        first, last = -m.shift, hi
    else:
        raise _not_a("a GradedModuleDescriptor m", "m", m, "degreewise_dims")
    return [1 if first <= i <= last else 0 for i in range(lo, hi + 1)]


class TowerDirection(_Enum):
    DIRECT = "direct"
    INVERSE = "inverse"


# The members as module globals: a read through the class costs a
# descriptor lookup on every build and read of a tower.
_DIRECT = TowerDirection.DIRECT
_INVERSE = TowerDirection.INVERSE


class TowerUnstableError(RuntimeError):
    """The truncation is too short: the final quarter of the tower has
    not settled, so no limit can honestly be reported."""


class HomTower(_Value):
    """A truncated tower of hom dimensions along a slice.

    dims[i] is the 0/1 dimension at stage i.  transition_nonzero[i] is
    set when the map between stages i and i+1 (in the tower's direction)
    is certified nonzero, and unset means "not certified", not "zero";
    a flag may only be set when both adjacent dimensions are 1.  The
    constructor stores both as tuples.

    The derived slot `_starts` holds where the trailing constant runs of
    dims and of transition_nonzero start (0 when there are no flags).
    The constructor finds them by one scan of each; build_hom_tower and
    build_inverse_hom_tower set them in closed form from their kernel
    run.  Either way a read of the tail needs no scan.
    """

    __slots__ = ("dims", "transition_nonzero", "direction", "_starts")
    __match_args__ = ("dims", "transition_nonzero", "direction")

    def __init__(
        self,
        dims: tuple[int, ...],
        transition_nonzero: tuple[bool, ...],
        direction: TowerDirection,
    ) -> None:
        if not isinstance(direction, TowerDirection):
            raise _not_a("a TowerDirection direction", "direction", direction, "HomTower")
        # copied first, so later changes to a caller's lists cannot reach it
        dims, transition_nonzero = tuple(dims), tuple(transition_nonzero)
        if len(transition_nonzero) != len(dims) - 1:
            raise ValueError("need exactly one transition flag per adjacent pair")
        if any(d not in (0, 1) for d in dims):
            raise ValueError("tower dimensions must be 0 or 1")
        for i, flag in enumerate(transition_nonzero):
            if flag and not (dims[i] == 1 and dims[i + 1] == 1):
                raise ValueError(
                    f"transition {i} flagged nonzero between dimensions "
                    f"{dims[i]} and {dims[i + 1]}"
                )
        _set(self, "dims", dims)
        _set(self, "transition_nonzero", transition_nonzero)
        _set(self, "direction", direction)
        _set(self, "_starts", _starts(dims, transition_nonzero))


class TowerColimit(_Value):
    __slots__ = __match_args__ = ("value", "stable_from")

    def __init__(self, value: int, stable_from: int) -> None:
        _set(self, "value", value)
        _set(self, "stable_from", stable_from)


class TowerLimit(_Value):
    __slots__ = __match_args__ = ("value", "stable_from", "lim1_vanishes")

    def __init__(self, value: int, stable_from: int, lim1_vanishes: bool = True) -> None:
        _set(self, "value", value)
        _set(self, "stable_from", stable_from)
        _set(self, "lim1_vanishes", lim1_vanishes)


def _run_row(
    region: Optional[str], lo: int, hi: int, count: int
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    # The dims and flags of a row from its kernel run.  Flag k is the
    # TRUE criterion of composite_nonzero for y -> stage_k -> stage_{k+1},
    # whose step is plus: the row is plus at k and at k + 1.
    if lo > hi:
        return (0,) * count, (False,) * (count - 1)
    # a plus run reaches the last stage
    true = hi - lo if region == "plus" else 0
    dims = (0,) * lo + (1,) * (hi - lo + 1) + (0,) * (count - 1 - hi)
    return dims, (False,) * (count - 1 - true) + (True,) * true


def _run_starts(region: Optional[str], lo: int, hi: int, count: int) -> tuple[int, int]:
    # Where the trailing runs of the dims and the flags of a row start,
    # from its kernel run.  The dims are 1 exactly on lo..hi: all 0 when
    # the run is empty, a trailing run of 1s from lo when it reaches the
    # last stage, else a trailing run of 0s from hi + 1.  The flags are
    # t = hi - lo Trues after count - 1 - t Falses when the run is plus,
    # no True otherwise: all False from 0 when t is 0, else the Trues
    # from count - 1 - t, which is 0 when every flag is True.
    t = hi - lo if region == "plus" and lo <= hi else 0
    sd = 0 if lo > hi else lo if hi == count - 1 else hi + 1
    return sd, count - 1 - t if t else 0


def _slice_tower(
    y: tuple[int, int], slice_start: int, truncation: int, direction: TowerDirection
) -> HomTower:
    # Hom(y, -) along the slice, whose stage k has the arc
    # (-slice_start - 2, k - slice_start).  Dims are 0/1 and flags sit
    # between nonzero stages by construction: HomTower's checks are skipped.
    count = truncation + 1
    run = _region_run(*y, *_arc(slice_start, 0), count)
    dims, flags = _run_row(*run, count)
    tower = object.__new__(HomTower)
    _set(tower, "dims", dims)
    _set(tower, "transition_nonzero", flags)
    _set(tower, "direction", direction)
    _set(tower, "_starts", _run_starts(*run, count))
    return tower


def build_hom_tower(y: FiniteInd, slice_start: int, truncation: int) -> HomTower:
    """Direct tower Hom(y, -) along the slice based at slice_start.

    Stage i is the slice object with shift slice_start - i and index i.
    Transition flags use the composite criterion: the stage map sends a
    nonzero y -> stage_i to its composite with the irreducible
    stage_i -> stage_{i+1}, so the flag is set exactly when that
    composite is certified nonzero.

    truncated_colim of the tower equals hom_dim(y, PruferInd(slice_start))
    whenever j = slice_start - y.shift, the wedge parameter of that
    witness, is at most truncation - max(1, ceil(truncation / 4)).  Past
    that bound the row may change after the last stage, and the read may
    raise or settle on a wrong value: at truncation 4 the tower of
    FiniteInd(4, 9) at slot 8 (j = 4) reads 0 where hom_dim is 1.
    Raises TypeError when y is not a FiniteInd or slice_start or
    truncation is not an int.
    """
    if not (type(slice_start) is int and type(truncation) is int):
        _check_ints("build_hom_tower", slice_start=slice_start, truncation=truncation)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    y_arc = _finite_arc("build_hom_tower", "y", y)
    return _slice_tower(y_arc, slice_start, truncation, _DIRECT)


def build_inverse_hom_tower(
    target: FiniteInd, slice_start: int, truncation: int
) -> HomTower:
    """Inverse tower Hom(-, target) along the slice based at slice_start.

    The transition into stage j precomposes with the irreducible map
    stage_j -> stage_{j+1}.  By Serre duality (the Serre functor is the
    double shift) Hom(stage_j, target) is the vector-space dual of
    Hom(shift_object(target, -2), stage_j), naturally in stage_j, and a
    linear map is nonzero exactly when its transpose is.  So the inverse
    tower is the direct tower of the twice downshifted target read in
    the inverse direction: its dims and its flags both come from that
    one dual row.  So a flag is set when the composite criterion
    certifies the dual map nonzero; unset is "not certified", even where
    composite_nonzero certifies the map itself (flag 0 at target
    FiniteInd(-6, 1), slice_start -5).

    truncated_lim of the tower is 1 exactly when target lies in the
    wedge at base slice_start + 2, whenever j = slice_start + 2 -
    target.shift, the wedge parameter, is at most truncation - max(1,
    ceil(truncation / 4)); past that bound the read may raise or settle
    on a wrong value, as for build_hom_tower.  Raises TypeError when
    target is not a FiniteInd or slice_start or truncation is not an int.
    """
    if not (type(slice_start) is int and type(truncation) is int):
        _check_ints("build_inverse_hom_tower", slice_start=slice_start, truncation=truncation)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    i, j = _finite_arc("build_inverse_hom_tower", "target", target)
    # Shifting an object by -2 moves both ends of its arc up by 2.
    return _slice_tower((i + 2, j + 2), slice_start, truncation, _INVERSE)


def _quarter(truncation: int) -> int:
    # How many trailing entries and flags a tower must hold constant.
    return max(1, ceil(truncation / 4))


def _run_start(seq: Sequence) -> int:
    # Index where the trailing run of entries equal to seq[-1] starts.
    return len(seq) - len(list(next(groupby(reversed(seq)))[1]))


def _starts(dims: Sequence[int], flags: Sequence[bool]) -> tuple[int, int]:
    # Where the trailing runs of dims and of flags start, by scanning.
    return _run_start(dims), _run_start(flags) if flags else 0


def _stable_split(count: int, starts: tuple[int, int]) -> int:
    # First index from which the dims and flags of a tower of count
    # stages, whose trailing runs start at starts, both sit at their
    # final values.  Raises unless the last `quarter` entries and the
    # last `quarter` of the count - 1 flags all lie in those runs.
    quarter = _quarter(count - 1)
    sd, sf = starts
    if sd > count - quarter or (count > 1 and sf > count - 1 - quarter):
        raise TowerUnstableError(
            f"tower tail not settled: needs {quarter} constant trailing "
            f"entries and flags, settled only from entry {sd}, flag {sf}"
        )
    return max(sd, sf)


def _first_unsettled_stage(
    left: int, tm: int, tn: int, q: int, r0: int, r1: int
) -> Optional[int]:
    # The least r in r0..r1 whose inner tail _region_run(left, r, tm, tn,
    # q + 1) has not settled, else None; settled means sd <= 1 and sf = 0
    # by _run_starts, dims 1..q and all q flags constant.  Minus at every
    # r when tm <= left - 2: lo is fixed, hi = min(r - 2 - tn, q) grows
    # with r, unsettled while max(lo, 1) <= hi <= q - [lo <= 1].  Plus
    # from r = tm + 2 on when left <= tm, with lo = max(r - tn, 0) and
    # hi = q: unsettled while 1 <= r - tn <= q.  No run when tm = left - 1.
    if tm <= left - 2:
        lo = max(left - tn, 0)
        r = max(r0, tn + 2 + max(lo, 1))
        if r <= r1 and max(lo, 1) <= min(r - 2 - tn, q) <= q - (lo <= 1):
            return r
    elif left <= tm:
        r = max(r0, tm + 2, tn + 1)
        if r <= min(r1, tn + q):
            return r
    return None


def _read_tail(
    func: str, tower: object, direction: TowerDirection, kind: str
) -> tuple[int, int]:
    # The value and stable_from of a tower of the given direction: 1
    # when the last dim is 1 and the last flag, if any, is set.
    if not isinstance(tower, HomTower):
        raise _not_a("a HomTower", "tower", tower, func)
    if tower.direction is not direction:
        raise ValueError(f"{func} needs {kind} tower")
    dims, flags = tower.dims, tower.transition_nonzero
    stable_from = _stable_split(len(dims), tower._starts)
    return (1 if dims[-1] == 1 and (not flags or flags[-1]) else 0), stable_from


def truncated_colim(tower: HomTower) -> TowerColimit:
    """Colimit of a direct tower read off its stable tail.

    1 exactly when the tail is constantly 1 with every tail transition
    nonzero (each class survives forever); 0 otherwise.  Raises
    TowerUnstableError when the tail has not settled, and TypeError when
    tower is not a HomTower.

    The tail is read off the run starts the tower carries, so a read
    costs the same at any truncation.
    """
    return TowerColimit(*_read_tail("truncated_colim", tower, _DIRECT, "a direct"))


def truncated_lim(tower: HomTower) -> TowerLimit:
    """Limit of an inverse tower read off its stable tail.

    1 exactly when the tail is constantly 1 with nonzero tail
    transitions; towers of 0/1-dimensional spaces have vanishing derived
    limit, which the value-1 case corroborates by the tail maps being
    isomorphisms (nonzero maps between one-dimensional spaces).  Raises
    TypeError when tower is not a HomTower.
    """
    return TowerLimit(*_read_tail("truncated_lim", tower, _INVERSE, "an inverse"))


def prufer_prufer_tower(m: int, n: int, truncation: int) -> int:
    """Hom dimension between the limit objects at slots m and n, computed
    purely from truncated towers of finite-level data.

    The outer layer is an inverse tower over the slice presenting slot
    m; its stage j value is the truncated colimit of the direct tower of
    Hom(stage_j, -) along the slice presenting slot n.  Outer transition
    flag j is set when both inner colimits j and j+1 are 1: the outer
    step stage_j -> stage_{j+1} always lies in the plus region.  Inner
    towers run to twice the requested truncation so that they stay
    stable for outer stages near the end.

    An inner tower's settlement and value depend only on its last q =
    ceil(truncation / 2) dims and flags, one kernel call over its last
    q + 1 stages.  Which outer stages have an unsettled tail follows in
    closed form from that call's case split: the first such stage raises
    as truncated_colim would, off the run starts of its full inner
    tower, one call; otherwise the value is read off the runs of the
    last two outer stages.  No stage is scanned, no row is built, and a
    call makes at most 2 kernel calls at any truncation.

    The gap guard is the outer tower's settledness rule.  When n <= m
    the outer dims are 0 before stage m - n and 1 from there on; when
    n > m they are all 0, or an inner tower has already raised.  So the
    outer dims and flags both settle from stage max(m - n, 0), and they
    hold a final quarter exactly when m - n <= truncation -
    ceil(truncation / 4).  TowerUnstableError is raised past that gap,
    and propagates from any inner tower that does not settle; the
    caller picks the truncation large enough relative to |m - n|.
    Raises TypeError when an argument is not an int.
    """
    if not (type(m) is int and type(n) is int and type(truncation) is int):
        _check_ints("prufer_prufer_tower", m=m, n=n, truncation=truncation)
    if truncation < 4:
        raise ValueError("truncation must be >= 4")
    # Outer stage j is nonzero only from j = m - n on.  Past this gap
    # the outer tower has not settled by its final quarter, and past
    # gap truncation every outer stage is 0, a settled but wrong answer.
    longest_gap = truncation - _quarter(truncation)
    if m - n > longest_gap:
        raise TowerUnstableError(
            f"truncation {truncation} is too short for slots {m} and {n}: "
            f"the nested tower settles only for m - n <= {longest_gap}"
        )
    # Outer stage j has the arc (-m - 2, j - m) and the inner tail the
    # arc (-n - 2, start - n): one kernel run over the last q + 1 inner
    # stages reads an outer stage, with no row.
    q = _quarter(2 * truncation)
    start = 2 * truncation - q
    tm, tn = _arc(n - start, start)
    left, r1 = -m - 2, truncation - m
    r = _first_unsettled_stage(left, tm, tn, q, -m, r1)
    if r is not None:
        # Not settled: the full inner tower raises with its own split.
        count = 2 * truncation + 1
        _stable_split(count, _run_starts(*_region_run(left, r, *_arc(n, 0), count), count))
    # Every tail has settled, so an inner colimit is 1 exactly when its
    # run is plus and not empty.  Every outer step is plus, and the
    # ladder of composites stage_j -> stage_{j+1} -> inner stage cannot
    # turn a flag off: two inner colimits of 1 need rows j and j + 1 plus
    # at both ends of every settled inner flag.  So the last outer flag,
    # the tower's value, is set when the last two dims are 1.
    for r in (r1 - 1, r1):
        region, lo, hi = _region_run(left, r, tm, tn, q + 1)
        if region != "plus" or lo > hi:
            return 0
    return 1
