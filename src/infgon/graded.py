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

Every tower is built from region rows of the integer hom kernel, each
computed once: one kernel call per (probe, stage) pair gives both the
0/1 dimension and the plus-region test, and one call per slice step
gives the irreducible stage_k -> stage_{k+1}, whatever the probe.  A
transition flag reads the composite criterion off these rows.  The
nested tower keeps its inner rows, and its outer ladder reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil
from typing import Optional, Sequence, Union

from .quiver import (
    FiniteInd,
    IndObject,
    _arc,
    _finite_arc,
    _region,
)

__all__ = [
    "FiniteCyclic",
    "PolyFree",
    "PruferMod",
    "GradedModuleDescriptor",
    "f_image",
    "dual_descriptor",
    "degreewise_dims",
    "TowerDirection",
    "HomTower",
    "TowerUnstableError",
    "TowerColimit",
    "TowerLimit",
    "build_hom_tower",
    "build_inverse_hom_tower",
    "truncated_colim",
    "truncated_lim",
    "prufer_prufer_tower",
]


@dataclass(frozen=True, slots=True)
class FiniteCyclic:
    shift: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


@dataclass(frozen=True, slots=True)
class PolyFree:
    shift: int


@dataclass(frozen=True, slots=True)
class PruferMod:
    shift: int


GradedModuleDescriptor = Union[FiniteCyclic, PolyFree, PruferMod]


def f_image(x: IndObject) -> GradedModuleDescriptor:
    """Graded module attached to an indecomposable: a finite object of
    index n maps to a cyclic torsion module of length n + 1 at the same
    shift; a limit object maps to the divisible module at its slot."""
    if isinstance(x, FiniteInd):
        return FiniteCyclic(x.shift, x.index + 1)
    return PruferMod(x.slot)


def dual_descriptor(m: GradedModuleDescriptor) -> GradedModuleDescriptor:
    """Graded dual.  Mirrors support through degree 0; an involution."""
    if isinstance(m, FiniteCyclic):
        return FiniteCyclic(-m.shift - m.length + 1, m.length)
    if isinstance(m, PolyFree):
        return PruferMod(-m.shift)
    return PolyFree(-m.shift)


def degreewise_dims(m: GradedModuleDescriptor, degrees: tuple[int, int]) -> list[int]:
    """Dimensions of the module in each degree of the inclusive range."""
    lo, hi = degrees
    if lo > hi:
        raise ValueError(f"empty degree range {degrees}")

    def dim_at(i: int) -> int:
        if isinstance(m, FiniteCyclic):
            return 1 if -m.shift - m.length + 1 <= i <= -m.shift else 0
        if isinstance(m, PolyFree):
            return 1 if i <= -m.shift else 0
        return 1 if i >= -m.shift else 0

    return [dim_at(i) for i in range(lo, hi + 1)]


class TowerDirection(Enum):
    DIRECT = "direct"
    INVERSE = "inverse"


class TowerUnstableError(RuntimeError):
    """The truncation is too short: the final quarter of the tower has
    not settled, so no limit can honestly be reported."""


@dataclass(frozen=True, slots=True)
class HomTower:
    """A truncated tower of hom dimensions along a slice.

    dims[i] is the 0/1 dimension at stage i.  transition_nonzero[i]
    flags whether the map between stages i and i+1 (in the tower's
    direction) is nonzero; a flag may only be set when both adjacent
    dimensions are 1.
    """

    dims: tuple[int, ...]
    transition_nonzero: tuple[bool, ...]
    direction: TowerDirection

    def __post_init__(self) -> None:
        if len(self.transition_nonzero) != len(self.dims) - 1:
            raise ValueError("need exactly one transition flag per adjacent pair")
        if any(d not in (0, 1) for d in self.dims):
            raise ValueError("tower dimensions must be 0 or 1")
        for i, flag in enumerate(self.transition_nonzero):
            if flag and not (self.dims[i] == 1 and self.dims[i + 1] == 1):
                raise ValueError(
                    f"transition {i} flagged nonzero between dimensions "
                    f"{self.dims[i]} and {self.dims[i + 1]}"
                )


@dataclass(frozen=True, slots=True)
class TowerColimit:
    value: int
    stable_from: int


@dataclass(frozen=True, slots=True)
class TowerLimit:
    value: int
    stable_from: int
    lim1_vanishes: bool = True


def _check_ints(func: str, **args: object) -> None:
    # Once per public call, before any stage is built.
    for name, x in args.items():
        if not isinstance(x, int):
            raise TypeError(f"{func} takes an int {name}, {name} is {type(x).__name__}")


def _tower(
    dims: tuple[int, ...], flags: tuple[bool, ...], direction: TowerDirection
) -> HomTower:
    # The kernel path: dims are 0/1 and a flag is set only between two
    # nonzero stages by construction, so the checks of
    # HomTower.__post_init__ are skipped.
    tower = object.__new__(HomTower)
    object.__setattr__(tower, "dims", dims)
    object.__setattr__(tower, "transition_nonzero", flags)
    object.__setattr__(tower, "direction", direction)
    return tower


def _slice_arcs(slice_start: int, truncation: int) -> list[tuple[int, int]]:
    # Stage k of the slice based at slice_start is the object with shift
    # slice_start - k and index k; its arc is (-slice_start - 2, k - slice_start).
    return [_arc(slice_start - k, k) for k in range(truncation + 1)]


def _probe_row(y: tuple[int, int], stages: list[tuple[int, int]]) -> list[Optional[str]]:
    # The region of Hom(y, stage_k) for every stage: one kernel call each.
    i, j = y
    return [_region(i, j, m, n) for m, n in stages]


def _step_row(stages: list[tuple[int, int]]) -> list[bool]:
    # Whether each irreducible stage_k -> stage_{k+1} lies in the plus
    # region: one kernel call per slice step, whatever the probe.
    return [_region(i, j, m, n) == "plus" for (i, j), (m, n) in zip(stages, stages[1:])]


def _dims(row: list[Optional[str]]) -> tuple[int, ...]:
    return tuple([0 if r is None else 1 for r in row])


def _flags(plus: list[bool], step: list[bool]) -> tuple[bool, ...]:
    # Flag k is the TRUE criterion of composite_nonzero for
    # probe -> stage_k -> stage_{k+1}: both stages in the plus region of
    # the probe, and the step in the plus region of stage_k.  Its two
    # raises cannot fire, as a plus region is a nonzero hom.
    return tuple([a and s and b for a, s, b in zip(plus, step, plus[1:])])


def build_hom_tower(y: FiniteInd, slice_start: int, truncation: int) -> HomTower:
    """Direct tower Hom(y, -) along the slice based at slice_start.

    Stage i is the slice object with shift slice_start - i and index i.
    Transition flags use the composite criterion: the stage map sends a
    nonzero y -> stage_i to its composite with the irreducible
    stage_i -> stage_{i+1}, so the flag is set exactly when that
    composite is certified nonzero.  Raises TypeError when y is not a
    FiniteInd or slice_start or truncation is not an int.
    """
    _check_ints("build_hom_tower", slice_start=slice_start, truncation=truncation)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    y_arc = _finite_arc("build_hom_tower", "y", y)
    stages = _slice_arcs(slice_start, truncation)
    row = _probe_row(y_arc, stages)
    flags = _flags([r == "plus" for r in row], _step_row(stages))
    return _tower(_dims(row), flags, TowerDirection.DIRECT)


def build_inverse_hom_tower(
    target: FiniteInd, slice_start: int, truncation: int
) -> HomTower:
    """Inverse tower Hom(-, target) along the slice based at slice_start.

    The transition into stage j precomposes with the irreducible map
    stage_j -> stage_{j+1}.  Whether that precomposition is nonzero is
    decided through the dual direct tower: by Serre duality the inverse
    tower is the vector-space dual of the direct tower of the twice
    downshifted target, and a linear map is nonzero exactly when its
    transpose is.  Hence the flag at j tests the composite criterion for
    shift_object(target, -2) -> stage_j -> stage_{j+1}.  Raises
    TypeError when target is not a FiniteInd or slice_start or
    truncation is not an int.
    """
    _check_ints(
        "build_inverse_hom_tower", slice_start=slice_start, truncation=truncation
    )
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    i, j = _finite_arc("build_inverse_hom_tower", "target", target)
    stages = _slice_arcs(slice_start, truncation)
    dims = _dims([_region(m, n, i, j) for m, n in stages])
    # Shifting an object by -2 moves both ends of its arc up by 2.  By
    # Serre duality (the serre-duality suite) the dual row vanishes
    # exactly where dims does, so every flag has ones on both sides.
    dual = _probe_row((i + 2, j + 2), stages)
    flags = _flags([r == "plus" for r in dual], _step_row(stages))
    return _tower(dims, flags, TowerDirection.INVERSE)


def _stable_split(dims: Sequence[int], flags: Sequence[bool]) -> int:
    # First index from which dims and flags both sit at their final
    # constant values; raises if the settled tail is shorter than a
    # quarter of the truncation.
    n = len(dims) - 1
    quarter = max(1, ceil(n / 4))
    sd = n
    while sd > 0 and dims[sd - 1] == dims[-1]:
        sd -= 1
    sf = 0
    if flags:
        sf = len(flags) - 1
        while sf > 0 and flags[sf - 1] == flags[-1]:
            sf -= 1
    stable_from = max(sd, sf)
    # The last `quarter` entries and the last `quarter` flags must all
    # lie in the settled run.
    if sd > len(dims) - quarter or (flags and sf > len(flags) - quarter):
        raise TowerUnstableError(
            f"tower tail not settled: needs {quarter} constant trailing "
            f"entries and flags, settled only from entry {sd}, flag {sf}"
        )
    return stable_from


def _tail_value(dims: Sequence[int], flags: Sequence[bool]) -> int:
    if dims[-1] == 1 and (not flags or flags[-1]):
        return 1
    return 0


def _not_tower(func: str, tower: object) -> TypeError:
    return TypeError(f"{func} takes a HomTower, tower is {type(tower).__name__}")


def truncated_colim(tower: HomTower) -> TowerColimit:
    """Colimit of a direct tower read off its stable tail.

    1 exactly when the tail is constantly 1 with every tail transition
    nonzero (each class survives forever); 0 otherwise.  Raises
    TowerUnstableError when the tail has not settled, and TypeError when
    tower is not a HomTower.
    """
    if not isinstance(tower, HomTower):
        raise _not_tower("truncated_colim", tower)
    if tower.direction is not TowerDirection.DIRECT:
        raise ValueError("truncated_colim needs a direct tower")
    dims, flags = tower.dims, tower.transition_nonzero
    stable_from = _stable_split(dims, flags)
    return TowerColimit(_tail_value(dims, flags), stable_from)


def truncated_lim(tower: HomTower) -> TowerLimit:
    """Limit of an inverse tower read off its stable tail.

    1 exactly when the tail is constantly 1 with nonzero tail
    transitions; towers of 0/1-dimensional spaces have vanishing derived
    limit, which the value-1 case corroborates by the tail maps being
    isomorphisms (nonzero maps between one-dimensional spaces).  Raises
    TypeError when tower is not a HomTower.
    """
    if not isinstance(tower, HomTower):
        raise _not_tower("truncated_lim", tower)
    if tower.direction is not TowerDirection.INVERSE:
        raise ValueError("truncated_lim needs an inverse tower")
    dims, flags = tower.dims, tower.transition_nonzero
    stable_from = _stable_split(dims, flags)
    return TowerLimit(_tail_value(dims, flags), stable_from, lim1_vanishes=True)


def prufer_prufer_tower(m: int, n: int, truncation: int) -> int:
    """Hom dimension between the limit objects at slots m and n, computed
    purely from truncated towers of finite-level data.

    The outer layer is an inverse tower over the slice presenting slot
    m; its stage j value is the truncated colimit of the direct tower of
    Hom(stage_j, -) along the slice presenting slot n.  Outer transition
    flags check the ladder of composites stage_j -> stage_{j+1} ->
    inner stage over the settled part of both inner towers.  Inner
    towers run to twice the requested truncation so that they stay
    stable for outer stages near the end.

    Each (outer stage, inner stage) pair costs one kernel call: the
    inner towers are built from these rows, and the ladder reads rows j
    and j+1 over the settled part together with the outer step
    stage_j -> stage_{j+1}.  The caller must pick the truncation large
    enough relative to |m - n|: TowerUnstableError is raised when
    m - n > truncation - ceil(truncation / 4), and propagates from any
    tower that does not settle.  Raises TypeError when an argument is
    not an int.
    """
    _check_ints("prufer_prufer_tower", m=m, n=n, truncation=truncation)
    if truncation < 4:
        raise ValueError("truncation must be >= 4")
    # Outer stage j is nonzero only from j = m - n on.  Past this gap
    # the outer tower has not settled by its final quarter, and past
    # gap truncation every outer stage is 0, a settled but wrong answer.
    longest_gap = truncation - ceil(truncation / 4)
    if m - n > longest_gap:
        raise TowerUnstableError(
            f"truncation {truncation} is too short for slots {m} and {n}: "
            f"the nested tower settles only for m - n <= {longest_gap}"
        )
    stages = _slice_arcs(m, truncation)
    targets = _slice_arcs(n, 2 * truncation)
    target_step = _step_row(targets)
    plus_rows, dims, stable = [], [], []
    for y in stages:
        row = _probe_row(y, targets)
        plus = [r == "plus" for r in row]
        inner_dims, inner_flags = _dims(row), _flags(plus, target_step)
        stable.append(_stable_split(inner_dims, inner_flags))
        dims.append(_tail_value(inner_dims, inner_flags))
        plus_rows.append(plus)
    step = _step_row(stages)
    flags = []
    for j in range(truncation):
        ok = dims[j] == 1 and dims[j + 1] == 1 and step[j]
        if ok:
            start = max(stable[j], stable[j + 1])
            ok = all(plus_rows[j][start:]) and all(plus_rows[j + 1][start:])
        flags.append(ok)
    _stable_split(dims, flags)
    return _tail_value(dims, flags)
