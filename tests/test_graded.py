"""Graded-module images, duality, and hom towers.

The towers are the independent recomputation of hom dimensions into
Pruefer objects: a direct tower's stabilized colimit must reproduce the
wedge formula, an inverse tower's limit the shifted wedge formula, and
the nested tower-of-towers the slot comparison for Pruefer pairs.
"""

import copy
import pickle
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    FiniteCyclic,
    FiniteInd,
    HomTower,
    PolyFree,
    PruferInd,
    PruferMod,
    TowerColimit,
    TowerDirection,
    TowerLimit,
    TowerUnstableError,
    Tristate,
    build_hom_tower,
    build_inverse_hom_tower,
    composite_nonzero,
    degreewise_dims,
    dual_descriptor,
    f_image,
    hom_dim,
    prufer_prufer_tower,
    truncated_colim,
    truncated_lim,
    wedge_contains,
)
from infgon import graded
from infgon.quiver import _arc, _region


class TestFImage:
    def test_frozen(self):
        assert f_image(FiniteInd(0, 0)) == FiniteCyclic(0, 1)
        assert f_image(FiniteInd(3, 2)) == FiniteCyclic(3, 3)
        assert f_image(PruferInd(5)) == PruferMod(5)

    @given(st.integers(-30, 30), st.integers(0, 20), st.integers(-8, 8))
    def test_respects_shift(self, s, d, t):
        shifted = f_image(FiniteInd(s + t, d))
        plain = f_image(FiniteInd(s, d))
        assert shifted == FiniteCyclic(plain.shift + t, plain.length)

    @given(st.integers(-30, 30), st.integers(0, 20))
    def test_length_is_total_dimension(self, s, d):
        img = f_image(FiniteInd(s, d))
        lo, hi = -s - img.length - 2, -s + 2
        assert sum(degreewise_dims(img, (lo, hi))) == d + 1


class TestDuality:
    def test_frozen(self):
        assert dual_descriptor(FiniteCyclic(0, 1)) == FiniteCyclic(0, 1)
        assert dual_descriptor(FiniteCyclic(-3, 3)) == FiniteCyclic(1, 3)
        assert dual_descriptor(PolyFree(-4)) == PruferMod(4)
        assert dual_descriptor(PruferMod(-4)) == PolyFree(4)

    @given(st.integers(-30, 30), st.integers(1, 20))
    def test_involution_finite(self, s, length):
        m = FiniteCyclic(s, length)
        assert dual_descriptor(dual_descriptor(m)) == m

    @given(st.integers(-30, 30))
    def test_involution_infinite(self, s):
        for m in (PolyFree(s), PruferMod(s)):
            assert dual_descriptor(dual_descriptor(m)) == m

    @given(st.integers(-15, 15), st.integers(1, 10))
    def test_support_mirror_finite(self, s, length):
        m = FiniteCyclic(s, length)
        w = 30
        assert degreewise_dims(dual_descriptor(m), (-w, w)) == list(
            reversed(degreewise_dims(m, (-w, w)))
        )

    @given(st.integers(-15, 15))
    def test_support_mirror_infinite(self, s):
        w = 30
        for m in (PolyFree(s), PruferMod(s)):
            assert degreewise_dims(dual_descriptor(m), (-w, w)) == list(
                reversed(degreewise_dims(m, (-w, w)))
            )


class TestDegreewise:
    def test_frozen_singleton(self):
        assert degreewise_dims(FiniteCyclic(0, 1), (-2, 2)) == [0, 0, 1, 0, 0]

    @given(st.integers(-10, 10))
    def test_length_two_has_two_ones(self, s):
        dims = degreewise_dims(FiniteCyclic(s, 2), (-15, 15))
        assert sum(dims) == 2

    def test_prufer_mirrors_poly_free_at_zero(self):
        left = degreewise_dims(PolyFree(0), (-5, 5))
        right = degreewise_dims(PruferMod(0), (-5, 5))
        assert left == list(reversed(right))
        assert left == [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]

    def test_finite_cyclic_support_interval(self):
        # length 3 based at shift 1 occupies degrees -3..-1
        assert degreewise_dims(FiniteCyclic(1, 3), (-4, 0)) == [0, 1, 1, 1, 0]

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            degreewise_dims(FiniteCyclic(0, 1), (3, -3))


class TestHomTowerValidation:
    def test_flag_count_checked(self):
        with pytest.raises(ValueError):
            HomTower((1, 1), (True, True), TowerDirection.DIRECT)

    def test_dims_are_bits(self):
        with pytest.raises(ValueError):
            HomTower((2, 1), (False,), TowerDirection.DIRECT)

    def test_flag_needs_ones_on_both_sides(self):
        with pytest.raises(ValueError):
            HomTower((1, 0), (True,), TowerDirection.DIRECT)

    def test_lists_are_frozen(self):
        # the caller's lists change after the tower is made; the tower
        # keeps its own tuples and reads as the tower built from tuples
        d, f = [1] * 5, [True] * 4
        t = HomTower(d, f, TowerDirection.DIRECT)
        d[0] = 0
        f[0] = False
        want = HomTower((1,) * 5, (True,) * 4, TowerDirection.DIRECT)
        assert t.dims == (1,) * 5 and t.transition_nonzero == (True,) * 4
        assert t == want and hash(t) == hash(want) and repr(t) == repr(want)
        assert t._starts == want._starts
        assert truncated_colim(t) == truncated_colim(want)


def _run_start_by_loop(seq):
    """Where the trailing run equal to seq[-1] starts, by the loop
    _stable_split used to run: walk back while entries equal the last."""
    start = len(seq) - 1
    while start > 0 and seq[start - 1] == seq[-1]:
        start -= 1
    return start


def _with_tail(entry):
    # any prefix, then a run of one entry, so long trailing runs occur
    return st.tuples(st.lists(entry, max_size=20), entry, st.integers(1, 20)).map(
        lambda t: tuple(t[0] + [t[1]] * t[2])
    )


class TestSettledTail:
    @given(_with_tail(st.integers(0, 1)))
    def test_dims_run_start_matches_loop(self, dims):
        assert graded._run_start(dims) == _run_start_by_loop(dims)

    @given(_with_tail(st.one_of(st.booleans(), st.integers(-2, 2))))
    def test_flags_run_start_matches_loop(self, flags):
        # the public HomTower takes any flag objects: bools, ints, mixed
        assert graded._run_start(flags) == _run_start_by_loop(flags)


class TestDirectTowers:
    def test_slice_base_tower(self):
        t = build_hom_tower(FiniteInd(0, 0), 0, 4)
        assert t.dims == (1, 1, 1, 1, 1)
        assert t.transition_nonzero == (True, True, True, True)
        c = truncated_colim(t)
        assert (c.value, c.stable_from) == (1, 0)

    def test_tower_left_of_wedge_is_zero(self):
        t = build_hom_tower(FiniteInd(-1, 0), 0, 4)
        assert t.dims == (0, 0, 0, 0, 0)
        assert truncated_colim(t).value == 0

    def test_eventually_zero_tower(self):
        # source below the wedge: finitely many nonzero stages, then zero
        t = build_hom_tower(FiniteInd(-4, 2), 0, 11)
        assert t.dims == (1, 1, 1) + (0,) * 9
        assert truncated_colim(t).value == 0

    def test_zero_truncation_gives_single_stage(self):
        t = build_hom_tower(FiniteInd(0, 0), 0, 0)
        assert t.dims == (1,)
        assert t.transition_nonzero == ()
        assert truncated_colim(t).value == 1
        inv = build_inverse_hom_tower(FiniteInd(0, 0), 0, 0)
        assert inv.dims == (1,)
        assert truncated_lim(inv).value == 1

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            build_hom_tower(FiniteInd(0, 0), 0, -1)
        with pytest.raises(ValueError):
            build_inverse_hom_tower(FiniteInd(0, 0), 0, -1)

    def test_direction_mismatch_rejected(self):
        t = build_hom_tower(FiniteInd(0, 0), 0, 4)
        with pytest.raises(ValueError):
            truncated_lim(t)
        inv = build_inverse_hom_tower(FiniteInd(0, 0), 0, 4)
        with pytest.raises(ValueError):
            truncated_colim(inv)

    def test_unstable_tower_rejected(self):
        t = HomTower((0,) * 8 + (1,), (False,) * 8, TowerDirection.DIRECT)
        with pytest.raises(TowerUnstableError):
            truncated_colim(t)

    def test_unsettled_flag_tail_rejected(self):
        t = HomTower((1,) * 8, (True,) * 6 + (False,),
                     TowerDirection.DIRECT)
        with pytest.raises(TowerUnstableError):
            truncated_colim(t)

    def test_ones_with_vanishing_transitions_give_zero(self):
        t = HomTower((1, 1, 1, 1), (False, False, False),
                     TowerDirection.DIRECT)
        assert truncated_colim(t).value == 0

    def test_middle_zero_transition_does_not_kill_colimit(self):
        # the settled tail decides; one dead map early on is forgotten
        flags = (True, True, True, False) + (True,) * 3
        t = HomTower((1,) * 8, flags, TowerDirection.DIRECT)
        c = truncated_colim(t)
        assert c.value == 1
        assert c.stable_from == 4

    def test_colim_agrees_with_wedge_formula(self):
        for a in range(-8, 4):
            for b in range(a + 2, a + 8):
                y = FiniteInd(-b, b - a - 2)
                for n in range(-4, 5):
                    got = truncated_colim(build_hom_tower(y, n, 40)).value
                    assert got == hom_dim(y, PruferInd(n)).value, (y, n)


class TestInverseTowers:
    def test_slice_into_base_object(self):
        t = build_inverse_hom_tower(FiniteInd(0, 0), 0, 5)
        assert t.dims == (1, 0, 0, 0, 0, 0)
        assert truncated_lim(t).value == 0

    def test_leading_zeros_do_not_block_limit(self):
        t = HomTower(
            (0, 0, 1, 1, 1, 1, 1, 1),
            (False, False) + (True,) * 5,
            TowerDirection.INVERSE,
        )
        lim = truncated_lim(t)
        assert lim.value == 1
        assert lim.stable_from == 2
        assert lim.lim1_vanishes

    def test_lim_agrees_with_shifted_wedge_formula(self):
        for a in range(-8, 4):
            for b in range(a + 2, a + 8):
                y = FiniteInd(-b, b - a - 2)
                for n in range(-4, 5):
                    got = truncated_lim(build_inverse_hom_tower(y, n, 40)).value
                    assert got == hom_dim(PruferInd(n), y).value, (y, n)


class TestPruferPruferTower:
    def test_frozen(self):
        assert prufer_prufer_tower(0, 0, 20) == 1
        assert prufer_prufer_tower(0, 1, 20) == 0
        assert prufer_prufer_tower(3, -2, 30) == 1

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            prufer_prufer_tower(0, 0, 3)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_matches_slot_comparison(self, m, n):
        assert prufer_prufer_tower(m, n, 20) == int(n <= m)

    @pytest.mark.parametrize("gap", range(31, 41))
    def test_gap_past_truncation_raises(self, gap):
        # every outer stage is 0 here, a settled tower with a wrong value
        with pytest.raises(TowerUnstableError):
            prufer_prufer_tower(gap, 0, 30)

    @pytest.mark.parametrize("truncation,longest", [(4, 3), (8, 6), (13, 9), (30, 22)])
    def test_longest_settled_gap(self, truncation, longest):
        # at N=4 the first gap past the bound is the truncation itself,
        # where the tower used to settle on 0
        assert prufer_prufer_tower(longest - 2, -2, truncation) == 1
        with pytest.raises(TowerUnstableError):
            prufer_prufer_tower(longest - 1, -2, truncation)

    @pytest.mark.parametrize("truncation", [*range(4, 13), 30, 31])
    def test_matches_public_nested_route(self, truncation):
        # every gap from where the inner towers stop settling to past the
        # gap bound; the base slot moves with the gap
        answers = set()
        for gap in range(-3 * truncation, truncation + 3):
            n = gap % 7 - 3
            got, want = (
                _value_or_error(route, gap + n, n, truncation)
                for route in (prufer_prufer_tower, nested_by_public_towers)
            )
            assert got == want, (gap, n, truncation)
            answers.add(got if isinstance(got, int) else got[0])
        assert answers == {0, 1, "TowerUnstableError"}

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_tail_read_matches_full_rows(self, data):
        truncation = data.draw(st.integers(4, 64), label="truncation")
        gap = data.draw(st.integers(-3 * truncation, truncation + 2), label="gap")
        n = data.draw(st.integers(-20, 20), label="n")
        assert _value_or_error(prufer_prufer_tower, gap + n, n, truncation) == _value_or_error(
            nested_by_full_rows, gap + n, n, truncation
        )

    @pytest.mark.parametrize("gap,raises", [(6, False), (-60, True)])
    def test_kernel_reads_bounded_by_tail(self, run_calls, row_calls, gap, raises):
        # gap scaled from N = 60 to N = 30, 60 and 240: at most two kernel
        # runs at any N, over the last two outer stages; a tail that has
        # not settled raises off one run over all of its stages, no row
        for truncation in (30, 60, 240):
            run_calls.clear()
            row_calls.clear()
            scaled = gap * truncation // 60
            got = _value_or_error(prufer_prufer_tower, scaled, 0, truncation)
            reads = (len(run_calls), len(row_calls))
            assert got == _value_or_error(nested_by_full_rows, scaled, 0, truncation)
            assert isinstance(got, tuple) == raises
            assert reads == ((1, 0) if raises else (2, 0)), truncation

    @pytest.mark.parametrize("gap,raises", [(6, False), (-60, True)])
    def test_settled_tails_build_no_row(self, run_calls, row_calls, gap, raises):
        # N = 60: every settled tail is read off the runs of the last two
        # outer stages; the first tail that has not settled raises off the
        # run starts of its full inner tower, with no row either way
        got = _value_or_error(prufer_prufer_tower, gap, 0, 60)
        assert isinstance(got, tuple) == raises
        assert (len(run_calls), len(row_calls)) == ((1, 0) if raises else (2, 0))

    def test_first_unsettled_stage_matches_scan(self):
        # the closed form against a scan of every outer stage's tail, for
        # every left, tm and tn in -6..6, tail of 2 to 11 flags and outer
        # range r0..r1 in -8..8
        first_unsettled, ends, stages = graded._first_unsettled_stage, range(-6, 7), range(-8, 9)
        seen = set()
        for q in range(2, 12):
            for left in ends:
                for tm in ends:
                    case = "minus" if tm <= left - 2 else "none" if tm == left - 1 else "plus"
                    for tn in ends:
                        unsettled = []
                        for r in stages:
                            run = graded._region_run(left, r, tm, tn, q + 1)
                            dims, flags = graded._run_row(*run, q + 1)
                            if len(set(dims[1:])) > 1 or len(set(flags)) > 1:
                                unsettled.append(r)
                        for r0 in stages:
                            first = next((r for r in unsettled if r >= r0), 9)
                            ranges = range(r0, 9)
                            got = [first_unsettled(left, tm, tn, q, r0, r1) for r1 in ranges]
                            want = [first if first <= r1 else None for r1 in ranges]
                            assert got == want, (left, tm, tn, q, r0)
                            seen.update((case, r is None) for r in {got[0], got[-1]})
        assert seen == {
            ("minus", False),
            ("minus", True),
            ("plus", False),
            ("plus", True),
            ("none", True),
        }

    @pytest.mark.parametrize("gap_offset", range(-3, 4))
    def test_matches_full_rows_at_the_ceiling(self, gap_offset):
        # N = 240: gaps within 3 of where the inner tails start and stop
        # settling, of the border between the answers 0 and 1, and of the
        # gap guard
        truncation = 240
        q, longest_gap = ceil(truncation / 2), truncation - ceil(truncation / 4)
        answers = set()
        for border in (-2 * truncation - 2, -q - 3, -1, longest_gap):
            gap = border + gap_offset
            n = gap % 5 - 2
            got = _value_or_error(prufer_prufer_tower, gap + n, n, truncation)
            assert got == _value_or_error(nested_by_full_rows, gap + n, n, truncation), gap
            answers.add(got if isinstance(got, int) else got[0])
        assert answers == {0, 1, "TowerUnstableError"}

    def test_tail_rule_matches_row_read(self):
        # every run in a window of arcs and 3 to 12 stages: the closed-form
        # run starts against a scan of the row, and on a settled tail (q
        # dims and q flags constant, as _stable_split needs) the value
        # truncated_colim reads off the row against the nested tower's read:
        # 1 exactly when the run is plus and not empty
        seen = set()
        ends = range(-5, 6)
        for q in range(2, 12):
            for i in ends:
                for j in ends:
                    for m in ends:
                        for n in ends:
                            region, lo, hi = run = graded._region_run(i, j, m, n, q + 1)
                            dims, flags = graded._run_row(*run, q + 1)
                            starts = graded._run_starts(*run, q + 1)
                            assert starts == graded._starts(dims, flags), (i, j, m, n, q)
                            if starts[0] <= 1 and starts[1] == 0:
                                read = int(region == "plus" and lo <= hi)
                                row = HomTower(dims, flags, TowerDirection.DIRECT)
                                assert read == truncated_colim(row).value, (i, j, m, n, q)
                            else:
                                read = None
                            seen.add(read)
        # settled tails of value 0 and 1, and unsettled ones
        assert seen == {0, 1, None}


@pytest.fixture
def row_calls(monkeypatch):
    """The arguments of every full row graded builds, in order."""
    calls, row = [], graded._run_row

    def counting_row(*args):
        calls.append(args)
        return row(*args)

    monkeypatch.setattr(graded, "_run_row", counting_row)
    return calls


@pytest.fixture
def run_calls(monkeypatch):
    """The arguments of every kernel run graded reads, in order."""
    calls, region_run = [], graded._region_run

    def counting_run(*args):
        calls.append(args)
        return region_run(*args)

    monkeypatch.setattr(graded, "_region_run", counting_run)
    return calls


def nested_by_full_rows(m, n, truncation):
    """The nested tower with every inner tower built in full by the
    public build_hom_tower over all 2N + 1 of its stages and read by
    truncated_colim, and the outer tower read by truncated_lim."""
    longest_gap = truncation - ceil(truncation / 4)
    if m - n > longest_gap:
        raise TowerUnstableError(
            f"truncation {truncation} is too short for slots {m} and {n}: "
            f"the nested tower settles only for m - n <= {longest_gap}"
        )
    stages = [FiniteInd(m - k, k) for k in range(truncation + 1)]
    dims = tuple(truncated_colim(build_hom_tower(y, n, 2 * truncation)).value for y in stages)
    flags = tuple(
        dims[j] == 1 and dims[j + 1] == 1 and hom_dim(a, b).witness.region == "plus"
        for j, (a, b) in enumerate(zip(stages, stages[1:]))
    )
    return truncated_lim(HomTower(dims, flags, TowerDirection.INVERSE)).value


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except TowerUnstableError as exc:
        return type(exc).__name__, str(exc)


def nested_by_public_towers(m, n, truncation):
    """The nested tower of limit objects built only from public pieces:
    inner colimits of build_hom_tower, an outer ladder checked by
    composite_nonzero at every settled inner stage, and an outer tower
    through the checking HomTower constructor."""
    longest_gap = truncation - ceil(truncation / 4)
    if m - n > longest_gap:
        raise TowerUnstableError(
            f"truncation {truncation} is too short for slots {m} and {n}: "
            f"the nested tower settles only for m - n <= {longest_gap}"
        )
    inner_truncation = 2 * truncation
    stages = [FiniteInd(m - k, k) for k in range(truncation + 1)]
    targets = [FiniteInd(n - k, k) for k in range(inner_truncation + 1)]
    inner = [truncated_colim(build_hom_tower(y, n, inner_truncation)) for y in stages]
    dims = tuple(c.value for c in inner)
    flags = []
    for j in range(truncation):
        ok = dims[j] == 1 and dims[j + 1] == 1
        if ok:
            start = max(inner[j].stable_from, inner[j + 1].stable_from)
            ok = all(
                composite_nonzero(stages[j], stages[j + 1], targets[l]) is Tristate.TRUE
                for l in range(start, inner_truncation + 1)
            )
        flags.append(ok)
    return truncated_lim(HomTower(dims, tuple(flags), TowerDirection.INVERSE)).value


class TestOneRowPerTower:
    """A direct or inverse tower reads one kernel run, and the inverse
    tower's run is its Serre-dual row."""

    @pytest.mark.parametrize("build", [build_hom_tower, build_inverse_hom_tower])
    @pytest.mark.parametrize("y", [FiniteInd(0, 0), FiniteInd(-3, 4), FiniteInd(-70, 2)])
    def test_kernel_reads(self, run_calls, build, y):
        # N = 60: one run per row, whatever the truncation
        build(y, 1, 60)
        assert len(run_calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-10**6, 10**6),
        st.integers(-50, 50),
        st.integers(0, 50),
        st.integers(-50, 50),
        st.integers(0, 40),
    )
    def test_inverse_dims_are_hom_into_target(self, t, shift, index, slot, truncation):
        # the brute force: Hom(stage_k, target) read straight off the
        # kernel, the row the inverse tower no longer reads
        target = FiniteInd(t + shift, index)
        i, j = _arc(target.shift, target.index)
        stages = [_arc(t + slot - k, k) for k in range(truncation + 1)]
        want = tuple(int(_region(m, n, i, j) is not None) for m, n in stages)
        assert build_inverse_hom_tower(target, t + slot, truncation).dims == want


class TestKernelTowersPassTheConstructor:
    """Towers from the kernel skip HomTower's checks; the public
    constructor accepts each of them unchanged."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-20, 20), st.integers(0, 15), st.integers(-20, 20), st.integers(0, 40)
    )
    def test_round_trip(self, shift, index, slot, truncation):
        y = FiniteInd(shift, index)
        for t in (
            build_hom_tower(y, slot, truncation),
            build_inverse_hom_tower(y, slot, truncation),
        ):
            rebuilt = HomTower(t.dims, t.transition_nonzero, t.direction)
            assert rebuilt == t
            assert repr(rebuilt) == repr(t)


# Every count of stages to 20, and two long towers.
_COUNTS = (*range(1, 21), 61, 121)
# Every finite arc with ends in -6..6.
_ARCS = [(i, j) for i in range(-6, 5) for j in range(i + 2, 7)]


class TestClosedFormRunStarts:
    """A built tower carries where the trailing runs of its dims and
    flags start, set in closed form from its one kernel run.  They are
    the starts a scan finds, and the tower reads the same as its public,
    copied and unpickled rebuilds, which scan for them."""

    def test_starts_match_scan(self):
        # y and the slot start range over every arc with ends in -6..6,
        # so the runs are plus, minus and empty, and a minus run ends
        # before or at the last stage
        seen = set()
        for count in _COUNTS:
            for y in _ARCS:
                for slot in range(-6, 7):
                    region, lo, hi = graded._region_run(*y, *_arc(slot, 0), count)
                    t = graded._slice_tower(y, slot, count - 1, TowerDirection.DIRECT)
                    flags = t.transition_nonzero
                    scanned = (graded._run_start(t.dims), graded._run_start(flags) if flags else 0)
                    assert t._starts == scanned, (y, slot, count)
                    ends = "empty" if lo > hi else "last" if hi == count - 1 else "before"
                    seen.add((region, ends, len(set(flags))))
        assert seen >= {
            ("plus", "last", 1),
            ("plus", "last", 2),
            ("minus", "last", 1),
            ("minus", "before", 1),
            ("minus", "empty", 1),
            (None, "empty", 1),
        }

    @pytest.mark.parametrize(
        "build,read",
        [(build_hom_tower, truncated_colim), (build_inverse_hom_tower, truncated_lim)],
    )
    def test_rebuilds_read_the_same(self, build, read):
        # many slots give the same tower: each tower and stored starts is
        # rebuilt once
        towers = {}
        for count in _COUNTS:
            for i, j in _ARCS:
                y = FiniteInd(-j, j - i - 2)
                for slot in range(-6, 7):
                    t = build(y, slot, count - 1)
                    towers.setdefault((t, t._starts), (y, slot))
        reads = set()
        for (t, starts), where in towers.items():
            want = _value_or_error(read, t)
            reads.add(type(want))
            rebuilds = [
                HomTower(t.dims, t.transition_nonzero, t.direction),
                copy.deepcopy(t),
                *(pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
            ]
            for rebuilt in rebuilds:
                assert rebuilt == t
                assert rebuilt._starts == starts, where
                assert _value_or_error(read, rebuilt) == want, where
        assert reads == {TowerColimit if build is build_hom_tower else TowerLimit, tuple}


@pytest.fixture
def run_start_calls(monkeypatch):
    """The arguments of every trailing-run scan graded makes, in order."""
    calls, run_start = [], graded._run_start

    def counting_run_start(*args):
        calls.append(args)
        return run_start(*args)

    monkeypatch.setattr(graded, "_run_start", counting_run_start)
    return calls


class TestTailReadScansNothing:
    """A read of a built tower scans neither its dims nor its flags; a
    public tower scans each once, when it is made, and not when read."""

    @pytest.mark.parametrize(
        "build,read",
        [(build_hom_tower, truncated_colim), (build_inverse_hom_tower, truncated_lim)],
    )
    @pytest.mark.parametrize("truncation", [0, 4, 60, 480])
    def test_built_tower_read(self, run_start_calls, build, read, truncation):
        outcomes = set()
        for slot in range(-8, 9):
            t = build(FiniteInd(-3, 4), slot, truncation)
            try:
                outcomes.add(read(t).value)
            except TowerUnstableError:
                outcomes.add(None)
        assert run_start_calls == []
        assert len(outcomes) >= 2

    def test_public_tower_scans_at_construction(self, run_start_calls):
        t = HomTower((0, 1, 1, 1, 1), (False, True, True, True), TowerDirection.DIRECT)
        assert len(run_start_calls) == 2
        assert truncated_colim(t).stable_from == 1
        assert len(run_start_calls) == 2
        copy.deepcopy(t)
        pickle.loads(pickle.dumps(t))
        assert len(run_start_calls) == 6

    def test_public_tower_without_flags(self, run_start_calls):
        t = HomTower((1,), (), TowerDirection.INVERSE)
        assert truncated_lim(t).value == 1
        assert len(run_start_calls) == 1


class TestArgumentTypes:
    @pytest.mark.parametrize(
        "fn,args,name",
        [
            (truncated_colim, (None,), "tower"),
            (truncated_lim, ((1, 0),), "tower"),
            (prufer_prufer_tower, (0.5, 0, 8), "m"),
            (prufer_prufer_tower, (0, "0", 8), "n"),
            (prufer_prufer_tower, (0, 0, 8.0), "truncation"),
            (build_hom_tower, (FiniteInd(0, 1), 0.5, 4), "slice_start"),
            (build_hom_tower, (FiniteInd(0, 1), 0, 4.0), "truncation"),
            (build_hom_tower, (PruferInd(0), 0, 4), "y"),
            (build_inverse_hom_tower, (FiniteInd(0, 1), None, 4), "slice_start"),
            (build_inverse_hom_tower, (FiniteInd(0, 1), 0, "4"), "truncation"),
            (build_inverse_hom_tower, (PruferInd(0), 0, 4), "target"),
            (f_image, ("x",), "x"),
            (dual_descriptor, ("x",), "m"),
            (degreewise_dims, ("x", (0, 3)), "m"),
            (HomTower, ((1, 1), (True,), "direct"), "direction"),
            (prufer_prufer_tower, (True, 0, 4), "m"),
            (build_hom_tower, (FiniteInd(0, 1), 0, False), "truncation"),
            (build_inverse_hom_tower, (FiniteInd(0, 1), True, 4), "slice_start"),
        ],
        ids=lambda v: getattr(v, "__name__", None) if callable(v) else None,
    )
    def test_type_error_names_the_argument(self, fn, args, name):
        with pytest.raises(TypeError, match=f"^{fn.__name__} .*, {name} is "):
            fn(*args)


def hammock(center, lo=-30, hi=30):
    """Forward enumeration of both regions of a hom-hammock: iterate the
    (m, n) box and emit the objects, as h_region_set does in
    test_quiver.py.  Returns (minus, plus)."""
    r, s = center.shift, center.index
    minus, plus = set(), set()
    for m in range(lo, hi + 1):
        for n in range(max(lo, m + 2), hi + 1):
            obj = FiniteInd(-n, n - m - 2)
            if m <= -r - s - 3 and -r - s - 1 <= n <= -r - 1:
                minus.add(obj)
            if -r - s - 1 <= m <= -r - 1 and n >= -r + 1:
                plus.add(obj)
    return minus, plus


class TestTowerFlagsAgainstEnumeration:
    """Every stage dimension, transition flag and stable_from of the
    N=20 towers for arcs in [-8, 8] and slots in [-4, 4], read off the
    enumerated region sets instead of the closed forms."""

    N = 20

    @pytest.fixture(scope="class")
    def hammocks(self):
        cache = {}

        def of(obj):
            if obj not in cache:
                cache[obj] = hammock(FiniteInd(obj.shift + 1, obj.index))
            return cache[obj]

        return of

    @staticmethod
    def settled_from(seq):
        k = len(seq)
        while k > 0 and seq[k - 1] == seq[-1]:
            k -= 1
        return k

    def expected(self, source_of, dims, plus_probe, stages):
        # Flag k: both stages nonzero and the composite criterion, i.e.
        # both stages in the plus region of the probe and stage k + 1 in
        # the plus region of stage k.
        flags = tuple(
            dims[k] == 1
            and dims[k + 1] == 1
            and stages[k] in plus_probe
            and stages[k + 1] in plus_probe
            and stages[k + 1] in source_of(stages[k])[1]
            for k in range(len(stages) - 1)
        )
        stable = max(self.settled_from(dims), self.settled_from(flags))
        return dims, flags, stable

    @pytest.mark.parametrize("slot", range(-4, 5))
    def test_direct_and_inverse(self, hammocks, slot):
        stages = [FiniteInd(slot - k, k) for k in range(self.N + 1)]
        for a in range(-8, 7):
            for b in range(a + 2, 9):
                y = FiniteInd(-b, b - a - 2)
                minus, plus = hammocks(y)
                dims = tuple(int(o in minus or o in plus) for o in stages)
                want = self.expected(hammocks, dims, plus, stages)
                t = build_hom_tower(y, slot, self.N)
                got = (t.dims, t.transition_nonzero, truncated_colim(t).stable_from)
                assert got == want, (y, slot)

                dims = tuple(
                    int(y in hammocks(o)[0] or y in hammocks(o)[1]) for o in stages
                )
                probe_plus = hammocks(FiniteInd(y.shift - 2, y.index))[1]
                want = self.expected(hammocks, dims, probe_plus, stages)
                t = build_inverse_hom_tower(y, slot, self.N)
                got = (t.dims, t.transition_nonzero, truncated_lim(t).stable_from)
                assert got == want, (y, slot)


class TestTowerWedgeConsistency:
    @given(st.integers(-10, 10), st.integers(0, 8), st.integers(-5, 5))
    @settings(max_examples=120, deadline=None)
    def test_colim_equals_wedge_membership(self, s, d, n):
        y = FiniteInd(s, d)
        got = truncated_colim(build_hom_tower(y, n, 60)).value
        assert got == int(wedge_contains(n, y))


def _read_or_raise(read, build, y, slot, truncation):
    try:
        return read(build(y, slot, truncation)).value
    except TowerUnstableError:
        return None


class TestTruncationExactnessBound:
    """A truncated tower reads its limit exactly whenever the wedge
    parameter j of hom_dim's witness is at most N - max(1, ceil(N/4)),
    and the bound is tight from N = 1 on: the first j past it already
    misreads.  At N = 0 the one-stage tower also reads j = 0 exactly."""

    # (builder, reader, j of (y, slot), the limit the tower presents)
    ROUTES = [
        (
            build_hom_tower,
            truncated_colim,
            lambda y, slot: slot - y.shift,
            lambda y, slot: hom_dim(y, PruferInd(slot)).value,
        ),
        (
            build_inverse_hom_tower,
            truncated_lim,
            lambda y, slot: slot + 2 - y.shift,
            lambda y, slot: int(wedge_contains(slot + 2, y)),
        ),
    ]

    @pytest.mark.parametrize("truncation", [0, 1, 3, 4, 5, 8, 13, 20])
    @pytest.mark.parametrize("route", range(2))
    def test_bound_in_both_directions(self, truncation, route):
        build, read, wedge_j, want = self.ROUTES[route]
        bound = truncation - max(1, ceil(truncation / 4))
        misread, top = [], -1
        for shift in range(-6, 7):
            for index in range(11):
                y = FiniteInd(shift, index)
                for slot in range(-6, 7):
                    j = wedge_j(y, slot)
                    top = max(top, j)
                    got = _read_or_raise(read, build, y, slot, truncation)
                    if got != want(y, slot):
                        misread.append(j)
        # exact inside the bound; past it, once the grid reaches it
        first = bound + (2 if truncation == 0 else 1)
        assert min(misread, default=None) == (first if first <= top else None)

    def test_settled_misread_past_the_bound(self):
        # at N = 4 the bound is j <= 3, and here j = 8 - 4 = 4
        y = FiniteInd(4, 9)
        assert truncated_colim(build_hom_tower(y, 8, 4)).value == 0
        assert hom_dim(y, PruferInd(8)).value == 1
