"""Graded-module images, duality, and hom towers.

The towers are the independent recomputation of hom dimensions into
Pruefer objects: a direct tower's stabilized colimit must reproduce the
wedge formula, an inverse tower's limit the shifted wedge formula, and
the nested tower-of-towers the slot comparison for Pruefer pairs.
"""

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
    TowerDirection,
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

    @pytest.mark.parametrize("truncation", [*range(4, 13), 30])
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
