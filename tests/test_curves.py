"""Curve evaluation, inverses, measures, sampling, shifts, and the
walrasian crossing."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobmm import (
    AssumptionError,
    DemandSupplyPair,
    Direction,
    DomainError,
    MonotoneCurve,
    PriceInterval,
    RateTable,
    walras,
)
from lobmm.curves import require_core_assumptions

from conftest import make_evenodd_pair, make_uniform_pair
from oracle import price_at_mass


class TestConstruction:
    def test_needs_two_breakpoints(self):
        with pytest.raises(ValueError):
            MonotoneCurve((0.0,), (1.0,), Direction.DECREASING)

    def test_prices_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MonotoneCurve((0.0, 0.0, 1.0), (1.0, 0.5, 0.0), Direction.DECREASING)

    def test_direction_enforced(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.DECREASING)
        with pytest.raises(ValueError, match="nondecreasing"):
            MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.INCREASING)

    def test_negative_rates_rejected_by_default(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MonotoneCurve((0.0, 1.0), (0.5, -0.5), Direction.DECREASING)
        curve = MonotoneCurve((0.0, 1.0), (0.5, -0.5), Direction.DECREASING, allow_negative=True)
        assert curve.value_at(1.0) == -0.5

    @pytest.mark.parametrize(
        "prices, rates, segment",
        [
            pytest.param((0.0, 1e-320), (1.0, 0.0), 0, id="subnormal-interval"),
            pytest.param((-1.0, 0.0, 1e-320, 1.0), (1.0, 0.5, 0.5, 0.0), 1, id="subnormal-gap"),
            pytest.param((0.0, 1e-10, 1.0), (1e300, 1e299, 0.0), 0, id="slope-overflows"),
            pytest.param((-1e308, 1e308), (1.0, 0.0), 0, id="width-overflows"),
        ],
    )
    def test_segment_floats_cannot_carry_rejected(self, prices, rates, segment):
        with pytest.raises(ValueError, match=f"segment {segment} "):
            MonotoneCurve(prices, rates, Direction.DECREASING)

    def test_narrowest_normal_gap_accepted(self):
        tiny = sys.float_info.min
        curve = MonotoneCurve((0.0, tiny, 1.0), (1.0, 1.0, 0.0), Direction.DECREASING)
        assert curve.value_at(tiny) == 1.0

    def test_infinite_endpoint_rejected(self):
        with pytest.raises(ValueError):
            MonotoneCurve((0.0, math.inf), (1.0, 0.0), Direction.DECREASING)
        with pytest.raises(ValueError):
            PriceInterval(0.0, math.inf)

    def test_pair_span_mismatch(self):
        d = MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING)
        s = MonotoneCurve((0.0, 2.0), (0.0, 1.0), Direction.INCREASING)
        with pytest.raises(ValueError, match="span"):
            DemandSupplyPair(d, s)

    def test_pair_direction_assumption(self):
        inc = MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING)
        with pytest.raises(AssumptionError, match=r"\(A1\)"):
            DemandSupplyPair(inc, inc)

    def test_slope_gap_assumption(self):
        # flat demand against flat supply: supply minus demand has slope 0
        d = MonotoneCurve((0.0, 1.0), (1.0, 1.0), Direction.DECREASING)
        s = MonotoneCurve((0.0, 1.0), (0.5, 0.5), Direction.INCREASING)
        with pytest.raises(AssumptionError, match=r"\(A3\)"):
            DemandSupplyPair(d, s)

    def test_positivity_assumption(self):
        # demand hits zero at an interior breakpoint
        d = MonotoneCurve((0.0, 0.5, 1.0), (1.0, 0.0, 0.0), Direction.DECREASING)
        s = MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING)
        with pytest.raises(AssumptionError, match=r"\(A4\)"):
            DemandSupplyPair(d, s)

    def test_endpoint_zeros_allowed(self):
        make_uniform_pair()  # demand(1)=0 and supply(0)=0 sit on the boundary

    @pytest.mark.parametrize(
        "demand, supply, x",
        [
            (((0.0, 1.0), (1.0, 0.0)), ((0.0, 0.5, 1.0), (0.0, 0.0, 1.0)), 0.5),
            (((0.0, 1.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 1.0)), 0.0),
        ],
        ids=["supply-zero-on-the-left-segment", "demand-zero-on-the-only-segment"],
    )
    def test_positivity_fails_on_a_zero_end_segment(self, demand, supply, x):
        d = MonotoneCurve(*demand, Direction.DECREASING)
        s = MonotoneCurve(*supply, Direction.INCREASING)
        with pytest.raises(AssumptionError, match=rf"\(A4\).* near x={x}$"):
            DemandSupplyPair(d, s)

    def test_positivity_fails_just_inside_an_end(self, uniform_pair):
        # lowered by 1e-12, demand is negative only on (1 - 1e-12, 1] and
        # supply only on [0, 1e-12): the endpoint values show it
        with pytest.raises(AssumptionError, match=r"\(A4\).* near x=1.0$"):
            require_core_assumptions(uniform_pair.shifted(1e-12))


class TestEval:
    def test_uniform_demand_interior(self, uniform_pair):
        assert uniform_pair.demand.value_at(0.3) == pytest.approx(0.7, abs=1e-15)

    def test_uniform_supply_boundary(self, uniform_pair):
        assert uniform_pair.supply.value_at(0.0) == 0.0

    def test_breakpoints_exact(self, evenodd_pair):
        for p, r in zip(evenodd_pair.demand.prices, evenodd_pair.demand.rates):
            assert evenodd_pair.demand.value_at(p) == r
        for p, r in zip(evenodd_pair.supply.prices, evenodd_pair.supply.rates):
            assert evenodd_pair.supply.value_at(p) == r

    def test_outside_domain(self, uniform_pair):
        with pytest.raises(DomainError):
            uniform_pair.demand.value_at(1.5)
        with pytest.raises(DomainError):
            uniform_pair.demand.value_at(-0.1)

    def test_array_matches_scalar(self, evenodd_pair):
        xs = np.linspace(0.0, 6.0, 321)
        vals = evenodd_pair.supply.value_at(xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(evenodd_pair.supply.value_at(float(x)), abs=1e-14)


class TestInverse:
    def test_uniform_demand(self, uniform_pair):
        assert uniform_pair.demand.inverse(0.3) == pytest.approx(0.7, abs=1e-15)

    def test_uniform_supply(self, uniform_pair):
        assert uniform_pair.supply.inverse(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_flat_top_sup_convention(self):
        # demand flat at 1 on [0, 0.5]: the level-1 set has supremum 0.5
        d = MonotoneCurve((0.0, 0.5, 1.0), (1.0, 1.0, 0.0), Direction.DECREASING)
        assert d.inverse(1.0) == 0.5

    def test_flat_inf_convention(self):
        # supply flat at 1 on [0.5, 1]: inf of the level-1 set is 0.5
        s = MonotoneCurve((0.0, 0.5, 1.0), (0.0, 1.0, 1.0), Direction.INCREASING)
        assert s.inverse(1.0) == 0.5

    def test_level_above_max(self, uniform_pair):
        with pytest.raises(DomainError):
            uniform_pair.demand.inverse(1.5)

    def test_zero_level(self, uniform_pair):
        assert uniform_pair.demand.inverse(0.0) == 1.0  # sup of the whole interval
        assert uniform_pair.supply.inverse(0.0) == 0.0

    def test_evenodd_jumps(self, evenodd_pair):
        # demand is flat at 2 on [2,3]; the sup of {demand >= 2} is 3
        assert evenodd_pair.demand.inverse(2.0) == 3.0
        # supply is flat at 1 on [1,2]; the inf of {supply >= 1} is 1
        assert evenodd_pair.supply.inverse(1.0) == 1.0

    def test_round_trip_value(self, evenodd_pair):
        # sup definition: the curve at the returned point equals the level
        # whenever the level is attained (continuity)
        for v in (0.25, 0.5, 1.0, 1.75, 2.5):
            x = evenodd_pair.demand.inverse(v)
            assert evenodd_pair.demand.value_at(x) == pytest.approx(v, abs=1e-12)

    def test_array_matches_scalar(self, evenodd_pair):
        vs = np.linspace(0.0, 3.0, 97)
        xs = evenodd_pair.demand.inverse(vs)
        for v, x in zip(vs, xs):
            assert x == pytest.approx(evenodd_pair.demand.inverse(float(v)), abs=1e-14)
        xs = evenodd_pair.supply.inverse(vs)
        for v, x in zip(vs, xs):
            assert x == pytest.approx(evenodd_pair.supply.inverse(float(v)), abs=1e-14)


def quantile(curve, u):
    """Quantile ``u`` of the normalized increment measure, as the engine
    draws a limit price."""
    return price_at_mass(curve, u * curve.total_mass)


def mass_below(curve, x):
    """Increment mass of the curve on [lo, x]."""
    return abs(curve.value_at(x) - curve.value_at(curve.lo))


class TestIncrementMass:
    def test_evenodd_alternating(self, evenodd_pair):
        # supply density is 1 on (0,1], 0 on (1,2], 1 on (2,3], so [0.5, 2.5]
        # holds mass 1.0 and no price lands inside the flat (1, 2)
        curve = evenodd_pair.supply
        assert price_at_mass(curve, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert price_at_mass(curve, 0.5 + 1.0) == pytest.approx(2.5, abs=1e-15)
        assert price_at_mass(curve, 1.0) == 1.0
        assert price_at_mass(curve, math.nextafter(1.0, 2.0)) >= 2.0


class TestSampling:
    def test_uniform_quantile(self, uniform_pair):
        assert quantile(uniform_pair.supply, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_two_piece_quantile(self, two_piece_pair):
        # first piece holds mass 0.5 of total 2.0, so the 0.25 quantile is its end
        assert quantile(two_piece_pair.supply, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_top_quantile(self, two_piece_pair):
        assert quantile(two_piece_pair.supply, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_measure(self):
        # a curve with no increment mass gets no limit orders, so its
        # measure is never sampled: the limit-sell slice of the kind draw
        # is empty
        demand = MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING)
        flat = MonotoneCurve((0.0, 1.0), (0.7, 0.7), Direction.INCREASING)
        assert flat.total_mass == 0.0
        rt = RateTable.from_pair(DemandSupplyPair(demand, flat))
        assert rt.thresholds[2] == rt.thresholds[3]

    @given(
        u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted)
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_u(self, u):
        curve = make_evenodd_pair(3).supply
        assert quantile(curve, u[0]) <= quantile(curve, u[1])

    def test_empirical_cdf_matches_mass(self, evenodd_pair):
        # Kolmogorov-Smirnov distance of inverse-CDF samples against the
        # normalized cumulative increment
        rng = np.random.default_rng(123)
        curve = evenodd_pair.supply
        n = 10**5
        samples = np.array([quantile(curve, u) for u in rng.random(n)])
        grid = np.linspace(0.0, 6.0, 241)
        emp = np.searchsorted(np.sort(samples), grid, side="right") / n
        theo = np.array([mass_below(curve, g) for g in grid]) / curve.total_mass
        assert np.max(np.abs(emp - theo)) < 0.01


class TestShift:
    def test_uniform_values(self, uniform_pair):
        sh = uniform_pair.shifted(0.2)
        assert sh.demand.value_at(0.0) == pytest.approx(0.8, abs=1e-15)
        assert sh.demand.value_at(1.0) == pytest.approx(-0.2, abs=1e-15)
        assert sh.supply.value_at(0.5) == pytest.approx(0.3, abs=1e-15)

    def test_zero_shift_identity(self, uniform_pair):
        sh = uniform_pair.shifted(0.0)
        assert sh.demand.rates == uniform_pair.demand.rates
        assert sh.supply.rates == uniform_pair.supply.rates

    def test_increments_unchanged(self, evenodd_pair):
        sh = evenodd_pair.shifted(0.7)
        for x in (1.3, 2.2, 4.9, 6.0):
            assert mass_below(sh.demand, x) == pytest.approx(
                mass_below(evenodd_pair.demand, x), abs=1e-12
            )
        assert sh.demand.total_mass == pytest.approx(evenodd_pair.demand.total_mass, abs=1e-12)

    def test_composes_additively(self, evenodd_pair):
        twice = evenodd_pair.shifted(0.3).shifted(0.4)
        once = evenodd_pair.shifted(0.7)
        assert twice.demand.rates == pytest.approx(once.demand.rates, abs=1e-15)
        assert twice.supply.rates == pytest.approx(once.supply.rates, abs=1e-15)

    def test_negative_shift_rejected(self, uniform_pair):
        with pytest.raises(ValueError):
            uniform_pair.shifted(-0.1)


class TestWalras:
    def test_uniform_symmetry(self, uniform_pair):
        w = walras(uniform_pair)
        assert w.x == pytest.approx(0.5, abs=1e-9)
        assert w.volume == pytest.approx(0.5, abs=1e-9)
        assert w.unique

    def test_steeper_demand(self):
        pair = DemandSupplyPair(
            MonotoneCurve((0.0, 1.0), (2.0, 0.0), Direction.DECREASING),
            MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING),
        )
        w = walras(pair)
        assert w.x == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert w.volume == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_floor_pair_against_grid_search(self, floor_pair):
        w = walras(floor_pair)
        xs = np.linspace(0.0, 1.0, 10_001)
        brute = np.minimum(floor_pair.demand.value_at(xs), floor_pair.supply.value_at(xs))
        assert w.volume == pytest.approx(brute.max(), abs=1e-6)
        assert w.x == pytest.approx(0.5, abs=1e-9)
        assert w.volume == pytest.approx(0.5, abs=1e-9)

    def test_volume_dominates_grid(self, evenodd_pair):
        w = walras(evenodd_pair)
        xs = np.linspace(0.0, 6.0, 10_001)
        mins = np.minimum(evenodd_pair.demand.value_at(xs), evenodd_pair.supply.value_at(xs))
        assert np.all(mins <= w.volume + 1e-9)

    def test_evenodd_crossing_unique(self, evenodd_pair):
        # curves meet at price 3 where both rates equal 2
        w = walras(evenodd_pair)
        assert w.volume == pytest.approx(2.0, abs=1e-9)
        assert w.unique
        assert w.x == pytest.approx(3.0, abs=1e-6)
        assert w.x_hi == pytest.approx(3.0, abs=1e-6)

    def test_crossing_near_the_float_ceiling(self):
        # the uniform pair on [1e308, 1.7e308], where a + b overflows
        lo, hi = 1e308, 1.7e308
        w = walras(
            DemandSupplyPair(
                MonotoneCurve((lo, hi), (1.0, 0.0), Direction.DECREASING),
                MonotoneCurve((lo, hi), (0.0, 1.0), Direction.INCREASING),
            )
        )
        assert w.x == pytest.approx(1.35e308, rel=1e-11)
        assert w.volume == pytest.approx(0.5, abs=1e-11)
        assert w.unique

    def test_supply_plateau_flagged_non_unique(self):
        # supply sits flat at the crossing volume over [0.3, 0.7] while
        # demand keeps falling, so the clearing price is set-valued
        demand = MonotoneCurve(
            prices=(0.0, 1.0),
            rates=(2.0, 0.0),
            direction=Direction.DECREASING,
        )
        supply = MonotoneCurve(
            prices=(0.0, 0.3, 0.7, 1.0),
            rates=(0.2, 1.0, 1.0, 1.8),
            direction=Direction.INCREASING,
        )
        w = walras(DemandSupplyPair(demand, supply))
        assert w.volume == pytest.approx(1.0, abs=1e-9)
        assert not w.unique
        assert w.x == pytest.approx(0.3, abs=1e-6)
        assert w.x_hi == pytest.approx(0.5, abs=1e-6)
