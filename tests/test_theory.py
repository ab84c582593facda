"""Analytic layer: the window functional, trade-volume bounds, stationary
quote laws, and the frozen regime.

Expected values below were computed independently with mpmath at 40
digits (adaptive quadrature for the integrals, high-order ODE
integration plus a linear solve for the quote laws) and are frozen here
so any regression shows up as value drift, not as a tautology.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lobmm
from lobmm import (
    AssumptionError,
    DemandSupplyPair,
    Direction,
    DomainError,
    EmptySupportError,
    MonotoneCurve,
    PhiTable,
    PriceInterval,
    Recurrence,
    SingularCoefficientError,
    VacuousBoundError,
    classify_recurrence,
    freeze_support,
    gambler_bound,
    phi,
    recurrence_sweep,
    solve_luckock,
    v_l,
    walras,
)
from lobmm import curves, theory
from lobmm.theory import WindowReport

import oracle
from conftest import make_evenodd_pair, make_floor_pair, make_kinked_pair, make_uniform_pair

# uniform pair, no makers
PHI_UNIFORM_06 = 1.4775968828829954
PHI_UNIFORM_078 = 3.9672301825599877
# uniform pair, maker rate 0.2
PHI_SHIFTED_06 = 2.6701666611524552

# root of exp(-z) - z + 1 = 0 gives the uniform trade volume 1/z
VL_UNIFORM = 0.7821882942801999
XL_UNIFORM = 0.2178117057198001

VL_BY_RHO = {
    0.0: 0.7821882942801999,
    0.1: 0.7091131797718145,
    0.2: 0.6455345848958402,
    0.3: 0.5902412420672917,
    0.4: 0.5420769158585176,
    0.45: 0.5203374295175093,
    0.49: 0.5039606793619190,
}

# equilibrium P[buy side empty] on symmetric windows J(v) = (1-v, v)
F_MINUS_LO = {
    0.60: 0.65111858771195596,
    0.70: 0.324425889197564,
    0.75: 0.138108782179948,
    0.78: 0.00999668564982149,
}


def closed_form_phi(v: float) -> float:
    # uniform pair, rho 0: the integral collapses to logs
    return 2.0 * (math.log(v / (1.0 - v)) - 1.0 / v + 2.0)


def alpha_pair(alpha: float, k: int = 257) -> DemandSupplyPair:
    """Piecewise-linear sampling of the power-law family on (0, 1)."""
    xs = np.linspace(0.0, 1.0, k)
    demand = MonotoneCurve(
        prices=tuple(xs),
        rates=tuple((1.0 - xs) ** alpha),
        direction=Direction.DECREASING,
    )
    supply = MonotoneCurve(
        prices=tuple(xs),
        rates=tuple(xs**alpha),
        direction=Direction.INCREASING,
    )
    return DemandSupplyPair(demand, supply)


def floors_pair() -> DemandSupplyPair:
    """Rates bounded away from zero at both ends: market orders flow and
    the window functional stays finite up to the volume ceiling."""
    demand = MonotoneCurve(
        prices=(0.0, 1.0), rates=(1.0, 0.3), direction=Direction.DECREASING
    )
    supply = MonotoneCurve(
        prices=(0.0, 1.0), rates=(0.3, 1.0), direction=Direction.INCREASING
    )
    return DemandSupplyPair(demand, supply)


# floors pair: the functional caps at 2.2532... below the threshold 2.3669...
FLOORS_THRESHOLD = 2.3668639053254438
FLOORS_PHI_AT_CEILING = 2.2532222536401609
FLOORS_PHI_08 = 1.0000042949653675


class TestPhi:
    def test_uniform_values(self, uniform_pair):
        assert phi(uniform_pair, 0.0, 0.6) == pytest.approx(PHI_UNIFORM_06, abs=1e-8)
        assert phi(uniform_pair, 0.0, 0.78) == pytest.approx(PHI_UNIFORM_078, abs=1e-8)

    def test_maker_rate_shifts_integrand(self, uniform_pair):
        assert phi(uniform_pair, 0.2, 0.6) == pytest.approx(PHI_SHIFTED_06, abs=1e-8)

    def test_closed_form_sweep(self, uniform_pair):
        for v in np.linspace(0.505, 0.795, 50):
            assert phi(uniform_pair, 0.0, float(v)) == pytest.approx(
                closed_form_phi(float(v)), abs=1e-8
            )

    def test_zero_at_walras_volume(self, uniform_pair):
        # the walras volume itself comes out of a bisection, so "zero" is
        # zero up to the width of that bracket times the integrand
        assert phi(uniform_pair, 0.0, 0.5) == pytest.approx(0.0, abs=1e-9)
        # values a hair below the walrasian volume clamp instead of raising
        assert phi(uniform_pair, 0.0, 0.5 - 1e-13) == pytest.approx(0.0, abs=1e-9)

    def test_table_strictly_increasing(self, uniform_pair):
        table = PhiTable.build(uniform_pair, 0.0, v_hi=0.79, n=40)
        vals = np.array(table.values)
        assert (np.diff(vals) > 0).all()
        assert table.volumes[0] == pytest.approx(0.5)
        assert vals[0] == 0.0
        assert max(table.errors) < 1e-9

    def test_table_matches_pointwise(self, uniform_pair):
        table = PhiTable.build(uniform_pair, 0.2, v_hi=0.64, n=9)
        for v, val in zip(table.volumes[1:], table.values[1:]):
            assert val == pytest.approx(phi(uniform_pair, 0.2, v), abs=1e-9)

    def test_below_walras_raises(self, uniform_pair):
        with pytest.raises(DomainError, match="walras"):
            phi(uniform_pair, 0.0, 0.4)

    def test_above_ceiling_raises(self, uniform_pair):
        with pytest.raises(DomainError, match="ceiling"):
            phi(uniform_pair, 0.0, 1.2)

    def test_shifted_blowup_raises(self, uniform_pair):
        # at v = 0.72 the window edges see curve value 0.28 < rho
        with pytest.raises(DomainError, match="blows up"):
            phi(uniform_pair, 0.3, 0.72)

    def test_negative_rho_rejected(self, uniform_pair):
        with pytest.raises(ValueError):
            phi(uniform_pair, -0.1, 0.6)


class TestTradeVolume:
    def test_uniform_window(self, uniform_pair):
        rep = v_l(uniform_pair)
        assert rep.v_l == pytest.approx(VL_UNIFORM, abs=1e-6)
        assert rep.threshold == pytest.approx(4.0)
        assert rep.v_w == pytest.approx(0.5, abs=1e-9)
        assert rep.x_w == pytest.approx(0.5, abs=1e-9)
        assert not rep.boundary and not rep.degenerate
        assert rep.window.lo == pytest.approx(XL_UNIFORM, abs=1e-6)
        assert rep.window.hi == pytest.approx(VL_UNIFORM, abs=1e-6)

    def test_root_brackets_threshold(self, uniform_pair):
        rep = v_l(uniform_pair)
        assert phi(uniform_pair, 0.0, rep.v_l - 1e-5) < rep.threshold
        assert phi(uniform_pair, 0.0, rep.v_l + 1e-5) > rep.threshold

    @pytest.mark.parametrize("rho,expected", sorted(VL_BY_RHO.items()))
    def test_maker_rate_sweep(self, uniform_pair, rho, expected):
        assert v_l(uniform_pair, rho).v_l == pytest.approx(expected, abs=1e-9)

    def test_window_shrinks_with_maker_rate(self, uniform_pair):
        lengths = [v_l(uniform_pair, r).window_length for r in sorted(VL_BY_RHO)]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert lengths[-2] < 0.25 * lengths[0]  # rho 0.45 vs rho 0

    @pytest.mark.parametrize("rho", [0.5, 0.6, 1.0])
    def test_degenerate_at_high_maker_rate(self, uniform_pair, rho):
        rep = v_l(uniform_pair, rho)
        assert rep.degenerate
        assert rep.window is None
        assert rep.window_length == 0.0

    def test_boundary_case_rate_floors(self):
        # the functional never reaches the threshold: volume pegs at the
        # ceiling and the report says so
        pair = floors_pair()
        assert phi(pair, 0.0, 0.8) == pytest.approx(FLOORS_PHI_08, abs=1e-8)
        rep = v_l(pair)
        assert rep.boundary and not rep.degenerate
        assert rep.v_l == rep.v_max_effective
        assert rep.v_w == pytest.approx(0.65, abs=1e-9)
        assert rep.threshold == pytest.approx(FLOORS_THRESHOLD, abs=1e-9)
        assert rep.phi_at_cap == pytest.approx(FLOORS_PHI_AT_CEILING, abs=1e-7)
        assert rep.threshold - rep.phi_at_cap > 0.1  # far from the knife edge
        assert rep.window is not None
        assert rep.window.lo == pytest.approx(0.0, abs=1e-6)
        assert rep.window.hi == pytest.approx(1.0, abs=1e-6)

    def test_vanishing_end_rates_never_boundary(self):
        # a piecewise-linear pair whose rates vanish at the interval ends
        # sends the functional to infinity at the ceiling (the reciprocal
        # of the first chord is ~1/x), so a root always exists
        rep = v_l(alpha_pair(0.45))
        assert not rep.boundary and not rep.degenerate
        assert rep.v_w == pytest.approx(2.0 ** (-0.45), abs=1e-6)
        assert rep.v_l < rep.v_max_effective

    def test_walras_volume_at_the_ceiling_is_refused(self):
        # supply sits above demand everywhere, so the best volume is pinned
        # at the left endpoint and equals the volume ceiling
        pair = DemandSupplyPair(
            MonotoneCurve((0.0, 1.0), (1.0, 0.4), Direction.DECREASING),
            MonotoneCurve((0.0, 1.0), (1.0, 2.0), Direction.INCREASING),
        )
        assert walras(pair).volume == pytest.approx(theory._v_ceiling(pair), abs=1e-9)
        with pytest.raises(AssumptionError, match="A5"):
            v_l(pair)

    def test_interior_case_power_family(self):
        rep = v_l(alpha_pair(1.0))
        assert not rep.boundary
        assert rep.v_l == pytest.approx(VL_UNIFORM, abs=1e-4)


class TestClosedForm:
    """Production against the closed-form oracle (``oracle.ClosedFormTheory``)
    where production is right today: phi away from the cap, the walrasian
    volume, the effective ceiling, ``v_l`` and the window, on the uniform
    pair and the 32-segment kinked pair.  Measured worst gaps: phi 4.1e-11
    at up to 99.9% of the way from V_W to the effective ceiling (within
    about 1e-4 of the ceiling the gap passes 1e-10 on the uniform pair,
    where production's cap piece does not converge); V_W 4.6e-13; the
    ceiling 8.9e-16; ``v_l`` 2.7e-11 and the window edges 2.0e-11.  The
    bounds are production's own tolerances: ``_PHI_TOL`` for phi,
    ``_ROOT_TOL`` for ``v_l``, and the bisection stops of ``walras`` and
    the ceiling."""

    CASES = [(name, rho) for name in ("uniform", "kinked") for rho in (0.0, 0.1, 0.3)]

    @staticmethod
    def pair(name):
        return make_kinked_pair(32) if name == "kinked" else make_uniform_pair()

    def test_the_oracle_is_the_uniform_closed_form(self, uniform_pair):
        # over the whole range up to the cap, where phi is 43.44653 and
        # production's phi_at_cap reads 667.12
        th = oracle.ClosedFormTheory(uniform_pair, 0.0)
        assert (th.v_w, th.v_eff, th.closes) == (0.5, 1.0, True)
        for v in [*np.linspace(0.5, 0.999, 50).tolist(), 1.0 - 1e-6, 1.0 - 1e-9]:
            assert th.phi(v) == pytest.approx(closed_form_phi(v), rel=1e-13, abs=1e-15)
        assert th.phi(1.0 - 1e-9) == pytest.approx(43.44653, abs=1e-5)

    @pytest.mark.parametrize("name, rho", CASES)
    def test_phi_away_from_the_cap(self, name, rho):
        pair = self.pair(name)
        th = oracle.ClosedFormTheory(pair, rho)
        for k in range(1, 41):
            v = th.v_w + 0.999 * k / 40 * (th.v_eff - th.v_w)
            assert phi(pair, rho, v) == pytest.approx(th.phi(v), abs=theory._PHI_TOL), v

    @pytest.mark.parametrize("name, rho", CASES)
    def test_v_l_and_window(self, name, rho):
        pair = self.pair(name)
        th = oracle.ClosedFormTheory(pair, rho)
        rep = v_l(pair, rho)
        volume, boundary = th.v_l()
        assert rep.v_w == pytest.approx(th.v_w, abs=1e-12)
        assert rep.v_max_effective == pytest.approx(th.v_eff, abs=2e-15)
        assert (rep.boundary, boundary) == (False, False)
        assert rep.v_l == pytest.approx(volume, abs=theory._ROOT_TOL)
        lo, hi = th.window(volume)
        assert rep.window.lo == pytest.approx(lo, abs=theory._ROOT_TOL)
        assert rep.window.hi == pytest.approx(hi, abs=theory._ROOT_TOL)


class TestRecurrenceClass:
    def test_three_classes(self, uniform_pair):
        assert (
            classify_recurrence(uniform_pair, 0.0, 0.6)
            is Recurrence.POSITIVE_RECURRENT
        )
        assert (
            classify_recurrence(uniform_pair, 0.0, 0.79)
            is Recurrence.NOT_POSITIVE_RECURRENT
        )
        assert classify_recurrence(uniform_pair, 0.0, VL_UNIFORM) is Recurrence.CRITICAL

    def test_shifted_classification(self, uniform_pair):
        assert (
            classify_recurrence(uniform_pair, 0.2, 0.6)
            is Recurrence.POSITIVE_RECURRENT
        )
        assert (
            classify_recurrence(uniform_pair, 0.2, VL_BY_RHO[0.2])
            is Recurrence.CRITICAL
        )

    def test_domain_checks(self, uniform_pair):
        with pytest.raises(DomainError):
            classify_recurrence(uniform_pair, 0.0, 0.4999)  # below the walras volume
        with pytest.raises(DomainError):
            classify_recurrence(uniform_pair, 0.3, 0.71)  # past the ceiling


class TestQuoteLaw:
    J6 = PriceInterval(0.4, 0.6)

    @pytest.mark.parametrize("v,expected", sorted(F_MINUS_LO.items()))
    def test_empty_side_probability(self, uniform_pair, v, expected):
        sol = solve_luckock(uniform_pair, 0.0, PriceInterval(1.0 - v, v))
        assert sol.f_minus_lo == pytest.approx(expected, abs=1e-9)
        assert not sol.negative_edge

    def test_symmetric_pair_symmetric_law(self, uniform_pair):
        sol = solve_luckock(uniform_pair, 0.0, self.J6)
        assert sol.f_plus_hi == pytest.approx(sol.f_minus_lo, abs=1e-12)
        np.testing.assert_allclose(sol.f_plus, sol.f_minus[::-1], atol=1e-12)

    def test_boundary_conditions_enforced(self, uniform_pair):
        sol = solve_luckock(uniform_pair, 0.0, self.J6)
        assert sol.boundary_residual < 1e-12
        assert sol.f_minus[-1] == pytest.approx(1.0, abs=1e-12)
        assert sol.f_plus[0] == pytest.approx(1.0, abs=1e-12)

    def test_profiles_monotone(self, uniform_pair):
        sol = solve_luckock(uniform_pair, 0.1, self.J6)
        assert (np.diff(sol.f_minus) >= -1e-12).all()
        assert (np.diff(sol.f_plus) <= 1e-12).all()

    def test_grid_convergence(self, uniform_pair):
        coarse = solve_luckock(uniform_pair, 0.0, self.J6, grid_size=4096)
        fine = solve_luckock(uniform_pair, 0.0, self.J6, grid_size=8192)
        assert abs(coarse.f_minus_lo - fine.f_minus_lo) < 1e-10

    def test_maker_rate_equals_preshifted_curves(self, uniform_pair):
        # solving at rate rho must be bit-identical to solving the
        # lowered curves at rate zero
        direct = solve_luckock(uniform_pair, 0.2, self.J6)
        lowered = solve_luckock(uniform_pair.shifted(0.2), 0.0, self.J6)
        assert direct.f_minus.tobytes() == lowered.f_minus.tobytes()
        assert direct.f_plus.tobytes() == lowered.f_plus.tobytes()

    def test_satisfies_raw_equations(self, uniform_pair):
        # midpoint residual of both coupled equations, cell by cell
        rho = 0.1
        sol = solve_luckock(uniform_pair, rho, self.J6)
        g, fm, fp = sol.grid, sol.f_minus, sol.f_plus
        h = np.diff(g)
        mid = 0.5 * (g[:-1] + g[1:])
        fm_mid = 0.5 * (fm[:-1] + fm[1:])
        fp_mid = 0.5 * (fp[:-1] + fp[1:])
        demand_mid = 1.0 - mid - rho
        supply_mid = mid - rho
        # d(f-)/dx = f+ / (supply - shift slope term): uniform slopes +-1
        res_minus = np.diff(fm) / h - fp_mid / supply_mid
        res_plus = np.diff(fp) / h + fm_mid / demand_mid
        assert np.abs(res_minus).max() < 1e-6
        assert np.abs(res_plus).max() < 1e-6

    def test_breakpoints_enter_grid(self, evenodd_pair):
        sol = solve_luckock(evenodd_pair, 0.0, PriceInterval(0.5, 5.5))
        for knot in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert knot in sol.grid
        assert sol.boundary_residual < 1e-12

    def test_beyond_recurrent_window_flags_negative(self, uniform_pair):
        sol = solve_luckock(uniform_pair, 0.0, PriceInterval(0.21, 0.79))
        assert sol.negative_edge
        assert sol.f_minus_lo < 0.0

    def test_singular_coefficient_rejected(self, uniform_pair):
        with pytest.raises(SingularCoefficientError):
            solve_luckock(uniform_pair, 0.5, self.J6)
        with pytest.raises(SingularCoefficientError):
            solve_luckock(uniform_pair, 0.25, PriceInterval(0.2, 0.8))

    def test_bad_inputs(self, uniform_pair):
        with pytest.raises(ValueError):
            solve_luckock(uniform_pair, 0.0, PriceInterval(0.4, 1.4))
        with pytest.raises(ValueError):
            solve_luckock(uniform_pair, 0.0, self.J6, grid_size=8)


class TestFreezeSupport:
    def test_interval_above_walras_volume(self, uniform_pair):
        sup = freeze_support(uniform_pair, 0.6)
        assert sup.lo == pytest.approx(0.4, abs=1e-12)
        assert sup.hi == pytest.approx(0.6, abs=1e-12)
        assert sup.length == pytest.approx(0.2, abs=1e-12)
        assert sup.x_w == pytest.approx(0.5, abs=1e-9)
        assert not sup.degenerate

    def test_degenerate_at_walras_volume(self, uniform_pair):
        sup = freeze_support(uniform_pair, 0.5)
        assert sup.degenerate
        assert sup.lo == pytest.approx(0.5, abs=1e-9)
        assert sup.hi == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    def test_saturates_to_full_interval(self, uniform_pair, rho):
        sup = freeze_support(uniform_pair, rho)
        assert (sup.lo, sup.hi) == (0.0, 1.0)

    @pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
    def test_support_shrinks_toward_walras_price(self, uniform_pair, delta):
        sup = freeze_support(uniform_pair, 0.5 + delta)
        assert sup.length == pytest.approx(2 * delta, abs=1e-9)

    def test_below_walras_volume_is_empty(self, uniform_pair):
        with pytest.raises(EmptySupportError):
            freeze_support(uniform_pair, 0.4)

    def test_flat_segments_rejected(self, evenodd_pair, floor_pair):
        with pytest.raises(AssumptionError, match="A6"):
            freeze_support(evenodd_pair, 2.5)
        with pytest.raises(AssumptionError, match="A6"):
            freeze_support(floor_pair, 0.9)


class TestBisectionCap:
    """walras, the effective ceiling and v_l's root share one capped
    bisection (curves._bisect); past the cap it raises, it never spins."""

    @pytest.fixture
    def tiny_cap(self, monkeypatch):
        monkeypatch.setattr(curves, "_BISECT_CAP", 3)

    def test_walras(self, uniform_pair, tiny_cap):
        with pytest.raises(RuntimeError, match="after 3 halvings"):
            walras(uniform_pair)

    def test_effective_ceiling(self, uniform_pair, monkeypatch):
        v_w = walras(uniform_pair).volume
        monkeypatch.setattr(curves, "_BISECT_CAP", 3)
        with pytest.raises(RuntimeError, match="after 3 halvings"):
            theory._effective_ceiling(uniform_pair, 0.0, v_w)

    def test_v_l_root(self, uniform_pair, monkeypatch):
        # walras and the effective ceiling are solved first, so only the
        # root of phi = 1/V_W^2 meets the small cap
        wal = walras(uniform_pair)
        v_eff = theory._effective_ceiling(uniform_pair, 0.0, wal.volume)
        monkeypatch.setattr(theory, "walras", lambda pair: wal)
        monkeypatch.setattr(theory, "_effective_ceiling", lambda pair, rho, v_w: v_eff)
        monkeypatch.setattr(curves, "_BISECT_CAP", 3)
        with pytest.raises(RuntimeError, match="after 3 halvings"):
            v_l(uniform_pair)

    def test_cap_stops_exactly_at_the_cap(self, monkeypatch):
        # [0, 1] to a width of 1/8 takes exactly three halvings
        def too_wide(a, b):
            return b - a > 0.125

        monkeypatch.setattr(curves, "_BISECT_CAP", 3)
        assert curves._bisect(lambda m: m < 0.3, 0.0, 1.0, too_wide) == (0.25, 0.375)
        monkeypatch.setattr(curves, "_BISECT_CAP", 2)
        with pytest.raises(RuntimeError):
            curves._bisect(lambda m: m < 0.3, 0.0, 1.0, too_wide)

    def test_default_cap_covers_a_float_wide_bracket(self):
        # a crossing near 1e-5 on a span of 1e300 takes ~1040 halvings
        # to meet walras's 1e-12 stop
        pair = DemandSupplyPair(
            MonotoneCurve((0.0, 1e-5, 1e300), (1.0, 0.5, 0.0), Direction.DECREASING),
            MonotoneCurve((0.0, 1e-5, 1e300), (0.0, 0.6, 1.0), Direction.INCREASING),
        )
        w = walras(pair)
        assert w.x == pytest.approx(1e-5 / 1.1, rel=1e-6)
        assert w.volume == pytest.approx(6.0 / 11.0, rel=1e-6)


class TestGamblerBound:
    def test_exact_value(self, uniform_pair):
        assert gambler_bound(uniform_pair, 0.6, 0.3) == pytest.approx(0.5, abs=1e-15)

    def test_tightens_toward_the_floor(self, uniform_pair):
        assert gambler_bound(uniform_pair, 0.6, 1e-9) == pytest.approx(1.0, abs=1e-8)
        assert gambler_bound(uniform_pair, 0.6, 0.59) == pytest.approx(
            1.0 - 0.59 / 0.6, abs=1e-12
        )

    def test_vacuous_cases(self, uniform_pair):
        with pytest.raises(VacuousBoundError):
            gambler_bound(uniform_pair, 0.6, 0.6)  # supply rate equals rho
        with pytest.raises(VacuousBoundError):
            gambler_bound(uniform_pair, 0.6, 0.7)
        with pytest.raises(VacuousBoundError):
            gambler_bound(uniform_pair, 0.0, 0.3)

    def test_level_must_be_interior(self, uniform_pair):
        with pytest.raises(DomainError):
            gambler_bound(uniform_pair, 0.6, 0.0)
        with pytest.raises(DomainError):
            gambler_bound(uniform_pair, 0.6, 1.0)


# -- price and rate units -----------------------------------------------------

PROBE_HEADER = """
from lobmm import DemandSupplyPair, Direction, MonotoneCurve, v_l, walras
def pair(lo, hi, c):
    return DemandSupplyPair(
        MonotoneCurve((lo, hi), (c, 0.0), Direction.DECREASING),
        MonotoneCurve((lo, hi), (0.0, c), Direction.INCREASING),
    )
"""


def run_probe(code: str) -> list:
    """Floats printed by ``code`` in a fresh interpreter, which is killed
    after 20 s: a bisection whose stop lies below the float spacing at the
    probed scale never returns."""
    env = dict(os.environ, PYTHONPATH=str(Path(lobmm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_HEADER + code],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
        check=True,
    )
    return [float(tok) for tok in proc.stdout.split()]


class TestUnits:
    def test_walras_at_large_prices(self):
        x, volume = run_probe("w = walras(pair(1e4, 2e4, 1.0)); print(w.x, w.volume)")
        assert x == pytest.approx(1.5e4, rel=1e-12)
        assert volume == pytest.approx(0.5, abs=1e-9)

    def test_v_l_moves_with_the_price_axis(self):
        vol, lo, hi = run_probe(
            "r = v_l(pair(1e4, 1e4 + 1.0, 1.0)); print(r.v_l, r.window.lo, r.window.hi)"
        )
        assert vol == pytest.approx(VL_UNIFORM, abs=1e-9)
        assert lo - 1e4 == pytest.approx(XL_UNIFORM, abs=1e-8)
        assert hi - 1e4 == pytest.approx(VL_UNIFORM, abs=1e-8)

    def test_v_l_at_large_rates(self):
        vol, lo, hi = run_probe(
            "r = v_l(pair(0.0, 1.0, 1e7)); print(r.v_l, r.window.lo, r.window.hi)"
        )
        # phi's quadrature tolerance is absolute while phi scales as
        # 1/rate^2, so at this scale only about six digits are exact
        assert vol == pytest.approx(1e7 * VL_UNIFORM, rel=1e-6)
        assert lo == pytest.approx(XL_UNIFORM, abs=1e-6)
        assert hi == pytest.approx(VL_UNIFORM, abs=1e-6)


# -- the shared phi evaluator ----------------------------------------------
#
# The quadrature as it was before phi got one evaluator per (pair, rho),
# kept verbatim as the oracle: every call rebuilt the knots and integrated
# every piece from V_W again, on fresh grids at every doubling.


def _ref_phi_knots(pair, lo, hi):
    levels = set()
    for p in set(pair.demand.prices) | set(pair.supply.prices):
        for lvl in (float(pair.demand.value_at(p)), float(pair.supply.value_at(p))):
            if lo < lvl < hi:
                levels.add(lvl)
    return sorted(levels)


def _ref_simpson(fx, h):
    return float((h / 3.0) * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum()))


def _ref_integrate_piece(f, a, b, tol):
    if b <= a:
        return 0.0, 0.0
    n = 8
    xs = np.linspace(a, b, n + 1)
    prev = _ref_simpson(f(xs), (b - a) / n)
    for _ in range(16):
        n *= 2
        xs = np.linspace(a, b, n + 1)
        cur = _ref_simpson(f(xs), (b - a) / n)
        if abs(cur - prev) <= tol:
            return cur, abs(cur - prev)
        prev = cur
    return prev, abs(cur - prev)


def _ref_phi_integrand(pair, rho):
    demand, supply = pair.demand, pair.supply

    def f(w):
        x_lo = demand.inverse(w)
        x_hi = supply.inverse(w)
        a = supply.value_at(x_lo) - rho
        b = demand.value_at(x_hi) - rho
        return (1.0 / a + 1.0 / b) / (w * w)

    return f


def _ref_phi_from(pair, rho, v_w, v, tol=1e-10):
    if v <= v_w:
        return 0.0, 0.0
    knots = [v_w] + _ref_phi_knots(pair, v_w, v) + [v]
    f = _ref_phi_integrand(pair, rho)
    piece_tol = tol / len(knots)
    total = 0.0
    err = 0.0
    for a, b in zip(knots, knots[1:]):
        val, e = _ref_integrate_piece(f, a, b, piece_tol)
        total += val
        err += e
    return total, err


def ref_phi(pair, rho, v):
    v_w = walras(pair).volume
    v_max = theory._v_ceiling(pair)
    span_tol = 1e-12 * max(1.0, v_max)
    if v < v_w - span_tol or v > v_max + span_tol:
        raise DomainError("outside [V_W, V_max]")
    v = min(max(v, v_w), v_max)
    if min(theory._edge_gap(pair, rho, v)) <= 0.0:
        raise DomainError("beyond the validity edge")
    return _ref_phi_from(pair, rho, v_w, v)[0]


def ref_classify_recurrence(pair, rho, v, band_rel=1e-6):
    v_w = walras(pair).volume
    v_eff = theory._effective_ceiling(pair, rho, v_w)
    if not v_w < v < v_eff:
        raise DomainError("outside (V_W, effective ceiling)")
    value = _ref_phi_from(pair, rho, v_w, v)[0]
    threshold = 1.0 / (v_w * v_w)
    if abs(value - threshold) <= band_rel * threshold:
        return Recurrence.CRITICAL
    if value < threshold:
        return Recurrence.POSITIVE_RECURRENT
    return Recurrence.NOT_POSITIVE_RECURRENT


def ref_v_l(pair, rho):
    """The reference for rho < V_W (every report below is not degenerate)."""
    wal = walras(pair)
    v_w = wal.volume
    v_max = theory._v_ceiling(pair)
    threshold = 1.0 / (v_w * v_w)
    v_eff = theory._effective_ceiling(pair, rho, v_w)
    v_cap = v_eff - 1e-9
    phi_cap, _ = _ref_phi_from(pair, rho, v_w, v_cap)
    if phi_cap < threshold:
        x_lo = float(pair.demand.inverse(v_eff))
        x_hi = float(pair.supply.inverse(v_eff))
        window = PriceInterval(x_lo, x_hi) if x_lo < x_hi else None
        return WindowReport(
            rho, v_w, wal.x, wal.unique, v_max, v_eff, threshold,
            v_eff, window, True, False, phi_cap,
        )
    a, b = v_w, v_cap
    while b - a > 1e-10 * max(1.0, b):
        m = 0.5 * (a + b)
        if _ref_phi_from(pair, rho, v_w, m)[0] < threshold:
            a = m
        else:
            b = m
    vol = 0.5 * (a + b)
    window = PriceInterval(float(pair.demand.inverse(vol)), float(pair.supply.inverse(vol)))
    return WindowReport(
        rho, v_w, wal.x, wal.unique, v_max, v_eff, threshold,
        vol, window, False, False, phi_cap,
    )


def ref_phi_table(pair, rho, n=64, tol=1e-10):
    v_w = walras(pair).volume
    v_hi = theory._effective_ceiling(pair, rho, v_w) - 1e-9
    if not v_w < v_hi:
        raise ValueError("empty tabulation range")
    if min(theory._edge_gap(pair, rho, v_hi)) <= 0.0:
        raise DomainError("tabulation end beyond the validity edge")
    vols = np.linspace(v_w, v_hi, n)
    f = _ref_phi_integrand(pair, rho)
    piece_tol = tol / n
    vals = [0.0]
    errs = [0.0]
    acc = 0.0
    eacc = 0.0
    for a, b in zip(vols[:-1], vols[1:]):
        pts = [float(a)] + _ref_phi_knots(pair, float(a), float(b)) + [float(b)]
        for ka, kb in zip(pts, pts[1:]):
            val, e = _ref_integrate_piece(f, ka, kb, piece_tol)
            acc += val
            eacc += e
        vals.append(acc)
        errs.append(eacc)
    return tuple(float(v) for v in vols), tuple(vals), tuple(errs)


def _outcome(fn, *args):
    """A function's value, or the class of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


EVALUATOR_PAIRS = {
    "uniform": make_uniform_pair,
    "floor": make_floor_pair,
    "floors": floors_pair,
    "evenodd": make_evenodd_pair,
}


def _pair_named(name):
    return EVALUATOR_PAIRS[name]() if name in EVALUATOR_PAIRS else make_kinked_pair(name)


class TestSharedEvaluator:
    """Every float phi, v_l, classify_recurrence and PhiTable.build give
    equals the one the oracle above computes, exactly."""

    @settings(max_examples=6, deadline=None)
    @given(
        name=st.one_of(st.sampled_from(sorted(EVALUATOR_PAIRS)), st.integers(8, 64)),
        rho_frac=st.floats(0.0, 1.0, exclude_max=True),
        vol_fracs=st.lists(st.floats(-0.2, 1.1), min_size=1, max_size=4),
    )
    # the kinked pair's shifted supply reaches zero inside the ceiling at
    # rho 0.1, so the piece ending at the cap runs every doubling; at rho 0
    # and on the floors pair the integrand stays finite and the cap converges
    @example(name=32, rho_frac=0.1 / 0.43564418151680256, vol_fracs=[0.1, 0.3, 0.6, 1.0])
    @example(name=32, rho_frac=0.0, vol_fracs=[0.5])
    @example(name="floors", rho_frac=0.5, vol_fracs=[0.0, 0.99])
    def test_bit_identical_to_the_reference(self, name, rho_frac, vol_fracs):
        pair = _pair_named(name)
        v_w = walras(pair).volume
        rho = rho_frac * v_w
        assert v_l(pair, rho) == ref_v_l(pair, rho)

        table = _outcome(PhiTable.build, pair, rho)
        if isinstance(table, PhiTable):
            table = (table.volumes, table.values, table.errors)
        assert table == _outcome(ref_phi_table, pair, rho)

        v_max = theory._v_ceiling(pair)
        volumes = [v_w + f * (v_max - v_w) for f in vol_fracs]
        levels = _ref_phi_knots(pair, v_w, v_max)
        if levels:
            volumes.append(levels[len(levels) // 2])  # phi(v) ends on a knot
        expected = []
        for v in volumes:
            value = _outcome(ref_phi, pair, rho, v)
            klass = _outcome(ref_classify_recurrence, pair, rho, v)
            assert _outcome(phi, pair, rho, v) == value
            assert _outcome(classify_recurrence, pair, rho, v) == klass
            if isinstance(value, type) or isinstance(klass, type):
                expected.append((None, None))
            else:
                expected.append((value, klass))
        got = [
            (None, None) if klass is None and math.isnan(value) else (value, klass)
            for value, klass in recurrence_sweep(pair, rho, volumes)
        ]
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(-1e9, 1e9, allow_subnormal=False),
        b=st.floats(-1e9, 1e9, allow_subnormal=False),
        k=st.integers(0, 16),
    )
    def test_doubled_grid_nests_the_previous_one(self, a, b, k):
        # _integrate_piece reuses a grid's samples at the even indices of
        # the doubled grid, which is exact only because of this identity
        n = 8 * 2**k
        assume(a < b and (b - a) / (2 * n) >= sys.float_info.min)
        coarse = np.linspace(a, b, n + 1)
        assert np.linspace(a, b, 2 * n + 1)[::2].tobytes() == coarse.tobytes()


def _moved(pair, scale_exp, offset):
    """``pair`` with every rate times 2**scale_exp and every price plus ``offset``."""

    def move(curve):
        return MonotoneCurve(
            tuple(p + offset for p in curve.prices),
            tuple(math.ldexp(r, scale_exp) for r in curve.rates),
            curve.direction,
        )

    return DemandSupplyPair(move(pair.demand), move(pair.supply))


def signed_zero_pair() -> DemandSupplyPair:
    """Supply rising from -0.0 to 2 against uniform demand.  At the volume
    ceiling x_lo is the left end, where np.interp returns that zero itself
    and slope * 0.0 + -0.0 reads +0.0."""
    return DemandSupplyPair(
        MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING),
        MonotoneCurve((0.0, 1.0), (-0.0, 2.0), Direction.INCREASING),
    )


PIECE_PAIRS = dict(
    uniform=make_uniform_pair,
    floor=make_floor_pair,
    evenodd=make_evenodd_pair,
    signed_zero=signed_zero_pair,
)


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _pick_piece(ev, kind, where, cut, steps):
    """A piece [a, b] the quadrature of ``ev`` can integrate: a whole knot
    piece, a ``PhiTable`` grid cell cut at the knots, a few ulps on one
    side of a knot, or the last piece run past the ceiling."""
    v_w, v_max = ev.v_w, ev.v_max
    inner = ev.knots(v_w, v_max)
    pts = [v_w] + inner + [v_max]
    if kind == "knot":
        k = int(where * (len(pts) - 1))
        a, b = pts[k], pts[k + 1]
    elif kind == "table":
        v_hi = ev.v_eff - theory._EDGE_MARGIN
        assume(v_w < v_hi)
        vols = np.linspace(v_w, v_hi, 64).tolist()
        k = int(where * 63)
        cell = [vols[k]] + ev.knots(vols[k], vols[k + 1]) + [vols[k + 1]]
        k = int(cut * (len(cell) - 1))
        a, b = cell[k], cell[k + 1]
    elif kind == "ulps":
        # linspace rounds samples onto the knot
        assume(inner)
        knot = inner[int(where * len(inner))]
        a, b = sorted((knot, _ulps_from(knot, steps)))
    else:
        # past the ceiling the general integrand raises DomainError
        a, b = pts[-2], v_max + (1.0 + where) * max(v_max, 1.0) * 1e-9
    assume(a < b)
    return a, b


PIECE_STRATEGIES = dict(
    name=st.one_of(st.sampled_from(sorted(PIECE_PAIRS)), st.integers(2, 64)),
    rho_frac=st.floats(0.0, 1.0, exclude_max=True),
    scale_exp=st.integers(-40, 40),
    offset=st.sampled_from([0.0, 1e4, 1e12]),
    kind=st.sampled_from(["knot", "table", "ulps", "past-ceiling"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    cut=st.floats(0.0, 1.0, exclude_max=True),
    steps=st.integers(-8, 8).filter(bool),
)


def _evaluator(name, rho_frac, scale_exp, offset):
    make = PIECE_PAIRS.get(name, lambda: make_kinked_pair(name))
    pair = _moved(make(), scale_exp, offset)
    return theory._PhiEvaluator(pair, rho_frac * walras(pair).volume)


class TestPieceIntegrand:
    """The per-piece integrand gives the general one's bits on every sample
    array the quadrature can hand it, and raises where the general one does."""

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.integers(0, 9),
        block=st.sampled_from([3, 64, theory._SAMPLE_BLOCK]),
        **PIECE_STRATEGIES,
    )
    # the kinked pair's cap piece at rho 0.1, the last piece of the table,
    # which runs every doubling
    @example(
        name=32, rho_frac=0.1 / 0.43564418151680256, scale_exp=0, offset=0.0,
        kind="table", where=0.999, cut=0.999, steps=1, level=9, block=64,
    )
    # a piece one ulp wide above a knot: every sample rounds onto one of its ends
    @example(
        name=32, rho_frac=0.0, scale_exp=0, offset=1e12,
        kind="ulps", where=0.5, cut=0.0, steps=1, level=3, block=3,
    )
    # the whole grid of the last piece, which ends on the ceiling: there
    # x_lo is the left end of the signed-zero pair's supply
    @example(
        name="signed_zero", rho_frac=0.0, scale_exp=0, offset=0.0,
        kind="knot", where=0.999, cut=0.0, steps=1, level=0, block=3,
    )
    # a piece one ulp wide below a knot, in blocks of 3: the last block's
    # samples round onto the knot and leave the segments, the first's do not
    @example(
        name=2, rho_frac=0.0, scale_exp=0, offset=0.0,
        kind="ulps", where=0.0, cut=0.0, steps=-1, level=1, block=3,
    )
    def test_bit_identical_to_the_general_integrand(
        self, name, rho_frac, scale_exp, offset, kind, where, cut, steps, level, block
    ):
        ev = _evaluator(name, rho_frac, scale_exp, offset)
        a, b = _pick_piece(ev, kind, where, cut, steps)
        if level == 0:
            w = np.linspace(a, b, 9)
        else:
            w = np.linspace(a, b, 8 * 2**level + 1)[1::2]
        general = theory._phi_integrand(ev.pair, ev.rho)
        # any block length gives the same bits; short ones split every call
        saved, theory._SAMPLE_BLOCK = theory._SAMPLE_BLOCK, block
        try:
            piece = theory._piece_integrand(ev.pair, ev.rho, a, b, general)
            # written as a whole array, and through the odd slots of a grid
            out = np.empty(len(w))
            grid = np.full(2 * len(w) + 1, np.nan)
            with np.errstate(all="ignore"):
                expected = _outcome(general, w)
                got = _outcome(piece, w, out)
                strided = _outcome(piece, w, grid[1::2])
        finally:
            theory._SAMPLE_BLOCK = saved
        if isinstance(expected, type):
            assert got is expected and strided is expected
        else:
            assert got is None and strided is None
            assert out.tobytes() == expected.tobytes()
            assert grid[1::2].tobytes() == expected.tobytes()
            assert np.isnan(grid[::2]).all()

    @settings(max_examples=100, deadline=None)
    @given(**PIECE_STRATEGIES)
    def test_odd_samples_are_linspace(
        self, name, rho_frac, scale_exp, offset, kind, where, cut, steps
    ):
        # every doubling of _integrate_piece, n = 2^4 ... 2^19, samples the
        # odd points of np.linspace(a, b, n + 1), bit for bit
        ev = _evaluator(name, rho_frac, scale_exp, offset)
        a, b = _pick_piece(ev, kind, where, cut, steps)
        seen = []

        def record(w, out):
            seen.append(w.tobytes())
            out[...] = 1.0

        # a tolerance of -1 never converges
        theory._integrate_piece(record, a, b, -1.0, (None, None))
        assert len(seen) == 17
        assert seen[0] == np.linspace(a, b, 9).tobytes()
        for level, samples in enumerate(seen[1:], start=1):
            n = 8 * 2**level
            assert samples == np.linspace(a, b, n + 1)[1::2].tobytes(), n

    @settings(max_examples=50, deadline=None)
    @given(
        name=PIECE_STRATEGIES["name"],
        rho_frac=PIECE_STRATEGIES["rho_frac"],
        scale_exp=PIECE_STRATEGIES["scale_exp"],
        offset=PIECE_STRATEGIES["offset"],
    )
    @example(name=32, rho_frac=0.1 / 0.43564418151680256, scale_exp=0, offset=0.0)
    def test_knot_table_is_the_general_integrand(self, name, rho_frac, scale_exp, offset):
        # one vectorised call gives each knot level the bits a grid sample
        # there gets, for every level in (V_W, v_eff)
        ev = _evaluator(name, rho_frac, scale_exp, offset)
        general = theory._phi_integrand(ev.pair, ev.rho)
        levels = [v for v in theory._knot_levels(ev.pair) if ev.v_w < v < ev.v_eff]
        assert list(ev._at_knots) == levels
        for level, value in ev._at_knots.items():
            assert np.float64(value).tobytes() == general(np.array([level])).tobytes()


class TestPhiWork:
    """Deterministic work counts: integrand samples, not wall-clock time."""

    @pytest.fixture
    def samples(self, monkeypatch):
        """[samples through the per-piece integrands, samples the general
        integrand took, calls of the general integrand]"""
        count = [0, 0, 0]

        def pieces(*args):
            f = real_piece(*args)

            def g(w, out):
                count[0] += len(w)
                f(w, out)

            return g

        def general(*args):
            f = real_general(*args)

            def g(w):
                count[1] += len(w)
                count[2] += 1
                return f(w)

            return g

        real_piece, real_general = theory._piece_integrand, theory._phi_integrand
        monkeypatch.setattr(theory, "_piece_integrand", pieces)
        monkeypatch.setattr(theory, "_phi_integrand", general)
        return count

    # one pass per call over fresh grids took 1,099,382 samples for v_l and
    # 1,061,326 for the table; the piece ending at the cap runs all 16
    # doublings (524,289 samples) and bounds either from below.  The general
    # integrand runs once, on the knot levels, where pieces end; a piece
    # integrand that hands samples to it (92 calls in v_l and 29 in the
    # table before the knot levels were tabulated) keeps the bits but
    # loses the speed
    def test_v_l_sample_budget(self, samples):
        v_l(make_kinked_pair(32), 0.1)
        pieces, general, calls = samples
        assert calls == 1
        assert 524_289 <= pieces + general <= 600_000
        assert general <= 0.01 * (pieces + general)

    def test_phi_table_sample_budget(self, samples):
        PhiTable.build(make_kinked_pair(32), 0.1)
        pieces, general, calls = samples
        assert calls == 1
        assert 524_289 <= pieces + general <= 600_000
        assert general <= 0.01 * (pieces + general)

    # the cap piece's last doubling holds its grid of 524,289 samples, the
    # previous grid and the new odd samples: 8.5 MB traced.  A workspace
    # that kept two grids of the deepest doubling beside them read 17.9 MB
    @pytest.mark.parametrize("build", [v_l, PhiTable.build], ids=["v_l", "PhiTable.build"])
    def test_traced_peak(self, build):
        pair = make_kinked_pair(32)
        tracemalloc.start()
        try:
            build(pair, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
