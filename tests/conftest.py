"""Shared model fixtures.

The uniform pair (demand 1-x, supply x on (0,1)) is the workhorse: it has
closed forms for everything.  The even/odd pair is the discrete-price
construction on (0,6) whose image under ceil(x/2) lives on {1,2,3}.  The
floor pair grafts a market-order floor onto uniform demand; the two-piece
pair bends the supply curve to exercise breakpoint handling.  The kinked
pair samples smooth curves at many breakpoints, so the window functional
splits into many knot pieces.
"""

from __future__ import annotations

import pytest

from lobmm import DemandSupplyPair, Direction, MonotoneCurve


def make_uniform_pair() -> DemandSupplyPair:
    return DemandSupplyPair(
        MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING),
        MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING),
    )


def make_evenodd_pair(n: int = 3) -> DemandSupplyPair:
    """Alternating unit-density pair on (0, 2n).

    Demand falls by one on (1,2], (3,4], ... and is flat elsewhere; supply
    rises by one on (0,1], (2,3], ... and is flat elsewhere.
    """
    prices = tuple(float(k) for k in range(2 * n + 1))
    d_rates = []
    s_rates = []
    d = float(n)
    s = 0.0
    d_rates.append(d)
    s_rates.append(s)
    for k in range(1, 2 * n + 1):
        if k % 2 == 0:
            d -= 1.0  # demand density -1 on odd-to-even cells (1,2], (3,4], ...
        else:
            s += 1.0  # supply density +1 on even-to-odd cells (0,1], (2,3], ...
        d_rates.append(d)
        s_rates.append(s)
    return DemandSupplyPair(
        MonotoneCurve(prices, tuple(d_rates), Direction.DECREASING),
        MonotoneCurve(prices, tuple(s_rates), Direction.INCREASING),
    )


@pytest.fixture
def uniform_pair() -> DemandSupplyPair:
    return make_uniform_pair()


@pytest.fixture
def evenodd_pair() -> DemandSupplyPair:
    return make_evenodd_pair(3)


def make_floor_pair() -> DemandSupplyPair:
    """Uniform pair with demand floored at 0.2 (market buy orders arrive)."""
    return DemandSupplyPair(
        MonotoneCurve((0.0, 0.8, 1.0), (1.0, 0.2, 0.2), Direction.DECREASING),
        MonotoneCurve((0.0, 1.0), (0.0, 1.0), Direction.INCREASING),
    )


@pytest.fixture
def floor_pair() -> DemandSupplyPair:
    return make_floor_pair()


@pytest.fixture
def two_piece_pair() -> DemandSupplyPair:
    """Uniform demand against a supply with slope 1 then slope 3."""
    return DemandSupplyPair(
        MonotoneCurve((0.0, 1.0), (1.0, 0.0), Direction.DECREASING),
        MonotoneCurve((0.0, 0.5, 1.0), (0.0, 0.5, 2.0), Direction.INCREASING),
    )


def kinked_model(segments: int = 32) -> dict:
    """Config ``model`` block of the kinked pair: demand 1.5(1-x)^2 + 0.05
    and supply 1.2 x^1.5 + 0.02 sampled at ``segments + 1`` equally spaced
    prices on [0, 1] (V_W ~ 0.4356)."""
    xs = [k / segments for k in range(segments + 1)]
    return {
        "interval": [0.0, 1.0],
        "demand": [[x, 1.5 * (1.0 - x) ** 2 + 0.05] for x in xs],
        "supply": [[x, 1.2 * x**1.5 + 0.02] for x in xs],
    }


def make_kinked_pair(segments: int = 32) -> DemandSupplyPair:
    model = kinked_model(segments)
    demand, supply = zip(*model["demand"]), zip(*model["supply"])
    return DemandSupplyPair(
        MonotoneCurve(*demand, Direction.DECREASING),
        MonotoneCurve(*supply, Direction.INCREASING),
    )
