"""Piecewise-linear demand and supply curves and their measure operations.

A demand curve gives the rate of buy interest at or above each price, a
supply curve the rate of sell interest at or below each price.  Both are
stored as breakpoint sequences spanning one closed price interval and are
evaluated by linear interpolation.  Curve increments act as measures (the
local arrival intensities of limit orders), so alongside evaluation this
module provides left-continuous inverses, the total increment mass, the
vertical shift used by market-maker corrections, and the walrasian
crossing point.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Tuple, Union

# numpy loads only where an array is made or read, so a config parser or a
# command that makes no array never pays for the import
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AssumptionError",
    "DemandSupplyPair",
    "Direction",
    "DomainError",
    "MonotoneCurve",
    "PriceInterval",
    "WalrasPoint",
    "require_core_assumptions",
    "walras",
]

_REL_TOL = 1e-12


class DomainError(ValueError):
    """An argument fell outside the price or rate domain of a curve."""


class AssumptionError(ValueError):
    """A structural assumption on the curve pair does not hold."""

    def __init__(self, label: str, message: str):
        self.label = label
        super().__init__(f"{label}: {message}")


class Direction(Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"


@dataclass(frozen=True)
class PriceInterval:
    """Open interval of admissible prices; endpoints act as quote fallbacks."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains_open(self, x: float) -> bool:
        return self.lo < x < self.hi


def _is_ndarray(x: Any) -> bool:
    """Whether ``x`` is a numpy array.  No array exists before numpy loads,
    so this never loads it."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


@dataclass(frozen=True)
class MonotoneCurve:
    """Weakly monotone piecewise-linear curve over a closed price span.

    ``prices`` must be strictly increasing; ``rates`` must follow
    ``direction``.  Rates are nonnegative unless ``allow_negative`` is set,
    which shifted curves use (their validity domain is the caller's
    responsibility).
    """

    prices: Tuple[float, ...]
    rates: Tuple[float, ...]
    direction: Direction
    allow_negative: InitVar[bool] = False

    _rev_rate_list: list = field(init=False, repr=False, compare=False)

    def __post_init__(self, allow_negative: bool):
        prices = tuple(float(p) for p in self.prices)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "rates", rates)
        if len(prices) < 2 or len(prices) != len(rates):
            raise ValueError("need matching price/rate sequences of length >= 2")
        if not all(map(math.isfinite, prices)) or not all(map(math.isfinite, rates)):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(prices, prices[1:])):
            raise ValueError("breakpoint prices must be strictly increasing")
        diffs = [b - a for a, b in zip(rates, rates[1:])]
        if self.direction is Direction.DECREASING:
            if any(d > 0.0 for d in diffs):
                raise AssumptionError(
                    "(A1)", "rates must be nonincreasing for a decreasing curve"
                )
        elif any(d < 0.0 for d in diffs):
            raise AssumptionError(
                "(A1)", "rates must be nondecreasing for an increasing curve"
            )
        if not allow_negative and min(rates) < 0.0:
            raise ValueError("rates must be nonnegative")
        # a gap of subnormal or overflowing width, or a slope beyond the float
        # range, leaves the segment too few bits for the theory's and the
        # sampler's algebra
        for k, (a, b, d) in enumerate(zip(prices, prices[1:], diffs)):
            if not (sys.float_info.min <= b - a < math.inf and math.isfinite(d / (b - a))):
                raise ValueError(
                    f"segment {k} [{a!r}, {b!r}] is too narrow, too wide or too steep "
                    f"for floats: width {b - a!r}, rate change {d!r}"
                )

        object.__setattr__(self, "_rev_rate_list", list(rates[::-1]))

    # the interpolation tables of the array paths, built on first array use
    @cached_property
    def _px(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.prices, dtype=np.float64)

    @cached_property
    def _rx(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.rates, dtype=np.float64)

    @property
    def lo(self) -> float:
        return self.prices[0]

    @property
    def hi(self) -> float:
        return self.prices[-1]

    @property
    def max_rate(self) -> float:
        return self.rates[0] if self.direction is Direction.DECREASING else self.rates[-1]

    @property
    def total_mass(self) -> float:
        """Total increment mass, |rate(hi) - rate(lo)|."""
        return abs(self.rates[-1] - self.rates[0])

    def _check_price(self, x: float) -> float:
        tol = _REL_TOL * (self.hi - self.lo)
        if x < self.lo - tol or x > self.hi + tol:
            raise DomainError(f"price {x} outside [{self.lo}, {self.hi}]")
        return min(max(x, self.lo), self.hi)

    def value_at(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Linear interpolation of the rate at price(s) ``x``.

        Exact at breakpoints.  Accepts a scalar or an ndarray.
        """
        if _is_ndarray(x):
            import numpy as np

            tol = _REL_TOL * (self.hi - self.lo)
            if np.any(x < self.lo - tol) or np.any(x > self.hi + tol):
                raise DomainError("price array leaves the curve span")
            return np.interp(np.clip(x, self.lo, self.hi), self._px, self._rx)
        x = self._check_price(float(x))
        pl = self.prices
        j = bisect_right(pl, x) - 1
        if j < 0:
            j = 0
        elif j >= len(pl) - 1:
            j = len(pl) - 2
        rl = self.rates
        if x == pl[j]:
            return rl[j]
        if x == pl[j + 1]:
            return rl[j + 1]
        t = (x - pl[j]) / (pl[j + 1] - pl[j])
        return rl[j] + t * (rl[j + 1] - rl[j])

    def _check_level(self, v: float) -> None:
        tol = _REL_TOL * max(1.0, abs(self.max_rate))
        if v < -tol or v > self.max_rate + tol:
            raise DomainError(f"rate level {v} outside [0, {self.max_rate}]")

    def inverse(self, v: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Left-continuous generalized inverse at rate level ``v``.

        For a decreasing curve this is sup{x : rate(x) >= v}; for an
        increasing curve inf{x : rate(x) >= v}.  Levels above the maximum
        rate raise :class:`DomainError`.
        """
        if _is_ndarray(v):
            return self._inverse_array(v)
        v = float(v)
        self._check_level(v)
        pl, rl = self.prices, self.rates
        n = len(pl)
        if self.direction is Direction.DECREASING:
            if v <= rl[-1]:
                return pl[-1]
            k = bisect_left(self._rev_rate_list, v)
            j = n - 1 - k  # rightmost index with rate >= v
            hi_r = rl[j]
            return pl[j] + (hi_r - v) / (hi_r - rl[j + 1]) * (pl[j + 1] - pl[j])
        if v <= rl[0]:
            return pl[0]
        k = bisect_left(rl, v)  # leftmost index with rate >= v
        if k >= n:
            k = n - 1
        lo_r = rl[k - 1]
        return pl[k - 1] + (v - lo_r) / (rl[k] - lo_r) * (pl[k] - pl[k - 1])

    def _inverse_array(self, v: np.ndarray) -> np.ndarray:
        import numpy as np

        tol = _REL_TOL * max(1.0, abs(self.max_rate))
        if np.any(v < -tol) or np.any(v > self.max_rate + tol):
            raise DomainError("rate level array leaves [0, max_rate]")
        rx, px = self._rx, self._px
        n = len(px)
        if self.direction is Direction.DECREASING:
            rev = rx[::-1]
            k = np.searchsorted(rev, v, side="left")
            j = np.clip(n - 1 - k, 0, n - 2)
            hi_r = rx[j]
            dr = hi_r - rx[j + 1]
            frac = np.where(dr > 0.0, (hi_r - v) / np.where(dr > 0.0, dr, 1.0), 0.0)
            x = px[j] + frac * (px[j + 1] - px[j])
            return np.where(v <= rx[-1], px[-1], x)
        k = np.clip(np.searchsorted(rx, v, side="left"), 1, n - 1)
        lo_r = rx[k - 1]
        dr = rx[k] - lo_r
        frac = np.where(dr > 0.0, (v - lo_r) / np.where(dr > 0.0, dr, 1.0), 0.0)
        x = px[k - 1] + frac * (px[k] - px[k - 1])
        return np.where(v <= rx[0], px[0], x)


@dataclass(frozen=True)
class DemandSupplyPair:
    """A decreasing demand curve and an increasing supply curve on one span.

    Construction validates monotone directions, matching spans, strictly
    increasing supply-minus-demand (on every merged segment), and, unless
    ``check_positive`` is disabled (shifted pairs), positivity of both
    curves on the open interval.
    """

    demand: MonotoneCurve
    supply: MonotoneCurve
    check_positive: InitVar[bool] = True

    def __post_init__(self, check_positive: bool):
        if self.demand.direction is not Direction.DECREASING:
            raise AssumptionError("(A1)", "demand curve must be nonincreasing")
        if self.supply.direction is not Direction.INCREASING:
            raise AssumptionError("(A1)", "supply curve must be nondecreasing")
        if (self.demand.lo, self.demand.hi) != (self.supply.lo, self.supply.hi):
            raise ValueError("demand and supply must span the same interval")
        bad = _a3_violation(self.demand, self.supply)
        if bad is not None:
            raise AssumptionError(
                "(A3)", f"supply minus demand not strictly increasing near x={bad}"
            )
        if check_positive:
            bad = _a4_violation(self.demand, self.supply)
            if bad is not None:
                raise AssumptionError(
                    "(A4)", f"curve not positive on the open interval near x={bad}"
                )

    @property
    def interval(self) -> PriceInterval:
        return PriceInterval(self.demand.lo, self.demand.hi)

    def shifted(self, rho: float) -> "DemandSupplyPair":
        """Both curves lowered by ``rho`` (market-maker correction).

        The result may take negative rates; callers restrict attention to
        the region where the shifted curves stay positive.
        """
        if rho < 0.0:
            raise ValueError("shift amount must be nonnegative")
        return DemandSupplyPair(
            MonotoneCurve(
                self.demand.prices,
                tuple(r - rho for r in self.demand.rates),
                Direction.DECREASING,
                allow_negative=True,
            ),
            MonotoneCurve(
                self.supply.prices,
                tuple(r - rho for r in self.supply.rates),
                Direction.INCREASING,
                allow_negative=True,
            ),
            check_positive=False,
        )


def _a3_violation(demand: MonotoneCurve, supply: MonotoneCurve):
    """Leftmost merged segment whose supply-demand slope gap is not positive."""
    pts = sorted(set(demand.prices) | set(supply.prices))
    for a, b in zip(pts, pts[1:]):
        sd = (demand.value_at(b) - demand.value_at(a)) / (b - a)
        ss = (supply.value_at(b) - supply.value_at(a)) / (b - a)
        if not ss - sd > 0.0:
            return a
    return None


def _a4_violation(demand: MonotoneCurve, supply: MonotoneCurve):
    """A point of the open interval near which either curve fails positivity.

    A piecewise-linear curve is positive on the open interval exactly when
    it is positive at every merged breakpoint strictly inside and
    nonnegative at both endpoints, and, with no breakpoint inside, not zero
    at both.  No probe point needs an epsilon, so the rule holds at any
    price scale.
    """
    lo, hi = demand.lo, demand.hi
    inner = [p for p in sorted(set(demand.prices) | set(supply.prices)) if lo < p < hi]
    for curve in (demand, supply):
        for x in inner:
            if curve.value_at(x) <= 0.0:
                return x
        v_lo, v_hi = curve.value_at(lo), curve.value_at(hi)
        if v_hi < 0.0:
            return hi
        if v_lo < 0.0 or not (inner or v_lo or v_hi):
            return lo
    return None


@dataclass(frozen=True)
class WalrasPoint:
    """Crossing of demand and supply: maximizer of min(demand, supply).

    ``x`` is the leftmost maximizer, ``x_hi`` the rightmost; the flag is
    set when the two agree (strict monotonicity through the crossing).
    """

    x: float
    volume: float
    unique: bool
    x_hi: float


# halvings a bisection may take.  A finite bracket is narrower than 2**1025
# and no caller stops below a width of 1e-15 (about 2**-50), so a caller
# that meets its stopping rule does so within 1075 halvings; one that has
# not by then never will (a NaN, or a width below float spacing).
_BISECT_CAP = 1100


def _midpoint(a: float, b: float) -> float:
    """``0.5 * (a + b)``, or ``0.5 * a + 0.5 * b`` where the sum overflows;
    the two agree bit for bit unless a half underflows."""
    m = 0.5 * (a + b)
    return m if math.isfinite(m) else 0.5 * a + 0.5 * b


def _bisect(
    goes_right: Callable[[float], bool],
    a: float,
    b: float,
    too_wide: Callable[[float, float], bool],
) -> Tuple[float, float]:
    """Halve the bracket [a, b] while ``too_wide(a, b)``: the midpoint m
    replaces a when ``goes_right(m)``, else b.  Returns the final bracket.
    Raises RuntimeError rather than take more than ``_BISECT_CAP`` halvings."""
    halvings = 0
    while too_wide(a, b):
        if halvings == _BISECT_CAP:
            raise RuntimeError(f"bisection still at [{a}, {b}] after {_BISECT_CAP} halvings")
        halvings += 1
        m = _midpoint(a, b)
        if goes_right(m):
            a = m
        else:
            b = m
    return a, b


def walras(pair: DemandSupplyPair) -> WalrasPoint:
    """Walrasian point of the pair: price and volume where the curves cross.

    The crossing of supply minus demand is bracketed by bisection down to a
    width of 1e-12 times max(1, |price|), a stop that float spacing allows
    at any price unit; when the curves never cross inside the span, the
    matching endpoint is used.  The volume is the largest value of
    min(demand, supply) over the closed span.
    """
    require_core_assumptions(pair)
    demand, supply = pair.demand, pair.supply
    lo, hi = demand.lo, demand.hi
    g_lo = supply.value_at(lo) - demand.value_at(lo)
    g_hi = supply.value_at(hi) - demand.value_at(hi)
    if g_lo >= 0.0:
        volume = min(demand.value_at(lo), supply.value_at(lo))
    elif g_hi <= 0.0:
        volume = min(demand.value_at(hi), supply.value_at(hi))
    else:
        a, b = _bisect(
            lambda m: supply.value_at(m) - demand.value_at(m) < 0.0,
            lo,
            hi,
            lambda a, b: b - a > 1e-12 * max(1.0, abs(a), abs(b)),
        )
        m = _midpoint(a, b)
        volume = min(demand.value_at(m), supply.value_at(m))
    x_left = supply.inverse(min(volume, supply.max_rate))
    x_right = demand.inverse(min(volume, demand.max_rate))
    plateau_tol = 1e-9 * (hi - lo)
    return WalrasPoint(x_left, volume, (x_right - x_left) <= plateau_tol, x_right)


def require_core_assumptions(pair: DemandSupplyPair) -> None:
    """Raise unless (A1)-(A4) hold.  (A1)-(A3) are construction invariants;
    (A4) can fail for pairs built with check_positive=False."""
    bad = _a4_violation(pair.demand, pair.supply)
    if bad is not None:
        raise AssumptionError("(A4)", f"curve not positive on the open interval near x={bad}")


def _strictly_monotone(curve: MonotoneCurve) -> bool:
    return all(b != a for a, b in zip(curve.rates, curve.rates[1:]))
