"""Analytic side of the model: window boundaries, recurrence, quote laws.

Everything here is a pure function of a demand/supply pair and the market
maker rate rho.  The central objects:

- The walrasian volume V_W (from the curves module) and the volume ceiling
  V_max = min(demand(lo), supply(hi)).
- The integral functional ``phi``: for V >= V_W,

      phi(V) = integral from V_W to V of
               { 1/(supply(demand_inv(W)) - rho)
               + 1/(demand(supply_inv(W)) - rho) } / W^2 dW,

  where the inverses are the unshifted left-continuous inverses.  The
  candidate window at volume V is J(V) = (demand_inv(V), supply_inv(V));
  the braces hold the shifted curve values at the far edges of J(W).
  phi is integrated piecewise between the volume levels where the
  integrand kinks.  ``phi``, ``v_l``, ``classify_recurrence``,
  ``PhiTable.build`` and ``recurrence_sweep`` each build one evaluator
  for their (pair, rho); it holds V_W, the effective ceiling and the knot
  levels, and keeps every finished piece for as long as it lives: one
  call, or one volume sweep.  Nothing is cached across calls.  Each
  piece resolves the curve segments its integrand reads once, and
  samples it as straight-line arithmetic with the general integrand's
  bits (``_piece_integrand``), in cache-sized blocks and in place in the
  evaluator's workspace (``_Workspace``).  The evaluator runs the
  general integrand once, on all knot levels in (V_W, v_eff), and a
  piece that ends on a knot reads its end sample from that table.
- The trade volume ``v_l``: the supremum of V with phi(V) < 1/V_W^2,
  capped at the effective ceiling where a shifted curve hits zero at a
  window edge.  J(v_l) is the competitive window.
- The stationary quote law on a window: f_minus(x) = P[bid <= x],
  f_plus(x) = P[ask >= x] solve the linear system

      d f_plus / dx = -f_minus * supply'(x) / (demand(x) - rho)
      d f_minus / dx = -f_plus * demand'(x) / (supply(x) - rho)

  with f_plus = 1 at the left edge and f_minus = 1 at the right edge.
- For rho >= V_W quotes converge instead; ``freeze_support`` gives the
  support of the limit and ``gambler_bound`` the hitting-probability
  bound used to test it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import (
    AssumptionError,
    DemandSupplyPair,
    DomainError,
    MonotoneCurve,
    PriceInterval,
    WalrasPoint,
    _bisect,
    _midpoint,
    _strictly_monotone,
    walras,
)

__all__ = [
    "LuckockSolution",
    "PhiTable",
    "Recurrence",
    "SingularCoefficientError",
    "VacuousBoundError",
    "EmptySupportError",
    "FreezeSupport",
    "WindowReport",
    "classify_recurrence",
    "freeze_support",
    "gambler_bound",
    "phi",
    "recurrence_sweep",
    "solve_luckock",
    "v_l",
]

# truncation distance from the integrand's validity edge, volume units
_EDGE_MARGIN = 1e-9
_PHI_TOL = 1e-10
_ROOT_TOL = 1e-10
# relative distance from the recurrence threshold that classifies as CRITICAL
_CRITICAL_BAND = 1e-6


class SingularCoefficientError(ValueError):
    """A shifted curve is nonpositive on the requested window."""


class VacuousBoundError(ValueError):
    """The gambler's-ruin bound degenerates to a statement weaker than 0."""


class EmptySupportError(ValueError):
    """No price satisfies the freeze condition (rho below the walrasian volume)."""


class Recurrence(Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    CRITICAL = "critical"
    NOT_POSITIVE_RECURRENT = "not-positive-recurrent"


def _v_ceiling(pair: DemandSupplyPair) -> float:
    """Volume ceiling: both sides can sustain at most this trade rate."""
    return min(pair.demand.max_rate, pair.supply.max_rate)


def _check_rho(rho: float) -> float:
    if rho < 0.0 or not math.isfinite(rho):
        raise ValueError("rho must be finite and nonnegative")
    return float(rho)


def _require_a5(pair: DemandSupplyPair, wal: WalrasPoint) -> None:
    if not wal.volume < _v_ceiling(pair):
        raise AssumptionError(
            "(A5)", "walrasian volume must sit strictly below the volume ceiling"
        )


# -- the window functional phi -------------------------------------------


def _edge_gap(pair: DemandSupplyPair, rho: float, v: float) -> Tuple[float, float]:
    """Shifted curve values at the far edges of the candidate window J(v).

    Demand is smallest at the right edge, supply at the left edge, so these
    two numbers are the minima of the shifted curves over J(v); both must
    stay positive for the window to support trading and for the integrand
    of phi to stay finite up to v.  Both are nonincreasing in v.
    """
    x_lo = pair.demand.inverse(v)
    x_hi = pair.supply.inverse(v)
    return (
        float(pair.supply.value_at(x_lo)) - rho,
        float(pair.demand.value_at(x_hi)) - rho,
    )


def _effective_ceiling(pair: DemandSupplyPair, rho: float, v_w: float) -> float:
    """Largest volume with both shifted edge values positive, capped at the
    volume ceiling.  Bisection on the nonincreasing edge-gap function."""
    v_max = _v_ceiling(pair)
    if min(*_edge_gap(pair, rho, v_max)) > 0.0:
        return v_max
    tol = 1e-15 * max(1.0, v_max)
    a, _ = _bisect(
        lambda m: min(*_edge_gap(pair, rho, m)) > 0.0, v_w, v_max, lambda a, b: b - a > tol
    )
    return a


def _knot_levels(pair: DemandSupplyPair) -> list:
    """Sorted volume levels where the integrand of phi loses smoothness.

    The window-edge paths kink where an inverse crosses a breakpoint of
    either curve, which happens at the curve values of the merged
    breakpoints; splitting there keeps every quadrature piece smooth.
    """
    levels = set()
    for p in set(pair.demand.prices) | set(pair.supply.prices):
        levels.add(float(pair.demand.value_at(p)))
        levels.add(float(pair.supply.value_at(p)))
    return sorted(levels)


def _simpson(fx: np.ndarray, h: float) -> float:
    return float((h / 3.0) * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum()))


# samples a piece integrand computes at a time, so that its two temporaries
# stay in cache instead of growing with the grid; any positive value gives
# the same bits
_SAMPLE_BLOCK = 4096


class _Workspace:
    """The arrays one evaluator's quadrature writes its samples into.

    ``t1`` and ``t2`` hold a piece integrand's temporaries for one block of
    ``_SAMPLE_BLOCK`` samples.  ``reserve(m)`` makes room for a doubling
    with ``m`` new samples: ``odd`` holds the odd grid indices 1.0, 3.0,
    ..., ``w`` the new samples, and ``grids`` two grids of 2m + 1 samples,
    the current doubling's and the previous one's.  These grow to the
    deepest doubling a call reaches and no further, and every piece of the
    evaluator reuses them.
    """

    def __init__(self) -> None:
        self.t1 = np.empty(_SAMPLE_BLOCK)
        self.t2 = np.empty(_SAMPLE_BLOCK)
        self.m = 0
        self.reserve(8)

    def reserve(self, m: int) -> None:
        if m <= self.m:
            return
        self.m = m
        self.odd = np.arange(1.0, 2.0 * m, 2.0)
        self.w = np.empty(m)
        self.grids = (np.empty(2 * m + 1), np.empty(2 * m + 1))


# an integrand that writes its values at the samples ``w`` into ``out``
Integrand = Callable[[np.ndarray, np.ndarray], None]


def _integrate_piece(
    f: Integrand,
    a: float,
    b: float,
    tol: float,
    work: _Workspace,
    ends: Tuple[Optional[float], Optional[float]],
) -> Tuple[float, float]:
    """Composite Simpson on one smooth piece, doubling the grid to ``tol``.

    Returns (value, last doubling difference).  The first grid is
    ``np.linspace(a, b, 9)``; ``ends`` gives the integrand's values at
    ``a`` and ``b`` where they are already known (a knot level), and ``f``
    samples the rest.  Each doubled grid takes its even-indexed samples
    from the previous grid, because ``np.linspace(a, b, 2n + 1)[::2]``
    equals ``np.linspace(a, b, n + 1)`` bit for bit when n is a power of
    two, and samples ``f`` only at the new odd points.  It computes them
    as ``odd * ((b - a) / n) + a``, which is ``np.linspace``'s own
    arithmetic and so equals ``np.linspace(a, b, n + 1)[1::2]`` bit for
    bit (its step is never zero: pieces start at or above V_W, which
    exceeds 1e-155 because 1/V_W^2 is finite).  Samples and grids live in
    ``work``; ``f`` writes the new samples straight into the odd slots of
    the grid.

    The doubling count is capped at 16 (524,289 samples).  Where a shifted
    curve reaches zero at the effective ceiling, the piece ending just
    below it, where the integrand climbs steeply, never converges: it runs
    every doubling, returns the last estimate, and reports a difference of
    0.0 because ``prev`` already equals ``cur`` when the loop ends.  So an
    error of 0.0 can mean a piece that did not converge; the errors of
    :class:`PhiTable` and ``phi.csv`` do not show it.
    """
    if b <= a:
        return 0.0, 0.0
    n = 8
    fx = work.grids[0][: n + 1]
    f_a, f_b = ends
    lo = 0 if f_a is None else 1
    hi = n + 1 if f_b is None else n
    f(np.linspace(a, b, n + 1)[lo:hi], fx[lo:hi])
    if f_a is not None:
        fx[0] = f_a
    if f_b is not None:
        fx[n] = f_b
    prev = _simpson(fx, (b - a) / n)
    for level in range(1, 17):
        n *= 2
        m = n // 2
        work.reserve(m)
        h = (b - a) / n
        w = np.multiply(work.odd[:m], h, out=work.w[:m])
        w += a
        finer = work.grids[level % 2][: n + 1]
        finer[::2] = fx
        f(w, finer[1::2])
        fx = finer
        cur = _simpson(fx, h)
        if abs(cur - prev) <= tol:
            return cur, abs(cur - prev)
        prev = cur
    return prev, abs(cur - prev)


def _phi_integrand(pair: DemandSupplyPair, rho: float) -> Callable[[np.ndarray], np.ndarray]:
    demand, supply = pair.demand, pair.supply

    def f(w: np.ndarray) -> np.ndarray:
        x_lo = demand.inverse(w)
        x_hi = supply.inverse(w)
        a = supply.value_at(x_lo) - rho
        b = demand.value_at(x_hi) - rho
        return (1.0 / a + 1.0 / b) / (w * w)

    return f


def _piece_integrand(
    pair: DemandSupplyPair,
    rho: float,
    a: float,
    b: float,
    general: Callable[[np.ndarray], np.ndarray],
    work: _Workspace,
) -> Integrand:
    """The phi integrand on the piece [a, b] between two adjacent knot levels.

    On such a piece each of the integrand's four lookups, demand_inv(w),
    supply_inv(w), supply(x_lo) and demand(x_hi), stays on one curve
    segment.  The segments are resolved once, at the piece midpoint and by
    the index rules of :meth:`MonotoneCurve.inverse` and ``np.interp``, and
    the returned integrand is straight-line arithmetic on their end points,
    in exactly the operations and order the general code uses, so both give
    the same bits.  It works in place, a block of ``_SAMPLE_BLOCK`` samples
    at a time in ``work.t1`` and ``work.t2``, and writes into ``out``,
    which may be a strided view.  Samples are monotone (``np.linspace``'s
    arithmetic), and every correctly rounded step keeps them so; checks on
    the first and last sample of each block therefore cover all of them.
    A call with a sample that leaves the resolved segments, or a piece
    with none (levels at or below a curve's end rate), is handed whole to
    ``general``, the one general integrand.
    """

    def fallback(w: np.ndarray, out: np.ndarray) -> None:
        out[...] = general(w)

    demand, supply = pair.demand, pair.supply
    dp, dr, sp, sr = demand.prices, demand.rates, supply.prices, supply.rates
    m = _midpoint(a, b)
    j = len(dr) - 1 - bisect_left(demand._rev_rate_list, m)  # dr[j] >= m > dr[j + 1]
    i = bisect_left(sr, m) - 1  # sr[i] < m <= sr[i + 1]
    if not (0 <= j < len(dr) - 1 and 0 <= i < len(sr) - 1):
        return fallback
    d0, d1, dx0, dx1 = dr[j], dr[j + 1], dp[j], dp[j + 1]
    s0, s1, sx0, sx1 = sr[i], sr[i + 1], sp[i], sp[i + 1]
    d_fall, d_width, s_rise, s_width = d0 - d1, dx1 - dx0, s1 - s0, sx1 - sx0
    w_lo, w_hi = max(d1, s0), min(d0, s1)
    k = bisect_right(sp, demand.inverse(m)) - 1  # sp[k] <= x_lo < sp[k + 1]
    h = bisect_right(dp, supply.inverse(m)) - 1  # dp[h] <= x_hi < dp[h + 1]
    # np.interp returns sr[k] itself at x == sp[k], which differs from the
    # formula below only in the sign of a zero rate
    if not (0 <= k < len(sp) - 1 and 0 <= h < len(dp) - 1) or math.copysign(1.0, sr[k]) < 0:
        return fallback
    sk0, sk1, dh0, dh1 = sp[k], sp[k + 1], dp[h], dp[h + 1]
    s_slope = (sr[k + 1] - sr[k]) / (sk1 - sk0)
    d_slope = (dr[h + 1] - dr[h]) / (dh1 - dh0)
    sk_rate, dh_rate = sr[k], dr[h]

    def f(w: np.ndarray, out: np.ndarray) -> None:
        if not (w_lo < w[0] and w[-1] <= w_hi):
            return fallback(w, out)
        for start in range(0, len(w), _SAMPLE_BLOCK):
            stop = start + _SAMPLE_BLOCK
            wb = w[start:stop]
            # x_lo = dx0 + ((d0 - w) / d_fall) * d_width, and its increasing twin
            x_lo = np.subtract(d0, wb, out=work.t1[: len(wb)])
            x_lo /= d_fall
            x_lo *= d_width
            x_lo += dx0
            x_hi = np.subtract(wb, s0, out=work.t2[: len(wb)])
            x_hi /= s_rise
            x_hi *= s_width
            x_hi += sx0
            if not (sk0 <= x_lo[-1] and x_lo[0] < sk1 and dh0 <= x_hi[0] and x_hi[-1] < dh1):
                return fallback(w, out)
            # gap = (slope * (x - x_k) + rate_k) - rho on each side
            gap_lo, gap_hi = x_lo, x_hi
            gap_lo -= sk0
            gap_lo *= s_slope
            gap_lo += sk_rate
            gap_lo -= rho
            gap_hi -= dh0
            gap_hi *= d_slope
            gap_hi += dh_rate
            gap_hi -= rho
            # (1 / gap_lo + 1 / gap_hi) / (w * w)
            np.divide(1.0, gap_lo, out=gap_lo)
            np.divide(1.0, gap_hi, out=gap_hi)
            gap_lo += gap_hi
            np.divide(gap_lo, np.multiply(wb, wb, out=gap_hi), out=out[start:stop])

    return f


class _PhiEvaluator:
    """phi of one (pair, rho), integrated once per quadrature piece.

    Holds the walrasian point, the pair's sorted knot levels, the
    workspace every piece samples into and, on first use, the effective
    ceiling and the general integrand at the knot levels in (V_W, v_eff).
    Every finished piece is kept under ``(a, b, piece_tol)``, so bisection
    steps that share knot pieces, and phi and the recurrence class of one
    volume, integrate them once.  The cache lives as long as the
    evaluator: one call of a public function, or one volume sweep.
    """

    def __init__(self, pair: DemandSupplyPair, rho: float):
        self.pair = pair
        self.rho = rho
        self.wal = walras(pair)
        self.v_w = self.wal.volume
        self.v_max = _v_ceiling(pair)
        v_w2 = self.v_w * self.v_w
        self.threshold = 1.0 / v_w2 if v_w2 > 0.0 else math.inf
        if not 0.0 < self.threshold < math.inf:
            raise DomainError(
                "the recurrence threshold 1/V_W^2 is not a positive finite float "
                f"at V_W = {self.v_w}"
            )
        # the integrand divides by w*w for w up to the ceiling
        if not math.isfinite(self.v_max * self.v_max):
            raise DomainError(
                "the phi integrand's w^2 is not a finite float at the volume "
                f"ceiling {self.v_max}"
            )
        self._levels = _knot_levels(pair)
        self._f = _phi_integrand(pair, rho)
        self._work = _Workspace()
        self._pieces: dict = {}

    @cached_property
    def v_eff(self) -> float:
        return _effective_ceiling(self.pair, self.rho, self.v_w)

    @cached_property
    def _at_knots(self) -> dict:
        """The general integrand at each knot level in (V_W, v_eff), from
        one vectorised call; both shifted edge values are positive there.
        The integrand is elementwise, so each value has the bits a grid
        sample at that level gets."""
        inside = self.knots(self.v_w, self.v_eff)
        if not inside:
            return {}
        return dict(zip(inside, self._f(np.array(inside)).tolist()))

    def knots(self, lo: float, hi: float) -> list:
        """Knot levels strictly between ``lo`` and ``hi``."""
        levels = self._levels
        return levels[bisect_right(levels, lo) : bisect_left(levels, hi)]

    def piece(self, a: float, b: float, tol: float) -> Tuple[float, float]:
        key = (a, b, tol)
        done = self._pieces.get(key)
        if done is None:
            f = _piece_integrand(self.pair, self.rho, a, b, self._f, self._work)
            ends = (self._at_knots.get(a), self._at_knots.get(b))
            done = self._pieces[key] = _integrate_piece(f, a, b, tol, self._work, ends)
        return done

    def value(self, v: float) -> Tuple[float, float]:
        """phi(v) with no domain checks; (value, error estimate)."""
        if v <= self.v_w:
            return 0.0, 0.0
        knots = [self.v_w] + self.knots(self.v_w, v) + [v]
        piece_tol = _PHI_TOL / len(knots)
        total = 0.0
        err = 0.0
        for a, b in zip(knots, knots[1:]):
            val, e = self.piece(a, b, piece_tol)
            total += val
            err += e
        return total, err

    def phi(self, v: float) -> float:
        v_w, v_max = self.v_w, self.v_max
        span_tol = 1e-12 * max(1.0, v_max)
        if v < v_w - span_tol:
            raise DomainError(f"phi is defined from the walrasian volume {v_w} up; got {v}")
        if v > v_max + span_tol:
            raise DomainError(f"volume {v} exceeds the volume ceiling {v_max}")
        v = min(max(v, v_w), v_max)
        gap_lo, gap_hi = _edge_gap(self.pair, self.rho, v)
        if min(gap_lo, gap_hi) <= 0.0:
            raise DomainError(
                f"phi integrand blows up before V={v}: shifted supply at the left "
                f"window edge is {gap_lo}, shifted demand at the right edge is {gap_hi}"
            )
        return self.value(v)[0]

    def classify(self, v: float) -> Recurrence:
        _require_a5(self.pair, self.wal)
        if not self.v_w < v < self.v_eff:
            raise DomainError(
                f"recurrence is classified for volumes in ({self.v_w}, {self.v_eff}); got {v}"
            )
        value = self.value(v)[0]
        threshold = self.threshold
        if abs(value - threshold) <= _CRITICAL_BAND * threshold:
            return Recurrence.CRITICAL
        if value < threshold:
            return Recurrence.POSITIVE_RECURRENT
        return Recurrence.NOT_POSITIVE_RECURRENT


def phi(pair: DemandSupplyPair, rho: float, v: float) -> float:
    """The window functional at volume ``v`` (see the module docstring).

    Strictly increasing in ``v``; zero at the walrasian volume.  Raises
    :class:`~lobmm.curves.DomainError` when ``v`` lies beyond the validity
    edge (a shifted curve nonpositive at a window edge before ``v``), with
    the offending edge values in the message.
    """
    return _PhiEvaluator(pair, _check_rho(rho)).phi(v)


@dataclass(frozen=True)
class PhiTable:
    """Samples of phi on an ascending volume grid, with error estimates.

    ``errors[i]`` sums the last doubling differences of the pieces up to
    ``volumes[i]``.  A piece that never converges adds 0.0 (see
    ``_integrate_piece``), so phi can jump between two rows with the same
    error: on the kinked pair at rho 0.1 it goes from 23.32 to 95.31 at
    the last row.
    """

    rho: float
    v_w: float
    volumes: Tuple[float, ...]
    values: Tuple[float, ...]
    errors: Tuple[float, ...]

    @classmethod
    def build(
        cls,
        pair: DemandSupplyPair,
        rho: float,
        v_hi: Optional[float] = None,
        n: int = 64,
    ) -> "PhiTable":
        """Tabulate phi at ``n`` points from V_W to ``v_hi`` (default: just
        inside the effective ceiling).  Accumulates piecewise so the whole
        table costs one sweep."""
        rho = _check_rho(rho)
        if n < 2:
            raise ValueError("need at least two samples")
        ev = _PhiEvaluator(pair, rho)
        v_w = ev.v_w
        if v_hi is None:
            v_hi = ev.v_eff - _EDGE_MARGIN
        if not v_w < v_hi:
            raise ValueError(f"empty tabulation range [{v_w}, {v_hi}]")
        gap_lo, gap_hi = _edge_gap(pair, rho, v_hi)
        if min(gap_lo, gap_hi) <= 0.0:
            raise DomainError(f"tabulation end {v_hi} lies beyond the validity edge")
        vols = np.linspace(v_w, v_hi, n).tolist()
        piece_tol = _PHI_TOL / n
        vals = [0.0]
        errs = [0.0]
        acc = 0.0
        eacc = 0.0
        for a, b in zip(vols, vols[1:]):
            pts = [a] + ev.knots(a, b) + [b]
            for ka, kb in zip(pts, pts[1:]):
                val, e = ev.piece(ka, kb, piece_tol)
                acc += val
                eacc += e
            vals.append(acc)
            errs.append(eacc)
        return cls(rho, v_w, tuple(vols), tuple(vals), tuple(errs))


# -- trade volume and competitive window ----------------------------------


@dataclass(frozen=True)
class WindowReport:
    """Competitive-window summary at one market maker rate.

    ``degenerate`` marks rho >= V_W (the window closes and quotes freeze;
    see :func:`freeze_support`).  ``boundary`` marks the case where phi
    never reaches the recurrence threshold below the effective ceiling, so
    the trade volume sits at the ceiling itself.  ``window`` is None when
    degenerate.
    """

    rho: float
    v_w: float
    x_w: float
    walras_unique: bool
    v_max: float
    v_max_effective: float
    threshold: float
    v_l: float
    window: Optional[PriceInterval]
    boundary: bool
    degenerate: bool
    phi_at_cap: Optional[float]

    @property
    def window_length(self) -> float:
        return self.window.length if self.window is not None else 0.0


def v_l(pair: DemandSupplyPair, rho: float = 0.0) -> WindowReport:
    """Long-run trade volume and competitive window at rate ``rho``.

    Bisection solves phi(V) = 1/V_W^2 down to a bracket of 1e-10 times
    max(1, V), so it ends at any volume unit; when no root exists below
    the effective ceiling, the volume is the ceiling itself and
    ``boundary`` is set.  For rho >= V_W the report is degenerate rather
    than an error.
    """
    rho = _check_rho(rho)
    ev = _PhiEvaluator(pair, rho)
    wal = ev.wal
    _require_a5(pair, wal)
    v_w, v_max, threshold = ev.v_w, ev.v_max, ev.threshold
    if rho >= v_w:
        return WindowReport(
            rho, v_w, wal.x, wal.unique, v_max, v_w, threshold,
            v_w, None, False, True, None,
        )
    v_eff = ev.v_eff
    v_cap = v_eff - _EDGE_MARGIN
    phi_cap, _ = ev.value(v_cap)
    if phi_cap < threshold:
        x_lo = float(pair.demand.inverse(v_eff))
        x_hi = float(pair.supply.inverse(v_eff))
        window = PriceInterval(x_lo, x_hi) if x_lo < x_hi else None
        return WindowReport(
            rho, v_w, wal.x, wal.unique, v_max, v_eff, threshold,
            v_eff, window, True, False, phi_cap,
        )
    a, b = _bisect(
        lambda m: ev.value(m)[0] < threshold,
        v_w,
        v_cap,
        lambda a, b: b - a > _ROOT_TOL * max(1.0, b),
    )
    vol = _midpoint(a, b)
    window = PriceInterval(
        float(pair.demand.inverse(vol)), float(pair.supply.inverse(vol))
    )
    return WindowReport(
        rho, v_w, wal.x, wal.unique, v_max, v_eff, threshold,
        vol, window, False, False, phi_cap,
    )


def classify_recurrence(pair: DemandSupplyPair, rho: float, v: float) -> Recurrence:
    """Recurrence of the restricted model on J(v): phi(v) against 1/V_W^2.

    Values within 1e-6 (relative) of the threshold classify as CRITICAL;
    the comparison is meaningful for v strictly between V_W and the
    effective ceiling.
    """
    return _PhiEvaluator(pair, _check_rho(rho)).classify(v)


def recurrence_sweep(
    pair: DemandSupplyPair, rho: float, volumes: Sequence[float]
) -> List[Tuple[float, Optional[Recurrence]]]:
    """``(phi(v), classify_recurrence(v))`` for each of ``volumes``, with
    both integrals done once on one shared evaluator.  A volume where
    either function raises ValueError gives ``(nan, None)``."""
    try:
        ev = _PhiEvaluator(pair, _check_rho(rho))
    except ValueError:
        return [(math.nan, None) for _ in volumes]
    out = []
    for v in volumes:
        try:
            out.append((ev.phi(v), ev.classify(v)))
        except ValueError:
            out.append((math.nan, None))
    return out


# -- stationary quote distributions on a window ----------------------------


@dataclass(frozen=True)
class LuckockSolution:
    """Gridded stationary law of the quotes on a window.

    ``f_minus[i]`` approximates P[bid <= grid[i]], ``f_plus[i]``
    approximates P[ask >= grid[i]] for the restricted model on the window.
    The edge values ``f_minus_lo`` = f_minus(J_lo) and ``f_plus_hi`` =
    f_plus(J_hi) are the equilibrium probabilities that the buy (sell)
    side of the restricted book is empty.  ``negative_edge`` flags a
    negative f_minus_lo, the solver's signal that the window lies beyond
    the positive-recurrent regime; values are not clamped.
    """

    window: PriceInterval
    rho: float
    grid: np.ndarray
    f_minus: np.ndarray
    f_plus: np.ndarray
    f_minus_lo: float
    f_plus_hi: float
    boundary_residual: float
    negative_edge: bool


def _segment_slopes(curve: MonotoneCurve, mids: np.ndarray) -> np.ndarray:
    """Exact curve slope on the segment containing each midpoint."""
    px, rx = curve._px, curve._rx
    seg = np.diff(rx) / np.diff(px)
    j = np.clip(np.searchsorted(px, mids, side="right") - 1, 0, len(seg) - 1)
    return seg[j]


def solve_luckock(
    pair: DemandSupplyPair,
    rho: float,
    window: PriceInterval,
    grid_size: int = 4096,
) -> LuckockSolution:
    """Solve the stationary quote equations on ``window``.

    The system is linear in the unknown left-edge value f_minus(J_lo) = c,
    so two fixed-grid fourth-order integrations (c = 0 and c = 1) pin c by
    one linear solve; no iterative shooting.  The grid is breakpoint
    aligned: no curve kink falls inside a step.  Both curves must stay
    strictly above rho on the closed window.
    """
    rho = _check_rho(rho)
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    iv = pair.interval
    if not (iv.lo <= window.lo < window.hi <= iv.hi):
        raise ValueError("window must sit inside the price interval")
    shifted = pair.shifted(rho)
    demand, supply = shifted.demand, shifted.supply
    # monotone curves attain their window minimum at an edge
    d_min = float(demand.value_at(window.hi))
    s_min = float(supply.value_at(window.lo))
    if d_min <= 0.0:
        raise SingularCoefficientError(
            f"shifted demand is {d_min} at x={window.hi}; need it positive on the window"
        )
    if s_min <= 0.0:
        raise SingularCoefficientError(
            f"shifted supply is {s_min} at x={window.lo}; need it positive on the window"
        )

    base = np.linspace(window.lo, window.hi, grid_size)
    inner = [p for p in set(demand.prices) | set(supply.prices) if window.lo < p < window.hi]
    grid = np.unique(np.concatenate([base, np.asarray(inner)])) if inner else base
    x0 = grid[:-1]
    x1 = grid[1:]
    h = x1 - x0
    xm = x0 + 0.5 * h
    # coefficient samples for the classic fourth-order step, vectorized
    dv0, dvm, dv1 = demand.value_at(x0), demand.value_at(xm), demand.value_at(x1)
    sv0, svm, sv1 = supply.value_at(x0), supply.value_at(xm), supply.value_at(x1)
    dsl = _segment_slopes(demand, xm)
    ssl = _segment_slopes(supply, xm)

    n_cells = len(h)
    fm = np.empty((2, n_cells + 1))
    fp = np.empty((2, n_cells + 1))
    fm[0, 0], fp[0, 0] = 0.0, 1.0
    fm[1, 0], fp[1, 0] = 1.0, 1.0

    hl = h.tolist()
    dv0l, dvml, dv1l = dv0.tolist(), dvm.tolist(), dv1.tolist()
    sv0l, svml, sv1l = sv0.tolist(), svm.tolist(), sv1.tolist()
    dsll, ssll = dsl.tolist(), ssl.tolist()
    for run_idx in range(2):
        m = fm[run_idx, 0]
        p = fp[run_idx, 0]
        fm_row = fm[run_idx]
        fp_row = fp[run_idx]
        for i in range(n_cells):
            hi_ = hl[i]
            ds = dsll[i]
            ss = ssll[i]
            ra0 = ds / sv0l[i]
            ram = ds / svml[i]
            ra1 = ds / sv1l[i]
            rb0 = ss / dv0l[i]
            rbm = ss / dvml[i]
            rb1 = ss / dv1l[i]
            # k = (dm, dp) at (x0, xm, xm, x1)
            k1m = -p * ra0
            k1p = -m * rb0
            m2 = m + 0.5 * hi_ * k1m
            p2 = p + 0.5 * hi_ * k1p
            k2m = -p2 * ram
            k2p = -m2 * rbm
            m3 = m + 0.5 * hi_ * k2m
            p3 = p + 0.5 * hi_ * k2p
            k3m = -p3 * ram
            k3p = -m3 * rbm
            m4 = m + hi_ * k3m
            p4 = p + hi_ * k3p
            k4m = -p4 * ra1
            k4p = -m4 * rb1
            m = m + hi_ / 6.0 * (k1m + 2.0 * (k2m + k3m) + k4m)
            p = p + hi_ / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
            fm_row[i + 1] = m
            fp_row[i + 1] = p

    a_end = fm[0, -1]
    b_end = fm[1, -1]
    denom = b_end - a_end
    if denom == 0.0 or not math.isfinite(denom):
        raise SingularCoefficientError(
            "the two fundamental integrations cannot pin the left edge value"
        )
    c = (1.0 - a_end) / denom
    f_minus = fm[0] + c * (fm[1] - fm[0])
    f_plus = fp[0] + c * (fp[1] - fp[0])
    residual = max(abs(f_minus[-1] - 1.0), abs(f_plus[0] - 1.0))
    return LuckockSolution(
        window=window,
        rho=rho,
        grid=grid,
        f_minus=f_minus,
        f_plus=f_plus,
        f_minus_lo=float(f_minus[0]),
        f_plus_hi=float(f_plus[-1]),
        boundary_residual=float(residual),
        negative_edge=bool(c < 0.0),
    )


# -- the frozen regime ------------------------------------------------------


@dataclass(frozen=True)
class FreezeSupport:
    """Support [lo, hi] of the limiting price when quotes converge.

    Degenerate (lo == hi == walrasian price) exactly at rho = V_W.
    """

    rho: float
    lo: float
    hi: float
    x_w: float
    degenerate: bool

    @property
    def length(self) -> float:
        return self.hi - self.lo


def freeze_support(pair: DemandSupplyPair, rho: float) -> FreezeSupport:
    """Prices x with max(demand(x), supply(x)) <= rho, as an interval.

    Quotes converge to a random limit supported on exactly this set when
    rho >= V_W.  Requires strictly monotone curves; for rho < V_W the set
    is empty and the window machinery (:func:`v_l`) applies instead.
    """
    rho = _check_rho(rho)
    if not (_strictly_monotone(pair.demand) and _strictly_monotone(pair.supply)):
        raise AssumptionError(
            "(A6)", "freeze support requires strictly monotone demand and supply"
        )
    wal = walras(pair)
    v_w = wal.volume
    if rho < v_w:
        raise EmptySupportError(
            f"no price freezes at rho={rho} < walrasian volume {v_w}; "
            "the window machinery (v_l) applies in this regime"
        )
    demand, supply = pair.demand, pair.supply
    lo = demand.lo if rho >= demand.max_rate else float(demand.inverse(rho))
    hi = supply.hi if rho >= supply.max_rate else float(supply.inverse(rho))
    span_tol = 1e-12 * (demand.hi - demand.lo)
    degenerate = hi - lo <= span_tol
    return FreezeSupport(rho, lo, hi, wal.x, degenerate)


def gambler_bound(pair: DemandSupplyPair, rho: float, y: float) -> float:
    """Lower bound on P[the bid never drops below y] with a buy resting at y.

    Equals 1 - supply(y)/rho; requires supply(y) < rho, else the bound
    says nothing and :class:`VacuousBoundError` is raised.
    """
    rho = _check_rho(rho)
    if not pair.interval.contains_open(y):
        raise DomainError(f"level {y} must lie strictly inside the price interval")
    lam = float(pair.supply.value_at(y))
    if rho <= 0.0 or lam >= rho:
        raise VacuousBoundError(
            f"supply rate {lam} at y={y} must be strictly below rho={rho}"
        )
    return 1.0 - lam / rho
