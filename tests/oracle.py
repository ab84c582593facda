"""The reference model, one event at a time.

This is the model as its transition rules state it, written for reading
rather than speed: ``engine.run`` must give exactly what :func:`replay`
gives, event by event, and the tests check that it does.  It shares no
code with ``lobmm.book``, so a fault in the engine's book cannot hide on
both sides of a comparison.

Events carry the engine's kind codes: 0 market buy, 1 market sell, 2 limit
buy, 3 limit sell, 4 market maker, and 5 for a limit order that the window
restriction dropped.  Only limit orders carry a price; the others carry NaN.

:func:`detect_freeze` is the reference for ``engine.detect_freeze``: the
freeze criterion on whole-run arrays, which the engine's backward block
scan must match bit for bit.  :func:`summarize` is the reference for a
run's summary in the same way: every field from the run's per-event
columns, where the engine reduces runs of equal quotes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain, count

import numpy as np

from lobmm import engine
from lobmm.engine import (
    DROPPED,
    FreezeReport,
    RateTable,
    TrajectorySummary,
    generator_for,
)


class Book:
    """Resting orders as a count per price and a heap of the distinct
    prices per side, negated on the buy side, so that both tops are the
    quotes; an empty side quotes its end of the open interval."""

    def __init__(self, interval, buys=(), sells=()):
        self.lo, self.hi = interval.lo, interval.hi
        self.buys, self.sells = Counter(buys), Counter(sells)
        self.buy_heap = [-p for p in self.buys]
        self.sell_heap = list(self.sells)
        heapify(self.buy_heap)
        heapify(self.sell_heap)

    @property
    def bid(self):
        return -self.buy_heap[0] if self.buy_heap else self.lo

    @property
    def ask(self):
        return self.sell_heap[0] if self.sell_heap else self.hi

    @property
    def n_buys(self):
        return sum(self.buys.values())

    @property
    def n_sells(self):
        return sum(self.sells.values())

    def counts(self):
        """``(buys, sells)`` as sorted ``(price, count)`` tuples, the form
        of a ``BookSnapshot``."""
        return tuple(sorted(self.buys.items())), tuple(sorted(self.sells.items()))

    def apply(self, kind, price=math.nan):
        """Apply one event; return its trade price, or None.

        A buy lifts the ask and a sell hits the bid when that side rests:
        market orders always, limit orders when marketable (a buy at or
        above the ask, a sell at or below the bid).  Other limit orders
        rest.  The market maker adds one order at each quote that rests.
        """
        if kind in (2, 3) and not self.lo < price < self.hi:
            raise ValueError(f"limit price {price} not strictly inside the interval")
        if kind == 0 or (kind == 2 and self.sell_heap and price >= self.ask):
            return _take(self.sells, self.sell_heap, 1) if self.sell_heap else None
        if kind == 1 or (kind == 3 and self.buy_heap and price <= self.bid):
            return _take(self.buys, self.buy_heap, -1) if self.buy_heap else None
        if kind == 2:
            _add(self.buys, self.buy_heap, -1, price)
        elif kind == 3:
            _add(self.sells, self.sell_heap, 1, price)
        elif kind == 4:
            if self.buys:
                self.buys[self.bid] += 1
            if self.sells:
                self.sells[self.ask] += 1
        return None


def _add(counts, heap, sign, price):
    if price not in counts:
        heappush(heap, sign * price)
    counts[price] += 1


def _take(counts, heap, sign):
    price = sign * heap[0]
    counts[price] -= 1
    if not counts[price]:
        del counts[price]
        heappop(heap)
    return price


def _draws(draw):
    """Endless values of ``draw``, one block of ``engine._BLOCK`` at a time:
    the first block at once, each later one when the one before runs out."""
    block = engine._BLOCK
    return chain(draw(block).tolist(), chain.from_iterable(draw(block).tolist() for _ in count()))


def price_at_mass(curve, target):
    """The price at cumulative increment mass ``target`` of ``curve``:
    linear in the mass on the first segment whose end reaches it."""
    prices, rates = curve.prices, curve.rates
    cum = [abs(r - rates[0]) for r in rates]
    j = bisect_left(cum, target)
    if j == 0:
        return prices[0]
    # cum[j - 1] < target <= cum[j], so the segment has positive mass
    per_mass = (prices[j] - prices[j - 1]) / (cum[j] - cum[j - 1])
    return prices[j - 1] + (target - cum[j - 1]) * per_mass


def events(config):
    """The ``config.events`` events of a run as ``(wait, kind, price)``, on
    the full interval (see :func:`restrict`).  Each event takes one
    exponential and one uniform, and a limit order one more uniform for
    its price, from the exponential and uniform block streams."""
    pair, iv = config.pair, config.pair.interval
    rates = RateTable.from_pair(pair, config.rho)
    gen = generator_for(config.seed, config.replica)
    exps, unis = _draws(gen.standard_exponential), _draws(gen.random)
    for _ in range(config.events):
        wait = next(exps) * rates.inv_total
        kind = bisect_right(rates.thresholds, next(unis))
        price = math.nan
        if kind in (2, 3):
            curve = pair.demand if kind == 2 else pair.supply
            price = price_at_mass(curve, next(unis) * curve.total_mass)
            # a draw on an interval end (probability ~2**-53) moves inside
            price = min(max(price, math.nextafter(iv.lo, iv.hi)), math.nextafter(iv.hi, iv.lo))
        yield wait, kind, price


def restrict(kind, price, window):
    """The kind of an event in the model restricted to ``window``: a limit
    order at or beyond the far edge becomes a market order, one at or
    behind the near edge is dropped; other events keep their kind."""
    if kind == 2:
        return 0 if price >= window.hi else DROPPED if price <= window.lo else 2
    if kind == 3:
        return 1 if price <= window.lo else DROPPED if price >= window.hi else 3
    return kind


def replay(config):
    """``config``'s run one event at a time: ``(times, kinds, trade prices,
    bids, asks, trade count, empty-book transitions, final book)``."""
    book = Book(config.pair.interval, config.initial_buys, config.initial_sells)
    t = 0.0
    times, kinds, prices, bids, asks = [], [], [], [], []
    trades = empties = 0
    was_empty = not (book.buys or book.sells)
    for wait, kind, price in events(config):
        t += wait
        if config.restriction is not None:
            kind = restrict(kind, price, config.restriction)
        traded = book.apply(kind, price)
        trades += traded is not None
        times.append(t)
        kinds.append(kind)
        prices.append(math.nan if traded is None else traded)
        bids.append(book.bid)
        asks.append(book.ask)
        empty = not (book.buys or book.sells)
        empties += empty and not was_empty
        was_empty = empty
    return times, kinds, prices, bids, asks, trades, empties, book


def detect_freeze(traj):
    """``engine.detect_freeze`` on whole-run arrays: the condition on the
    suffix from each index, from running extremes accumulated backward
    over the run, and the first index where it holds."""
    n = traj.n_events
    if n == 0:
        return None
    eps = engine._FREEZE_EPS * traj.config.pair.interval.length
    window = max(1, int(engine._FREEZE_SPAN * n))
    bids, asks = traj.bids, traj.asks
    rev_spread = (asks - bids)[::-1]
    suffix_spread_ok = np.maximum.accumulate(rev_spread)[::-1] <= eps
    rb_max = np.maximum.accumulate(bids[::-1])[::-1]
    rb_min = np.minimum.accumulate(bids[::-1])[::-1]
    ra_max = np.maximum.accumulate(asks[::-1])[::-1]
    ra_min = np.minimum.accumulate(asks[::-1])[::-1]
    cond = suffix_spread_ok & (rb_max - rb_min <= eps) & (ra_max - ra_min <= eps)
    if not cond[-1]:
        return None
    k = int(np.argmax(cond))  # first index of the maximal stable suffix
    if n - k < window:
        return None
    midpoint = 0.5 * (bids[-1] + asks[-1])
    return FreezeReport(float(traj.times[k]), float(midpoint), k)


def summarize(traj):
    """``traj``'s summary on whole-run arrays: its ``bids``, ``asks`` and
    ``trade_prices`` columns, and an occupation weight per post-burn-in
    state from its ``times``."""
    config, n = traj.config, traj.n_events
    lo, hi = config.pair.interval.lo, config.pair.interval.hi
    bids, asks = traj.bids, traj.asks
    fz = detect_freeze(traj)
    k0 = traj.burn_index
    # the window: the extreme post-burn-in quotes where the side rests
    b, a = bids[k0:], asks[k0:]
    wlo = float(b[b > lo].min()) if (b > lo).any() else None
    whi = float(a[a < hi].max()) if (a < hi).any() else None
    if wlo is None or whi is None:
        wlo = whi = None
    # an empty side quotes its interval edge
    empty = (bids == lo) & (asks == hi)
    empties = int(np.count_nonzero(empty[1:] & ~empty[:-1]))
    if n and empty[0] and (config.initial_buys or config.initial_sells):
        empties += 1
    empty_buy = empty_sell = math.nan
    if k0 < n:
        w = np.diff(np.append(traj.times[k0:], max(traj.end_time, traj.times[-1])))
        if not w.sum() > 0.0:
            w = np.ones(n - k0)
        total = w.sum()
        empty_buy = float(w[b == lo].sum() / total)
        empty_sell = float(w[a == hi].sum() / total)
    return TrajectorySummary(
        replica=config.replica,
        n_events=n,
        trade_count=n - int(np.count_nonzero(np.isnan(traj.trade_prices))),
        min_bid=float(bids.min()) if n else math.nan,
        max_ask=float(asks.max()) if n else math.nan,
        empty_book_transitions=empties,
        final_buys=traj.final_book.n_buys,
        final_sells=traj.final_book.n_sells,
        frozen=fz is not None,
        freeze_time=fz.t_freeze if fz else None,
        freeze_midpoint=fz.midpoint if fz else None,
        freeze_start_index=fz.start_index if fz else None,
        window_lo=wlo,
        window_hi=whi,
        empty_buy_prob=empty_buy,
        empty_sell_prob=empty_sell,
    )


# -- the window functional in closed form -----------------------------------
#
# For piecewise-linear demand D and supply S, and a maker rate rho,
#
#     phi(V) = integral from V_W to V of
#              {1 / (S(D^-1(w)) - rho) + 1 / (D(S^-1(w)) - rho)} / w^2 dw.
#
# Between two adjacent knot levels (the curve values at the merged
# breakpoints) each inverse stays on one segment, so each braced
# denominator is affine in w, p + q w, and each piece of phi is the kernel
# below in closed form.  This reads the curves' breakpoints only and shares
# no code with ``lobmm.theory``, so a fault there cannot hide on both sides
# of a comparison.


def kernel(p, q, a, b):
    """The integral from ``a`` to ``b`` of dw / (w^2 (p + q w)), for
    0 < a <= b with p + q w > 0 on [a, b].  Its antiderivative is
    -1/(p w) + (q/p^2) ln((p + q w)/w)."""
    if p == 0.0:
        return (1.0 / (a * a) - 1.0 / (b * b)) / (2.0 * q)
    logs = math.log((p + q * b) / (p + q * a)) - math.log(b / a)
    return (1.0 / a - 1.0 / b) / p + q / (p * p) * logs


def _value(prices, rates, x):
    """The piecewise-linear curve through the breakpoints, at ``x``."""
    j = min(max(bisect_right(prices, x) - 1, 0), len(prices) - 2)
    t = (x - prices[j]) / (prices[j + 1] - prices[j])
    return rates[j] + t * (rates[j + 1] - rates[j])


def _slope(prices, rates, x):
    """The slope of the segment that holds ``x`` in its interior."""
    j = bisect_right(prices, x) - 1
    return (rates[j + 1] - rates[j]) / (prices[j + 1] - prices[j])


class ClosedFormTheory:
    """phi, the effective ceiling, ``v_l`` and the window of one (pair,
    rho), from the kernel on each piece between knot levels.  The curves
    must be strictly monotone and cross inside the interval."""

    def __init__(self, pair, rho):
        d, s = pair.demand, pair.supply
        self.rho = rho
        self.dp, self.dr, self.sp, self.sr = d.prices, d.rates, s.prices, s.rates
        merged = sorted(set(self.dp) | set(self.sp))
        # the crossing of S - D, on the merged segment where it changes sign
        gap = [_value(self.sp, self.sr, x) - _value(self.dp, self.dr, x) for x in merged]
        k = next(i for i in range(len(merged) - 1) if gap[i] < 0.0 <= gap[i + 1])
        u, w = merged[k], merged[k + 1]
        self.x_w = u - gap[k] / (gap[k + 1] - gap[k]) * (w - u)
        self.v_w = _value(self.dp, self.dr, self.x_w)
        self.v_max = min(self.dr[0], self.sr[-1])
        levels = {f(x) for x in merged for f in (self.demand, self.supply)}
        inner = sorted(v for v in levels if self.v_w < v < self.v_max)
        self.levels = [self.v_w, *inner, self.v_max]
        self.v_eff, self.closes = self._effective_ceiling()

    def demand(self, x):
        return _value(self.dp, self.dr, x)

    def supply(self, x):
        return _value(self.sp, self.sr, x)

    def demand_inverse(self, v):
        """sup{x : D(x) >= v}, on the segment where D falls through ``v``."""
        dp, dr = self.dp, self.dr
        j = len(dr) - 1 - bisect_left(dr[::-1], v)  # dr[j] >= v > dr[j + 1]
        return dp[j] + (dr[j] - v) / (dr[j] - dr[j + 1]) * (dp[j + 1] - dp[j])

    def supply_inverse(self, v):
        """inf{x : S(x) >= v}, on the segment where S rises through ``v``."""
        sp, sr = self.sp, self.sr
        i = bisect_left(sr, v)  # sr[i - 1] < v <= sr[i]
        return sp[i - 1] + (v - sr[i - 1]) / (sr[i] - sr[i - 1]) * (sp[i] - sp[i - 1])

    def gaps(self, a, b):
        """The two braced denominators on the piece [a, b] between adjacent
        knot levels, each as (p, q) with the denominator p + q w."""
        m = 0.5 * (a + b)
        x_lo, x_hi = self.demand_inverse(m), self.supply_inverse(m)
        # d x_lo / dw and d x_hi / dw on the piece
        dlo = 1.0 / _slope(self.dp, self.dr, x_lo)
        dhi = 1.0 / _slope(self.sp, self.sr, x_hi)
        out = []
        for x, dx, curve, prices, rates in (
            (x_lo, dlo, self.supply, self.sp, self.sr),
            (x_hi, dhi, self.demand, self.dp, self.dr),
        ):
            q = _slope(prices, rates, x) * dx
            out.append((curve(x) - self.rho - q * m, q))
        return out

    def pieces(self, v):
        """The pieces [a, b] of [V_W, v] between knot levels."""
        cuts = [lv for lv in self.levels if lv < v] + [v]
        return list(zip(cuts, cuts[1:]))

    def piece(self, a, b, end=None):
        """phi over [a, end] on the piece [a, b] (``end`` defaults to b)."""
        end = b if end is None else end
        return sum(kernel(p, q, a, end) for p, q in self.gaps(a, b))

    def _effective_ceiling(self):
        """(v_eff, closes): the least volume where a denominator reaches
        zero, where phi diverges, and True; else V_max and False."""
        for a, b in self.pieces(self.v_max):
            roots = [-p / q for p, q in self.gaps(a, b) if q < 0.0 and p + q * b <= 0.0]
            if roots:
                return min(roots), True
        return self.v_max, False

    def phi(self, v):
        return math.fsum(self.piece(a, b) for a, b in self.pieces(v))

    def v_l(self):
        """(v_l, boundary): the volume where phi reaches 1/V_W^2, found by
        bisection to adjacent floats inside its piece, or the effective
        ceiling when phi stays below it there."""
        threshold = 1.0 / (self.v_w * self.v_w)
        done = 0.0
        for a, b in zip(self.levels, self.levels[1:]):
            if a >= self.v_eff:
                break
            end = min(b, self.v_eff)
            whole = math.inf if end == self.v_eff and self.closes else self.piece(a, b, end)
            if done + whole >= threshold:
                lo, hi = a, end
                while math.nextafter(lo, hi) < hi:
                    mid = 0.5 * (lo + hi)
                    if done + self.piece(a, b, mid) < threshold:
                        lo = mid
                    else:
                        hi = mid
                return lo, False
            done += whole
        return self.v_eff, True

    def window(self, v):
        """The candidate window J(v) = (D^-1(v), S^-1(v))."""
        return self.demand_inverse(v), self.supply_inverse(v)
