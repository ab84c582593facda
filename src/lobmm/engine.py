"""Event-driven simulation of the order book model.

Events arrive in one merged Poisson stream whose component rates never
depend on the book state: market buys and sells at the curve values at the
far endpoints, limit orders at the total curve increment masses with
prices drawn from the normalized increments, and market makers at a flat
rate.  Consequently a run is a deterministic function of the seed: waits
and uniforms are consumed in a fixed order from one counter-based
generator (Philox), drawn in blocks of ``_BLOCK`` values.  Each event
takes one exponential (its wait) and one uniform (its kind), and a limit
order one more uniform (its price).

A run records each event as a kind code:

- 0 market buy, 1 market sell, 2 limit buy, 3 limit sell, 4 market maker;
- 5 (``DROPPED``), a limit order at or behind the near edge of the
  restriction window.  One at or beyond the far edge is recorded as the
  market order of its side.

Because nothing about an event but its effect depends on the book,
:func:`run` works in two stages on one code path.  A numpy pre-pass
decodes one random block at a time into event times, recorded kinds and
limit prices; the book stage then applies those events, less the dropped
orders, to the book's two tiers per side (see :mod:`lobmm.book`).  Most
events in a frozen book move neither quote, so the book stage applies
each *quiet stretch* (a run of events with no limit order strictly inside
the spread and no quote level emptied) in bulk with numpy, resting the
orders behind the quotes in the cold tiers one array at a time, and steps
only the events that end a stretch, and busy parts of the stream, through
the per-event book loop on the hot tiers.  When the loop empties a quote
level and a cold price reaches the new quote, the book flushes that
side's whole cold tier into the hot tier.

The book stage records only the quotes after each event that it steps,
and each chunk's rows (trade price, bid, ask) follow by one rule:

- an event that the loop did not step (in a quiet stretch, or a dropped
  order) keeps the quotes of the last stepped event before it, or else the
  chunk's opening quotes;
- a market buy trades at the ask before it if the sell side rests (the
  ask is below the interval's upper end), and a limit buy if its price is
  at or above that ask; sells mirror this at the bid.  Every other event
  has trade price NaN.

The model one event at a time, written for reading rather than speed,
lives with the tests in ``tests/oracle.py``.  The test-suite pins
:func:`run` to it event by event, at tiny block sizes to the same sequence
of block draws, and at tiny look-ahead constants across stretch edges;
change the two in lockstep.  ``_BLOCK`` and the order of the block draws
(exponential block, then uniform block, each refilled when the next draw
needs it, the exponential first when both fall on one event) are part of
the byte-identity contract: changing either changes every trajectory.  The
look-ahead constants ``_LOOK`` and ``_MIN_STRETCH`` are not: any positive
values give the same bytes.

After a run, :attr:`Trajectory.summary` reduces it, once, to the
:class:`TrajectorySummary` record that ``simulate``, ``sweep``, ``freeze``
and :func:`run_ensemble` all report from.  The quote CDFs that ``compare``
checks come from :func:`quote_cdfs`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from .book import BookSnapshot, OrderBook
from .curves import (
    DemandSupplyPair,
    PriceInterval,
    require_core_assumptions,
)
from .pool import _in_order, _pool_size

__all__ = [
    "DROPPED",
    "FreezeReport",
    "InsufficientDataError",
    "InvalidMapError",
    "RateTable",
    "SimConfig",
    "Trajectory",
    "TrajectorySummary",
    "WindowEstimate",
    "detect_freeze",
    "estimate_window",
    "generator_for",
    "image_book",
    "quote_cdfs",
    "run",
    "run_ensemble",
]

# kind code recorded when the restriction policy swallows a limit order
DROPPED = 5

_BLOCK = 1 << 16

# the book stage's look-ahead (see run): the first window scanned for a quiet
# stretch, and the shortest stretch applied in bulk, which is also the first
# run the per-event loop takes where the stream is busy.  Unlike _BLOCK they
# change no byte of a run, only its speed.
_LOOK = 1024
_MIN_STRETCH = 128

# points of the price grid that the post-burn-in quote CDFs are sampled on
_CDF_GRID_SIZE = 1024

# the freeze criterion of detect_freeze: both quotes settle within this share
# of the interval length, for at least this share of the events
_FREEZE_EPS = 0.01
_FREEZE_SPAN = 0.1

# events per block of detect_freeze's backward scan.  Like _LOOK it changes
# no result, only the scan's memory and speed.
_FREEZE_BLOCK = 1 << 14


class InsufficientDataError(RuntimeError):
    """A post-burn-in estimate was requested from an empty sample."""


class InvalidMapError(ValueError):
    """The image of a book under a discrete price map crosses or leaves
    the interval."""


def generator_for(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based generator for one replica; streams never collide."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replica,)))
    )


@dataclass(frozen=True)
class RateTable:
    """Arrival rates of the five event kinds; constant over a run."""

    inv_total: float  # mean wait between events
    # cumulative kind-selection thresholds on a uniform draw
    thresholds: Tuple[float, float, float, float]

    @classmethod
    def from_pair(cls, pair: DemandSupplyPair, rho: float = 0.0) -> "RateTable":
        if rho < 0.0 or not math.isfinite(rho):
            raise ValueError("market maker rate must be finite and nonnegative")
        bm = pair.demand.rates[-1]
        sm = pair.supply.rates[0]
        bl = pair.demand.total_mass
        sl = pair.supply.total_mass
        total = bm + sm + bl + sl + rho
        if not total > 0.0:
            raise ValueError("total event rate must be positive")
        inv = 1.0 / total
        thresholds = (
            bm * inv,
            (bm + sm) * inv,
            (bm + sm + bl) * inv,
            (bm + sm + bl + sl) * inv,
        )
        return cls(inv, thresholds)


@dataclass(frozen=True)
class SimConfig:
    """One run: model, horizon, seed, and measurement settings.

    Exactly one of ``events`` (event-count horizon) and ``duration``
    (model-time horizon) must be set.  ``restriction`` converts limit
    orders outside the window into market orders or no-ops.  ``replica``
    selects an independent stream under the same seed.
    """

    pair: DemandSupplyPair
    rho: float = 0.0
    events: Optional[int] = None
    duration: Optional[float] = None
    seed: int = 0
    replica: int = 0
    restriction: Optional[PriceInterval] = None
    burn_in: float = 0.5
    snapshot_at: Tuple[int, ...] = ()
    initial_buys: Tuple[float, ...] = ()
    initial_sells: Tuple[float, ...] = ()

    def __post_init__(self):
        if (self.events is None) == (self.duration is None):
            raise ValueError("set exactly one of events= and duration=")
        if self.events is not None and self.events < 0:
            raise ValueError("events horizon must be nonnegative")
        if self.duration is not None and not 0.0 < self.duration < math.inf:
            raise ValueError("duration horizon must be positive and finite")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError("burn_in must lie in [0, 1)")
        if self.rho < 0.0 or not math.isfinite(self.rho):
            raise ValueError("rho must be finite and nonnegative")
        iv = self.pair.interval
        if self.restriction is not None:
            r = self.restriction
            if not (iv.lo <= r.lo < r.hi <= iv.hi):
                raise ValueError("restriction window must sit inside the price interval")
        object.__setattr__(self, "snapshot_at", tuple(sorted(set(int(k) for k in self.snapshot_at))))
        if self.snapshot_at and self.snapshot_at[0] < 0:
            raise ValueError("snapshot indices must be nonnegative")
        object.__setattr__(self, "initial_buys", tuple(float(p) for p in self.initial_buys))
        object.__setattr__(self, "initial_sells", tuple(float(p) for p in self.initial_sells))


@dataclass(frozen=True)
class TrajectorySummary:
    """The post-run record of one trajectory: all scalars, so it pickles
    cheaply and compares with ``==``.  ``min_bid``/``max_ask`` are NaN for
    an empty run, the empty-side probabilities (post-burn-in, time-weighted)
    NaN with no post-burn-in state; freeze and window fields are None when
    :func:`detect_freeze` or :func:`estimate_window` finds nothing."""

    replica: int
    n_events: int
    trade_count: int
    min_bid: float
    max_ask: float
    empty_book_transitions: int
    final_buys: int
    final_sells: int
    frozen: bool
    freeze_time: Optional[float]
    freeze_midpoint: Optional[float]
    freeze_start_index: Optional[int]
    window_lo: Optional[float]
    window_hi: Optional[float]
    empty_buy_prob: float
    empty_sell_prob: float


@dataclass(frozen=True)
class Trajectory:
    """Per-event series of one run and its post-run record.

    ``kinds`` holds the kind codes, and ``trade_prices``, ``bids`` and
    ``asks`` the rows, of the module docstring.  State ``i`` (``bids[i]``,
    ``asks[i]``) holds on ``[times[i], times[i+1])``; post-burn-in
    reductions weight it accordingly.
    """

    config: SimConfig
    n_events: int
    end_time: float
    times: np.ndarray
    kinds: np.ndarray
    trade_prices: np.ndarray
    bids: np.ndarray
    asks: np.ndarray
    final_book: OrderBook
    snapshots: Dict[int, BookSnapshot]
    summary: TrajectorySummary = field(init=False)

    @property
    def burn_index(self) -> int:
        return int(self.config.burn_in * self.n_events)

    def __post_init__(self):
        # reduce inside run(), so timing or tracing run() covers the whole run
        object.__setattr__(self, "summary", _summarize(self))


def _event_chunks(config: SimConfig, rates: RateTable):
    """The pre-pass of :func:`run`: the run's events, decoded from the
    random stream one block at a time, as ``(times, kinds, prices)`` arrays.

    Nothing here reads the book.  A chunk never crosses a refill of either
    random block or a snapshot index, so the blocks are drawn in exactly
    the order that drawing one event at a time asks for them, and memory stays bounded by
    the block size whatever the horizon.  ``kinds`` are the recorded kinds
    (limit orders already rewritten or dropped by the restriction);
    ``prices`` holds the drawn price of every limit order, rewritten or
    dropped ones included, and NaN for the other kinds.
    """
    pair = config.pair
    lo, hi = pair.interval.lo, pair.interval.hi
    lo_in, hi_in = math.nextafter(lo, hi), math.nextafter(hi, lo)
    window = config.restriction
    c_sm, c_sl = rates.thresholds[1], rates.thresholds[3]
    thresholds = np.array(rates.thresholds)
    inv_total = rates.inv_total
    # limit-price sampler inputs per recorded kind: knots, cumulative mass,
    # price per unit mass on each segment (0 where the curve is flat, inf
    # where the mass is too small for the quotient), and total mass
    samplers = []
    for code, curve in ((2, pair.demand), (3, pair.supply)):
        knots, rx = np.array(curve.prices), np.array(curve.rates)
        cum = np.abs(rx - rx[0])  # nondecreasing by monotonicity
        dm = np.diff(cum)
        with np.errstate(over="ignore"):
            seg = np.divide(np.diff(knots), dm, out=np.zeros_like(dm), where=dm > 0.0)
        samplers.append((code, knots, cum, seg, curve.total_mass))

    block = _BLOCK
    gen = generator_for(config.seed, config.replica)
    exps, e_i = gen.standard_exponential(block), 0
    unis, u_i = gen.random(block), 0
    t = 0.0
    i = 0
    left = config.events if config.events is not None else math.inf
    t_limit = config.duration if config.duration is not None else math.inf
    snaps = [k for k in reversed(config.snapshot_at) if k > 0]  # next one last

    while left:
        # refills, exponential first, as drawing one event at a time meets them
        if e_i == block:
            exps, e_i = gen.standard_exponential(block), 0
        carry = None
        if u_i == block - 1 and c_sm <= unis[u_i] < c_sl:
            # a limit kind draw ends the block: its price opens the next one
            carry = unis[u_i:]
            u_i = block
        if u_i == block:
            unis, u_i = gen.random(block), 0

        k = min(block - e_i, left, snaps[-1] - i if snaps else math.inf)
        times = exps[e_i : e_i + k] * inv_total
        times[0] += t
        np.cumsum(times, out=times)
        if times[-1] > t_limit:  # the horizon ends before the first event past it
            k = left = int(np.searchsorted(times, t_limit, side="right"))
            if not k:
                return

        # The uniforms read as a variable-length code.  A uniform in
        # [c_sm, c_sl) at an even offset into its run of such uniforms is a
        # limit kind draw, and the uniform after it is its price draw;
        # every other uniform is a kind draw.  k events take at most 2k.
        stop = min(block, u_i + 2 * k)
        w = unis[u_i:stop] if carry is None else np.concatenate((carry, unis[:stop]))
        flagged = (w >= c_sm) & (w < c_sl)
        run_start = flagged.copy()
        run_start[1:] &= ~flagged[:-1]
        pos = np.arange(len(w))
        offset = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
        limit = flagged & (offset % 2 == 0)
        is_kind = np.ones(len(w), dtype=bool)
        is_kind[1:] = ~limit[:-1]
        kind_pos = np.flatnonzero(is_kind)
        # a limit kind draw in the last place waits for the next block
        m = min(k, len(kind_pos) - int(limit[-1]))
        u_i = stop - len(w) + (kind_pos[m] if m < len(kind_pos) else len(w))

        kind_pos = kind_pos[:m]
        kinds = np.searchsorted(thresholds, w[kind_pos], side="right").astype(np.uint8)
        prices = np.full(m, math.nan)
        for code, knots, cum, seg, total in samplers:
            sel = kinds == code
            target = w[kind_pos[sel] + 1] * total
            j = np.searchsorted(cum, target, side="left")
            jm = np.maximum(j - 1, 0)
            x = np.where(j == 0, knots[0], knots[jm] + (target - cum[jm]) * seg[jm])
            prices[sel] = np.where(x <= lo, lo_in, np.where(x >= hi, hi_in, x))
        if window is not None:
            buy, sell = kinds == 2, kinds == 3
            kinds[buy & (prices >= window.hi)] = 0  # rewritten to a market buy
            kinds[sell & (prices <= window.lo)] = 1  # rewritten to a market sell
            kinds[(buy & (prices <= window.lo)) | (sell & (prices >= window.hi))] = DROPPED

        times = times[:m]
        yield times, kinds, prices
        t = times[-1]
        e_i += m
        i += m
        left -= m
        if snaps and snaps[-1] == i:
            snaps.pop()


def _book_loop(
    book: OrderBook,
    bid: float,
    ask: float,
    kinds: np.ndarray,
    prices: np.ndarray,
    out: Tuple[array, array],
) -> Tuple[float, float]:
    """Step events one at a time through the hot tiers of ``book``, whose
    quotes are ``bid`` and ``ask``: append the quotes after each event to
    the columns ``out`` (bid, ask), and return them.  When a quote level
    empties onto a cold price, the book first flushes that side's whole
    cold tier into the hot tier."""
    bid_out, ask_out = [], []
    buys, sells = book._buy_counts, book._sell_counts
    bh, sh = book._buy_heap, book._sell_heap
    push, pop = heappush, heappop
    lo, hi = book.lo, book.hi
    # an empty side quotes the interval edge and limit prices lie strictly
    # inside, so a limit buy at or above the ask (a limit sell at or below
    # the bid) always meets a resting order
    for kind, x in zip(kinds.tolist(), prices.tolist()):
        if kind == 2 and x < ask:  # a limit buy below the ask rests
            c = buys.get(x)
            if c is None:
                buys[x] = 1
                push(bh, -x)
                if x > bid:
                    bid = x
            else:
                buys[x] = c + 1
        elif kind == 3 and x > bid:  # a limit sell above the bid rests
            c = sells.get(x)
            if c is None:
                sells[x] = 1
                push(sh, x)
                if x < ask:
                    ask = x
            else:
                sells[x] = c + 1
        elif kind == 4:  # the market maker reinforces both quotes
            if bh:
                buys[bid] += 1
            if sh:
                sells[ask] += 1
        elif (kind == 0 or kind == 2) and sh:  # a buy lifts the ask
            c = sells[ask]
            if c == 1:
                del sells[ask]
                pop(sh)
                ask = sh[0] if sh else hi
                if book._cold_ask <= ask:  # a cold sell reaches the new ask
                    ask = book._flush_ask()
            else:
                sells[ask] = c - 1
        elif (kind == 1 or kind == 3) and bh:  # a sell hits the bid
            c = buys[bid]
            if c == 1:
                del buys[bid]
                pop(bh)
                bid = -bh[0] if bh else lo
                if book._cold_bid >= bid:  # a cold buy reaches the new bid
                    bid = book._flush_bid()
            else:
                buys[bid] = c - 1
        bid_out.append(bid)
        ask_out.append(ask)
    out[0].fromlist(bid_out)
    out[1].fromlist(ask_out)
    return bid, ask


def _quiet_stretch(
    book: OrderBook,
    bid: float,
    ask: float,
    kinds: np.ndarray,
    prices: np.ndarray,
) -> int:
    """Apply the quiet prefix of the events to ``book`` in bulk and return
    its length; apply nothing and return 0 when the prefix is shorter than
    both ``_MIN_STRETCH`` and the events.  An event is quiet when it is no
    limit order strictly between bid and ask and empties neither quote
    level.  Over a quiet prefix each quote level takes one net change of
    count, and the orders that rest behind the quotes go into the book's
    cold tiers in one array per side."""
    buys, sells = book._buy_counts, book._sell_counts
    buy, sell = kinds == 2, kinds == 3
    stop = (buy | sell) & (prices > bid) & (prices < ask)
    # the running count at a quote: makers and trades count on a resting
    # side only, and a limit price can equal a quote only on a resting side
    maker = (kinds == 4).astype(np.int8)
    if book._buy_heap:
        hit_bid = (kinds == 1) | (sell & (prices <= bid))
        at_bid = np.cumsum(maker + (buy & (prices == bid)) - hit_bid)
        stop |= at_bid == -buys[bid]
    if book._sell_heap:
        hit_ask = (kinds == 0) | (buy & (prices >= ask))
        at_ask = np.cumsum(maker + (sell & (prices == ask)) - hit_ask)
        stop |= at_ask == -sells[ask]
    q = int(stop.argmax()) if stop.any() else len(kinds)
    if q < min(_MIN_STRETCH, len(kinds)):
        return 0

    if book._buy_heap:
        buys[bid] += int(at_bid[q - 1])
    if book._sell_heap:
        sells[ask] += int(at_ask[q - 1])
    prices = prices[:q]
    book._rest_cold(prices[buy[:q] & (prices < bid)], prices[sell[:q] & (prices > ask)])
    return q


def _rows(
    kinds: np.ndarray,
    prices: np.ndarray,
    stepped: np.ndarray,
    quotes: Tuple[array, array],
    interval: PriceInterval,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A chunk's rows (see the module docstring): trade prices, bids and
    asks.  ``stepped`` marks the events the loop stepped, and ``quotes``
    holds the quotes before the chunk and after each stepped event."""
    # the index in ``quotes`` of the quotes before each event, then after the last
    last = np.zeros(len(kinds) + 1, dtype=np.intp)
    np.cumsum(stepped, out=last[1:])
    bids, asks = (np.frombuffer(col)[last] for col in quotes)
    bid, ask = bids[:-1], asks[:-1]
    buy = np.where(kinds == 0, ask < interval.hi, (kinds == 2) & (prices >= ask))
    sell = np.where(kinds == 1, bid > interval.lo, (kinds == 3) & (prices <= bid))
    trade_prices = np.where(sell, bid, math.nan)
    np.copyto(trade_prices, ask, where=buy)
    return trade_prices, bids[1:], asks[1:]


def run(config: SimConfig) -> Trajectory:
    """Simulate one trajectory; deterministic in (seed, replica).

    For each chunk of the pre-pass (:func:`_event_chunks`), the book stage
    looks ahead over the chunk's events, less its dropped orders, in a
    window of ``_LOOK`` events, doubled while quiet stretches fill it.
    :func:`_quiet_stretch` applies a stretch of at least ``_MIN_STRETCH``
    events in bulk, and :func:`_book_loop` steps the event that ends it;
    where the stream is busy, the loop steps runs of events instead,
    doubled while it stays busy.  :func:`_rows` then builds the chunk's
    rows.  The final book keeps its cold tiers; its order totals count
    them, and its whole-book views merge them in when first read.
    """
    pair = config.pair
    require_core_assumptions(pair)
    rates = RateTable.from_pair(pair, config.rho)

    book = OrderBook(pair.interval, config.initial_buys, config.initial_sells)
    bid, ask = book.bid, book.ask

    # per-event columns: time, kind, trade price, bid, ask
    columns = [array(code) for code in "dBddd"]
    t_col, k_col, *out = columns

    snap_at = set(config.snapshot_at)
    snapshots: Dict[int, BookSnapshot] = {0: book.snapshot()} if 0 in snap_at else {}

    look, busy = _LOOK, _MIN_STRETCH
    n = 0
    for times, kinds, prices in _event_chunks(config, rates):
        t_col.frombytes(times.tobytes())
        k_col.frombytes(kinds.tobytes())
        kept = kinds != DROPPED
        book_kinds, book_prices = (kinds, prices) if kept.all() else (kinds[kept], prices[kept])
        quotes = (array("d", [bid]), array("d", [ask]))
        m = len(book_kinds)
        stepped = np.zeros(m, dtype=bool)
        s = 0
        while s < m:
            w = slice(s, min(m, s + look))
            q = _quiet_stretch(book, bid, ask, book_kinds[w], book_prices[w])
            s += q
            if q:
                if s == w.stop:  # quiet to the end of the look-ahead: look further
                    look *= 2
                    continue
                # the event that ends the stretch is stepped
                look, busy = _LOOK, _MIN_STRETCH
                r = slice(s, s + 1)
            else:  # busy: the loop takes a run, longer while it stays busy
                r = slice(s, min(m, s + busy))
                busy *= 2
            bid, ask = _book_loop(book, bid, ask, book_kinds[r], book_prices[r], quotes)
            stepped[r] = True
            s = r.stop
        if m < len(kinds):  # the marks over the whole chunk: no dropped order is stepped
            kept[kept] = stepped
            stepped = kept
        for col, values in zip(out, _rows(kinds, prices, stepped, quotes, pair.interval)):
            col.frombytes(values.tobytes())
        # free the chunk's book stage before the pre-pass decodes the next chunk
        book_kinds = book_prices = kept = stepped = quotes = values = None
        n += len(kinds)
        if n in snap_at:
            snapshots[n] = book.snapshot()

    # free the last chunk before Trajectory reduces the run
    times = kinds = prices = None
    # the book stage leaves the order totals to the end
    book._count_orders()
    times, kinds, tps, bids, asks = (
        np.frombuffer(col, dtype=col.typecode) if n else np.empty(0, dtype=col.typecode)
        for col in columns
    )
    for arr in (times, kinds, tps, bids, asks):
        arr.flags.writeable = False

    end_time = float(times[-1]) if n else 0.0
    if config.duration is not None:
        end_time = config.duration
    return Trajectory(config, n, end_time, times, kinds, tps, bids, asks, book, snapshots)


def _occupation_weights(traj: Trajectory) -> Optional[np.ndarray]:
    """Occupation time of each post-burn-in state, or None when there is no
    such state; a run of zero length falls back to counting states."""
    k0, n = traj.burn_index, traj.n_events
    if k0 >= n:
        return None
    tail = traj.times[k0:]
    w = np.empty(n - k0)
    w[:-1] = np.diff(tail)
    w[-1] = max(traj.end_time - tail[-1], 0.0)
    if not w.sum() > 0.0:
        w = np.ones(n - k0)
    return w


def _weighted_below(values: np.ndarray, weights: np.ndarray, grid: np.ndarray, side: str):
    """Weight of the values at or below (side "right") or strictly below
    (side "left") each grid point, and the total weight."""
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    idx = np.searchsorted(values[order], grid, side=side)
    return np.where(idx > 0, cw[np.maximum(idx - 1, 0)], 0.0), cw[-1]


def _summarize(traj: Trajectory) -> TrajectorySummary:
    """The post-run record of ``traj`` (see :class:`TrajectorySummary`)."""
    # the freeze scan needs only block-sized arrays and the window scan two
    # boolean masks of the post-burn-in quotes; both run before the larger
    # temporaries below
    fz = detect_freeze(traj)
    try:
        we = estimate_window(traj)
        wlo, whi = we.lo, we.hi
    except InsufficientDataError:
        wlo = whi = None
    config, n = traj.config, traj.n_events
    lo, hi = config.pair.interval.lo, config.pair.interval.hi
    bids, asks = traj.bids, traj.asks
    trades = n - int(np.count_nonzero(np.isnan(traj.trade_prices)))
    # resting prices lie strictly inside the interval, so a quote on the
    # interval edge marks an empty side
    empty = (bids == lo) & (asks == hi)
    empties = int(np.count_nonzero(empty[1:] & ~empty[:-1]))
    if n and empty[0] and (config.initial_buys or config.initial_sells):
        empties += 1
    empty_buy = empty_sell = math.nan
    w = _occupation_weights(traj)
    if w is not None:
        k0 = traj.burn_index
        total = w.sum()
        empty_buy = float(w[bids[k0:] == lo].sum() / total)
        empty_sell = float(w[asks[k0:] == hi].sum() / total)
    return TrajectorySummary(
        replica=config.replica,
        n_events=n,
        trade_count=trades,
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


def quote_cdfs(traj: Trajectory) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(grid, bid_cdf, ask_survival)``: the post-burn-in, time-weighted
    law of the bid (P[bid <= x]) and of the ask (P[ask >= x]) on an even
    grid of the restriction window, or of the interval when unrestricted.
    Both are NaN when no state follows the burn-in."""
    config = traj.config
    iv = config.restriction if config.restriction is not None else config.pair.interval
    grid = np.linspace(iv.lo, iv.hi, _CDF_GRID_SIZE)
    w = _occupation_weights(traj)
    if w is None:
        nans = np.full(_CDF_GRID_SIZE, math.nan)
        return grid, nans, nans
    k0 = traj.burn_index
    b_le, b_total = _weighted_below(np.clip(traj.bids[k0:], iv.lo, iv.hi), w, grid, "right")
    a_lt, a_total = _weighted_below(np.clip(traj.asks[k0:], iv.lo, iv.hi), w, grid, "left")
    return grid, b_le / b_total, (a_total - a_lt) / a_total


@dataclass(frozen=True)
class WindowEstimate:
    """Extreme quotes over the post-burn-in window (bid floor, ask cap)."""

    lo: float
    hi: float


def estimate_window(traj: Trajectory) -> WindowEstimate:
    """Smallest observed bid and largest observed ask, where the side rests.

    A finite run visits the window edges rarely, so the estimate sits
    inside the true window; treat it as an inner bound.
    """
    k0 = traj.burn_index
    lo = traj.config.pair.interval.lo
    hi = traj.config.pair.interval.hi
    b = traj.bids[k0:]
    a = traj.asks[k0:]
    # an empty side quotes the interval edge; the masks skip those states
    # without copying the resting quotes
    floor = float(np.min(b, where=b > lo, initial=math.inf))
    cap = float(np.max(a, where=a < hi, initial=-math.inf))
    if math.isinf(floor) or math.isinf(cap):
        raise InsufficientDataError("no resting quotes after burn-in")
    return WindowEstimate(floor, cap)


@dataclass(frozen=True)
class FreezeReport:
    t_freeze: float
    midpoint: float
    start_index: int


def detect_freeze(traj: Trajectory) -> Optional[FreezeReport]:
    """Earliest time from which both quotes settle within eps, 1% of the
    interval length.

    The stable suffix must satisfy spread <= eps throughout, with bid and
    ask each moving at most eps, and span at least 10% of the events (at
    least one).  Returns None when no such suffix exists.

    A suffix of a stable suffix is stable too, since fewer events lower
    each maximum and raise each minimum, so the stable suffixes are exactly
    those from the first index where the condition holds.  The scan walks
    backward over ``_FREEZE_BLOCK`` events at a time, carrying four running
    extremes of everything after the current block (the max and min bid,
    the max and min ask), and stops at the last event where the condition
    fails.  The spread needs no running max: every later spread passed
    before the scan gets to an event.  So the scan needs a few block-sized
    arrays whatever the horizon, and gives what whole-run arrays give, bit
    for bit: max and min are exact.
    """
    n = traj.n_events
    eps = _FREEZE_EPS * traj.config.pair.interval.length
    bids, asks = traj.bids, traj.asks
    bid_hi = ask_hi = -math.inf
    bid_lo = ask_lo = math.inf
    k = 0  # first index of the maximal stable suffix
    for stop in range(n, 0, -_FREEZE_BLOCK):
        start = max(stop - _FREEZE_BLOCK, 0)
        # entry i of each array below belongs to event stop - 1 - i; the
        # extremes are over the suffix from that event on
        b, a = bids[start:stop][::-1], asks[start:stop][::-1]
        b_hi = np.maximum(np.maximum.accumulate(b), bid_hi)
        b_lo = np.minimum(np.minimum.accumulate(b), bid_lo)
        a_hi = np.maximum(np.maximum.accumulate(a), ask_hi)
        a_lo = np.minimum(np.minimum.accumulate(a), ask_lo)
        ok = (a - b <= eps) & (b_hi - b_lo <= eps) & (a_hi - a_lo <= eps)
        i = int(np.argmin(ok))  # the first failure, or 0 if none
        if not ok[i]:
            k = stop - i
            break
        bid_hi, bid_lo, ask_hi, ask_lo = b_hi[-1], b_lo[-1], a_hi[-1], a_lo[-1]
    if n - k < max(1, int(_FREEZE_SPAN * n)):
        return None
    midpoint = 0.5 * (bids[-1] + asks[-1])
    return FreezeReport(float(traj.times[k]), float(midpoint), k)


def image_book(book: OrderBook, divisor: float) -> OrderBook:
    """The book aggregated onto the cells ceil(price / divisor).

    Correctly rounded division is monotone, so the map never reorders
    prices; the image must still be non-crossing (guaranteed when buys and
    sells arrive on alternating cells, checked here regardless).
    """
    if not divisor > 0.0:
        raise ValueError("divisor must be positive")
    images = []
    for counts in (book.buy_counts, book.sell_counts):
        image: Dict[float, int] = {}
        for p, c in counts.items():
            q = float(math.ceil(p / divisor))
            image[q] = image.get(q, 0) + c
        images.append(image)
    try:
        return OrderBook(book.interval, buys=images[0], sells=images[1])
    except ValueError as exc:
        raise InvalidMapError(f"image under ceil(price / {divisor:g}) is invalid: {exc}") from exc


def _replica_summaries(base: SimConfig, replicas: range) -> List[TrajectorySummary]:
    return [run(replace(base, replica=r)).summary for r in replicas]


def run_ensemble(
    base_config: SimConfig, replicas: int, workers: Optional[int] = None
) -> List[TrajectorySummary]:
    """Post-run records of replicas 0..replicas-1 of ``base_config``.

    ``workers`` processes run them (None or 0: one per CPU; never more
    than the CPUs or the replicas), in batches of a quarter of each
    process's share.  Results are ordered by replica index and
    independent of scheduling; replica r always consumes the stream
    (seed, spawn_key=(r,)).  A replica that fails raises its error here;
    the batches not yet handed to a process never start.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if workers is not None and workers < 0:
        raise ValueError("workers must be nonnegative (0 means one per CPU)")
    size = _pool_size(replicas, workers)
    batch = max(1, replicas // (4 * size))
    batches = (range(r, min(r + batch, replicas)) for r in range(0, replicas, batch))
    fn = partial(_replica_summaries, base_config)
    return [s for part in _in_order(fn, batches, size) for s in part]
