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
side's whole cold tier into the hot tier.  Since the pre-pass never reads
the book, one decode can drive several books whose configs agree on all
but their initial books, as ``freeze``'s gambler replica does with its
main replica: :func:`_run_books` steps each book through every chunk in
turn, and :func:`run` is its one-book case.

The book stage records only the quotes after each event that it steps,
and the quotes and trade prices of every event follow by one rule:

- an event that the loop did not step (in a quiet stretch, or a dropped
  order) keeps the quotes of the last stepped event before it, or else the
  chunk's opening quotes;
- a market buy trades at the ask before it if the sell side rests (the
  ask is below the interval's upper end), and a limit buy if its price is
  at or above that ask; sells mirror this at the bid.  Every other event
  has trade price NaN.

A run stores only what the book decides (see :class:`Trajectory`): the
quotes as change points (the events after which the loop moved a quote,
their times, and the quotes after them), the trade count, the final book
and the snapshots.  Every per-event column is derived: the pre-pass
never reads the book, so one generator, :meth:`Trajectory._chunks`,
replays it from the seed at most ``_REPLAY_EVENTS`` events at a time for
the times and kinds, and reads the quotes and trade prices off the change
points by the rule above, for a reader that asks for them.

No per-event column outlives its chunk, but three things still grow with
the horizon:

- the change points, 32 B each.  A frozen run has a few hundred; a busy
  one, one per event that moves a quote: 92,962 for 3e5 events on the
  uniform pair's volume-0.6 window (seed 1), about 9.9 B per event.  The
  run joins them one field at a time when it ends, which holds one more
  field (about 2.5 B per event there) for a moment;
- the reductions over them, a few arrays of their length at a time:
  :func:`detect_freeze` held about 25 B per change point at its peak on
  that run;
- where a post-burn-in side empties, the summary's occupation weights
  (8 B per post-burn-in event), their masked selections and the
  post-burn-in runs of equal quotes: about 20 B per post-burn-in event at
  once on that window at 4e6 events.

The final book also grows where orders keep coming to rest.

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
and :func:`run_ensemble` all report from.  It reads the compact form
directly, scanning runs of equal quotes rather than events.  Only where
a post-burn-in run of equal quotes has an empty side does it replay the
run, for the times alone, and fill in the occupation times chunk by chunk
(:func:`_occupation_weights`), so a frozen replica of :func:`run_ensemble`
never replays.  The quote CDFs that ``compare`` checks come from
:func:`quote_cdfs`, which weighs the states the same way.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

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

# the most events a replay of a stored run (Trajectory._chunks) decodes at a
# time, one piece of the CSV writer (cli._BLOCK_ROWS); the run's own pre-pass
# decodes whole blocks, since its book stage pays per chunk
_REPLAY_EVENTS = 8192

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
        if math.nextafter(iv.lo, iv.hi) == iv.hi:
            raise ValueError("the price interval holds no float strictly inside, where limit orders rest")
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

    State ``i`` (``bids[i]``, ``asks[i]``), the quotes after event ``i``,
    holds on ``[times[i], times[i+1])``; post-burn-in reductions weight it
    accordingly.  The run stores what the book decides:

    - the quotes as change points: the quotes before event ``i`` are
      ``_quote_bids[j]`` and ``_quote_asks[j]`` for the last ``j`` with
      ``_quote_at[j] <= i``.  ``_quote_at`` opens with 0, the quotes before
      the first event, and rises strictly to at most ``n_events``, the
      quotes after the last one;
    - ``_quote_times[j]``, the time of the event after which change point
      ``j`` holds, the first state of its run of equal quotes (``times[0]``
      for the opening one; 0.0 in a run of no events);
    - ``_trade_count``, the events that traded;
    - ``end_time``, the final book and the snapshots.

    Every per-event column is derived, by a replay of the pre-pass from
    the seed a chunk at a time (:meth:`_chunks`).  ``times``, ``kinds``
    (the kind codes of the module docstring), ``trade_prices``, ``bids``
    and ``asks`` are read-only arrays, all five joined from one replay on
    the first read of any and then kept.  The summary and
    :func:`quote_cdfs` replay only the post-burn-in times, and turn them
    into occupation weights chunk by chunk; ``quote_cdfs`` reads the
    quotes off the change points.  ``simulate`` writes its rows straight
    from the chunks, one CSV piece each.  None of them keeps a column.
    """

    config: SimConfig
    n_events: int
    end_time: float
    _quote_at: np.ndarray
    _quote_times: np.ndarray
    _quote_bids: np.ndarray
    _quote_asks: np.ndarray
    _trade_count: int
    final_book: OrderBook
    snapshots: Dict[int, BookSnapshot]
    summary: TrajectorySummary = field(init=False)

    @property
    def burn_index(self) -> int:
        return int(self.config.burn_in * self.n_events)

    def __post_init__(self):
        # reduce inside run(), so timing or tracing run() covers the whole run
        object.__setattr__(self, "summary", _summarize(self))

    # the first read of any of the five joins all of them, from one replay
    times, kinds, trade_prices, bids, asks = (
        cached_property(lambda self, f=f: self._join_all()[f]) for f in range(5)
    )

    def _join_all(self) -> List[np.ndarray]:
        columns = [np.empty(self.n_events, dtype=np.uint8 if f == 1 else float) for f in range(5)]
        i = 0
        for chunk in self._chunks():
            stop = i + len(chunk[0])
            for column, part in zip(columns, chunk):
                column[i:stop] = part
            i = stop
        columns = [_read_only(c) for c in columns]
        vars(self).update(zip(("times", "kinds", "trade_prices", "bids", "asks"), columns))
        return columns

    def _chunks(self, start: int = 0, quoted: bool = True):
        """``(times, kinds, trade_prices, bids, asks)`` of events ``start``
        on, or ``(times, kinds)`` alone when not ``quoted``, replayed from
        the seed by the pre-pass (:func:`_event_chunks`, which reads no book
        and evaluates no curve) in chunks of at most ``_REPLAY_EVENTS``
        events.  Only a quoted replay reads the change points."""
        config, i = self.config, 0
        interval = config.pair.interval
        rates = RateTable.from_pair(config.pair, config.rho)
        for times, kinds, prices in _event_chunks(config, rates, _REPLAY_EVENTS):
            stop = i + len(kinds)
            if stop > start:
                cut = max(start - i, 0)
                times, kinds, prices = times[cut:], kinds[cut:], prices[cut:]
                if not quoted:
                    yield times, kinds
                else:
                    # states i + cut - 1 to stop - 1: the quotes before each event and after it
                    bids, asks = self._quotes(i + cut - 1, stop)
                    bid, ask = bids[:-1], asks[:-1]
                    # a buy meets the ask before it, a sell the bid
                    buys, sells = _trades(kinds, prices, bid, ask, interval)
                    trade_prices = np.where(buys, ask, np.where(sells, bid, math.nan))
                    yield times, kinds, trade_prices, bids[1:], asks[1:]
            i = stop

    def _quotes(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """The bids and asks of states ``start`` to ``stop`` - 1, from the
        change points; state -1 holds the quotes before the first event."""
        # state i holds the quotes of the last change point at or before i + 1
        first, last = np.searchsorted(self._quote_at, (start + 1, stop), side="right") - 1
        edges = np.concatenate(((start + 1,), self._quote_at[first + 1 : last + 1], (stop + 1,)))
        runs = edges[1:] - edges[:-1]
        return tuple(np.repeat(q[first : last + 1], runs) for q in (self._quote_bids, self._quote_asks))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _event_chunks(config: SimConfig, rates: RateTable, most: float = math.inf):
    """The pre-pass of :func:`run`: the run's events, decoded from the
    random stream one block at a time, as ``(times, kinds, prices)`` arrays
    of at most ``most`` events.

    Nothing here reads the book.  A chunk never crosses a refill of either
    random block or a snapshot index, so the blocks are drawn in exactly
    the order that drawing one event at a time asks for them, and memory
    stays bounded by the block size whatever the horizon.  Each chunk
    opens on a kind draw, so cutting the chunks shorter decodes the same
    events.  ``kinds`` are the recorded kinds
    (limit orders already rewritten or dropped by the restriction);
    ``prices`` holds the drawn price of every limit order, rewritten or
    dropped ones included, and NaN for the other kinds.
    """
    pair = config.pair
    lo, hi = pair.interval.lo, pair.interval.hi
    lo_in, hi_in = math.nextafter(lo, hi), math.nextafter(hi, lo)
    window = config.restriction
    thresholds = rates.thresholds
    c_sm, c_sl = thresholds[1], thresholds[3]
    inv_total = rates.inv_total
    # limit-price sampler inputs per side: knots, cumulative mass, price per
    # unit mass on each segment (0 where the curve is flat, inf where the
    # mass is too small for the quotient), the inner knots' cumulative mass
    # that a target's segment is searched in, and total mass
    samplers = []
    for curve in (pair.demand, pair.supply):
        knots, rx = np.array(curve.prices), np.array(curve.rates)
        cum = np.abs(rx - rx[0])  # nondecreasing by monotonicity, from 0
        dm = np.diff(cum)
        with np.errstate(over="ignore"):
            seg = np.divide(np.diff(knots), dm, out=np.zeros_like(dm), where=dm > 0.0)
        samplers.append((knots, cum, seg, cum[1:-1], curve.total_mass))

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

        k = min(block - e_i, left, most, snaps[-1] - i if snaps else math.inf)
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
        # every other uniform is a kind draw.  k events take at most 2k,
        # few enough for int32 positions.
        stop = min(block, u_i + 2 * k)
        w = unis[u_i:stop] if carry is None else np.concatenate((carry, unis[:stop]))
        flagged = (w >= c_sm) & (w < c_sl)
        run_start = flagged.copy()
        run_start[1:] &= ~flagged[:-1]
        pos = np.arange(len(w), dtype=np.int32)
        offset = pos - np.maximum.accumulate(pos * run_start)
        limit = flagged & ((offset & 1) == 0)
        is_kind = np.ones(len(w), dtype=bool)
        is_kind[1:] = ~limit[:-1]
        kind_pos = np.flatnonzero(is_kind)
        # a limit kind draw in the last place waits for the next block
        m = min(k, len(kind_pos) - int(limit[-1]))
        u_i = stop - len(w) + (kind_pos[m] if m < len(kind_pos) else len(w))

        kind_pos = kind_pos[:m]
        # the number of thresholds at or below each kind draw, as bisecting to
        # the right counts them: a draw on two equal thresholds passes both
        u = w[kind_pos]
        kinds = (u >= thresholds[0]).view(np.uint8)
        for c in thresholds[1:]:
            kinds += u >= c
        is_limit = (kinds == 2, kinds == 3)
        prices = np.full(m, math.nan)
        for side, (is_side, (knots, cum, seg, inner, total)) in enumerate(zip(is_limit, samplers)):
            sel = np.flatnonzero(is_side)  # positions index faster than a mask
            target = w[kind_pos[sel] + 1] * total
            # the segment of each target (the first for a target of 0): cum[j]
            # < target <= cum[j + 1]; one segment needs no search
            j = np.searchsorted(inner, target) if len(inner) else 0
            with np.errstate(invalid="ignore"):  # 0 * inf, reset below
                x = knots[j] + (target - cum[j]) * seg[j]
            # a target of 0 prices at knots[0] (x is NaN there when seg[0] is
            # inf); no float lies strictly between lo and lo_in, so clipping to
            # [lo_in, hi_in] moves exactly the prices at or beyond an end
            x[target == 0.0] = lo
            prices[sel] = np.clip(x, lo_in, hi_in, out=x)
            if window is not None:
                # a buy at or above the window, a sell at or below it, goes
                # to the market; one at or behind its near edge is dropped
                above, below = x >= window.hi, x <= window.lo
                beyond, behind = (above, below) if side == 0 else (below, above)
                kinds[sel[beyond]] = side  # rewritten to the market order of its side
                kinds[sel[behind]] = DROPPED
                del above, below, beyond, behind

        # the consumer runs while this frame waits at the yield, so it keeps
        # the chunk and the random blocks and no decode temporary
        del w, carry, flagged, run_start, pos, offset, limit, is_kind, kind_pos, u
        del is_limit, is_side, sel, target, j, x
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


def _trades(kinds, prices, bid, ask, interval: PriceInterval) -> Tuple[np.ndarray, np.ndarray]:
    """Whether each event traded as a buy, and as a sell, by the rule of the
    module docstring, from its kind, price and the quotes before it."""
    buy = ((kinds == 0) & (ask < interval.hi)) | ((kinds == 2) & (prices >= ask))
    sell = ((kinds == 1) & (bid > interval.lo)) | ((kinds == 3) & (prices <= bid))
    return buy, sell


def _chunk_record(
    kinds: np.ndarray,
    prices: np.ndarray,
    stepped: np.ndarray,
    quotes: Tuple[array, array],
    interval: PriceInterval,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What a run keeps of the events that one chunk's book stage saw:
    ``(traded, moved, bids, asks)``, whether each event traded, and the
    change points, the positions of the events after which a quote moved
    and the quotes after them.  ``stepped`` marks the events the loop
    stepped, and ``quotes`` holds the quotes before the chunk and after
    each stepped event."""
    bids, asks = np.frombuffer(quotes[0]), np.frombuffer(quotes[1])
    # the index in ``quotes`` of the quotes before each event
    before = np.zeros(len(kinds), dtype=np.intp)
    np.cumsum(stepped[:-1], out=before[1:])
    traded = np.logical_or(*_trades(kinds, prices, bids[before], asks[before], interval))
    # compare bits, so that the quotes read back are the loop's to the bit
    b, a = bids.view(np.int64), asks.view(np.int64)
    moved = np.flatnonzero((b[1:] != b[:-1]) | (a[1:] != a[:-1]))
    return traded, np.flatnonzero(stepped)[moved], bids[moved + 1], asks[moved + 1]


class _BookStage:
    """The book stage of one run: its book, stepped through the chunks of a
    pre-pass, and what the run keeps of it (the quote change points, the
    trade count and the snapshots).  It holds nothing of a chunk between
    two calls of :meth:`step`."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.book = OrderBook(config.pair.interval, config.initial_buys, config.initial_sells)
        self.bid, self.ask = self.book.bid, self.book.ask
        # the change points, one list of per-chunk parts for each of their
        # positions, events' times, bids and asks; the first parts hold the
        # quotes before the first event, at that event's time
        self.moves = ([np.zeros(1, dtype=np.intp)], [np.zeros(1)], [np.array([self.bid])], [np.array([self.ask])])
        self.trades = 0
        self.snap_at = set(config.snapshot_at)
        self.snapshots: Dict[int, BookSnapshot] = {0: self.book.snapshot()} if 0 in self.snap_at else {}
        # the look-ahead window and the busy run, carried across chunks
        self.look, self.busy = _LOOK, _MIN_STRETCH

    def step(self, n: int, times: np.ndarray, kept: Optional[np.ndarray], kinds: np.ndarray, prices: np.ndarray) -> None:
        """Apply the chunk of events ``n`` on, whose times are ``times``:
        ``kinds`` and ``prices`` are its events less its dropped orders, and
        ``kept`` their positions in the chunk (None when it drops none)."""
        book, bid, ask, look, busy = self.book, self.bid, self.ask, self.look, self.busy
        quotes = (array("d", [bid]), array("d", [ask]))
        m = len(kinds)
        stepped = np.zeros(m, dtype=bool)
        s = 0
        while s < m:
            w = slice(s, min(m, s + look))
            q = _quiet_stretch(book, bid, ask, kinds[w], prices[w])
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
            bid, ask = _book_loop(book, bid, ask, kinds[r], prices[r], quotes)
            stepped[r] = True
            s = r.stop
        self.bid, self.ask, self.look, self.busy = bid, ask, look, busy
        traded, moved, moved_bids, moved_asks = _chunk_record(kinds, prices, stepped, quotes, book.interval)
        self.trades += int(np.count_nonzero(traded))
        if kept is not None:  # back to positions in the whole chunk
            moved = kept[moved]
        if not n:
            self.moves[1][0][0] = times[0]
        # the quotes after event n + i are change point n + i + 1
        for parts, part in zip(self.moves, (moved + (n + 1), times[moved], moved_bids, moved_asks)):
            parts.append(part)
        n += len(times)
        if n in self.snap_at:
            self.snapshots[n] = book.snapshot()

    def finish(self, n: int, end_time: float) -> Trajectory:
        """The run of ``n`` events that ends at ``end_time``."""
        # the book stage leaves the order totals to the end
        self.book._count_orders()
        # join the parts one field at a time, so that a busy run, whose change
        # points are many, holds them twice over one field at most
        change_points = []
        for parts in self.moves:
            change_points.append(_read_only(np.concatenate(parts)))
            parts.clear()
        return Trajectory(self.config, n, end_time, *change_points, self.trades, self.book, self.snapshots)


def _shared_stream(configs: Sequence[SimConfig]) -> None:
    """Refuse ``configs`` that would not draw one event stream: they must
    agree on every field but the initial book."""
    first = configs[0]
    for config in configs[1:]:
        for f in fields(SimConfig):
            if f.name not in ("initial_buys", "initial_sells") and getattr(config, f.name) != getattr(first, f.name):
                raise ValueError(f"configs that share one event stream must agree on {f.name}")


def _run_books(configs: Sequence[SimConfig]) -> List[Trajectory]:
    """Simulate one trajectory per config from one decode of their shared
    event stream; the configs differ only in their initial books.

    For each chunk of the pre-pass (:func:`_event_chunks`), each book's
    stage (:class:`_BookStage`) in turn looks ahead over the chunk's
    events, less its dropped orders, in a window of ``_LOOK`` events,
    doubled while quiet stretches fill it.  :func:`_quiet_stretch` applies
    a stretch of at least ``_MIN_STRETCH`` events in bulk, and
    :func:`_book_loop` steps the event that ends it; where the stream is
    busy, the loop steps runs of events instead, doubled while it stays
    busy.  :func:`_chunk_record` then reads the chunk's trade bits, which
    the run only counts, and its quote change points, which it keeps with
    their events' times.  Each final book keeps its cold tiers; its order
    totals count them, and its whole-book views merge them in when first
    read.  The per-event columns are replayed from the seed (see
    :class:`Trajectory`).
    """
    _shared_stream(configs)
    config = configs[0]
    require_core_assumptions(config.pair)
    stages = [_BookStage(c) for c in configs]
    n = 0
    end_time = 0.0
    for times, kinds, prices in _event_chunks(config, RateTable.from_pair(config.pair, config.rho)):
        end_time = float(times[-1])
        # the book stage never sees a dropped order
        kept = np.flatnonzero(kinds != DROPPED) if (kinds == DROPPED).any() else None
        book_kinds, book_prices = (kinds, prices) if kept is None else (kinds[kept], prices[kept])
        for stage in stages:
            stage.step(n, times, kept, book_kinds, book_prices)
        # free the chunk's book stage before the pre-pass decodes the next chunk
        book_kinds = book_prices = kept = None
        n += len(kinds)
    # free the last chunk before each Trajectory reduces its run
    times = kinds = prices = None
    if config.duration is not None:
        end_time = config.duration
    return [stage.finish(n, end_time) for stage in stages]


def run(config: SimConfig) -> Trajectory:
    """Simulate one trajectory; deterministic in (seed, replica).

    This is the one-book case of :func:`_run_books`, which steps any books
    that share one event stream through one decode of it.
    """
    return _run_books((config,))[0]


def _occupation_weights(traj: Trajectory, k0: int) -> np.ndarray:
    """Occupation time of each state from ``k0`` on, the time from its
    event to the next one (to the end of the run for the last), filled in
    chunk by chunk from a replay of the times alone; a run of zero length
    falls back to counting states."""
    w = np.empty(traj.n_events - k0)
    i = 0
    for times, _ in traj._chunks(k0, quoted=False):
        if i:  # the state before the chunk lasts until its first event
            w[i - 1] = times[0] - last
        stop = i + len(times)
        np.subtract(times[1:], times[:-1], out=w[i : stop - 1])
        last, i = times[-1], stop
    w[-1] = max(traj.end_time - last, 0.0)
    if not w.sum() > 0.0:
        w.fill(1.0)
    return w


def _weighted_below(values: np.ndarray, weights: np.ndarray, grid: np.ndarray, side: str):
    """Weight of the values at or below (side "right") or strictly below
    (side "left") each grid point, and the total weight."""
    order = np.argsort(values, kind="stable")
    cw = np.cumsum(weights[order])
    idx = np.searchsorted(values[order], grid, side=side)
    return np.where(idx > 0, cw[np.maximum(idx - 1, 0)], 0.0), cw[-1]


def _segments(traj: Trajectory, k0: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of equal quotes over states ``k0`` to the last, from the
    change points: ``(starts, bids, asks)``, the first state of each run
    and its quotes.  Two runs in a row never hold the same quotes."""
    at, n = traj._quote_at, traj.n_events
    if k0 >= n:
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
    # state i holds the quotes of change point i + 1
    j = int(np.searchsorted(at, k0 + 1, side="right")) - 1
    starts = at[j:] - 1
    starts[0] = k0
    return starts, traj._quote_bids[j:], traj._quote_asks[j:]


def _summarize(traj: Trajectory) -> TrajectorySummary:
    """The post-run record of ``traj`` (see :class:`TrajectorySummary`),
    from its compact form: runs of equal quotes stand for their states."""
    fz = detect_freeze(traj)
    try:
        we = estimate_window(traj)
        wlo, whi = we.lo, we.hi
    except InsufficientDataError:
        wlo = whi = None
    config, n = traj.config, traj.n_events
    lo, hi = config.pair.interval.lo, config.pair.interval.hi
    bids, asks = _segments(traj)[1:]
    # resting prices lie strictly inside the interval, so a quote on the
    # interval edge marks an empty side
    empty = (bids == lo) & (asks == hi)
    empties = int(np.count_nonzero(empty[1:] & ~empty[:-1]))
    if n and empty[0] and (config.initial_buys or config.initial_sells):
        empties += 1
    empty_buy = empty_sell = math.nan
    k0 = traj.burn_index
    if k0 < n:
        starts, tail_bids, tail_asks = _segments(traj, k0)
        buy_empty, sell_empty = tail_bids == lo, tail_asks == hi
        # a side that never empties has probability 0.0, as its zero sum of
        # weights would give; so the run is replayed for its weights only
        # where one does, which a frozen run after its burn-in does not
        empty_buy = empty_sell = 0.0
        if buy_empty.any() or sell_empty.any():
            w = _occupation_weights(traj, k0)
            runs = np.diff(starts, append=n)
            total = w.sum()
            empty_buy = float(w[np.repeat(buy_empty, runs)].sum() / total)
            empty_sell = float(w[np.repeat(sell_empty, runs)].sum() / total)
    return TrajectorySummary(
        replica=config.replica,
        n_events=n,
        trade_count=traj._trade_count,
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
    k0 = traj.burn_index
    if k0 >= traj.n_events:
        nans = np.full(_CDF_GRID_SIZE, math.nan)
        return grid, nans, nans
    w = _occupation_weights(traj, k0)
    bids, asks = traj._quotes(k0, traj.n_events)
    b_le, b_total = _weighted_below(np.clip(bids, iv.lo, iv.hi, out=bids), w, grid, "right")
    a_lt, a_total = _weighted_below(np.clip(asks, iv.lo, iv.hi, out=asks), w, grid, "left")
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
    lo = traj.config.pair.interval.lo
    hi = traj.config.pair.interval.hi
    # the extremes over runs of equal quotes are those over their states
    _, b, a = _segments(traj, traj.burn_index)
    # an empty side quotes the interval edge; the masks skip those runs
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
    those after the last index where the condition fails.  The condition
    holds on all states of a run of equal quotes or on none, so one
    backward pass over the runs (see :class:`Trajectory`) finds that index.
    """
    n = traj.n_events
    if not n:  # no runs, and no suffix of at least one event
        return None
    eps = _FREEZE_EPS * traj.config.pair.interval.length
    starts, bids, asks = _segments(traj)
    c = len(starts)
    # entry i belongs to run c - 1 - i, and its extremes are over the suffix
    # from that run on; a failing spread fails every suffix that holds it
    b, a = bids[::-1], asks[::-1]
    ok = a - b <= eps
    for q in (b, a):
        ok &= np.maximum.accumulate(q) - np.minimum.accumulate(q) <= eps
    i = int(np.argmin(ok))  # the last failure, or 0 if none
    j = c - i if not ok[i] else 0  # first run of the maximal stable suffix
    k = int(starts[j]) if j < c else n  # its first state
    if n - k < max(1, int(_FREEZE_SPAN * n)):
        return None
    midpoint = 0.5 * (bids[-1] + asks[-1])
    # the runs are the last c change points, each at its first state's time
    t = traj._quote_times[len(traj._quote_at) - c + j]
    return FreezeReport(float(t), float(midpoint), k)


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


def _replica_summaries(configs: Tuple[SimConfig, ...], replicas: range) -> list:
    """The records of ``replicas``: for each, a tuple of every config's
    record, its books stepped through one decode of its stream."""
    return [
        tuple(traj.summary for traj in _run_books([replace(c, replica=r) for c in configs]))
        for r in replicas
    ]


def run_ensemble(
    base_config: SimConfig,
    replicas: int,
    workers: Optional[int] = None,
    also: Sequence[SimConfig] = (),
) -> list:
    """Post-run records of replicas 0..replicas-1 of ``base_config``.

    ``workers`` processes run them (None or 0: one per CPU; never more
    than the CPUs or the replicas), in batches of a quarter of each
    process's share.  Results are ordered by replica index and
    independent of scheduling; replica r always consumes the stream
    (seed, spawn_key=(r,)), decoded once for every book it steps
    (:func:`_run_books`).  A replica that fails raises its error here;
    the batches not yet handed to a process never start.

    ``also`` adds ensembles of companion configs, which must agree with
    ``base_config`` on every field but the initial book (else
    ``ValueError``, before any run starts).  The call then returns one
    list of records per config, ``base_config``'s first, each equal to
    that config's own ensemble.  Without ``also`` it returns the one list.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if workers is not None and workers < 0:
        raise ValueError("workers must be nonnegative (0 means one per CPU)")
    configs = (base_config, *also)
    _shared_stream(configs)
    size = _pool_size(replicas, workers)
    batch = max(1, replicas // (4 * size))
    batches = (range(r, min(r + batch, replicas)) for r in range(0, replicas, batch))
    fn = partial(_replica_summaries, configs)
    records = [s for part in _in_order(fn, batches, size) for s in part]
    per_config = [list(books) for books in zip(*records)]
    return per_config if also else per_config[0]
