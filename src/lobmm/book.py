"""Order book state and the single-event transition rules.

The book is a pair of price multisets (buys and sells) inside an open
price interval, never crossing: every resting sell sits strictly above
every resting buy.  Quotes fall back to the interval endpoints when a side
is empty.  Five event kinds mutate the book; each application returns the
trade price, or None when nothing traded.

Per side the book keeps a count dict plus a heap of the distinct resting
prices.  Removals only ever happen at the best quote, so the heap stays
duplicate-free and both quote lookup and mutation are cheap.  The heap,
dict, and counter attributes are read directly by the simulation loop;
mutate only through the methods.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Tuple

from .curves import PriceInterval

__all__ = [
    "BookSnapshot",
    "Event",
    "EventKind",
    "OrderBook",
]


class EventKind(Enum):
    BUY_MARKET = 0
    SELL_MARKET = 1
    BUY_LIMIT = 2
    SELL_LIMIT = 3
    MARKET_MAKER = 4


_LIMIT_KINDS = (EventKind.BUY_LIMIT, EventKind.SELL_LIMIT)


@dataclass(frozen=True)
class Event:
    kind: EventKind
    price: Optional[float] = None

    def __post_init__(self):
        if self.kind in _LIMIT_KINDS:
            if self.price is None or not math.isfinite(self.price):
                raise ValueError(f"{self.kind.name} requires a finite price")
        elif self.price is not None:
            raise ValueError(f"{self.kind.name} carries no price")


@dataclass(frozen=True)
class BookSnapshot:
    """Immutable copy of the resting orders, sorted by price."""

    interval: PriceInterval
    buys: Tuple[Tuple[float, int], ...]
    sells: Tuple[Tuple[float, int], ...]

    def restore(self) -> "OrderBook":
        return OrderBook(
            self.interval,
            buys={p: c for p, c in self.buys},
            sells={p: c for p, c in self.sells},
        )

    def rows(self) -> list:
        """Merged (side, price, count) rows sorted by price."""
        merged = [("buy", p, c) for p, c in self.buys]
        merged += [("sell", p, c) for p, c in self.sells]
        merged.sort(key=lambda r: (r[1], r[0]))
        return merged


class OrderBook:
    """Mutable non-crossing order book over an open price interval."""

    __slots__ = (
        "interval",
        "lo",
        "hi",
        "buy_counts",
        "sell_counts",
        "buy_heap",
        "sell_heap",
        "n_buys",
        "n_sells",
    )

    def __init__(
        self,
        interval: PriceInterval,
        buys: Optional[Iterable] = None,
        sells: Optional[Iterable] = None,
    ):
        self.interval = interval
        self.lo = interval.lo
        self.hi = interval.hi
        self.buy_counts: Dict[float, int] = _as_counts(buys, interval)
        self.sell_counts: Dict[float, int] = _as_counts(sells, interval)
        self.buy_heap: list = [-p for p in self.buy_counts]  # negated prices, top is the bid
        self.sell_heap: list = list(self.sell_counts)  # prices, top is the ask
        self.n_buys = sum(self.buy_counts.values())
        self.n_sells = sum(self.sell_counts.values())
        heapq.heapify(self.buy_heap)
        heapq.heapify(self.sell_heap)
        if self.n_buys and self.n_sells and self.ask <= self.bid:
            raise ValueError(
                f"crossed initial book: bid {self.bid} >= ask {self.ask}"
            )

    # -- quotes ---------------------------------------------------------

    @property
    def bid(self) -> float:
        return -self.buy_heap[0] if self.buy_heap else self.lo

    @property
    def ask(self) -> float:
        return self.sell_heap[0] if self.sell_heap else self.hi

    # -- primitive mutations ---------------------------------------------

    def add_buy(self, price: float) -> None:
        c = self.buy_counts.get(price)
        if c is None:
            self.buy_counts[price] = 1
            heapq.heappush(self.buy_heap, -price)
        else:
            self.buy_counts[price] = c + 1
        self.n_buys += 1

    def add_sell(self, price: float) -> None:
        c = self.sell_counts.get(price)
        if c is None:
            self.sell_counts[price] = 1
            heapq.heappush(self.sell_heap, price)
        else:
            self.sell_counts[price] = c + 1
        self.n_sells += 1

    def take_bid(self) -> float:
        """Remove one buy at the bid; the buy side must be non-empty."""
        p = -self.buy_heap[0]
        c = self.buy_counts[p]
        if c == 1:
            del self.buy_counts[p]
            heapq.heappop(self.buy_heap)
        else:
            self.buy_counts[p] = c - 1
        self.n_buys -= 1
        return p

    def take_ask(self) -> float:
        """Remove one sell at the ask; the sell side must be non-empty."""
        p = self.sell_heap[0]
        c = self.sell_counts[p]
        if c == 1:
            del self.sell_counts[p]
            heapq.heappop(self.sell_heap)
        else:
            self.sell_counts[p] = c - 1
        self.n_sells -= 1
        return p

    # -- event application ------------------------------------------------

    def apply(self, event: Event) -> Optional[float]:
        """Apply one event; return the trade price, or None if no trade.

        BUY_MARKET lifts the ask when a sell rests; SELL_MARKET hits the
        bid when a buy rests; marketable limits (buy at or above the ask,
        sell at or below the bid) trade immediately, others rest; a
        MARKET_MAKER adds one buy at the bid and one sell at the ask,
        each conditional on that quote existing, both evaluated before
        either insertion.
        """
        kind = event.kind
        if kind is EventKind.BUY_MARKET:
            return self.take_ask() if self.sell_heap else None
        if kind is EventKind.SELL_MARKET:
            return self.take_bid() if self.buy_heap else None
        if kind is EventKind.BUY_LIMIT:
            x = self._check_limit_price(event.price)
            if self.sell_heap and x >= self.sell_heap[0]:
                return self.take_ask()
            self.add_buy(x)
            return None
        if kind is EventKind.SELL_LIMIT:
            x = self._check_limit_price(event.price)
            if self.buy_heap and x <= -self.buy_heap[0]:
                return self.take_bid()
            self.add_sell(x)
            return None
        # MARKET_MAKER: quotes sampled before either insertion
        bid0 = -self.buy_heap[0] if self.buy_heap else None
        ask0 = self.sell_heap[0] if self.sell_heap else None
        if bid0 is not None:
            self.add_buy(bid0)
        if ask0 is not None:
            self.add_sell(ask0)
        return None

    def _check_limit_price(self, x: float) -> float:
        if not self.interval.contains_open(x):
            raise ValueError(f"limit price {x} not strictly inside the interval")
        return x

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> BookSnapshot:
        return BookSnapshot(
            self.interval,
            tuple(sorted(self.buy_counts.items())),
            tuple(sorted(self.sell_counts.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderBook):
            return NotImplemented
        return (
            self.interval == other.interval
            and self.buy_counts == other.buy_counts
            and self.sell_counts == other.sell_counts
        )

    def __repr__(self) -> str:
        return (
            f"OrderBook(buys={self.n_buys}@{len(self.buy_counts)}px, "
            f"sells={self.n_sells}@{len(self.sell_counts)}px, "
            f"bid={self.bid}, ask={self.ask})"
        )


def _as_counts(orders: Optional[Iterable], interval: PriceInterval) -> Dict[float, int]:
    """Resting orders as price -> count, every price strictly inside ``interval``."""
    if orders is None:
        return {}
    if isinstance(orders, dict):
        counts = {}
        for p, c in orders.items():
            if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                raise ValueError(f"order count must be a positive integer, got {c!r}")
            counts[float(p)] = int(c)
    else:
        counts = {}
        for p in orders:
            p = float(p)
            counts[p] = counts.get(p, 0) + 1
    for price, count in counts.items():
        if not interval.contains_open(price):
            raise ValueError(f"order price {price} not strictly inside the interval")
        if count < 1:
            raise ValueError(f"order count must be a positive integer, got {count}")
    return counts
