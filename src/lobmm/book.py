"""Order book state: the resting orders that the simulation loop mutates.

The book is a pair of price multisets (buys and sells) inside an open
price interval, never crossing: every resting sell sits strictly above
every resting buy.  Quotes fall back to the interval endpoints when a side
is empty.  The transitions themselves live in :mod:`lobmm.engine`, which
reads and mutates the private tiers below directly.

Each side of the book has two tiers:

- the *hot* tier, a count dict plus a heap of its distinct prices.
  Removals only ever happen at the best quote, so the heap stays
  duplicate-free and both quote lookup and mutation are cheap;
- the *cold* tier, a list of numpy arrays of resting prices, one entry per
  order, with the nearest of them kept apart.  The simulation's bulk path
  puts the orders that rest behind the quotes there, since in a frozen
  book most of them never move again.

Two invariants tie the tiers together:

- every cold price lies strictly behind its side's quote (below the bid,
  above the ask);
- an empty hot heap means an empty cold tier.

So the quotes, and whether a side rests at all, are read off the hot
heaps alone.  A price may rest in both tiers at once behind the quote.
When a quote level empties and a cold price reaches the new quote, the
whole cold tier of that side moves into the hot tier (a flush).  Each
cold order thus enters the hot tier at most once.

The whole-book views (``buy_counts``, ``sell_counts``, and through them
:meth:`OrderBook.snapshot` and ``repr``) first merge the cold tiers into
the hot ones (a settle), once.  ``n_buys`` and ``n_sells`` count the
orders of both tiers.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .curves import PriceInterval

__all__ = [
    "BookSnapshot",
    "OrderBook",
]


@dataclass(frozen=True)
class BookSnapshot:
    """Immutable copy of the resting orders, sorted by price."""

    interval: PriceInterval
    buys: Tuple[Tuple[float, int], ...]
    sells: Tuple[Tuple[float, int], ...]

    def rows(self) -> list:
        """Merged (side, price, count) rows sorted by price."""
        merged = [("buy", p, c) for p, c in self.buys]
        merged += [("sell", p, c) for p, c in self.sells]
        merged.sort(key=lambda r: (r[1], r[0]))
        return merged


def _settled(slot: str, doc: str) -> property:
    """A whole-book view of a hot-tier slot: the cold tiers merge in first."""

    def get(self):
        if self._buy_cold or self._sell_cold:
            self._settle()
        return getattr(self, slot)

    return property(get, doc=doc)


class OrderBook:
    """Mutable non-crossing order book over an open price interval.

    ``buy_counts`` and ``sell_counts`` map each resting price to its order
    count.  Reading either settles the cold tiers (see the module
    docstring); the quotes and the order totals ``n_buys`` and ``n_sells``
    never do.
    """

    __slots__ = (
        "interval",
        "lo",
        "hi",
        "_buy_counts",
        "_sell_counts",
        "_buy_heap",
        "_sell_heap",
        "_buy_cold",
        "_sell_cold",
        "_cold_bid",
        "_cold_ask",
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
        self._buy_counts: Dict[float, int] = _as_counts(buys, interval)
        self._sell_counts: Dict[float, int] = _as_counts(sells, interval)
        self._buy_heap: list = [-p for p in self._buy_counts]  # negated prices, top is the bid
        self._sell_heap: list = list(self._sell_counts)  # prices, top is the ask
        heapq.heapify(self._buy_heap)
        heapq.heapify(self._sell_heap)
        # the cold tiers, and the nearest price in each (an infinity past
        # the far end of the side when the tier is empty)
        self._buy_cold: List[np.ndarray] = []
        self._sell_cold: List[np.ndarray] = []
        self._cold_bid = -math.inf
        self._cold_ask = math.inf
        self.n_buys = sum(self._buy_counts.values())
        self.n_sells = sum(self._sell_counts.values())
        if self.n_buys and self.n_sells and self.ask <= self.bid:
            raise ValueError(
                f"crossed initial book: bid {self.bid} >= ask {self.ask}"
            )

    buy_counts = _settled("_buy_counts", "Resting buys: price -> order count.")
    sell_counts = _settled("_sell_counts", "Resting sells: price -> order count.")

    # -- quotes ---------------------------------------------------------

    @property
    def bid(self) -> float:
        return -self._buy_heap[0] if self._buy_heap else self.lo

    @property
    def ask(self) -> float:
        return self._sell_heap[0] if self._sell_heap else self.hi

    # -- the cold tiers ----------------------------------------------------

    def _rest_cold(self, buys: np.ndarray, sells: np.ndarray) -> None:
        """Rest one order at each of ``buys``, all strictly below the bid,
        and of ``sells``, all strictly above the ask, in the cold tiers;
        the order totals wait for :meth:`_count_orders`."""
        if len(buys):
            self._buy_cold.append(buys)
            self._cold_bid = max(self._cold_bid, float(buys.max()))
        if len(sells):
            self._sell_cold.append(sells)
            self._cold_ask = min(self._cold_ask, float(sells.min()))

    def _flush_bid(self) -> float:
        """Once the bid level has emptied and a cold buy lies at or above
        the new top of the hot tier: move every cold buy into the hot tier
        and return the bid."""
        _absorb(self._buy_counts, self._buy_heap, self._buy_cold, True)
        self._cold_bid = -math.inf
        return -self._buy_heap[0]

    def _flush_ask(self) -> float:
        """The sell-side twin of :meth:`_flush_bid`; returns the ask."""
        _absorb(self._sell_counts, self._sell_heap, self._sell_cold, False)
        self._cold_ask = math.inf
        return self._sell_heap[0]

    def _count_orders(self) -> None:
        """Set ``n_buys`` and ``n_sells`` from both tiers, settling neither."""
        self.n_buys = sum(self._buy_counts.values()) + sum(map(len, self._buy_cold))
        self.n_sells = sum(self._sell_counts.values()) + sum(map(len, self._sell_cold))

    def _settle(self) -> None:
        """Merge both cold tiers into the hot ones."""
        _absorb(self._buy_counts, self._buy_heap, self._buy_cold, True)
        _absorb(self._sell_counts, self._sell_heap, self._sell_cold, False)
        self._cold_bid, self._cold_ask = -math.inf, math.inf

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> BookSnapshot:
        return BookSnapshot(
            self.interval,
            tuple(sorted(self.buy_counts.items())),
            tuple(sorted(self.sell_counts.items())),
        )

    def __repr__(self) -> str:
        return (
            f"OrderBook(buys={self.n_buys}@{len(self.buy_counts)}px, "
            f"sells={self.n_sells}@{len(self.sell_counts)}px, "
            f"bid={self.bid}, ask={self.ask})"
        )


def _absorb(counts: Dict[float, int], heap: list, cold: List[np.ndarray], negate: bool) -> None:
    """Move every order of a side's cold tier ``cold`` into its count dict
    and heap (of negated prices when ``negate``), and empty ``cold``."""
    if not cold:
        return
    levels, n = np.unique(np.concatenate(cold), return_counts=True)
    cold.clear()
    for x, c in zip(levels.tolist(), n.tolist()):
        old = counts.get(x)
        if old is None:
            counts[x] = c
            heapq.heappush(heap, -x if negate else x)
        else:
            counts[x] = old + c


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
