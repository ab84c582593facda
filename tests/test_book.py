"""Order books: the engine's book (construction, quotes, snapshots) and
the five transitions with their invariants, on the reference book of
``oracle.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobmm import OrderBook, PriceInterval

from oracle import Book

IV = PriceInterval(0.0, 1.0)


def book(buys=(), sells=()):
    return OrderBook(IV, buys, sells)


def ref(buys=(), sells=()):
    return Book(IV, buys, sells)


class TestConstruction:
    def test_prices_must_be_inside(self):
        with pytest.raises(ValueError):
            book(buys=[0.0])
        with pytest.raises(ValueError):
            book(sells=[1.0])

    def test_crossed_initial_state_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            book(buys=[0.7], sells=[0.3])

    def test_touching_initial_state_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            book(buys=[0.5], sells=[0.5])

    def test_counts_from_dict(self):
        b = book(buys={0.2: 3}, sells={0.9: 2})
        assert b.n_buys == 3 and b.n_sells == 2
        assert b.buy_counts == {0.2: 3}

    @pytest.mark.parametrize("count", [2.5, True, 0], ids=["fraction", "bool", "zero"])
    def test_dict_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match="positive integer"):
            book(buys={0.2: count})
        with pytest.raises(ValueError, match="positive integer"):
            book(sells={0.8: count})


class TestQuotes:
    def test_empty_book_fallbacks(self):
        b = book()
        assert (b.bid, b.ask) == (0.0, 1.0)

    def test_two_sided(self):
        b = book(buys=[0.2, 0.3], sells=[0.7])
        assert b.bid == 0.3
        assert b.ask == 0.7

    def test_one_sided_fallback(self):
        b = book(buys=[0.4])
        assert (b.bid, b.ask) == (0.4, 1.0)


class TestMarketOrders:
    def test_buy_market_lifts_ask(self):
        b = ref(buys=[0.2], sells=[0.6, 0.7])
        assert b.apply(0) == 0.6
        assert b.ask == 0.7

    def test_buy_market_empty_sell_side(self):
        b = ref(buys=[0.2])
        assert b.apply(0) is None
        assert b.counts() == ref(buys=[0.2]).counts()

    def test_sell_market_hits_bid(self):
        b = ref(buys=[0.2, 0.3])
        assert b.apply(1) == 0.3
        assert b.bid == 0.2

    def test_empty_book_no_op(self):
        b = ref()
        assert b.apply(0) is None
        assert b.apply(1) is None
        assert b.counts() == ref().counts()


class TestLimitOrders:
    def test_buy_limit_rests_below_ask(self):
        b = ref(sells=[0.7])
        assert b.apply(2, 0.4) is None
        assert b.bid == 0.4

    def test_buy_limit_crossing_trades_at_ask(self):
        b = ref(sells=[0.7])
        assert b.apply(2, 0.8) == 0.7
        assert b.counts() == ref().counts()

    def test_buy_limit_at_ask_trades(self):
        # the tie executes rather than resting
        b = ref(sells=[0.7])
        assert b.apply(2, 0.7) == 0.7

    def test_sell_limit_at_bid_trades(self):
        b = ref(buys=[0.3])
        assert b.apply(3, 0.3) == 0.3

    def test_sell_limit_rests_above_bid(self):
        b = ref(buys=[0.3])
        b.apply(3, 0.9)
        assert b.ask == 0.9

    def test_crossing_buy_equals_buy_market(self):
        b1 = ref(buys=[0.1], sells=[0.6, 0.8])
        b2 = ref(buys=[0.1], sells=[0.6, 0.8])
        b1.apply(2, 0.9)
        b2.apply(0)
        assert b1.counts() == b2.counts()

    def test_limit_price_outside_interval(self):
        with pytest.raises(ValueError):
            ref().apply(2, 1.0)

    def test_buy_limit_never_touches_sell_side_when_resting(self):
        b = ref(sells=[0.7, 0.9])
        before = dict(b.sells)
        b.apply(2, 0.2)
        assert dict(b.sells) == before


class TestMarketMaker:
    def test_reinforces_both_quotes(self):
        b = ref(buys=[0.3], sells=[0.7])
        assert b.apply(4) is None
        assert b.counts() == ref(buys={0.3: 2}, sells={0.7: 2}).counts()
        assert b.n_buys == 2 and b.n_sells == 2

    def test_one_sided_book(self):
        b = ref(buys=[0.3])
        b.apply(4)
        assert b.buys == {0.3: 2}
        assert b.n_sells == 0

    def test_empty_book_no_op(self):
        b = ref()
        assert b.apply(4) is None
        assert b.counts() == ref().counts()

    def test_never_moves_quotes(self):
        b = ref(buys=[0.2, 0.4], sells=[0.6])
        before = (b.bid, b.ask)
        b.apply(4)
        assert (b.bid, b.ask) == before


class TestSnapshots:
    def test_round_trip(self):
        b = book(buys={0.2: 2, 0.3: 1}, sells={0.8: 4})
        snap = b.snapshot()
        assert OrderBook(snap.interval, dict(snap.buys), dict(snap.sells)).snapshot() == snap
        assert snap.buys == ((0.2, 2), (0.3, 1))

    def test_snapshot_is_frozen_in_time(self):
        b = book(buys=[0.3])
        snap = b.snapshot()
        b._rest_cold(np.array([0.2]), np.array([]))
        b._count_orders()
        assert b.n_buys == 2
        assert b.snapshot().buys == ((0.2, 1), (0.3, 1))
        assert snap.buys == ((0.3, 1),)

    def test_rows_sorted(self):
        b = book(buys=[0.2], sells=[0.9, 0.7])
        assert b.snapshot().rows() == [
            ("buy", 0.2, 1),
            ("sell", 0.7, 1),
            ("sell", 0.9, 1),
        ]


def random_events(rng_seed: int, n: int):
    """``n`` events as ``(kind, price)``, each kind equally likely."""
    import random

    r = random.Random(rng_seed)
    out = []
    for _ in range(n):
        k = r.randrange(5)
        out.append((k, r.uniform(1e-9, 1.0 - 1e-9) if k in (2, 3) else float("nan")))
    return out


class TestInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_non_crossing_under_random_streams(self, seed):
        b = ref()
        for kind, x in random_events(seed, 5000):
            b.apply(kind, x)
            # non-crossing; an empty side quotes its interval end
            assert b.bid < b.ask

    def test_conservation_from_fills(self):
        # each event changes the order counts as its kind and the returned
        # trade price say: a trade removes one order at the opposite quote,
        # a resting limit adds one, a maker adds one per nonempty side
        b = ref()
        for kind, x in random_events(99, 20_000):
            nb, ns = b.n_buys, b.n_sells
            bid, ask = b.bid, b.ask
            price = b.apply(kind, x)
            if kind == 4:
                assert price is None
                expected = (nb + (nb > 0), ns + (ns > 0))
            elif price is None:
                # a market order met an empty side, or a limit order rested
                if kind == 0:
                    assert ns == 0
                elif kind == 1:
                    assert nb == 0
                elif kind == 2:
                    assert x < ask
                else:
                    assert x > bid
                expected = (nb + (kind == 2), ns + (kind == 3))
            elif kind in (0, 2):
                assert price == ask
                expected = (nb, ns - 1)
            else:
                assert price == bid
                expected = (nb - 1, ns)
            assert (b.n_buys, b.n_sells) == expected
        # each heap holds exactly the distinct resting prices of its side
        assert sorted(-p for p in b.buy_heap) == sorted(b.buys)
        assert sorted(b.sell_heap) == sorted(b.sells)

    @given(x=st.floats(0.01, 0.99), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_resting_buy_raises_bid_iff_above(self, x, seed):
        b = ref()
        for kind, price in random_events(seed, 300):
            b.apply(kind, price)
        old_bid, old_ask = b.bid, b.ask
        if x >= old_ask:
            return  # would execute, different claim
        b.apply(2, x)
        assert b.bid == (x if x > old_bid else old_bid)


class TestEquality:
    """Snapshots compare the resting orders and the interval, nothing else."""

    def test_eq_ignores_history(self):
        # the same orders, one of them resting in the cold tier
        b1 = book(buys=[0.1, 0.3])
        b2 = book(buys=[0.3])
        b2._rest_cold(np.array([0.1]), np.array([]))
        b2._count_orders()
        assert b1.snapshot() == b2.snapshot()
        assert b1.n_buys == b2.n_buys == 2

    def test_interval_matters(self):
        a = OrderBook(PriceInterval(0.0, 1.0), [0.3], [])
        c = OrderBook(PriceInterval(0.0, 2.0), [0.3], [])
        assert a.snapshot() != c.snapshot()
