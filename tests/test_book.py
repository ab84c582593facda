"""Order book state machine: quotes, the five transitions, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobmm import Event, EventKind, OrderBook, PriceInterval

IV = PriceInterval(0.0, 1.0)


def book(buys=(), sells=()):
    return OrderBook(IV, buys, sells)


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

    def test_event_price_validation(self):
        with pytest.raises(ValueError):
            Event(EventKind.BUY_LIMIT)  # missing price
        with pytest.raises(ValueError):
            Event(EventKind.BUY_MARKET, 0.5)  # spurious price


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
        b = book(buys=[0.2], sells=[0.6, 0.7])
        assert b.apply(Event(EventKind.BUY_MARKET)) == 0.6
        assert b.ask == 0.7

    def test_buy_market_empty_sell_side(self):
        b = book(buys=[0.2])
        assert b.apply(Event(EventKind.BUY_MARKET)) is None
        assert b == book(buys=[0.2])

    def test_sell_market_hits_bid(self):
        b = book(buys=[0.2, 0.3])
        assert b.apply(Event(EventKind.SELL_MARKET)) == 0.3
        assert b.bid == 0.2

    def test_empty_book_no_op(self):
        b = book()
        assert b.apply(Event(EventKind.BUY_MARKET)) is None
        assert b.apply(Event(EventKind.SELL_MARKET)) is None
        assert b == book()


class TestLimitOrders:
    def test_buy_limit_rests_below_ask(self):
        b = book(sells=[0.7])
        assert b.apply(Event(EventKind.BUY_LIMIT, 0.4)) is None
        assert b.bid == 0.4

    def test_buy_limit_crossing_trades_at_ask(self):
        b = book(sells=[0.7])
        assert b.apply(Event(EventKind.BUY_LIMIT, 0.8)) == 0.7
        assert b == book()

    def test_buy_limit_at_ask_trades(self):
        # the tie executes rather than resting
        b = book(sells=[0.7])
        assert b.apply(Event(EventKind.BUY_LIMIT, 0.7)) == 0.7

    def test_sell_limit_at_bid_trades(self):
        b = book(buys=[0.3])
        assert b.apply(Event(EventKind.SELL_LIMIT, 0.3)) == 0.3

    def test_sell_limit_rests_above_bid(self):
        b = book(buys=[0.3])
        b.apply(Event(EventKind.SELL_LIMIT, 0.9))
        assert b.ask == 0.9

    def test_crossing_buy_equals_buy_market(self):
        b1 = book(buys=[0.1], sells=[0.6, 0.8])
        b2 = book(buys=[0.1], sells=[0.6, 0.8])
        b1.apply(Event(EventKind.BUY_LIMIT, 0.9))
        b2.apply(Event(EventKind.BUY_MARKET))
        assert b1 == b2

    def test_limit_price_outside_interval(self):
        with pytest.raises(ValueError):
            book().apply(Event(EventKind.BUY_LIMIT, 1.0))

    def test_buy_limit_never_touches_sell_side_when_resting(self):
        b = book(sells=[0.7, 0.9])
        before = dict(b.sell_counts)
        b.apply(Event(EventKind.BUY_LIMIT, 0.2))
        assert dict(b.sell_counts) == before


class TestMarketMaker:
    def test_reinforces_both_quotes(self):
        b = book(buys=[0.3], sells=[0.7])
        assert b.apply(Event(EventKind.MARKET_MAKER)) is None
        assert b == book(buys={0.3: 2}, sells={0.7: 2})
        assert b.n_buys == 2 and b.n_sells == 2

    def test_one_sided_book(self):
        b = book(buys=[0.3])
        b.apply(Event(EventKind.MARKET_MAKER))
        assert b.buy_counts == {0.3: 2}
        assert b.n_sells == 0

    def test_empty_book_no_op(self):
        b = book()
        assert b.apply(Event(EventKind.MARKET_MAKER)) is None
        assert b == book()

    def test_never_moves_quotes(self):
        b = book(buys=[0.2, 0.4], sells=[0.6])
        before = (b.bid, b.ask)
        b.apply(Event(EventKind.MARKET_MAKER))
        assert (b.bid, b.ask) == before


class TestSnapshots:
    def test_round_trip(self):
        b = book(buys={0.2: 2, 0.3: 1}, sells={0.8: 4})
        snap = b.snapshot()
        assert snap.restore() == b
        assert snap.buys == ((0.2, 2), (0.3, 1))

    def test_snapshot_is_frozen_in_time(self):
        b = book(buys=[0.3])
        snap = b.snapshot()
        b.apply(Event(EventKind.SELL_MARKET))
        assert b.n_buys == 0
        assert snap.buys == ((0.3, 1),)

    def test_rows_sorted(self):
        b = book(buys=[0.2], sells=[0.9, 0.7])
        assert b.snapshot().rows() == [
            ("buy", 0.2, 1),
            ("sell", 0.7, 1),
            ("sell", 0.9, 1),
        ]


def random_events(draw_prices, rng_seed: int, n: int):
    import random

    r = random.Random(rng_seed)
    out = []
    for _ in range(n):
        k = r.randrange(5)
        if k in (2, 3):
            out.append(Event(EventKind(k), r.uniform(1e-9, 1.0 - 1e-9)))
        else:
            out.append(Event(EventKind(k)))
    return out


class TestInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_non_crossing_under_random_streams(self, seed):
        b = book()
        for ev in random_events(None, seed, 5000):
            b.apply(ev)
            # non-crossing; an empty side quotes its interval end
            assert b.bid < b.ask

    def test_conservation_from_fills(self):
        # each event changes the order counts as its kind and the returned
        # trade price say: a trade removes one order at the opposite quote,
        # a resting limit adds one, a maker adds one per nonempty side
        b = book()
        for ev in random_events(None, 99, 20_000):
            nb, ns = b.n_buys, b.n_sells
            bid, ask = b.bid, b.ask
            price = b.apply(ev)
            kind = ev.kind
            if kind is EventKind.MARKET_MAKER:
                assert price is None
                expected = (nb + (nb > 0), ns + (ns > 0))
            elif price is None:
                # a market order met an empty side, or a limit order rested
                if kind is EventKind.BUY_MARKET:
                    assert ns == 0
                elif kind is EventKind.SELL_MARKET:
                    assert nb == 0
                elif kind is EventKind.BUY_LIMIT:
                    assert ev.price < ask
                else:
                    assert ev.price > bid
                expected = (nb + (kind is EventKind.BUY_LIMIT), ns + (kind is EventKind.SELL_LIMIT))
            elif kind in (EventKind.BUY_MARKET, EventKind.BUY_LIMIT):
                assert price == ask
                expected = (nb, ns - 1)
            else:
                assert price == bid
                expected = (nb - 1, ns)
            assert (b.n_buys, b.n_sells) == expected
        assert b.n_buys == sum(b.buy_counts.values())
        assert b.n_sells == sum(b.sell_counts.values())

    @given(x=st.floats(0.01, 0.99), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_resting_buy_raises_bid_iff_above(self, x, seed):
        b = book()
        for ev in random_events(None, seed, 300):
            b.apply(ev)
        old_bid, old_ask = b.bid, b.ask
        if x >= old_ask:
            return  # would execute, different claim
        b.apply(Event(EventKind.BUY_LIMIT, x))
        assert b.bid == (x if x > old_bid else old_bid)


class TestEquality:
    def test_eq_ignores_history(self):
        b1 = book(buys=[0.3])
        b2 = book()
        b2.apply(Event(EventKind.BUY_LIMIT, 0.3))
        assert b1 == b2

    def test_interval_matters(self):
        a = OrderBook(PriceInterval(0.0, 1.0), [0.3], [])
        c = OrderBook(PriceInterval(0.0, 2.0), [0.3], [])
        assert a != c
