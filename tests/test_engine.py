"""Event loop: draws, the engine against the reference model of
``oracle.py``, restriction coupling, the model's exact symmetries,
summaries, and the trajectory-level diagnostics."""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import struct
import time
import tracemalloc
from array import array
from bisect import bisect_right
from dataclasses import astuple, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lobmm import (
    DemandSupplyPair,
    Direction,
    InsufficientDataError,
    InvalidMapError,
    MonotoneCurve,
    OrderBook,
    PriceInterval,
    RateTable,
    SimConfig,
    Trajectory,
    estimate_window,
    detect_freeze,
    freeze_support,
    generator_for,
    image_book,
    quote_cdfs,
    run,
    run_ensemble,
    solve_luckock,
    v_l,
    walras,
)
from lobmm import book as book_module
from lobmm import engine
from lobmm.engine import DROPPED
from lobmm.pool import _in_order

import oracle
from conftest import make_evenodd_pair, make_floor_pair, make_kinked_pair, make_uniform_pair
from oracle import replay

PAIRS = {
    "uniform": make_uniform_pair(),
    "floor": make_floor_pair(),
    "evenodd": make_evenodd_pair(3),
}

# what a Trajectory stores of its events, its quote change points, and the
# per-event columns it derives from them and from a replay of its seed
STORED = ("_quote_at", "_quote_times", "_quote_bids", "_quote_asks")
DERIVED = ("times", "kinds", "trade_prices", "bids", "asks")


def stored_bytes(traj: Trajectory) -> int:
    """Bytes of the arrays ``traj`` stores, the derived columns not included."""
    return sum(getattr(traj, name).nbytes for name in STORED)


def counted_chunks(monkeypatch) -> list:
    """Patch ``engine._event_chunks`` to count its calls; returns the one-entry count."""
    calls = [0]
    real = engine._event_chunks

    def counted(config, rates, *most):
        calls[0] += 1
        return real(config, rates, *most)

    monkeypatch.setattr(engine, "_event_chunks", counted)
    return calls


def assert_matches_replay(traj: Trajectory):
    times, kinds, prices, bids, asks, trades, empties, book = replay(traj.config)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.kinds, kinds)
    np.testing.assert_array_equal(traj.trade_prices, prices)
    np.testing.assert_array_equal(traj.bids, bids)
    np.testing.assert_array_equal(traj.asks, asks)
    assert traj.summary.trade_count == trades
    assert traj.summary.empty_book_transitions == empties
    final = traj.final_book.snapshot()
    assert (final.buys, final.sells) == book.counts()


class TestRateTable:
    def test_uniform_no_market_orders(self, uniform_pair):
        rt = RateTable.from_pair(uniform_pair)
        assert rt.inv_total == pytest.approx(1.0 / 2.0)
        assert rt.thresholds == pytest.approx((0.0, 0.0, 0.5, 1.0))

    def test_maker_rate_share(self, uniform_pair):
        rt = RateTable.from_pair(uniform_pair, rho=0.5)
        assert rt.inv_total == pytest.approx(1.0 / 2.5)
        # the slice above the last threshold is the maker share
        assert 1.0 - rt.thresholds[3] == pytest.approx(0.2)

    def test_floor_pair_market_rates(self, floor_pair):
        rt = RateTable.from_pair(floor_pair, rho=0.3)
        assert rt.inv_total == pytest.approx(1.0 / 2.3)
        # market buys at the demand floor 0.2, no market sells, limit buys
        # 0.8, limit sells 1.0, the maker 0.3
        assert rt.thresholds == pytest.approx((0.2 / 2.3, 0.2 / 2.3, 1.0 / 2.3, 2.0 / 2.3))

    def test_kind_frequencies(self, floor_pair):
        n = 200_000
        counts = np.zeros(5, dtype=int)
        for _, kind, _ in oracle.events(SimConfig(pair=floor_pair, rho=0.3, events=n, seed=7)):
            counts[kind] += 1
        probs = np.array([0.2, 0.0, 0.8, 1.0, 0.3]) / 2.3
        for k in range(5):
            se = math.sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / n)
            assert abs(counts[k] / n - probs[k]) < max(4 * se, 1e-9), k

    def test_interarrival_moments(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=200_000, seed=3))
        gaps = np.diff(traj.times)
        assert gaps.mean() == pytest.approx(0.5, rel=0.01)
        assert gaps.var() == pytest.approx(0.25, rel=0.03)
        assert (gaps > 0).all()


class TestRestrictEvent:
    W = PriceInterval(0.4, 0.6)

    def test_buy_above_becomes_market(self):
        assert oracle.restrict(2, 0.7, self.W) == 0
        assert oracle.restrict(2, 0.6, self.W) == 0

    def test_buy_below_dropped(self):
        assert oracle.restrict(2, 0.3, self.W) == DROPPED
        assert oracle.restrict(2, 0.4, self.W) == DROPPED

    def test_sell_mirrored(self):
        assert oracle.restrict(3, 0.2, self.W) == 1
        assert oracle.restrict(3, 0.8, self.W) == DROPPED

    def test_interior_and_priceless_pass_through(self):
        assert oracle.restrict(2, 0.5, self.W) == 2
        assert oracle.restrict(3, 0.5, self.W) == 3
        for kind in (0, 1, 4):
            assert oracle.restrict(kind, math.nan, self.W) == kind


class TestRunMatchesReplay:
    def test_unrestricted(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=30_000, seed=11, rho=0.25))
        assert_matches_replay(traj)

    def test_restricted(self, uniform_pair):
        cfg = SimConfig(
            pair=uniform_pair,
            events=30_000,
            seed=12,
            rho=0.1,
            restriction=PriceInterval(0.4, 0.6),
        )
        assert_matches_replay(run(cfg))

    def test_floor_pair_with_market_orders(self, floor_pair):
        traj = run(SimConfig(pair=floor_pair, events=30_000, seed=13, rho=0.3))
        assert_matches_replay(traj)

    def test_evenodd(self, evenodd_pair):
        traj = run(SimConfig(pair=evenodd_pair, events=20_000, seed=14))
        assert_matches_replay(traj)

    def test_initial_book_respected(self, uniform_pair):
        cfg = SimConfig(
            pair=uniform_pair,
            events=5_000,
            seed=15,
            initial_buys=(0.2, 0.3),
            initial_sells=(0.9,),
        )
        assert_matches_replay(run(cfg))

    @given(
        name=st.sampled_from(sorted(PAIRS)),
        rho=st.floats(0.0, 0.8),
        volume_share=st.none() | st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
        events=st.integers(0, 3_000),
        split=st.floats(0.2, 0.8),
        buy_fracs=st.lists(st.floats(0.01, 0.99), max_size=4),
        sell_fracs=st.lists(st.floats(0.01, 0.99), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configs(
        self, name, rho, volume_share, seed, events, split, buy_fracs, sell_fracs
    ):
        # the window sits at volume_share of the way from the walrasian
        # volume up to the volume ceiling; the initial book puts buys below
        # and sells above the split point, possibly outside the window
        pair = PAIRS[name]
        iv = pair.interval
        window = None
        if volume_share is not None:
            v_w = walras(pair).volume
            v_max = min(pair.demand.value_at(iv.lo), pair.supply.value_at(iv.hi))
            v = v_w + volume_share * (v_max - v_w)
            window = PriceInterval(float(pair.demand.inverse(v)), float(pair.supply.inverse(v)))
        cut = iv.lo + split * iv.length
        cfg = SimConfig(
            pair=pair,
            rho=rho,
            events=events,
            seed=seed,
            restriction=window,
            initial_buys=tuple(iv.lo + f * (cut - iv.lo) for f in buy_fracs),
            initial_sells=tuple(cut + f * (iv.hi - cut) for f in sell_fracs),
        )
        assert_matches_replay(run(cfg))


BLOCKS = (2, 3, 7, 64)


@pytest.fixture(params=BLOCKS)
def small_block(request, monkeypatch):
    """Random blocks of a few draws, so that runs cross block refills all
    the time; run() and the oracle both read engine._BLOCK."""
    monkeypatch.setattr(engine, "_BLOCK", request.param)
    return request.param


@st.composite
def sim_configs(draw, max_events=3_000, pairs=PAIRS):
    """A run as TestRunMatchesReplay.test_random_configs draws it, with maker
    rates above the walrasian volume too: any pair of ``pairs``, maker
    rate, window (volume_share of the way from the walrasian volume to the
    ceiling) and initial book (buys below, sells above a split)."""
    pair = pairs[draw(st.sampled_from(sorted(pairs)))]
    iv = pair.interval
    window = None
    volume_share = draw(st.none() | st.floats(0.05, 0.95))
    if volume_share is not None:
        v_w = walras(pair).volume
        v_max = min(pair.demand.value_at(iv.lo), pair.supply.value_at(iv.hi))
        v = v_w + volume_share * (v_max - v_w)
        window = PriceInterval(float(pair.demand.inverse(v)), float(pair.supply.inverse(v)))
    cut = iv.lo + draw(st.floats(0.2, 0.8)) * iv.length
    buy_fracs = draw(st.lists(st.floats(0.01, 0.99), max_size=4))
    sell_fracs = draw(st.lists(st.floats(0.01, 0.99), max_size=4))
    # rho from 0 to 0.8, or 1 to 3 times the walrasian volume, where the
    # book freezes and the loop applies quiet stretches in bulk
    rho = draw(st.floats(0.0, 0.8) | st.floats(1.0, 3.0).map(lambda r: r * walras(pair).volume))
    return SimConfig(
        pair=pair,
        rho=rho,
        events=draw(st.integers(0, max_events)),
        seed=draw(st.integers(0, 2**32 - 1)),
        restriction=window,
        initial_buys=tuple(iv.lo + f * (cut - iv.lo) for f in buy_fracs),
        initial_sells=tuple(cut + f * (iv.hi - cut) for f in sell_fracs),
    )


def boundary_events(config: SimConfig):
    """Events of ``config`` that sit on a block edge, counted on the
    oracle's stream: (limit kind draws that are the last uniform of a
    block, events on which both the exponential and the uniform block
    refill).  Event i comes after i exponentials and ``used`` uniforms."""
    block = engine._BLOCK
    last_uniform = both = used = 0
    for i, (_, kind, _) in enumerate(oracle.events(config)):
        limit = kind in (2, 3)
        exp_refill = i > 0 and i % block == 0
        uni_refill = used > 0 and used % block == 0
        last = used % block == block - 1
        last_uniform += limit and last
        both += exp_refill and (uni_refill or (limit and last))
        used += 1 + limit
    return last_uniform, both


class LoggedGenerator:
    """A generator that logs each block draw as (method, size)."""

    def __init__(self, generator, log):
        self._generator = generator
        self._log = log

    def standard_exponential(self, size):
        self._log.append(("standard_exponential", size))
        return self._generator.standard_exponential(size)

    def random(self, size):
        self._log.append(("random", size))
        return self._generator.random(size)


class TestBlockBoundaries:
    """The pre-pass of run() against the oracle across block refills."""

    @staticmethod
    def configs(events):
        uniform, floor = PAIRS["uniform"], PAIRS["floor"]
        window = PriceInterval(0.4, 0.6)
        return [
            SimConfig(pair=uniform, events=events, seed=81, rho=0.25),
            SimConfig(pair=uniform, events=events, seed=82, rho=0.1, restriction=window),
            SimConfig(pair=floor, events=events, seed=83, rho=0.3),
            SimConfig(pair=PAIRS["evenodd"], events=events, seed=84),
            SimConfig(pair=uniform, events=events, seed=85, initial_buys=(0.2, 0.3), initial_sells=(0.9,)),
        ]

    def test_matches_replay(self, small_block):
        for cfg in self.configs(2_000):
            assert_matches_replay(run(cfg))

    @given(cfg=sim_configs())
    @settings(
        max_examples=25,
        deadline=None,
        # the patched block size is meant to hold for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_configs(self, small_block, cfg):
        assert_matches_replay(run(cfg))

    def test_same_block_draws_as_replay(self, small_block, monkeypatch):
        """run() draws the oracle's blocks in the oracle's order; where a
        post-burn-in side empties, the summary replays inside run(), which
        then draws the sequence exactly twice.  The first read of a whole
        column replays them once more, even after the summary replayed,
        and no later read of any of the five draws again."""
        log = []
        real = generator_for

        def logged(seed, replica=0):
            return LoggedGenerator(real(seed, replica), log)

        monkeypatch.setattr(engine, "generator_for", logged)
        monkeypatch.setattr(oracle, "generator_for", logged)
        last_uniform = both = 0
        replayed_in_run = [0, 0]
        for events in (0, 1, small_block, 2 * small_block + 1, 1_000):
            for cfg in self.configs(events):
                log.clear()
                replay(cfg)
                draws = list(log)
                log.clear()
                traj = run(cfg)
                in_run = list(log)
                log.clear()
                k0, iv = traj.burn_index, cfg.pair.interval
                empties = bool(((traj.bids[k0:] == iv.lo) | (traj.asks[k0:] == iv.hi)).any())
                assert in_run == draws * (1 + empties)
                assert log == draws
                replayed_in_run[empties] += 1
                log.clear()
                for name in DERIVED:
                    getattr(traj, name)
                assert log == []
                a, b = boundary_events(cfg)
                last_uniform += a
                both += b
        # the cases do reach both block-edge events the pre-pass must order,
        # and runs whose summary replays and runs whose summary does not
        assert last_uniform >= 1 and both >= 1
        assert min(replayed_in_run) >= 1

    def test_snapshots_and_durations_at_block_edges(self, small_block):
        edges = sorted({k * small_block + d for k in (1, 2, 5) for d in (-1, 0, 1)})
        for cfg in self.configs(6 * small_block):
            times = replay(cfg)[0]
            traj = run(replace(cfg, snapshot_at=edges))
            for s in edges:
                snap = traj.snapshots[s]
                assert (snap.buys, snap.sells) == replay(replace(cfg, events=s))[-1].counts()
            # horizons on the time of an edge event, and one ulp past it
            for s in edges:
                for duration in (times[s - 1], math.nextafter(times[s - 1], math.inf)):
                    short = run(replace(cfg, events=None, duration=duration))
                    n = int(np.searchsorted(times, duration, side="right"))
                    ref = run(replace(cfg, events=n))
                    assert short.n_events == n and short.end_time == duration
                    for name in ("times", "kinds", "trade_prices", "bids", "asks"):
                        np.testing.assert_array_equal(getattr(short, name), getattr(ref, name))
                    assert short.final_book.snapshot() == ref.final_book.snapshot()


class CraftedGenerator:
    """A generator whose uniform stream opens with crafted draws; the rest
    of each uniform block, and every exponential, comes from ``generator``."""

    def __init__(self, generator, uniforms):
        self._generator = generator
        self._uniforms = list(uniforms)

    def standard_exponential(self, size):
        return self._generator.standard_exponential(size)

    def random(self, size):
        block = self._generator.random(size)
        head, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        block[: len(head)] = head
        return block


def pair_on(lo, hi, mass=1.0):
    """The uniform pair moved to [lo, hi], each curve of increment mass ``mass``."""
    return DemandSupplyPair(
        MonotoneCurve((lo, hi), (mass, 0.0), Direction.DECREASING),
        MonotoneCurve((lo, hi), (0.0, mass), Direction.INCREASING),
    )


class TestDrawKernels:
    """The pre-pass's kind and limit-price kernels on crafted uniforms,
    against the oracle's decoding one draw at a time: kind draws exactly
    on each threshold, tied ones included, and price draws that land at or
    beyond either end of the interval."""

    RHO = 0.5

    @staticmethod
    def decoded(monkeypatch, config, draws):
        """The pre-pass's kinds and prices for events whose (kind draw,
        price draw) are ``draws``, each checked against the oracle; the
        run of them is checked against the replay."""
        thresholds = RateTable.from_pair(config.pair, config.rho).thresholds
        uniforms = []
        for kind_draw, price_draw in draws:
            uniforms.append(kind_draw)
            if bisect_right(thresholds, kind_draw) in (2, 3):
                uniforms.append(price_draw)
        real = generator_for

        def crafted(seed, replica=0):
            return CraftedGenerator(real(seed, replica), uniforms)

        monkeypatch.setattr(engine, "generator_for", crafted)
        monkeypatch.setattr(oracle, "generator_for", crafted)
        config = replace(config, events=len(draws))
        rates = RateTable.from_pair(config.pair, config.rho)
        _, kinds, prices = (np.concatenate(c) for c in zip(*engine._event_chunks(config, rates)))
        ref = list(oracle.events(config))
        assert kinds.tolist() == [kind for _, kind, _ in ref]
        np.testing.assert_array_equal(prices, [price for *_, price in ref])
        assert_matches_replay(run(config))
        return kinds, prices

    @pytest.mark.parametrize("name", ["uniform", "floor", "kinked"])
    def test_kind_draws_on_each_threshold(self, monkeypatch, name):
        # the uniform pair ties its first two thresholds at 0, the floor
        # pair at 0.08; the kinked pair's four are distinct
        pair = make_kinked_pair(4) if name == "kinked" else PAIRS[name]
        thresholds = RateTable.from_pair(pair, self.RHO).thresholds
        kind_draws = [u for t in thresholds for u in (t, math.nextafter(t, -1.0)) if u >= 0.0]
        config = SimConfig(pair=pair, rho=self.RHO, events=0, seed=6)
        kinds, _ = self.decoded(monkeypatch, config, [(u, 0.5) for u in kind_draws])
        assert kinds.tolist() == [bisect_right(thresholds, u) for u in kind_draws]
        # a draw on a threshold takes the kind above it, on the tie the kind
        # above both: limit buy, limit sell, market maker
        on = {t: bisect_right(thresholds, t) for t in thresholds}
        assert [on[t] for t in thresholds[1:]] == [2, 3, 4]

    @pytest.mark.parametrize(
        "lo, hi, mass, price_draws, ends",
        [
            # a target of 0 is the low end; 1 + 2**-53 rounds to 1.0, and
            # 1 + (1 - 2**-53) to 2.0, the high end
            (1.0, 2.0, 1.0, (0.0, 2.0**-53, 1.0 - 2.0**-53), ("lo", "lo", "hi")),
            # price per unit mass 1e9 / 1e-300 overflows to inf: every
            # positive target lies beyond the high end, and a target of 0
            # (0 * inf) still prices at the low end
            (0.0, 1e9, 1e-300, (0.0, 0.5, 1.0 - 2.0**-53), ("lo", "hi", "hi")),
        ],
        ids=["rounding-onto-the-ends", "beyond-the-high-end"],
    )
    def test_price_draws_at_and_beyond_the_ends(self, monkeypatch, lo, hi, mass, price_draws, ends):
        pair = pair_on(lo, hi, mass)
        t = RateTable.from_pair(pair, self.RHO).thresholds
        buy, sell = 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[3])
        draws = [(kind_draw, u) for kind_draw in (buy, sell) for u in price_draws]
        config = SimConfig(pair=pair, rho=self.RHO, events=0, seed=7)
        kinds, prices = self.decoded(monkeypatch, config, draws)
        assert kinds.tolist() == [2] * len(ends) + [3] * len(ends)
        inside = {"lo": math.nextafter(lo, hi), "hi": math.nextafter(hi, lo)}
        assert prices.tolist() == [inside[end] for end in ends] * 2

    def test_an_interval_without_an_inner_float_is_refused(self):
        # limit orders rest strictly inside the interval; two ulps wide, it
        # holds one float, onto which both ends clamp
        one_ulp = pair_on(1.0, math.nextafter(1.0, 2.0))
        with pytest.raises(ValueError, match="strictly inside"):
            SimConfig(pair=one_ulp, events=10)
        two_ulp = pair_on(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0))
        traj = run(SimConfig(pair=two_ulp, rho=self.RHO, events=2_000, seed=8))
        assert_matches_replay(traj)
        assert traj.summary.trade_count > 0


class TestDurationColumns:
    """A duration horizon's run, whose event count the pre-pass finds only
    as it goes, grows its change point columns a chunk at a time and ends
    as the events run of the same count: the change points it stores,
    every column it derives, the snapshots and the final book."""

    # a snapshot every ``cut`` events cuts the pre-pass into chunks of at
    # most ``cut`` events, so the columns grow in that many parts or more
    @pytest.mark.parametrize("cut", [1, 3, 64])
    def test_growing_columns_equal_the_events_run(self, small_block, cut, monkeypatch):
        parts = []
        real = engine._chunk_record

        def logged(kinds, *args):
            parts.append(len(kinds))
            return real(kinds, *args)

        monkeypatch.setattr(engine, "_chunk_record", logged)
        snap_at = tuple(range(0, 10_000, cut))
        for cfg in TestBlockBoundaries.configs(0):
            parts.clear()
            short = run(replace(cfg, events=None, duration=150.0, snapshot_at=snap_at))
            n = short.n_events
            assert 2 * small_block < n < 10_000
            # one part per chunk, each of at most min(cut, block) events
            assert len(parts) >= -(-n // min(cut, small_block)) >= 4
            assert max(parts) <= min(cut, small_block)
            ref = run(replace(cfg, events=n, snapshot_at=snap_at))
            for name in STORED + DERIVED:
                column = getattr(short, name)
                assert column.tobytes() == getattr(ref, name).tobytes(), name
            for name in DERIVED:
                assert len(getattr(short, name)) == n
            assert short.snapshots == ref.snapshots
            assert short.final_book.snapshot() == ref.final_book.snapshot()


# (look-ahead window, shortest bulk stretch)
LOOKS = ((1, 1), (2, 1), (3, 2), (16, 4))
DEFAULT_LOOK = (engine._LOOK, engine._MIN_STRETCH)


def set_look(monkeypatch, look, min_stretch):
    monkeypatch.setattr(engine, "_LOOK", look)
    monkeypatch.setattr(engine, "_MIN_STRETCH", min_stretch)


@pytest.fixture(params=LOOKS, ids=lambda p: "look%d-min%d" % p)
def small_look(request, monkeypatch):
    """A look-ahead window and a shortest bulk stretch of a few events, so
    that the book loop switches between stretches and single events all
    the time, and the cold tiers fill with a few orders at a time and
    flush into the hot ones often."""
    set_look(monkeypatch, *request.param)
    return request.param


def quote_moves(config: SimConfig):
    """Indices of the events after which a quote differs, in the oracle."""
    _, _, _, bids, asks, *_ = replay(config)
    start = oracle.Book(config.pair.interval, config.initial_buys, config.initial_sells)
    b = np.concatenate(([start.bid], bids))
    a = np.concatenate(([start.ask], asks))
    return np.flatnonzero((b[1:] != b[:-1]) | (a[1:] != a[:-1])) + 1


def crafted_chunks(events):
    """A stand-in for ``engine._event_chunks`` that yields crafted ``(kind,
    price)`` events, cut into chunks at the config's snapshot indices and
    into chunks of at most ``most`` events as the pre-pass cuts them."""
    kinds, prices = zip(*events)
    kinds, prices = np.array(kinds, dtype=np.uint8), np.array(prices)
    times = np.arange(1.0, len(kinds) + 1.0)

    def chunks(config, rates, most=math.inf):
        start = 0
        for stop in [k for k in config.snapshot_at if 0 < k < len(kinds)] + [len(kinds)]:
            while start < stop:
                end = min(stop, start + most)
                yield times[start:end], kinds[start:end], prices[start:end]
                start = end

    return chunks


def assert_tiers_hold(book: OrderBook):
    """The two-tier invariants of ``book``: the nearest cold price is kept
    exactly, every cold price lies strictly behind its quote, and a side
    with an empty hot heap has no cold orders."""
    for cold, heap, nearest, behind, far in (
        (book._buy_cold, book._buy_heap, book._cold_bid, lambda x: x < book.bid, -math.inf),
        (book._sell_cold, book._sell_heap, book._cold_ask, lambda x: x > book.ask, math.inf),
    ):
        if not cold:
            assert nearest == far
            continue
        prices = np.concatenate(cold)
        assert nearest == (prices.max() if far < 0 else prices.min())
        assert heap and behind(nearest)


def assert_matches_crafted(traj: Trajectory, events):
    """``traj``, a run over crafted events, against the oracle's book on them."""
    config = traj.config
    book = oracle.Book(config.pair.interval, config.initial_buys, config.initial_sells)
    tps, bids, asks, snapshots = [], [], [], {}
    for i, (kind, x) in enumerate(events, 1):
        traded = book.apply(kind, x)
        tps.append(math.nan if traded is None else traded)
        bids.append(book.bid)
        asks.append(book.ask)
        if i in config.snapshot_at:
            snapshots[i] = book.counts()
    np.testing.assert_array_equal(traj.trade_prices, tps)
    np.testing.assert_array_equal(traj.bids, bids)
    np.testing.assert_array_equal(traj.asks, asks)
    assert (traj.final_book.n_buys, traj.final_book.n_sells) == (book.n_buys, book.n_sells)
    final = traj.final_book.snapshot()
    assert (final.buys, final.sells) == book.counts()
    assert {i: (snap.buys, snap.sells) for i, snap in traj.snapshots.items()} == snapshots


class TestQuietStretches:
    """run()'s bulk path for quiet stretches and the book's cold tiers
    against the oracle, with the look-ahead constants, which are no
    part of the bytes, at tiny values."""

    @staticmethod
    def configs(events):
        uniform, floor = PAIRS["uniform"], PAIRS["floor"]
        return [
            SimConfig(pair=uniform, events=events, seed=91, rho=0.6),
            SimConfig(pair=uniform, events=events, seed=92, rho=1.5),
            SimConfig(pair=uniform, events=events, seed=93, restriction=PriceInterval(0.4, 0.6)),
            SimConfig(pair=floor, events=events, seed=94, rho=0.6),
            SimConfig(pair=uniform, events=events, seed=95, rho=0.6, initial_buys=(0.2, 0.3, 0.3)),
            SimConfig(pair=uniform, events=events, seed=96, rho=0.6, initial_sells=(0.7, 0.9)),
        ]

    def test_matches_replay(self, small_look, monkeypatch):
        bulk = [0]
        real = engine._quiet_stretch

        def counted(*args):
            q = real(*args)
            bulk[0] += q
            return q

        monkeypatch.setattr(engine, "_quiet_stretch", counted)
        for cfg in self.configs(2_000):
            before = bulk[0]
            assert_matches_replay(run(cfg))
            assert bulk[0] > before  # the bulk path did run

    @given(cfg=sim_configs())
    @settings(
        max_examples=25,
        deadline=None,
        # the patched constants are meant to hold for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_configs(self, small_look, cfg):
        assert_matches_replay(run(cfg))

    def test_snapshots_and_durations_at_stretch_edges(self, small_look):
        for cfg in self.configs(600):
            times = replay(cfg)[0]
            moves = quote_moves(cfg)
            picked = moves[:: max(1, len(moves) // 8)]
            edges = sorted({k + d for k in picked for d in (-1, 0, 1)} & set(range(1, cfg.events + 1)))
            traj = run(replace(cfg, snapshot_at=edges))
            for s in edges:
                snap = traj.snapshots[s]
                assert (snap.buys, snap.sells) == replay(replace(cfg, events=s))[-1].counts()
            # horizons on the time of an edge event, and one ulp past it
            for s in edges:
                for duration in (times[s - 1], math.nextafter(times[s - 1], math.inf)):
                    short = run(replace(cfg, events=None, duration=duration))
                    n = int(np.searchsorted(times, duration, side="right"))
                    ref = run(replace(cfg, events=n))
                    assert short.n_events == n and short.end_time == duration
                    for name in ("times", "kinds", "trade_prices", "bids", "asks"):
                        np.testing.assert_array_equal(getattr(short, name), getattr(ref, name))
                    assert short.final_book.snapshot() == ref.final_book.snapshot()

    def test_same_bytes_as_the_plain_loop(self, monkeypatch):
        """Crafted events that rest at one price twice inside a stretch, at a
        level that already rests, and exactly at the quotes: the bulk path
        leaves what the bytes depend on (trade prices, quotes, the resting
        orders, the order totals and the snapshots) as the loop does, and
        the loop gives what the oracle gives."""
        events = [(2, 0.3), (3, 0.7)]  # the quotes
        # behind the quotes: new levels, a price twice, resting levels
        events += [(2, 0.2), (3, 0.8), (2, 0.1), (2, 0.1), (2, 0.2), (3, 0.9), (3, 0.9), (3, 0.8)]
        events += [(2, 0.3), (3, 0.7)] * 2  # at the quotes
        events += [(3, 0.3), (2, 0.7), (3, 0.25), (2, 0.75)]  # crossing, at and past the quotes
        events += [(4, math.nan), (0, math.nan), (1, math.nan), (DROPPED, 0.5)] * 3
        events += [(3, 0.3), (2, 0.7)] * 3  # until a quote level empties
        events += [(2, 0.05 + k / 1e3) for k in range(40)] + [(3, 0.95 - k / 1e3) for k in range(40)]
        monkeypatch.setattr(engine, "_event_chunks", crafted_chunks(events))
        cfg = SimConfig(pair=PAIRS["floor"], events=len(events), initial_buys=(0.1,), snapshot_at=(30, 60))
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_quiet_stretch", lambda *args: 0)  # all through the loop
            plain = run(cfg)
        assert_matches_crafted(plain, events)
        ref = plain.final_book
        for params in LOOKS + (DEFAULT_LOOK,):
            set_look(monkeypatch, *params)
            bulk = run(cfg)
            for name in ("trade_prices", "bids", "asks"):
                np.testing.assert_array_equal(getattr(bulk, name), getattr(plain, name))
            book = bulk.final_book
            assert (book.n_buys, book.n_sells) == (ref.n_buys, ref.n_sells)
            assert sorted(book.buy_counts.items()) == sorted(ref.buy_counts.items())
            assert sorted(book.sell_counts.items()) == sorted(ref.sell_counts.items())
            assert bulk.snapshots == plain.snapshots

    # Buys that rest behind the bid, some at a hot level behind it, then
    # sells that empty the bid level, the level the cold buys met, and the
    # whole buy side; each event is followed by its mirror image, so the
    # sell side goes through the same.
    COLD_EVENTS = [
        (2, 0.2), (2, 0.3),  # the bid, over a hot level at 0.2
        (2, 0.2), (2, 0.1), (2, 0.1), (2, 0.15), (4, math.nan),  # cold behind the bid
        (3, 0.3), (3, 0.3),  # the bid level empties: 0.2 is the quote, hot and cold
        (1, math.nan), (3, 0.2),  # ... and empties
        (1, math.nan), (3, 0.1), (1, math.nan),  # until the whole side has
        (2, 0.4), (2, 0.35), (2, 0.3), (2, 0.3),  # and rests again
        (3, 0.4), (1, math.nan), (1, math.nan),
    ]
    MIRROR = {0: 1, 1: 0, 2: 3, 3: 2, 4: 4}

    @pytest.mark.parametrize(
        "setup, reaches",
        [
            ({}, ("onto the new quote", "into an empty hot tier")),
            ({"snapshot_at": (9, 14)}, ("settles",)),
            ({"initial_buys": (0.25,)}, ("onto the new quote", "into an empty hot tier")),
        ],
        ids=["flushes", "snapshots", "initial-book"],
    )
    def test_cold_tier_matches_the_slow_path(self, setup, reaches, monkeypatch):
        """Crafted streams through the cold tiers, at every look-ahead,
        against the oracle on the same events: a cold price
        equal to a hot level behind the quote that becomes the quote, a hot
        side that empties while its cold tier holds orders, snapshots while
        it does, and an initial book."""
        events = []
        for kind, x in self.COLD_EVENTS:
            events += [(kind, x), (self.MIRROR[kind], 1.0 - x)]
        monkeypatch.setattr(engine, "_event_chunks", crafted_chunks(events))
        reached = dict.fromkeys(("onto the new quote", "into an empty hot tier", "settles"), 0)
        real_absorb, real_settle = book_module._absorb, OrderBook._settle

        def absorb(counts, heap, cold, negate):
            if cold and heap:
                top = -heap[0] if negate else heap[0]
                reached["onto the new quote"] += top in np.concatenate(cold).tolist()
            elif cold:
                reached["into an empty hot tier"] += 1
            real_absorb(counts, heap, cold, negate)

        def settle(book):
            reached["settles"] += 1
            real_settle(book)

        def checked(step):
            def call(book, *args):
                result = step(book, *args)
                assert_tiers_hold(book)
                return result

            return call

        cfg = SimConfig(pair=PAIRS["uniform"], events=len(events), **setup)
        for params in LOOKS + (DEFAULT_LOOK,):
            set_look(monkeypatch, *params)
            with monkeypatch.context() as patch:
                patch.setattr(book_module, "_absorb", absorb)
                patch.setattr(OrderBook, "_settle", settle)
                for name in ("_quiet_stretch", "_book_loop"):
                    patch.setattr(engine, name, checked(getattr(engine, name)))
                traj = run(cfg)
            assert_matches_crafted(traj, events)
        for what in reaches:
            assert reached[what], what

    def test_frozen_runs_skip_the_loop(self, uniform_pair, monkeypatch):
        # at rho 0.6 the book freezes and few events move a quote; a count,
        # not a timing (2.9% of the events on this seed)
        looped = [0]
        real = engine._book_loop

        def counted(book, bid, ask, kinds, *args):
            looped[0] += len(kinds)
            return real(book, bid, ask, kinds, *args)

        monkeypatch.setattr(engine, "_book_loop", counted)
        events = 200_000
        run(SimConfig(pair=uniform_pair, events=events, seed=1, rho=0.6))
        assert 0 < looped[0] <= 0.1 * events


    def test_frozen_runs_keep_deep_levels_cold(self, uniform_pair, monkeypatch):
        # at rho 0.6 almost every resting order stays behind the quotes for
        # good: the hot tiers hold few of the levels, and the settled book
        # holds as many as the loop's; counts, not timings
        cfg = SimConfig(pair=uniform_pair, events=200_000, seed=1, rho=0.6)
        book = run(cfg).final_book
        hot = len(book._buy_counts) + len(book._sell_counts)
        levels = len(book.buy_counts) + len(book.sell_counts)
        monkeypatch.setattr(engine, "_quiet_stretch", lambda *args: 0)  # all through the loop
        plain = run(cfg).final_book
        assert levels == len(plain.buy_counts) + len(plain.sell_counts)
        assert 0 < hot <= 0.05 * levels


class TestDroppedOrders:
    """The book stage never sees a dropped order; its row repeats the
    quotes before it, with trade price NaN."""

    # dropped orders before any other event, between quote moves and in a
    # row, around limit orders inside the spread that keep the stream busy
    EVENTS = [(DROPPED, 0.1), (2, 0.45), (DROPPED, 0.9), (3, 0.55), (DROPPED, 0.2)]
    EVENTS += [(2, 0.5), (DROPPED, 0.3), (DROPPED, 0.6), (3, 0.52), (0, math.nan)]
    EVENTS += [(DROPPED, 0.7), (1, math.nan), (4, math.nan), (DROPPED, 0.8), (1, math.nan)]
    EVENTS += [(1, math.nan), (DROPPED, 0.1), (DROPPED, 0.9), (0, math.nan), (0, math.nan)]
    STREAMS = {
        "crafted": EVENTS,
        "all-dropped": [(DROPPED, 0.2)] * 3,
        "none-dropped": [(2, 0.45), (3, 0.55), (0, math.nan), (1, math.nan)],
    }

    @pytest.mark.parametrize("events", [pytest.param(v, id=k) for k, v in STREAMS.items()])
    def test_busy_run_equals_the_loop_over_every_event(self, events):
        # the loop applies a dropped order as a no-op, so stepping every
        # event is the reference for a busy run that leaves them out of the
        # book stage, with its record mapped back to positions in the
        # chunk; the book starts with quotes of its own
        kinds = np.array([k for k, _ in events], dtype=np.uint8)
        prices = np.array([x for _, x in events])
        results = []
        for kept in (np.arange(len(kinds)), np.flatnonzero(kinds != DROPPED)):
            book = OrderBook(PAIRS["uniform"].interval, (0.3, 0.4), (0.6, 0.7))
            quotes = (array("d", [book.bid]), array("d", [book.ask]))
            last = engine._book_loop(book, book.bid, book.ask, kinds[kept], prices[kept], quotes)
            stepped = np.ones(len(kept), dtype=bool)
            traded, moved, *moved_quotes = engine._chunk_record(
                kinds[kept], prices[kept], stepped, quotes, book.interval
            )
            full = np.zeros(len(kinds), dtype=bool)
            full[kept[traded]] = True
            record = [full, kept[moved]] + moved_quotes
            results.append((last, [col.tobytes() for col in record], book.snapshot()))
        assert results[0] == results[1]

    def test_runs_match_the_slow_path(self, monkeypatch):
        """Each stream from an initial book, at every look-ahead, against
        the oracle; no dropped order reaches the loop or a quiet stretch."""
        seen = []

        def counted(step):
            def call(book, bid, ask, kinds, *args):
                seen.append(int((kinds == DROPPED).sum()))
                return step(book, bid, ask, kinds, *args)

            return call

        for name in ("_book_loop", "_quiet_stretch"):
            monkeypatch.setattr(engine, name, counted(getattr(engine, name)))
        for events in self.STREAMS.values():
            monkeypatch.setattr(engine, "_event_chunks", crafted_chunks(events))
            cfg = SimConfig(
                pair=PAIRS["uniform"],
                events=len(events),
                initial_buys=(0.3,),
                initial_sells=(0.7,),
            )
            for params in LOOKS + (DEFAULT_LOOK,):
                set_look(monkeypatch, *params)
                assert_matches_crafted(run(cfg), events)
        assert seen and sum(seen) == 0


def traced(fn, *args):
    """``fn(*args)`` and the peak memory that tracemalloc traced in the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPrepassMemory:
    # peak traced memory of run() beyond the arrays its Trajectory stores,
    # with the post-run reduction stubbed out; measured 5.4 MB at 2**17 and
    # 5.3 MB at 2**19 events, and 4.6 MB and 5.3 MB to the duration
    # horizons (CPython 3.11, numpy 2.4), with no per-event array stored;
    # 5.6 MB and 4.9 MB beyond the stored times and kinds when a run kept
    # them, and 6.2 MB and 6.3 MB when the columns were copied chunk by
    # chunk into growing arrays.  The bound keeps its 25% headroom over
    # those older figures.  A pre-pass over the whole horizon at once needs
    # tens of MB more at 2**19.
    OVERHEAD = 8_000_000

    @pytest.mark.parametrize("events", [1 << 17, 1 << 19])
    def test_peak_does_not_grow_with_events(self, uniform_pair, events, monkeypatch):
        monkeypatch.setattr(engine, "_summarize", lambda traj: None)
        # volume 0.6 on the uniform pair: the book stays small
        window = PriceInterval(0.4, 0.6)
        cfg = SimConfig(pair=uniform_pair, events=events, seed=3, restriction=window)
        traj, peak = traced(run, cfg)
        assert peak - stored_bytes(traj) < self.OVERHEAD

    @pytest.mark.parametrize("events", [1 << 17, 1 << 19])
    def test_peak_does_not_grow_with_duration(self, uniform_pair, events, monkeypatch):
        # the same runs to a duration horizon (total rate 2), over many
        # chunks of the pre-pass
        monkeypatch.setattr(engine, "_summarize", lambda traj: None)
        window = PriceInterval(0.4, 0.6)
        cfg = SimConfig(pair=uniform_pair, duration=events / 2, seed=3, restriction=window)
        traj, peak = traced(run, cfg)
        assert traj.n_events > engine._BLOCK
        assert peak - stored_bytes(traj) < self.OVERHEAD

    def test_book_stages_take_whole_blocks(self, uniform_pair, monkeypatch):
        # only the replays of a stored run are cut to _REPLAY_EVENTS: a book
        # stage pays per chunk, and cutting the run's own pre-pass as well
        # took six two-book freeze replicas of 1e6 events from 0.94 s to
        # 1.10 s (min of 3 in-process, 2 vCPUs)
        sizes = []
        real = engine._BookStage.step

        def step(stage, n, times, *rest):
            sizes.append(len(times))
            return real(stage, n, times, *rest)

        monkeypatch.setattr(engine._BookStage, "step", step)
        cfg = SimConfig(pair=uniform_pair, events=1 << 17, seed=3, restriction=PriceInterval(0.4, 0.6))
        run(cfg)
        whole = [len(chunk[0]) for chunk in engine._event_chunks(cfg, RateTable.from_pair(uniform_pair))]
        assert sizes == whole and max(whole) > engine._REPLAY_EVENTS

    @pytest.mark.parametrize("name", ["uniform-restricted", "kinked"])
    def test_suspended_frame_keeps_only_its_chunk(self, name):
        # every book stage and every replay reader runs while the pre-pass
        # waits at its yield; its frame may keep the chunk it yielded and
        # the two random blocks, and no other array longer than the curves'
        # knot tables (1.8-2.3 MB of decode temporaries rode along before)
        def arrays(value, label):
            if isinstance(value, np.ndarray):
                yield label, value
            elif isinstance(value, (tuple, list)):
                for i, v in enumerate(value):
                    yield from arrays(v, f"{label}[{i}]")

        if name == "kinked":
            pair, window = make_kinked_pair(32), None
        else:
            pair, window = make_uniform_pair(), PriceInterval(0.4, 0.6)
        cfg = SimConfig(pair=pair, events=1 << 18, seed=1, restriction=window)
        chunks = engine._event_chunks(cfg, RateTable.from_pair(pair))
        for chunk in chunks:
            held = chunks.gi_frame.f_locals
            keep = (*chunk, held["exps"], held["unis"])
            for local, value in held.items():
                for label, a in arrays(value, local):
                    assert a.size <= 64 or any(np.shares_memory(a, b) for b in keep), label


class TestSummaryMemory:
    # peak traced memory of run() with its summary beyond the arrays its
    # Trajectory stores, on a run that freezes; measured 5.9 MB at 2**17 and
    # 7.7 MB at 2**19 events (CPython 3.11, numpy 2.4), as when the run
    # stored its times and kinds (6.5 MB and 8.3 MB before the columns were
    # preallocated), and the bound keeps its 25% headroom over the older
    # figures.  Most of it is the book, whose resting orders grow with the
    # events.  A freeze scan over whole-run arrays needs about 30 MB at 2**19.
    OVERHEAD = 10_400_000

    @pytest.mark.parametrize("events", [1 << 17, 1 << 19])
    def test_freeze_scan_stays_small(self, uniform_pair, events):
        cfg = SimConfig(pair=uniform_pair, events=events, seed=3, rho=0.6)
        traj, peak = traced(run, cfg)
        assert traj.summary.frozen
        assert peak - stored_bytes(traj) < self.OVERHEAD

    def test_frozen_replica_stays_compact(self, uniform_pair, monkeypatch):
        # a replica of the freeze model, 1e6 events at rho 0.6: it stores
        # some 200 quote change points of 32 B, 0.0064 B per event, besides
        # its final book (9.13 B when it kept the times, kinds and trade
        # bits, and 33 B in five per-event columns before that).  Its traced
        # peak, the summary included, was 10.3 B per event (18.7 B and 45.8 B
        # before), and the bound keeps 25% headroom over it.  It runs the
        # pre-pass once: its summary does not replay.
        calls = counted_chunks(monkeypatch)
        traj, peak = traced(run, SimConfig(pair=uniform_pair, events=10**6, seed=3, rho=0.6))
        assert traj.summary.frozen
        assert stored_bytes(traj) < 0.1 * traj.n_events
        assert peak <= 12.8 * traj.n_events
        assert calls[0] == 1
        assert not set(DERIVED) & set(vars(traj))

    # peak traced memory of a frozen run with its summary beyond its final
    # book.  The book's bytes are what tracemalloc still traces once the
    # run's Trajectory is deleted and only its final book is kept (its hot
    # tiers and the cold tiers' arrays, ~3.2-3.8 B per event here, with
    # whatever the first run in a process leaves cached).  Measured 4.8-5.8
    # MB at 2**17 and at 2**20 events on seeds 3-5 (CPython 3.11, numpy
    # 2.4), and the bound keeps 25% headroom over it.  It does not grow with
    # the events: a run that stored its times and kinds rose from 6.0-6.9 MB
    # at 2**17 to 14.4-15.3 MB at 2**20.
    BEYOND_BOOK = 7_200_000

    @pytest.mark.parametrize("events", [1 << 17, 1 << 20])
    def test_peak_beyond_the_book_does_not_grow(self, uniform_pair, events):
        tracemalloc.start()
        try:
            traj = run(SimConfig(pair=uniform_pair, events=events, seed=4, rho=0.6))
            peak = tracemalloc.get_traced_memory()[1]
            frozen, book = traj.summary.frozen, traj.final_book
            del traj
            book_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert frozen and book.n_buys + book.n_sells > events // 4
        assert peak - book_bytes < self.BEYOND_BOOK

    def test_window_scan_copies_no_quotes(self, uniform_pair):
        # the window extremes come from the runs of equal post-burn-in
        # quotes, a few hundred on this frozen run; a boolean mask of the
        # post-burn-in quotes of every event took 0.26 MB here, and copying
        # the resting quotes, as a mask-and-index would, 4.5 MB
        traj = run(SimConfig(pair=uniform_pair, events=1 << 19, seed=1, rho=0.6))
        assert traj.summary.frozen
        we, peak = traced(estimate_window, traj)
        assert (we.lo, we.hi) == (traj.summary.window_lo, traj.summary.window_hi)
        assert peak < 2 * (traj.n_events - traj.burn_index)

    # growth of the summary's traced peak per post-burn-in event, from 2**16
    # to 2**18 events, on a restricted run whose bid sits at the interval
    # edge about 65% of the time after the burn-in: 11.7 B with the
    # occupation weights filled in chunk by chunk (the weights, the repeated
    # masks and their selections, and the post-burn-in runs of equal quotes),
    # and 25.3-25.4 B when they came from a joined array of the post-burn-in
    # times and the run starts of every state were kept beside them (seeds
    # 1-3, CPython 3.11, numpy 2.4).  The bound lies between.
    WEIGHT_GROWTH = 18

    def test_empty_side_weights_join_no_times(self, uniform_pair):
        peaks, tails = [], []
        for events in (1 << 16, 1 << 18):
            traj = run(SimConfig(pair=uniform_pair, events=events, seed=1, restriction=PriceInterval(0.4, 0.6)))
            summary, peak = traced(engine._summarize, traj)
            assert summary == traj.summary and summary.empty_buy_prob > 0.5
            peaks.append(peak)
            tails.append(events - traj.burn_index)
        assert peaks[1] - peaks[0] < self.WEIGHT_GROWTH * (tails[1] - tails[0])


def time_beyond(args):
    """The post-burn-in shares of time with the bid at or below ``lo`` and
    with the ask at or above ``hi`` in one run, read through its replay."""
    config, lo, hi = args
    traj = run(config)
    bids, asks = traj._quotes(traj.burn_index, traj.n_events)
    w = engine._occupation_weights(traj, traj.burn_index)
    return w[bids <= lo].sum() / w.sum(), w[asks >= hi].sum() / w.sum()


class TestWindowAtMakerRate:
    """The paper's claim at a positive maker rate, against the simulator:
    in the unrestricted model, the bid sits at or below the window's lower
    end J_lo for the quote law's edge mass f_minus(J_lo) of the time, and
    the ask at or above J_hi for f_plus(J_hi).  Covered: rho 0.1 and 0.3
    on the uniform pair (V_W 0.5) and the 32-segment kinked pair (V_W
    ~0.436); nearer V_W the quotes mix too slowly for runs this short.
    The tolerance is four standard errors of the replicas' mean.  On
    seeds 5-9 with 8 replicas, every mean lay within 2.1 standard errors
    of the edge mass; runs of half the length lay up to 2.6 away on the
    kinked pair at rho 0.3, where their burn-in is too short."""

    REPLICAS = 6

    @pytest.mark.parametrize("rho", [0.1, 0.3])
    @pytest.mark.parametrize("name", ["uniform", "kinked"])
    def test_time_beyond_the_window_is_the_edge_mass(self, name, rho):
        pair = make_kinked_pair() if name == "kinked" else make_uniform_pair()
        window = v_l(pair, rho).window
        law = solve_luckock(pair, rho, window)
        base = SimConfig(pair=pair, rho=rho, events=500_000, seed=5)
        runs = ((replace(base, replica=r), window.lo, window.hi) for r in range(self.REPLICAS))
        shares = np.array(list(_in_order(time_beyond, runs, 2)))
        mean = shares.mean(axis=0)
        se = shares.std(axis=0, ddof=1) / math.sqrt(self.REPLICAS)
        edge = np.array([law.f_minus_lo, law.f_plus_hi])
        assert (np.abs(mean - edge) <= 4 * se).all(), (mean, se, edge)


class TestCriticalRate:
    """The paper's critical maker rate on a pair that is not symmetric about
    x_W: the 32-segment kinked pair (V_W ~0.43564, x_W ~0.49312).  Below
    V_W no replica freezes, above it every one does, with its quotes in the
    freeze support.  At 0.9 V_W the
    detector's false freezes (quotes that happen to sit within eps for the
    last 10% of the events) fell with the horizon: 40 of 1,024 replicas at
    2e4 events, 9 at 5e4, 3 at 1e5 and none at 2e5 (seeds 200-263, 16
    replicas each), and none of 1,024 at 4e5 (seeds 300-363).  At 1.1 V_W
    all 128 replicas of seeds 1-8 froze at 5e4, 1e5 and 2e5 events."""

    EVENTS = 200_000
    REPLICAS = 16

    @pytest.mark.parametrize("share, frozen", [(0.9, 0), (1.1, REPLICAS)], ids=["below", "above"])
    def test_freezes_only_above_the_walrasian_volume(self, share, frozen):
        pair = make_kinked_pair(32)
        v_w = walras(pair).volume
        assert v_w == pytest.approx(0.43564, abs=1e-5)
        config = SimConfig(pair=pair, rho=share * v_w, events=self.EVENTS, seed=12)
        stats = run_ensemble(config, self.REPLICAS, workers=2)
        assert sum(s.frozen for s in stats) == frozen

    def test_frozen_midpoints_lie_in_the_support(self):
        """At 1.05 V_W the support is [0.4790, 0.5102], longer above x_W than
        below it.  Every frozen midpoint lies in it widened by the detector's
        eps (``_FREEZE_EPS`` times the interval length), since the detector
        calls quotes frozen that still move by up to eps; and the midpoints
        land in both halves.  The excess beyond the support shrinks with the
        horizon: over 48 replicas each of seeds 1-10 it reached 0.0111 at
        1e5 events, 0.0097 at 2e5, 0.0075 at 3e5 and 0.0061 at 4e5, mostly
        above the support, with 9 to 21 midpoints below x_W."""
        pair = make_kinked_pair(32)
        wal = walras(pair)
        rho = 1.05 * wal.volume
        fs = freeze_support(pair, rho)
        assert (fs.lo, fs.hi) == pytest.approx((0.4790, 0.5102), abs=1e-4)
        config = SimConfig(pair=pair, rho=rho, events=400_000, seed=1)
        mids = [s.freeze_midpoint for s in run_ensemble(config, 40, workers=2) if s.frozen]
        assert len(mids) == 40
        margin = engine._FREEZE_EPS * pair.interval.length
        assert all(fs.lo - margin <= m <= fs.hi + margin for m in mids), (min(mids), max(mids))
        assert any(fs.lo <= m < wal.x for m in mids) and any(wal.x < m <= fs.hi for m in mids)


class TestCoupling:
    """A window-restricted stream tracks the full stream inside the window.

    While every pre-event full-book quote satisfies ask > lo and bid < hi,
    the restricted book equals the full book with resting orders outside
    the open window deleted.  The first violated guard ends the claim.
    """

    @staticmethod
    def intersect(full: oracle.Book, window: PriceInterval):
        """The counts of ``full`` less its orders outside the open window."""
        return tuple(
            tuple(sorted((p, c) for p, c in side.items() if window.lo < p < window.hi))
            for side in (full.buys, full.sells)
        )

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_restricted_equals_full_inside_window(self, uniform_pair, rho):
        window = PriceInterval(0.2, 0.8)
        coupled = 0
        coupled_mm = 0
        longest = 0
        for seed in range(300):
            full = oracle.Book(uniform_pair.interval)
            restricted = oracle.Book(uniform_pair.interval)
            steps = 0
            for _, kind, price in oracle.events(SimConfig(pair=uniform_pair, rho=rho, events=400, seed=seed)):
                bid, ask = full.bid, full.ask
                if not (ask > window.lo and bid < window.hi):
                    break  # guard broken: no claim from here on
                full.apply(kind, price)
                restricted.apply(oracle.restrict(kind, price, window), price)
                assert restricted.counts() == self.intersect(full, window)
                steps += 1
                coupled += 1
                if kind == 4:
                    coupled_mm += 1
            longest = max(longest, steps)
        # the assertion only bites if the guard actually survives a while
        assert coupled > 3_000
        assert longest > 30
        if rho > 0:
            assert coupled_mm > 10

    def test_guard_breaks_eventually(self, uniform_pair):
        # with a narrow window the full book's quotes escape quickly
        window = PriceInterval(0.45, 0.55)
        full = oracle.Book(uniform_pair.interval)
        for i, (_, kind, price) in enumerate(oracle.events(SimConfig(pair=uniform_pair, events=10_000))):
            bid, ask = full.bid, full.ask
            if not (ask > window.lo and bid < window.hi):
                break
            full.apply(kind, price)
        else:
            pytest.fail("guard never broke")
        assert i < 1_000


def scaled(pair: DemandSupplyPair, price: float = 1.0, rate: float = 1.0) -> DemandSupplyPair:
    """``pair`` with every breakpoint price times ``price`` and every rate
    times ``rate``."""
    return DemandSupplyPair(
        *(
            MonotoneCurve(
                tuple(p * price for p in c.prices), tuple(r * rate for r in c.rates), c.direction
            )
            for c in (pair.demand, pair.supply)
        )
    )


class TestSymmetries:
    """The model's exact symmetries on the engine side.  Powers of two keep
    every product, sum and comparison of the run exact, so the scaled run
    is the run itself, bit for bit."""

    PAIRS = dict(PAIRS, kinked=make_kinked_pair())

    @given(cfg=sim_configs(pairs=PAIRS), k=st.integers(-60, 60))
    @settings(max_examples=25, deadline=None)
    def test_rate_scaling_rescales_time(self, cfg, k):
        # every curve rate and the maker rate times 2**k: the same events
        # arrive 2**k times as fast
        a = run(cfg)
        b = run(replace(cfg, pair=scaled(cfg.pair, rate=2.0**k), rho=cfg.rho * 2.0**k))
        for name in ("kinds", "trade_prices", "bids", "asks"):
            assert getattr(b, name).tobytes() == getattr(a, name).tobytes(), name
        assert b.times.tobytes() == (a.times * 2.0**-k).tobytes()

    @given(cfg=sim_configs(pairs=PAIRS), j=st.integers(-60, 60))
    @settings(max_examples=25, deadline=None)
    def test_price_scaling_rescales_prices(self, cfg, j):
        # every price times 2**j, the window and the initial book too: prices
        # and quotes scale, and nothing else moves
        f = 2.0**j
        window = cfg.restriction
        b = run(
            replace(
                cfg,
                pair=scaled(cfg.pair, price=f),
                restriction=window and PriceInterval(window.lo * f, window.hi * f),
                initial_buys=tuple(x * f for x in cfg.initial_buys),
                initial_sells=tuple(x * f for x in cfg.initial_sells),
            )
        )
        a = run(cfg)
        for name in ("times", "kinds"):
            assert getattr(b, name).tobytes() == getattr(a, name).tobytes(), name
        for name in ("trade_prices", "bids", "asks"):
            assert getattr(b, name).tobytes() == (getattr(a, name) * f).tobytes(), name


class TestDeterminism:
    def test_identical_reruns(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=50_000, seed=21, rho=0.2)
        a, b = run(cfg), run(cfg)
        for name in ("times", "kinds", "trade_prices", "bids", "asks"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.final_book.snapshot() == b.final_book.snapshot()

    def test_replicas_differ(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=1_000, seed=21)
        a = run(cfg)
        b = run(replace(cfg, replica=1))
        assert a.times.tobytes() != b.times.tobytes()

    def test_seeds_differ(self, uniform_pair):
        a = run(SimConfig(pair=uniform_pair, events=1_000, seed=1))
        b = run(SimConfig(pair=uniform_pair, events=1_000, seed=2))
        assert a.bids.tobytes() != b.bids.tobytes()


class TestHorizons:
    def test_zero_events(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=0, seed=1))
        assert traj.n_events == 0
        assert traj.times.shape == (0,)
        assert math.isnan(traj.summary.empty_buy_prob)

    def test_duration_horizon(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, duration=100.0, seed=5))
        assert traj.end_time == 100.0
        assert traj.times[-1] <= 100.0
        # total rate 2: expect about 200 events
        assert 120 <= traj.n_events <= 300

    def test_config_validation(self, uniform_pair):
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(pair=uniform_pair, events=10, duration=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(pair=uniform_pair)
        with pytest.raises(ValueError, match="nonnegative"):
            SimConfig(pair=uniform_pair, events=-1)
        for duration in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="duration"):
                SimConfig(pair=uniform_pair, duration=duration)
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(pair=uniform_pair, events=10, burn_in=1.0)
        with pytest.raises(ValueError, match="restriction"):
            SimConfig(
                pair=uniform_pair, events=10, restriction=PriceInterval(0.5, 1.5)
            )
        with pytest.raises(ValueError, match="rho"):
            SimConfig(pair=uniform_pair, events=10, rho=-0.1)


def bits(value):
    """``value`` as compared bit for bit: a float by its bytes, any NaN
    alike; anything else as it is."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


class TestSummary:
    @given(cfg=sim_configs(), to_duration=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, cfg, to_duration):
        """The summary from runs of equal quotes against ``oracle.summarize``
        on whole-run arrays: all 16 fields, bit for bit.  A duration
        horizon ends after its last event, so its last state has weight."""
        if to_duration:
            inv_total = RateTable.from_pair(cfg.pair, cfg.rho).inv_total
            cfg = replace(cfg, events=None, duration=(cfg.events + 1) * inv_total)
        traj = run(cfg)
        got, want = astuple(traj.summary), astuple(oracle.summarize(traj))
        assert len(got) == 16
        for f, x, y in zip(fields(traj.summary), got, want):
            assert bits(x) == bits(y), f.name

    def test_cdf_matches_direct_recomputation(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=20_000, seed=31)
        traj = run(cfg)
        grid, bid_cdf, ask_survival = quote_cdfs(traj)
        k0 = traj.burn_index
        w = np.diff(np.append(traj.times[k0:], traj.end_time))
        b, a = traj.bids[k0:], traj.asks[k0:]
        total = w.sum()
        assert len(grid) == 1024
        # 0, 27, 64 and 100 percent along the grid
        for gi in (0, 276, 650, 1023):
            g = grid[gi]
            assert bid_cdf[gi] == pytest.approx(w[b <= g].sum() / total, abs=1e-12)
            assert ask_survival[gi] == pytest.approx(w[a >= g].sum() / total, abs=1e-12)

    def test_cdf_monotone_and_bounded(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=50_000, seed=32))
        _, bid_cdf, ask_survival = quote_cdfs(traj)
        assert (np.diff(bid_cdf) >= -1e-15).all()
        assert (np.diff(ask_survival) <= 1e-15).all()
        assert bid_cdf[-1] == pytest.approx(1.0)
        assert ask_survival[0] == pytest.approx(1.0)

    def test_empty_side_probabilities(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=20_000, seed=33))
        s = traj.summary
        k0 = traj.burn_index
        w = np.diff(np.append(traj.times[k0:], traj.end_time))
        lo, hi = uniform_pair.interval.lo, uniform_pair.interval.hi
        exp_b = w[traj.bids[k0:] == lo].sum() / w.sum()
        exp_s = w[traj.asks[k0:] == hi].sum() / w.sum()
        assert s.empty_buy_prob == pytest.approx(exp_b, abs=1e-12)
        assert s.empty_sell_prob == pytest.approx(exp_s, abs=1e-12)

    def test_restricted_grid_spans_window(self, uniform_pair):
        cfg = SimConfig(
            pair=uniform_pair,
            events=10_000,
            seed=34,
            restriction=PriceInterval(0.4, 0.6),
        )
        grid, _, _ = quote_cdfs(run(cfg))
        assert grid[0] == 0.4 and grid[-1] == 0.6

    def test_trade_accounting(self, uniform_pair):
        # no market orders at rho=0: every trade is a crossing limit order
        traj = run(SimConfig(pair=uniform_pair, events=100_000, seed=35))
        kinds, tp = traj.kinds, traj.trade_prices
        traded = ~np.isnan(tp)
        n_bl = int((kinds == 2).sum())
        n_bl_traded = int(traded[kinds == 2].sum())
        n_sl = int((kinds == 3).sum())
        n_sl_traded = int(traded[kinds == 3].sum())
        assert traj.summary.trade_count == n_bl_traded + n_sl_traded
        assert traj.summary.final_buys == n_bl - n_bl_traded - n_sl_traded
        assert traj.summary.final_sells == n_sl - n_sl_traded - n_bl_traded

    def test_trade_prices_are_quotes(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=20_000, seed=36, rho=0.3))
        tp = traj.trade_prices
        ok = ~np.isnan(tp)
        assert (tp[ok] > 0.0).all() and (tp[ok] < 1.0).all()
        assert ok.sum() > 1_000


class TestSnapshots:
    def test_snapshot_indices(self, uniform_pair):
        cfg = SimConfig(
            pair=uniform_pair, events=1_000, seed=41, snapshot_at=(0, 100, 500)
        )
        traj = run(cfg)
        assert set(traj.snapshots) == {0, 100, 500}
        assert traj.snapshots[0].buys == ()

    def test_snapshot_matches_truncated_run(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=1_000, seed=42, snapshot_at=(600,))
        traj = run(cfg)
        short = run(replace(cfg, events=600, snapshot_at=()))
        assert traj.snapshots[600] == short.final_book.snapshot()

    def test_snapshot_past_horizon_ignored(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=100, seed=43, snapshot_at=(500,)))
        assert traj.snapshots == {}


class TestWindowEstimate:
    def test_brackets_quotes(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=100_000, seed=51))
        est = estimate_window(traj)
        assert 0.1 < est.lo < 0.3
        assert 0.7 < est.hi < 0.9
        k0 = traj.burn_index
        assert (traj.bids[k0:] > 0.0).sum() > 10_000 and (traj.asks[k0:] < 1.0).sum() > 10_000

    def test_maker_flow_narrows_window(self, uniform_pair):
        base = SimConfig(pair=uniform_pair, events=100_000, seed=52)
        plain = estimate_window(run(base))
        damped = estimate_window(run(replace(base, rho=0.3)))
        assert damped.lo > plain.lo
        assert damped.hi < plain.hi

    def test_insufficient_data(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=1, seed=53))
        with pytest.raises(InsufficientDataError):
            estimate_window(traj)

    def test_skips_empty_sides(self, uniform_pair):
        # crafted quotes: after the burn-in (events 4-7) each side is empty
        # at some event and quotes its interval edge there; the estimate
        # takes the extremes of the resting quotes only, and none when a
        # side never rests
        bids = [0.1, 0.0, 0.3, 0.4, 0.0, 0.35, 0.45, 0.0]
        asks = [0.9, 1.0, 0.7, 0.6, 0.65, 1.0, 0.55, 1.0]
        est = estimate_window(crafted_run(uniform_pair, bids, asks))
        assert (est.lo, est.hi) == (0.35, 0.65)
        for quotes in ((bids, [0.9] * 4 + [1.0] * 4), ([0.1] * 4 + [0.0] * 4, asks)):
            with pytest.raises(InsufficientDataError):
                estimate_window(crafted_run(uniform_pair, *quotes))


def crafted_run(uniform_pair, bids, asks):
    """The fields detect_freeze and estimate_window read, for crafted
    quotes on the uniform pair (eps 0.01, burn-in half the events): event
    i at time i + 1, from an empty book.  The engine reads the quotes as
    change points with their times, the reference as ``bids``, ``asks``
    and ``times``."""
    n = len(bids)
    bids, asks = np.array(bids, dtype=float), np.array(asks, dtype=float)
    # the quotes before the first event and after each, and where they move
    b, a = np.append(0.0, bids), np.append(1.0, asks)
    at = np.flatnonzero(np.append(True, (b[1:] != b[:-1]) | (a[1:] != a[:-1])))
    return SimpleNamespace(
        config=SimConfig(pair=uniform_pair, events=n),
        n_events=n,
        burn_index=n // 2,
        times=np.arange(1.0, n + 1.0),
        bids=bids,
        asks=asks,
        _quote_at=at,
        # each change point at the time of the event before it, the first at event 0's
        _quote_times=np.maximum(at, 1).astype(float),
        _quote_bids=b[at],
        _quote_asks=a[at],
    )


# events each crafted quote pair is held for: at 1 each event is a run of
# equal quotes of its own, above 1 the stable suffix starts at a run's first
# state, which detect_freeze reads from the run starts
HOLDS = (1, 7, 64, 1 << 14)


def settled(n, breaks=()):
    """Quotes 0.5 and 0.505 for ``n`` events, with the ask at 0.504 at
    every other event before the last, so each event is a run of equal
    quotes of its own, and the bid at 0.3 at each index of ``breaks``: the
    stable suffix starts after the last one."""
    bids = np.full(n, 0.5)
    bids[list(breaks)] = 0.3
    return bids, 0.505 - 0.001 * ((n - 1 - np.arange(n)) % 2)


# (bid, ask) at an event among bids in [0.5, 0.502] and asks up to 0.504 that
# breaks only the spread, only the bid range or only the ask range
ONE_BROKEN = {"spread": (0.496, 0.5075), "bid-range": (0.491, 0.5), "ask-range": (0.502, 0.5115)}


class TestFreezeDetection:
    def test_no_freeze_without_makers(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=200_000, seed=61))
        assert detect_freeze(traj) is None

    def test_freeze_with_strong_makers(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=100_000, seed=62, rho=0.6))
        fz = detect_freeze(traj)
        assert fz is not None
        assert 0.35 < fz.midpoint < 0.65
        assert fz.start_index < traj.n_events
        assert traj.times[fz.start_index] == fz.t_freeze
        st = traj.summary
        assert st.frozen
        assert (st.freeze_time, st.freeze_midpoint, st.freeze_start_index) == (
            fz.t_freeze,
            fz.midpoint,
            fz.start_index,
        )

    def test_stable_suffix_respects_eps(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=100_000, seed=63, rho=0.6))
        fz = detect_freeze(traj)
        eps = 0.01 * uniform_pair.interval.length  # the default
        k = fz.start_index
        spread = traj.asks[k:] - traj.bids[k:]
        assert (spread <= eps).all()
        assert traj.bids[k:].max() - traj.bids[k:].min() <= eps

    def test_stable_suffix_is_maximal(self, uniform_pair):
        # one event more and the suffix breaks the condition
        traj = run(SimConfig(pair=uniform_pair, events=100_000, seed=63, rho=0.6))
        k = detect_freeze(traj).start_index
        assert k > 0
        eps = 0.01 * uniform_pair.interval.length
        b, a = traj.bids[k - 1 :], traj.asks[k - 1 :]
        assert not (
            (a - b).max() <= eps and b.max() - b.min() <= eps and a.max() - a.min() <= eps
        )

    def test_empty_run(self, uniform_pair):
        traj = run(SimConfig(pair=uniform_pair, events=0, seed=64))
        assert detect_freeze(traj) is None

    def test_settled_from_the_first_state(self, uniform_pair):
        # quotes 0.005 apart, held by makers at 5 times the other flows: the
        # stable suffix is the whole run, and the first event moves no
        # quote, so the freeze time is the one the opening change point keeps
        for seed in (1, 4):
            book = dict(initial_buys=(0.5,) * 2, initial_sells=(0.505,) * 2)
            traj = run(SimConfig(pair=uniform_pair, rho=5.0, events=2_000, seed=seed, **book))
            assert len(traj._quote_at) == 1 or traj._quote_at[1] > 1
            fz = traj.summary
            assert (fz.freeze_start_index, fz.freeze_time) == (0, traj.times[0])
            assert detect_freeze(traj) == oracle.detect_freeze(traj)

    @given(cfg=sim_configs(max_events=20_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference(self, cfg):
        """The backward scan over runs of equal quotes against the whole-run
        arrays of ``oracle.detect_freeze``; sim_configs draws freezing maker
        rates too."""
        traj = run(cfg)
        want = oracle.detect_freeze(traj)
        s = traj.summary
        assert (s.freeze_time, s.freeze_midpoint, s.freeze_start_index) == (
            (want.t_freeze, want.midpoint, want.start_index) if want else (None, None, None)
        )
        assert detect_freeze(traj) == want

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_matches_the_reference_on_frozen_runs(self, name):
        # maker rates above the walrasian volume
        pair = PAIRS[name]
        rho = 1.5 * walras(pair).volume
        for seed in (1, 2):
            traj = run(SimConfig(pair=pair, rho=rho, events=20_000, seed=seed))
            want = oracle.detect_freeze(traj)
            assert want is not None
            assert detect_freeze(traj) == want, seed

    def test_matches_the_reference_on_a_busy_run(self, uniform_pair):
        # the simulate-restricted benchmark's run on seed 1: the quotes move
        # at nearly a third of its 300,000 events, and never settle
        window = PriceInterval(0.4, 0.6)
        traj = run(SimConfig(pair=uniform_pair, events=300_000, seed=1, restriction=window))
        assert len(traj._quote_at) == 92_962
        assert detect_freeze(traj) == oracle.detect_freeze(traj)

    @pytest.mark.parametrize("hold", HOLDS)
    @pytest.mark.parametrize(
        "n, breaks, start",
        [
            pytest.param(35, [13], 14, id="fails-once"),
            pytest.param(35, [6, 20], 21, id="fails-twice"),
            pytest.param(100, [89], 90, id="suffix-of-exactly-the-span"),
            pytest.param(100, [90], None, id="suffix-one-short-of-the-span"),
            pytest.param(35, [], 0, id="never-fails"),
            pytest.param(35, [34], None, id="last-state-unstable"),
            pytest.param(1, [], 0, id="one-event"),
            pytest.param(1, [0], None, id="one-unstable-event"),
            pytest.param(0, [], None, id="no-events"),
        ],
    )
    def test_crafted_quotes(self, uniform_pair, hold, n, breaks, start):
        bids, asks = settled(n, breaks)
        traj = crafted_run(uniform_pair, np.repeat(bids, hold), np.repeat(asks, hold))
        fz = detect_freeze(traj)
        assert fz == oracle.detect_freeze(traj)
        if start is None:
            assert fz is None
        else:
            k = start * hold
            midpoint = 0.5 * (0.5 + 0.505)
            assert (fz.start_index, fz.t_freeze, fz.midpoint) == (k, k + 1.0, midpoint)

    @pytest.mark.parametrize("extreme", sorted(ONE_BROKEN))
    def test_each_extreme_breaks_the_suffix(self, uniform_pair, extreme):
        # quotes that wander by less than eps, and at two events a quote
        # pair that breaks exactly one of the three ranges; a broken bid or
        # ask range shows only through the extremes of the suffix after it
        rng = np.random.default_rng(5)
        bids = 0.5 + rng.uniform(0.0, 0.002, 600)
        asks = bids + rng.uniform(0.0, 0.002, 600)
        for i in (17, 151):
            bids[i], asks[i] = ONE_BROKEN[extreme]
        b, a = bids[151:], asks[151:]
        ranges = {"spread": (a - b).max(), "bid-range": np.ptp(b), "ask-range": np.ptp(a)}
        assert [name for name, r in ranges.items() if r > 0.01] == [extreme]
        traj = crafted_run(uniform_pair, bids, asks)
        fz = detect_freeze(traj)
        assert fz == oracle.detect_freeze(traj)
        assert fz.start_index == 152

    @pytest.mark.parametrize("hold", HOLDS)
    @pytest.mark.parametrize("extreme", sorted(ONE_BROKEN))
    def test_a_range_of_exactly_eps_is_settled(self, uniform_pair, extreme, hold):
        # eps is 0.01 and 0.02 - 0.01 == 0.01 exactly: quotes that move by,
        # or lie apart by, exactly eps have settled
        eps = 0.01
        low, high = np.full(100, eps), np.full(100, 2 * eps)
        assert high[0] - low[0] == eps
        wander = np.where(np.arange(100) % 3 == 0, eps, 2 * eps)
        quotes = {"spread": (low, high), "bid-range": (wander, high), "ask-range": (low, wander)}
        bids, asks = quotes[extreme]
        traj = crafted_run(uniform_pair, np.repeat(bids, hold), np.repeat(asks, hold))
        fz = detect_freeze(traj)
        assert fz == oracle.detect_freeze(traj)
        assert fz.start_index == 0


class TestImageBook:
    def test_ceil_halves(self):
        book = OrderBook(PriceInterval(0.0, 6.0), buys=[0.4, 1.8], sells=[4.2])
        img = image_book(book, 2.0)
        assert dict(img.buy_counts) == {1.0: 2}
        assert dict(img.sell_counts) == {3.0: 1}

    def test_empty_book(self):
        img = image_book(OrderBook(PriceInterval(0.0, 6.0)), 2.0)
        assert img.snapshot() == OrderBook(PriceInterval(0.0, 6.0)).snapshot()

    def test_crossing_image_rejected(self):
        # ceil(1.0 / 2) == ceil(2.0 / 2) == 1: the buy and the sell share a cell
        book = OrderBook(PriceInterval(0.0, 6.0), buys=[1.0], sells=[2.0])
        with pytest.raises(InvalidMapError, match="crossed"):
            image_book(book, 2.0)

    def test_image_outside_the_interval_rejected(self):
        # ceil(5.5 / 0.5) == 11 lies beyond the interval's upper end 6
        book = OrderBook(PriceInterval(0.0, 6.0), buys=[5.5])
        with pytest.raises(InvalidMapError):
            image_book(book, 0.5)

    @pytest.mark.parametrize("divisor", [0.0, -2.0, math.nan])
    def test_divisor_must_be_positive(self, divisor):
        book = OrderBook(PriceInterval(0.0, 6.0), buys=[1.0])
        with pytest.raises(ValueError, match="divisor must be positive"):
            image_book(book, divisor)


class TestEnsemble:
    def test_serial_matches_parallel(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=5_000, seed=71)
        serial = run_ensemble(cfg, replicas=4, workers=1)
        parallel = run_ensemble(cfg, replicas=4, workers=2)
        assert serial == parallel
        assert [s.replica for s in serial] == [0, 1, 2, 3]

    def test_matches_individual_runs(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=5_000, seed=72)
        stats = run_ensemble(cfg, replicas=2, workers=1)
        solo = run(replace(cfg, replica=1))
        assert stats[1].trade_count == solo.summary.trade_count
        assert stats[1].min_bid == solo.bids.min()
        assert stats[1] == solo.summary

    def test_replicas_build_no_derived_column(self, uniform_pair, monkeypatch):
        # a replica's summary reduces the compact form and keeps no
        # per-event column.  A frozen replica runs the pre-pass once; a busy
        # restricted replica, whose sides empty after the burn-in, replays
        # it once more for its occupation times, and keeps nothing of it
        made = []
        real = engine._run_books

        def kept(configs):
            trajs = real(configs)
            made.extend(trajs)
            return trajs

        monkeypatch.setattr(engine, "_run_books", kept)
        calls = counted_chunks(monkeypatch)
        for cfg, replays in (
            (SimConfig(pair=uniform_pair, events=20_000, seed=76, rho=0.6), 1),
            (SimConfig(pair=uniform_pair, events=20_000, seed=77, restriction=PriceInterval(0.4, 0.6)), 2),
        ):
            made.clear()
            calls[0] = 0
            stats = run_ensemble(cfg, replicas=3, workers=1)
            assert [traj.summary for traj in made] == stats
            assert calls[0] == replays * len(made)
            assert all(not set(DERIVED) & set(vars(traj)) for traj in made)
        assert stats[0].empty_buy_prob > 0.0

    def test_rejects_zero_replicas(self, uniform_pair):
        with pytest.raises(ValueError):
            run_ensemble(SimConfig(pair=uniform_pair, events=10), replicas=0)

    def test_rejects_negative_workers(self, uniform_pair):
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(SimConfig(pair=uniform_pair, events=10), replicas=2, workers=-1)

    def test_pool_capped_at_cpu_count(self, uniform_pair, monkeypatch):
        # a pool that runs each batch when it is submitted, so the test
        # starts no process; it records its size and the batches
        pools, batches = [], []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def submit(self, fn, item):
                batches.append(item)
                future = concurrent.futures.Future()
                future.set_result(fn(item))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        # the pool class is imported where a pool starts, not with the package
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SimConfig(pair=uniform_pair, events=500, seed=73)
        serial = run_ensemble(cfg, replicas=5, workers=1)
        assert pools == []
        for workers in (5000, 0, None):
            assert run_ensemble(cfg, replicas=5, workers=workers) == serial
        assert pools == [2, 2, 2]
        assert batches == [range(r, r + 1) for r in range(5)] * 3

    def test_batches_are_a_quarter_of_the_replicas_per_process(self, uniform_pair, monkeypatch):
        # max(1, replicas // (4 * processes)) replicas per batch, in order
        batches = []
        real = engine._replica_summaries
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(
            engine, "_replica_summaries", lambda base, rs: batches.append(rs) or real(base, rs)
        )
        cfg = SimConfig(pair=uniform_pair, events=50, seed=74)
        stats = run_ensemble(cfg, replicas=10)
        assert batches == [range(0, 2), range(2, 4), range(4, 6), range(6, 8), range(8, 10)]
        assert [s.replica for s in stats] == list(range(10))

    def test_a_failed_replica_stops_the_ensemble(self, uniform_pair, monkeypatch, tmp_path):
        # replica 0 fails at once and every other replica waits a little
        # before it runs: the error comes back as raised, the batches not
        # yet handed to a process never start, and no worker is left
        started = tmp_path / "started"
        real = engine._run_books

        def logged(configs):
            (config,) = configs
            with started.open("a") as fh:
                fh.write(f"{config.replica}\n")
            if config.replica == 0:
                raise RuntimeError("replica 0 failed")
            time.sleep(0.02)
            return real(configs)

        monkeypatch.setattr(engine, "_run_books", logged)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SimConfig(pair=uniform_pair, events=20, seed=75)
        with pytest.raises(RuntimeError, match="replica 0 failed"):
            run_ensemble(cfg, replicas=32, workers=2)
        assert multiprocessing.active_children() == []
        # batches of 4 replicas and at most 2 per process submitted: replica
        # 0's batch stops at its first replica, and 3 more batches at most
        # were handed out.  Submitting every batch at once starts at least
        # 17, the batches already in the pool's call queue.
        assert 1 <= len(started.read_text().split()) <= 1 + 3 * 4


SHARED_PAIRS = {"uniform": make_uniform_pair(), "kinked": make_kinked_pair(32)}


@st.composite
def shared_books(draw, max_events=3_000):
    """1-3 configs that draw one event stream: a pair of ``SHARED_PAIRS``,
    a maker rate below or above the walrasian volume, a window or none, an
    event or a duration horizon and snapshot indices, shared; an initial
    book each, the empty book and one resting buy at y among the draws."""
    pair = SHARED_PAIRS[draw(st.sampled_from(sorted(SHARED_PAIRS)))]
    iv = pair.interval
    v_w = walras(pair).volume
    window = None
    volume_share = draw(st.none() | st.floats(0.05, 0.95))
    if volume_share is not None:
        v_max = min(pair.demand.value_at(iv.lo), pair.supply.value_at(iv.hi))
        v = v_w + volume_share * (v_max - v_w)
        window = PriceInterval(float(pair.demand.inverse(v)), float(pair.supply.inverse(v)))
    rho = v_w * draw(st.floats(0.0, 0.9) | st.floats(1.0, 3.0))
    rate = 1.0 / RateTable.from_pair(pair, rho).inv_total
    if draw(st.booleans()):
        horizon = {"events": draw(st.integers(0, max_events))}
    else:
        horizon = {"duration": draw(st.floats(0.1, max_events / rate))}
    base = SimConfig(
        pair=pair,
        rho=rho,
        seed=draw(st.integers(0, 2**32 - 1)),
        replica=draw(st.integers(0, 3)),
        restriction=window,
        snapshot_at=tuple(draw(st.lists(st.integers(0, max_events), max_size=3))),
        **horizon,
    )
    y = iv.lo + draw(st.floats(0.05, 0.95)) * iv.length
    cut = iv.lo + draw(st.floats(0.2, 0.8)) * iv.length
    fracs = st.lists(st.floats(0.01, 0.99), max_size=4)
    books = draw(
        st.lists(
            st.just(((), ()))
            | st.just(((y,), ()))
            | st.tuples(
                fracs.map(lambda fs: tuple(iv.lo + f * (cut - iv.lo) for f in fs)),
                fracs.map(lambda fs: tuple(cut + f * (iv.hi - cut) for f in fs)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return [replace(base, initial_buys=buys, initial_sells=sells) for buys, sells in books]


def assert_same_run(traj: Trajectory, solo: Trajectory):
    assert traj.config == solo.config
    assert (traj.n_events, traj.end_time, traj._trade_count) == (solo.n_events, solo.end_time, solo._trade_count)
    for name in STORED:
        np.testing.assert_array_equal(getattr(traj, name), getattr(solo, name))
    assert traj.final_book.snapshot() == solo.final_book.snapshot()
    assert traj.snapshots == solo.snapshots
    assert traj.summary == solo.summary


class TestSharedStream:
    """Books that share one event stream, stepped through one decode of it
    (engine._run_books, and run_ensemble's ``also``)."""

    @given(configs=shared_books())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_each_book_equals_its_own_run(self, configs):
        trajs = engine._run_books(configs)
        assert len(trajs) == len(configs)
        for traj, config in zip(trajs, configs):
            assert_same_run(traj, run(config))

    def test_one_decode_steps_every_book(self, uniform_pair, monkeypatch):
        # a frozen run never replays, so every entry is a decode
        calls = counted_chunks(monkeypatch)
        cfg = SimConfig(pair=uniform_pair, events=20_000, seed=5, rho=0.6)
        trajs = engine._run_books([cfg, replace(cfg, initial_buys=(0.3,)), replace(cfg, initial_sells=(0.8,))])
        assert all(traj.summary.frozen for traj in trajs)
        assert calls[0] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "rho,window", [(0.6, None), (0.0, PriceInterval(0.4, 0.6))], ids=["frozen", "restricted"]
    )
    def test_ensemble_equals_separate_ensembles(self, uniform_pair, workers, rho, window):
        cfg = SimConfig(pair=uniform_pair, events=5_000, seed=78, rho=rho, restriction=window)
        also = (replace(cfg, initial_buys=(0.3,)), replace(cfg, initial_buys=(0.2,), initial_sells=(0.9,)))
        together = run_ensemble(cfg, replicas=5, workers=workers, also=also)
        assert together == [run_ensemble(c, replicas=5, workers=workers) for c in (cfg, *also)]
        assert run_ensemble(cfg, replicas=5, workers=workers, also=()) == together[0]

    @pytest.mark.parametrize(
        "change,name",
        [
            ({"seed": 2}, "seed"),
            ({"replica": 1}, "replica"),
            ({"rho": 0.5}, "rho"),
            ({"events": 1_001}, "events"),
            ({"events": None, "duration": 500.0}, "events"),
            ({"restriction": PriceInterval(0.4, 0.6)}, "restriction"),
            ({"snapshot_at": (10,)}, "snapshot_at"),
            ({"burn_in": 0.25}, "burn_in"),
        ],
    )
    def test_configs_that_draw_apart_are_refused(self, uniform_pair, monkeypatch, change, name):
        calls = counted_chunks(monkeypatch)
        cfg = SimConfig(pair=uniform_pair, events=1_000, seed=1, rho=0.6)
        other = replace(cfg, initial_buys=(0.3,), **change)
        with pytest.raises(ValueError, match=f"agree on {name}$"):
            engine._run_books([cfg, other])
        with pytest.raises(ValueError, match=f"agree on {name}$"):
            run_ensemble(cfg, replicas=4, workers=2, also=(other,))
        assert calls[0] == 0

    def test_duration_is_shared(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, duration=100.0, seed=1)
        with pytest.raises(ValueError, match="agree on duration$"):
            engine._run_books([cfg, replace(cfg, duration=101.0)])

    def test_pair_is_shared(self, uniform_pair):
        cfg = SimConfig(pair=uniform_pair, events=100, seed=1)
        with pytest.raises(ValueError, match="agree on pair$"):
            run_ensemble(cfg, replicas=1, also=(replace(cfg, pair=make_evenodd_pair(3)),))

    def test_a_second_book_costs_its_stored_size(self, uniform_pair):
        # a frozen replica and its gambler book, 2**18 events at rho 0.6:
        # stepping the second book through the same decode may add to the
        # peak what the second run keeps (its final book, mostly) and 1 MB
        cfg = SimConfig(pair=uniform_pair, events=1 << 18, seed=3, rho=0.6)
        gambler = replace(cfg, initial_buys=(0.3,))
        run(cfg)  # what a first run in a process leaves cached
        one, one_peak = traced(run, cfg)
        tracemalloc.start()
        try:
            trajs = engine._run_books([cfg, gambler])
            both_peak = tracemalloc.get_traced_memory()[1]
            second = trajs.pop()
            frozen = second.summary.frozen and trajs[0].summary.frozen
            with_second = tracemalloc.get_traced_memory()[0]
            del second
            second_bytes = with_second - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert frozen and one.summary.frozen
        assert both_peak - one_peak <= second_bytes + 1_000_000
