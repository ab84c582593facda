"""Acceptance gate: eleven behavioral criteria, one test each.

Every test prints a single [PASS]/[FAIL] line carrying the measured
numbers and the wall-clock budget it must meet. Tolerances are pinned
here on purpose; loosening them is a contract change, not a tweak.
"""

import math
import time

import numpy as np

from lobmm import (
    OrderBook,
    PriceInterval,
    Recurrence,
    SimConfig,
    classify_recurrence,
    estimate_window,
    image_book,
    phi,
    quote_cdfs,
    run,
    run_ensemble,
    solve_luckock,
    v_l,
)

from conftest import make_evenodd_pair, make_uniform_pair


def verdict(tag, ok, elapsed, budget, detail):
    status = "[PASS]" if ok and elapsed < budget else "[FAIL]"
    line = f"{status} {tag}: {detail} [{elapsed:.2f}s / {budget:.0f}s]"
    print(line, flush=True)
    assert ok and elapsed < budget, line


def test_c01_long_run_volume_against_root_solve():
    t0 = time.perf_counter()
    # independent characterization: V = 1/z with exp(-z) - z + 1 = 0
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if math.exp(-mid) - mid + 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    v_ref = 1.0 / (0.5 * (lo + hi))
    rep = v_l(make_uniform_pair(), 0.0)
    err_v = abs(rep.v_l - v_ref)
    err_lo = abs(rep.window.lo - 0.218)
    err_hi = abs(rep.window.hi - 0.782)
    elapsed = time.perf_counter() - t0
    verdict(
        "C1 long-run volume",
        err_v <= 1e-6 and err_lo <= 5e-4 and err_hi <= 5e-4,
        elapsed,
        1.0,
        f"|V-1/z|={err_v:.2e} (<=1e-6), endpoint errs {err_lo:.2e}/{err_hi:.2e} (<=5e-4)",
    )


def test_c02_phi_closed_form():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    worst = 0.0
    for v in np.linspace(0.5, 0.78, 50):
        closed = 2.0 * (math.log(v / (1.0 - v)) - 1.0 / v + 2.0)
        worst = max(worst, abs(phi(pair, 0.0, float(v)) - closed))
    elapsed = time.perf_counter() - t0
    verdict(
        "C2 phi closed form",
        worst <= 1e-8,
        elapsed,
        1.0,
        f"max |phi - closed| = {worst:.2e} (<=1e-8) over 50 points in [0.5, 0.78]",
    )


def test_c03_positive_recurrence_witness():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    klass = classify_recurrence(pair, 0.0, 0.6)
    window = PriceInterval(float(pair.demand.inverse(0.6)), float(pair.supply.inverse(0.6)))
    traj = run(SimConfig(pair=pair, events=1_000_000, seed=2203, restriction=window))
    empties = traj.summary.empty_book_transitions
    elapsed = time.perf_counter() - t0
    verdict(
        "C3 recurrence witness",
        klass is Recurrence.POSITIVE_RECURRENT and empties >= 20,
        elapsed,
        20.0,
        f"class={klass.value}, book emptied {empties} times (>=20) in 1e6 events",
    )


def test_c04_quote_law_vs_simulation():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    window = PriceInterval(float(pair.demand.inverse(0.6)), float(pair.supply.inverse(0.6)))
    sol = solve_luckock(pair, 0.0, window)
    traj = run(
        SimConfig(pair=pair, events=1_000_000, seed=2204, restriction=window, burn_in=0.5)
    )
    s = traj.summary
    grid, bid_cdf, ask_survival = quote_cdfs(traj)
    sup_bid = float(np.abs(bid_cdf - np.interp(grid, sol.grid, sol.f_minus)).max())
    sup_ask = float(np.abs(ask_survival - np.interp(grid, sol.grid, sol.f_plus)).max())
    d_buy = abs(s.empty_buy_prob - sol.f_minus_lo)
    d_sell = abs(s.empty_sell_prob - sol.f_plus_hi)
    elapsed = time.perf_counter() - t0
    verdict(
        "C4 quote law vs simulation",
        sup_bid <= 0.05 and sup_ask <= 0.05 and d_buy <= 0.02 and d_sell <= 0.02,
        elapsed,
        60.0,
        f"sup distances {sup_bid:.4f}/{sup_ask:.4f} (<=0.05), "
        f"empty-side diffs {d_buy:.4f}/{d_sell:.4f} (<=0.02)",
    )


def test_c05_window_estimate():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    traj = run(SimConfig(pair=pair, events=1_000_000, seed=2205))
    est = estimate_window(traj)
    err_lo = abs(est.lo - 0.2178)
    err_hi = abs(est.hi - 0.7822)
    elapsed = time.perf_counter() - t0
    verdict(
        "C5 window estimate",
        err_lo <= 0.03 and err_hi <= 0.03,
        elapsed,
        30.0,
        f"estimate ({est.lo:.4f}, {est.hi:.4f}), errs {err_lo:.4f}/{err_hi:.4f} (<=0.03)",
    )


def test_c06_window_shrinks_with_maker_rate():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    lengths = [v_l(pair, rho).window_length for rho in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)]
    decreasing = all(b < a for a, b in zip(lengths, lengths[1:]))
    ratio = lengths[-1] / lengths[0]
    elapsed = time.perf_counter() - t0
    verdict(
        "C6 window shrinkage",
        decreasing and ratio < 0.25,
        elapsed,
        5.0,
        f"lengths strictly decreasing={decreasing}, "
        f"length(0.45)/length(0) = {ratio:.4f} (<0.25)",
    )


def test_c07_critical_freeze():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    stats = run_ensemble(
        SimConfig(pair=pair, rho=0.5, events=100_000, seed=2207), replicas=50
    )
    good = sum(
        1
        for s in stats
        if s.frozen and s.freeze_midpoint is not None and 0.45 <= s.freeze_midpoint <= 0.55
    )
    frac = good / len(stats)
    elapsed = time.perf_counter() - t0
    verdict(
        "C7 critical freeze",
        frac >= 0.9,
        elapsed,
        120.0,
        f"{good}/50 replicas froze with midpoint in [0.45, 0.55] (need >=90%)",
    )


def test_c08_supercritical_freeze_support():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    stats = run_ensemble(
        SimConfig(pair=pair, rho=0.6, events=100_000, seed=2208), replicas=200
    )
    mids = np.array([s.freeze_midpoint for s in stats if s.frozen])
    in_range = bool(len(mids)) and bool(np.all((mids >= 0.38) & (mids <= 0.62)))
    std = float(mids.std()) if len(mids) else 0.0
    occupied = int(np.count_nonzero(np.histogram(mids, bins=5, range=(0.4, 0.6))[0]))
    elapsed = time.perf_counter() - t0
    verdict(
        "C8 supercritical support",
        in_range and std >= 0.01 and occupied >= 3,
        elapsed,
        300.0,
        f"{len(mids)}/200 frozen, all mids in [0.38, 0.62]={in_range}, "
        f"std={std:.4f} (>=0.01), bins occupied={occupied}/5 (>=3)",
    )


def test_c09_resting_order_survival_bound():
    pair = make_uniform_pair()
    t0 = time.perf_counter()
    stats = run_ensemble(
        SimConfig(pair=pair, rho=0.6, events=10_000, seed=2209, initial_buys=(0.3,)),
        replicas=1000,
    )
    frac = sum(1 for s in stats if s.min_bid >= 0.3) / len(stats)
    elapsed = time.perf_counter() - t0
    verdict(
        "C9 survival bound",
        frac >= 0.45,
        elapsed,
        60.0,
        f"bid never dropped below 0.3 in {frac:.3f} of 1000 replicas "
        f"(>=0.45; analytic floor 0.5)",
    )


def test_c10_discrete_image_invariants():
    pair = make_evenodd_pair()
    t0 = time.perf_counter()
    traj = run(
        SimConfig(
            pair=pair, events=10_000, seed=2210, snapshot_at=tuple(range(0, 10_000, 250))
        )
    )
    books = [
        OrderBook(snap.interval, dict(snap.buys), dict(snap.sells))
        for _, snap in sorted(traj.snapshots.items())
    ]
    books.append(traj.final_book)
    allowed = {1.0, 2.0, 3.0}
    ok, nonempty = True, 0
    for book in books:
        img = image_book(book, 2.0)  # raises if the image crosses
        prices = set(img.buy_counts) | set(img.sell_counts)
        ok = ok and prices <= allowed
        if img.buy_counts and img.sell_counts:
            nonempty += 1
            ok = ok and max(img.buy_counts) < min(img.sell_counts)
    elapsed = time.perf_counter() - t0
    verdict(
        "C10 discrete image",
        ok and nonempty >= 10,
        elapsed,
        5.0,
        f"{len(books)} snapshots: image prices in {{1,2,3}}, "
        f"non-crossing with both sides resting in {nonempty}",
    )


def test_c11_determinism_and_throughput():
    pair = make_uniform_pair()
    buys = tuple(np.linspace(0.001, 0.4, 500_000))
    sells = tuple(np.linspace(0.6, 0.999, 500_000))

    def timed(events):
        cfg = SimConfig(
            pair=pair, events=events, seed=2211, initial_buys=buys, initial_sells=sells
        )
        start = time.perf_counter()
        traj = run(cfg)
        return time.perf_counter() - start, traj

    t0 = time.perf_counter()
    t_setup, _ = timed(1)
    t_full, a = timed(1_000_001)
    _, b = timed(1_000_001)
    identical = all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("times", "kinds", "trade_prices", "bids", "asks")
    )
    # difference of the two horizons isolates the marginal per-event cost
    rate = 1_000_000 / (t_full - t_setup)
    elapsed = time.perf_counter() - t0
    verdict(
        "C11 determinism and throughput",
        identical and rate >= 2e5,
        elapsed,
        120.0,
        f"byte-identical rerun={identical}, sustained {rate:,.0f} events/s "
        f"(>=200,000) at ~1e6 resting orders",
    )
