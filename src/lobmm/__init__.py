"""Limit order book model with market makers: simulation and theory.

The model: buyers and sellers arrive as Poisson streams over a price
interval, post limit orders or trade at the quotes, and a market maker
reinforces both best quotes at a flat rate.  This package simulates the
resulting Markov chain exactly and computes the matching steady-state
quantities (Walras equilibrium, the competitive window that supports
recurrent trading, stationary quote distributions, freeze behaviour)
from the demand and supply curves alone, so each side can be checked
against the other.

Layout:

- ``curves``: piecewise-linear demand/supply curves, inverses, measures
- ``book``: the two-sided order book, as the event loop keeps it
- ``engine``: the event loop and its transitions, trajectories, ensembles
- ``theory``: window boundaries, stationary profiles, freeze criteria
- ``cli``: command line front end (``lobmm``)
"""

from __future__ import annotations

from .book import BookSnapshot, OrderBook
from .curves import (
    AssumptionError,
    DemandSupplyPair,
    Direction,
    DomainError,
    MonotoneCurve,
    PriceInterval,
    WalrasPoint,
    walras,
)
from .engine import (
    FreezeReport,
    InsufficientDataError,
    InvalidMapError,
    RateTable,
    SimConfig,
    Trajectory,
    TrajectorySummary,
    WindowEstimate,
    detect_freeze,
    estimate_window,
    generator_for,
    image_book,
    quote_cdfs,
    run,
    run_ensemble,
)
from .theory import (
    EmptySupportError,
    FreezeSupport,
    LuckockSolution,
    PhiTable,
    Recurrence,
    SingularCoefficientError,
    VacuousBoundError,
    WindowReport,
    classify_recurrence,
    freeze_support,
    gambler_bound,
    phi,
    recurrence_sweep,
    solve_luckock,
    v_l,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BookSnapshot",
    "DemandSupplyPair",
    "Direction",
    "DomainError",
    "EmptySupportError",
    "FreezeReport",
    "FreezeSupport",
    "InsufficientDataError",
    "InvalidMapError",
    "LuckockSolution",
    "MonotoneCurve",
    "OrderBook",
    "PhiTable",
    "PriceInterval",
    "RateTable",
    "Recurrence",
    "SimConfig",
    "SingularCoefficientError",
    "Trajectory",
    "TrajectorySummary",
    "VacuousBoundError",
    "WalrasPoint",
    "WindowEstimate",
    "WindowReport",
    "classify_recurrence",
    "detect_freeze",
    "estimate_window",
    "freeze_support",
    "gambler_bound",
    "generator_for",
    "image_book",
    "phi",
    "quote_cdfs",
    "recurrence_sweep",
    "run",
    "run_ensemble",
    "solve_luckock",
    "v_l",
    "walras",
    "__version__",
]
