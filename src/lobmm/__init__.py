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
- ``pool``: the one process fan-out, for ensembles and the CSV writer
- ``cli``: command line front end (``lobmm``)

Each module loads when one of its names is first used, so ``lobmm theory``
never loads ``engine`` or ``book``.
"""

from __future__ import annotations

import importlib

# each public name and the module that defines it.  A name's module loads on
# its first access (PEP 562), so a command loads only the modules it runs:
# theory never loads the simulator.
_HOME = {
    "BookSnapshot": "book",
    "OrderBook": "book",
    "AssumptionError": "curves",
    "DemandSupplyPair": "curves",
    "Direction": "curves",
    "DomainError": "curves",
    "MonotoneCurve": "curves",
    "PriceInterval": "curves",
    "WalrasPoint": "curves",
    "walras": "curves",
    "FreezeReport": "engine",
    "InsufficientDataError": "engine",
    "InvalidMapError": "engine",
    "RateTable": "engine",
    "SimConfig": "engine",
    "Trajectory": "engine",
    "TrajectorySummary": "engine",
    "WindowEstimate": "engine",
    "detect_freeze": "engine",
    "estimate_window": "engine",
    "generator_for": "engine",
    "image_book": "engine",
    "quote_cdfs": "engine",
    "run": "engine",
    "run_ensemble": "engine",
    "EmptySupportError": "theory",
    "FreezeSupport": "theory",
    "LuckockSolution": "theory",
    "PhiTable": "theory",
    "Recurrence": "theory",
    "SingularCoefficientError": "theory",
    "VacuousBoundError": "theory",
    "WindowReport": "theory",
    "classify_recurrence": "theory",
    "freeze_support": "theory",
    "gambler_bound": "theory",
    "phi": "theory",
    "recurrence_sweep": "theory",
    "solve_luckock": "theory",
    "v_l": "theory",
}


def __getattr__(name: str):
    # not bound here: every access reads the name from its module, so a
    # name rebound there is the one the package hands out
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]
