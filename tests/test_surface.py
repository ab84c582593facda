"""The public surface of lobmm, pinned name by name.

A name, method or field added here has to be added to these lists too, so
widening the API is a visible edit; a name only tests use belongs in the
tests.
"""

from __future__ import annotations

import dataclasses

import pytest

import lobmm
from lobmm import FreezeReport, MonotoneCurve, OrderBook, RateTable, WindowEstimate


def public_attributes(cls) -> list:
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(n for n in names if not n.startswith("_"))


def test_package_exports():
    assert sorted(lobmm.__all__) == [
        "AssumptionError",
        "AssumptionReport",
        "BlockRng",
        "BookSnapshot",
        "DemandSupplyPair",
        "Direction",
        "DiscreteMap",
        "DomainError",
        "EmptySupportError",
        "Event",
        "EventKind",
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
        "ReplicaStats",
        "SimConfig",
        "SingularCoefficientError",
        "Trajectory",
        "TrajectorySummary",
        "VacuousBoundError",
        "WalrasPoint",
        "WindowEstimate",
        "WindowReport",
        "__version__",
        "check_assumptions",
        "classify_recurrence",
        "detect_freeze",
        "estimate_window",
        "freeze_support",
        "gambler_bound",
        "generator_for",
        "image_book",
        "next_event",
        "phi",
        "recurrence_sweep",
        "replica_stats",
        "restrict_event",
        "run",
        "run_ensemble",
        "solve_luckock",
        "v_l",
        "walras",
    ]
    assert all(hasattr(lobmm, name) for name in lobmm.__all__)


# public methods, properties and fields of the classes callers touch most
ATTRIBUTES = {
    OrderBook: [
        "add_buy",
        "add_sell",
        "apply",
        "ask",
        "bid",
        "buy_counts",
        "buy_heap",
        "hi",
        "interval",
        "lo",
        "n_buys",
        "n_sells",
        "sell_counts",
        "sell_heap",
        "snapshot",
        "take_ask",
        "take_bid",
    ],
    MonotoneCurve: [
        "allow_negative",
        "direction",
        "hi",
        "inverse",
        "lo",
        "max_rate",
        "prices",
        "rates",
        "sample_from_target",
        "total_mass",
        "value_at",
    ],
    RateTable: ["from_pair", "inv_total", "thresholds"],
    WindowEstimate: ["hi", "lo"],
    FreezeReport: ["midpoint", "start_index", "t_freeze"],
}


@pytest.mark.parametrize("cls", list(ATTRIBUTES), ids=lambda cls: cls.__name__)
def test_class_attributes(cls):
    assert public_attributes(cls) == ATTRIBUTES[cls]
