"""The public surface of lobmm, pinned name by name.

A name, method or field added here has to be added to these lists too, so
widening the API is a visible edit; a name only tests use belongs in the
tests.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

import lobmm
import lobmm.engine
from lobmm import (
    FreezeReport,
    MonotoneCurve,
    OrderBook,
    RateTable,
    SimConfig,
    TrajectorySummary,
    WindowEstimate,
    run,
)

from conftest import make_uniform_pair

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def public_attributes(cls) -> list:
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(n for n in names if not n.startswith("_"))


def test_package_exports():
    assert sorted(lobmm.__all__) == [
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
        "__version__",
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
    ]
    assert all(hasattr(lobmm, name) for name in lobmm.__all__)


# public methods, properties and fields of the classes callers touch most
ATTRIBUTES = {
    OrderBook: [
        "ask",
        "bid",
        "buy_counts",
        "hi",
        "interval",
        "lo",
        "n_buys",
        "n_sells",
        "sell_counts",
        "snapshot",
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
        "total_mass",
        "value_at",
    ],
    RateTable: ["from_pair", "inv_total", "thresholds"],
    WindowEstimate: ["hi", "lo"],
    FreezeReport: ["midpoint", "start_index", "t_freeze"],
    TrajectorySummary: [
        "empty_book_transitions",
        "empty_buy_prob",
        "empty_sell_prob",
        "final_buys",
        "final_sells",
        "freeze_midpoint",
        "freeze_start_index",
        "freeze_time",
        "frozen",
        "max_ask",
        "min_bid",
        "n_events",
        "replica",
        "trade_count",
        "window_hi",
        "window_lo",
    ],
}


@pytest.mark.parametrize("cls", list(ATTRIBUTES), ids=lambda cls: cls.__name__)
def test_class_attributes(cls):
    assert public_attributes(cls) == ATTRIBUTES[cls]


def test_bench_tracer_still_binds(tmp_path):
    """The benchmark's tracer wraps lobmm functions by module and name and
    reads each run's record; a rename here would break its traced runs."""
    spec = importlib.util.spec_from_file_location("lobmm_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path, _name in tracer.SPANNED + tracer.COUNTED:
        _owner, _attr, raw = tracer._resolve(module, path)
        assert callable(raw) or isinstance(raw, classmethod), (module, path)
    cfg = SimConfig(pair=make_uniform_pair(), events=100, seed=1)
    attrs = tracer._attrs_run((cfg,), {}, run(cfg))
    assert attrs["events"] == 100
    assert 0 <= attrs["trades"] <= 100 and 0 <= attrs["dropped"] <= 100
    assert attrs["orders"] >= attrs["levels"] >= 0
    assert tracer._attrs_ensemble((cfg,), {"replicas": 3, "workers": 2}, None) == {"pool": 2}

    with tracer.Tracer(tmp_path) as traced:
        lobmm.engine.run(cfg)
    spans = {s["name"]: s for s in traced.spans}
    assert spans["engine.run"]["attrs"]["events"] == 100
    # the post-run reduction happens inside run(): a traced call made while
    # the tracer reads a run's attributes would, in a pool worker, flush the
    # run's span before its attributes are set
    assert spans["engine.detect_freeze"]["parent"] == spans["engine.run"]["id"]
    assert spans["engine.estimate_window"]["parent"] == spans["engine.run"]["id"]


def imported_names(path: Path) -> set:
    """Every module and name that the file at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


def test_oracle_stays_independent_of_the_engine_book():
    """The reference model shares no code with the book it checks, and the
    package never imports the reference model."""
    names = imported_names(ROOT / "tests" / "oracle.py")
    assert names, "no imports parsed"
    assert not {n for n in names if n.startswith("lobmm.book") or n.endswith(".OrderBook")}
    for path in sorted((ROOT / "src" / "lobmm").glob("*.py")):
        assert not {n for n in imported_names(path) if "oracle" in n}, path.name


def pool_scopes(path: Path) -> list:
    """``file:function`` for each mention of ``ProcessPoolExecutor`` in the
    file at ``path`` (``file:<module>`` outside any function)."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    scopes = []
    for node in ast.walk(tree):
        named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if named is None or getattr(node, named) != "ProcessPoolExecutor":
            continue
        scope = node
        while scope in parents and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = parents[scope]
        scopes.append(f"{path.name}:{getattr(scope, 'name', '<module>')}")
    return scopes


def test_one_function_starts_process_pools():
    """Every process pool of the package starts in the engine's one
    fan-out, so a second pool path with its own policy cannot return
    unnoticed."""
    scopes = [s for path in sorted((ROOT / "src" / "lobmm").glob("*.py")) for s in pool_scopes(path)]
    assert scopes and set(scopes) == {"engine.py:_in_order"}
