"""The public surface of lobmm, pinned name by name.

A name, method or field added here has to be added to these lists too, so
widening the API is a visible edit; a name only tests use belongs in the
tests.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lobmm
import lobmm.engine
from lobmm import (
    FreezeReport,
    MonotoneCurve,
    OrderBook,
    PriceInterval,
    RateTable,
    SimConfig,
    Trajectory,
    TrajectorySummary,
    WindowEstimate,
    run,
)

from conftest import make_evenodd_pair, make_kinked_pair, make_uniform_pair

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
    Trajectory: [
        "asks",
        "bids",
        "burn_index",
        "config",
        "end_time",
        "final_book",
        "kinds",
        "n_events",
        "snapshots",
        "summary",
        "times",
        "trade_prices",
    ],
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
    reads each run's record; a rename here would break its traced runs.
    It reads a frozen replica and a restricted run, whose dropped orders
    it counts from the kinds that the trajectory replays.  The replay runs
    after the run's span has closed, so it may call nothing the tracer
    spans or counts: in a pool worker, a span opened there would flush the
    run's span before its attributes are set."""
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

    frozen = SimConfig(pair=make_uniform_pair(), events=20_000, seed=1, rho=0.6, replica=1)
    restricted = SimConfig(pair=make_uniform_pair(), events=20_000, seed=1, restriction=PriceInterval(0.4, 0.6))
    read = {}
    for config in (cfg, frozen, restricted):
        traj = run(config)
        attrs = tracer._attrs_run((config,), {}, traj)
        assert attrs["dropped"] == np.count_nonzero(traj.kinds == lobmm.engine.DROPPED)
        assert (attrs["events"], attrs["trades"]) == (traj.summary.n_events, traj.summary.trade_count)
        with tracer.Tracer(tmp_path) as traced:
            lobmm.engine.run(config)
        spans = {s["name"]: s for s in traced.spans}
        assert spans["engine.run"]["attrs"] == attrs
        # the post-run reduction happens inside run(): a traced call made
        # while the tracer reads a run's attributes would, in a pool worker,
        # flush the run's span before its attributes are set
        assert spans["engine.detect_freeze"]["parent"] == spans["engine.run"]["id"]
        assert spans["engine.estimate_window"]["parent"] == spans["engine.run"]["id"]
        read[config] = traj.summary, attrs
        fresh = run(config)
        with tracer.Tracer(tmp_path) as traced:
            spans, counts = list(traced.spans), dict(traced.counts)
            assert fresh.kinds.shape == (fresh.n_events,)
            assert (traced.spans, traced.stack, dict(traced.counts)) == (spans, [], counts)
            assert tracer._attrs_run((config,), {}, fresh) == attrs
            assert (traced.spans, traced.stack, dict(traced.counts)) == (spans, [], counts)
    assert read[frozen][0].frozen and read[restricted][1]["dropped"] > 0
    # a frozen replica's summary never replays it, so the read inside the
    # tracer above did
    assert "kinds" not in vars(run(frozen))


def test_cli_run_is_read_from_the_engine(monkeypatch):
    """``cli`` loads the engine only in the commands that run it, but still
    offers ``cli.run``, read from ``engine`` on each access and never bound,
    so a wrapper the tracer puts on ``engine.run`` is what ``cli.run`` is."""
    import lobmm.cli as cli

    assert cli.run is lobmm.engine.run
    stand_in = object()
    monkeypatch.setattr(lobmm.engine, "run", stand_in)
    assert cli.run is stand_in
    assert "run" not in vars(cli)
    with pytest.raises(AttributeError, match="no attribute 'v_l'"):
        cli.v_l


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
    """Every process pool of the package starts in its one fan-out,
    ``pool._in_order``, so a second pool path with its own policy cannot
    return unnoticed."""
    scopes = [s for path in sorted((ROOT / "src" / "lobmm").glob("*.py")) for s in pool_scopes(path)]
    assert scopes and set(scopes) == {"pool.py:_in_order"}


STARTUP = """
import contextlib, io, json, sys
from lobmm.cli import load_config, main, parse_model

def loaded():
    return sorted(m for m in sys.modules if m.startswith("lobmm.") or m in ("numpy", "numpy.ma"))

config, sweep, refused, out = sys.argv[1:]
parse_model(load_config(config))
after_parse = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
after_help = loaded()
assert main(["theory", refused, "--out", out + "/refused"]) == 2
after_refused = loaded()
assert main(["theory", config, "--out", out + "/theory"]) == 0
after_theory = loaded()
assert main(["sweep", sweep, "--out", out + "/sweep"]) == 0
after_commands = loaded()
names = {}
exec("from lobmm import *", names)
print(json.dumps([
    after_parse, after_help, after_refused, after_theory, after_commands,
    sorted(set(names) - {"__builtins__"}),
]))
"""


# the uniform pair, and a 4-segment kinked pair whose inner knots reach
# solve_luckock's grid
STARTUP_MODELS = {
    "uniform": {
        "interval": [0.0, 1.0],
        "demand": [[0.0, 1.0], [1.0, 0.0]],
        "supply": [[0.0, 0.0], [1.0, 1.0]],
    },
    "kinked": {
        "interval": [0.0, 1.0],
        "demand": [[k / 4, 1.5 * (1 - k / 4) ** 2 + 0.05] for k in range(5)],
        "supply": [[k / 4, 1.2 * (k / 4) ** 1.5 + 0.02] for k in range(5)],
    },
}


def test_theory_commands_never_load_the_simulator(tmp_path):
    """A fresh interpreter that parses a model, then runs theory and a
    volume sweep, never loads the engine or the book, nor numpy.ma
    (np.unique imports it); parsing alone loads no theory.  Parsing, the
    help text and a config refused while parsing (exit 2) load no numpy
    either; theory and sweep do, for their tables.  The star import still
    binds every public name."""
    for name, model in STARTUP_MODELS.items():
        config, sweep = tmp_path / f"{name}.json", tmp_path / f"{name}-sweep.json"
        refused = tmp_path / f"{name}-refused.json"
        config.write_text(json.dumps({"model": model}))
        sweep.write_text(json.dumps({"model": model, "sweep": {"volume": [0.6, 0.8]}}))
        # a negative supply rate: MonotoneCurve refuses it
        refused.write_text(json.dumps({"model": dict(model, supply=[[0.0, -0.5], [1.0, 1.0]])}))
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP, str(config), str(sweep), str(refused), str(tmp_path / name)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "rates must be nonnegative" in proc.stderr
        *stages, names = json.loads(proc.stdout)
        after_parse, after_help, after_refused, after_theory, after_commands = stages
        assert "lobmm.theory" not in after_parse
        assert "lobmm.theory" in after_commands
        for module in ("lobmm.engine", "lobmm.book", "numpy.ma"):
            assert all(module not in stage for stage in stages)
        for stage in (after_parse, after_help, after_refused):
            assert "numpy" not in stage
        assert "numpy" in after_theory and "numpy" in after_commands
        assert names == sorted(lobmm.__all__) and len(names) == 41


CURVES_BEFORE_NUMPY = """
import json, pickle, sys
from lobmm.curves import Direction, MonotoneCurve

curves = [MonotoneCurve(p, r, Direction(d)) for p, r, d in json.loads(sys.argv[1])]
stored = pickle.dumps(curves)
assert "numpy" not in sys.modules
import numpy as np

def arrays(curve):
    xs = np.linspace(curve.lo, curve.hi, 257)
    vs = np.linspace(0.0, curve.max_rate, 257)
    return [curve.value_at(xs).tolist(), curve.inverse(vs).tolist()]

restored = pickle.loads(stored)
print(json.dumps({
    "arrays": [arrays(c) for c in curves],
    "restored": [arrays(c) for c in restored],
    "equal": [restored == curves, pickle.loads(pickle.dumps(curves)) == curves],
}))
"""

# sha256 over the array answers below, recorded when every curve built its
# interpolation tables at construction
CURVE_ARRAYS_SHA256 = "08f855e5b64d43f2e283da219d7014aa4b397036324d5079e26ad9265a03b8fe"


def test_curves_built_before_numpy_answer_arrays_as_before():
    """A curve built before numpy loads makes its interpolation tables on
    first array use: its array ``value_at`` and ``inverse`` give the bits of
    a curve built with numpy loaded, and the bits recorded when every
    curve built its tables at construction.  It compares equal to itself
    after a pickle round trip, whether or not it has built its tables."""
    curves = [c for p in (make_kinked_pair(32), make_evenodd_pair(3)) for c in (p.demand, p.supply)]
    spec = json.dumps([[c.prices, c.rates, c.direction.value] for c in curves])
    proc = subprocess.run(
        [sys.executable, "-c", CURVES_BEFORE_NUMPY, spec], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    digest = hashlib.sha256()
    for curve, (values, levels) in zip(curves, got["arrays"]):
        xs = np.linspace(curve.lo, curve.hi, 257)
        vs = np.linspace(0.0, curve.max_rate, 257)
        assert values == curve.value_at(xs).tolist()
        assert levels == curve.inverse(vs).tolist()
        digest.update(np.array(values).tobytes())
        digest.update(np.array(levels).tobytes())
    assert digest.hexdigest() == CURVE_ARRAYS_SHA256
    assert got["restored"] == got["arrays"]
    assert got["equal"] == [True, True]


BLAS_THREADS = """
import json, os
import lobmm.cli
import numpy

blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], blas, threads]))
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_one_blas_thread_unless_told_otherwise(preset):
    """Importing lobmm.cli caps OpenBLAS at one thread before numpy loads,
    unless the environment already sets OPENBLAS_NUM_THREADS.  Where
    numpy uses OpenBLAS and the process's threads can be counted, the
    capped process runs its main thread only."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    value, blas, threads = json.loads(proc.stdout)
    assert value == (preset or "1")
    if preset is None and "openblas" in blas and threads is not None:
        assert threads == 1
