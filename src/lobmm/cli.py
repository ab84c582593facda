"""Command line front end: config-driven experiments with file artifacts.

Subcommands: ``theory`` (analytic window report), ``simulate``
(trajectories and book histograms), ``compare`` (simulation against the
stationary quote law on a restricted window), ``freeze`` (replica
ensembles in the high maker-rate regime), ``sweep`` (window geometry
across maker rates, or recurrence across volumes).

One JSON config document drives everything; each command rejects every
key it does not read (``READS``).  Command line flags override config
values, and every command is a pure function of (config, flags):
rerunning writes byte-identical artifacts.

Exit codes: 0 success; 2 config or validation error, a config that
asks for more memory than there is, a run horizon beyond the event limit
(``_check_horizon``), or an output path that cannot be written; 3 a structural assumption on the curves fails; 4 a compare run
exceeded its tolerances.  A command that fails (exit 2 or 3, or an
uncaught error) removes the files it wrote and the directories it made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# lobmm makes no BLAS call, but importing numpy starts OpenBLAS's thread
# pool, whose idle threads spin and cost CPU time; one thread is enough.  A
# value already in the environment wins.  This must run before numpy loads,
# which this module leaves to the functions that make or read arrays, so
# that parsing a config never loads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curves import (
    AssumptionError,
    DemandSupplyPair,
    Direction,
    MonotoneCurve,
    PriceInterval,
    walras,
)
from .pool import _in_order, _pool_size

# each command imports the engine and the theory where it runs them, so
# theory and sweep never load the simulator
if TYPE_CHECKING:
    import numpy as np

    from .book import OrderBook
    from .engine import SimConfig, Trajectory


def __getattr__(name: str):
    # ``cli.run`` is read from the engine on each access and never bound
    # here, so it is whatever ``engine.run`` is now: the benchmark's tracer
    # wraps ``engine.run`` and expects ``cli.run`` to be the wrapper
    if name != "run":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .engine import run

    return run


SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_TOLERANCE = 4

KIND_TOKENS = ("buy_market", "sell_market", "buy_limit", "sell_limit", "maker", "dropped")
_BOOK_HEADER = ("side", "price", "count")
# the columns of freeze's replicas.csv: fields of each replica's TrajectorySummary
_REPLICA_FIELDS = (
    "replica", "n_events", "frozen", "freeze_time", "freeze_midpoint",
    "trade_count", "min_bid", "max_ask", "final_buys", "final_sells",
)


class ConfigError(ValueError):
    """The config document is malformed or inconsistent."""


# -- config parsing ----------------------------------------------------------

# a config value's parser: (value, its dotted key) -> the checked value
Parser = Callable[[Any, str], Any]


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    # Python's JSON reader admits NaN, Infinity, 1e999 and integers beyond
    # the float range
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _checked(parse: Parser, ok: Callable[[Any], bool], rule: str) -> Parser:
    """``parse``, then a ConfigError ``"<key> <rule>"`` unless ``ok(value)``."""

    def parse_checked(value: Any, where: str) -> Any:
        parsed = parse(value, where)
        if not ok(parsed):
            raise ConfigError(f"{where} {rule}")
        return parsed

    return parse_checked


def _int_at_least(least: int, rule: str) -> Parser:
    return _checked(_as_int, lambda n: n >= least, rule)


_NONNEGATIVE = _checked(_as_number, lambda x: x >= 0.0, "must be nonnegative")


def _list_of(parse: Parser, what: str) -> Parser:
    def parse_list(value: Any, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list of {what}, got {value!r}")
        return tuple(parse(item, f"{where} entry") for item in value)

    return parse_list


def _interval(value: Any, where: str) -> Tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be [lo, hi]")
    return _as_number(value[0], f"{where} lo"), _as_number(value[1], f"{where} hi")


def _curve(direction: Direction) -> Parser:
    def parse_curve(spec: Any, where: str) -> MonotoneCurve:
        if not isinstance(spec, list) or len(spec) < 2:
            raise ConfigError(f"{where} must be a list of at least two [price, rate] pairs")
        prices, rates = [], []
        for i, item in enumerate(spec):
            if not isinstance(item, list) or len(item) != 2:
                raise ConfigError(f"{where}[{i}] must be a [price, rate] pair")
            prices.append(_as_number(item[0], f"{where}[{i}] price"))
            rates.append(_as_number(item[1], f"{where}[{i}] rate"))
        return MonotoneCurve(prices=tuple(prices), rates=tuple(rates), direction=direction)

    return parse_curve


def _as_is(value: Any, where: str) -> Any:
    return value


def _formats(value: Any, where: str) -> List[str]:
    if not isinstance(value, list) or not value or any(f not in ("csv", "json") for f in value):
        raise ConfigError(f'{where} must be a nonempty subset of ["csv", "json"]')
    return value


_SIMULATING = ("simulate", "compare", "freeze", "sweep")
_ALL = ("theory",) + _SIMULATING

# a key without a default that must be set: in the model block always, in a
# nested object (run.map, ...) whenever that object is set
REQUIRED = object()

# The config contract, one row per key: how its value is parsed and
# checked, its default (None: unset unless the config or a flag sets it),
# and the commands that read it.  Every other key, at any depth, is an
# error, so a config cannot describe a model the command does not run.
KEYS: Dict[str, Tuple[Parser, Any, Tuple[str, ...]]] = {
    "model.interval": (_interval, REQUIRED, _ALL),
    "model.demand": (_curve(Direction.DECREASING), REQUIRED, _ALL),
    "model.supply": (_curve(Direction.INCREASING), REQUIRED, _ALL),
    "model.rho": (_NONNEGATIVE, 0.0, _ALL),
    "run.events": (_as_int, None, _SIMULATING),
    "run.duration": (_as_number, None, _SIMULATING),
    "run.seed": (_as_int, None, _SIMULATING),
    "run.burn_in": (_as_number, 0.5, ("simulate", "compare", "sweep")),
    "run.replicas": (_int_at_least(1, "must be at least 1"), 1, ("simulate", "freeze")),
    "run.workers": (
        _int_at_least(0, "(--workers) must be nonnegative; 0 means one per CPU"),
        1,
        ("freeze",),
    ),
    "run.restriction": (_as_is, None, ("simulate", "compare")),  # see parse_restriction
    "run.restriction.volume": (_as_number, REQUIRED, ("simulate", "compare")),
    "run.map.divisor": (
        _checked(_as_number, lambda d: d > 0.0, "must be positive"),
        REQUIRED,
        ("simulate",),
    ),
    "output.directory": (
        _checked(_as_is, lambda d: isinstance(d, str), "must be a string"),
        "out",
        _ALL,
    ),
    "output.histogram_bins": (_int_at_least(1, "must be positive"), 100, ("simulate", "freeze")),
    "output.snapshot_at": (_list_of(_as_int, "event indices"), [], ("simulate",)),
    "output.formats": (_formats, ["csv", "json"], ("theory", "simulate", "compare", "freeze")),
    "compare.tolerance_cdf": (_NONNEGATIVE, 0.05, ("compare",)),
    "compare.tolerance_empty": (_NONNEGATIVE, 0.02, ("compare",)),
    "compare.grid_size": (_as_int, 4096, ("compare",)),
    "freeze.allow_subcritical": (_as_bool, False, ("freeze",)),
    "freeze.gambler.y": (_as_number, REQUIRED, ("freeze",)),
    "sweep.rho": (_list_of(_as_number, "numbers"), None, ("sweep",)),
    "sweep.volume": (_list_of(_as_number, "numbers"), None, ("sweep",)),
}

# command -> the keys it reads.  A volume sweep simulates nothing and reads
# no run block (check_contract).
READS: Dict[str, Tuple[str, ...]] = {
    command: tuple(key for key, (_, _, readers) in KEYS.items() if command in readers)
    for command in _ALL
}

# flag -> (the config key it overrides, its type, its help).  Every command
# takes --seed, so one seed can drive a whole workflow (theory, which
# simulates nothing, ignores it); any other flag exists only on the
# commands that read its key.
FLAGS: Dict[str, Tuple[str, type, str]] = {
    "--seed": ("run.seed", int, "master seed"),
    "--out": ("output.directory", str, "output directory"),
    "--workers": ("run.workers", int, "worker processes"),
}

_FLAG_DEST = {key: flag[2:] for flag, (key, _, _) in FLAGS.items()}
_HORIZON = ("run.events", "run.duration", "run.seed")


def check_contract(doc: Dict[str, Any], command: str) -> None:
    """Reject every key of ``doc``, at any depth, that ``command`` does not read."""
    reads = READS[command]
    if command == "sweep" and "volume" in doc.get("sweep", {}):
        reads = tuple(k for k in reads if not k.startswith("run."))
    unread: List[str] = []

    def visit(node: Dict[str, Any], prefix: str) -> None:
        for name, value in node.items():
            key = prefix + name
            nested = any(k.startswith(key + ".") for k in reads)
            if "." in name or not (key in reads or nested):
                unread.append(key)
            elif nested and isinstance(value, dict):
                visit(value, key + ".")

    visit(doc, "")
    if unread:
        raise ConfigError(f"lobmm {command} does not read config key(s): {', '.join(unread)}")


_ABSENT = object()


class Config:
    """What one command reads from the config document and the flags.

    ``get(key)`` hands the command the parsed value of a key it declares in
    ``READS``: the flag's value when the flag is given, else the config's,
    else the default (None when there is none).  A config value is checked
    even where a flag overrides it.  Asking for a key the command does not
    declare is a programming error and raises KeyError.
    """

    def __init__(self, doc: Dict[str, Any], command: str, args: Any = None) -> None:
        self.doc = doc
        self.command = command
        self.args = args

    def get(self, key: str) -> Any:
        if key not in READS[self.command]:
            raise KeyError(f"lobmm {self.command} does not declare config key {key}")
        parse, default, _ = KEYS[key]
        found = self._find(key, default is REQUIRED)
        value = found if found is _ABSENT else parse(found, key)
        flag = getattr(self.args, _FLAG_DEST.get(key, ""), None)
        if flag is not None:
            return parse(flag, key)
        if value is not _ABSENT:
            return value
        return None if default is None or default is REQUIRED else parse(default, key)

    def _find(self, key: str, required: bool) -> Any:
        """The document's value at ``key``, or _ABSENT.  A block that is
        not there reads as empty, a nested object that is not there (or
        null) as unset."""
        *path, name = key.split(".")
        node = self.doc.get(path[0], {})
        for depth in range(1, len(path)):
            node = node.get(path[depth])
            if node is None:
                return _ABSENT
            if not isinstance(node, dict):
                raise ConfigError(f"{'.'.join(path[: depth + 1])} must be an object")
        if name in node:
            return node[name]
        if not required:
            return _ABSENT
        if path[0] not in self.doc:
            raise ConfigError(f"missing required key '{path[0]}' in the config")
        raise ConfigError(f"missing required key '{name}' in {'.'.join(path)}")


def load_config(path: str) -> Dict[str, Any]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if not isinstance(doc[key], dict):
            raise ConfigError(f"config block '{key}' must be an object")
    return doc


def _model(cfg: Config) -> Tuple[DemandSupplyPair, float]:
    lo, hi = cfg.get("model.interval")
    demand = cfg.get("model.demand")
    supply = cfg.get("model.supply")
    if (demand.lo, demand.hi) != (lo, hi) or (supply.lo, supply.hi) != (lo, hi):
        raise ConfigError("model curves must span exactly model.interval")
    return DemandSupplyPair(demand, supply), cfg.get("model.rho")


def parse_model(doc: Dict[str, Any]) -> Tuple[DemandSupplyPair, float]:
    """The curve pair and maker rate of ``doc``; every command reads its
    model block the same way."""
    return _model(Config(doc, "theory"))


def parse_restriction(
    cfg: Config, pair: DemandSupplyPair
) -> Tuple[Optional[PriceInterval], Optional[float]]:
    """The run's window (None: unrestricted) plus, when derivable, the
    volume it restricts to.

    A ``{"volume": v}`` spec maps through the curve inverses; an explicit
    ``[lo, hi]`` must name a level window (demand at lo matching supply
    at hi), since the analytic layer is parameterized by volume.
    """
    spec = cfg.get("run.restriction")
    if spec is None:
        return None, None
    if isinstance(spec, dict):
        v = cfg.get("run.restriction.volume")
        lo = float(pair.demand.inverse(v))
        hi = float(pair.supply.inverse(v))
        if not lo < hi:
            raise ConfigError(f"restriction volume {v} gives an empty window [{lo}, {hi}]")
        return PriceInterval(lo, hi), v
    if not isinstance(spec, list) or len(spec) != 2:
        raise ConfigError('run.restriction must be [lo, hi] or {"volume": v}')
    lo, hi = _interval(spec, "run.restriction")
    if not lo < hi:
        raise ConfigError("run.restriction must satisfy lo < hi")
    v_lo = float(pair.demand.value_at(lo))
    v_hi = float(pair.supply.value_at(hi))
    if abs(v_lo - v_hi) <= 1e-9 * max(1.0, abs(v_lo), abs(v_hi)):
        return PriceInterval(lo, hi), 0.5 * (v_lo + v_hi)
    return PriceInterval(lo, hi), None


def sim_config(cfg: Config, pair: DemandSupplyPair, rho: float, **extra) -> SimConfig:
    """The run the config's horizon and seed describe, at maker rate
    ``rho``; ``extra`` sets the remaining :class:`SimConfig` fields."""
    from .engine import SimConfig

    events, duration, seed = map(cfg.get, _HORIZON)
    if events is not None and duration is not None:
        raise ConfigError("run block sets both events and duration")
    if events is None and duration is None:
        raise ConfigError("run block must set events or duration")
    if seed is None:
        raise ConfigError("a seed is required: set run.seed or pass --seed")
    return SimConfig(pair=pair, rho=rho, events=events, duration=duration, seed=seed, **extra)


# the most events one command may expect to draw over all its runs: 500
# times the largest total horizon in the shipped configs, tests and benchmark
# (200 replicas of 1e5 events), so it refuses only horizons that would run
# for hours or more on any machine
_MAX_EVENTS = 10**10


def _check_horizon(base: SimConfig, copies: int, rhos: Sequence[float] = ()) -> None:
    """Refuse, before any work, a command whose runs expect more than
    ``_MAX_EVENTS`` events in all: ``copies`` runs of ``base`` at each of
    ``rhos`` (default: ``base.rho``).  A run expects its ``events``, or its
    ``duration`` times the total event rate, and at least one random block
    (``engine._BLOCK`` events), which it draws before its first event."""
    from .engine import _BLOCK, RateTable

    rhos = rhos or (base.rho,)
    if base.events is not None:
        per_copy = max(base.events, _BLOCK) * len(rhos)
    else:
        per_copy = 0.0
        for rho in rhos:
            inv_total = RateTable.from_pair(base.pair, rho).inv_total
            per_copy += max(base.duration / inv_total, _BLOCK) if inv_total > 0.0 else math.inf
    # a config's integers may lie beyond the float range
    expected = float(min(per_copy, math.inf)) * float(min(copies, math.inf))
    if expected > _MAX_EVENTS:
        raise ConfigError(
            f"the run horizon expects {expected:.3g} events in all, at least {_BLOCK} "
            f"per run, over the limit of {_MAX_EVENTS:.0e} events per command"
        )


class OutputSettings:
    """The output directory, and what a command wrote there."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        # the files the command opened for writing and the directories it
        # made, in that order; main() removes them when the command fails
        self.written: List[Path] = []

    def csv(self, path: Path, header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
        write_csv(path, header, (columns,), self.written)

    def json(self, path: Path, payload: Dict[str, Any]) -> None:
        write_json(path, payload, self.written)

    def make_dir(self, path: Path) -> None:
        made = [p for p in (path, *path.parents) if not p.exists()]
        path.mkdir(parents=True, exist_ok=True)
        self.written.extend(reversed(made))

    def remove_written(self) -> None:
        """Take back what a failed command wrote: its files, then the
        directories it made, last first.  Files it did not write stay, and
        so do the directories that hold them."""
        for path in reversed(self.written):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
            except OSError:
                pass  # e.g. a directory that still holds files the command did not write
        self.written.clear()


# -- deterministic artifact writers ------------------------------------------


def _jsonable(value: Any) -> Any:
    """Replace non-finite floats (not valid JSON) by null, recursively."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # a numpy scalar exists only once numpy has loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.floating, np.integer)):
        return _jsonable(float(value))
    return value


def _open_artifact(path: Path, written: Optional[List[Path]]):
    fh = path.open("w", newline="")
    if written is not None:
        written.append(path)
    return fh


def write_json(path: Path, payload: Dict[str, Any], written: Optional[List[Path]] = None) -> None:
    """Write ``payload`` under the schema version, keys sorted; ``written``,
    when given, records the path once the file is open."""
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
    with _open_artifact(path, written) as fh:
        fh.write(text)


_BLOCK_ROWS = 8192
# tables of at least this many blocks are formatted in worker processes
_POOL_BLOCKS = 4
_NEEDS_QUOTING = frozenset(',"\r\n')


def write_csv(
    path: Path,
    header: Sequence[str],
    blocks: Iterable[Sequence[Sequence[Any]]],
    written: Optional[List[Path]] = None,
) -> None:
    """Write ``blocks`` of rows under ``header``, one line per row;
    ``written``, when given, records the path once the file is open.  A
    block is a sequence of equal-length columns of any length, one per
    header field.

    Cell contract: a float is written as its ``repr`` and NaN as an empty
    field, an int as ``str``, a str token as is.  A column is a float or
    integer numpy array, or a sequence whose cells are all Python floats,
    all Python ints or all str tokens; any other cell (None, bool, a numpy
    scalar, a mix of types) raises TypeError.  Nothing is quoted, so a
    token holding a comma, a double quote or a line break raises ValueError,
    as does a table of one column (a lone empty field would be a blank
    line).

    Each block is cut into pieces of at most ``_BLOCK_ROWS`` rows, read as
    they are written, and a piece's text depends on its own cells only; so
    the bytes depend neither on how the rows are split into blocks nor on
    the CPU count, and memory does not grow with the row count.  Once the
    first ``_POOL_BLOCKS`` pieces are read, the pieces are formatted in
    worker processes, one per piece read ahead and never more than the
    CPUs (so 2 on a 2-CPU host).  They run through the
    package's one fan-out (``pool._in_order``), which bounds the pieces in
    flight, and the main process writes the texts in row order.  Every
    worker has exited when this returns or raises.
    """
    if len(header) < 2:
        raise ValueError(f"{path.name}: need at least two columns")
    pieces = _pieces(path, len(header), blocks)
    head = list(islice(pieces, max(_POOL_BLOCKS, os.cpu_count() or 1)))
    size = _pool_size(len(head)) if len(head) >= _POOL_BLOCKS else 1
    texts = _in_order(_block_text, chain(head, pieces), size)
    with _open_artifact(path, written) as fh, closing(texts):
        fh.write(",".join(_fields(list(header))) + "\n")
        fh.writelines(texts)


def _pieces(path: Path, width: int, blocks: Iterable[Sequence[Sequence[Any]]]):
    """``blocks``, each checked to hold ``width`` equal-length columns, in
    pieces of at most ``_BLOCK_ROWS`` rows."""
    for block in blocks:
        if len(block) != width or any(len(col) != len(block[0]) for col in block):
            raise ValueError(f"{path.name}: a block needs {width} columns of equal length")
        for s in range(0, len(block[0]), _BLOCK_ROWS):
            yield [col[s : s + _BLOCK_ROWS] for col in block]


def _block_text(block: Sequence[Sequence[Any]]) -> str:
    """One piece of rows, given as its columns, as CSV lines."""
    return "\n".join(map(",".join, zip(*map(_fields, block)))) + "\n"


def _fields(cells: Sequence[Any]) -> List[str]:
    """One block of one column as CSV fields (the contract of write_csv).

    A float64 block where at most half the cells are distinct formats each
    distinct bit pattern once, so -0.0 and 0.0 stay apart.
    """
    np = sys.modules.get("numpy")  # no array exists before numpy loads
    is_array = np is not None and isinstance(cells, np.ndarray)
    if is_array and cells.dtype == np.float64:
        keys, inverse = np.unique(cells.view(np.int64), return_inverse=True)
        if 2 * len(keys) <= len(cells):
            distinct = _float_fields(keys.view(np.float64).tolist())
            return np.array(distinct, dtype=object)[inverse].tolist()
    if is_array and cells.dtype.kind in "fiu":
        values = cells.tolist()
        cell_type = float if cells.dtype.kind == "f" else int
    else:
        values = cells.tolist() if is_array else list(cells)
        types = set(map(type, values))
        if len(types) > 1 or not types <= {float, int, str}:
            names = ", ".join(sorted(t.__name__ for t in types))
            raise TypeError(f"a CSV column holds only floats, only ints or only str; got {names}")
        cell_type = types.pop()
    if cell_type is float:
        return _float_fields(values)
    if cell_type is int:
        return list(map(str, values))
    for token in set(values):
        if not _NEEDS_QUOTING.isdisjoint(token):
            raise ValueError(f"CSV token {token!r} would need quoting")
    return values


def _float_fields(values: List[float]) -> List[str]:
    """Python floats as fields: ``repr``, and NaN as an empty field."""
    fields = list(map(repr, values))
    return ["" if f == "nan" else f for f in fields] if "nan" in fields else fields


def _columns(rows: Sequence[Sequence[Any]], width: int) -> List[Sequence[Any]]:
    """A small table of rows turned into its ``width`` columns."""
    return list(zip(*rows)) if rows else [()] * width


def _cell(value: Any) -> Any:
    """A record field as a CSV cell: a flag as 0/1, None as NaN (an empty field)."""
    return int(value) if isinstance(value, bool) else math.nan if value is None else value


def _histogram_columns(book: OrderBook, interval: PriceInterval, bins: int):
    import numpy as np

    edges = np.linspace(interval.lo, interval.hi, bins + 1)
    bp = np.fromiter(book.buy_counts.keys(), dtype=float, count=len(book.buy_counts))
    bw = np.fromiter(book.buy_counts.values(), dtype=float, count=len(book.buy_counts))
    sp = np.fromiter(book.sell_counts.keys(), dtype=float, count=len(book.sell_counts))
    sw = np.fromiter(book.sell_counts.values(), dtype=float, count=len(book.sell_counts))
    buys, _ = np.histogram(bp, bins=edges, weights=bw)
    sells, _ = np.histogram(sp, bins=edges, weights=sw)
    return edges[:-1], edges[1:], buys.astype(np.int64), sells.astype(np.int64)


# -- subcommands -------------------------------------------------------------


def _window_payload(rep) -> Dict[str, Any]:
    return {
        "rho": rep.rho,
        "v_w": rep.v_w,
        "x_w": rep.x_w,
        "walras_unique": rep.walras_unique,
        "v_max": rep.v_max,
        "v_max_effective": rep.v_max_effective,
        "threshold": rep.threshold,
        "v_l": rep.v_l,
        "window": [rep.window.lo, rep.window.hi] if rep.window is not None else None,
        "window_length": rep.window_length,
        "boundary": rep.boundary,
        "degenerate": rep.degenerate,
        "phi_at_cap": rep.phi_at_cap,
    }


def cmd_theory(cfg: Config, out: OutputSettings) -> int:
    pair, rho = _model(cfg)
    formats = cfg.get("output.formats")
    # imported once the config is read, so a refused config loads no numpy
    from .theory import (
        _EDGE_MARGIN,
        PhiTable,
        SingularCoefficientError,
        freeze_support,
        solve_luckock,
        v_l,
    )

    out.make_dir(out.directory)
    rep = v_l(pair, rho)
    payload = {"command": "theory"}
    payload.update(_window_payload(rep))
    notes: List[str] = []

    if rep.degenerate:
        try:
            fs = freeze_support(pair, rho)
            payload["freeze_support"] = {
                "lo": fs.lo,
                "hi": fs.hi,
                "length": fs.length,
                "degenerate": fs.degenerate,
            }
        except AssumptionError as exc:
            payload["freeze_support"] = None
            notes.append(str(exc))
    else:
        # PhiTable.build's range, V_W to just below the effective ceiling; it
        # is checked under every format, so window.json never depends on them
        v_hi = rep.v_max_effective - _EDGE_MARGIN
        if not rep.v_w < v_hi:
            notes.append(
                f"phi has an empty tabulation range [{rep.v_w!r}, {v_hi!r}], "
                "so no phi.csv is written"
            )
        elif "csv" in formats:
            table = PhiTable.build(pair, rho)
            out.csv(
                out.directory / "phi.csv",
                ("volume", "phi", "error_estimate"),
                (table.volumes, table.values, table.errors),
            )
        if rep.window is not None:
            try:
                sol = solve_luckock(pair, rho, rep.window)
            except SingularCoefficientError as exc:
                sol = None
                notes.append(str(exc))
            if sol is not None and (sol.negative_edge or min(sol.f_minus_lo, sol.f_plus_hi) < 0.0):
                notes.append(
                    f"the quote law has a negative edge mass (empty_buy_prob {sol.f_minus_lo!r}, "
                    f"empty_sell_prob {sol.f_plus_hi!r}), so none is written"
                )
                sol = None
            if sol is None:
                payload["quote_law"] = None
            else:
                if "csv" in formats:
                    out.csv(
                        out.directory / "quotes.csv",
                        ("price", "bid_cdf", "ask_survival"),
                        (sol.grid, sol.f_minus, sol.f_plus),
                    )
                payload["quote_law"] = {
                    "empty_buy_prob": sol.f_minus_lo,
                    "empty_sell_prob": sol.f_plus_hi,
                    "grid_size": int(len(sol.grid)),
                }
    if notes:
        payload["notes"] = notes
    if "json" in formats:
        out.json(out.directory / "window.json", payload)
    return EXIT_OK


def _summary_payload(traj: Trajectory) -> Dict[str, Any]:
    st, window = traj.summary, traj.config.restriction
    return {
        "command": "simulate",
        "seed": traj.config.seed,
        "replica": traj.config.replica,
        "rho": traj.config.rho,
        "n_events": traj.n_events,
        "end_time": traj.end_time,
        "burn_in": traj.config.burn_in,
        "restriction": [window.lo, window.hi] if window is not None else None,
        "trade_count": st.trade_count,
        "final_buys": st.final_buys,
        "final_sells": st.final_sells,
        "empty_book_transitions": st.empty_book_transitions,
        "empty_buy_prob": st.empty_buy_prob,
        "empty_sell_prob": st.empty_sell_prob,
        "window_estimate": (
            {"lo": st.window_lo, "hi": st.window_hi} if st.window_lo is not None else None
        ),
        "freeze": (
            {
                "t": st.freeze_time,
                "midpoint": st.freeze_midpoint,
                "start_index": st.freeze_start_index,
            }
            if st.frozen
            else None
        ),
    }


def _trajectory_blocks(traj: Trajectory):
    """The rows of ``trajectory.csv``, one block per chunk of the replay,
    each at most one piece of ``write_csv`` (``engine._REPLAY_EVENTS``
    rows)."""
    import numpy as np

    tokens, i = np.array(KIND_TOKENS, dtype=object), 0
    for times, kinds, trade_prices, bids, asks in traj._chunks():
        yield range(i, i + len(kinds)), times, tokens[kinds], trade_prices, bids, asks
        i += len(kinds)


def cmd_simulate(cfg: Config, out: OutputSettings) -> int:
    from .engine import image_book, run

    pair, rho = _model(cfg)
    window, _ = parse_restriction(cfg, pair)
    burn_in, snapshot_at = cfg.get("run.burn_in"), cfg.get("output.snapshot_at")
    base = sim_config(cfg, pair, rho, restriction=window, burn_in=burn_in, snapshot_at=snapshot_at)
    replicas = cfg.get("run.replicas")
    _check_horizon(base, replicas)
    # under a duration horizon an index past the last event writes no file
    if base.events is not None and base.snapshot_at and base.snapshot_at[-1] > base.events:
        raise ConfigError(
            f"output.snapshot_at index {base.snapshot_at[-1]} lies past run.events {base.events}"
        )
    divisor = cfg.get("run.map.divisor")
    bins = cfg.get("output.histogram_bins")
    formats = cfg.get("output.formats")

    for r in range(replicas):
        traj = run(replace(base, replica=r))
        rdir = out.directory / f"replica-{r:03d}" if replicas > 1 else out.directory
        out.make_dir(rdir)
        if "csv" in formats:
            write_csv(
                rdir / "trajectory.csv",
                ("event_index", "time", "kind", "trade_price", "bid", "ask"),
                _trajectory_blocks(traj),
                out.written,
            )
            final = traj.final_book.snapshot()
            out.csv(rdir / "final-book.csv", _BOOK_HEADER, _columns(final.rows(), 3))
            out.csv(
                rdir / "histogram.csv",
                ("bin_lo", "bin_hi", "buy_count", "sell_count"),
                _histogram_columns(traj.final_book, pair.interval, bins),
            )
            for idx, snap in sorted(traj.snapshots.items()):
                out.csv(rdir / f"snapshot-{idx}.csv", _BOOK_HEADER, _columns(snap.rows(), 3))
            if divisor is not None:
                image = image_book(traj.final_book, divisor).snapshot()
                out.csv(rdir / "image-book.csv", _BOOK_HEADER, _columns(image.rows(), 3))
        if "json" in formats:
            out.json(rdir / "summary.json", _summary_payload(traj))
    return EXIT_OK


def cmd_compare(cfg: Config, out: OutputSettings) -> int:
    import numpy as np

    from .engine import quote_cdfs, run
    from .theory import Recurrence, classify_recurrence, phi, solve_luckock

    pair, rho = _model(cfg)
    window, volume = parse_restriction(cfg, pair)
    burn_in = cfg.get("run.burn_in")
    base = sim_config(cfg, pair, rho, restriction=window, burn_in=burn_in)
    _check_horizon(base, 1)
    tol_cdf = cfg.get("compare.tolerance_cdf")
    tol_empty = cfg.get("compare.tolerance_empty")
    grid_size = cfg.get("compare.grid_size")
    formats = cfg.get("output.formats")

    if window is None:
        raise ConfigError("compare requires run.restriction")
    if volume is None:
        raise ConfigError(
            "compare requires a level window: demand at the left edge must "
            "match supply at the right edge (or use {\"volume\": v})"
        )
    klass = classify_recurrence(pair, rho, volume)
    if klass is not Recurrence.POSITIVE_RECURRENT:
        value = phi(pair, rho, volume)
        thr = 1.0 / walras(pair).volume ** 2
        print(
            "compare refused: the restricted model on "
            f"[{window.lo}, {window.hi}] is {klass.value}; "
            f"a stationary law needs the window functional {value:.6g} to stay "
            f"below the recurrence threshold {thr:.6g}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    sol = solve_luckock(pair, rho, window, grid_size=grid_size)
    traj = run(base)
    if traj.burn_index >= traj.n_events:
        print(
            f"compare needs a state after the burn-in: the run drew {traj.n_events} "
            f"events and run.burn_in {burn_in} leaves none of them",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    s = traj.summary
    grid, bid_cdf, ask_survival = quote_cdfs(traj)
    theory_bid = np.interp(grid, sol.grid, sol.f_minus)
    theory_ask = np.interp(grid, sol.grid, sol.f_plus)
    sup_bid = float(np.abs(bid_cdf - theory_bid).max())
    sup_ask = float(np.abs(ask_survival - theory_ask).max())
    empty_buy_diff = abs(s.empty_buy_prob - sol.f_minus_lo)
    empty_sell_diff = abs(s.empty_sell_prob - sol.f_plus_hi)
    passed = (
        sup_bid <= tol_cdf
        and sup_ask <= tol_cdf
        and empty_buy_diff <= tol_empty
        and empty_sell_diff <= tol_empty
    )

    out.make_dir(out.directory)
    if "csv" in formats:
        out.csv(
            out.directory / "curves.csv",
            ("price", "bid_cdf_sim", "bid_cdf_theory", "ask_survival_sim", "ask_survival_theory"),
            (grid, bid_cdf, theory_bid, ask_survival, theory_ask),
        )
    if "json" in formats:
        out.json(
            out.directory / "report.json",
            {
                "command": "compare",
                "seed": base.seed,
                "rho": rho,
                "window": [window.lo, window.hi],
                "volume": volume,
                "recurrence": klass.value,
                "n_events": traj.n_events,
                "burn_in": burn_in,
                "sup_distance_bid": sup_bid,
                "sup_distance_ask": sup_ask,
                "empty_buy_sim": s.empty_buy_prob,
                "empty_buy_theory": sol.f_minus_lo,
                "empty_buy_diff": empty_buy_diff,
                "empty_sell_sim": s.empty_sell_prob,
                "empty_sell_theory": sol.f_plus_hi,
                "empty_sell_diff": empty_sell_diff,
                "tolerance_cdf": tol_cdf,
                "tolerance_empty": tol_empty,
                "passed": passed,
            },
        )
    if not passed:
        print(
            f"compare failed tolerances: sup bid {sup_bid:.4f}, sup ask "
            f"{sup_ask:.4f} (limit {tol_cdf}); empty-side diffs "
            f"{empty_buy_diff:.4f}/{empty_sell_diff:.4f} (limit {tol_empty})",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_freeze(cfg: Config, out: OutputSettings) -> int:
    """The freeze ensemble, and with ``freeze.gambler.y`` the survival
    scenario: each replica again from a book holding one resting buy at y.
    The gambler's replica r draws the stream of the main replica r, so
    one ``run_ensemble`` call decodes each stream once and steps both
    books through it."""
    import numpy as np

    from .engine import run_ensemble
    from .theory import freeze_support, gambler_bound

    pair, rho = _model(cfg)
    base = sim_config(cfg, pair, rho)
    replicas = cfg.get("run.replicas")
    workers = cfg.get("run.workers")
    bins = cfg.get("output.histogram_bins")
    formats = cfg.get("output.formats")
    allow_subcritical = cfg.get("freeze.allow_subcritical")

    v_w = walras(pair).volume
    if rho < v_w and not allow_subcritical:
        raise ConfigError(
            f"freeze expects rho >= the walrasian volume ({v_w:.6g}); got "
            f"rho={rho}. Set freeze.allow_subcritical for a contrast run."
        )
    y = cfg.get("freeze.gambler.y")
    if y is not None:
        bound = gambler_bound(pair, rho, y)
    # the gambler's books step as many replicas again
    _check_horizon(base, replicas * (1 if y is None else 2))

    if y is None:
        stats = run_ensemble(base, replicas=replicas, workers=workers)
    else:
        gambler = replace(base, initial_buys=(y,))
        stats, gstats = run_ensemble(base, replicas=replicas, workers=workers, also=(gambler,))
    frozen = [s for s in stats if s.frozen]
    midpoints = np.array([s.freeze_midpoint for s in frozen])

    support = None
    try:
        fs = freeze_support(pair, rho)
        support = {"lo": fs.lo, "hi": fs.hi, "degenerate": fs.degenerate}
    except (AssumptionError, ValueError):
        pass  # subcritical contrast run, or flat curve segments

    out.make_dir(out.directory)
    if "csv" in formats:
        columns = [[_cell(getattr(s, f)) for s in stats] for f in _REPLICA_FIELDS]
        out.csv(out.directory / "replicas.csv", _REPLICA_FIELDS, columns)
        edges = np.linspace(pair.interval.lo, pair.interval.hi, bins + 1)
        counts, _ = np.histogram(midpoints, bins=edges)
        out.csv(
            out.directory / "midpoint-histogram.csv",
            ("bin_lo", "bin_hi", "count"),
            (edges[:-1], edges[1:], counts),
        )
    payload = {
        "command": "freeze",
        "seed": base.seed,
        "rho": rho,
        "replicas": replicas,
        "fraction_frozen": len(frozen) / len(stats),
        "midpoint_mean": float(midpoints.mean()) if len(frozen) else None,
        "midpoint_std": float(midpoints.std()) if len(frozen) else None,
        "midpoint_min": float(midpoints.min()) if len(frozen) else None,
        "midpoint_max": float(midpoints.max()) if len(frozen) else None,
        "freeze_support": support,
    }

    if y is not None:
        # a replica of no events has a NaN min_bid: its bid never left y
        held = sum(1 for s in gstats if not s.min_bid < y)
        payload["gambler"] = {
            "y": y,
            "bound": bound,
            "empirical_fraction": held / len(gstats),
            "replicas": len(gstats),
        }
    if "json" in formats:
        out.json(out.directory / "ensemble.json", payload)
    return EXIT_OK


def cmd_sweep(cfg: Config, out: OutputSettings) -> int:
    pair, rho_model = _model(cfg)
    rhos = cfg.get("sweep.rho")
    volumes = cfg.get("sweep.volume")
    if (rhos is None) == (volumes is None):
        raise ConfigError("sweep block must set exactly one of rho and volume")
    from .theory import recurrence_sweep, v_l

    if volumes is not None:
        rows = [
            [v, value, "out_of_domain" if klass is None else klass.value]
            for v, (value, klass) in zip(volumes, recurrence_sweep(pair, rho_model, volumes))
        ]
        out.make_dir(out.directory)
        out.csv(out.directory / "sweep.csv", ("volume", "phi", "recurrence"), _columns(rows, 3))
        return EXIT_OK

    # a rho sweep with a run block simulates at each rate too
    simulate = "run" in cfg.doc
    if simulate:
        from .engine import run

        base = sim_config(cfg, pair, rho_model, burn_in=cfg.get("run.burn_in"))
        _check_horizon(base, 1, rhos)
    header = ["rho", "v_w", "v_l", "x_minus", "x_plus", "window_length", "degenerate", "boundary"]
    if simulate:
        header += ["est_lo", "est_hi", "sim_frozen"]
    rows = []
    for r in rhos:
        rep = v_l(pair, r)
        row = [
            r,
            rep.v_w,
            rep.v_l,
            rep.window.lo if rep.window is not None else math.nan,
            rep.window.hi if rep.window is not None else math.nan,
            rep.window_length,
            int(rep.degenerate),
            int(rep.boundary),
        ]
        if simulate:
            st = run(replace(base, rho=r)).summary
            row += [_cell(st.window_lo), _cell(st.window_hi), _cell(st.frozen)]
        rows.append(row)
    out.make_dir(out.directory)
    out.csv(out.directory / "sweep.csv", header, _columns(rows, len(header)))
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobmm",
        description="Order book model with market makers: theory, simulation, cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("theory", cmd_theory, "analytic window report for the configured model", False),
        ("simulate", cmd_simulate, "run trajectories and emit book histograms", True),
        ("compare", cmd_compare, "validate simulation against the stationary quote law", False),
        ("freeze", cmd_freeze, "replica ensemble in the high maker-rate regime", True),
        ("sweep", cmd_sweep, "tabulate window geometry or recurrence over a grid", False),
    )
    for name, handler, help_text, seed_required in specs:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("config", help="path to the JSON config document")
        for flag, (key, kind, flag_help) in FLAGS.items():
            if flag == "--seed" or key in READS[name]:
                required = flag == "--seed" and seed_required
                p.add_argument(
                    flag,
                    type=kind,
                    required=required,
                    help=f"{flag_help} (overrides {key})" + ("; required" if required else ""),
                )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  A command that fails, with an error exit or an
    uncaught exception, leaves none of its artifacts behind; a compare run
    that misses its tolerances (exit 4) keeps its full report."""
    args = build_parser().parse_args(argv)
    out: Optional[OutputSettings] = None
    finished = False
    try:
        doc = load_config(args.config)
        check_contract(doc, args.command)
        cfg = Config(doc, args.command, args)
        out = OutputSettings(Path(cfg.get("output.directory")))
        code = args.handler(cfg, out)
        finished = code in (EXIT_OK, EXIT_TOLERANCE)
        return code
    except AssumptionError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # load_config reports the config file itself; any other file is output
        if exc.filename is None:
            raise
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if out is not None and not finished:
            out.remove_written()


if __name__ == "__main__":
    sys.exit(main())
