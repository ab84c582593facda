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
asks for more memory than there is, or an output path that cannot be
written; 3 a structural assumption on the curves fails; 4 a compare run
exceeded its tolerances.  A command that fails (exit 2 or 3, or an
uncaught error) removes the files it wrote and the directories it made.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .book import OrderBook
from .curves import (
    AssumptionError,
    DemandSupplyPair,
    Direction,
    MonotoneCurve,
    PriceInterval,
    walras,
)
from .engine import (
    DiscreteMap,
    SimConfig,
    Trajectory,
    image_book,
    quote_cdfs,
    run,
    run_ensemble,
)
from .theory import (
    PhiTable,
    Recurrence,
    SingularCoefficientError,
    classify_recurrence,
    freeze_support,
    gambler_bound,
    phi,
    recurrence_sweep,
    solve_luckock,
    v_l,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_TOLERANCE = 4

KIND_TOKENS = ("buy_market", "sell_market", "buy_limit", "sell_limit", "maker", "dropped")


class ConfigError(ValueError):
    """The config document is malformed or inconsistent."""


# -- config parsing ----------------------------------------------------------

_MODEL = ("interval", "demand", "supply", "rho")
_HORIZON = ("events", "duration", "seed")

# command -> block -> the keys that command reads.  Every other key is an
# error, so a config cannot describe a model the command does not run.  A
# volume sweep simulates nothing and reads no run block (check_contract).
READS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "theory": {"model": _MODEL, "output": ("directory", "formats")},
    "simulate": {
        "model": _MODEL,
        "run": _HORIZON + ("burn_in", "replicas", "restriction", "map"),
        "output": ("directory", "histogram_bins", "snapshot_at", "formats"),
    },
    "compare": {
        "model": _MODEL,
        "run": _HORIZON + ("burn_in", "restriction"),
        "output": ("directory", "formats"),
        "compare": ("tolerance_cdf", "tolerance_empty", "grid_size"),
    },
    "freeze": {
        "model": _MODEL,
        "run": _HORIZON + ("replicas", "workers"),
        "output": ("directory", "histogram_bins", "formats"),
        "freeze": ("allow_subcritical", "gambler"),
    },
    "sweep": {
        "model": _MODEL,
        "run": _HORIZON + ("burn_in",),
        "output": ("directory",),
        "sweep": ("rho", "volume"),
    },
}


def check_contract(doc: Dict[str, Any], command: str) -> None:
    """Reject every key of ``doc`` that ``command`` does not read."""
    reads = dict(READS[command])
    if command == "sweep" and "volume" in doc.get("sweep", {}):
        del reads["run"]
    unread = [b for b in doc if b not in reads]
    unread += [f"{b}.{k}" for b in doc if b in reads for k in doc[b] if k not in reads[b]]
    if unread:
        raise ConfigError(f"lobmm {command} does not read config key(s): {', '.join(unread)}")


def _check_keys(block: Dict[str, Any], allowed: set, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(block: Dict[str, Any], key: str, where: str) -> Any:
    if key not in block:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return block[key]


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


def _nan_if_none(value: Optional[float]) -> float:
    return math.nan if value is None else value


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


def _parse_curve(spec: Any, direction: Direction, name: str) -> MonotoneCurve:
    if not isinstance(spec, list) or len(spec) < 2:
        raise ConfigError(f"model.{name} must be a list of at least two [price, rate] pairs")
    prices, rates = [], []
    for i, item in enumerate(spec):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"model.{name}[{i}] must be a [price, rate] pair")
        prices.append(_as_number(item[0], f"model.{name}[{i}] price"))
        rates.append(_as_number(item[1], f"model.{name}[{i}] rate"))
    return MonotoneCurve(prices=tuple(prices), rates=tuple(rates), direction=direction)


def parse_model(doc: Dict[str, Any]) -> Tuple[DemandSupplyPair, float]:
    block = _require(doc, "model", "the config")
    interval = _require(block, "interval", "model")
    if not isinstance(interval, list) or len(interval) != 2:
        raise ConfigError("model.interval must be [lo, hi]")
    lo = _as_number(interval[0], "model.interval lo")
    hi = _as_number(interval[1], "model.interval hi")
    demand = _parse_curve(_require(block, "demand", "model"), Direction.DECREASING, "demand")
    supply = _parse_curve(_require(block, "supply", "model"), Direction.INCREASING, "supply")
    if (demand.lo, demand.hi) != (lo, hi) or (supply.lo, supply.hi) != (lo, hi):
        raise ConfigError("model curves must span exactly model.interval")
    rho = _as_number(block.get("rho", 0.0), "model.rho")
    if rho < 0.0:
        raise ConfigError("model.rho must be nonnegative")
    return DemandSupplyPair(demand, supply), rho


def parse_restriction(value: Any, pair: DemandSupplyPair) -> Tuple[PriceInterval, Optional[float]]:
    """Window plus, when derivable, the volume it restricts to.

    A ``{"volume": v}`` spec maps through the curve inverses; an explicit
    ``[lo, hi]`` must name a level window (demand at lo matching supply
    at hi), since the analytic layer is parameterized by volume.
    """
    if isinstance(value, dict):
        _check_keys(value, {"volume"}, "run.restriction")
        v = _as_number(_require(value, "volume", "run.restriction"), "run.restriction.volume")
        lo = float(pair.demand.inverse(v))
        hi = float(pair.supply.inverse(v))
        if not lo < hi:
            raise ConfigError(
                f"restriction volume {v} gives an empty window [{lo}, {hi}]"
            )
        return PriceInterval(lo, hi), v
    if isinstance(value, list) and len(value) == 2:
        lo = _as_number(value[0], "run.restriction lo")
        hi = _as_number(value[1], "run.restriction hi")
        if not lo < hi:
            raise ConfigError("run.restriction must satisfy lo < hi")
        window = PriceInterval(lo, hi)
        v_lo = float(pair.demand.value_at(lo))
        v_hi = float(pair.supply.value_at(hi))
        if abs(v_lo - v_hi) <= 1e-9 * max(1.0, abs(v_lo), abs(v_hi)):
            return window, 0.5 * (v_lo + v_hi)
        return window, None
    raise ConfigError("run.restriction must be [lo, hi] or {\"volume\": v}")


class RunSettings:
    """The run block with flag overrides folded in."""

    def __init__(self, doc: Dict[str, Any], pair: DemandSupplyPair, args) -> None:
        block = doc.get("run", {})
        self.events: Optional[int] = None
        self.duration: Optional[float] = None
        if "events" in block:
            self.events = _as_int(block["events"], "run.events")
        if "duration" in block:
            self.duration = _as_number(block["duration"], "run.duration")
        if self.events is not None and self.duration is not None:
            raise ConfigError("run block sets both events and duration")
        self.seed: Optional[int] = None
        if "seed" in block:
            self.seed = _as_int(block["seed"], "run.seed")
        if getattr(args, "seed", None) is not None:
            self.seed = args.seed
        self.replicas = _as_int(block.get("replicas", 1), "run.replicas")
        if self.replicas < 1:
            raise ConfigError("run.replicas must be at least 1")
        self.burn_in = _as_number(block.get("burn_in", 0.5), "run.burn_in")
        self.workers = _as_int(block.get("workers", 1), "run.workers")
        if getattr(args, "workers", None) is not None:
            self.workers = args.workers
        if self.workers < 0:
            raise ConfigError("run.workers (--workers) must be nonnegative; 0 means one per CPU")
        self.window: Optional[PriceInterval] = None
        self.volume: Optional[float] = None
        if block.get("restriction") is not None:
            self.window, self.volume = parse_restriction(block["restriction"], pair)
        self.map: Optional[DiscreteMap] = None
        if block.get("map") is not None:
            mblock = block["map"]
            if not isinstance(mblock, dict):
                raise ConfigError("run.map must be an object")
            _check_keys(mblock, {"divisor"}, "run.map")
            divisor = _as_number(_require(mblock, "divisor", "run.map"), "run.map.divisor")
            self.map = DiscreteMap.ceil_div(divisor)

    def sim_config(self, pair: DemandSupplyPair, rho: float, **extra) -> SimConfig:
        """The run this block describes, at maker rate ``rho``; ``extra``
        sets the remaining :class:`SimConfig` fields."""
        if self.events is None and self.duration is None:
            raise ConfigError("run block must set events or duration")
        if self.seed is None:
            raise ConfigError("a seed is required: set run.seed or pass --seed")
        return SimConfig(
            pair=pair,
            rho=rho,
            events=self.events,
            duration=self.duration,
            seed=self.seed,
            restriction=self.window,
            burn_in=self.burn_in,
            **extra,
        )


class OutputSettings:
    def __init__(self, doc: Dict[str, Any], args) -> None:
        block = doc.get("output", {})
        directory = block.get("directory", "out")
        if not isinstance(directory, str):
            raise ConfigError("output.directory must be a string")
        if getattr(args, "out", None) is not None:
            directory = args.out
        self.directory = Path(directory)
        self.histogram_bins = _as_int(block.get("histogram_bins", 100), "output.histogram_bins")
        if self.histogram_bins < 1:
            raise ConfigError("output.histogram_bins must be positive")
        snap = block.get("snapshot_at", [])
        if not isinstance(snap, list):
            raise ConfigError("output.snapshot_at must be a list of event indices")
        self.snapshot_at = tuple(_as_int(k, "output.snapshot_at entry") for k in snap)
        formats = block.get("formats", ["csv", "json"])
        if (
            not isinstance(formats, list)
            or not formats
            or any(f not in ("csv", "json") for f in formats)
        ):
            raise ConfigError('output.formats must be a nonempty subset of ["csv", "json"]')
        self.formats = frozenset(formats)
        # the files the command opened for writing and the directories it
        # made, in that order; main() removes them when the command fails
        self.written: List[Path] = []

    def wants(self, fmt: str) -> bool:
        return fmt in self.formats

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
    if isinstance(value, (np.floating, np.integer)):
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
_NEEDS_QUOTING = frozenset(',"\r\n')


def write_csv(
    path: Path,
    header: Sequence[str],
    columns: Sequence[Sequence[Any]],
    written: Optional[List[Path]] = None,
) -> None:
    """Write equal-length ``columns`` under ``header``, one line per row;
    ``written``, when given, records the path once the file is open.

    Cell contract: a float is written as its ``repr`` and NaN as an empty
    field, an int as ``str``, a str token as is.  A column is a float or
    integer numpy array, or a sequence whose cells are all Python floats,
    all Python ints or all str tokens; any other cell (None, bool, a numpy
    scalar, a mix of types) raises TypeError.  Nothing is quoted, so a
    token holding a comma, a double quote or a line break raises ValueError,
    as does a table of one column (a lone empty field would be a blank
    line).  Columns are formatted a block of rows at a time, so memory does
    not grow with the row count.
    """
    if len(header) < 2 or len(columns) != len(header):
        raise ValueError(f"{path.name}: need one column per header field, at least two")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError(f"{path.name}: columns differ in length")
    with _open_artifact(path, written) as fh:
        fh.write(",".join(_fields(list(header))) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            fields = [_fields(col[start : start + _BLOCK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _fields(cells: Sequence[Any]) -> List[str]:
    """One block of one column as CSV fields (the contract of write_csv)."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "fiu":
        values = cells.tolist()
        cell_type = float if cells.dtype.kind == "f" else int
    else:
        values = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
        types = set(map(type, values))
        if len(types) > 1 or not types <= {float, int, str}:
            names = ", ".join(sorted(t.__name__ for t in types))
            raise TypeError(f"a CSV column holds only floats, only ints or only str; got {names}")
        cell_type = types.pop()
    if cell_type is float:
        fields = list(map(repr, values))
        return ["" if f == "nan" else f for f in fields] if "nan" in fields else fields
    if cell_type is int:
        return list(map(str, values))
    for token in set(values):
        if not _NEEDS_QUOTING.isdisjoint(token):
            raise ValueError(f"CSV token {token!r} would need quoting")
    return values


def _columns(rows: Sequence[Sequence[Any]], width: int) -> List[Sequence[Any]]:
    """A small table of rows turned into its ``width`` columns."""
    return list(zip(*rows)) if rows else [()] * width


def _histogram_columns(book: OrderBook, interval: PriceInterval, bins: int):
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


def cmd_theory(doc: Dict[str, Any], args, out: OutputSettings) -> int:
    pair, rho = parse_model(doc)
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
        if out.wants("csv"):
            table = PhiTable.build(pair, rho)
            write_csv(
                out.directory / "phi.csv",
                ("volume", "phi", "error_estimate"),
                (table.volumes, table.values, table.errors),
                out.written,
            )
        if rep.window is not None and out.wants("csv"):
            try:
                sol = solve_luckock(pair, rho, rep.window)
                write_csv(
                    out.directory / "quotes.csv",
                    ("price", "bid_cdf", "ask_survival"),
                    (sol.grid, sol.f_minus, sol.f_plus),
                    out.written,
                )
                payload["quote_law"] = {
                    "empty_buy_prob": sol.f_minus_lo,
                    "empty_sell_prob": sol.f_plus_hi,
                    "grid_size": int(len(sol.grid)),
                }
            except SingularCoefficientError as exc:
                payload["quote_law"] = None
                notes.append(str(exc))
    if notes:
        payload["notes"] = notes
    if out.wants("json"):
        write_json(out.directory / "window.json", payload, out.written)
    return EXIT_OK


def _summary_payload(traj: Trajectory) -> Dict[str, Any]:
    st = traj.summary
    return {
        "command": "simulate",
        "seed": traj.config.seed,
        "replica": traj.config.replica,
        "rho": traj.config.rho,
        "n_events": traj.n_events,
        "end_time": traj.end_time,
        "burn_in": traj.config.burn_in,
        "restriction": (
            [traj.config.restriction.lo, traj.config.restriction.hi]
            if traj.config.restriction is not None
            else None
        ),
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


def cmd_simulate(doc: Dict[str, Any], args, out: OutputSettings) -> int:
    pair, rho = parse_model(doc)
    settings = RunSettings(doc, pair, args)
    base = settings.sim_config(pair, rho, snapshot_at=out.snapshot_at)

    for r in range(settings.replicas):
        traj = run(replace(base, replica=r))
        rdir = out.directory / f"replica-{r:03d}" if settings.replicas > 1 else out.directory
        out.make_dir(rdir)
        if out.wants("csv"):
            write_csv(
                rdir / "trajectory.csv",
                ("event_index", "time", "kind", "trade_price", "bid", "ask"),
                (
                    range(traj.n_events),
                    traj.times,
                    np.array(KIND_TOKENS, dtype=object)[traj.kinds],
                    traj.trade_prices,
                    traj.bids,
                    traj.asks,
                ),
                out.written,
            )
            write_csv(
                rdir / "final-book.csv",
                ("side", "price", "count"),
                _columns(traj.final_book.snapshot().rows(), 3),
                out.written,
            )
            write_csv(
                rdir / "histogram.csv",
                ("bin_lo", "bin_hi", "buy_count", "sell_count"),
                _histogram_columns(traj.final_book, pair.interval, out.histogram_bins),
                out.written,
            )
            for idx, snap in sorted(traj.snapshots.items()):
                write_csv(
                    rdir / f"snapshot-{idx}.csv",
                    ("side", "price", "count"),
                    _columns(snap.rows(), 3),
                    out.written,
                )
            if settings.map is not None:
                write_csv(
                    rdir / "image-book.csv",
                    ("side", "price", "count"),
                    _columns(image_book(traj.final_book, settings.map).snapshot().rows(), 3),
                    out.written,
                )
        if out.wants("json"):
            write_json(rdir / "summary.json", _summary_payload(traj), out.written)
    return EXIT_OK


def cmd_compare(doc: Dict[str, Any], args, out: OutputSettings) -> int:
    pair, rho = parse_model(doc)
    settings = RunSettings(doc, pair, args)
    cfg = settings.sim_config(pair, rho)
    block = doc.get("compare", {})
    tol_cdf = _as_number(block.get("tolerance_cdf", 0.05), "compare.tolerance_cdf")
    tol_empty = _as_number(block.get("tolerance_empty", 0.02), "compare.tolerance_empty")
    grid_size = _as_int(block.get("grid_size", 4096), "compare.grid_size")

    if settings.window is None:
        raise ConfigError("compare requires run.restriction")
    if settings.volume is None:
        raise ConfigError(
            "compare requires a level window: demand at the left edge must "
            "match supply at the right edge (or use {\"volume\": v})"
        )
    klass = classify_recurrence(pair, rho, settings.volume)
    if klass is not Recurrence.POSITIVE_RECURRENT:
        value = phi(pair, rho, settings.volume)
        thr = 1.0 / walras(pair).volume ** 2
        print(
            "compare refused: the restricted model on "
            f"[{settings.window.lo}, {settings.window.hi}] is {klass.value}; "
            f"a stationary law needs the window functional {value:.6g} to stay "
            f"below the recurrence threshold {thr:.6g}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    sol = solve_luckock(pair, rho, settings.window, grid_size=grid_size)
    traj = run(cfg)
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
    if out.wants("csv"):
        write_csv(
            out.directory / "curves.csv",
            (
                "price",
                "bid_cdf_sim",
                "bid_cdf_theory",
                "ask_survival_sim",
                "ask_survival_theory",
            ),
            (grid, bid_cdf, theory_bid, ask_survival, theory_ask),
            out.written,
        )
    if out.wants("json"):
        write_json(
            out.directory / "report.json",
            {
                "command": "compare",
                "seed": cfg.seed,
                "rho": rho,
                "window": [settings.window.lo, settings.window.hi],
                "volume": settings.volume,
                "recurrence": klass.value,
                "n_events": traj.n_events,
                "burn_in": settings.burn_in,
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
            out.written,
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


def cmd_freeze(doc: Dict[str, Any], args, out: OutputSettings) -> int:
    pair, rho = parse_model(doc)
    settings = RunSettings(doc, pair, args)
    base = settings.sim_config(pair, rho)
    block = doc.get("freeze", {})
    allow_subcritical = _as_bool(
        block.get("allow_subcritical", False), "freeze.allow_subcritical"
    )

    v_w = walras(pair).volume
    if rho < v_w and not allow_subcritical:
        raise ConfigError(
            f"freeze expects rho >= the walrasian volume ({v_w:.6g}); got "
            f"rho={rho}. Set freeze.allow_subcritical for a contrast run."
        )
    y: Optional[float] = None
    gblock = block.get("gambler")
    if gblock is not None:
        if not isinstance(gblock, dict):
            raise ConfigError("freeze.gambler must be an object")
        _check_keys(gblock, {"y"}, "freeze.gambler")
        y = _as_number(_require(gblock, "y", "freeze.gambler"), "freeze.gambler.y")
        bound = gambler_bound(pair, rho, y)

    stats = run_ensemble(base, replicas=settings.replicas, workers=settings.workers)
    frozen = [s for s in stats if s.frozen]
    midpoints = np.array([s.freeze_midpoint for s in frozen])

    support = None
    try:
        fs = freeze_support(pair, rho)
        support = {"lo": fs.lo, "hi": fs.hi, "degenerate": fs.degenerate}
    except (AssumptionError, ValueError):
        pass  # subcritical contrast run, or flat curve segments

    out.make_dir(out.directory)
    if out.wants("csv"):
        write_csv(
            out.directory / "replicas.csv",
            (
                "replica",
                "n_events",
                "frozen",
                "freeze_time",
                "freeze_midpoint",
                "trade_count",
                "min_bid",
                "max_ask",
                "final_buys",
                "final_sells",
            ),
            _columns(
                [
                    (
                        s.replica,
                        s.n_events,
                        int(s.frozen),
                        _nan_if_none(s.freeze_time),
                        _nan_if_none(s.freeze_midpoint),
                        s.trade_count,
                        s.min_bid,
                        s.max_ask,
                        s.final_buys,
                        s.final_sells,
                    )
                    for s in stats
                ],
                10,
            ),
            out.written,
        )
        edges = np.linspace(pair.interval.lo, pair.interval.hi, out.histogram_bins + 1)
        counts, _ = np.histogram(midpoints, bins=edges)
        write_csv(
            out.directory / "midpoint-histogram.csv",
            ("bin_lo", "bin_hi", "count"),
            (edges[:-1], edges[1:], counts),
            out.written,
        )
    payload = {
        "command": "freeze",
        "seed": base.seed,
        "rho": rho,
        "replicas": settings.replicas,
        "fraction_frozen": len(frozen) / len(stats),
        "midpoint_mean": float(midpoints.mean()) if len(frozen) else None,
        "midpoint_std": float(midpoints.std()) if len(frozen) else None,
        "midpoint_min": float(midpoints.min()) if len(frozen) else None,
        "midpoint_max": float(midpoints.max()) if len(frozen) else None,
        "freeze_support": support,
    }

    if y is not None:
        gstats = run_ensemble(
            replace(base, initial_buys=(y,)),
            replicas=settings.replicas,
            workers=settings.workers,
        )
        held = sum(1 for s in gstats if s.min_bid >= y)
        payload["gambler"] = {
            "y": y,
            "bound": bound,
            "empirical_fraction": held / len(gstats),
            "replicas": len(gstats),
        }
    if out.wants("json"):
        write_json(out.directory / "ensemble.json", payload, out.written)
    return EXIT_OK


def cmd_sweep(doc: Dict[str, Any], args, out: OutputSettings) -> int:
    pair, rho_model = parse_model(doc)
    settings = RunSettings(doc, pair, args)
    block = doc.get("sweep")
    if block is None:
        raise ConfigError("sweep requires a sweep block")
    if ("rho" in block) == ("volume" in block):
        raise ConfigError("sweep block must set exactly one of rho and volume")

    out.make_dir(out.directory)
    simulate = settings.seed is not None and (
        settings.events is not None or settings.duration is not None
    )

    if "rho" in block:
        rhos = [_as_number(v, "sweep.rho entry") for v in block["rho"]]
        header = [
            "rho",
            "v_w",
            "v_l",
            "x_minus",
            "x_plus",
            "window_length",
            "degenerate",
            "boundary",
        ]
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
                st = run(settings.sim_config(pair, r)).summary
                row += [_nan_if_none(st.window_lo), _nan_if_none(st.window_hi), int(st.frozen)]
            rows.append(row)
        write_csv(out.directory / "sweep.csv", header, _columns(rows, len(header)), out.written)
        return EXIT_OK

    volumes = [_as_number(v, "sweep.volume entry") for v in block["volume"]]
    rows = [
        [v, value, "out_of_domain" if klass is None else klass.value]
        for v, (value, klass) in zip(volumes, recurrence_sweep(pair, rho_model, volumes))
    ]
    header = ("volume", "phi", "recurrence")
    write_csv(out.directory / "sweep.csv", header, _columns(rows, 3), out.written)
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
        p.add_argument(
            "--seed",
            type=int,
            required=seed_required,
            help="master seed (overrides run.seed)"
            + ("; required" if seed_required else ""),
        )
        p.add_argument("--out", help="output directory (overrides output.directory)")
        if "workers" in READS[name].get("run", ()):
            p.add_argument("--workers", type=int, help="worker processes (overrides run.workers)")
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
        out = OutputSettings(doc, args)
        code = args.handler(doc, args, out)
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
