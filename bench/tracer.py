"""Outside-in tracing of the lobmm CLI, and the per-layer metrics it yields.

The tracer wraps the public functions the CLI calls, in every lobmm module
that binds them, so that nested calls (``v_l`` calling ``walras``, a pool
worker calling ``run``) land on the wrappers too.  Nothing under ``src/``
is instrumented.  Each wrapped call records a span: name, start, end,
parent span and process.  Two curve methods only count their calls.

Spans stay in memory and are written out when the traced command ends.
Pool workers are forked with the wrappers in place, but they skip
``atexit``, so a worker appends its spans to its own file each time an
outermost call returns.

Run as a script, this file is the traced CLI::

    PYTHONPATH=src python3 bench/tracer.py TRACE_DIR simulate cfg.json --seed 1
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MODULES = ("lobmm", "lobmm.curves", "lobmm.book", "lobmm.engine", "lobmm.theory", "lobmm.cli")

# (module, attribute path, span name)
SPANNED = (
    ("lobmm.cli", "main", "cli.main"),
    ("lobmm.cli", "write_csv", "cli.write_csv"),
    ("lobmm.cli", "write_json", "cli.write_json"),
    ("lobmm.curves", "walras", "curves.walras"),
    ("lobmm.engine", "run", "engine.run"),
    ("lobmm.engine", "run_ensemble", "engine.run_ensemble"),
    ("lobmm.engine", "detect_freeze", "engine.detect_freeze"),
    ("lobmm.engine", "estimate_window", "engine.estimate_window"),
    ("lobmm.theory", "v_l", "theory.v_l"),
    ("lobmm.theory", "phi", "theory.phi"),
    ("lobmm.theory", "classify_recurrence", "theory.classify_recurrence"),
    ("lobmm.theory", "PhiTable.build", "theory.PhiTable.build"),
    ("lobmm.theory", "solve_luckock", "theory.solve_luckock"),
)
COUNTED = (
    ("lobmm.curves", "MonotoneCurve.value_at", "curves.value_at"),
    ("lobmm.curves", "MonotoneCurve.inverse", "curves.inverse"),
)


def _attrs_run(args, kwargs, traj) -> Dict:
    from lobmm.engine import DROPPED

    book = traj.final_book
    return {
        "events": traj.n_events,
        "trades": traj.summary.trade_count,
        "dropped": int((traj.kinds == DROPPED).sum()),
        "levels": len(book.buy_counts) + len(book.sell_counts),
        "orders": book.n_buys + book.n_sells,
    }


def _attrs_file(args, kwargs, _result) -> Dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _attrs_ensemble(args, kwargs, _result) -> Dict:
    import lobmm.engine

    bound = inspect.signature(lobmm.engine.run_ensemble).bind(*args, **kwargs)
    replicas = bound.arguments["replicas"]
    workers = bound.arguments.get("workers") or os.cpu_count() or 1
    return {"pool": 1 if workers <= 1 or replicas == 1 else min(workers, replicas)}


# span attributes, computed from a call's arguments and result
_ATTRS = {
    "engine.run": _attrs_run,
    "cli.write_csv": _attrs_file,
    "cli.write_json": _attrs_file,
    "engine.run_ensemble": _attrs_ensemble,
}


def _resolve(module: str, path: str) -> Tuple[object, str, object]:
    """(owner, attribute, raw value) for ``module:path``; class attributes
    come from the class ``__dict__`` so a classmethod stays a descriptor."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Installs the wrappers on entry and restores every original on exit."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.active = False
        self.pid = os.getpid()
        self.seq = 0
        self.spans: List[Dict] = []
        self.stack: List[Dict] = []
        self.counts: Counter = Counter()
        self.fork_parent: Optional[str] = None
        self.saved: List[Tuple[object, str, object]] = []
        self.forked = False

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> Dict:
        self.seq += 1
        parent = self.stack[-1]["id"] if self.stack else self.fork_parent
        span = {"id": f"{self.pid}:{self.seq}", "name": name, "pid": self.pid, "parent": parent}
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: Dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.forked = True
        self.fork_parent = self.stack[-1]["id"] if self.stack else self.fork_parent
        self.pid = os.getpid()
        self.spans, self.stack, self.counts = [], [], Counter()

    def flush(self) -> None:
        """Append this process's spans and counts to its own file."""
        if not self.spans and not self.counts:
            return
        record = {
            "pid": self.pid,
            "start_method": multiprocessing.get_start_method(),
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counts = [], Counter()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            if tracer.forked and not tracer.stack:
                tracer.flush()
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, raw, value) -> None:
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, path, name in table:
                owner, attr, raw = _resolve(module, path)
                if isinstance(raw, classmethod):
                    self._replace(owner, attr, raw, classmethod(make(name, raw.__func__)))
                elif isinstance(owner, type):
                    self._replace(owner, attr, raw, make(name, raw))
                else:
                    wrapped = make(name, raw)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._replace(mod, key, raw, wrapped)
        os.register_at_fork(after_in_child=self._after_fork)
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


# -- per-layer metrics from the span files -------------------------------------


def load(trace_dir: Path) -> Tuple[List[Dict], Counter, set]:
    spans: List[Dict] = []
    counts: Counter = Counter()
    methods = set()
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            spans.extend(record["spans"])
            counts.update(record["counts"])
            methods.add(record["start_method"])
    return spans, counts, methods


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span duration minus the part of it that child spans cover.

    Children may run in parallel (pool workers), so coverage is the length
    of the union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# metrics that need the wrappers inside pool workers
_WORKER_SIDE = (
    "engine.run.",
    "book.",
    "engine.detect_freeze.",
    "engine.estimate_window.",
    "engine.run_ensemble.busy_s",
    "engine.run_ensemble.idle_s",
    "engine.run_ensemble.efficiency",
)


def layer_metrics(spans: List[Dict], counts: Counter, methods: set) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Per-layer metric values, plus the reason for each one left missing.

    A layer the workload never calls reads 0 (0 calls, 0 s); a rate over
    zero work also reads 0.
    """
    self_s = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    total = defaultdict(float)
    calls = Counter()
    attrs = defaultdict(Counter)
    peaks = defaultdict(int)
    for s in spans:
        total[s["name"]] += self_s[s["id"]]
        calls[s["name"]] += 1
        for key, value in s.get("attrs", {}).items():
            attrs[s["name"]][key] += value
            peaks[(s["name"], key)] = max(peaks[(s["name"], key)], value)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    ensembles = [s for s in spans if s["name"] == "engine.run_ensemble"]
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["pool"] for s in ensembles)
    # replica spans: the calls a pool worker (or a serial ensemble) makes
    busy = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] in by_id and by_id[s["parent"]]["name"] == "engine.run_ensemble"
    )
    events = attrs["engine.run"]["events"]
    csv_bytes = attrs["cli.write_csv"]["bytes"]
    m: Dict[str, Optional[float]] = {
        "cli.write_csv.self_s": total["cli.write_csv"],
        "cli.write_csv.bytes": csv_bytes,
        "cli.write_csv.mb_per_s": ratio(csv_bytes / 1e6, total["cli.write_csv"]),
        "cli.write_json.self_s": total["cli.write_json"],
        "engine.run.self_s": total["engine.run"],
        "engine.run.calls": calls["engine.run"],
        "engine.run.events": events,
        "engine.run.events_per_s": ratio(events, total["engine.run"]),
        "engine.run.trades": attrs["engine.run"]["trades"],
        "engine.run.dropped_frac": ratio(attrs["engine.run"]["dropped"], events),
        "book.final_levels": peaks[("engine.run", "levels")],
        "book.final_orders": peaks[("engine.run", "orders")],
        "engine.detect_freeze.self_s": total["engine.detect_freeze"],
        "engine.estimate_window.self_s": total["engine.estimate_window"],
        "engine.run_ensemble.wall_s": sum(s["end"] - s["start"] for s in ensembles),
        "engine.run_ensemble.busy_s": busy,
        "engine.run_ensemble.idle_s": capacity - busy,
        "engine.run_ensemble.efficiency": ratio(busy, capacity),
        "theory.v_l.self_s": total["theory.v_l"],
        "theory.v_l.calls": calls["theory.v_l"],
        "theory.phi.self_s": total["theory.phi"],
        "theory.classify_recurrence.self_s": total["theory.classify_recurrence"],
        "theory.PhiTable.build.self_s": total["theory.PhiTable.build"],
        "theory.solve_luckock.self_s": total["theory.solve_luckock"],
        "curves.walras.self_s": total["curves.walras"],
        "curves.value_at.calls": counts["curves.value_at"],
        "curves.inverse.calls": counts["curves.inverse"],
    }
    missing: Dict[str, str] = {}
    pooled = any(s["attrs"]["pool"] > 1 for s in ensembles)
    if pooled and methods - {"fork"}:
        reason = f"pool start method {sorted(methods)} is not fork: workers run without the wrappers"
        for key in m:
            if key.startswith(_WORKER_SIDE):
                m[key] = None
                missing[key] = reason
    return m, missing


def main(argv: List[str]) -> int:
    trace_dir, cli_args = Path(argv[0]), argv[1:]
    import lobmm.cli

    with Tracer(trace_dir) as tracer:
        try:
            return lobmm.cli.main(cli_args)
        finally:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
